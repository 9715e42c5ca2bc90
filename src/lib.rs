//! # secure-neighbor-discovery
//!
//! A complete reproduction of *"Protecting Neighbor Discovery Against Node
//! Compromises in Sensor Networks"* (Donggang Liu, ICDCS 2009): a
//! localized, threshold-secure neighbor-discovery protocol for wireless
//! sensor networks, together with every substrate it needs — cryptography,
//! geometry/topology, a discrete-event network simulator, baseline
//! comparators and downstream applications.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`crypto`] (`snd-crypto`) — SHA-256 and the erasable master-key cell;
//! * [`topology`] (`snd-topology`) — deployments, unit-disk graphs,
//!   partitions, minimal enclosing circles;
//! * [`sim`] (`snd-sim`) — the deterministic discrete-event simulator;
//! * [`exec`] (`snd-exec`) — the deterministic parallel trial executor;
//! * [`observe`] (`snd-observe`) — structured tracing, metrics registry
//!   and machine-readable run reports;
//! * [`core`] (`snd-core`) — the paper's model, theorems, protocol,
//!   extension, adversary and analysis;
//! * [`baselines`] (`snd-baselines`) — Parno et al. replica detection and
//!   direct-verification models;
//! * [`apps`] (`snd-apps`) — routing, clustering and aggregation consumers;
//! * [`trace`] (`snd-trace`) — the `snd-trace` analysis CLI over run
//!   reports and bench trajectories.
//!
//! ## Example
//!
//! ```
//! use secure_neighbor_discovery::core::prelude::*;
//! use secure_neighbor_discovery::topology::unit_disk::RadioSpec;
//! use secure_neighbor_discovery::topology::{Field, NodeId, Point};
//!
//! let mut engine = DiscoveryEngine::new(
//!     Field::square(100.0),
//!     RadioSpec::uniform(50.0),
//!     ProtocolConfig::with_threshold(0),
//!     1,
//! );
//! engine.deploy_at(NodeId(0), Point::new(45.0, 50.0));
//! engine.deploy_at(NodeId(1), Point::new(55.0, 50.0));
//! engine.deploy_at(NodeId(2), Point::new(50.0, 55.0));
//! engine.run_wave(&[NodeId(0), NodeId(1), NodeId(2)]);
//! assert_eq!(engine.functional_topology().edge_count(), 6);
//! ```

pub use snd_apps as apps;
pub use snd_baselines as baselines;
pub use snd_core as core;
pub use snd_crypto as crypto;
pub use snd_exec as exec;
pub use snd_observe as observe;
pub use snd_sim as sim;
pub use snd_topology as topology;
pub use snd_trace as trace;
