//! The d-safety property (Definition 6), made checkable.
//!
//! "A neighbor validation function has the d-safety property if for any
//! compromised node, there exists a circle with radius d that contains all
//! the functional neighbors of this node and its replicas."
//!
//! The *functional neighbors of a compromised node* are the benign nodes
//! that accepted it — nodes `v` with a functional edge `(v, u)` toward the
//! compromised `u`. The containment circle is over those nodes' *original
//! deployment points* (Theorem 3's proof fixes deployment points precisely
//! because replicas move radios, not deployments). The tightest such circle
//! is the minimal enclosing circle, so checking d-safety is an exact
//! geometric computation.

use std::collections::BTreeSet;

use snd_topology::enclosing::{min_enclosing_circle, point_set_diameter};
use snd_topology::{Deployment, DiGraph, NodeId, Point};

/// Per-compromised-node safety measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeImpact {
    /// The compromised node.
    pub node: NodeId,
    /// Benign nodes that functionally accepted it.
    pub victims: Vec<NodeId>,
    /// Radius of the minimal circle containing all victims' deployment
    /// points (0 when fewer than 2 victims).
    pub containment_radius: f64,
    /// Largest distance between two victims.
    pub victim_spread: f64,
}

/// Result of checking d-safety over a whole topology.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyReport {
    /// The radius bound that was checked.
    pub d: f64,
    /// Per-compromised-node measurements.
    pub impacts: Vec<NodeImpact>,
}

impl SafetyReport {
    /// Whether every compromised node's victims fit in a circle of radius
    /// `d`.
    pub fn holds(&self) -> bool {
        self.impacts
            .iter()
            .all(|i| i.containment_radius <= self.d * (1.0 + 1e-9))
    }

    /// The worst (largest) containment radius observed, 0 if no impacts.
    pub fn worst_radius(&self) -> f64 {
        self.impacts
            .iter()
            .map(|i| i.containment_radius)
            .fold(0.0, f64::max)
    }

    /// The impacts that violate the bound.
    pub fn violations(&self) -> Vec<&NodeImpact> {
        self.impacts
            .iter()
            .filter(|i| i.containment_radius > self.d * (1.0 + 1e-9))
            .collect()
    }
}

/// Measures the impact of one compromised node: its benign functional
/// neighbors and the minimal circle containing them.
pub fn node_impact(
    functional: &DiGraph,
    deployment: &Deployment,
    compromised: NodeId,
    all_compromised: &BTreeSet<NodeId>,
) -> NodeImpact {
    let victims: Vec<NodeId> = functional
        .in_neighbors(compromised)
        .filter(|v| !all_compromised.contains(v))
        .collect();
    let points: Vec<Point> = victims
        .iter()
        .filter_map(|v| deployment.position(*v))
        .collect();
    let containment_radius = min_enclosing_circle(&points).map_or(0.0, |c| c.radius);
    let victim_spread = point_set_diameter(&points);
    NodeImpact {
        node: compromised,
        victims,
        containment_radius,
        victim_spread,
    }
}

/// The containment radius of one compromised node (shortcut over
/// [`node_impact`]).
pub fn safety_radius(
    functional: &DiGraph,
    deployment: &Deployment,
    compromised: NodeId,
    all_compromised: &BTreeSet<NodeId>,
) -> f64 {
    node_impact(functional, deployment, compromised, all_compromised).containment_radius
}

/// Checks the d-safety property for every node in `compromised`.
pub fn check_d_safety(
    functional: &DiGraph,
    deployment: &Deployment,
    compromised: &BTreeSet<NodeId>,
    d: f64,
) -> SafetyReport {
    let impacts = compromised
        .iter()
        .map(|&c| node_impact(functional, deployment, c, compromised))
        .collect();
    SafetyReport { d, impacts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_topology::Field;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn deployment() -> Deployment {
        let mut d = Deployment::empty(Field::square(1000.0));
        d.place(n(1), Point::new(100.0, 100.0));
        d.place(n(2), Point::new(120.0, 100.0));
        d.place(n(3), Point::new(110.0, 120.0));
        d.place(n(4), Point::new(900.0, 900.0)); // far away victim
        d.place(n(9), Point::new(110.0, 105.0)); // the compromised node
        d
    }

    #[test]
    fn local_victims_small_radius() {
        let mut f = DiGraph::new();
        f.add_edge(n(1), n(9));
        f.add_edge(n(2), n(9));
        f.add_edge(n(3), n(9));
        let compromised: BTreeSet<NodeId> = [n(9)].into_iter().collect();
        let report = check_d_safety(&f, &deployment(), &compromised, 100.0);
        assert!(report.holds());
        assert!(report.worst_radius() < 20.0);
        assert!(report.violations().is_empty());
    }

    #[test]
    fn remote_victim_blows_the_bound() {
        let mut f = DiGraph::new();
        f.add_edge(n(1), n(9));
        f.add_edge(n(4), n(9)); // 4 is ~1130m away from 1
        let compromised: BTreeSet<NodeId> = [n(9)].into_iter().collect();
        let report = check_d_safety(&f, &deployment(), &compromised, 100.0);
        assert!(!report.holds());
        assert_eq!(report.violations().len(), 1);
        assert!(report.worst_radius() > 500.0);
        let impact = &report.impacts[0];
        assert!(impact.victim_spread > 1000.0);
    }

    #[test]
    fn compromised_victims_do_not_count() {
        // Edges from other compromised nodes are the attacker talking to
        // itself; Definition 6 is about benign victims.
        let mut f = DiGraph::new();
        f.add_edge(n(4), n(9));
        let compromised: BTreeSet<NodeId> = [n(4), n(9)].into_iter().collect();
        let report = check_d_safety(&f, &deployment(), &compromised, 10.0);
        assert!(report.holds());
        assert!(report.impacts.iter().all(|i| i.victims.is_empty()));
    }

    #[test]
    fn outgoing_edges_irrelevant() {
        // (9 -> 1) is the compromised node *claiming* 1; only (1 -> 9)
        // means 1 accepted 9.
        let mut f = DiGraph::new();
        f.add_edge(n(9), n(1));
        f.add_edge(n(9), n(4));
        let compromised: BTreeSet<NodeId> = [n(9)].into_iter().collect();
        let report = check_d_safety(&f, &deployment(), &compromised, 1.0);
        assert!(report.holds());
    }

    #[test]
    fn single_victim_zero_radius() {
        let mut f = DiGraph::new();
        f.add_edge(n(4), n(9));
        let compromised: BTreeSet<NodeId> = [n(9)].into_iter().collect();
        assert_eq!(
            safety_radius(&f, &deployment(), n(9), &compromised),
            0.0,
            "one victim always fits in any circle"
        );
    }

    #[test]
    fn no_compromised_nodes_trivially_safe() {
        let report = check_d_safety(&DiGraph::new(), &deployment(), &BTreeSet::new(), 0.0);
        assert!(report.holds());
        assert_eq!(report.worst_radius(), 0.0);
    }
}
