//! Frozen flat-topology snapshots.
//!
//! [`DiGraph`] is the *mutable* representation: `BTreeMap<NodeId,
//! BTreeSet<NodeId>>` adjacency that supports incremental edge updates as
//! discovery waves land. Every analysis pass, however, works on a graph that
//! no longer changes — validation of a finished tentative topology
//! (Definition 4), partition analysis (Section 3.1), hop counting for the
//! baselines. [`FrozenGraph`] is the read-only CSR (compressed sparse row)
//! snapshot those passes run on:
//!
//! - a dense interner mapping each [`NodeId`] to a `u32` index (ids sorted
//!   ascending, so index order equals id order),
//! - an offset array and one concatenated, per-row-sorted target array —
//!   `out(u)` is a borrowed `&[u32]` slice, no allocation, no pointer
//!   chasing,
//! - an allocation-free [`common_out_count`](FrozenGraph::common_out_count)
//!   two-pointer merge that early-exits at the caller's cap (the paper's
//!   `>= t+1` rule only needs to count to `t+1`),
//! - an optional bitset row for high-degree nodes (forged "everyone is my
//!   neighbor" records under the total-break adversary produce exactly such
//!   hub rows), making membership tests O(1) there.
//!
//! Because rows are sorted by index and indexes are sorted by id, iterating
//! a frozen row visits neighbors in the same ascending-id order as the
//! `BTreeSet` it was built from — deterministic results are preserved by
//! construction.

use std::collections::BTreeMap;

use crate::graph::DiGraph;
use crate::ids::NodeId;

/// Rows with at least this many out-neighbors get a bitset in addition to
/// their sorted slice. Below it, the two-pointer merge on short sorted rows
/// is faster than touching a `n/64`-word bitmap, and the memory stays flat.
const BITSET_MIN_DEGREE: usize = 256;

/// Sentinel for "this row has no bitset".
const NO_BITSET: u32 = u32::MAX;

/// An immutable CSR snapshot of a [`DiGraph`].
///
/// # Examples
///
/// ```
/// use snd_topology::{DiGraph, FrozenGraph, NodeId};
///
/// let mut g = DiGraph::new();
/// g.add_edge(NodeId(1), NodeId(2));
/// g.add_edge(NodeId(1), NodeId(3));
/// g.add_edge(NodeId(2), NodeId(3));
///
/// let f = FrozenGraph::freeze(&g);
/// let u = f.index_of(NodeId(1)).unwrap();
/// let v = f.index_of(NodeId(2)).unwrap();
/// assert!(f.has_edge(u, v));
/// // N(1) ∩ N(2) = {3}
/// assert_eq!(f.common_out_count(u, v, usize::MAX), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenGraph {
    /// Sorted ascending; `ids[i]` is the [`NodeId`] of index `i`.
    ids: Vec<NodeId>,
    /// `offsets[u]..offsets[u + 1]` delimits `u`'s row in `targets`.
    offsets: Vec<u32>,
    /// Concatenated out-neighbor rows, each sorted ascending.
    targets: Vec<u32>,
    /// Concatenated bitset blocks for high-degree rows.
    bits: Vec<u64>,
    /// Per node: starting word of its bitset in `bits`, or [`NO_BITSET`].
    bitset_start: Vec<u32>,
    /// Words per bitset row: `ceil(node_count / 64)`.
    words_per_row: usize,
}

impl FrozenGraph {
    /// Takes a CSR snapshot of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has ≥ `u32::MAX` nodes (indexes are `u32`).
    pub fn freeze(graph: &DiGraph) -> Self {
        let ids: Vec<NodeId> = graph.nodes().collect();
        assert!(
            ids.len() < u32::MAX as usize,
            "FrozenGraph supports at most u32::MAX - 1 nodes"
        );
        let index: BTreeMap<NodeId, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();

        let mut offsets = Vec::with_capacity(ids.len() + 1);
        let mut targets = Vec::with_capacity(graph.edge_count());
        offsets.push(0u32);
        for &u in &ids {
            // BTreeSet iteration is ascending by id, and the interner is
            // order-preserving, so each row lands sorted by index.
            targets.extend(graph.out_neighbors(u).map(|v| index[&v]));
            offsets.push(targets.len() as u32);
        }

        let mut frozen = FrozenGraph {
            ids,
            offsets,
            targets,
            bits: Vec::new(),
            bitset_start: Vec::new(),
            words_per_row: 0,
        };
        frozen.build_bitsets();
        frozen
    }

    /// Logical heap bytes of the snapshot: the id interner, CSR offset
    /// and target arrays, and the high-degree bitset rows. Length-based,
    /// so the figure is a pure function of the graph being frozen and
    /// stays byte-identical across `SND_THREADS` — tier-1 memory
    /// telemetry, DESIGN.md §17.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.ids.len() * size_of::<NodeId>()
            + self.offsets.len() * size_of::<u32>()
            + self.targets.len() * size_of::<u32>()
            + self.bits.len() * size_of::<u64>()
            + self.bitset_start.len() * size_of::<u32>()) as u64
    }

    /// Builds bitset rows for every node of degree ≥ [`BITSET_MIN_DEGREE`].
    fn build_bitsets(&mut self) {
        let n = self.ids.len();
        self.words_per_row = n.div_ceil(64);
        self.bitset_start = vec![NO_BITSET; n];
        for u in 0..n {
            if self.row(u as u32).len() < BITSET_MIN_DEGREE {
                continue;
            }
            let start = self.bits.len();
            self.bits.resize(start + self.words_per_row, 0);
            for &v in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                self.bits[start + (v as usize >> 6)] |= 1u64 << (v & 63);
            }
            self.bitset_start[u] = start as u32;
        }
    }

    #[inline]
    fn row(&self, u: u32) -> &[u32] {
        &self.targets[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    #[inline]
    fn bitset(&self, u: u32) -> Option<&[u64]> {
        let start = self.bitset_start[u as usize];
        (start != NO_BITSET)
            .then(|| &self.bits[start as usize..start as usize + self.words_per_row])
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The [`NodeId`] of index `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn id(&self, u: u32) -> NodeId {
        self.ids[u as usize]
    }

    /// All ids, ascending; position equals index.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The dense index of `id`, if the node exists.
    #[inline]
    pub fn index_of(&self, id: NodeId) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| i as u32)
    }

    /// Out-neighbor row of `u`, sorted ascending by index (equivalently by
    /// id). Borrowed — the CSR analogue of `DiGraph::out_neighbors`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn out(&self, u: u32) -> &[u32] {
        self.row(u)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: u32) -> usize {
        self.row(u).len()
    }

    /// Whether the directed edge `(u, v)` is present. O(1) on bitset rows,
    /// binary search otherwise.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if let Some(bits) = self.bitset(u) {
            bits[v as usize >> 6] & (1u64 << (v & 63)) != 0
        } else {
            self.row(u).binary_search(&v).is_ok()
        }
    }

    /// `|N(u) ∩ N(v)|`, counted allocation-free and clamped at `cap`: the
    /// walk stops as soon as `cap` common out-neighbors are found, which is
    /// all the paper's `>= t+1` threshold rule (Section 4.5) needs. Pass
    /// `usize::MAX` for the exact count.
    ///
    /// Uses the shorter row against the longer row's bitset when one exists,
    /// else a two-pointer merge over the two sorted rows.
    pub fn common_out_count(&self, u: u32, v: u32, cap: usize) -> usize {
        if cap == 0 {
            return 0;
        }
        let (a, b) = (self.row(u), self.row(v));
        // Probe the shorter row against the longer row's bitset if it has
        // one: O(min-degree) instead of O(sum-of-degrees).
        let (short, long) = if a.len() <= b.len() { (a, v) } else { (b, u) };
        if let Some(bits) = self.bitset(long) {
            let mut count = 0;
            for &w in short {
                if bits[w as usize >> 6] & (1u64 << (w & 63)) != 0 {
                    count += 1;
                    if count >= cap {
                        return count;
                    }
                }
            }
            return count;
        }
        let mut count = 0;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    if count >= cap {
                        return count;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// The frozen *mutual* view: keeps `(u, v)` only when `(v, u)` also
    /// exists. Same node set and interner as `self`. This is the CSR
    /// analogue of [`DiGraph::mutual_adjacency`], computed once and shared
    /// by partition analysis and hop counting.
    ///
    /// Reverse-edge membership is constant-time for every row, not just the
    /// degree-gated bitset rows: the transpose is built once by counting
    /// sort, then each node's in-neighbors are marked in one reusable
    /// scratch bitmap and its forward row filtered against it — O(V + E)
    /// overall, versus a binary search per edge on low-degree rows. The
    /// per-edge probe path survives as [`Self::mutual_view_reference`]; the
    /// property tests assert both produce identical snapshots.
    pub fn mutual_view(&self) -> FrozenGraph {
        let n = self.ids.len();
        // Transpose by counting sort. Filling in ascending source order
        // leaves every in-row sorted, though only membership is needed here.
        let mut in_offsets = vec![0u32; n + 1];
        for &v in &self.targets {
            in_offsets[v as usize + 1] += 1;
        }
        for u in 0..n {
            in_offsets[u + 1] += in_offsets[u];
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut in_targets = vec![0u32; self.targets.len()];
        for u in 0..n as u32 {
            for &v in self.row(u) {
                in_targets[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }

        // Mark u's in-neighbors in the scratch bitmap, filter u's forward
        // row against it, then unmark — clearing only the set bits keeps
        // the whole sweep linear in the edge count.
        let mut scratch = vec![0u64; n.div_ceil(64)];
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for u in 0..n {
            let ins = &in_targets[in_offsets[u] as usize..in_offsets[u + 1] as usize];
            for &w in ins {
                scratch[w as usize >> 6] |= 1u64 << (w & 63);
            }
            targets.extend(
                self.row(u as u32)
                    .iter()
                    .copied()
                    .filter(|&v| scratch[v as usize >> 6] & (1u64 << (v & 63)) != 0),
            );
            for &w in ins {
                scratch[w as usize >> 6] &= !(1u64 << (w & 63));
            }
            offsets.push(targets.len() as u32);
        }
        self.view_from(offsets, targets)
    }

    /// Reference implementation of [`mutual_view`](Self::mutual_view):
    /// probes `has_edge(v, u)` per forward edge — a binary search on
    /// low-degree rows, the degree-gated bitset on high-degree ones. Kept
    /// for the equivalence property tests.
    pub fn mutual_view_reference(&self) -> FrozenGraph {
        let n = self.ids.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for u in 0..n as u32 {
            targets.extend(self.row(u).iter().copied().filter(|&v| self.has_edge(v, u)));
            offsets.push(targets.len() as u32);
        }
        self.view_from(offsets, targets)
    }

    /// Assembles a derived snapshot sharing this graph's interner.
    fn view_from(&self, offsets: Vec<u32>, targets: Vec<u32>) -> FrozenGraph {
        let mut view = FrozenGraph {
            ids: self.ids.clone(),
            offsets,
            targets,
            bits: Vec::new(),
            bitset_start: Vec::new(),
            words_per_row: 0,
        };
        view.build_bitsets();
        view
    }

    /// Expands the snapshot back into a [`DiGraph`] (mostly for tests).
    pub fn thaw(&self) -> DiGraph {
        let mut g = DiGraph::new();
        for &id in &self.ids {
            g.add_node(id);
        }
        for u in 0..self.ids.len() as u32 {
            for &v in self.row(u) {
                g.add_edge(self.id(u), self.id(v));
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, Field};
    use crate::unit_disk::{unit_disk_graph, RadioSpec};
    use rand::SeedableRng;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn sample() -> DiGraph {
        [
            (n(1), n(3)),
            (n(1), n(4)),
            (n(1), n(5)),
            (n(2), n(4)),
            (n(2), n(5)),
            (n(2), n(6)),
            (n(6), n(2)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn freeze_round_trips() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        assert_eq!(f.node_count(), g.node_count());
        assert_eq!(f.edge_count(), g.edge_count());
        assert_eq!(f.thaw(), g);
    }

    #[test]
    fn indexes_are_sorted_by_id() {
        let f = FrozenGraph::freeze(&sample());
        let mut sorted = f.ids().to_vec();
        sorted.sort();
        assert_eq!(f.ids(), &sorted[..]);
        for (i, &id) in f.ids().iter().enumerate() {
            assert_eq!(f.index_of(id), Some(i as u32));
            assert_eq!(f.id(i as u32), id);
        }
        assert_eq!(f.index_of(n(99)), None);
    }

    #[test]
    fn rows_match_digraph_neighbors() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        for u in g.nodes() {
            let ui = f.index_of(u).unwrap();
            let row: Vec<NodeId> = f.out(ui).iter().map(|&v| f.id(v)).collect();
            let expect: Vec<NodeId> = g.out_neighbors(u).collect();
            assert_eq!(row, expect, "row of {u}");
            assert_eq!(f.out_degree(ui), g.out_degree(u));
            for v in g.nodes() {
                let vi = f.index_of(v).unwrap();
                assert_eq!(f.has_edge(ui, vi), g.has_edge(u, v), "edge {u}->{v}");
            }
        }
    }

    #[test]
    fn common_out_count_matches_set_intersection() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let (ui, vi) = (f.index_of(u).unwrap(), f.index_of(v).unwrap());
                let exact = g.common_out_neighbors(u, v).len();
                assert_eq!(f.common_out_count(ui, vi, usize::MAX), exact);
                for cap in 0..4 {
                    assert_eq!(f.common_out_count(ui, vi, cap), exact.min(cap));
                }
            }
        }
    }

    #[test]
    fn bitset_rows_agree_with_merge_path() {
        // One hub with degree above the bitset threshold, overlapping a
        // low-degree node — exercises the bitset membership path.
        let mut g = DiGraph::new();
        for i in 1..=(BITSET_MIN_DEGREE as u64 + 40) {
            g.add_edge(n(0), n(i));
        }
        for i in 5..25 {
            g.add_edge(n(1_000), n(i));
        }
        let f = FrozenGraph::freeze(&g);
        let hub = f.index_of(n(0)).unwrap();
        let small = f.index_of(n(1_000)).unwrap();
        assert!(f.bitset(hub).is_some(), "hub row should carry a bitset");
        assert!(f.bitset(small).is_none());
        let exact = g.common_out_neighbors(n(0), n(1_000)).len();
        assert_eq!(f.common_out_count(hub, small, usize::MAX), exact);
        assert_eq!(f.common_out_count(small, hub, usize::MAX), exact);
        assert_eq!(f.common_out_count(hub, small, 3), 3.min(exact));
        for i in 5..25 {
            let vi = f.index_of(n(i)).unwrap();
            assert!(f.has_edge(hub, vi));
        }
        assert!(!f.has_edge(hub, f.index_of(n(1_000)).unwrap()));
    }

    #[test]
    fn mutual_view_matches_mutual_adjacency() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let d = Deployment::uniform(Field::square(200.0), 120, &mut rng);
        let mut g = unit_disk_graph(&d, &RadioSpec::uniform(40.0));
        // Make it properly directed: drop some reverse edges.
        let edges: Vec<_> = g.edges().collect();
        for (i, (u, v)) in edges.into_iter().enumerate() {
            if i % 5 == 0 {
                g.remove_edge(u, v);
            }
        }
        let adj = g.mutual_adjacency();
        let frozen = FrozenGraph::freeze(&g);
        let mutual = frozen.mutual_view();
        assert_eq!(mutual, frozen.mutual_view_reference());
        assert_eq!(mutual.node_count(), adj.len());
        for (u, set) in adj {
            let ui = mutual.index_of(u).unwrap();
            let row: Vec<NodeId> = mutual.out(ui).iter().map(|&v| mutual.id(v)).collect();
            let expect: Vec<NodeId> = set.into_iter().collect();
            assert_eq!(row, expect, "mutual row of {u}");
        }
    }

    #[test]
    fn empty_graph() {
        let f = FrozenGraph::freeze(&DiGraph::new());
        assert_eq!(f.node_count(), 0);
        assert_eq!(f.edge_count(), 0);
        assert_eq!(f.thaw(), DiGraph::new());
        assert_eq!(f.mutual_view().node_count(), 0);
    }

    #[test]
    fn mutual_view_paths_agree_across_bitset_threshold() {
        // A hub above the bitset threshold whose spokes reciprocate only on
        // even ids, plus a one-way edge: the reference path exercises both
        // the hub's bitset probe and low-degree binary searches.
        let mut g = DiGraph::new();
        for i in 1..=(BITSET_MIN_DEGREE as u64 + 20) {
            g.add_edge(n(0), n(i));
            if i % 2 == 0 {
                g.add_edge(n(i), n(0));
            }
        }
        g.add_edge(n(1), n(2));
        let f = FrozenGraph::freeze(&g);
        let fast = f.mutual_view();
        assert_eq!(fast, f.mutual_view_reference());
        let hub = fast.index_of(n(0)).unwrap();
        assert_eq!(
            fast.out_degree(hub),
            (BITSET_MIN_DEGREE as u64 + 20) as usize / 2
        );
        let one_way = fast.index_of(n(1)).unwrap();
        assert_eq!(fast.out_degree(one_way), 0);
    }
}
