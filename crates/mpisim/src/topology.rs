//! Cluster topology: how ranks map onto compute nodes and racks.
//!
//! The MATCH evaluation always uses 32 nodes and varies the number of processes
//! (64, 128, 256, 512), i.e. 2–16 ranks per node with block placement. The topology
//! determines which point-to-point messages are intra-node, intra-rack or cross-rack,
//! which node a rank's L1 checkpoints live on, and which node is the L2 checkpoint
//! partner.
//!
//! # Failure domains
//!
//! The topology is a three-level hierarchy of failure domains: **rank < node < rack**.
//! Nodes are grouped block-wise into racks (`nnodes` must divide evenly into
//! `nracks`), mirroring the block placement of ranks onto nodes. Redundancy only pays
//! off when it leaves the failure domain it protects against, so the L2 partner
//! mapping prefers an **off-rack** node whenever the cluster has more than one rack —
//! a whole-rack loss (PDU or top-of-rack switch failure) then erases a rank's primary
//! copy but never its partner copy.

use crate::machine::LinkDomain;

/// A block mapping of ranks onto homogeneous compute nodes grouped into racks.
///
/// ```
/// use mpisim::Topology;
///
/// // 16 ranks block-placed on 8 nodes grouped into 2 racks: ranks 0-1 share node 0,
/// // nodes 0-3 form rack 0.
/// let topo = Topology::with_racks(16, 8, 2);
/// assert_eq!(topo.ranks_per_node(), 2);
/// assert_eq!(topo.node_of(3), 1);
/// assert_eq!(topo.rack_of(3), 0);
/// assert!(topo.same_node(2, 3) && !topo.same_node(1, 2));
///
/// // The L2 checkpoint partner leaves the failure domain it protects against:
/// // with more than one rack it is always an off-rack node.
/// let partner = topo.partner_rank(0);
/// assert!(!topo.same_rack(0, partner));
///
/// // The paper layout: 32 nodes in 4 racks for the 64-512 rank matrices.
/// let paper = Topology::paper_layout(512);
/// assert_eq!((paper.nnodes(), paper.nracks()), (32, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nranks: usize,
    nnodes: usize,
    nracks: usize,
    ranks_per_node: usize,
    nodes_per_rack: usize,
    /// Per rank: `(node, rack)`, so that [`Topology::link_between`] — asked on every
    /// send and receive — compares instead of dividing.
    place: Vec<(u32, u32)>,
}

impl Topology {
    /// Creates a topology with `nranks` ranks distributed block-wise over `nnodes`
    /// nodes, all in a single rack (see [`Topology::with_racks`] for the full
    /// hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or if `nranks` is not a multiple of `nnodes`
    /// (the paper's configurations always divide evenly; demanding it keeps the L2
    /// partner mapping unambiguous).
    pub fn new(nranks: usize, nnodes: usize) -> Self {
        Self::with_racks(nranks, nnodes, 1)
    }

    /// Creates a topology with `nranks` ranks over `nnodes` nodes grouped block-wise
    /// into `nracks` racks.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, if `nranks` is not a multiple of `nnodes`, or if
    /// `nnodes` is not a multiple of `nracks`.
    pub fn with_racks(nranks: usize, nnodes: usize, nracks: usize) -> Self {
        assert!(nranks > 0, "topology needs at least one rank");
        assert!(nnodes > 0, "topology needs at least one node");
        assert!(nracks > 0, "topology needs at least one rack");
        assert!(
            nranks.is_multiple_of(nnodes),
            "nranks ({nranks}) must be a multiple of nnodes ({nnodes})"
        );
        assert!(
            nnodes.is_multiple_of(nracks),
            "nnodes ({nnodes}) must be a multiple of nracks ({nracks})"
        );
        let (ranks_per_node, nodes_per_rack) = (nranks / nnodes, nnodes / nracks);
        let place = (0..nranks)
            .map(|rank| {
                let node = rank / ranks_per_node;
                (node as u32, (node / nodes_per_rack) as u32)
            })
            .collect();
        Topology {
            nranks,
            nnodes,
            nracks,
            ranks_per_node,
            nodes_per_rack,
            place,
        }
    }

    /// The 32-node layout used throughout the paper's evaluation — four racks of
    /// eight nodes — with as many ranks per node as `nranks / 32`. Falls back to one
    /// node per rank when `nranks < 32`, paired into two-node racks when the node
    /// count is even (so rack-correlated failures remain expressible at small scale).
    pub fn paper_layout(nranks: usize) -> Self {
        let (nnodes, nracks) = Self::paper_shape(nranks);
        Self::with_racks(nranks, nnodes, nracks)
    }

    /// The `(nodes, racks)` of [`Topology::paper_layout`] for `nranks` ranks.
    pub fn paper_shape(nranks: usize) -> (usize, usize) {
        if nranks >= 32 && nranks.is_multiple_of(32) {
            (32, 4)
        } else if nranks >= 4 && nranks.is_multiple_of(2) {
            (nranks, nranks / 2)
        } else {
            (nranks, 1)
        }
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Total number of nodes.
    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    /// Total number of racks.
    pub fn nracks(&self) -> usize {
        self.nracks
    }

    /// Number of ranks placed on each node.
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Number of nodes in each rack.
    pub fn nodes_per_rack(&self) -> usize {
        self.nodes_per_rack
    }

    /// The node hosting `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(
            rank < self.nranks,
            "rank {rank} out of range ({})",
            self.nranks
        );
        rank / self.ranks_per_node
    }

    /// The rack containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rack_of_node(&self, node: usize) -> usize {
        assert!(
            node < self.nnodes,
            "node {node} out of range ({})",
            self.nnodes
        );
        node / self.nodes_per_rack
    }

    /// The rack hosting `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn rack_of(&self, rank: usize) -> usize {
        self.rack_of_node(self.node_of(rank))
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Whether two ranks share a rack.
    pub fn same_rack(&self, a: usize, b: usize) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Whether two nodes share a rack.
    pub fn nodes_share_rack(&self, a: usize, b: usize) -> bool {
        self.rack_of_node(a) == self.rack_of_node(b)
    }

    /// The interconnect domain a message between `a` and `b` crosses (decides which
    /// latency/bandwidth pair of the machine model applies).
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn link_between(&self, a: usize, b: usize) -> LinkDomain {
        let ((node_a, rack_a), (node_b, rack_b)) = (self.place[a], self.place[b]);
        if node_a == node_b {
            LinkDomain::IntraNode
        } else if rack_a == rack_b {
            LinkDomain::IntraRack
        } else {
            LinkDomain::CrossRack
        }
    }

    /// The ranks hosted on `node`.
    pub fn ranks_on_node(&self, node: usize) -> Vec<usize> {
        assert!(
            node < self.nnodes,
            "node {node} out of range ({})",
            self.nnodes
        );
        let start = node * self.ranks_per_node;
        (start..start + self.ranks_per_node).collect()
    }

    /// The nodes belonging to `rack`.
    pub fn nodes_on_rack(&self, rack: usize) -> Vec<usize> {
        assert!(
            rack < self.nracks,
            "rack {rack} out of range ({})",
            self.nracks
        );
        let start = rack * self.nodes_per_rack;
        (start..start + self.nodes_per_rack).collect()
    }

    /// The ranks hosted on `rack` (all ranks of all its nodes, in rank order).
    pub fn ranks_on_rack(&self, rack: usize) -> Vec<usize> {
        assert!(
            rack < self.nracks,
            "rack {rack} out of range ({})",
            self.nracks
        );
        let start = rack * self.nodes_per_rack * self.ranks_per_node;
        (start..start + self.nodes_per_rack * self.ranks_per_node).collect()
    }

    /// The L2 checkpoint partner of `rank`: the rank with the same local index on a
    /// different node, preferring an **off-rack** node whenever the topology has more
    /// than one rack (the partner copy then survives a whole-rack loss, not just a
    /// node loss). With a single rack the partner is the same local index on the next
    /// node, wrapping around.
    ///
    /// **Degenerate 1-node topologies:** with one node there is no other node to
    /// place the partner copy on, so `partner_rank(r) == r` — the "partner" copy
    /// shares the primary's node and an L2 checkpoint does **not** survive a node
    /// crash. This same-node placement is deliberate (the simulator faithfully
    /// places, and erases, what such a cluster could physically hold); callers that
    /// need node-failure survival must provide at least two nodes. See
    /// [`Topology::has_off_node_partner`].
    pub fn partner_rank(&self, rank: usize) -> usize {
        let node = self.node_of(rank);
        let local = rank % self.ranks_per_node;
        let stride = if self.nracks > 1 {
            // Same position in the next rack: off-node AND off-rack.
            self.nodes_per_rack
        } else {
            1
        };
        let partner_node = (node + stride) % self.nnodes;
        partner_node * self.ranks_per_node + local
    }

    /// Whether the L2 partner mapping actually leaves the node (false only for
    /// degenerate 1-node topologies, where L2 silently degrades to a same-node copy
    /// that a node crash erases together with the primary).
    pub fn has_off_node_partner(&self) -> bool {
        self.nnodes > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        for (p, per_node) in [(64, 2), (128, 4), (256, 8), (512, 16)] {
            let t = Topology::paper_layout(p);
            assert_eq!(t.nnodes(), 32);
            assert_eq!(t.ranks_per_node(), per_node);
            assert_eq!(t.nranks(), p);
            assert_eq!(t.nracks(), 4, "paper layout has four racks of eight nodes");
            assert_eq!(t.nodes_per_rack(), 8);
        }
    }

    #[test]
    fn small_rank_counts_get_one_rank_per_node() {
        let t = Topology::paper_layout(8);
        assert_eq!(t.nnodes(), 8);
        assert_eq!(t.ranks_per_node(), 1);
        assert_eq!(
            t.nracks(),
            4,
            "small layouts pair nodes into two-node racks"
        );
        assert_eq!(t.nodes_per_rack(), 2);
        let odd = Topology::paper_layout(3);
        assert_eq!(odd.nracks(), 1);
    }

    #[test]
    fn node_mapping_is_block_wise() {
        let t = Topology::new(8, 4);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(1), 0);
        assert_eq!(t.node_of(2), 1);
        assert_eq!(t.node_of(7), 3);
        assert!(t.same_node(0, 1));
        assert!(!t.same_node(1, 2));
        assert_eq!(t.ranks_on_node(1), vec![2, 3]);
    }

    #[test]
    fn rack_mapping_is_block_wise() {
        let t = Topology::with_racks(8, 4, 2);
        assert_eq!(t.nracks(), 2);
        assert_eq!(t.nodes_per_rack(), 2);
        assert_eq!(t.rack_of_node(0), 0);
        assert_eq!(t.rack_of_node(1), 0);
        assert_eq!(t.rack_of_node(2), 1);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(5), 1);
        assert!(t.same_rack(0, 3));
        assert!(!t.same_rack(3, 4));
        assert!(t.nodes_share_rack(2, 3));
        assert!(!t.nodes_share_rack(1, 2));
        assert_eq!(t.nodes_on_rack(1), vec![2, 3]);
        assert_eq!(t.ranks_on_rack(1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn link_domains_follow_the_hierarchy() {
        let t = Topology::with_racks(8, 4, 2);
        assert_eq!(t.link_between(0, 1), LinkDomain::IntraNode);
        assert_eq!(t.link_between(0, 2), LinkDomain::IntraRack);
        assert_eq!(t.link_between(0, 4), LinkDomain::CrossRack);
        // Single-rack topologies never produce cross-rack links.
        let flat = Topology::new(8, 4);
        assert_eq!(flat.link_between(0, 7), LinkDomain::IntraRack);
    }

    #[test]
    fn partner_is_on_a_different_node() {
        let t = Topology::new(64, 32);
        for r in 0..64 {
            let p = t.partner_rank(r);
            assert_ne!(
                t.node_of(r),
                t.node_of(p),
                "partner of {r} is on the same node"
            );
            assert_eq!(r % 2, p % 2, "partner keeps the local index");
        }
        // Single-rack wrap-around: last node partners with node 0.
        assert_eq!(t.node_of(t.partner_rank(63)), 0);
    }

    #[test]
    fn partner_leaves_the_rack_when_racks_exist() {
        let t = Topology::with_racks(64, 32, 4);
        for r in 0..64 {
            let p = t.partner_rank(r);
            assert_ne!(t.node_of(r), t.node_of(p), "partner of {r} shares the node");
            assert_ne!(t.rack_of(r), t.rack_of(p), "partner of {r} shares the rack");
            assert_eq!(r % 2, p % 2, "partner keeps the local index");
        }
        // The mapping is a bijection: every rank is someone's partner exactly once.
        let mut seen = [false; 64];
        for r in 0..64 {
            let p = t.partner_rank(r);
            assert!(!seen[p], "rank {p} is partner of two ranks");
            seen[p] = true;
        }
    }

    /// `link_between` as it was computed before the per-rank table: from the node
    /// and rack divisions.
    fn link_by_division(t: &Topology, a: usize, b: usize) -> LinkDomain {
        if t.same_node(a, b) {
            LinkDomain::IntraNode
        } else if t.same_rack(a, b) {
            LinkDomain::IntraRack
        } else {
            LinkDomain::CrossRack
        }
    }

    #[test]
    fn link_table_agrees_with_the_division_formula_over_all_pairs() {
        let layouts = [
            Topology::new(1, 1),
            Topology::new(4, 1),
            Topology::new(12, 4),
            Topology::with_racks(16, 8, 2),
            Topology::with_racks(24, 6, 3),
            Topology::with_racks(64, 32, 32),
            Topology::paper_layout(6),
            Topology::paper_layout(8),
            Topology::paper_layout(128),
        ];
        for t in &layouts {
            for a in 0..t.nranks() {
                for b in 0..t.nranks() {
                    assert_eq!(
                        t.link_between(a, b),
                        link_by_division(t, a, b),
                        "{a}-{b} in {t:?}"
                    );
                }
            }
        }
        for n in [1, 2, 3, 5, 6, 30, 64, 96, 512] {
            let t = Topology::paper_layout(n);
            assert_eq!((t.nnodes(), t.nracks()), Topology::paper_shape(n));
        }
    }

    #[test]
    fn single_node_topology() {
        let t = Topology::new(4, 1);
        assert_eq!(t.nnodes(), 1);
        assert_eq!(t.nracks(), 1);
        assert!(t.same_node(0, 3));
        // With one node the partner stays on that node by construction: L2 placement
        // degrades to a same-node copy (documented on `partner_rank`).
        assert_eq!(t.partner_rank(2), 2);
        assert!(!t.has_off_node_partner());
        assert!(Topology::new(4, 2).has_off_node_partner());
    }

    #[test]
    #[should_panic]
    fn uneven_distribution_panics() {
        let _ = Topology::new(10, 4);
    }

    #[test]
    #[should_panic]
    fn uneven_rack_distribution_panics() {
        let _ = Topology::with_racks(12, 6, 4);
    }

    #[test]
    #[should_panic]
    fn out_of_range_rank_panics() {
        let t = Topology::new(4, 2);
        let _ = t.node_of(4);
    }

    #[test]
    #[should_panic]
    fn out_of_range_rack_panics() {
        let t = Topology::with_racks(4, 2, 2);
        let _ = t.nodes_on_rack(2);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Satellite invariant: for any valid `(nranks, nnodes, nracks)` the
            /// partner mapping is off-node whenever a second node exists, off-rack
            /// whenever a second rack exists, keeps the local index, and is a
            /// bijection over the ranks.
            #[test]
            fn partner_mapping_respects_failure_domains(
                ranks_per_node in 1usize..4,
                nodes_per_rack in 1usize..5,
                nracks in 1usize..5,
            ) {
                let nnodes = nodes_per_rack * nracks;
                let nranks = ranks_per_node * nnodes;
                let t = Topology::with_racks(nranks, nnodes, nracks);
                let mut seen = vec![false; nranks];
                for r in 0..nranks {
                    let p = t.partner_rank(r);
                    prop_assert_eq!(r % ranks_per_node, p % ranks_per_node);
                    if nnodes > 1 {
                        prop_assert!(!t.same_node(r, p), "partner of {} on its node", r);
                    }
                    if nracks > 1 {
                        prop_assert!(!t.same_rack(r, p), "partner of {} in its rack", r);
                    }
                    prop_assert!(!seen[p]);
                    seen[p] = true;
                }
            }
        }
    }
}
