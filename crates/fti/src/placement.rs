//! Group-aware L3 shard placement.
//!
//! FTI's L3 encodes each rank's checkpoint into `k + m` Reed–Solomon shards and
//! scatters them over its **encoding group**. The placement here makes the group a
//! real failure-domain construct instead of a rank-arithmetic hack:
//!
//! * the nodes hosting the communicator's members are partitioned into disjoint
//!   blocks of [`L3_GROUP_NODES`] = `k + m` nodes (the last block is narrower when
//!   the node count does not divide evenly);
//! * the encoding group of a rank is the set of ranks with its local index on the
//!   nodes of its block, so **groups map onto disjoint node sets**;
//! * a rank's `k + m` shards are placed round-robin over the block's nodes, starting
//!   after its own node — when the block is full-width (`k + m` nodes), every
//!   shard lands on a **distinct node** and the group tolerates the loss of any `m`
//!   nodes (one shard erased per node).
//!
//! On clusters with fewer than `k + m` nodes the block degenerates: several
//! shards share a node and a node crash erases all of them at once. Recovery then
//! counts the *surviving* shards of the group and decodes when at least `k` remain,
//! cascading to the L4 parallel-file-system copy (or a fresh start) otherwise.

use mpisim::{Comm, Topology};

use crate::config::L3_GROUP_NODES;

/// The L3 encoding group of one rank: its identifier and the node block its shards
/// are scattered over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L3Group {
    /// Group identifier, unique per (node block, local rank index) pair.
    pub group: usize,
    /// The nodes of this group's block, in node order (disjoint from every other
    /// block's nodes).
    pub nodes: Vec<usize>,
    /// The index of the member's own node within `nodes`.
    pub position: usize,
}

impl L3Group {
    /// The node holding shard `shard` of this member's checkpoint: round-robin over
    /// the block's nodes starting after the member's own node. With a full-width
    /// block and `shard < nodes.len()` every shard index maps to a distinct node.
    pub fn shard_node(&self, shard: usize) -> usize {
        self.nodes[(self.position + 1 + shard) % self.nodes.len()]
    }
}

/// The L2 checkpoint partner of global rank `rank` on communicator `comm`.
///
/// On a full-world communicator this is exactly [`Topology::partner_rank`] — the
/// fast path keeps every pre-shrink run bit-identical to the historical placement.
/// On a shrunk survivor communicator the partner is chosen **among the surviving
/// members**: the member half-way around the member list, which crosses nodes (and
/// racks, while the survivors still span more than one) because members are ordered
/// by global rank. A dead rank can therefore never be picked as a partner again.
pub fn partner_rank_in(topology: &Topology, comm: &Comm, rank: usize) -> usize {
    if comm.size() == topology.nranks() {
        return topology.partner_rank(rank);
    }
    let idx = comm
        .members()
        .iter()
        .position(|&m| m == rank)
        .expect("rank must be a member of the communicator");
    let shift = (comm.size() / 2).max(1);
    comm.members()[(idx + shift) % comm.size()]
}

/// The L3 encoding group of global rank `rank` among the communicator `members`
/// (global ranks). The node blocks are built over the **nodes that host members**: on
/// a full world that is every node, since the layout is block-wise and every node
/// hosts ranks; on a shrunk survivor communicator dead nodes drop out of every block,
/// so no shard is ever placed on storage a retired rank's crash already erased.
pub fn l3_group(topology: &Topology, members: &[usize], rank: usize) -> L3Group {
    let mut nodes: Vec<usize> = members.iter().map(|&m| topology.node_of(m)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let my_node = topology.node_of(rank);
    let pos = nodes
        .binary_search(&my_node)
        .expect("rank's node must host a member");
    // Local index of `rank` among the members sharing its node.
    let local = members
        .iter()
        .filter(|&&m| topology.node_of(m) == my_node)
        .position(|&m| m == rank)
        .expect("rank must be a member of the communicator");
    let width = L3_GROUP_NODES.min(nodes.len());
    let block = pos / width;
    let start = block * width;
    let end = (start + width).min(nodes.len());
    L3Group {
        group: block * topology.ranks_per_node() + local,
        nodes: nodes[start..end].to_vec(),
        position: pos - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The L3 group of `rank` on the full world of `t`.
    fn world_group(t: &Topology, rank: usize) -> L3Group {
        let world: Vec<usize> = (0..t.nranks()).collect();
        l3_group(t, &world, rank)
    }

    #[test]
    fn full_width_groups_place_every_shard_on_a_distinct_node() {
        // 8 nodes, groups of k + m = 4: two disjoint blocks [0..4) and [4..8).
        let t = Topology::new(16, 8);
        for rank in 0..16 {
            let g = world_group(&t, rank);
            assert_eq!(g.nodes.len(), 4);
            let holders: std::collections::BTreeSet<usize> =
                (0..4).map(|i| g.shard_node(i)).collect();
            assert_eq!(
                holders.len(),
                4,
                "rank {rank}: shard holders must be distinct"
            );
            assert!(g.nodes.contains(&t.node_of(rank)));
        }
        // The two blocks are disjoint.
        assert_eq!(world_group(&t, 0).nodes, vec![0, 1, 2, 3]);
        assert_eq!(world_group(&t, 8).nodes, vec![4, 5, 6, 7]);
    }

    #[test]
    fn group_ids_separate_blocks_and_local_indices() {
        let t = Topology::new(16, 8); // two ranks per node
        assert_eq!(world_group(&t, 0).group, world_group(&t, 2).group);
        assert_ne!(world_group(&t, 0).group, world_group(&t, 1).group);
        assert_ne!(world_group(&t, 0).group, world_group(&t, 8).group);
    }

    #[test]
    fn narrow_clusters_degrade_to_shared_holders() {
        // Two nodes, groups of 4: the block spans both nodes and shards double up.
        let t = Topology::new(4, 2);
        let g = world_group(&t, 0);
        assert_eq!(g.nodes, vec![0, 1]);
        let holders: Vec<usize> = (0..4).map(|i| g.shard_node(i)).collect();
        assert_eq!(holders, vec![1, 0, 1, 0]);
    }

    #[test]
    fn survivor_groups_skip_nodes_without_members() {
        // Node 1's only rank is gone: the blocks close up over the surviving nodes.
        let t = Topology::new(8, 8);
        let survivors = [0, 2, 3, 4, 5, 6, 7];
        assert_eq!(l3_group(&t, &survivors, 0).nodes, vec![0, 2, 3, 4]);
        let last = l3_group(&t, &survivors, 7);
        assert_eq!((last.nodes, last.position), (vec![5, 6, 7], 2));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Whenever the cluster has at least `k + m` nodes (so full-width blocks
            /// exist), every encoding group spans `k + m` distinct nodes, its node
            /// set is disjoint from every other group's, and every shard of every
            /// member lands inside the group's node set.
            #[test]
            fn groups_span_k_plus_m_distinct_nodes(
                ranks_per_node in 1usize..3,
                blocks in 1usize..4,
                nracks_pick in 0usize..3,
            ) {
                let nnodes = blocks * L3_GROUP_NODES;
                // Any rack split that divides the node count is valid for placement.
                let nracks = [1, 2, nnodes].into_iter()
                    .filter(|r| nnodes.is_multiple_of(*r))
                    .nth(nracks_pick % 3)
                    .unwrap_or(1);
                let t = Topology::with_racks(ranks_per_node * nnodes, nnodes, nracks);
                let mut claimed: Vec<Option<usize>> = vec![None; nnodes];
                for rank in 0..t.nranks() {
                    let g = world_group(&t, rank);
                    let holders: std::collections::BTreeSet<usize> =
                        (0..L3_GROUP_NODES).map(|i| g.shard_node(i)).collect();
                    prop_assert_eq!(
                        holders.len(),
                        L3_GROUP_NODES,
                        "rank {} shards must span k+m distinct nodes",
                        rank
                    );
                    for node in &g.nodes {
                        // Disjointness: a node belongs to exactly one block.
                        match claimed[*node] {
                            None => claimed[*node] = Some(g.group / t.ranks_per_node()),
                            Some(block) => prop_assert_eq!(block, g.group / t.ranks_per_node()),
                        }
                    }
                    prop_assert!(holders.iter().all(|h| g.nodes.contains(h)));
                }
            }
        }
    }
}
