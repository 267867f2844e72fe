//! Declarative failure specifications.
//!
//! MATCH emulates MPI process failures by killing a randomly selected rank in a
//! randomly selected iteration of the main computation loop (the paper raises `SIGTERM`
//! from inside the victim process). [`FailureSpec`] is the simulator-side description
//! of such an event; the recovery crate turns seeded random choices into concrete
//! specs and the proxy applications consult the spec at the top of every iteration.
//!
//! Beyond the paper's single-process kill, the simulator models two correlated
//! hardware failure domains: a **node crash** kills every co-located rank and destroys
//! the node's local checkpoint storage, and a **rack crash** (PDU or top-of-rack
//! switch loss) does the same for every node of a rack at once — which is exactly the
//! event the off-rack L2 partner mapping and the group-aware L3 shard placement are
//! provisioned against.

use crate::topology::Topology;

/// The kind of failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Kill a single process (the paper's evaluation scenario).
    ProcessKill {
        /// Global rank of the victim.
        rank: usize,
    },
    /// Kill every process on one node (supported by Reinit; the contemporary ULFM
    /// implementation studied in the paper cannot recover from it).
    NodeCrash {
        /// Node whose processes are killed.
        node: usize,
    },
    /// Kill every process on every node of one rack (a PDU or top-of-rack switch
    /// failure), destroying the local checkpoint storage of all its nodes.
    RackCrash {
        /// Rack whose nodes are crashed.
        rack: usize,
    },
}

/// A failure to be injected at a specific iteration of the main computation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureSpec {
    /// What fails.
    pub kind: FailureKind,
    /// Iteration of the main loop at which the failure fires (0-based).
    pub at_iteration: u64,
}

impl FailureSpec {
    /// A process-kill failure of `rank` at `iteration`.
    pub fn kill_process(rank: usize, iteration: u64) -> Self {
        FailureSpec {
            kind: FailureKind::ProcessKill { rank },
            at_iteration: iteration,
        }
    }

    /// A node-crash failure of `node` at `iteration`.
    pub fn crash_node(node: usize, iteration: u64) -> Self {
        FailureSpec {
            kind: FailureKind::NodeCrash { node },
            at_iteration: iteration,
        }
    }

    /// A rack-crash failure of `rack` at `iteration`.
    pub fn crash_rack(rack: usize, iteration: u64) -> Self {
        FailureSpec {
            kind: FailureKind::RackCrash { rack },
            at_iteration: iteration,
        }
    }

    /// The same failure moved to `iteration` — a trace-mutation hook for the
    /// fault-space explorer, which bisects event timings against checkpoint and
    /// recovery windows.
    pub fn with_iteration(mut self, iteration: u64) -> Self {
        self.at_iteration = iteration;
        self
    }

    /// The same failure retargeted at victim index `victim` (the rank, node or rack
    /// index, depending on the kind). The mutation hook dual of
    /// [`FailureSpec::victim_index`].
    pub fn with_victim(mut self, victim: usize) -> Self {
        self.kind = match self.kind {
            FailureKind::ProcessKill { .. } => FailureKind::ProcessKill { rank: victim },
            FailureKind::NodeCrash { .. } => FailureKind::NodeCrash { node: victim },
            FailureKind::RackCrash { .. } => FailureKind::RackCrash { rack: victim },
        };
        self
    }

    /// The victim index this spec targets: the rank for a process kill, the node for
    /// a node crash, the rack for a rack crash.
    pub fn victim_index(&self) -> usize {
        match self.kind {
            FailureKind::ProcessKill { rank } => rank,
            FailureKind::NodeCrash { node } => node,
            FailureKind::RackCrash { rack } => rack,
        }
    }

    /// The global ranks this failure kills in a job laid out over `topology`, in
    /// ascending order: the victim for a process kill, every rank of the node or rack
    /// for a crash. The iteration plays no part; when the spec fires is the injector's
    /// decision.
    ///
    /// # Panics
    ///
    /// Panics if the node or rack is outside `topology`.
    pub fn victims(&self, topology: &Topology) -> Vec<usize> {
        match self.kind {
            FailureKind::ProcessKill { rank } => vec![rank],
            FailureKind::NodeCrash { node } => topology.ranks_on_node(node),
            FailureKind::RackCrash { rack } => topology.ranks_on_rack(rack),
        }
    }

    /// The nodes whose local checkpoint storage this failure physically destroys
    /// (empty for a plain process kill).
    pub fn crashed_nodes(&self, topology: &Topology) -> Vec<usize> {
        match self.kind {
            FailureKind::ProcessKill { .. } => Vec::new(),
            FailureKind::NodeCrash { node } => vec![node],
            FailureKind::RackCrash { rack } => topology.nodes_on_rack(rack),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn process_kill_fires_only_for_victim_and_iteration() {
        let t = Topology::new(8, 4);
        let spec = FailureSpec::kill_process(3, 10);
        assert_eq!(spec.victims(&t), vec![3]);
        assert!(spec.crashed_nodes(&t).is_empty());
        // Another iteration is another event with the same victims: the spec fires
        // only at its own iteration, which the injector compares.
        let earlier = spec.with_iteration(9);
        assert_ne!(earlier, spec);
        assert_eq!(earlier.victims(&t), spec.victims(&t));
    }

    #[test]
    fn node_crash_fires_for_all_ranks_on_node() {
        let t = Topology::new(8, 4);
        let spec = FailureSpec::crash_node(2, 5);
        assert_eq!(spec.victims(&t), vec![4, 5]);
        assert_eq!(spec.crashed_nodes(&t), vec![2]);
    }

    #[test]
    fn mutation_hooks_preserve_kind_and_round_trip_victims() {
        let spec = FailureSpec::crash_node(2, 5);
        let moved = spec.with_iteration(9);
        assert_eq!(moved.kind, spec.kind);
        assert_eq!(moved.at_iteration, 9);
        let retargeted = spec.with_victim(3);
        assert_eq!(retargeted.kind, FailureKind::NodeCrash { node: 3 });
        assert_eq!(retargeted.at_iteration, 5);
        assert_eq!(retargeted.victim_index(), 3);
        assert_eq!(FailureSpec::kill_process(7, 1).victim_index(), 7);
        assert_eq!(FailureSpec::crash_rack(1, 1).victim_index(), 1);
    }

    #[test]
    fn rack_crash_fires_for_all_ranks_on_rack() {
        let t = Topology::with_racks(8, 4, 2);
        let spec = FailureSpec::crash_rack(1, 7);
        // Rack 1 holds nodes 2 and 3, i.e. ranks 4..8.
        assert_eq!(spec.victims(&t), vec![4, 5, 6, 7]);
        assert_eq!(spec.crashed_nodes(&t), vec![2, 3]);
    }
}
