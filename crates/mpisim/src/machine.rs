//! The analytic machine model that advances virtual time.
//!
//! The model is calibrated to a commodity HPC cluster of the kind used in the MATCH
//! paper (dual-socket Haswell nodes, a fat-tree interconnect, node-local RAM disk and
//! SSD, and a shared parallel file system), but every constant can be overridden to run
//! sensitivity studies. All returned values are [`SimTime`] durations.
//!
//! Three groups of costs matter for reproducing the paper:
//!
//! 1. **Communication** — an α–β (latency + size/bandwidth) model for point-to-point
//!    messages and a logarithmic tree model for collectives.
//! 2. **Checkpoint I/O** — per-byte costs of the four FTI storage tiers (L1 RAM disk,
//!    L2 partner copy over the network, L3 erasure-coded group, L4 parallel file
//!    system).
//! 3. **Recovery** — the per-design recovery costs: `Restart` pays job redeployment,
//!    `ULFM` pays a chain of revoke/shrink/spawn/merge/agree operations whose cost grows
//!    with the number of processes, and `Reinit` pays a small, process-count-independent
//!    runtime repair. ULFM additionally charges a background heartbeat/interposition
//!    overhead against application execution, which is how the paper explains the
//!    application-time inflation observed for ULFM-FTI.

use crate::time::SimTime;

/// Storage tiers available for checkpoint I/O.
///
/// These correspond to the media used by the four FTI checkpoint levels, split by the
/// interconnect domain the transfer actually crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageTier {
    /// Node-local RAM disk (`/dev/shm`), used by FTI L1 in the paper's evaluation.
    RamDisk,
    /// Node-local SSD.
    LocalSsd,
    /// A neighbouring node in the **same rack**, reached over the rack-local
    /// interconnect (FTI L2 partner copies and L3 shards staying inside the rack).
    PartnerNode,
    /// A node in a **different rack**, reached through the rack uplinks (off-rack L2
    /// partner copies and L3 shards; slower than the rack-local fabric).
    RemoteRack,
    /// The shared parallel file system (FTI L4). PFS servers sit outside every
    /// compute rack, so each access additionally pays the cross-rack latency.
    ParallelFs,
}

/// The interconnect domain a point-to-point transfer crosses, in increasing order of
/// distance (and cost). Derived from the topology via
/// [`Topology::link_between`](crate::topology::Topology::link_between).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkDomain {
    /// Both endpoints share a node (shared-memory transport).
    IntraNode,
    /// Different nodes in the same rack (rack-local fabric).
    IntraRack,
    /// Different racks (traffic traverses the rack uplinks / spine).
    CrossRack,
}

/// Kinds of collective operations, used to select the cost formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Synchronization only; no payload.
    Barrier,
    /// One-to-all broadcast.
    Broadcast,
    /// All-to-all reduction (reduce + broadcast).
    Allreduce,
    /// All-to-all gather.
    Allgather,
}

/// The calibrated machine model.
///
/// Construct with [`MachineModel::default`] (or [`MachineModel::haswell_cluster`]) and
/// override individual fields for ablation studies.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// One-way latency between ranks on the same node, seconds.
    pub intra_node_latency: f64,
    /// One-way latency between ranks on different nodes of the same rack, seconds.
    pub inter_node_latency: f64,
    /// One-way latency between ranks in different racks, seconds (one extra hop
    /// through the rack uplink and spine).
    pub cross_rack_latency: f64,
    /// Bandwidth between ranks on the same node, bytes/second.
    pub intra_node_bandwidth: f64,
    /// Bandwidth between ranks on different nodes of the same rack, bytes/second.
    pub inter_node_bandwidth: f64,
    /// Bandwidth between ranks in different racks, bytes/second (rack uplinks are
    /// oversubscribed relative to the rack-local fabric).
    pub cross_rack_bandwidth: f64,
    /// Seconds per floating point operation of application compute.
    pub flop_time: f64,
    /// Seconds per byte of strided/irregular memory traffic charged explicitly by
    /// applications (on top of flops).
    pub mem_byte_time: f64,
    /// RAM-disk write bandwidth, bytes/second (FTI L1).
    pub ramdisk_bandwidth: f64,
    /// Node-local SSD write bandwidth, bytes/second.
    pub ssd_bandwidth: f64,
    /// Parallel file system per-process write bandwidth, bytes/second (FTI L4).
    pub pfs_bandwidth: f64,
    /// Fixed per-checkpoint metadata overhead, seconds.
    pub checkpoint_metadata_overhead: f64,
    /// Time from a process failure to its notification at other ranks, seconds.
    pub failure_detection_latency: f64,
    /// Base cost of a full job restart (teardown + scheduler re-queue + relaunch),
    /// seconds.
    pub restart_base_cost: f64,
    /// Additional restart cost per log2(P), seconds (MPI_Init and wire-up).
    pub restart_per_log2p: f64,
    /// Base cost of a Reinit runtime repair, seconds.
    pub reinit_base_cost: f64,
    /// Additional Reinit cost per log2(P), seconds (kept tiny: Reinit recovery is
    /// essentially independent of scale).
    pub reinit_per_log2p: f64,
    /// Fixed component of ULFM `MPIX_Comm_revoke`, seconds.
    pub ulfm_revoke_base: f64,
    /// Fixed component of ULFM `MPIX_Comm_shrink`, seconds.
    pub ulfm_shrink_base: f64,
    /// Per-process component of ULFM `MPIX_Comm_shrink` (consensus over all ranks),
    /// seconds.
    pub ulfm_shrink_per_proc: f64,
    /// Base cost of `MPI_Comm_spawn` for replacement processes, seconds.
    pub ulfm_spawn_base: f64,
    /// Additional spawn cost per replacement process, seconds.
    pub ulfm_spawn_per_proc: f64,
    /// Fixed component of `MPI_Intercomm_merge`, seconds.
    pub ulfm_merge_base: f64,
    /// Per-process component of `MPI_Intercomm_merge`, seconds.
    pub ulfm_merge_per_proc: f64,
    /// Fixed component of `MPIX_Comm_agree`, seconds.
    pub ulfm_agree_base: f64,
    /// Per-process component of `MPIX_Comm_agree`, seconds.
    pub ulfm_agree_per_proc: f64,
    /// Fractional slow-down of application execution caused by the ULFM heartbeat and
    /// MPI-call interposition, evaluated as `base + per_log2p * log2(P)`.
    pub ulfm_app_overhead_base: f64,
    /// See [`MachineModel::ulfm_app_overhead_base`].
    pub ulfm_app_overhead_per_log2p: f64,
    /// Fractional slow-down ULFM imposes on checkpoint I/O (the paper observes a small
    /// impact on FTI for e.g. HPCCG and miniVite).
    pub ulfm_io_overhead: f64,
}

impl Default for MachineModel {
    fn default() -> Self {
        Self::haswell_cluster()
    }
}

impl MachineModel {
    /// The default calibration: a 32-node dual-socket Haswell cluster similar to the one
    /// used in the paper's evaluation.
    pub fn haswell_cluster() -> Self {
        MachineModel {
            intra_node_latency: 0.5e-6,
            inter_node_latency: 1.5e-6,
            cross_rack_latency: 2.5e-6,
            intra_node_bandwidth: 12.0e9,
            inter_node_bandwidth: 6.0e9,
            cross_rack_bandwidth: 4.0e9,
            flop_time: 1.0e-9,
            mem_byte_time: 0.15e-9,
            ramdisk_bandwidth: 2.0e9,
            ssd_bandwidth: 0.5e9,
            pfs_bandwidth: 0.15e9,
            checkpoint_metadata_overhead: 2.0e-3,
            failure_detection_latency: 0.2,
            restart_base_cost: 9.0,
            restart_per_log2p: 0.25,
            reinit_base_cost: 0.75,
            reinit_per_log2p: 0.01,
            ulfm_revoke_base: 0.05,
            ulfm_shrink_base: 0.30,
            ulfm_shrink_per_proc: 0.004,
            ulfm_spawn_base: 0.25,
            ulfm_spawn_per_proc: 0.10,
            ulfm_merge_base: 0.05,
            ulfm_merge_per_proc: 0.002,
            ulfm_agree_base: 0.20,
            ulfm_agree_per_proc: 0.006,
            ulfm_app_overhead_base: 0.04,
            ulfm_app_overhead_per_log2p: 0.02,
            ulfm_io_overhead: 0.03,
        }
    }

    /// ceil(log2(p)) with log2(1) = 0, used by tree-structured collective models.
    pub fn log2_ceil(p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            (p as f64).log2().ceil()
        }
    }

    /// The one-way α (latency) of the given interconnect domain, seconds.
    pub fn link_latency(&self, domain: LinkDomain) -> f64 {
        match domain {
            LinkDomain::IntraNode => self.intra_node_latency,
            LinkDomain::IntraRack => self.inter_node_latency,
            LinkDomain::CrossRack => self.cross_rack_latency,
        }
    }

    /// The β⁻¹ (bandwidth) of the given interconnect domain, bytes/second.
    pub fn link_bandwidth(&self, domain: LinkDomain) -> f64 {
        match domain {
            LinkDomain::IntraNode => self.intra_node_bandwidth,
            LinkDomain::IntraRack => self.inter_node_bandwidth,
            LinkDomain::CrossRack => self.cross_rack_bandwidth,
        }
    }

    /// Cost of a point-to-point message of `bytes` bytes across the given
    /// interconnect domain.
    pub fn p2p_cost_link(&self, bytes: usize, domain: LinkDomain) -> SimTime {
        SimTime::from_secs(self.link_latency(domain) + bytes as f64 / self.link_bandwidth(domain))
    }

    /// Cost of a collective operation of kind `kind` over `nprocs` processes where each
    /// process contributes `bytes` bytes.
    ///
    /// The model uses logarithmic trees, plus a linear bandwidth term for the
    /// all-gather, whose output grows with the group; it intentionally ignores topology
    /// details beyond the inter-node α–β parameters (collectives in the evaluated
    /// configurations always span several nodes).
    pub fn collective_cost(&self, kind: CollectiveKind, nprocs: usize, bytes: usize) -> SimTime {
        if nprocs <= 1 {
            return SimTime::ZERO;
        }
        let logp = Self::log2_ceil(nprocs);
        let alpha = self.inter_node_latency;
        let beta = 1.0 / self.inter_node_bandwidth;
        let b = bytes as f64;
        let secs = match kind {
            CollectiveKind::Barrier => 2.0 * logp * alpha,
            CollectiveKind::Broadcast => logp * (alpha + b * beta),
            CollectiveKind::Allreduce => 2.0 * logp * (alpha + b * beta),
            CollectiveKind::Allgather => logp * alpha + (nprocs as f64 - 1.0) * b * beta,
        };
        SimTime::from_secs(secs)
    }

    /// Cost of `flops` floating-point operations of application compute.
    pub fn compute_cost(&self, flops: f64) -> SimTime {
        SimTime::from_secs(flops.max(0.0) * self.flop_time)
    }

    /// Cost of moving `bytes` bytes through the memory system (charged by applications
    /// for memory-bound phases on top of their flops).
    pub fn memory_cost(&self, bytes: f64) -> SimTime {
        SimTime::from_secs(bytes.max(0.0) * self.mem_byte_time)
    }

    /// The bandwidth and fixed per-access latency of a storage tier. PFS accesses
    /// cross the rack boundary to reach the file-system servers, so they pay the
    /// cross-rack latency on top of the tier bandwidth.
    fn storage_channel(&self, tier: StorageTier) -> (f64, f64) {
        match tier {
            StorageTier::RamDisk => (self.ramdisk_bandwidth, 0.0),
            StorageTier::LocalSsd => (self.ssd_bandwidth, 0.0),
            StorageTier::PartnerNode => (self.inter_node_bandwidth, self.inter_node_latency),
            StorageTier::RemoteRack => (self.cross_rack_bandwidth, self.cross_rack_latency),
            StorageTier::ParallelFs => (self.pfs_bandwidth, self.cross_rack_latency),
        }
    }

    /// Cost of writing `bytes` bytes of checkpoint data to the given storage tier.
    pub fn storage_write_cost(&self, tier: StorageTier, bytes: usize) -> SimTime {
        let (bw, lat) = self.storage_channel(tier);
        SimTime::from_secs(self.checkpoint_metadata_overhead + lat + bytes as f64 / bw)
    }

    /// Cost of reading `bytes` bytes of checkpoint data back from the given storage
    /// tier. Reads skip the metadata-creation overhead and are charged at the same
    /// bandwidth as writes (RAM disk and SSD reads are in practice slightly faster, but
    /// the paper reports restore time in the order of milliseconds and excludes it from
    /// its figures).
    pub fn storage_read_cost(&self, tier: StorageTier, bytes: usize) -> SimTime {
        let (bw, lat) = self.storage_channel(tier);
        SimTime::from_secs(lat + bytes as f64 / bw)
    }

    /// Time from a process failure to its notification at the surviving ranks.
    pub fn failure_detection_cost(&self) -> SimTime {
        SimTime::from_secs(self.failure_detection_latency)
    }

    /// Cost of a full job restart: tear down the job, re-queue it, relaunch `nprocs`
    /// processes and wire up MPI again.
    pub fn restart_recovery_cost(&self, nprocs: usize) -> SimTime {
        SimTime::from_secs(
            self.restart_base_cost + self.restart_per_log2p * Self::log2_ceil(nprocs),
        )
    }

    /// Cost of a Reinit runtime-level global-restart repair. Essentially independent of
    /// the number of processes, which is the paper's central observation about Reinit.
    pub fn reinit_recovery_cost(&self, nprocs: usize) -> SimTime {
        SimTime::from_secs(self.reinit_base_cost + self.reinit_per_log2p * Self::log2_ceil(nprocs))
    }

    /// Cost of ULFM `MPIX_Comm_revoke` over `nprocs` processes.
    pub fn ulfm_revoke_cost(&self, nprocs: usize) -> SimTime {
        SimTime::from_secs(
            self.ulfm_revoke_base + 2.0 * self.inter_node_latency * Self::log2_ceil(nprocs),
        )
    }

    /// Cost of ULFM `MPIX_Comm_shrink` over `nprocs` processes.
    pub fn ulfm_shrink_cost(&self, nprocs: usize) -> SimTime {
        SimTime::from_secs(self.ulfm_shrink_base + self.ulfm_shrink_per_proc * nprocs as f64)
    }

    /// Cost of spawning `nfailed` replacement processes with `MPI_Comm_spawn`.
    pub fn ulfm_spawn_cost(&self, nfailed: usize) -> SimTime {
        SimTime::from_secs(self.ulfm_spawn_base + self.ulfm_spawn_per_proc * nfailed as f64)
    }

    /// Cost of `MPI_Intercomm_merge` over `nprocs` processes.
    pub fn ulfm_merge_cost(&self, nprocs: usize) -> SimTime {
        SimTime::from_secs(self.ulfm_merge_base + self.ulfm_merge_per_proc * nprocs as f64)
    }

    /// Cost of `MPIX_Comm_agree` over `nprocs` processes.
    pub fn ulfm_agree_cost(&self, nprocs: usize) -> SimTime {
        SimTime::from_secs(self.ulfm_agree_base + self.ulfm_agree_per_proc * nprocs as f64)
    }

    /// Total cost of the ULFM global non-shrinking recovery protocol described in the
    /// paper (Fig. 3): revoke, shrink, spawn replacements, merge, agree.
    pub fn ulfm_recovery_cost(&self, nprocs: usize, nfailed: usize) -> SimTime {
        self.ulfm_revoke_cost(nprocs)
            + self.ulfm_shrink_cost(nprocs)
            + self.ulfm_spawn_cost(nfailed)
            + self.ulfm_merge_cost(nprocs)
            + self.ulfm_agree_cost(nprocs)
    }

    /// Total cost of ULFM *shrinking* recovery over the `nprocs` processes of the
    /// communicator before the shrink: revoke, shrink, agree. There is no spawn and no
    /// merge, because the failed processes are never replaced; redistributing the
    /// protected data is charged separately, as real simulated messages.
    pub fn ulfm_shrink_recovery_cost(&self, nprocs: usize) -> SimTime {
        self.ulfm_revoke_cost(nprocs) + self.ulfm_shrink_cost(nprocs) + self.ulfm_agree_cost(nprocs)
    }

    /// Fractional application slow-down caused by the ULFM heartbeat failure detector
    /// and MPI-call interposition (0.16 means "application work takes 16% longer").
    pub fn ulfm_app_overhead(&self, nprocs: usize) -> f64 {
        self.ulfm_app_overhead_base + self.ulfm_app_overhead_per_log2p * Self::log2_ceil(nprocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_edge_cases() {
        assert_eq!(MachineModel::log2_ceil(1), 0.0);
        assert_eq!(MachineModel::log2_ceil(2), 1.0);
        assert_eq!(MachineModel::log2_ceil(3), 2.0);
        assert_eq!(MachineModel::log2_ceil(64), 6.0);
        assert_eq!(MachineModel::log2_ceil(512), 9.0);
    }

    #[test]
    fn p2p_intra_node_is_cheaper() {
        let m = MachineModel::default();
        let node = |bytes| m.p2p_cost_link(bytes, LinkDomain::IntraNode);
        assert!(node(1 << 20) < m.p2p_cost_link(1 << 20, LinkDomain::IntraRack));
        assert!(node(0).as_secs() > 0.0);
    }

    #[test]
    fn link_domains_are_ordered_by_cost() {
        let m = MachineModel::default();
        let bytes = 1 << 22;
        let node = m.p2p_cost_link(bytes, LinkDomain::IntraNode);
        let rack = m.p2p_cost_link(bytes, LinkDomain::IntraRack);
        let spine = m.p2p_cost_link(bytes, LinkDomain::CrossRack);
        assert!(node < rack && rack < spine);
        assert!(m.link_latency(LinkDomain::CrossRack) > m.link_latency(LinkDomain::IntraRack));
        assert!(m.link_bandwidth(LinkDomain::CrossRack) < m.link_bandwidth(LinkDomain::IntraRack));
    }

    #[test]
    fn cross_rack_storage_costs_more_than_rack_local() {
        let m = MachineModel::default();
        let bytes = 64 << 20;
        let partner = m.storage_write_cost(StorageTier::PartnerNode, bytes);
        let remote = m.storage_write_cost(StorageTier::RemoteRack, bytes);
        assert!(
            partner < remote,
            "off-rack partner copies cross the uplinks"
        );
        assert!(
            m.storage_read_cost(StorageTier::PartnerNode, bytes)
                < m.storage_read_cost(StorageTier::RemoteRack, bytes)
        );
        // PFS accesses pay the cross-rack latency on top of the tier bandwidth.
        let pfs = m.storage_read_cost(StorageTier::ParallelFs, 0).as_secs();
        assert!((pfs - m.cross_rack_latency).abs() < 1e-15);
    }

    #[test]
    fn p2p_cost_scales_with_bytes() {
        let m = MachineModel::default();
        let small = m.p2p_cost_link(1 << 10, LinkDomain::IntraRack);
        let large = m.p2p_cost_link(1 << 24, LinkDomain::IntraRack);
        assert!(large > small);
    }

    #[test]
    fn collective_cost_grows_with_procs() {
        let m = MachineModel::default();
        for kind in [
            CollectiveKind::Barrier,
            CollectiveKind::Broadcast,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ] {
            let c64 = m.collective_cost(kind, 64, 1024);
            let c512 = m.collective_cost(kind, 512, 1024);
            assert!(c512 > c64, "{kind:?} should grow with process count");
        }
        assert_eq!(
            m.collective_cost(CollectiveKind::Allreduce, 1, 1024),
            SimTime::ZERO
        );
    }

    #[test]
    fn allreduce_costs_about_twice_reduce() {
        // A reduction runs the broadcast tree in reverse and costs what a broadcast
        // does; an all-reduce is a reduction followed by a broadcast.
        let m = MachineModel::default();
        let r = m
            .collective_cost(CollectiveKind::Broadcast, 128, 4096)
            .as_secs();
        let ar = m
            .collective_cost(CollectiveKind::Allreduce, 128, 4096)
            .as_secs();
        assert!((ar / r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn storage_tiers_are_ordered_by_speed() {
        let m = MachineModel::default();
        let bytes = 64 << 20;
        let ram = m.storage_write_cost(StorageTier::RamDisk, bytes);
        let ssd = m.storage_write_cost(StorageTier::LocalSsd, bytes);
        let pfs = m.storage_write_cost(StorageTier::ParallelFs, bytes);
        assert!(ram < ssd && ssd < pfs);
        assert!(m.storage_read_cost(StorageTier::RamDisk, bytes) < ram);
    }

    #[test]
    fn recovery_cost_shapes_match_the_paper() {
        let m = MachineModel::default();
        // Reinit is essentially independent of scale.
        let reinit64 = m.reinit_recovery_cost(64).as_secs();
        let reinit512 = m.reinit_recovery_cost(512).as_secs();
        assert!((reinit512 - reinit64) / reinit64 < 0.10);

        // ULFM grows clearly with scale.
        let ulfm64 = m.ulfm_recovery_cost(64, 1).as_secs();
        let ulfm512 = m.ulfm_recovery_cost(512, 1).as_secs();
        assert!(ulfm512 > 2.0 * ulfm64);

        // Ordering at every scale: Reinit < ULFM < Restart.
        for p in [64, 128, 256, 512] {
            let reinit = m.reinit_recovery_cost(p).as_secs();
            let ulfm = m.ulfm_recovery_cost(p, 1).as_secs();
            let restart = m.restart_recovery_cost(p).as_secs();
            assert!(reinit < ulfm, "reinit {reinit} !< ulfm {ulfm} at {p}");
            assert!(ulfm < restart, "ulfm {ulfm} !< restart {restart} at {p}");
        }

        // Restart is an order of magnitude slower than Reinit (paper: 16x on average).
        let ratio = m.restart_recovery_cost(64).as_secs() / reinit64;
        assert!(ratio > 8.0 && ratio < 25.0, "restart/reinit ratio {ratio}");
    }

    #[test]
    fn ulfm_overhead_grows_with_scale() {
        let m = MachineModel::default();
        assert!(m.ulfm_app_overhead(512) > m.ulfm_app_overhead(64));
        assert!(m.ulfm_app_overhead(64) > 0.0 && m.ulfm_app_overhead(512) < 1.0);
    }

    #[test]
    fn ulfm_recovery_is_sum_of_parts() {
        let m = MachineModel::default();
        let total = m.ulfm_recovery_cost(128, 2).as_secs();
        let parts = m.ulfm_revoke_cost(128).as_secs()
            + m.ulfm_shrink_cost(128).as_secs()
            + m.ulfm_spawn_cost(2).as_secs()
            + m.ulfm_merge_cost(128).as_secs()
            + m.ulfm_agree_cost(128).as_secs();
        assert!((total - parts).abs() < 1e-12);
        // Shrinking recovery skips spawn + merge: positive, and strictly cheaper.
        let shrink = m.ulfm_shrink_recovery_cost(128);
        assert!(shrink.as_secs() > 0.0 && shrink < m.ulfm_recovery_cost(128, 1));
    }

    #[test]
    fn compute_and_memory_costs() {
        let m = MachineModel::default();
        assert_eq!(m.compute_cost(1e9).as_secs(), 1.0);
        assert!(m.memory_cost(1e9).as_secs() > 0.0);
        assert_eq!(m.compute_cost(-5.0), SimTime::ZERO);
    }
}
