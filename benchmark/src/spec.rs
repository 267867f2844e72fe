//! The benchmark's fixed definitions: the six workloads, the end-to-end metrics with
//! their bounds, and every per-layer metric with the end-to-end metric and workload
//! it is expected to move. `BENCHMARK.json`, the README and the results file are
//! all written against these tables; a unit test keeps `BENCHMARK.json` in step.
//!
//! Host time is what the simulator costs; virtual time is what it outputs. A metric
//! whose name contains `sim_` is virtual time or an exact count and repeats exactly
//! for a given seed; every other metric is host time (or memory) and is noisy.

use crate::json::valid_name;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    /// The workload's name (`--workload`).
    pub name: &'static str,
    /// One line: why the workload exists and which layers it stresses.
    pub why: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// The scheduler backend the workload's child process selects through
    /// `MATCH_BACKEND`, by name; `None` leaves the library default in place.
    pub backend: Option<&'static str>,
}

/// The six workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "fig-fault",
        why: "Fig. 5+6 matrix on the default backend: what `match-bench fig6` costs; every layer contributes, recovery and the default scheduler most",
        op: "one cold cell of six proxies x four designs x {32,64,128} ranks, Small input, smoke scale, failure-free and SingleRandom (136 cells)",
        backend: None,
    },
    WorkloadDef {
        name: "ranks-wide",
        why: "few cells at 512-1024 ranks on `par`, engine jobs=1: scheduler and mpisim matching/collectives do the work, numerics and FTI almost none",
        op: "one cold cell of {HPCCG,AMG,miniVite} x {REINIT,ULFM} x {512,1024} ranks, Small input, smoke scale, one failure (12 cells)",
        backend: Some("par"),
    },
    WorkloadDef {
        name: "input-sweep",
        why: "Fig. 8-10 shape at 8 ranks and bench scale: rank-body numerics dominate and the scheduler does little, the mirror image of ranks-wide",
        op: "one cold cell of six proxies x {Small,Medium,Large} x four designs at 8 ranks, bench scale, one failure, CoMD/Large excluded (68 cells)",
        backend: None,
    },
    WorkloadDef {
        name: "ckpt-heavy",
        why: "8 MiB of protected state per rank checkpointed every iteration under three FTI configurations, then restored: the fti data plane dominates",
        op: "one rank-checkpoint or rank-restore of a harness-owned rank body under FtDriver::execute at 16 ranks",
        backend: None,
    },
    WorkloadDef {
        name: "warm-rerun",
        why: "the fig-fault cells recalled from a pre-populated disk store, then from memory: core cache/persist/engine only; no simulator change may move it",
        op: "one cell lookup (fresh engine, run_matrix from disk, run_matrix again from memory)",
        backend: Some("coop"),
    },
    WorkloadDef {
        name: "explore-small",
        why: "hundreds of tiny 8-rank explorer jobs: Cluster::new, thread/fiber spawn and teardown dominate steady-state scheduling",
        op: "one explorer round (budget 96 per design, four designs, 8 ranks, 12 iterations)",
        backend: None,
    },
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// How far the median may worsen before it counts as a regression: a share of
    /// the baseline's median, or — for `absolute` metrics — in the metric's unit.
    pub bound: f64,
    /// Whether `bound` is absolute (the two exact metrics) instead of a share.
    pub absolute: bool,
    /// Whether the metric is part of the driver contract (`BENCHMARK.json`): the
    /// contract takes only metrics that are never 0, exist on every workload and
    /// have a relative bound.
    pub contract: bool,
    /// What it measures.
    pub what: &'static str,
}

/// The six end-to-end metrics.
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
        contract: true,
        what: "host seconds of one set-up (input generation, store pre-population, warm-up); median of the set-ups of a run",
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        absolute: false,
        contract: true,
        what: "operations of a pass / its wall-clock, median over the timed passes; host time, at the workload's stated size",
    },
    EndToEndDef {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        absolute: false,
        contract: true,
        what: "process user+sys CPU ms / operations over the timed passes; tells less work from the same work on more cores",
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        absolute: false,
        contract: true,
        what: "VmHWM of the workload's own child process",
    },
    EndToEndDef {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        absolute: true,
        contract: false,
        what: "failed / attempted operations (engine error, wrong final state, digest mismatch between passes, explorer violation, simulation during warm-rerun)",
    },
    EndToEndDef {
        name: "paper_err_pct",
        unit: "%",
        better: Better::Lower,
        bound: 1.0,
        absolute: true,
        contract: false,
        what: "fig-fault only, virtual time, exact: mean |measured - paper| / paper over the five quantitative Section V-C findings at benchmark scale",
    },
];

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDef {
    /// The metric's name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// The end-to-end metric and workload(s) it is expected to move.
    pub moves: &'static str,
    /// How it is measured.
    pub what: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    what: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
        what,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric. Probe metrics are properties of a layer and do not depend
/// on the workload; `trace.*`, `*.span_self_ms_per_op`, `proxies.share_pct.*`,
/// `mpisim.sim_ops*` and `mpisim.host_ns_per_sim_op` come from the traced pass of
/// the workload being run.
pub const LAYERS: &[LayerDef] = &[
    // mpisim (with its schedulers)
    layer("mpisim.cell_ms.threads", "ms", Lower, "ops_per_s on fig-fault, explore-small", "HPCCG/Small/64/REINIT/fault cell on the backend named `threads`"),
    layer("mpisim.cell_ms.coop", "ms", Lower, "ops_per_s on fig-fault, explore-small", "the same cell on the backend named `coop`"),
    layer("mpisim.cell_ms.par", "ms", Lower, "ops_per_s on fig-fault, ranks-wide", "the same cell on the backend named `par`"),
    layer("mpisim.spawn_us_per_rank", "us", Lower, "ops_per_s on explore-small", "Cluster::new + run of an empty body at 1024 ranks on the default backend, per rank"),
    layer("mpisim.p2p_ring_ns_per_msg", "ns", Lower, "ops_per_s on ranks-wide", "slope of a 512-rank sendrecv ring on `par` over its iteration count, per message"),
    layer("mpisim.allreduce_round_us.r512", "us", Lower, "ops_per_s on ranks-wide", "slope of a 512-rank allreduce loop on `par`, per round"),
    layer("mpisim.allreduce_round_us.r2048", "us", Lower, "ops_per_s on ranks-wide", "the same at 2048 ranks"),
    layer("mpisim.allreduce_round_us.r4096", "us", Lower, "ops_per_s on ranks-wide", "the same at 4096 ranks"),
    layer("mpisim.par_speedup", "ratio", Higher, "ops_per_s on ranks-wide (cpu_ms_per_op tells its price)", "2048-rank ring+allreduce kernel on `par`: 1 worker / nproc workers"),
    layer("mpisim.rss_kib_per_rank", "KiB", Lower, "peak_rss_mib on ranks-wide", "VmRSS growth with 4096 live ranks on `par`, per rank"),
    layer("mpisim.payload_fanout_ns", "ns", Lower, "ops_per_s on ckpt-heavy", "slope of a 1 MiB bcast_payload over 64 ranks, per receiver and round"),
    layer("mpisim.sim_ops", "count", Higher, "exact; ops_per_s on the workload run", "sends + recvs + collectives of a pass from RunReport.stats (0 where reports carry none)"),
    layer("mpisim.sim_ops_per_s", "1/s", Higher, "ops_per_s on the workload run", "the same per host second of the untraced pass"),
    layer("mpisim.host_ns_per_sim_op", "ns", Lower, "ops_per_s on ranks-wide (low = scheduler-bound) vs input-sweep (high = numerics-bound)", "process CPU ns of the untraced pass / sim_ops"),
    // fti
    layer("fti.rs_encode_mib_s", "MiB/s", Higher, "ops_per_s on ckpt-heavy", "rs_code::encode_payload, 1 MiB, k4 m2"),
    layer("fti.rs_decode_mib_s", "MiB/s", Higher, "ops_per_s on ckpt-heavy", "rs_code::decode, 1 MiB, k4 m2, two erased data shards"),
    layer("fti.diff_sparse_mib_s", "MiB/s", Higher, "ops_per_s on ckpt-heavy", "diff::compute_delta_cached, 1 MiB, two changed blocks"),
    layer("fti.diff_dense_mib_s", "MiB/s", Higher, "ops_per_s on ckpt-heavy", "diff::compute_delta_cached, 1 MiB, every block changed"),
    layer("fti.ckpt_us_per_mib.l1", "us", Lower, "ops_per_s on ckpt-heavy; no change on ranks-wide, warm-rerun", "slope of an 8-rank job over its checkpoint count at L1, per rank-MiB"),
    layer("fti.ckpt_us_per_mib.l2", "us", Lower, "ops_per_s on ckpt-heavy", "the same at L2"),
    layer("fti.ckpt_us_per_mib.l3", "us", Lower, "ops_per_s on ckpt-heavy", "the same at L3 (RS k2 m2)"),
    layer("fti.ckpt_us_per_mib.l4", "us", Lower, "ops_per_s on ckpt-heavy", "the same at L4"),
    layer("fti.restore_us_per_mib.l1", "us", Lower, "ops_per_s on ckpt-heavy", "Fti::recover_object served by the primary copy, per MiB"),
    layer("fti.restore_us_per_mib.l2_partner", "us", Lower, "ops_per_s on ckpt-heavy", "the same served by the L2 partner copy after a node crash"),
    layer("fti.restore_us_per_mib.l3_decode", "us", Lower, "ops_per_s on ckpt-heavy", "the same served by an L3 Reed-Solomon decode after a node crash"),
    layer("fti.restore_us_per_mib.l4_pfs", "us", Lower, "ops_per_s on ckpt-heavy", "the same served by the L4 parallel-file-system copy after a node crash"),
    layer("fti.sim_ckpt_s.l1", "s", Lower, "exact; virtual checkpoint time behind paper_err_pct", "virtual checkpoint-write seconds of the L1 probe job"),
    layer("fti.sim_ckpt_s.l2", "s", Lower, "exact", "the same at L2"),
    layer("fti.sim_ckpt_s.l3", "s", Lower, "exact", "the same at L3"),
    layer("fti.sim_ckpt_s.l4", "s", Lower, "exact", "the same at L4"),
    // recovery
    layer("recovery.host_ms.restart", "ms", Lower, "ops_per_s on fig-fault, explore-small", "run_trace at 64 ranks with one kill minus its failure-free twin, RESTART"),
    layer("recovery.host_ms.ulfm", "ms", Lower, "ops_per_s on fig-fault, explore-small", "the same under ULFM"),
    layer("recovery.host_ms.reinit", "ms", Lower, "ops_per_s on fig-fault, explore-small", "the same under REINIT"),
    layer("recovery.host_ms.shrink", "ms", Lower, "ops_per_s on fig-fault, explore-small", "the same under SHRINK"),
    layer("recovery.sim_s.restart", "s", Lower, "exact; feeds paper_err_pct", "virtual recovery seconds of that run, RESTART"),
    layer("recovery.sim_s.ulfm", "s", Lower, "exact; feeds paper_err_pct", "the same under ULFM"),
    layer("recovery.sim_s.reinit", "s", Lower, "exact; feeds paper_err_pct", "the same under REINIT"),
    layer("recovery.sim_s.shrink", "s", Lower, "exact", "the same under SHRINK"),
    layer("recovery.sim_paper_err_pct", "%", Lower, "exact; equals paper_err_pct of fig-fault at the same seed", "the fig-fault with-failure matrix simulated on `coop`, through Findings::from_figure"),
    // proxies
    layer("proxies.cell_ms.amg", "ms", Lower, "ops_per_s on input-sweep", "AMG, failure-free, 8 ranks, Medium input, bench scale, serial"),
    layer("proxies.cell_ms.comd", "ms", Lower, "ops_per_s on input-sweep", "CoMD, the same"),
    layer("proxies.cell_ms.hpccg", "ms", Lower, "ops_per_s on input-sweep", "HPCCG, the same"),
    layer("proxies.cell_ms.lulesh", "ms", Lower, "ops_per_s on input-sweep", "LULESH, the same"),
    layer("proxies.cell_ms.minife", "ms", Lower, "ops_per_s on input-sweep", "miniFE, the same"),
    layer("proxies.cell_ms.minivite", "ms", Lower, "ops_per_s on input-sweep", "miniVite, the same"),
    layer("proxies.share_pct.amg", "%", Lower, "how far proxies.cell_ms.amg can move the workload run", "AMG cells' share of the traced pass's cell time (0 on workloads without cells)"),
    layer("proxies.share_pct.comd", "%", Lower, "as above for CoMD", "CoMD cells' share"),
    layer("proxies.share_pct.hpccg", "%", Lower, "as above for HPCCG", "HPCCG cells' share"),
    layer("proxies.share_pct.lulesh", "%", Lower, "as above for LULESH", "LULESH cells' share"),
    layer("proxies.share_pct.minife", "%", Lower, "as above for miniFE", "miniFE cells' share"),
    layer("proxies.share_pct.minivite", "%", Lower, "as above for miniVite", "miniVite cells' share"),
    // core
    layer("core.mem_hit_ns", "ns", Lower, "ops_per_s on warm-rerun", "SuiteEngine::run of a cell already in memory"),
    layer("core.disk_hit_us", "us", Lower, "ops_per_s on warm-rerun", "DiskCache::load of a stored cell"),
    layer("core.persist_encode_ns", "ns", Lower, "ops_per_s on warm-rerun; setup_s on warm-rerun", "persist::encode_entry of a with-failure report"),
    layer("core.persist_decode_ns", "ns", Lower, "ops_per_s on warm-rerun", "persist::decode_entry of the same"),
    layer("core.persist_store_us", "us", Lower, "setup_s on warm-rerun (layer-only: fsync is noisy)", "DiskCache::store: temp file + fsync + rename"),
    layer("core.matrix_build_us", "us", Lower, "setup_s everywhere; ops_per_s on warm-rerun", "building the 136-cell fig-fault matrix"),
    layer("core.jobs_speedup", "ratio", Higher, "ops_per_s on fig-fault", "the 32-rank rung of fig-fault at jobs=1 / jobs=nproc"),
    // explorer
    layer("explorer.trace_ms", "ms", Lower, "ops_per_s on explore-small", "run_trace of the baseline genome's spec at 8 ranks"),
    layer("explorer.mutate_ns", "ns", Lower, "ops_per_s on explore-small", "TraceGenome::mutate"),
    layer("explorer.replay_ms", "ms", Lower, "ops_per_s on explore-small", "replay::replay of tests/fixtures/explore-repro.json"),
    layer("explorer.sim_paths_found", "count", Higher, "exact; the explorer's coverage at benchmark size", "distinct recovery paths of an 8-rank, budget-24 exploration"),
    // spans of the traced pass
    layer("core.span_self_ms_per_op", "ms", Lower, "ops_per_s on the workload run", "self time of the harness's core spans (engine.run, run_matrix, engine set-up) per op"),
    layer("fti.span_self_ms_per_op", "ms", Lower, "ops_per_s on ckpt-heavy", "self time of the rank body's Fti::checkpoint / recover_object spans per op"),
    layer("mpisim.span_self_ms_per_op", "ms", Lower, "ops_per_s on ckpt-heavy", "self time of Cluster::run and the rank body's allreduce spans per op"),
    layer("recovery.span_self_ms_per_op", "ms", Lower, "ops_per_s on ckpt-heavy", "self time of the FtDriver::execute spans per op"),
    layer("explorer.span_self_ms_per_op", "ms", Lower, "ops_per_s on explore-small", "self time of the Explorer::run spans per op"),
    layer("trace.span_ms.p50", "ms", Lower, "ops_per_s on the workload run", "median duration of the traced pass's leaf spans (cells, lookups batches, rank checkpoints)"),
    layer("trace.span_ms.tail", "ms", Lower, "ops_per_s on the workload run (the slowest cell bounds a parallel pass)", "the highest percentile of leaf spans with at least ten samples beyond it (the maximum below eleven samples)"),
    layer("trace.tail_pct", "%", Higher, "none; says which percentile trace.span_ms.tail is", "that percentile"),
    layer("trace.overhead_pct", "%", Lower, "none; the cost of tracing itself", "traced pass / untraced pass - 1"),
];

/// The layer definition named `name`.
pub fn layer_def(name: &str) -> Option<&'static LayerDef> {
    LAYERS.iter().find(|l| l.name == name)
}

/// Panics unless every name in the tables is valid and used once (a programming
/// error in this file, caught by the unit tests and at start-up).
pub fn validate() {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(LAYERS.iter().map(|l| l.name));
    for name in names {
        assert!(valid_name(name), "invalid name {name:?}");
        assert!(seen.insert(name), "duplicate name {name:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_valid() {
        validate();
        assert!(LAYERS.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        for m in END_TO_END.iter().filter(|m| m.contract) {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25 && !m.absolute,
                "{}",
                m.name
            );
        }
        assert!(workload("ckpt-heavy").is_some() && workload("nope").is_none());
        assert!(layer_def("core.mem_hit_ns").is_some());
    }
}
