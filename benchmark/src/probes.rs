//! The layer probes: each times calls into one layer's public functions from
//! outside and yields one per-layer metric. Probes do not depend on the workload
//! being run; every traced run takes all of them, so each is sized in milliseconds.
//!
//! Timings are the minimum over a few repetitions (the statistic least moved by a
//! shared host). A per-operation cost is the *slope* between a short and a long
//! run of the same job, so cluster construction, thread or fiber spawn and teardown
//! cancel out; `mpisim.spawn_us_per_rank` measures that cancelled part on its own.
//!
//! Scheduler backends are selected by name through `FromStr`; a name this build no
//! longer knows falls back to the library default, so the metric keeps its name.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use match_core::fti::store::CheckpointStore;
use match_core::fti::{diff, rs_code, CheckpointLevel, FtiConfig, RestoreSource};
use match_core::mpisim::{
    Cluster, ClusterConfig, FailureSpec, Payload, SchedBackend, TimeBreakdown,
};
use match_core::persist::{decode_entry, encode_entry};
use match_core::proxies::registry::{ExecutionScale, ProxySpec};
use match_core::proxies::{InputSize, ProxyKind};
use match_core::recovery::{
    FailureTrace, FaultPlan, FtConfig, FtDriver, RecoveryStrategy, RunReport,
};
use match_core::{
    run_trace, runner, DiskCache, Experiment, ExperimentId, Findings, SuiteEngine, TraceRunSpec,
};
use match_explorer::{replay, ExploreConfig, Explorer, TraceGenome};
use proptest::TestRng;

use crate::host::{nproc, rss_kib};
use crate::workloads::{
    checkpoint_interval, fig_fault_cells, fig_fault_options, paper_err_pct, suite_options,
    with_failure_figure, CkptJob,
};

/// Per-layer metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What the probes found, besides their values.
#[derive(Debug, Default)]
pub struct ProbeOutcome {
    /// One value per probe metric.
    pub values: Values,
    /// Checks that failed (virtual times disagreeing across backends, a wrong
    /// restore source, a replay that did not verify): each counts as a failed op.
    pub failures: Vec<String>,
}

/// Probe sizes: the full ones, or the `--quick` ones of the schema smoke test (which
/// runs an unoptimised build and measures nothing).
#[derive(Debug, Clone, Copy)]
struct Sizes {
    quick: bool,
}

impl Sizes {
    /// Repetitions of a timed job.
    fn reps(self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// A rank count.
    fn ranks(self, full: usize) -> usize {
        if self.quick {
            (full / 16).max(8)
        } else {
            full
        }
    }
}

fn backend(name: &str) -> SchedBackend {
    name.parse().unwrap_or_else(|_| {
        eprintln!("[probe] backend {name:?} is unknown to this build; using the default");
        SchedBackend::default()
    })
}

/// Minimum wall-clock seconds of `reps` calls.
fn min_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let began = Instant::now();
            f();
            began.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per call of `f`: batches of about a millisecond, minimum over
/// `samples` batches.
fn ns_per_call(samples: usize, mut f: impl FnMut()) -> f64 {
    let began = Instant::now();
    f();
    let once = began.elapsed().as_secs_f64().max(1e-9);
    let batch = ((1e-3 / once) as usize).clamp(1, 100_000);
    1e9 * min_secs(samples, || (0..batch).for_each(|_| f())) / batch as f64
}

/// A cost per unit from two runs of the same job at a short and a long length.
fn slope(short: f64, long: f64, extra_units: f64) -> f64 {
    ((long - short) / extra_units).max(0.0)
}

fn test_data(len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect()
}

/// One uncached cell on an explicit backend: the harness's own copy of what
/// `runner::run_single` does for a failure-free or single-failure experiment,
/// because the engine only takes its backend from the environment. Returns the
/// job's virtual completion time and slowest-rank time breakdown.
fn run_cell_on(backend: SchedBackend, e: &Experiment) -> Result<(f64, TimeBreakdown), String> {
    let app = ProxySpec::new(e.app, e.input, e.scale).build();
    let iterations = app.iterations();
    let interval = checkpoint_interval(iterations);
    let fault: FailureTrace = if e.inject_failure() {
        FaultPlan::random(e.seed, iterations.max(2)).into()
    } else {
        FailureTrace::none()
    };
    let ft = FtConfig::new(e.strategy, FtiConfig::default().interval(interval)).with_fault(fault);
    let cluster = Cluster::new(runner::experiment_cluster(e.nprocs).backend(backend));
    let store = CheckpointStore::shared();
    let outcome = cluster.run(move |ctx| {
        FtDriver::new(ft.clone(), Arc::clone(&store))
            .execute(ctx, |ctx, fti, injector| app.run(ctx, fti, injector))
    });
    if outcome.all_ok() {
        Ok((outcome.max_time().as_secs(), outcome.max_breakdown()))
    } else {
        Err(format!("{}: {:?}", e.label(), outcome.errors()))
    }
}

/// The synthetic communication kernel of the `mpisim` probes: per iteration an
/// optional ring `sendrecv` and an optional world all-reduce.
fn comm_kernel(config: ClusterConfig, iters: u64, ring: bool, allreduce: bool) -> f64 {
    let began = Instant::now();
    let outcome = Cluster::new(config).run(move |ctx| {
        let world = ctx.world();
        let n = world.size();
        let (next, prev) = ((world.rank() + 1) % n, (world.rank() + n - 1) % n);
        let halo = [ctx.rank() as f64; 8];
        let mut acc = 0.0f64;
        for _ in 0..iters {
            if ring {
                acc += ctx.sendrecv_f64(&world, next, &halo, prev, 11)?[0];
            }
            if allreduce {
                acc += ctx.allreduce_sum_f64(&world, 1.0)?;
            }
        }
        Ok(acc)
    });
    let secs = began.elapsed().as_secs_f64();
    assert!(
        outcome.all_ok(),
        "probe kernel failed: {:?}",
        outcome.errors()
    );
    secs
}

fn mpisim_probes(seed: u64, sizes: Sizes, out: &mut ProbeOutcome) {
    // The same cell on every backend name; virtual times must agree bit for bit.
    let cell = Experiment::new(
        ProxyKind::Hpccg,
        InputSize::Small,
        64,
        RecoveryStrategy::Reinit,
    )
    .with_options(&suite_options(ExecutionScale::smoke(), seed))
    .with_failure(true);
    let mut virtual_secs: Option<f64> = None;
    for (metric, name) in [
        ("mpisim.cell_ms.threads", "threads"),
        ("mpisim.cell_ms.coop", "coop"),
        ("mpisim.cell_ms.par", "par"),
    ] {
        let b = backend(name);
        let secs = min_secs(sizes.reps(3), || match run_cell_on(b, &cell) {
            Ok((v, _)) if virtual_secs.is_some_and(|seen| seen.to_bits() != v.to_bits()) => {
                out.failures.push(format!(
                    "{metric}: virtual time {v} differs across backends"
                ))
            }
            Ok((v, _)) => virtual_secs = Some(v),
            Err(e) => out.failures.push(format!("{metric}: {e}")),
        });
        out.values.insert(metric, secs * 1e3);
    }

    let spawn_ranks = sizes.ranks(1024);
    let spawn = min_secs(sizes.reps(3), || {
        comm_kernel(ClusterConfig::with_ranks(spawn_ranks), 0, false, false);
    });
    out.values
        .insert("mpisim.spawn_us_per_rank", spawn * 1e6 / spawn_ranks as f64);

    let par = |ranks: usize, workers: usize| {
        ClusterConfig::with_ranks(ranks)
            .backend(backend("par"))
            .workers(workers)
            .stack_size(256 * 1024)
    };
    let workers = nproc();
    let (short, long) = (2u64, 22u64);
    let extra = (long - short) as f64;
    let timed = |ranks: usize, workers: usize, iters: u64, ring: bool, allreduce: bool| {
        min_secs(sizes.reps(3), || {
            comm_kernel(par(ranks, workers), iters, ring, allreduce);
        })
    };
    let ring = slope(
        timed(sizes.ranks(512), workers, short, true, false),
        timed(sizes.ranks(512), workers, long, true, false),
        extra * sizes.ranks(512) as f64,
    );
    out.values.insert("mpisim.p2p_ring_ns_per_msg", ring * 1e9);
    for (metric, ranks) in [
        ("mpisim.allreduce_round_us.r512", 512),
        ("mpisim.allreduce_round_us.r2048", 2048),
        ("mpisim.allreduce_round_us.r4096", 4096),
    ] {
        let round = slope(
            timed(sizes.ranks(ranks), workers, short, false, true),
            timed(sizes.ranks(ranks), workers, long, false, true),
            extra,
        );
        out.values.insert(metric, round * 1e6);
    }
    let one = timed(sizes.ranks(2048), 1, long, true, true);
    let all = timed(sizes.ranks(2048), workers, long, true, true);
    out.values.insert("mpisim.par_speedup", one / all);

    // Resident memory per live rank: sampled by rank 0 after a barrier, when every
    // rank has run and holds its stack.
    let ranks = sizes.ranks(4096);
    let before = rss_kib().unwrap_or(0.0);
    let outcome = Cluster::new(par(ranks, workers)).run(|ctx| {
        let world = ctx.world();
        ctx.barrier(&world)?;
        let sampled = if ctx.rank() == 0 { rss_kib() } else { None };
        ctx.barrier(&world)?;
        Ok(sampled)
    });
    let during = outcome
        .ranks()
        .first()
        .and_then(|r| r.result.as_ref().ok().copied().flatten())
        .unwrap_or(before);
    out.values.insert(
        "mpisim.rss_kib_per_rank",
        (during - before).max(0.0) / ranks as f64,
    );

    let fan_ranks = 64;
    let payload: Payload = test_data(1 << 20).into();
    let fanout = |rounds: u64| {
        let payload = payload.clone();
        min_secs(sizes.reps(3), move || {
            let payload = payload.clone();
            let outcome = Cluster::new(par(fan_ranks, workers)).run(move |ctx| {
                let world = ctx.world();
                let mut seen = 0usize;
                for _ in 0..rounds {
                    let mine = if world.rank() == 0 {
                        payload.clone()
                    } else {
                        Payload::empty()
                    };
                    seen += ctx.bcast_payload(&world, 0, mine)?.len();
                }
                Ok(seen)
            });
            assert!(
                outcome.all_ok(),
                "bcast probe failed: {:?}",
                outcome.errors()
            );
        })
    };
    let per = slope(fanout(short), fanout(long), extra * fan_ranks as f64);
    out.values.insert("mpisim.payload_fanout_ns", per * 1e9);
}

fn fti_probes(seed: u64, sizes: Sizes, out: &mut ProbeOutcome) {
    const MIB: f64 = (1u64 << 20) as f64;
    let data = test_data(1 << 20);
    let (k, m) = (4usize, 2usize);
    let payload: Payload = data.clone().into();
    let encode = ns_per_call(sizes.reps(5), || {
        black_box(rs_code::encode_payload(black_box(&payload), k, m).expect("encodes"));
    });
    out.values.insert("fti.rs_encode_mib_s", 1e9 / encode);
    let encoded = rs_code::encode(&data, k, m).expect("encodes");
    let mut shards: Vec<Option<Payload>> = encoded.shards.iter().cloned().map(Some).collect();
    shards[0] = None;
    shards[1] = None;
    let decode = ns_per_call(sizes.reps(5), || {
        black_box(
            rs_code::decode(black_box(&shards), k, m, encoded.original_len).expect("decodes"),
        );
    });
    out.values.insert("fti.rs_decode_mib_s", 1e9 / decode);

    let block = 4096;
    let base_hashes = diff::block_hashes(&data, block);
    let mut sparse = data.clone();
    sparse[12_345] ^= 0xFF;
    sparse[999_999] ^= 0xFF;
    let dense: Vec<u8> = data.iter().map(|b| b ^ 0xFF).collect();
    for (metric, changed) in [
        ("fti.diff_sparse_mib_s", sparse),
        ("fti.diff_dense_mib_s", dense),
    ] {
        let new: Payload = changed.into();
        let ns = ns_per_call(sizes.reps(5), || {
            black_box(diff::compute_delta_cached(
                black_box(&data),
                &base_hashes,
                &new,
                block,
            ));
        });
        out.values.insert(metric, 1e9 / ns);
    }

    // Checkpoint and restore per level: 8 ranks x 1 MiB on the `coop` backend, whose
    // single thread makes a call's wall-clock its own cost.
    let words = 1 << 17;
    let job = |level: CheckpointLevel, iterations: u64, trace: FailureTrace| CkptJob {
        nranks: 8,
        words,
        iterations,
        seed,
        dense: true,
        fti: FtiConfig::level(level).interval(1),
        trace,
        backend: Some(backend("coop")),
    };
    let run = |job: &CkptJob, failures: &mut Vec<String>| {
        let outcome = job.run(None, None);
        if !outcome.all_ok() {
            failures.push(format!(
                "fti probe at {}: {:?}",
                job.fti.level,
                outcome.errors()
            ));
        }
        outcome
    };
    let levels = [
        (
            CheckpointLevel::L1,
            "fti.ckpt_us_per_mib.l1",
            "fti.sim_ckpt_s.l1",
        ),
        (
            CheckpointLevel::L2,
            "fti.ckpt_us_per_mib.l2",
            "fti.sim_ckpt_s.l2",
        ),
        (
            CheckpointLevel::L3,
            "fti.ckpt_us_per_mib.l3",
            "fti.sim_ckpt_s.l3",
        ),
        (
            CheckpointLevel::L4,
            "fti.ckpt_us_per_mib.l4",
            "fti.sim_ckpt_s.l4",
        ),
    ];
    for (level, host_metric, sim_metric) in levels {
        let (short, long) = (1u64, 5u64);
        let mut sim = 0.0;
        let mut time = |iterations: u64| {
            let job = job(level, iterations, FailureTrace::none());
            min_secs(sizes.reps(3), || {
                let outcome = run(&job, &mut out.failures);
                sim = outcome.max_breakdown().checkpoint_write.as_secs();
            })
        };
        let (t_short, t_long) = (time(short), time(long));
        let rank_mib = (long - short) as f64 * 8.0 * (words * 8) as f64 / MIB;
        out.values
            .insert(host_metric, slope(t_short, t_long, rank_mib) * 1e6);
        out.values.insert(sim_metric, sim);
    }

    let kill = FailureSpec::kill_process(1, 3);
    let crash = FailureSpec::crash_node(1, 3);
    let restores = [
        ("fti.restore_us_per_mib.l1", CheckpointLevel::L1, kill),
        (
            "fti.restore_us_per_mib.l2_partner",
            CheckpointLevel::L2,
            crash,
        ),
        (
            "fti.restore_us_per_mib.l3_decode",
            CheckpointLevel::L3,
            crash,
        ),
        ("fti.restore_us_per_mib.l4_pfs", CheckpointLevel::L4, crash),
    ];
    for (metric, level, event) in restores {
        let job = job(level, 4, FailureTrace::schedule(vec![event]));
        let mut best = f64::INFINITY;
        for _ in 0..sizes.reps(3) {
            let outcome = run(&job, &mut out.failures);
            // Rank 1 is the victim of either event: the one rank whose restore goes
            // through the level's redundancy path after a node crash.
            let seen = outcome
                .ranks()
                .get(1)
                .and_then(|r| r.result.as_ref().ok())
                .and_then(|o| o.value)
                .and_then(|v| v.restore);
            let Some((seen, us)) = seen else {
                out.failures
                    .push(format!("{metric}: the victim did not restore"));
                continue;
            };
            let expected = matches!(
                (level, seen.source),
                (CheckpointLevel::L1, RestoreSource::Primary)
                    | (CheckpointLevel::L2, RestoreSource::Partner)
                    | (CheckpointLevel::L3, RestoreSource::Decode { .. })
                    | (CheckpointLevel::L4, RestoreSource::Pfs)
            );
            if !expected {
                out.failures
                    .push(format!("{metric}: restore was served by {:?}", seen.source));
            }
            best = best.min(us);
        }
        let mib = (words * 8) as f64 / MIB;
        out.values
            .insert(metric, if best.is_finite() { best / mib } else { 0.0 });
    }
}

fn recovery_probes(seed: u64, sizes: Sizes, out: &mut ProbeOutcome) {
    let designs = [
        (
            RecoveryStrategy::Restart,
            "recovery.host_ms.restart",
            "recovery.sim_s.restart",
        ),
        (
            RecoveryStrategy::Ulfm,
            "recovery.host_ms.ulfm",
            "recovery.sim_s.ulfm",
        ),
        (
            RecoveryStrategy::Reinit,
            "recovery.host_ms.reinit",
            "recovery.sim_s.reinit",
        ),
        (
            RecoveryStrategy::Shrink,
            "recovery.host_ms.shrink",
            "recovery.sim_s.shrink",
        ),
    ];
    let victim = (seed % 64) as usize;
    for (strategy, host_metric, sim_metric) in designs {
        let spec = |trace: FailureTrace| TraceRunSpec {
            nprocs: 64,
            iterations: 12,
            strategy,
            fti: FtiConfig::default().interval(4),
            trace,
        };
        let mut sim = 0.0;
        let mut time = |spec: TraceRunSpec| {
            min_secs(sizes.reps(3), || match run_trace(&spec) {
                Ok(outcome) => sim = outcome.report.recovery_time().as_secs(),
                Err(e) => out.failures.push(format!("{host_metric}: {e}")),
            })
        };
        let quiet = time(spec(FailureTrace::none()));
        let faulty = time(spec(FailureSpec::kill_process(victim, 7).into()));
        out.values
            .insert(host_metric, (faulty - quiet).max(0.0) * 1e3);
        out.values.insert(sim_metric, sim);
    }

    // The model's error against the paper: the with-failure half of the fig-fault
    // matrix, cell by cell on the fastest backend (virtual time does not depend on
    // the backend), handed to the same `Findings::from_figure` the workload uses.
    let coop = backend("coop");
    let cells = fig_fault_cells(&fig_fault_options(seed, sizes.quick));
    let mut rows = Vec::new();
    for cell in cells.iter().filter(|cell| cell.inject_failure()) {
        match run_cell_on(coop, cell) {
            Ok((_, b)) => rows.push((
                cell,
                [b.application, b.checkpoint_write, b.recovery].map(|t| t.as_secs()),
            )),
            Err(e) => out
                .failures
                .push(format!("recovery.sim_paper_err_pct: {e}")),
        }
    }
    out.values.insert(
        "recovery.sim_paper_err_pct",
        paper_err_pct(&Findings::from_figure(&with_failure_figure(
            rows.into_iter(),
        ))),
    );
}

fn proxies_probes(seed: u64, sizes: Sizes, out: &mut ProbeOutcome) {
    let apps = [
        (ProxyKind::Amg, "proxies.cell_ms.amg"),
        (ProxyKind::Comd, "proxies.cell_ms.comd"),
        (ProxyKind::Hpccg, "proxies.cell_ms.hpccg"),
        (ProxyKind::Lulesh, "proxies.cell_ms.lulesh"),
        (ProxyKind::MiniFe, "proxies.cell_ms.minife"),
        (ProxyKind::MiniVite, "proxies.cell_ms.minivite"),
    ];
    for (app, metric) in apps {
        let scale = if sizes.quick {
            ExecutionScale::smoke()
        } else {
            ExecutionScale::bench()
        };
        let cell = Experiment::new(app, InputSize::Medium, 8, RecoveryStrategy::Reinit)
            .with_options(&suite_options(scale, seed));
        let secs = min_secs(sizes.reps(2), || {
            if let Err(e) = runner::run_experiment_uncached(&cell) {
                out.failures.push(format!("{metric}: {e}"));
            }
        });
        out.values.insert(metric, secs * 1e3);
    }
}

fn core_probes(seed: u64, sizes: Sizes, scratch: &std::path::Path, out: &mut ProbeOutcome) {
    let options = fig_fault_options(seed, sizes.quick);
    let build = ns_per_call(sizes.reps(5), || {
        black_box(fig_fault_cells(black_box(&options)));
    });
    out.values.insert("core.matrix_build_us", build / 1e3);

    // One with-failure report as the subject of the cache and codec probes.
    let first_rung = options.process_counts[0];
    let cell = Experiment::new(
        ProxyKind::Hpccg,
        InputSize::Small,
        first_rung,
        RecoveryStrategy::Ulfm,
    )
    .with_options(&options.suite)
    .with_failure(true);
    let id = ExperimentId::of(&cell);
    let engine = SuiteEngine::with_jobs_and_disk(1, None);
    let report: RunReport = match engine.run(&cell) {
        Ok(report) => report,
        Err(e) => {
            out.failures.push(format!("core probes: {e}"));
            return;
        }
    };
    let mem = ns_per_call(sizes.reps(5), || {
        black_box(engine.run(black_box(&cell)).expect("memory hit"));
    });
    out.values.insert("core.mem_hit_ns", mem);
    let bytes = encode_entry(&id, &report);
    let encode = ns_per_call(sizes.reps(5), || {
        black_box(encode_entry(black_box(&id), black_box(&report)));
    });
    out.values.insert("core.persist_encode_ns", encode);
    let decode = ns_per_call(sizes.reps(5), || {
        black_box(decode_entry(black_box(&id), black_box(&bytes)).expect("decodes"));
    });
    out.values.insert("core.persist_decode_ns", decode);

    let store = DiskCache::new(scratch.join("probe-store"), None);
    let write = min_secs(sizes.reps(20), || {
        if let Err(e) = store.store(&id, &report) {
            out.failures.push(format!("core.persist_store_us: {e}"));
        }
    });
    out.values.insert("core.persist_store_us", write * 1e6);
    let load = ns_per_call(sizes.reps(5), || {
        black_box(store.load(black_box(&id)));
    });
    out.values.insert("core.disk_hit_us", load / 1e3);
    // Best effort: the scratch directory is removed with the run anyway.
    let _ = std::fs::remove_dir_all(store.root());

    // The engine's own parallelism on the cheapest rung of fig-fault.
    let rung: Vec<Experiment> = fig_fault_cells(&options)
        .into_iter()
        .filter(|e| e.nprocs == first_rung)
        .collect();
    let time = |jobs: usize, failures: &mut Vec<String>| {
        min_secs(sizes.reps(2), || {
            if let Err(e) = SuiteEngine::with_jobs_and_disk(jobs, None).run_matrix(&rung) {
                failures.push(format!("core.jobs_speedup: {e}"));
            }
        })
    };
    let serial = time(1, &mut out.failures);
    let parallel = time(nproc(), &mut out.failures);
    out.values.insert("core.jobs_speedup", serial / parallel);
}

fn explorer_probes(seed: u64, sizes: Sizes, out: &mut ProbeOutcome) {
    let genome = TraceGenome::baseline(8, 12);
    let spec = genome.spec(RecoveryStrategy::Reinit);
    let trace = min_secs(sizes.reps(10), || {
        if let Err(e) = run_trace(&spec) {
            out.failures.push(format!("explorer.trace_ms: {e}"));
        }
    });
    out.values.insert("explorer.trace_ms", trace * 1e3);

    let topology = genome.topology();
    let mut rng = TestRng::deterministic("match-perf", seed as u32);
    let mutate = ns_per_call(sizes.reps(5), || {
        black_box(genome.mutate(&mut rng, &topology));
    });
    out.values.insert("explorer.mutate_ns", mutate);

    let artifact = include_str!("../../tests/fixtures/explore-repro.json");
    let replayed = min_secs(sizes.reps(5), || match replay::replay(artifact) {
        Ok(outcome) if outcome.verified() => {}
        Ok(outcome) => out
            .failures
            .push(format!("explorer.replay_ms: not verified: {outcome:?}")),
        Err(e) => out.failures.push(format!("explorer.replay_ms: {e}")),
    });
    out.values.insert("explorer.replay_ms", replayed * 1e3);

    let found = Explorer::new(ExploreConfig {
        nprocs: 8,
        iterations: 12,
        budget: 24,
        seed,
        corpus: None,
        assert_label: None,
    })
    .run();
    for v in &found.violations {
        out.failures.push(format!(
            "explorer probe violation: {} {:?}",
            v.strategy, v.property
        ));
    }
    out.values.insert(
        "explorer.sim_paths_found",
        found.report.all_paths().len() as f64,
    );
}

/// Runs every probe. `scratch` is a private directory for the store probes; `quick`
/// shrinks every size for the schema smoke test.
pub fn run_all(seed: u64, quick: bool, scratch: &std::path::Path) -> ProbeOutcome {
    let sizes = Sizes { quick };
    let mut out = ProbeOutcome::default();
    let mut stage = |name: &str, f: &dyn Fn(&mut ProbeOutcome)| {
        let began = Instant::now();
        f(&mut out);
        eprintln!("[probe] {name}: {:.2} s", began.elapsed().as_secs_f64());
    };
    stage("mpisim", &|out| mpisim_probes(seed, sizes, out));
    stage("fti", &|out| fti_probes(seed, sizes, out));
    stage("recovery", &|out| recovery_probes(seed, sizes, out));
    stage("proxies", &|out| proxies_probes(seed, sizes, out));
    stage("core", &|out| core_probes(seed, sizes, scratch, out));
    stage("explorer", &|out| explorer_probes(seed, sizes, out));
    out
}
