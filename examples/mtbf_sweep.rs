//! MTBF sweep: how efficient do the three fault-tolerance designs stay as the node
//! failure rate rises — including correlated node crashes that destroy node-local
//! checkpoint storage and force the L1 → L2 → L4 fallback?
//!
//! Each cell runs the workload under a seeded MTBF-driven failure arrival process
//! (exponential inter-arrival draws scaled by node count) and reports efficiency =
//! failure-free time / with-failures time — the classic Daly-style reliability curve.
//! Re-running a rung is answered from the engine's result cache.
//!
//! ```text
//! cargo run --example mtbf_sweep
//! ```

use match_core::matrix::MatrixOptions;
use match_core::mtbf::{mtbf_sweep, MtbfSweepOptions};
use match_core::proxies::ProxyKind;
use match_core::SuiteEngine;

fn main() {
    let options = MatrixOptions::laptop().with_apps(vec![ProxyKind::Hpccg]);
    let engine = SuiteEngine::new();

    // Plain process kills first.
    let sweep_options =
        MtbfSweepOptions::from_matrix(&options).with_ladder(vec![1024, 256, 64, 16]);
    let sweep = mtbf_sweep(&engine, &sweep_options).expect("MTBF sweep");
    println!("{}", sweep.render());

    // The same ladder with a quarter of the events escalated to correlated node
    // crashes (and some of those cascading to the rack neighbour): recovery now has
    // to fall back down the checkpoint hierarchy.
    let correlated = sweep_options.with_correlation(25, 50);
    let sweep = mtbf_sweep(&engine, &correlated).expect("correlated sweep");
    println!("With correlated node crashes:");
    println!("{}", sweep.render());

    let stats = engine.cache_stats();
    println!("[engine: jobs={}; cache: {stats}]", engine.jobs());
}
