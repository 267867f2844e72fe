//! Scaling study: regenerate the paper's scaling comparison (Figs. 5 and 7) for two of
//! the proxy applications on a laptop-sized process ladder and print the tables.
//!
//! The two figures and the findings run through one [`SuiteEngine`], so the findings
//! (which re-derive from the same with-failure matrix as Fig. 7) cost no additional
//! simulation — the engine line printed at the end shows the cache reuse.
//!
//! ```text
//! cargo run --example scaling_study
//! ```

use match_core::findings::Findings;
use match_core::matrix::MatrixOptions;
use match_core::proxies::ProxyKind;
use match_core::{Figure, SuiteEngine};

fn main() {
    let options = MatrixOptions::laptop()
        .with_apps(vec![ProxyKind::Hpccg, ProxyKind::MiniVite])
        .with_process_counts(vec![4, 8, 16]);
    let engine = SuiteEngine::new();

    let fig5 = Figure::Fig5
        .generate(&engine, &options)
        .expect("figure 5 matrix");
    println!("{}", fig5.render());

    let fig7 = Figure::Fig7
        .generate(&engine, &options)
        .expect("figure 7 matrix");
    println!("{}", fig7.render());

    let findings = Findings::from_figure(&fig7);
    println!("Findings at this (scaled-down) cluster size:");
    println!("{}", findings.to_table().render());

    let stats = engine.cache_stats();
    println!("[engine: jobs={}; cache: {stats}]", engine.jobs());
}
