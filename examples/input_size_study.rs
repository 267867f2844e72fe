//! Input-size study: regenerate the paper's input-problem-size comparison (Figs. 8 and
//! 10) for one application and print the tables.
//!
//! ```text
//! cargo run --example input_size_study
//! ```

use match_core::matrix::MatrixOptions;
use match_core::proxies::ProxyKind;
use match_core::{Figure, SuiteEngine};

fn main() {
    let options = MatrixOptions::laptop()
        .with_apps(vec![ProxyKind::MiniFe])
        .with_process_counts(vec![8]);
    let engine = SuiteEngine::new();

    let fig8 = Figure::Fig8
        .generate(&engine, &options)
        .expect("figure 8 matrix");
    println!("{}", fig8.render());

    let fig10 = Figure::Fig10
        .generate(&engine, &options)
        .expect("figure 10 matrix");
    println!("{}", fig10.render());

    println!("Note how the recovery time barely changes across input sizes while the");
    println!("application and checkpoint components grow — the paper's Fig. 9/10 observation.");
}
