//! The `match-perf` binary; see the library's `cli` module.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match_perf::cli::main_entry(&args));
}
