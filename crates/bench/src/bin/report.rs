//! Prints `EXPERIMENTS.md`: every experiment table with the paper claim it
//! tests (deterministic — all numbers are virtual-time/metric quantities,
//! not wall time).
//!
//! Run with: `cargo run --release -p mar-bench --bin report > EXPERIMENTS.md`

fn main() {
    print!("{}", mar_bench::experiments::document());
}
