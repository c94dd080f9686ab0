//! Prints the all-kinds result golden: a header line, then
//! `<SimCell::key> <digest>` for every registry kind × widths 2/4/8 ×
//! the suite, N = 5 000, seed 42 (see [`ballerino_bench::golden_text`]).
//!
//! This is the only way to re-bless `crates/bench/golden/all_kinds.txt`,
//! which the `golden_all_kinds` test checks:
//!
//! ```sh
//! cargo run --release -p ballerino-bench --bin cycles_dump > crates/bench/golden/all_kinds.txt
//! ```
//!
//! Honors `BALLERINO_THREADS`; the output is identical at any thread
//! count.

fn main() {
    print!(
        "{}",
        ballerino_bench::golden_text(ballerino_bench::threads())
    );
}
