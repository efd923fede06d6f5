//! The Table I protocol (4φ baseline vs 4φ+T1) over the checked-in
//! external-design corpus — AIGER and BLIF files ingested through the
//! unified `sfq_netlist::design` frontend instead of the programmatic
//! generators, exercising the interchange path end to end.
//!
//! ```text
//! cargo run -p sfq-bench --release --bin table_corpus [-- <dir>]
//! ```
//!
//! Stdout carries only the deterministic table (CI diffs it against
//! `tests/golden/corpus_table.txt` at `SFQ_WORKERS=1` and
//! `SFQ_WORKERS=4`); progress goes to stderr.

use sfq_bench::corpus::{corpus_dir, format_corpus_table, run_corpus};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(corpus_dir);
    let start = Instant::now();
    let rows = run_corpus(&dir)?;
    eprintln!(
        "ran 2 flows × {} corpus designs from {} in {:.1?}",
        rows.len(),
        dir.display(),
        start.elapsed()
    );
    print!("{}", format_corpus_table(&rows));
    Ok(())
}
