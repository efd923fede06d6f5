//! Experiment harness for the DAC 2024 T1-cell paper reproduction.
//!
//! Every table and figure in the paper's evaluation has a regeneration
//! entry point here:
//!
//! | artifact | regenerate with |
//! |---|---|
//! | Table I (8 benchmarks × {1φ, 4φ, T1}) | `cargo run -p sfq-bench --release --bin table1` |
//! | Fig. 1b (T1 waveform) | `cargo run -p sfq-bench --bin fig1b` |
//! | Fig. 1c (T1 full adder, 3 phases) | `cargo run --release --example t1_full_adder` |
//! | Ext-A: phase-count ablation | `cargo run -p sfq-bench --release --bin ablation_phases` |
//! | Ext-B: exact-vs-heuristic ablation | `cargo run -p sfq-bench --release --bin ablation_solver` |
//! | Ext-C: gain-threshold ablation | `cargo run -p sfq-bench --release --bin ablation_gain` |
//! | external-design corpus (aag/blif batch) | `cargo run -p sfq-bench --release --bin table_corpus` |
//! | flow runtimes | `cargo bench -p sfq-bench` |
//!
//! The [`paper`] module stores the published Table I numbers so binaries and
//! tests can report measured-vs-paper deltas; [`table`] runs the flows and
//! formats rows in the paper's layout. The `BENCH_flow.json` snapshot
//! schema and the perf-recording workflow are documented in this crate's
//! `README.md`.

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

pub mod corpus;
pub mod paper;
pub mod table;

pub use corpus::{format_corpus_table, load_corpus, run_corpus, CorpusError, CorpusRow};
pub use paper::{paper_row, PaperRow, PAPER_AVERAGES, PAPER_TABLE1};
pub use table::{format_table, run_row, run_row_with, run_table, Scale, TableRow};
