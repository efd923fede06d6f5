//! Determinism sweep over worker counts: the corpus batch and verify
//! tables must reproduce their committed goldens byte for byte at every
//! worker count 1, 2, 4 and 8 — the same contract the CI jobs check via
//! `SFQ_WORKERS` across release builds, here exercised in-process through
//! the `force_workers` hook (worker counts beyond the host's cores are
//! deliberate oversubscription, which is how single-core CI still drives
//! the batch merges).
//!
//! Everything lives in one test fn: the worker override is process-global,
//! and a single owner needs no locking against parallel test threads.

use sfq_cli::run;
use sfq_netlist::par;

fn run_to_string(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&argv, &mut out).expect("every corpus design passes");
    String::from_utf8(out).expect("utf-8 output")
}

/// Drops the preamble line (`batch: N designs ...`), matching the CI diff:
/// rows and the summary are the golden-checked content.
fn rows(text: &str) -> Vec<&str> {
    text.lines().skip(1).collect()
}

#[test]
fn corpus_goldens_are_worker_count_independent() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/corpus");
    let batch_golden = include_str!("../../../tests/golden/corpus_batch.txt");
    let verify_golden = include_str!("../../../tests/golden/corpus_verify.txt");

    for w in [1usize, 2, 4, 8] {
        par::force_workers(w);
        let batch = run_to_string(&["flow", "--batch", corpus, "--t1"]);
        let verify = run_to_string(&["verify", "--batch", corpus]);
        par::force_workers(0);
        assert_eq!(
            rows(&batch),
            rows(batch_golden),
            "corpus_batch.txt drifted at {w} workers"
        );
        assert_eq!(
            verify, verify_golden,
            "corpus_verify.txt drifted at {w} workers"
        );
    }
}
