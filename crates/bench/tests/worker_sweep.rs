//! Determinism sweep over worker counts: the Table I (small scale) numbers
//! must be byte-identical for every worker count, and must match the
//! committed golden `tests/golden/table1_small.txt`. CI checks the same
//! contract from outside the process, diffing `table1 --small` against the
//! golden at `SFQ_WORKERS=1` and by default: parallelism is a scheduling
//! decision, never an observable one.

use sfq_bench::{format_table, run_row_with, Scale};
use sfq_circuits::Benchmark;
use sfq_netlist::{par, CutConfig};

fn table_text() -> String {
    let rows: Vec<_> = Benchmark::ALL
        .iter()
        .map(|&b| {
            run_row_with(b, Scale::Small, CutConfig::default())
                .expect("flows self-verify; failure is a real bug")
        })
        .collect();
    format_table(&rows)
}

#[test]
fn table1_small_is_worker_count_independent() {
    // Worker counts beyond the host's cores are deliberate oversubscription
    // (capped by par::MAX_WORKERS): single-core CI still exercises the
    // batch merges this way. One test fn owns the process-global
    // override, so there is no cross-test race to guard against.
    let reference = table_text();
    for w in [1usize, 2, 4, 8] {
        par::force_workers(w);
        let swept = table_text();
        par::force_workers(0);
        assert_eq!(reference, swept, "table1 --small drifted at {w} workers");
    }
    let golden = include_str!("../../../tests/golden/table1_small.txt");
    assert!(
        golden.contains(&reference),
        "golden table1_small.txt no longer embeds the measured table"
    );
}
