//! Regression tests for the per-node cut budget ([`CutConfig::max_cuts`]).
//!
//! The budget is a *pruning* knob: 3-feasible nodes rarely carry more than
//! a handful of surviving cuts, so the default budget of 24 is headroom,
//! not a load-bearing constant. These tests pin that down:
//!
//! * lowering the budget to 16 or 12 must leave every number of
//!   `table1 --small` unchanged (checked against both an in-process default
//!   run and the committed golden file `tests/golden/table1_small.txt`);
//! * the subset property itself (budgeted cut sets ⊆ unbudgeted ones) is a
//!   netlist proptest, `prop_cut_budget_prunes_to_subset`.

use sfq_bench::{format_table, run_row_with, Scale};
use sfq_circuits::Benchmark;
use sfq_netlist::CutConfig;

fn table_text(max_cuts: usize) -> String {
    let rows: Vec<_> = Benchmark::ALL
        .iter()
        .map(|&b| {
            run_row_with(b, Scale::Small, CutConfig { max_cuts })
                .expect("flows self-verify; failure is a real bug")
        })
        .collect();
    format_table(&rows)
}

#[test]
fn lowering_cut_budget_preserves_table1_small() {
    let reference = table_text(24);
    for budget in [16usize, 12] {
        let tightened = table_text(budget);
        assert_eq!(
            reference, tightened,
            "max_cuts = {budget} changed Table I (small scale)"
        );
    }
    // Golden-diff: the committed table1 --small transcript embeds the same
    // formatted table, so the tightened-budget output also matches the
    // golden file, not just this process's own reference run.
    let golden = include_str!("../../../tests/golden/table1_small.txt");
    assert!(
        golden.contains(&reference),
        "golden table1_small.txt no longer embeds the measured table"
    );
}
