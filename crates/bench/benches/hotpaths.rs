//! Focused criterion benches for the flow's two hottest layers — the
//! regression gates of the hot-path overhaul (see ISSUE 1 / ROADMAP):
//!
//! * `assign_phases/*` — heuristic coordinate descent, T1-detected subjects;
//! * `enumerate_cuts/*` — 3-feasible cut enumeration on mapped networks.
//!
//! The IDs deliberately match `substrates.rs` (`assign_phases/adder32_t1`,
//! `enumerate_cuts/adder32`) so historical numbers stay comparable, with
//! additional sizes to expose scaling behaviour rather than a single point.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sfq_circuits as circuits;
use sfq_core::{assign_phases, detect_t1, insert_dffs, PhaseEngine};
use sfq_netlist::{enumerate_cuts, map_aig, CutConfig, Library};

fn bench_hotpaths(c: &mut Criterion) {
    let lib = Library::default();
    let cut_config = CutConfig::default();

    for bits in [32usize, 64] {
        let aig = circuits::adder(bits);
        c.bench_function(format!("map_aig/adder{bits}"), |b| {
            b.iter(|| map_aig(&aig, &lib))
        });
        let mapped = map_aig(&aig, &lib);
        c.bench_function(format!("enumerate_cuts/adder{bits}"), |b| {
            b.iter(|| enumerate_cuts(&mapped, &cut_config))
        });
        c.bench_function(format!("detect_t1/adder{bits}"), |b| {
            b.iter(|| detect_t1(&mapped, &lib, &cut_config))
        });

        let detected = detect_t1(&mapped, &lib, &cut_config).network;
        c.bench_function(format!("assign_phases/adder{bits}_t1"), |b| {
            b.iter(|| assign_phases(&detected, 4, PhaseEngine::Heuristic).expect("feasible"))
        });
    }

    // A multiplier is the cut-enumeration stress case: reconvergent
    // carry-save structure yields far more cut merges per node than the
    // linear adder chain.
    let mult_aig = circuits::multiplier(12);
    c.bench_function("map_aig/multiplier12", |b| {
        b.iter(|| map_aig(&mult_aig, &lib))
    });
    let mult = map_aig(&mult_aig, &lib);
    c.bench_function("enumerate_cuts/multiplier12", |b| {
        b.iter(|| enumerate_cuts(&mult, &cut_config))
    });
    c.bench_function("detect_t1/multiplier12", |b| {
        b.iter(|| detect_t1(&mult, &lib, &cut_config))
    });
    c.bench_function("cleaned/multiplier12", |b| b.iter(|| mult.cleaned()));
    let mult_det = detect_t1(&mult, &lib, &cut_config).network;
    c.bench_function("assign_phases/multiplier12_t1", |b| {
        b.iter(|| assign_phases(&mult_det, 4, PhaseEngine::Heuristic).expect("feasible"))
    });
    let mult_asg = assign_phases(&mult_det, 4, PhaseEngine::Heuristic).expect("feasible");
    c.bench_function("insert_dffs/multiplier12", |b| {
        b.iter(|| insert_dffs(&mult_det, &mult_asg, 4).expect("insertable"))
    });

    // Paper-scale log2: the Table I row where the back three stages are
    // nearly balanced (ROADMAP's perf targets). `enumerate_cuts`/`detect_t1`
    // gate the ISSUE 3 pruning/parallelism work; `assign_phases/log2_t1`
    // and `insert_dffs/log2` gate the ISSUE 4 timing-engine refactor of the
    // phase/dff stages. The same IDs measure the parallel paths whenever
    // `SFQ_WORKERS` (or the host) grants the fan-outs their break-even width.
    let log2_aig = circuits::log2_shift_add(32);
    let (log2, _) = map_aig(&log2_aig, &lib).cleaned();
    c.bench_function("enumerate_cuts/log2", |b| {
        b.iter(|| enumerate_cuts(&log2, &cut_config))
    });
    c.bench_function("detect_t1/log2", |b| {
        b.iter(|| detect_t1(&log2, &lib, &cut_config))
    });
    let log2_det = detect_t1(&log2, &lib, &cut_config).network;
    c.bench_function("assign_phases/log2_t1", |b| {
        b.iter(|| assign_phases(&log2_det, 4, PhaseEngine::Heuristic).expect("feasible"))
    });
    let log2_asg = assign_phases(&log2_det, 4, PhaseEngine::Heuristic).expect("feasible");
    c.bench_function("insert_dffs/log2", |b| {
        b.iter(|| insert_dffs(&log2_det, &log2_asg, 4).expect("insertable"))
    });

    // ISSUE 9 gates. `enumerate_cuts_frontier/log2` drives the
    // work-stealing frontier driver explicitly, with at least two workers,
    // so the gate measures the parallel scheduler even on hosts where the
    // `enumerate_cuts` dispatcher would fall back to the sequential path.
    let w = sfq_netlist::par::workers().max(2);
    c.bench_function("enumerate_cuts_frontier/log2", |b| {
        b.iter(|| sfq_netlist::enumerate_cuts_frontier(&log2, &cut_config, w))
    });
    // `detect_sort/log2` gates the chunked parallel sort + deterministic
    // k-way merge behind detect's match-record phase: synthetic records at
    // log2's cell volume under a duplicate-free key, sorted through the
    // same `par::sort_unstable_by_key` primitive detect calls.
    let recs: Vec<(u64, u32)> = (0..(log2.num_cells() as u32).saturating_mul(4))
        .map(|i| {
            let mut x = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 31;
            (x, i)
        })
        .collect();
    c.bench_function("detect_sort/log2", |b| {
        b.iter_batched(
            || recs.clone(),
            |mut v| {
                sfq_netlist::par::sort_unstable_by_key(&mut v, |r| *r);
                v
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(benches, bench_hotpaths);
criterion_main!(benches);
