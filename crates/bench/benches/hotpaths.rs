//! Focused criterion benches for the flow's two hottest layers — the
//! regression gates of the hot-path overhaul (see ISSUE 1 / ROADMAP):
//!
//! * `assign_phases/*` — heuristic coordinate descent, T1-detected subjects
//!   (`assign_phases/log2_1phi`: the clean subject at one phase;
//!   `assign_phases/c7552_4_t1`: the exact MILP engine instead);
//! * `map_aig/*` — technology mapping (`map_aig/log2` at paper scale);
//! * `enumerate_cuts/*` — 3-feasible cut enumeration on mapped networks;
//! * `simulate/log2_1phi` — the equivalence check's multi-word simulation;
//! * `check_against_aig/c7552_4_t1` — the served pulse-level sweep.
//!
//! The IDs deliberately match `substrates.rs` (`assign_phases/adder32_t1`,
//! `enumerate_cuts/adder32`) so historical numbers stay comparable, with
//! additional sizes to expose scaling behaviour rather than a single point.

use criterion::{criterion_group, criterion_main, Criterion};
use sfq_circuits as circuits;
use sfq_core::{assign_phases, detect_t1, insert_dffs, run_flow, FlowConfig, PhaseEngine};
use sfq_netlist::{enumerate_cuts, map_aig, CutConfig, Library};
use sfq_sim::{check_against_aig, EquivConfig};

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
    // nearly balanced. `map_aig/log2` gates the mapper at paper scale, its
    // largest AIG; `enumerate_cuts/log2` and `detect_t1/log2` gate cut
    // enumeration and detection, which run on the calling thread at every
    // worker count; `assign_phases/log2_t1` and `insert_dffs/log2` gate the
    // timing-engine phase/dff stages, and `assign_phases/log2_1phi` the
    // baseline columns' phase path (the clean subject, no T1, n = 1).
    let log2_aig = circuits::log2_shift_add(32);
    c.bench_function("map_aig/log2", |b| b.iter(|| map_aig(&log2_aig, &lib)));
    let (log2, _) = map_aig(&log2_aig, &lib).cleaned();
    c.bench_function("enumerate_cuts/log2", |b| {
        b.iter(|| enumerate_cuts(&log2, &cut_config))
    });
    c.bench_function("detect_t1/log2", |b| {
        b.iter(|| detect_t1(&log2, &lib, &cut_config))
    });
    let log2_det = detect_t1(&log2, &lib, &cut_config).network;
    c.bench_function("assign_phases/log2_1phi", |b| {
        b.iter(|| assign_phases(&log2, 1, PhaseEngine::Heuristic).expect("feasible"))
    });
    c.bench_function("assign_phases/log2_t1", |b| {
        b.iter(|| assign_phases(&log2_det, 4, PhaseEngine::Heuristic).expect("feasible"))
    });
    let log2_asg = assign_phases(&log2_det, 4, PhaseEngine::Heuristic).expect("feasible");
    c.bench_function("insert_dffs/log2", |b| {
        b.iter(|| insert_dffs(&log2_det, &log2_asg, 4).expect("insertable"))
    });

    // The verify stage's simulation kernel: the flow's 4-word equivalence
    // check evaluates the timed network once across all words. The 1φ timed
    // log2 (~181k cells, mostly path-balancing DFFs) is its largest
    // network in Table I.
    let log2_1phi = run_flow(&log2_aig, &FlowConfig::single_phase())
        .expect("flow")
        .timed
        .network;
    let words = 4;
    let pats: Vec<u64> = (0..(words * log2_1phi.num_inputs()) as u64)
        .map(|i| i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    c.bench_function("simulate/log2_1phi", |b| {
        b.iter(|| log2_1phi.simulate_words(&pats, words))
    });

    // The served MILP: c7552 at 4 bits is the corpus's `c7552_mini`, small
    // enough that `PhaseEngine::Auto` takes the exact engine and runs branch
    // & bound to its 500-node limit — the gate is the simplex kernel at
    // work, one LP per node.
    let c7552_aig = circuits::c7552_sized(4);
    let (c7552, _) = map_aig(&c7552_aig, &lib).cleaned();
    let c7552_det = detect_t1(&c7552, &lib, &cut_config).network;
    c.bench_function("assign_phases/c7552_4_t1", |b| {
        b.iter(|| assign_phases(&c7552_det, 4, PhaseEngine::Auto).expect("feasible"))
    });

    // The served pulse-level sweep: every `verify=1` request co-simulates
    // `c7552_mini`'s timed network against its AIG over all 512 input
    // vectors, pipelined back to back — the gate for any `PulseSim` change.
    let c7552_timed = run_flow(&c7552_aig, &FlowConfig::t1(4))
        .expect("flow")
        .timed;
    c.bench_function("check_against_aig/c7552_4_t1", |b| {
        b.iter(|| {
            check_against_aig(&c7552_aig, &c7552_timed, &EquivConfig::default())
                .expect("equivalent")
        })
    });
}

criterion_group!(benches, bench_hotpaths);
criterion_main!(benches);
