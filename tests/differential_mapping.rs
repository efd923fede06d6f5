//! Differential equivalence harness for the flow's hot-path overhauls
//! (map/detect/cleaned since ISSUE 2, cut enumeration since ISSUE 3,
//! phase/dff since ISSUE 4).
//!
//! Every optimized stage keeps its original implementation alive as an
//! executable specification ([`map_aig_reference`], [`detect_t1_reference`],
//! [`Network::cleaned_reference`], [`assign_phases_reference`],
//! [`insert_dffs_reference`]). This harness runs old vs. new across
//! every `sfq-circuits` benchmark generator (Table I set and the extended
//! set) and asserts:
//!
//! * **structural identity** — bit-identical networks: same cells in the
//!   same order, same kinds, same fanins, same outputs and names;
//! * **identical LUT counts** — `num_gates`/`num_t1`/`num_dffs` agree (a
//!   weaker, human-readable view of the same fact, asserted separately so a
//!   structural failure message still reports the aggregate drift);
//! * **identical T1 groups** — found/used counts and every committed group's
//!   leaves, polarity mask, roots, ports, gain and dead set;
//! * **identical timing** — bit-identical `StageAssignment`s from the
//!   timing-engine descent vs. the reference descent, and bit-identical
//!   `TimedNetwork`s (stages, phases, epochs, DFF counts, JJ area) from the
//!   planned emission vs. the reference insertion, plus a clean audit;
//! * **identical truth tables** — functional equivalence of every stage
//!   against the source AIG: exhaustive simulation for ≤ 10-input designs,
//!   sampled 64-bit vectors above.
//!
//! The fast tier (`build_small`) runs in the normal test pass; the paper-
//! scale tier is `#[ignore]`d and exercised by the CI `differential-slow`
//! job (`cargo test --release --test differential_mapping -- --ignored`).

use sfq_circuits::{Benchmark, ExtBenchmark};
use sfq_core::{
    assign_phases, assign_phases_reference, assign_phases_with_restarts, detect_t1,
    detect_t1_reference, insert_dffs, insert_dffs_reference, PhaseEngine, TimedNetwork,
};
use sfq_netlist::{
    enumerate_cuts, enumerate_cuts_sequential, map_aig, map_aig_reference, Aig, CutConfig, Library,
    Network,
};

/// Inputs at or below this count are simulated exhaustively.
const EXHAUSTIVE_INPUTS: usize = 10;
/// Sampled 64-bit vector words per input above the exhaustive bound.
const SAMPLE_WORDS: usize = 16;

/// Asserts two networks are bit-identical (cells, kinds, fanins, outputs,
/// names) — the strongest statement the differential harness makes.
fn assert_identical(name: &str, stage: &str, a: &Network, b: &Network) {
    assert_eq!(a.name(), b.name(), "{name}/{stage}: design name");
    assert_eq!(
        a.num_cells(),
        b.num_cells(),
        "{name}/{stage}: cell count (new {} vs reference {})",
        a.num_cells(),
        b.num_cells()
    );
    assert_eq!(a.num_gates(), b.num_gates(), "{name}/{stage}: LUT count");
    assert_eq!(a.num_t1(), b.num_t1(), "{name}/{stage}: T1 cell count");
    assert_eq!(a.num_dffs(), b.num_dffs(), "{name}/{stage}: DFF count");
    for id in a.cell_ids() {
        assert_eq!(a.kind(id), b.kind(id), "{name}/{stage}: kind of {id:?}");
        assert_eq!(
            a.fanins(id),
            b.fanins(id),
            "{name}/{stage}: fanins of {id:?}"
        );
    }
    assert_eq!(a.outputs(), b.outputs(), "{name}/{stage}: output signals");
    for k in 0..a.num_outputs() {
        assert_eq!(
            a.output_name(k),
            b.output_name(k),
            "{name}/{stage}: output name {k}"
        );
    }
    for k in 0..a.num_inputs() {
        assert_eq!(
            a.input_name(k),
            b.input_name(k),
            "{name}/{stage}: input name {k}"
        );
    }
}

/// Deterministic xorshift64* stream for the sampled tier.
fn rng_stream(mut seed: u64) -> impl FnMut() -> u64 {
    seed |= 1;
    move || {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Checks `net` computes the same function as `aig`: exhaustively when the
/// design has ≤ [`EXHAUSTIVE_INPUTS`] inputs, over sampled 64-bit vectors
/// otherwise.
fn assert_equivalent(name: &str, stage: &str, aig: &Aig, net: &Network) {
    let n = aig.num_inputs();
    assert_eq!(net.num_inputs(), n, "{name}/{stage}: input count");
    if n <= EXHAUSTIVE_INPUTS {
        // Exhaustive: all 2^n rows, 64 rows per simulation word.
        let rows = 1usize << n;
        let mut row = 0usize;
        while row < rows {
            let chunk = (rows - row).min(64);
            let patterns: Vec<u64> = (0..n)
                .map(|i| {
                    let mut w = 0u64;
                    for j in 0..chunk {
                        if (row + j) >> i & 1 == 1 {
                            w |= 1 << j;
                        }
                    }
                    w
                })
                .collect();
            let want = aig.simulate(&patterns);
            let got = net.simulate(&patterns);
            let mask = if chunk == 64 {
                u64::MAX
            } else {
                (1 << chunk) - 1
            };
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    w & mask,
                    g & mask,
                    "{name}/{stage}: output {k} differs on exhaustive rows {row}..{}",
                    row + chunk
                );
            }
            row += chunk;
        }
    } else {
        // Sampled: deterministic 64-bit vectors, seeded per design name so
        // failures reproduce.
        let seed = name.bytes().fold(0xDEAD_BEEFu64, |h, b| {
            h.wrapping_mul(31).wrapping_add(b as u64)
        });
        let mut next = rng_stream(seed);
        for round in 0..SAMPLE_WORDS {
            let patterns: Vec<u64> = (0..n).map(|_| next()).collect();
            let want = aig.simulate(&patterns);
            let got = net.simulate(&patterns);
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    w, g,
                    "{name}/{stage}: output {k} differs on sampled round {round}"
                );
            }
        }
    }
}

/// Asserts the dispatching [`enumerate_cuts`] agrees with the sequential
/// executable specification node-for-node. When the frontier's break-even
/// width is granted (a host delivering 3+ cores, or `SFQ_WORKERS` forced to
/// 3 or more) this A/Bs the work-stealing driver; otherwise it pins
/// determinism of the dispatch.
fn assert_cuts_match_sequential(name: &str, net: &Network, cut_config: &CutConfig) {
    let ab = enumerate_cuts(net, cut_config);
    let seq = enumerate_cuts_sequential(net, cut_config);
    assert_eq!(ab.total(), seq.total(), "{name}/cuts: total cut count");
    for id in net.cell_ids() {
        assert_eq!(ab.of(id), seq.of(id), "{name}/cuts: cut set of {id:?}");
    }
}

/// The full old-vs-new pipeline comparison for one AIG.
fn check_design(name: &str, aig: &Aig) {
    let lib = Library::default();
    let cut_config = CutConfig::default();

    // ---- map ----
    let mapped_new = map_aig(aig, &lib);
    let mapped_old = map_aig_reference(aig, &lib);
    assert_identical(name, "map", &mapped_new, &mapped_old);
    assert_equivalent(name, "map", aig, &mapped_new);

    // ---- cleaned ----
    let (clean_new, removed_new) = mapped_new.cleaned();
    let (clean_old, removed_old) = mapped_new.cleaned_reference();
    assert_eq!(removed_new, removed_old, "{name}/cleaned: removed count");
    assert_identical(name, "cleaned", &clean_new, &clean_old);
    assert_equivalent(name, "cleaned", aig, &clean_new);

    // ---- cuts (parallel vs sequential enumeration) ----
    assert_cuts_match_sequential(name, &clean_new, &cut_config);

    // ---- detect ----
    let det_new = detect_t1(&clean_new, &lib, &cut_config);
    let det_old = detect_t1_reference(&clean_new, &lib, &cut_config);
    assert_eq!(det_new.found, det_old.found, "{name}/detect: found");
    assert_eq!(det_new.used, det_old.used, "{name}/detect: used");
    assert_eq!(
        det_new.groups.len(),
        det_old.groups.len(),
        "{name}/detect: committed group count"
    );
    for (i, (gn, go)) in det_new.groups.iter().zip(&det_old.groups).enumerate() {
        assert_eq!(gn.leaves, go.leaves, "{name}/detect: group {i} leaves");
        assert_eq!(
            gn.input_mask, go.input_mask,
            "{name}/detect: group {i} mask"
        );
        assert_eq!(gn.roots, go.roots, "{name}/detect: group {i} roots");
        assert_eq!(
            gn.used_ports, go.used_ports,
            "{name}/detect: group {i} ports"
        );
        assert_eq!(gn.gain, go.gain, "{name}/detect: group {i} gain");
        assert_eq!(gn.dead, go.dead, "{name}/detect: group {i} dead set");
    }
    assert_identical(name, "detect", &det_new.network, &det_old.network);
    assert_equivalent(name, "detect", aig, &det_new.network);

    // ---- phase (timing engine vs reference descent) ----
    let subject = &det_new.network;
    let n = 4u8;
    let asg_eng = assign_phases(subject, n, PhaseEngine::Heuristic).expect("engine feasible");
    let asg_ref =
        assign_phases_reference(subject, n, PhaseEngine::Heuristic).expect("reference feasible");
    assert_eq!(
        asg_eng, asg_ref,
        "{name}/phase: engine vs reference StageAssignment"
    );

    // ---- dff (planned emission vs reference insertion) ----
    let timed_eng = insert_dffs(subject, &asg_eng, n).expect("engine insertable");
    let timed_ref = insert_dffs_reference(subject, &asg_eng, n).expect("reference insertable");
    assert_timed_identical(name, &timed_eng, &timed_ref);
    timed_eng
        .audit()
        .unwrap_or_else(|e| panic!("{name}/dff: engine-emitted network failed the audit: {e}"));
    assert_equivalent(name, "dff", aig, &timed_eng.network);
}

/// Asserts two timed networks are bit-identical: the underlying networks,
/// the per-cell stage vector (hence every phase `σ mod n` and epoch
/// `σ div n`), the common output stage, the DFF count and the JJ area.
fn assert_timed_identical(name: &str, a: &TimedNetwork, b: &TimedNetwork) {
    assert_identical(name, "dff", &a.network, &b.network);
    assert_eq!(a.stages, b.stages, "{name}/dff: per-cell stage vector");
    assert_eq!(a.num_phases, b.num_phases, "{name}/dff: phase count");
    assert_eq!(a.output_stage, b.output_stage, "{name}/dff: output stage");
    for id in a.network.cell_ids() {
        assert_eq!(a.phase(id), b.phase(id), "{name}/dff: phase of {id:?}");
        assert_eq!(a.epoch(id), b.epoch(id), "{name}/dff: epoch of {id:?}");
    }
    assert_eq!(a.num_dffs(), b.num_dffs(), "{name}/dff: inserted DFF count");
    let lib = Library::default();
    assert_eq!(a.area(&lib), b.area(&lib), "{name}/dff: JJ area");
    assert_eq!(
        a.depth_cycles(),
        b.depth_cycles(),
        "{name}/dff: depth in cycles"
    );
}

#[test]
fn differential_table1_benchmarks_small() {
    for b in Benchmark::ALL {
        check_design(b.name(), &b.build_small());
    }
}

#[test]
fn differential_extended_benchmarks_small() {
    for b in ExtBenchmark::ALL {
        check_design(b.name(), &b.build_small());
    }
}

/// Paper-scale tier: minutes, not seconds — run by the CI `differential-slow`
/// job and by hand before shipping mapper/detector changes:
/// `cargo test --release --test differential_mapping -- --ignored`.
#[test]
#[ignore = "paper-scale differential sweep; run explicitly or in the slow CI job"]
fn differential_table1_benchmarks_paper_scale() {
    for b in Benchmark::ALL {
        check_design(b.name(), &b.build());
    }
}

/// Serializes the tests that install the process-global `force_workers`
/// override, so one test's forced count can never bleed into another's
/// measurement window. Lock poisoning is ignored — a panicking test already
/// failed; the next one still needs the lock.
fn worker_override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Parallel-path tier: forces four scoped workers (even on single-core
/// hosts, via `sfq_netlist::par::force_workers` — an atomic, not
/// `std::env::set_var`, which would race against concurrent `getenv` from
/// sibling test threads) and re-runs the full differential sweep, so the
/// work-stealing cut enumeration and the detect fan-outs are A/B-checked
/// against the sequential specifications on every host.
#[test]
fn differential_forced_parallel_workers() {
    let _guard = worker_override_lock();
    sfq_netlist::par::force_workers(4);
    for b in Benchmark::ALL {
        check_design(b.name(), &b.build_small());
    }
    sfq_netlist::par::force_workers(0);
}

/// Multi-restart descent tier: the restart merge must be bit-identical for
/// any worker count (the perturbation stream depends only on the restart
/// index, and the merge picks the smallest `(cost, index)`), restart count 1
/// must equal the plain single descent, and extra restarts must never make
/// the result worse. Exercised with the worker override held under
/// [`worker_override_lock`] so the sequential arm really runs the
/// sequential loop, and the forced-4 arm exercises the restart fan-out
/// through `sfq_netlist::par::map_ordered`.
#[test]
fn differential_multi_restart_determinism() {
    let _guard = worker_override_lock();
    let lib = Library::default();
    let cut_config = CutConfig::default();
    const RESTARTS: usize = 5;
    for b in [Benchmark::Adder, Benchmark::Square, Benchmark::Multiplier] {
        let name = b.name();
        let aig = b.build_small();
        let (mapped, _) = map_aig(&aig, &lib).cleaned();
        let subject = detect_t1(&mapped, &lib, &cut_config).network;

        let single = assign_phases(&subject, 4, PhaseEngine::Heuristic).expect("feasible");
        sfq_netlist::par::force_workers(1);
        let seq =
            assign_phases_with_restarts(&subject, 4, PhaseEngine::Heuristic, RESTARTS).unwrap();
        sfq_netlist::par::force_workers(4);
        let par =
            assign_phases_with_restarts(&subject, 4, PhaseEngine::Heuristic, RESTARTS).unwrap();
        let one = assign_phases_with_restarts(&subject, 4, PhaseEngine::Heuristic, 1).unwrap();
        sfq_netlist::par::force_workers(0);

        assert_eq!(seq, par, "{name}: restart merge depends on worker count");
        assert_eq!(one, single, "{name}: restarts=1 must be the plain descent");
        let d_single = insert_dffs(&subject, &single, 4).unwrap().num_dffs();
        let d_multi = insert_dffs(&subject, &par, 4).unwrap().num_dffs();
        assert!(
            d_multi <= d_single,
            "{name}: multi-restart made the result worse ({d_multi} > {d_single} DFFs)"
        );
    }
}

/// The flow's default is the single plain descent: every `FlowConfig`
/// constructor carries `restarts: 1`, and `FlowConfig::t1(4)` produces a
/// result byte-identical to an explicit `restarts: 1` flow at every forced
/// worker count. Opt-in multi-restart search (`restarts: 4` and `8`) must
/// never give more DFFs or more area than the single descent: restart 0 is
/// the unperturbed plain descent and the merge keeps the smallest `(cost,
/// index)`, so extra restarts can only improve — however many workers run
/// them.
#[test]
fn default_restarts_never_worse_than_single() {
    use sfq_core::{run_flow, FlowConfig};
    let _guard = worker_override_lock();
    for cfg in [
        FlowConfig::single_phase(),
        FlowConfig::multiphase(4),
        FlowConfig::t1(4),
    ] {
        assert_eq!(cfg.restarts, 1, "the default is the single descent");
    }
    for b in [Benchmark::Adder, Benchmark::Square, Benchmark::Multiplier] {
        let name = b.name();
        let aig = b.build_small();
        let with_restarts = |restarts: usize| {
            let cfg = FlowConfig {
                restarts,
                ..FlowConfig::t1(4)
            };
            run_flow(&aig, &cfg).expect("flow")
        };
        for workers in [1usize, 4, 8] {
            sfq_netlist::par::force_workers(workers);
            let default = run_flow(&aig, &FlowConfig::t1(4)).expect("default flow");
            let single = with_restarts(1);
            let multi = [4usize, 8].map(|r| (r, with_restarts(r)));
            sfq_netlist::par::force_workers(0);

            let stage = format!("default vs restarts=1 at {workers} workers");
            assert_identical(name, &stage, &default.timed.network, &single.timed.network);
            assert_eq!(default.timed.stages, single.timed.stages, "{name}: {stage}");
            assert_eq!(default.report, single.report, "{name}: {stage}");
            for (restarts, m) in multi {
                assert!(
                    m.report.num_dffs <= single.report.num_dffs,
                    "{name}: restarts={restarts} worsened DFFs at {workers} workers \
                     ({} > {})",
                    m.report.num_dffs,
                    single.report.num_dffs
                );
                assert!(
                    m.report.area <= single.report.area,
                    "{name}: restarts={restarts} worsened area at {workers} workers \
                     ({} > {})",
                    m.report.area,
                    single.report.area
                );
            }
        }
    }
}

/// Degenerate corner: an AIG whose outputs include constants and repeated
/// literals exercises the mapper's constant materialization and shared-INV
/// paths in both implementations.
#[test]
fn differential_degenerate_outputs() {
    let mut aig = Aig::new("degenerate");
    let a = aig.input("a");
    let b = aig.input("b");
    let x = aig.xor(a, b);
    aig.output("zero", aig.const_false());
    aig.output("one", aig.const_true());
    aig.output("x", x);
    aig.output("x_again", x);
    aig.output("not_x", !x);
    aig.output("a_pass", a);
    aig.output("na", !a);
    check_design("degenerate", &aig);
}
