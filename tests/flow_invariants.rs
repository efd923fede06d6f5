//! End-to-end flow invariants across the whole benchmark suite (scaled-down
//! instances): every flow must audit cleanly and preserve function, and the
//! Table I trends the paper reports must hold in shape.

use sfq_t1::prelude::*;

/// Runs the three Table I flows on one AIG.
fn three_flows(aig: &sfq_t1::netlist::Aig) -> [FlowReport; 3] {
    let r1 = run_flow(aig, &FlowConfig::single_phase())
        .expect("1φ flow")
        .report;
    let r4 = run_flow(aig, &FlowConfig::multiphase(4))
        .expect("4φ flow")
        .report;
    let rt = run_flow(aig, &FlowConfig::t1(4)).expect("T1 flow").report;
    [r1, r4, rt]
}

#[test]
fn all_benchmarks_pass_all_flows_small() {
    for bench in Benchmark::ALL {
        let aig = bench.build_small();
        // run_flow audits and equivalence-checks internally; reaching here
        // means the flow is structurally and functionally sound.
        let [r1, r4, rt] = three_flows(&aig);

        // Multiphase clocking always reduces path-balancing DFFs vs 1φ
        // (the ASP-DAC'24 result the paper builds on).
        assert!(
            r4.num_dffs < r1.num_dffs,
            "{}: 4φ must beat 1φ on DFFs ({} vs {})",
            bench.name(),
            r4.num_dffs,
            r1.num_dffs
        );
        assert!(
            r4.area < r1.area,
            "{}: 4φ must beat 1φ on area ({} vs {})",
            bench.name(),
            r4.area,
            r1.area
        );
        // T1 commits only if it helps; the T1 flow can never be *worse*
        // than 1φ on area.
        assert!(
            rt.area < r1.area,
            "{}: T1 must beat 1φ on area ({} vs {})",
            bench.name(),
            rt.area,
            r1.area
        );
        // Depth in cycles shrinks with multiphase clocking vs 1φ.
        assert!(
            rt.depth_cycles <= r1.depth_cycles,
            "{}: T1 depth {} vs 1φ depth {}",
            bench.name(),
            rt.depth_cycles,
            r1.depth_cycles
        );
    }
}

#[test]
fn fa_rich_benchmarks_commit_t1_cells() {
    // The paper's found/used columns are non-zero on every row; the
    // FA-dominated designs commit nearly everything they find.
    for bench in [
        Benchmark::Adder,
        Benchmark::C6288,
        Benchmark::Voter,
        Benchmark::Square,
        Benchmark::Multiplier,
    ] {
        let aig = bench.build_small();
        let rt = run_flow(&aig, &FlowConfig::t1(4)).expect("T1 flow").report;
        assert!(rt.t1_found > 0, "{}: no T1 candidates found", bench.name());
        assert!(rt.t1_used > 0, "{}: no T1 cells committed", bench.name());
        assert!(rt.t1_used <= rt.t1_found, "{}: used > found", bench.name());
    }
}

#[test]
fn adder_shows_the_paper_headline_shape() {
    // Paper: the adder is the showcase — almost every FA becomes a T1 cell
    // and area drops 25 % vs 4φ (80 % vs 1φ).
    let bits = 32;
    let aig = sfq_t1::circuits::adder(bits);
    let [r1, r4, rt] = three_flows(&aig);

    // One T1 per full adder along the ripple chain; the greedy
    // non-overlapping commit may sacrifice one group where the carry-chain
    // MFFCs contend (paper: 127 of 127 on their 128-bit netlist; ours
    // typically commits bits−2 of bits−1 found).
    assert!(
        rt.t1_used >= bits - 2,
        "nearly one T1 per ripple FA, got {}",
        rt.t1_used
    );

    let vs1 = rt.area as f64 / r1.area as f64;
    let vs4 = rt.area as f64 / r4.area as f64;
    assert!(vs1 < 0.55, "T1 vs 1φ area ratio {vs1:.2} (paper: 0.20)");
    assert!(vs4 < 1.00, "T1 vs 4φ area ratio {vs4:.2} (paper: 0.75)");

    // Depth. The ripple carry must cross one T1 stage per bit, and the first
    // T1 cannot fire before stage 3 (eq. 3), so σ_out ≥ bits + 2.
    let structural_floor = (bits as u32 + 2).div_ceil(4);
    assert!(
        rt.depth_cycles >= structural_floor,
        "T1 depth {} below the carry-chain floor {structural_floor}",
        rt.depth_cycles
    );
    // Known deviation from the paper (EXPERIMENTS.md): the paper's baseline
    // netlist advances the ripple carry one *cell* per bit (their 1φ depth =
    // 128 on the 128-bit adder), so T1 ordering stages cost it depth
    // (32 → 33 cycles). Our baseline decomposes the carry into two 2-input
    // levels per bit, so collapsing an FA into one T1 cell *shortens* the
    // critical path instead of stretching it. Pin that behaviour here.
    assert!(
        rt.depth_cycles <= r4.depth_cycles,
        "on a 2-input-decomposed ripple baseline the T1 flow shortens the \
         carry path ({} vs 4φ {})",
        rt.depth_cycles,
        r4.depth_cycles
    );
}

#[test]
fn single_phase_flow_equals_classic_path_balancing() {
    // With n = 1 every edge must span exactly one stage, so the DFF count
    // is the classic ∑(level differences) bound.
    let aig = sfq_t1::circuits::adder(8);
    let result = run_flow(&aig, &FlowConfig::single_phase()).expect("1φ flow");
    let timed = &result.timed;
    // Every non-input cell at stage = level; POs aligned at max level.
    let net = &timed.network;
    let levels = net.levels();
    for id in net.cell_ids() {
        if net.kind(id).is_clocked() {
            assert_eq!(
                timed.stage(id),
                levels[id.0 as usize],
                "1φ stages are exactly the levelization"
            );
        }
    }
}

#[test]
fn t1_flow_depth_stays_in_a_bounded_envelope_of_multiphase() {
    // Paper Table I observes depth ratios vs 4φ of 1.00–1.25 on its rows.
    // That direction is *not* a structural invariant of the method: a T1
    // cell replaces a cone of up to two mapped levels while advancing its
    // latest fanin by exactly one stage (eq. 3), so on a baseline whose FA
    // cones are decomposed into 2-input gates the T1 flow can shorten
    // critical paths by up to ~2× — and does, on our ripple adders (see
    // EXPERIMENTS.md, deviation note). What must hold on both sides:
    //
    // * lower: the T1 flow can never beat the 2× cone compression, so
    //   `depth(T1) ≥ ⌈depth(4φ)/2⌉ − 1`;
    // * upper: the paper's ≈1.25× penalty envelope, with rounding slack.
    for bench in [Benchmark::Adder, Benchmark::C6288, Benchmark::Voter] {
        let aig = bench.build_small();
        let r4 = run_flow(&aig, &FlowConfig::multiphase(4))
            .expect("4φ")
            .report;
        let rt = run_flow(&aig, &FlowConfig::t1(4)).expect("T1").report;
        assert!(
            rt.depth_cycles + 1 >= r4.depth_cycles.div_ceil(2),
            "{}: T1 depth {} collapsed below half the 4φ depth {}",
            bench.name(),
            rt.depth_cycles,
            r4.depth_cycles
        );
        assert!(
            rt.depth_cycles <= r4.depth_cycles * 3 / 2 + 1,
            "{}: T1 depth {} blew past the paper's ≈1.25× envelope over {}",
            bench.name(),
            rt.depth_cycles,
            r4.depth_cycles
        );
    }
}

#[test]
fn gain_threshold_monotonically_prunes_candidates() {
    let aig = sfq_t1::circuits::multiplier(6);
    let mut last_found = usize::MAX;
    let mut last_used = usize::MAX;
    for theta in [0i64, 15, 40, 1_000_000] {
        let mut config = FlowConfig::t1(4);
        config.gain_threshold = theta;
        let r = run_flow(&aig, &config).expect("flow").report;
        assert!(r.t1_found <= last_found, "found count rises with θ={theta}");
        assert!(r.t1_used <= last_used, "used count rises with θ={theta}");
        last_found = r.t1_found;
        last_used = r.t1_used;
    }
    assert_eq!(last_used, 0, "θ=∞ recovers the plain 4φ flow");
}

#[test]
fn phase_count_sweep_reduces_dffs() {
    // More phases ⇒ longer pulse lifetime in stages ⇒ fewer balancing DFFs
    // (the multiphase premise the paper builds on).
    let aig = sfq_t1::circuits::adder(16);
    let mut prev = usize::MAX;
    for n in [1u8, 2, 4, 8] {
        let r = run_flow(&aig, &FlowConfig::multiphase(n))
            .expect("flow")
            .report;
        assert!(
            r.num_dffs <= prev,
            "n={n}: DFFs {} should not exceed n/2's {prev}",
            r.num_dffs
        );
        prev = r.num_dffs;
    }
}

#[test]
fn t1_needs_at_least_four_phases() {
    // Three distinct arrival slots + the firing slot don't fit in n < 4
    // within one period window [σ−(n−1), σ−1].
    let aig = sfq_t1::circuits::adder(8);
    for n in [2u8, 3] {
        let r = run_flow(&aig, &FlowConfig::t1(n)).expect("flow").report;
        assert_eq!(r.t1_used, 0, "n={n} cannot host a T1 cell");
    }
    let r4 = run_flow(&aig, &FlowConfig::t1(4)).expect("flow").report;
    assert!(r4.t1_used > 0, "n=4 hosts T1 cells");
}

/// Asserts that `run_flow(aig, c)` and `run_flow_on_network` over the same
/// mapped network produce the same report and a bit-identical timed network
/// (kinds, fanins, stages, outputs) — the two entry points differ only in what
/// they keep alive, never in what they compute.
fn assert_entry_points_agree(name: &str, aig: &sfq_t1::netlist::Aig) {
    for (column, config) in [
        ("1phi", FlowConfig::single_phase()),
        ("4phi", FlowConfig::multiphase(4)),
        ("t1", FlowConfig::t1(4)),
    ] {
        let from_aig = run_flow(aig, &config).expect("flow from the AIG");
        let mapped = map_aig(aig, &config.library);
        let from_net = run_flow_on_network(&mapped, &config).expect("flow from the network");
        assert_eq!(from_aig.report, from_net.report, "{name}/{column}: report");
        let (a, b) = (&from_aig.timed, &from_net.timed);
        assert_eq!(a.stages, b.stages, "{name}/{column}: stages");
        assert_eq!(a.output_stage, b.output_stage, "{name}/{column}");
        let (na, nb) = (&a.network, &b.network);
        assert_eq!(na.num_cells(), nb.num_cells(), "{name}/{column}: cells");
        for id in na.cell_ids() {
            assert_eq!(na.kind(id), nb.kind(id), "{name}/{column}: kind of {id:?}");
            assert_eq!(
                na.fanins(id),
                nb.fanins(id),
                "{name}/{column}: fanins of {id:?}"
            );
        }
        assert_eq!(na.outputs(), nb.outputs(), "{name}/{column}: outputs");
    }
}

#[test]
fn run_flow_equals_run_flow_on_the_mapped_network() {
    use sfq_t1::circuits::ExtBenchmark;
    use sfq_t1::netlist::design::Design;

    for bench in Benchmark::ALL {
        assert_entry_points_agree(bench.name(), &bench.build_small());
    }
    for bench in ExtBenchmark::ALL {
        assert_entry_points_agree(bench.name(), &bench.build_small());
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 7, "the checked-in corpus has 7 designs");
    for path in &files {
        let design = Design::read(path).expect("corpus design parses");
        assert_entry_points_agree(&path.display().to_string(), &design.aig);
    }
}
