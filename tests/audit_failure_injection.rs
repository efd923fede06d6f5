//! Failure injection: corrupt verified flow artifacts and assert that the
//! structural audit and the pulse simulator both refuse them.
//!
//! The flow's safety story is defense in depth — `TimedNetwork::audit`
//! re-checks every timing rule from scratch, and the pulse simulator turns
//! any surviving violation into a `Hazard`. These tests prove the checkers
//! actually fire (a checker that never rejects anything would pass every
//! other test in the suite).

use sfq_t1::core::{TimedNetwork, TimingError};
use sfq_t1::netlist::{CellId, CellKind, GateKind, Network, Signal, T1Port};
use sfq_t1::prelude::*;
use sfq_t1::sim::{Hazard, PulseSim};

/// A verified T1 flow on one full adder (the smallest T1-committing design).
fn t1_full_adder() -> TimedNetwork {
    let mut aig = sfq_t1::netlist::Aig::new("fa");
    let a = aig.input("a");
    let b = aig.input("b");
    let c = aig.input("c");
    let (s, co) = aig.full_adder(a, b, c);
    aig.output("s", s);
    aig.output("co", co);
    let res = run_flow(&aig, &FlowConfig::t1(4)).expect("flow");
    assert!(res.report.t1_used >= 1, "FA commits a T1 cell");
    res.timed.audit().expect("flow artifacts audit cleanly");
    res.timed
}

/// The id and sorted fanin stages of the first T1 cell.
fn first_t1(timed: &TimedNetwork) -> (sfq_t1::netlist::CellId, Vec<(u32, u32)>) {
    let net = &timed.network;
    let t1 = net
        .cell_ids()
        .find(|&id| matches!(net.kind(id), CellKind::T1 { .. }))
        .expect("a T1 cell exists");
    let mut fanins: Vec<(u32, u32)> = net
        .fanins(t1)
        .iter()
        .map(|f| (f.cell.0, timed.stages[f.cell.0 as usize]))
        .collect();
    fanins.sort_by_key(|&(_, s)| s);
    (t1, fanins)
}

#[test]
fn audit_rejects_input_off_stage_zero() {
    let mut timed = t1_full_adder();
    let pi = timed.network.inputs()[0];
    timed.stages[pi.0 as usize] = 1;
    assert!(
        matches!(timed.audit(), Err(TimingError::InputNotAtZero { cell }) if cell == pi),
        "moved primary input must be rejected"
    );
}

#[test]
fn audit_rejects_non_causal_edges() {
    let mut timed = t1_full_adder();
    // Pull some clocked cell to stage 0: every fanin edge becomes ≥-stage.
    let victim = timed
        .network
        .cell_ids()
        .find(|&id| timed.network.kind(id).is_clocked() && timed.stages[id.0 as usize] > 0)
        .expect("a clocked cell");
    timed.stages[victim.0 as usize] = 0;
    match timed.audit() {
        Err(TimingError::NonCausalEdge { to, to_stage, .. }) => {
            assert_eq!(to, victim);
            assert_eq!(to_stage, 0);
        }
        other => panic!("expected NonCausalEdge, got {other:?}"),
    }
}

#[test]
fn audit_rejects_t1_arrival_collisions() {
    let mut timed = t1_full_adder();
    let (_, fanins) = first_t1(&timed);
    // Clone the middle arrival stage onto the latest fanin. The latest two
    // fanins are DFF-resynchronized (a primary input can serve at most the
    // earliest slot), so lowering one DFF keeps every edge span legal and
    // the *only* new violation is the eq. 5 distinctness rule.
    let (latest_cell, _) = fanins[2];
    let (_, second_stage) = fanins[1];
    timed.stages[latest_cell as usize] = second_stage;
    match timed.audit() {
        Err(TimingError::T1ArrivalCollision { stage, .. }) => {
            assert_eq!(stage, second_stage);
        }
        other => panic!("expected T1ArrivalCollision, got {other:?}"),
    }
}

#[test]
fn audit_rejects_t1_arrival_outside_window() {
    let mut timed = t1_full_adder();
    let (t1, fanins) = first_t1(&timed);
    // Delay the T1 cell itself until its earliest arrival (the stage-0
    // primary input of the FA) falls out of the `[σ−(n−1), σ−1]` window.
    // Fanin edges stay causal, so the window rule is the first to fire.
    let (_, earliest_stage) = fanins[0];
    timed.stages[t1.0 as usize] = earliest_stage + timed.num_phases as u32;
    match timed.audit() {
        Err(TimingError::T1ArrivalOutsideWindow {
            t1: cell,
            fanin_stage,
            ..
        }) => {
            assert_eq!(cell, t1);
            assert_eq!(fanin_stage, earliest_stage);
        }
        other => panic!("expected T1ArrivalOutsideWindow, got {other:?}"),
    }
}

#[test]
fn audit_rejects_misaligned_outputs() {
    let mut timed = t1_full_adder();
    timed.output_stage += 1;
    assert!(
        matches!(timed.audit(), Err(TimingError::OutputMisaligned { .. })),
        "all PO drivers now fire one stage early"
    );
}

#[test]
fn audit_rejects_pulse_lifetime_violations() {
    // Hand-build the minimal over-span netlist: PI → BUF(σ=1) → BUF(σ=7)
    // under n = 4 (span 6 > 4). No T1 involved, so the lifetime rule is the
    // only applicable one.
    let mut net = Network::new("overspan");
    let a = net.add_input("a");
    let u = net.add_gate(GateKind::Buf, &[a]);
    let v = net.add_gate(GateKind::Buf, &[u]);
    net.add_output("y", v);
    let timed = TimedNetwork {
        stages: vec![0, 1, 7],
        num_phases: 4,
        output_stage: 7,
        network: net,
    };
    match timed.audit() {
        Err(TimingError::LifetimeExceeded { span, phases, .. }) => {
            assert_eq!(span, 6);
            assert_eq!(phases, 4);
        }
        other => panic!("expected LifetimeExceeded, got {other:?}"),
    }
}

#[test]
fn simulator_flags_t1_input_collisions() {
    // Three PIs feeding a T1 directly all release at stage 0 — the exact
    // data hazard of the paper's §I-A. The audit rejects it; the simulator
    // must also catch it at runtime (defense in depth).
    let mut net = Network::new("collide");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let t1 = net.add_t1(0b00011, &[a, b, c]);
    net.add_output("s", Signal::t1(t1, T1Port::S));
    net.add_output("c", Signal::t1(t1, T1Port::C));
    let timed = TimedNetwork {
        stages: vec![0, 0, 0, 3],
        num_phases: 4,
        output_stage: 3,
        network: net,
    };
    assert!(
        timed.audit().is_err(),
        "the audit rejects colliding arrivals"
    );

    let err = simulate_waves(&timed, &[vec![true, true, false]])
        .expect_err("two same-tick T pulses collide");
    assert!(
        err.hazards()
            .iter()
            .any(|h| matches!(h, Hazard::T1Collision { .. })),
        "expected a T1Collision hazard, got {:?}",
        err.hazards()
    );
}

#[test]
fn simulator_flags_data_on_clock_ticks() {
    // One fanin arrives exactly at the T1's own firing stage.
    let mut net = Network::new("onclock");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let d1 = net.add_dff(a);
    let d2 = net.add_dff(b);
    let d3 = net.add_dff(c);
    let t1 = net.add_t1(0b00011, &[d1, d2, d3]);
    net.add_output("s", Signal::t1(t1, T1Port::S));
    net.add_output("c", Signal::t1(t1, T1Port::C));
    // d3 fires at stage 4 — the T1's own stage.
    let timed = TimedNetwork {
        stages: vec![0, 0, 0, 1, 2, 4, 4],
        num_phases: 4,
        output_stage: 4,
        network: net,
    };
    assert!(timed.audit().is_err());
    let err = simulate_waves(&timed, &[vec![false, false, true]])
        .expect_err("pulse lands on the clock tick");
    assert!(
        err.hazards()
            .iter()
            .any(|h| matches!(h, Hazard::T1DataOnClock { .. })),
        "expected T1DataOnClock, got {:?}",
        err.hazards()
    );
}

#[test]
fn simulator_flags_double_pulses_on_overspanned_edges() {
    // PI → BUF(σ=1) → BUF(σ=6) under n = 4: wave 1's pulse arrives before
    // the consumer ever fires, colliding with wave 0's buffered pulse.
    let mut net = Network::new("double");
    let a = net.add_input("a");
    let u = net.add_gate(GateKind::Buf, &[a]);
    let v = net.add_gate(GateKind::Buf, &[u]);
    net.add_output("y", v);
    let timed = TimedNetwork {
        stages: vec![0, 1, 6],
        num_phases: 4,
        output_stage: 6,
        network: net,
    };
    assert!(
        timed.audit().is_err(),
        "span 5 exceeds the 4-phase lifetime"
    );
    let err = simulate_waves(&timed, &[vec![true], vec![true]])
        .expect_err("second wave tramples the buffered pulse");
    assert!(
        err.hazards()
            .iter()
            .any(|h| matches!(h, Hazard::DoublePulse { .. })),
        "expected DoublePulse, got {:?}",
        err.hazards()
    );
}

#[test]
fn clean_networks_pass_both_checkers() {
    // Sanity guard for this file's methodology: the uncorrupted artifact
    // passes audit and simulates hazard-free on exhaustive FA inputs.
    let timed = t1_full_adder();
    timed.audit().expect("clean audit");
    let waves: Vec<Vec<bool>> = (0..8u8)
        .map(|p| (0..3).map(|k| p >> k & 1 == 1).collect())
        .collect();
    let outs = simulate_waves(&timed, &waves).expect("hazard-free");
    for (p, out) in outs.iter().enumerate() {
        let ones = (p as u8).count_ones();
        assert_eq!(out[0], ones & 1 == 1, "sum bit for pattern {p}");
        assert_eq!(out[1], ones >= 2, "carry bit for pattern {p}");
    }
}

#[test]
fn simulator_hazard_reports_are_deterministic() {
    // Inputs a and b each feed an INV at stage 9 under n = 4: every wave
    // after the first lands on a slot still holding wave 0's pulse, on
    // both inverters in the same tick. Inputs fire in declaration order,
    // so the hazard list — and the first hazard a FAILED row names — is
    // the same for every simulator built over the network.
    let mut net = Network::new("twin_inv");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let na = net.add_gate(GateKind::Inv, &[a]);
    let nb = net.add_gate(GateKind::Inv, &[b]);
    net.add_output("ya", na);
    net.add_output("yb", nb);
    let timed = TimedNetwork {
        stages: vec![0, 0, 9, 9],
        num_phases: 4,
        output_stage: 9,
        network: net,
    };
    let waves = vec![vec![true, true]; 3];
    let double = |cell: u32, tick: u64| Hazard::DoublePulse {
        cell: CellId(cell),
        fanin: 0,
        tick,
    };
    let expected = [double(2, 4), double(3, 4), double(2, 8), double(3, 8)];
    for _ in 0..50 {
        let err = PulseSim::new(&timed)
            .run(&waves)
            .expect_err("overspanned inverters double-pulse");
        assert_eq!(err.hazards(), expected);
        assert_eq!(
            err.to_string(),
            "pulse simulation detected 4 hazard(s); first: double pulse on input 0 of c2 at tick 4"
        );
    }
}
