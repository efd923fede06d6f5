//! DFF insertion (paper §II-C).
//!
//! Given a stage assignment, every driven pin receives one shared DFF chain
//! (planned by [`crate::chains`]); plain sinks tap the chain inside their
//! pulse-lifetime window, T1 fanins tap exact arrival stages, and primary
//! outputs tap the common output stage. The T1 arrivals come from the
//! closed-form solver [`solve_arrivals`](crate::solve_arrivals): pairwise
//! distinct (eq. 5) at the fewest DFFs, the sub-problem the paper hands to
//! CP-SAT. The result is a [`TimedNetwork`] whose audit re-verifies every
//! rule independently.
//!
//! Since the timing-engine refactor, [`insert_dffs`] is a thin wrapper: it
//! loads the assignment into a [`TimingEngine`](crate::engine::TimingEngine)
//! (which resolves arrivals and memoizes the chain plans) and then runs
//! `emit_planned` — a straight, hash-free emission pass over flat
//! `cell × port` remap tables and CSR chain plans. The original
//! HashMap-based implementation survives as [`insert_dffs_reference`], the
//! executable specification the differential harness diffs against.

use crate::chains::{plan_chain, tap_for_plain, ChainDemand};
use crate::phase::{build_view, flat_pin, ArrivalCache, NetView, PhaseError, StageAssignment};
use crate::timed::TimedNetwork;
use sfq_netlist::{CellId, CellKind, Network, Signal, T1Port, T1_NUM_PORTS};
use std::collections::HashMap;

/// Materializes the DFF chains dictated by `assignment` and returns the
/// fully retimed network.
///
/// Runs on the incremental timing engine; bit-identical to
/// [`insert_dffs_reference`].
///
/// # Errors
/// [`PhaseError::BadNetwork`] if the network is malformed, or
/// [`PhaseError::TooFewPhasesForT1`] if a T1 arrival assignment is
/// infeasible (cannot happen for assignments produced by
/// [`assign_phases`](crate::assign_phases)).
pub fn insert_dffs(
    net: &Network,
    assignment: &StageAssignment,
    n: u8,
) -> Result<TimedNetwork, PhaseError> {
    let mut engine = crate::engine::TimingEngine::with_assignment(net, n, assignment)?;
    Ok(engine.emit())
}

/// The pre-engine DFF insertion, kept alive as the executable specification
/// of [`insert_dffs`]: re-derives every chain demand from the network and
/// materializes chains through hash-map remap tables.
/// `tests/differential_mapping.rs` asserts bit-identical [`TimedNetwork`]s
/// against the engine-backed emission across every benchmark generator.
///
/// # Errors
/// As [`insert_dffs`].
pub fn insert_dffs_reference(
    net: &Network,
    assignment: &StageAssignment,
    n: u8,
) -> Result<TimedNetwork, PhaseError> {
    let nn = n as u32;
    let view = build_view(net)?;
    let stages = &assignment.stages;
    let sigma_out = assignment.output_stage;

    // ---- resolve T1 arrivals (shared solver with phase assignment) -------
    // The same memoized solver the phase engines use: T1 cells in regular
    // structures (adder carry chains, multiplier compressor trees) repeat
    // the same relative fanin geometry, so most solves are cache hits.
    let arrival_cache = ArrivalCache::new();
    // (t1, fanin index) → arrival stage.
    let mut arrival: HashMap<(CellId, usize), u32> = HashMap::new();
    for &t1 in &view.t1_cells {
        let f = net.fanins(t1);
        let fs = [
            stages[f[0].cell.0 as usize],
            stages[f[1].cell.0 as usize],
            stages[f[2].cell.0 as usize],
        ];
        let arr = arrival_cache
            .solve(fs, stages[t1.0 as usize], nn)
            .ok_or(PhaseError::TooFewPhasesForT1 { phases: n })?;
        for (k, &a) in arr.iter().enumerate() {
            arrival.insert((t1, k), a);
        }
    }

    // ---- plan chains per pin ----------------------------------------------
    // pin → sorted DFF stages.
    let mut chain_plan: HashMap<Signal, Vec<u32>> = HashMap::new();
    for pi in 0..view.num_pins() {
        let pin = view.signal(pi);
        let su = stages[pin.cell.0 as usize];
        let mut demand = ChainDemand::default();
        for &v in view.plain(pi) {
            demand.plain.push(stages[v.0 as usize]);
        }
        for &(t1, k) in view.t1(pi) {
            let a = arrival[&(t1, usize::from(k))];
            if a > su {
                demand.exact.push(a);
            }
        }
        if view.outputs(pi) > 0 && sigma_out > su {
            demand.exact.push(sigma_out);
        }
        if !demand.is_empty() {
            chain_plan.insert(pin, plan_chain(su, &demand, nn));
        }
    }

    // ---- rebuild with DFF cells -------------------------------------------
    let mut out = Network::new(net.name().to_string());
    let mut out_stages: Vec<u32> = Vec::new();
    // old signal → new signal of the driver itself.
    let mut remap: HashMap<Signal, Signal> = HashMap::new();
    // (old pin, chain stage) → new DFF output signal.
    let mut tap_signal: HashMap<(Signal, u32), Signal> = HashMap::new();
    let mut inputs_done = 0usize;

    // Resolve the new-network signal a sink should read for an old fanin.
    let resolve_plain = |f: Signal,
                         sink_stage: u32,
                         remap: &HashMap<Signal, Signal>,
                         tap_signal: &HashMap<(Signal, u32), Signal>,
                         chain_plan: &HashMap<Signal, Vec<u32>>,
                         stages: &[u32]|
     -> Signal {
        let su = stages[f.cell.0 as usize];
        let chain = chain_plan.get(&f).map(Vec::as_slice).unwrap_or(&[]);
        match tap_for_plain(su, chain, sink_stage, nn) {
            None => remap[&f],
            Some(t) => tap_signal[&(f, t)],
        }
    };

    for &id in &view.order {
        let kind = net.kind(id);
        let my_stage = stages[id.0 as usize];
        let new_sig = match kind {
            CellKind::Input => {
                let k = inputs_done;
                inputs_done += 1;
                let s = out.add_input(net.input_name(k).to_string());
                out_stages.push(0);
                s
            }
            CellKind::Gate(g) => {
                let fanins: Vec<Signal> = net
                    .fanins(id)
                    .iter()
                    .map(|&f| resolve_plain(f, my_stage, &remap, &tap_signal, &chain_plan, stages))
                    .collect();
                let s = out.add_gate(g, &fanins);
                out_stages.push(my_stage);
                s
            }
            CellKind::T1 { used_ports } => {
                let fanins: Vec<Signal> = net
                    .fanins(id)
                    .iter()
                    .enumerate()
                    .map(|(k, &f)| {
                        let a = arrival[&(id, k)];
                        let su = stages[f.cell.0 as usize];
                        if a == su {
                            remap[&f]
                        } else {
                            tap_signal[&(f, a)]
                        }
                    })
                    .collect();
                let new_id = out.add_t1(used_ports, &fanins);
                out_stages.push(my_stage);
                for port in T1Port::ALL {
                    if used_ports >> port.index() & 1 == 1 {
                        remap.insert(Signal::t1(id, port), Signal::t1(new_id, port));
                    }
                }
                // Port-0 placeholder mapping for uniformity below.
                Signal::from_cell(new_id)
            }
            CellKind::Dff => {
                let f = net.fanins(id)[0];
                let s = out.add_dff(resolve_plain(
                    f,
                    my_stage,
                    &remap,
                    &tap_signal,
                    &chain_plan,
                    stages,
                ));
                out_stages.push(my_stage);
                s
            }
        };
        if !matches!(kind, CellKind::T1 { .. }) {
            remap.insert(Signal::from_cell(id), new_sig);
        }
        // Materialize this cell's chains now that the cell exists.
        for port in 0..kind.num_ports() {
            let pin = Signal {
                cell: id,
                port: port as u8,
            };
            let Some(chain) = chain_plan.get(&pin) else {
                continue;
            };
            let mut prev = remap[&pin];
            for &t in chain {
                let d = out.add_dff(prev);
                out_stages.push(t);
                tap_signal.insert((pin, t), d);
                prev = d;
            }
        }
    }

    for (k, &o) in net.outputs().iter().enumerate() {
        let su = stages[o.cell.0 as usize];
        let s = if sigma_out == su {
            remap[&o]
        } else {
            tap_signal[&(o, sigma_out)]
        };
        out.add_output(net.output_name(k).to_string(), s);
    }

    Ok(TimedNetwork {
        network: out,
        stages: out_stages,
        num_phases: n,
        output_stage: sigma_out,
    })
}

/// The engine-backed emission pass: materializes a [`TimedNetwork`] from
/// already-resolved state — stages, per-T1 arrival slots and per-pin chain
/// plans (CSR over the view's pin order). No demands are re-derived and no
/// hash map is touched: the driver remap is a flat `cell × port` table and
/// chain taps resolve by binary search in the pin's sorted chain slice.
///
/// Bit-identical to [`insert_dffs_reference`] by construction: same
/// topological walk, same chain stages (both come from
/// [`plan_chain`]), same tap-selection rule ([`tap_for_plain`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_planned(
    net: &Network,
    view: &NetView,
    stages: &[u32],
    sigma_out: u32,
    n: u8,
    t1_ordinal: &[u32],
    t1_arrival: &[[u32; 3]],
    chain_offsets: &[u32],
    chain_stages: &[u32],
) -> TimedNetwork {
    let nn = u32::from(n);
    let undef = Signal::from_cell(CellId(u32::MAX));
    // old pin (flat cell × port) → new signal of the driver itself.
    let mut remap: Vec<Signal> = vec![undef; net.num_cells() * T1_NUM_PORTS];
    // new signal per chain element, parallel to `chain_stages`.
    let mut tap_sig: Vec<Signal> = vec![undef; chain_stages.len()];

    // Every old cell plus one DFF per chain element: the exact output size.
    let cells = net.num_cells() + chain_stages.len();
    let mut out = Network::with_capacity(net.name().to_string(), cells);
    let mut out_stages: Vec<u32> = Vec::with_capacity(cells);
    let mut inputs_done = 0usize;
    let mut fan_buf: Vec<Signal> = Vec::with_capacity(3);

    let chain_of = |pi: usize| -> (usize, &[u32]) {
        let off = chain_offsets[pi] as usize;
        (off, &chain_stages[off..chain_offsets[pi + 1] as usize])
    };
    // Resolve the new-network signal a plain (window-tapping) sink at
    // `sink_stage` should read for old fanin `f`.
    let resolve_plain =
        |f: Signal, sink_stage: u32, remap: &[Signal], tap_sig: &[Signal]| -> Signal {
            let su = stages[f.cell.0 as usize];
            let pi = view.pin_lookup(f).expect("read pins are in the view");
            let (off, chain) = chain_of(pi);
            match tap_for_plain(su, chain, sink_stage, nn) {
                None => remap[flat_pin(f)],
                Some(t) => {
                    let j = chain.binary_search(&t).expect("tap stage is in the plan");
                    tap_sig[off + j]
                }
            }
        };

    for &id in &view.order {
        let kind = net.kind(id);
        let my_stage = stages[id.0 as usize];
        let new_sig = match kind {
            CellKind::Input => {
                let k = inputs_done;
                inputs_done += 1;
                let s = out.add_input(net.input_name(k).to_string());
                out_stages.push(0);
                s
            }
            CellKind::Gate(g) => {
                fan_buf.clear();
                for &f in net.fanins(id) {
                    fan_buf.push(resolve_plain(f, my_stage, &remap, &tap_sig));
                }
                let s = out.add_gate(g, &fan_buf);
                out_stages.push(my_stage);
                s
            }
            CellKind::T1 { used_ports } => {
                let arr = t1_arrival[t1_ordinal[id.0 as usize] as usize];
                fan_buf.clear();
                for (k, &f) in net.fanins(id).iter().enumerate() {
                    let a = arr[k];
                    let su = stages[f.cell.0 as usize];
                    fan_buf.push(if a == su {
                        remap[flat_pin(f)]
                    } else {
                        let pi = view.pin_lookup(f).expect("read pins are in the view");
                        let (off, chain) = chain_of(pi);
                        let j = chain
                            .binary_search(&a)
                            .expect("exact arrival tap is in the plan");
                        tap_sig[off + j]
                    });
                }
                let new_id = out.add_t1(used_ports, &fan_buf);
                out_stages.push(my_stage);
                for port in T1Port::ALL {
                    if used_ports >> port.index() & 1 == 1 {
                        remap[flat_pin(Signal::t1(id, port))] = Signal::t1(new_id, port);
                    }
                }
                Signal::from_cell(new_id)
            }
            CellKind::Dff => {
                let f = net.fanins(id)[0];
                let s = out.add_dff(resolve_plain(f, my_stage, &remap, &tap_sig));
                out_stages.push(my_stage);
                s
            }
        };
        if !matches!(kind, CellKind::T1 { .. }) {
            remap[flat_pin(Signal::from_cell(id))] = new_sig;
        }
        // Materialize this cell's chains now that the cell exists.
        for port in 0..kind.num_ports() {
            let pin = Signal {
                cell: id,
                port: port as u8,
            };
            let Some(pi) = view.pin_lookup(pin) else {
                continue;
            };
            let (off, chain) = chain_of(pi);
            let mut prev = remap[flat_pin(pin)];
            for (j, &t) in chain.iter().enumerate() {
                let d = out.add_dff(prev);
                out_stages.push(t);
                tap_sig[off + j] = d;
                prev = d;
            }
        }
    }

    for (k, &o) in net.outputs().iter().enumerate() {
        let su = stages[o.cell.0 as usize];
        let s = if sigma_out == su {
            remap[flat_pin(o)]
        } else {
            let pi = view.pin_lookup(o).expect("output pins are in the view");
            let (off, chain) = chain_of(pi);
            let j = chain
                .binary_search(&sigma_out)
                .expect("output tap is in the plan");
            tap_sig[off + j]
        };
        out.add_output(net.output_name(k).to_string(), s);
    }

    TimedNetwork {
        network: out,
        stages: out_stages,
        num_phases: n,
        output_stage: sigma_out,
    }
}
