//! The incremental timing engine shared by phase assignment and DFF
//! insertion.
//!
//! Before this module existed, the two back stages of the flow were disjoint
//! layers that computed the same chain demands twice: the phase-assignment
//! descent counted chain DFFs through [`chain_cost_sorted`] inside
//! its pin cost, and DFF insertion then re-derived every demand from the
//! network and materialized it with [`plan_chain`](crate::chains::plan_chain). A
//! [`TimingEngine`] owns that shared state once:
//!
//! * the **stage vector** `σ` and the common primary-output stage,
//! * the **σ-histogram** over primary-output drivers (`OutputTracker`),
//!   so a candidate's `σ_out` is O(1),
//! * the resolved **T1 arrival slots** per T1 cell (kept consistent with the
//!   stage vector at all times) backed by an open-addressed window-relative
//!   **arrival memo** — the same reduction as
//!   [`ArrivalCache`], without per-probe
//!   `SipHash`/`RefCell` overhead,
//! * the **per-pin chain demands** implied by stages + arrivals, and the
//!   memoized chain plans the emission pass consumes, planned in place into
//!   one shared buffer by [`plan_chain_sorted_into`].
//!
//! # Incremental invalidation rule
//!
//! A candidate move of cell `c` to stage `s` can change the cost of exactly
//! these chains: the pins `c` drives, the pins feeding `c`, and the fanin
//! pins of every T1 cell adjacent to `c` (whose arrival solve the move
//! perturbs — including `c` itself when it is a T1). That pin list and the
//! list of touched T1 cells are precomputed per cell in CSR form
//! (`DescentIndex`); a candidate is evaluated by re-costing only those
//! pins, reading arrivals of *touched* T1 cells from a per-candidate scratch
//! and of untouched ones from the engine state. A `σ_out` change
//! additionally re-costs the primary-output pins (delta against their cached
//! incumbent cost). No candidate ever rescans the whole netlist.
//!
//! # Dirty cells
//!
//! Later passes move few cells, so the descent re-evaluates only *dirty*
//! cells: those for which something their evaluation reads has changed
//! since their last evaluation. `DescentIndex` also holds the inverse of
//! the affected lists, the **reader index**: per pin `p`, the cells whose
//! affected list holds `p` (built by counting sort). Every cell starts
//! dirty; a visit clears the flag, and an accepted move of `c` marks
//!
//! * `readers(p)` for every `p` in `affected(c)`;
//! * every primary-output driver when `affected(c)` holds a PO pin;
//! * `readers(p)` for every PO pin `p` when `σ_out` moved;
//!
//! and then clears `c`'s own flag.
//!
//! Why skipping a clean cell `d` is exact. Its evaluation is a pure
//! function of the state it reads: the stages of its fanins and sinks (its
//! window), the stages and arrivals that cost the pins of `affected(d)` and
//! re-solve its touched T1 cells, `σ_out`, and, for a PO driver, the
//! σ-histogram and every PO pin's cost. A move of `c` changes `c`'s stage,
//! the arrivals of `c`'s touched T1 cells, and perhaps `σ_out` and the
//! histogram. Every pin that reads `c`'s stage or one of those arrivals
//! (`c`'s own pins, its fanin pins, its touched T1 cells' fanin pins) is in
//! `affected(c)`, and `d` sees `c`'s stage only through such a pin that is
//! also in `affected(d)`, so `d` is one of its readers. The histogram moves
//! only when `c` drives a PO, and then `c`'s own PO pin is in `affected(c)`;
//! a changed PO pin re-marks every PO driver; only PO pins read `σ_out`. So
//! a clean cell's inputs are those of its last evaluation, which found no
//! move, and it would find none again. The mover itself is clean after its
//! move: its window does not depend on its own stage, and its deltas are
//! exact, so from its new stage every candidate's delta is its old delta
//! minus the accepted one, never negative. Skipping thus
//! keeps the pass order, the tie-breaks, `improved` and the pass cap; the
//! budget still ticks once per visited clocked cell, so supervised node
//! ceilings are unchanged.
//!
//! The descent itself — pass order, candidate window, tie-breaking,
//! acceptance rule — is *semantically identical* to the executable
//! specification [`assign_phases_reference`](crate::phase::assign_phases_reference);
//! `tests/differential_mapping.rs` asserts bit-identical
//! [`StageAssignment`]s and [`TimedNetwork`]s across every benchmark
//! generator.
//!
//! # Deterministic multi-restart
//!
//! [`TimingEngine::optimize`] runs the descent from ASAP (restart 0) plus
//! `restarts − 1` deterministically perturbed ASAP seeds (restart `r` jitters
//! each clocked cell's ASAP stage by an xorshift stream seeded by `r` alone),
//! and keeps the state with the lexicographically smallest
//! `(total cost, restart index)`. The restarts run in index order on the
//! calling thread, so the flow's node budget charges every descent tick —
//! and restart count 1 is bit-identical to the single-descent reference.

use crate::chains::{chain_cost_sorted, plan_chain_sorted_into};
use crate::dff::emit_planned;
use crate::phase::{
    arrival_key, asap_stages, auto_takes_exact, build_view, clocked_lower_bound, exact_assign,
    max_output_stage, pack_arrival_key, solve_arrivals, solve_arrivals_rel, ArrivalCache, NetView,
    OutputTracker, PhaseEngine, PhaseError, StageAssignment, AUTO_NODE_LIMIT, EXACT_NODE_LIMIT,
};
use crate::timed::TimedNetwork;
use sfq_netlist::{CellId, CellKind, Network, Signal};
use sfq_solver::MilpSolution;

// ======================================================================
// Window-relative arrival memo (open addressing)
// ======================================================================

/// Open-addressed memo of the window-relative arrival solve, keyed exactly
/// like [`ArrivalCache`] (`(mₖ, capₖ)₍₀‥₂₎, n`
/// packed into a `u64`) but probed with one multiply hash instead of
/// `SipHash` — the descent performs one lookup per touched T1 cell per
/// candidate, making this the hottest map in the flow.
struct ArrivalMemo {
    /// Packed keys; 0 marks an empty slot (valid: every real key carries
    /// `n ≥ 1` in bits 48..56).
    keys: Vec<u64>,
    /// Relative solutions, parallel to `keys`.
    vals: Vec<Option<[u8; 3]>>,
    len: usize,
}

impl ArrivalMemo {
    fn new() -> Self {
        ArrivalMemo {
            keys: vec![0; 1024],
            vals: vec![None; 1024],
            len: 0,
        }
    }

    #[inline]
    fn slot(keys: &[u64], key: u64) -> usize {
        let mask = keys.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let k = keys[i];
            if k == key || k == 0 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let mut keys = vec![0u64; new_cap];
        let mut vals = vec![None; new_cap];
        for (k, v) in self.keys.iter().zip(&self.vals) {
            if *k != 0 {
                let i = Self::slot(&keys, *k);
                keys[i] = *k;
                vals[i] = *v;
            }
        }
        self.keys = keys;
        self.vals = vals;
    }

    /// Memoized [`solve_arrivals`]; bit-identical to the unmemoized solve.
    #[inline]
    fn solve(&mut self, fanin_stages: [u32; 3], sigma_j: u32, n: u32) -> Option<[u32; 3]> {
        if n >= 256 {
            // Byte-packed key components require n ≤ 255 (every in-tree
            // phase count comes from a u8); skip the memo beyond that —
            // at n = 256 the packed phase byte would be 0, colliding with
            // the empty-slot marker.
            return solve_arrivals(fanin_stages, sigma_j, n);
        }
        let (m, cap) = arrival_key(fanin_stages, sigma_j, n)?;
        let key = pack_arrival_key(m, cap, n);
        let i = Self::slot(&self.keys, key);
        let rel = if self.keys[i] == key {
            self.vals[i]
        } else {
            let v = solve_arrivals_rel(m, cap);
            self.keys[i] = key;
            self.vals[i] = v;
            self.len += 1;
            if self.len * 4 > self.keys.len() * 3 {
                self.grow();
            }
            v
        };
        let r = rel?;
        Some([
            sigma_j - u32::from(r[0]),
            sigma_j - u32::from(r[1]),
            sigma_j - u32::from(r[2]),
        ])
    }
}

// ======================================================================
// Structural (stage-independent) descent index
// ======================================================================

/// Per-cell CSR lists built once per engine: the affected-pin list (same
/// contents as the reference descent's `AffectedIndex`) plus the deduplicated
/// list of *touched* T1 cells — the T1 cells whose arrival solve a move of
/// this cell perturbs. Both are keyed by the moving cell. The reader index
/// inverts the first: per pin, the cells whose affected list holds it —
/// exactly the cells whose evaluation reads that pin's cost or sinks, which
/// the descent re-marks when the pin changes.
struct DescentIndex {
    pin_offsets: Vec<u32>,
    pins: Vec<u32>,
    t1_offsets: Vec<u32>,
    /// T1 ordinals (indices into `view.t1_cells`), not cell ids.
    t1s: Vec<u32>,
    /// `reader_offsets[p]..reader_offsets[p + 1]` indexes `readers`.
    reader_offsets: Vec<u32>,
    /// Cell ids, in id order per pin.
    readers: Vec<u32>,
    /// Cells driving at least one primary output, in id order.
    po_drivers: Vec<u32>,
}

impl DescentIndex {
    fn build(net: &Network, view: &NetView, t1_ordinal: &[u32]) -> Self {
        let mut pin_offsets = Vec::with_capacity(net.num_cells() + 1);
        let mut pins: Vec<u32> = Vec::new();
        let mut t1_offsets = Vec::with_capacity(net.num_cells() + 1);
        let mut t1s: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        let mut t1_scratch: Vec<u32> = Vec::new();
        pin_offsets.push(0);
        t1_offsets.push(0);
        for id in net.cell_ids() {
            let kind = net.kind(id);
            if kind.is_clocked() {
                scratch.clear();
                t1_scratch.clear();
                let add_pin = |s: Signal, out: &mut Vec<u32>| {
                    if let Some(pi) = view.pin_lookup(s) {
                        out.push(pi as u32);
                    }
                };
                for port in 0..kind.num_ports() {
                    let pin = Signal {
                        cell: id,
                        port: port as u8,
                    };
                    add_pin(pin, &mut scratch);
                    if let Some(pi) = view.pin_lookup(pin) {
                        for &(t1, _) in view.t1(pi) {
                            t1_scratch.push(t1_ordinal[t1.0 as usize]);
                        }
                    }
                }
                for &fi in net.fanins(id) {
                    add_pin(fi, &mut scratch);
                }
                if matches!(kind, CellKind::T1 { .. }) {
                    t1_scratch.push(t1_ordinal[id.0 as usize]);
                }
                t1_scratch.sort_unstable();
                t1_scratch.dedup();
                for &ti in &t1_scratch {
                    let t1 = view.t1_cells[ti as usize];
                    for &fi in net.fanins(t1) {
                        add_pin(fi, &mut scratch);
                    }
                }
                scratch.sort_unstable();
                scratch.dedup();
                pins.extend_from_slice(&scratch);
                t1s.extend_from_slice(&t1_scratch);
            }
            pin_offsets.push(pins.len() as u32);
            t1_offsets.push(t1s.len() as u32);
        }

        // Reader index by counting sort over the affected lists.
        let mut reader_offsets = vec![0u32; view.num_pins() + 1];
        for &pi in &pins {
            reader_offsets[pi as usize + 1] += 1;
        }
        for p in 0..view.num_pins() {
            reader_offsets[p + 1] += reader_offsets[p];
        }
        let mut cursor = reader_offsets[..view.num_pins()].to_vec();
        let mut readers = vec![0u32; pins.len()];
        for c in 0..net.num_cells() {
            for &pi in &pins[pin_offsets[c] as usize..pin_offsets[c + 1] as usize] {
                readers[cursor[pi as usize] as usize] = c as u32;
                cursor[pi as usize] += 1;
            }
        }

        let mut po_drivers: Vec<u32> = net.outputs().iter().map(|o| o.cell.0).collect();
        po_drivers.sort_unstable();
        po_drivers.dedup();
        DescentIndex {
            pin_offsets,
            pins,
            t1_offsets,
            t1s,
            reader_offsets,
            readers,
            po_drivers,
        }
    }

    #[inline]
    fn pins_of(&self, id: CellId) -> &[u32] {
        let i = id.0 as usize;
        &self.pins[self.pin_offsets[i] as usize..self.pin_offsets[i + 1] as usize]
    }

    #[inline]
    fn t1s_of(&self, id: CellId) -> &[u32] {
        let i = id.0 as usize;
        &self.t1s[self.t1_offsets[i] as usize..self.t1_offsets[i + 1] as usize]
    }

    /// Cells whose affected list holds pin `pi`.
    #[inline]
    fn readers_of(&self, pi: usize) -> &[u32] {
        &self.readers[self.reader_offsets[pi] as usize..self.reader_offsets[pi + 1] as usize]
    }
}

// ======================================================================
// Engine core (immutable per subject) and state (one per restart)
// ======================================================================

/// Structural data shared by every descent restart: the subject network,
/// its pin/sink view, the T1 ordinal map, the PO pin list, and the lazily
/// built [`DescentIndex`].
struct EngineCore<'a> {
    net: &'a Network,
    view: NetView,
    n: u32,
    n_u8: u8,
    /// `cell → index into view.t1_cells` (`u32::MAX` for non-T1 cells).
    t1_ordinal: Vec<u32>,
    /// Pin indices with at least one primary-output sink.
    po_pins: Vec<u32>,
    /// Built on first descent; restarts share it immutably.
    index: Option<DescentIndex>,
}

/// The mutable timing state: one per restart, swapped into the engine when
/// a restart wins.
struct EngineState {
    stages: Vec<u32>,
    output_stage: u32,
    /// Arrival slots per T1 ordinal; always consistent with `stages`.
    t1_arrival: Vec<[u32; 3]>,
    memo: ArrivalMemo,
    /// Reusable exact-tap scratch for pin costing.
    taps: Vec<u32>,
    /// Reusable candidate-stage scratch for the descent.
    cands: Vec<u32>,
    /// Per-candidate arrival scratch, by T1 ordinal, validated by stamp.
    cand_arr: Vec<[u32; 3]>,
    cand_ok: Vec<bool>,
    cand_stamp: Vec<u64>,
    cand_gen: u64,
}

impl EngineState {
    /// Builds a state from a stage vector, resolving every T1 arrival.
    ///
    /// `output_stage`: `None` derives the maximum primary-output driver
    /// stage (what the descent maintains); `Some` honors an externally
    /// chosen common output stage (MILP solutions, user assignments).
    fn new(
        core: &EngineCore<'_>,
        stages: Vec<u32>,
        output_stage: Option<u32>,
    ) -> Result<EngineState, PhaseError> {
        assert_eq!(
            stages.len(),
            core.net.num_cells(),
            "one stage per cell of the subject network"
        );
        let mut memo = ArrivalMemo::new();
        let mut t1_arrival = Vec::with_capacity(core.view.t1_cells.len());
        for &t1 in &core.view.t1_cells {
            let f = core.net.fanins(t1);
            let fs = [
                stages[f[0].cell.0 as usize],
                stages[f[1].cell.0 as usize],
                stages[f[2].cell.0 as usize],
            ];
            let arr = memo
                .solve(fs, stages[t1.0 as usize], core.n)
                .ok_or(PhaseError::TooFewPhasesForT1 { phases: core.n_u8 })?;
            t1_arrival.push(arr);
        }
        let output_stage = output_stage.unwrap_or_else(|| max_output_stage(core.net, &stages));
        let n_t1 = core.view.t1_cells.len();
        Ok(EngineState {
            stages,
            output_stage,
            t1_arrival,
            memo,
            taps: Vec::new(),
            cands: Vec::new(),
            cand_arr: vec![[0; 3]; n_t1],
            cand_ok: vec![false; n_t1],
            cand_stamp: vec![0; n_t1],
            cand_gen: 0,
        })
    }
}

/// The chain demand of pin `pi`: gathers its exact taps (T1 arrivals after
/// the driver, then `output_stage` when the pin drives a primary output and
/// fires before it) sorted and deduplicated into `taps`, and returns the
/// driver stage and the largest plain-sink stage. `arrivals` maps a T1
/// ordinal to its arrival slots; `None` (an infeasible solve) aborts.
#[inline]
fn pin_demand(
    core: &EngineCore<'_>,
    stages: &[u32],
    output_stage: u32,
    taps: &mut Vec<u32>,
    pi: usize,
    arrivals: impl Fn(usize) -> Option<[u32; 3]>,
) -> Option<(u32, Option<u32>)> {
    let view = &core.view;
    let su = stages[view.signal(pi).cell.0 as usize];
    let max_plain = view.plain(pi).iter().map(|v| stages[v.0 as usize]).max();
    taps.clear();
    for &(t1, k) in view.t1(pi) {
        let a = arrivals(core.t1_ordinal[t1.0 as usize] as usize)?[k as usize];
        if a > su {
            taps.push(a);
        }
    }
    if view.outputs(pi) > 0 && output_stage > su {
        taps.push(output_stage);
    }
    taps.sort_unstable();
    taps.dedup();
    Some((su, max_plain))
}

/// Chain DFF count of pin `pi` under the state's stages/arrivals — the same
/// quantity as `CostModel::pin_cost`, with arrivals read from the engine's
/// resolved per-T1 array instead of re-solved per sink.
#[inline]
fn state_pin_cost(
    core: &EngineCore<'_>,
    stages: &[u32],
    output_stage: u32,
    t1_arrival: &[[u32; 3]],
    taps: &mut Vec<u32>,
    pi: usize,
) -> usize {
    let (su, max_plain) = pin_demand(core, stages, output_stage, taps, pi, |ti| {
        Some(t1_arrival[ti])
    })
    .expect("committed arrivals are feasible");
    chain_cost_sorted(su, taps, max_plain, core.n)
}

/// Candidate-probe variant of [`state_pin_cost`]: arrivals of T1 cells
/// stamped in the current candidate generation come from the candidate
/// scratch (`None` cost if that solve was infeasible); everything else
/// reads the committed state.
#[inline]
#[allow(clippy::too_many_arguments)]
fn probe_pin_cost(
    core: &EngineCore<'_>,
    stages: &[u32],
    output_stage: u32,
    t1_arrival: &[[u32; 3]],
    cand_arr: &[[u32; 3]],
    cand_ok: &[bool],
    cand_stamp: &[u64],
    cand_gen: u64,
    taps: &mut Vec<u32>,
    pi: usize,
) -> Option<usize> {
    let (su, max_plain) = pin_demand(core, stages, output_stage, taps, pi, |ti| {
        if cand_stamp[ti] != cand_gen {
            Some(t1_arrival[ti])
        } else if cand_ok[ti] {
            Some(cand_arr[ti])
        } else {
            None
        }
    })?;
    Some(chain_cost_sorted(su, taps, max_plain, core.n))
}

/// Total chain cost over all pins of a state.
fn state_total_cost(core: &EngineCore<'_>, state: &mut EngineState) -> usize {
    let mut taps = std::mem::take(&mut state.taps);
    let total = (0..core.view.num_pins())
        .map(|pi| {
            state_pin_cost(
                core,
                &state.stages,
                state.output_stage,
                &state.t1_arrival,
                &mut taps,
                pi,
            )
        })
        .sum();
    state.taps = taps;
    total
}

// ======================================================================
// The descent (spec: phase::heuristic_assign / assign_phases_reference)
// ======================================================================

/// Work counters of one descent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DescentStats {
    /// Passes over the topological order (the last one moves nothing
    /// unless the pass cap ends the descent).
    pub passes: usize,
    /// Clocked-cell visits that evaluated candidates (the cell was dirty).
    pub evaluated: usize,
    /// Accepted moves.
    pub moved: usize,
}

/// Pass cap of the descent (the reference descent's too).
const MAX_PASSES: usize = 10;

/// Coordinate descent to a local minimum, semantically identical to the
/// reference heuristic: same pass order, candidate windows, tie-breaking
/// and acceptance — only the cost plumbing is incremental, and a cell
/// nothing it reads has changed since its last evaluation is skipped (see
/// the module docs for why that is exact).
fn descend(core: &EngineCore<'_>, state: &mut EngineState) -> DescentStats {
    let net = core.net;
    let view = &core.view;
    let n = core.n;
    let index = core.index.as_ref().expect("descent index built");

    let mut tracker = OutputTracker::new(net, &state.stages);
    let mut output_stage = tracker.max;

    // Per-pin cached costs under the incumbent; PO pins revalidate lazily
    // against `out_gen` exactly like the reference.
    let mut taps = std::mem::take(&mut state.taps);
    let mut pin_cost: Vec<usize> = (0..view.num_pins())
        .map(|pi| {
            state_pin_cost(
                core,
                &state.stages,
                output_stage,
                &state.t1_arrival,
                &mut taps,
                pi,
            )
        })
        .collect();
    let mut out_gen: u32 = 0;
    let mut pin_gen: Vec<u32> = vec![0; view.num_pins()];
    let mut cands = std::mem::take(&mut state.cands);
    // Cells whose evaluation may return a move; all start dirty.
    let mut dirty = vec![true; net.num_cells()];
    let mut stats = DescentStats::default();

    for _pass in 0..MAX_PASSES {
        stats.passes += 1;
        let mut improved = false;
        for &id in &view.order {
            let kind = net.kind(id);
            if !kind.is_clocked() {
                continue;
            }
            // Supervised-flow budget check; a thread-local no-op whenever no
            // budget is installed. Clean cells tick too, so node ceilings
            // count visits, not evaluations.
            sfq_netlist::budget::tick(1);
            if !std::mem::take(&mut dirty[id.0 as usize]) {
                continue;
            }
            stats.evaluated += 1;
            let current = state.stages[id.0 as usize];
            let lo = clocked_lower_bound(net, &state.stages, id);
            let mut hi = u32::MAX;
            for port in 0..kind.num_ports() {
                let pin = Signal {
                    cell: id,
                    port: port as u8,
                };
                if let Some(pi) = view.pin_lookup(pin) {
                    for &v in view.plain(pi) {
                        hi = hi.min(state.stages[v.0 as usize] - 1);
                    }
                    for &(t1, _) in view.t1(pi) {
                        hi = hi.min(state.stages[t1.0 as usize] - 1);
                    }
                }
            }
            if lo > hi {
                continue;
            }
            cands.clear();
            let push_range = |cands: &mut Vec<u32>, from: u32, to: u32| {
                for s in from..=to {
                    cands.push(s);
                }
            };
            let span = 2 * n;
            push_range(&mut cands, lo, lo.saturating_add(span).min(hi));
            if hi != u32::MAX {
                push_range(&mut cands, hi.saturating_sub(span).max(lo), hi);
            }
            cands.push(current);
            cands.sort_unstable();
            cands.dedup();

            let affected = index.pins_of(id);
            let touched = index.t1s_of(id);
            let drives_output = tracker.po_count[id.0 as usize] > 0;
            let excl_out = if drives_output {
                tracker.max_excluding(id, current)
            } else {
                0
            };

            let mut base_affected = 0usize;
            for &pi in affected {
                let pi = pi as usize;
                if view.outputs(pi) > 0 && pin_gen[pi] != out_gen {
                    pin_cost[pi] = state_pin_cost(
                        core,
                        &state.stages,
                        output_stage,
                        &state.t1_arrival,
                        &mut taps,
                        pi,
                    );
                    pin_gen[pi] = out_gen;
                }
                base_affected += pin_cost[pi];
            }
            if drives_output {
                // A candidate may move σ_out; refresh every stale PO-pin
                // cache now, while `stages` still holds the incumbent.
                for &pi in &core.po_pins {
                    let pi = pi as usize;
                    if pin_gen[pi] != out_gen {
                        pin_cost[pi] = state_pin_cost(
                            core,
                            &state.stages,
                            output_stage,
                            &state.t1_arrival,
                            &mut taps,
                            pi,
                        );
                        pin_gen[pi] = out_gen;
                    }
                }
            }

            let mut best: Option<(i64, u32, u32)> = None; // (delta, stage, new σ_out)
            for &cand in &cands {
                if cand == current {
                    continue;
                }
                state.stages[id.0 as usize] = cand;
                // Re-solve the touched arrivals once per candidate; every
                // affected pin reads them from the scratch.
                state.cand_gen += 1;
                let mut feasible = true;
                for &ti in touched {
                    let ti = ti as usize;
                    let t1 = view.t1_cells[ti];
                    let tf = net.fanins(t1);
                    let fs = [
                        state.stages[tf[0].cell.0 as usize],
                        state.stages[tf[1].cell.0 as usize],
                        state.stages[tf[2].cell.0 as usize],
                    ];
                    match state.memo.solve(fs, state.stages[t1.0 as usize], n) {
                        Some(a) => {
                            state.cand_arr[ti] = a;
                            state.cand_ok[ti] = true;
                        }
                        None => {
                            state.cand_ok[ti] = false;
                            feasible = false;
                        }
                    }
                    state.cand_stamp[ti] = state.cand_gen;
                }
                if !feasible {
                    // The reference rejects this candidate at the first
                    // affected pin reading the infeasible arrival; every
                    // touched T1's fanin pins are in the affected list, so
                    // the outcome is identical.
                    continue;
                }
                let new_out = if drives_output {
                    excl_out.max(cand)
                } else {
                    output_stage
                };
                let out_changed = new_out != output_stage;
                let mut ok = true;
                let mut new_affected = 0usize;
                for &pi in affected {
                    match probe_pin_cost(
                        core,
                        &state.stages,
                        new_out,
                        &state.t1_arrival,
                        &state.cand_arr,
                        &state.cand_ok,
                        &state.cand_stamp,
                        state.cand_gen,
                        &mut taps,
                        pi as usize,
                    ) {
                        Some(c) => new_affected += c,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                let mut extra_delta = 0i64;
                if ok && out_changed {
                    for &pi in &core.po_pins {
                        if affected.binary_search(&pi).is_ok() {
                            continue;
                        }
                        match probe_pin_cost(
                            core,
                            &state.stages,
                            new_out,
                            &state.t1_arrival,
                            &state.cand_arr,
                            &state.cand_ok,
                            &state.cand_stamp,
                            state.cand_gen,
                            &mut taps,
                            pi as usize,
                        ) {
                            Some(c) => extra_delta += c as i64 - pin_cost[pi as usize] as i64,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if ok {
                    let delta = new_affected as i64 - base_affected as i64 + extra_delta;
                    let better = match best {
                        None => delta < 0,
                        Some((bd, bs, _)) => delta < bd || (delta == bd && cand < bs),
                    };
                    if better {
                        best = Some((delta, cand, new_out));
                    }
                }
            }
            state.stages[id.0 as usize] = current;
            if let Some((_, cand, new_out)) = best {
                state.stages[id.0 as usize] = cand;
                // Commit the touched arrivals for the accepted stage.
                for &ti in touched {
                    let ti = ti as usize;
                    let t1 = view.t1_cells[ti];
                    let tf = net.fanins(t1);
                    let fs = [
                        state.stages[tf[0].cell.0 as usize],
                        state.stages[tf[1].cell.0 as usize],
                        state.stages[tf[2].cell.0 as usize],
                    ];
                    state.t1_arrival[ti] = state
                        .memo
                        .solve(fs, state.stages[t1.0 as usize], n)
                        .expect("accepted move is feasible");
                }
                if drives_output {
                    tracker.move_cell(id, current, cand, new_out);
                }
                let out_moved = new_out != output_stage;
                if out_moved {
                    output_stage = new_out;
                    out_gen = out_gen.wrapping_add(1);
                }
                improved = true;
                stats.moved += 1;
                let mut po_pin_moved = false;
                for &pi in affected {
                    let pi = pi as usize;
                    pin_cost[pi] = state_pin_cost(
                        core,
                        &state.stages,
                        output_stage,
                        &state.t1_arrival,
                        &mut taps,
                        pi,
                    );
                    pin_gen[pi] = out_gen;
                    po_pin_moved |= view.outputs(pi) > 0;
                    for &r in index.readers_of(pi) {
                        dirty[r as usize] = true;
                    }
                }
                if out_moved {
                    for &pi in &core.po_pins {
                        for &r in index.readers_of(pi as usize) {
                            dirty[r as usize] = true;
                        }
                    }
                }
                if po_pin_moved {
                    // Every PO driver reads every PO pin's cost (the σ_out
                    // delta) and the σ-histogram (`max_excluding`).
                    for &d in &index.po_drivers {
                        dirty[d as usize] = true;
                    }
                }
                // Re-evaluating the mover now would find no move.
                dirty[id.0 as usize] = false;
            }
        }
        if !improved {
            break;
        }
    }
    state.output_stage = max_output_stage(net, &state.stages);
    state.taps = taps;
    state.cands = cands;
    stats
}

// ======================================================================
// Deterministic restart perturbation
// ======================================================================

#[inline]
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// ASAP stages with a deterministic per-cell jitter of `0..=n` extra stages,
/// computed in topological order so every seed is feasible by construction.
/// The jitter stream depends only on the restart index, which is what
/// makes multi-restart results bit-identical across hosts.
fn perturbed_asap(core: &EngineCore<'_>, restart: u64) -> Vec<u32> {
    let mut rng = restart
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x51AF_8B3C_6E2D_94F7)
        | 1;
    let net = core.net;
    let mut stages = vec![0u32; net.num_cells()];
    for &id in &core.view.order {
        if !net.kind(id).is_clocked() {
            continue;
        }
        let base = clocked_lower_bound(net, &stages, id);
        let jitter = ((xorshift(&mut rng) as u128 * (core.n as u128 + 1)) >> 64) as u32;
        stages[id.0 as usize] = base + jitter;
    }
    stages
}

// ======================================================================
// Public engine
// ======================================================================

/// The shared incremental substrate of phase assignment and DFF insertion:
/// one owner for the stage vector, T1 arrivals, per-pin chain demands, the
/// σ-histogram and the memoized chain plans. See the [module docs](self)
/// for the invalidation rule and the restart determinism contract.
pub struct TimingEngine<'a> {
    core: EngineCore<'a>,
    state: EngineState,
    /// Memoized chain plans for the current state (CSR over pins),
    /// invalidated whenever the state moves.
    plans: Option<(Vec<u32>, Vec<u32>)>,
}

impl<'a> TimingEngine<'a> {
    /// Creates an engine over `net` under an `n`-phase clock, seeded with
    /// the ASAP stage assignment.
    ///
    /// # Errors
    /// [`PhaseError::ZeroPhases`] when `n == 0`,
    /// [`PhaseError::TooFewPhasesForT1`] when the network contains T1 cells
    /// and `n < 4`, [`PhaseError::BadNetwork`] when the network is cyclic or
    /// malformed.
    pub fn new(net: &'a Network, n: u8) -> Result<Self, PhaseError> {
        let core = Self::build_core(net, n)?;
        let stages = asap_stages(net, &core.view);
        let state = EngineState::new(&core, stages, None)?;
        Ok(TimingEngine {
            core,
            state,
            plans: None,
        })
    }

    /// Creates an engine directly in the state described by `assignment`
    /// (the DFF-insertion entry point — no ASAP seeding work).
    ///
    /// # Errors
    /// As [`TimingEngine::new`], plus [`PhaseError::TooFewPhasesForT1`]
    /// when a T1 arrival is infeasible under the given stages.
    pub fn with_assignment(
        net: &'a Network,
        n: u8,
        assignment: &StageAssignment,
    ) -> Result<Self, PhaseError> {
        let core = Self::build_core(net, n)?;
        let state = EngineState::new(
            &core,
            assignment.stages.clone(),
            Some(assignment.output_stage),
        )?;
        Ok(TimingEngine {
            core,
            state,
            plans: None,
        })
    }

    fn build_core(net: &'a Network, n: u8) -> Result<EngineCore<'a>, PhaseError> {
        if n == 0 {
            return Err(PhaseError::ZeroPhases);
        }
        let view = build_view(net)?;
        if !view.t1_cells.is_empty() && n < 4 {
            return Err(PhaseError::TooFewPhasesForT1 { phases: n });
        }
        let mut t1_ordinal = vec![u32::MAX; net.num_cells()];
        for (i, &t1) in view.t1_cells.iter().enumerate() {
            t1_ordinal[t1.0 as usize] = i as u32;
        }
        let po_pins = view.po_pins();
        Ok(EngineCore {
            net,
            view,
            n: u32::from(n),
            n_u8: n,
            t1_ordinal,
            po_pins,
            index: None,
        })
    }

    /// Replaces the engine state with `assignment` (e.g. a MILP solution or
    /// a restored incumbent), re-resolving every T1 arrival.
    ///
    /// # Errors
    /// [`PhaseError::TooFewPhasesForT1`] when a T1 arrival is infeasible
    /// under the given stages.
    pub fn seed(&mut self, assignment: &StageAssignment) -> Result<(), PhaseError> {
        self.state = EngineState::new(
            &self.core,
            assignment.stages.clone(),
            Some(assignment.output_stage),
        )?;
        self.plans = None;
        Ok(())
    }

    fn ensure_index(&mut self) {
        if self.core.index.is_none() {
            self.core.index = Some(DescentIndex::build(
                self.core.net,
                &self.core.view,
                &self.core.t1_ordinal,
            ));
        }
    }

    /// Runs the coordinate descent from the current state to a local
    /// minimum (bit-identical to the reference heuristic when started from
    /// the ASAP seed).
    pub fn descend(&mut self) {
        self.descend_counted();
    }

    /// [`TimingEngine::descend`], returning the descent's work counters.
    pub(crate) fn descend_counted(&mut self) -> DescentStats {
        self.ensure_index();
        self.plans = None;
        descend(&self.core, &mut self.state)
    }

    /// Multi-restart descent: restart 0 descends from the current state;
    /// restarts `1..restarts` then descend, in index order on the calling
    /// thread, from deterministically perturbed ASAP seeds. Keeps the state
    /// with the smallest `(total cost, restart index)`.
    /// `restarts ≤ 1` is exactly [`TimingEngine::descend`].
    pub fn optimize(&mut self, restarts: usize) {
        self.descend();
        if restarts <= 1 {
            return;
        }
        let core = &self.core;
        // Best by (cost, restart index); restart 0 (the unperturbed
        // descent) wins all ties.
        let mut best_cost = state_total_cost(core, &mut self.state);
        for i in 1..restarts as u64 {
            let mut st = EngineState::new(core, perturbed_asap(core, i), None)
                .expect("perturbed ASAP seeds are feasible by construction");
            descend(core, &mut st);
            let cost = state_total_cost(core, &mut st);
            if cost < best_cost {
                best_cost = cost;
                self.state = st;
            }
        }
    }

    /// Runs the requested phase-assignment mode on the engine and leaves
    /// the winning state loaded (so [`TimingEngine::emit`] consumes it
    /// without re-deriving anything).
    ///
    /// `Exact` and the exact half of `Auto` solve the MILP warm-started
    /// from the engine's single-restart descent incumbent, then seed the
    /// engine with the MILP solution; `restarts` applies to the heuristic
    /// paths only.
    ///
    /// # Errors
    /// [`PhaseError::Milp`] when the exact engine fails.
    pub fn assign(
        &mut self,
        mode: PhaseEngine,
        restarts: usize,
    ) -> Result<StageAssignment, PhaseError> {
        match mode {
            PhaseEngine::Heuristic => {
                self.optimize(restarts);
                Ok(self.assignment())
            }
            PhaseEngine::Exact => self.exact(EXACT_NODE_LIMIT).map(|(asg, _)| asg),
            PhaseEngine::Auto if auto_takes_exact(self.core.net, self.core.view.t1_cells.len()) => {
                self.exact(AUTO_NODE_LIMIT).map(|(asg, _)| asg)
            }
            PhaseEngine::Auto => {
                self.optimize(restarts);
                Ok(self.assignment())
            }
        }
    }

    /// Exact MILP refinement: descend for the warm-start incumbent, solve,
    /// and reload the engine state from the solution. Returns the solver's
    /// [`MilpSolution`] too, for its work counters.
    pub(crate) fn exact(
        &mut self,
        node_limit: usize,
    ) -> Result<(StageAssignment, MilpSolution), PhaseError> {
        self.descend();
        let seed = self.assignment();
        let cache = ArrivalCache::new();
        let (asg, sol) = exact_assign(
            self.core.net,
            &self.core.view,
            self.core.n,
            node_limit,
            &cache,
            seed,
        )?;
        self.seed(&asg)?;
        Ok((asg, sol))
    }

    /// Total chain-DFF cost of the current state (the quantity DFF
    /// insertion will materialize).
    pub fn total_cost(&mut self) -> usize {
        state_total_cost(&self.core, &mut self.state)
    }

    /// The current stage assignment.
    pub fn assignment(&self) -> StageAssignment {
        StageAssignment {
            stages: self.state.stages.clone(),
            output_stage: self.state.output_stage,
        }
    }

    /// Materializes (and memoizes) the per-pin chain plans of the current
    /// state: for every driven pin, the sorted DFF stages of its shared
    /// chain — exactly what [`plan_chain`](crate::chains::plan_chain)
    /// returns for the pin's demand — appended to one shared buffer by
    /// [`plan_chain_sorted_into`], with no per-pin allocation.
    fn ensure_plans(&mut self) {
        if self.plans.is_some() {
            return;
        }
        let core = &self.core;
        let state = &self.state;
        let mut offsets: Vec<u32> = Vec::with_capacity(core.view.num_pins() + 1);
        let mut chain_stages: Vec<u32> = Vec::new();
        let mut taps: Vec<u32> = Vec::new();
        offsets.push(0);
        for pi in 0..core.view.num_pins() {
            let (su, max_plain) = pin_demand(
                core,
                &state.stages,
                state.output_stage,
                &mut taps,
                pi,
                |ti| Some(state.t1_arrival[ti]),
            )
            .expect("committed arrivals are feasible");
            plan_chain_sorted_into(su, &taps, max_plain, core.n, &mut chain_stages);
            offsets.push(chain_stages.len() as u32);
        }
        self.plans = Some((offsets, chain_stages));
    }

    /// Emits the fully retimed [`TimedNetwork`] of the current state: a
    /// straight emission pass over the memoized chain plans — no demand
    /// re-derivation, no hashing.
    pub fn emit(&mut self) -> TimedNetwork {
        self.ensure_plans();
        let (offsets, chain_stages) = self.plans.as_ref().expect("plans just built");
        emit_planned(
            self.core.net,
            &self.core.view,
            &self.state.stages,
            self.state.output_stage,
            self.core.n_u8,
            &self.core.t1_ordinal,
            &self.state.t1_arrival,
            offsets,
            chain_stages,
        )
    }

    /// Number of T1 cells in the subject network.
    pub fn num_t1(&self) -> usize {
        self.core.view.t1_cells.len()
    }
}
