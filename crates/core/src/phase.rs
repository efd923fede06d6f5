//! Multiphase clock-stage assignment (paper §II-B).
//!
//! Every clocked cell gets a stage `σ(g) = n·S(g) + φ(g)` (eq. 1). The
//! objective is the number of path-balancing DFFs the subsequent insertion
//! step will materialize: one shared chain per driven pin plus the exact-tap
//! DFFs that T1 input separation (eqs. 3–5) and primary-output alignment
//! demand. Two engines solve the problem:
//!
//! * [`PhaseEngine::Exact`] — a MILP over stage variables, per-pin chain
//!   variables and explicit T1 arrival-slot variables with pairwise
//!   distinctness (big-M booleans). Modelling arrivals explicitly subsumes
//!   the paper's eq. 4 separation-cost approximation: a delayed arrival is
//!   charged through the chain variable of its driver directly.
//! * [`PhaseEngine::Heuristic`] — ASAP seeding followed by coordinate-descent
//!   stage moves evaluated against the *true* materialization cost (the same
//!   [`chains`](crate::chains) planner DFF insertion runs), so the heuristic
//!   optimizes exactly what gets built.
//!
//! `Auto` picks Exact below a size threshold and Heuristic above it, which is
//! how the Table I benchmarks run.
//!
//! Since the timing-engine refactor the public entry points
//! ([`assign_phases`], [`assign_phases_with_restarts`]) run on
//! [`TimingEngine`](crate::engine::TimingEngine), which shares its resolved
//! arrivals and chain plans with DFF insertion; this module keeps the
//! problem model (views, arrival solvers, cost model, the MILP) and the
//! original descent, the latter alive as the executable specification
//! [`assign_phases_reference`]. The hot-path notes below describe that
//! reference descent; the engine inherits all of them and adds the
//! incremental invalidation documented in [`crate::engine`].
//!
//! # Hot-path design (see `benches/hotpaths.rs` for the regression gates)
//!
//! The heuristic inner loop evaluates `O(cells × candidates)` stage moves per
//! descent pass, each re-pricing a handful of pins; at Table I scale that is
//! millions of pin costings per run. Three mechanisms keep it fast:
//!
//! * **Closed-form arrival solving.** [`solve_arrivals`] no longer
//!   enumerates the `O(w³)` window; it reduces the problem to *relative*
//!   slots `r_k = σ_j − a_k` where the DFF cost of fanin `k` is
//!   `⌊Δ_k/n⌋ + [r_k < Δ_k mod n]` (`Δ_k = σ_j − σ_fanin`), and the optimal
//!   distinct assignment is found by greedy placement along each of the 3!
//!   value orders — six candidates instead of hundreds. The result is
//!   bit-identical to the old enumerator (minimum cost, then
//!   lexicographically smallest arrival vector; the reference enumerator
//!   survives as [`solve_arrivals_enum`], and the test suite sweeps the
//!   full small-parameter domain against it and against the eq. 3–5 slot
//!   rules).
//! * **Memoized arrivals.** The reduced problem depends only on
//!   `(Δ_k mod n, min(Δ_k, n−1))` per fanin — not on absolute stages — so
//!   the same key recurs thousands of times per run as the descent slides
//!   whole regions of the netlist. [`ArrivalCache`] memoizes the relative
//!   solution for the reference descent (whose cache its MILP warm start
//!   shares) and for [`insert_dffs_reference`](crate::insert_dffs_reference);
//!   on the engine path the descent and DFF emission share the engine's own
//!   open-addressed memo, and the MILP warm start builds a fresh cache.
//! * **Incremental bookkeeping.** Pin lookup is a flat
//!   `cell × port`-indexed table (no hashing) into the CSR pin view
//!   `NetView`, whose sink lists are slices of two flat arrays built in
//!   one count-and-fill pass; the common output stage is
//!   maintained by a histogram tracker so a candidate's `σ_out` is O(1)
//!   instead of a primary-output rescan; primary-output pin costs are
//!   refreshed lazily via a generation stamp when `σ_out` moves (previously
//!   every accepted move rescanned every PO pin); per-cell affected-pin
//!   lists are precomputed in CSR form; and chain costs are counted
//!   arithmetically ([`chains::chain_cost_sorted`](crate::chains::chain_cost_sorted))
//!   into reusable scratch buffers instead of materializing plan vectors.
//!
//! Measured effect when these mechanisms landed (criterion medians, one
//! dev machine, 2026-07): `assign_phases/adder32_t1` 169 µs → 33 µs (5.1×),
//! `assign_phases/multiplier12_t1` 1.11 ms → 0.31 ms (3.6×); at paper
//! scale the phase stage of `profile_scale` dropped 3.7–16× per benchmark
//! (log2: 112 ms → 30 ms) with bit-identical assignments. `BENCH_flow.json`
//! keeps those snapshots as history; current numbers come from `perfbench`
//! (see `BENCHMARK.json`) and the criterion gates.

use crate::chains::chain_cost_sorted;
use sfq_netlist::{CellId, CellKind, Network, Signal, T1_NUM_PORTS};
use sfq_solver::{Cmp, MilpProblem, MilpSolution, SolverError};
use std::cell::RefCell;
use std::collections::HashMap;

/// Which solver runs phase assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseEngine {
    /// Exact MILP (bounded sizes).
    Exact,
    /// ASAP + coordinate descent (any size).
    Heuristic,
    /// Exact when the network is small enough, heuristic otherwise.
    Auto,
}

/// A stage (σ) per cell plus the common primary-output stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAssignment {
    /// Stage per cell (indexed by `CellId`); primary inputs are 0.
    pub stages: Vec<u32>,
    /// Common stage at which every primary output is sampled.
    pub output_stage: u32,
}

/// Errors from phase assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseError {
    /// T1 cells need at least 4 phases (3 distinct arrival slots in a window
    /// of `n − 1` stages).
    TooFewPhasesForT1 {
        /// The requested phase count.
        phases: u8,
    },
    /// `phases` must be at least 1.
    ZeroPhases,
    /// The exact engine failed (size, numerics); callers may retry with the
    /// heuristic.
    Milp(SolverError),
    /// The network is cyclic or malformed.
    BadNetwork(String),
}

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseError::TooFewPhasesForT1 { phases } => {
                write!(f, "T1 cells need ≥ 4 phases, got {phases}")
            }
            PhaseError::ZeroPhases => write!(f, "need at least one clock phase"),
            PhaseError::Milp(e) => write!(f, "exact phase assignment failed: {e}"),
            PhaseError::BadNetwork(e) => write!(f, "bad network: {e}"),
        }
    }
}

impl std::error::Error for PhaseError {}

// ======================================================================
// Shared structural view
// ======================================================================

/// The pin/sink view of a subject network, in CSR form.
///
/// Every *driven* pin (one that a cell or a primary output reads) gets a
/// dense index in signal order (cell, then port). Its plain sinks, its
/// `(T1 cell, fanin index)` sinks, its [`Signal`] and its primary-output
/// count are read through the slice accessors ([`NetView::plain`],
/// [`NetView::t1`], [`NetView::signal`], [`NetView::outputs`]); the two
/// sink lists are flat arrays with per-pin offsets, each list in cell-id
/// order. [`build_view`] fills them with one count pass, one prefix sum
/// and one fill pass — no per-pin heap allocation.
#[derive(Debug, Clone)]
pub(crate) struct NetView {
    /// Driver signal per pin, in deterministic (signal) order.
    sigs: Vec<Signal>,
    /// Primary outputs read per pin.
    outputs: Vec<u32>,
    /// `plain_off[pi]..plain_off[pi + 1]` indexes `plain`.
    plain_off: Vec<u32>,
    /// Plain (window-tapping) consumer cells of every pin.
    plain: Vec<CellId>,
    /// `t1_off[pi]..t1_off[pi + 1]` indexes `t1`.
    t1_off: Vec<u32>,
    /// `(t1 cell, fanin index)` consumers of every pin.
    t1: Vec<(CellId, u8)>,
    /// Flat `cell × port → pin index` table (`u32::MAX` = undriven pin).
    pin_of: Vec<u32>,
    /// All T1 cells.
    pub t1_cells: Vec<CellId>,
    /// Topological order of cells.
    pub order: Vec<CellId>,
}

#[inline]
pub(crate) fn flat_pin(s: Signal) -> usize {
    s.cell.0 as usize * T1_NUM_PORTS + s.port as usize
}

impl NetView {
    /// Pin index of a signal, if any sink or output reads it.
    #[inline]
    pub fn pin_lookup(&self, s: Signal) -> Option<usize> {
        match self.pin_of[flat_pin(s)] {
            u32::MAX => None,
            i => Some(i as usize),
        }
    }

    /// Number of driven pins.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.sigs.len()
    }

    /// The driver signal of pin `pi`.
    #[inline]
    pub fn signal(&self, pi: usize) -> Signal {
        self.sigs[pi]
    }

    /// Plain consumer cells of pin `pi`.
    #[inline]
    pub fn plain(&self, pi: usize) -> &[CellId] {
        &self.plain[self.plain_off[pi] as usize..self.plain_off[pi + 1] as usize]
    }

    /// `(t1 cell, fanin index)` consumers of pin `pi`.
    #[inline]
    pub fn t1(&self, pi: usize) -> &[(CellId, u8)] {
        &self.t1[self.t1_off[pi] as usize..self.t1_off[pi + 1] as usize]
    }

    /// Number of primary outputs pin `pi` drives.
    #[inline]
    pub fn outputs(&self, pi: usize) -> u32 {
        self.outputs[pi]
    }

    /// Indices of the pins that drive at least one primary output.
    pub fn po_pins(&self) -> Vec<u32> {
        (0..self.num_pins() as u32)
            .filter(|&pi| self.outputs[pi as usize] > 0)
            .collect()
    }
}

pub(crate) fn build_view(net: &Network) -> Result<NetView, PhaseError> {
    let order = net
        .topological_order()
        .map_err(|e| PhaseError::BadNetwork(e.to_string()))?;
    // Count pass: sinks per flat `cell × port` pin.
    let nflat = net.num_cells() * T1_NUM_PORTS;
    let mut n_plain = vec![0u32; nflat];
    let mut n_t1 = vec![0u32; nflat];
    let mut n_out = vec![0u32; nflat];
    let mut t1_cells = Vec::new();
    for id in net.cell_ids() {
        let counts = if matches!(net.kind(id), CellKind::T1 { .. }) {
            t1_cells.push(id);
            &mut n_t1
        } else {
            &mut n_plain
        };
        for &f in net.fanins(id) {
            counts[flat_pin(f)] += 1;
        }
    }
    for &o in net.outputs() {
        n_out[flat_pin(o)] += 1;
    }
    // Prefix sum over the read pins in flat (= signal) order; the count
    // tables become each pin's fill cursor.
    let mut sigs = Vec::new();
    let mut outputs = Vec::new();
    let mut plain_off = vec![0u32];
    let mut t1_off = vec![0u32];
    let mut pin_of = vec![u32::MAX; nflat];
    let (mut plain_len, mut t1_len) = (0u32, 0u32);
    for idx in 0..nflat {
        if n_plain[idx] == 0 && n_t1[idx] == 0 && n_out[idx] == 0 {
            continue;
        }
        pin_of[idx] = sigs.len() as u32;
        sigs.push(Signal {
            cell: CellId((idx / T1_NUM_PORTS) as u32),
            port: (idx % T1_NUM_PORTS) as u8,
        });
        outputs.push(n_out[idx]);
        let (np, nt) = (n_plain[idx], n_t1[idx]);
        n_plain[idx] = plain_len;
        n_t1[idx] = t1_len;
        plain_len += np;
        t1_len += nt;
        plain_off.push(plain_len);
        t1_off.push(t1_len);
    }
    // Fill pass, in cell-id order like the counts.
    let mut plain = vec![CellId(0); plain_len as usize];
    let mut t1 = vec![(CellId(0), 0u8); t1_len as usize];
    for id in net.cell_ids() {
        let is_t1 = matches!(net.kind(id), CellKind::T1 { .. });
        for (k, &f) in net.fanins(id).iter().enumerate() {
            let fp = flat_pin(f);
            if is_t1 {
                t1[n_t1[fp] as usize] = (id, k as u8);
                n_t1[fp] += 1;
            } else {
                plain[n_plain[fp] as usize] = id;
                n_plain[fp] += 1;
            }
        }
    }
    Ok(NetView {
        sigs,
        outputs,
        plain_off,
        plain,
        t1_off,
        t1,
        pin_of,
        t1_cells,
        order,
    })
}

// ======================================================================
// T1 arrival-slot solving (shared with DFF insertion)
// ======================================================================

/// Fanin-order permutations of the three arrival values, in the order that
/// makes the greedy sweep below return the lexicographically-smallest
/// minimum-cost arrival vector (see `solve_arrivals_rel`).
const ARRIVAL_PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Solves the window-relative arrival problem: choose pairwise-distinct
/// `r_k ∈ [1, cap_k]` minimizing `Σ [r_k < m_k]`, tie-broken towards the
/// lexicographically smallest arrival vector (`a_k = σ_j − r_k`, i.e. the
/// *largest* `r_0`, then `r_1`, then `r_2`).
///
/// `m_k = Δ_k mod n` and `cap_k = min(Δ_k, n−1)` with `Δ_k = σ_j − σ_fanin`:
/// within the window every fanin's DFF cost is `⌊Δ_k/n⌋` plus one extra DFF
/// iff its slot is *later* than `m_k` stages before `σ_j` — so the choice
/// depends only on `(m, cap)` per fanin, which is what makes memoization by
/// relative key effective.
///
/// Exactness of the 3!-permutation greedy: per-fanin cost is nondecreasing
/// in the arrival stage, so for any fixed relative order of the three
/// arrival values the pointwise-minimal (greedy) assignment is optimal and
/// lexicographically minimal; scanning all six orders covers every optimum.
pub(crate) fn solve_arrivals_rel(m: [u32; 3], cap: [u32; 3]) -> Option<[u8; 3]> {
    let mut best: Option<(u32, [u32; 3])> = None;
    for perm in ARRIVAL_PERMS {
        // perm[0] takes the earliest arrival = the largest r.
        let mut r = [0u32; 3];
        let mut prev = u32::MAX;
        let mut ok = true;
        for &k in &perm {
            let v = cap[k].min(prev.saturating_sub(1));
            if v == 0 {
                ok = false;
                break;
            }
            r[k] = v;
            prev = v;
        }
        if !ok {
            continue;
        }
        let cost = (0..3).map(|k| u32::from(r[k] < m[k])).sum::<u32>();
        let better = match &best {
            None => true,
            // Larger r is an earlier arrival: prefer (r[0], r[1], r[2])
            // lexicographically *largest* among equal costs, which is the
            // arrival vector lexicographically smallest.
            Some((bc, br)) => cost < *bc || (cost == *bc && r > *br),
        };
        if better {
            best = Some((cost, r));
        }
    }
    best.map(|(_, r)| [r[0] as u8, r[1] as u8, r[2] as u8])
}

/// Window-relative reduction of one arrival query: `(m_k, cap_k)` per fanin,
/// or `None` when some fanin fires at/after the window closes.
/// Packs one window-relative arrival key (`m`, `cap`, `n`, each `< 256`)
/// into a `u64`. The single source of truth for the memo-key bit layout,
/// shared by [`ArrivalCache`] and the engine's open-addressed memo so the
/// two can never drift. `n ∈ 1..=255` lands in bits 48..56, so a packed
/// key is never 0 — the engine memo uses 0 as its empty-slot marker.
#[inline]
pub(crate) fn pack_arrival_key(m: [u32; 3], cap: [u32; 3], n: u32) -> u64 {
    debug_assert!((1..256).contains(&n));
    u64::from(m[0] as u8)
        | u64::from(cap[0] as u8) << 8
        | u64::from(m[1] as u8) << 16
        | u64::from(cap[1] as u8) << 24
        | u64::from(m[2] as u8) << 32
        | u64::from(cap[2] as u8) << 40
        | u64::from(n as u8) << 48
}

#[inline]
pub(crate) fn arrival_key(
    fanin_stages: [u32; 3],
    sigma_j: u32,
    n: u32,
) -> Option<([u32; 3], [u32; 3])> {
    debug_assert!(n >= 1);
    let mut m = [0u32; 3];
    let mut cap = [0u32; 3];
    for k in 0..3 {
        if fanin_stages[k] >= sigma_j {
            return None; // Δ_k < 1: the fanin cannot arrive inside the window
        }
        let delta = sigma_j - fanin_stages[k];
        m[k] = delta % n;
        cap[k] = delta.min(n - 1);
    }
    Some((m, cap))
}

/// Chooses pairwise-distinct arrival stages for the three fanins of a T1
/// cell at stage `sigma_j`, minimizing the chain DFFs needed to realize
/// them. `fanin_stages[k]` is the stage of the k-th fanin's driving cell.
///
/// Returns `None` when no feasible assignment exists (the caller's stage
/// bounds make this unreachable in the flow).
///
/// Closed-form small-candidate solver; produces exactly the result of the
/// reference enumerator [`solve_arrivals_enum`] (minimum cost, then
/// lexicographically smallest arrival vector) at O(1) instead of O(n³).
pub fn solve_arrivals(fanin_stages: [u32; 3], sigma_j: u32, n: u32) -> Option<[u32; 3]> {
    let (m, cap) = arrival_key(fanin_stages, sigma_j, n)?;
    let r = solve_arrivals_rel(m, cap)?;
    Some([
        sigma_j - u32::from(r[0]),
        sigma_j - u32::from(r[1]),
        sigma_j - u32::from(r[2]),
    ])
}

/// The original O(window³) arrival enumerator, kept as the reference
/// implementation: the test suite sweeps [`solve_arrivals`] against it over
/// the full small-parameter domain.
pub fn solve_arrivals_enum(fanin_stages: [u32; 3], sigma_j: u32, n: u32) -> Option<[u32; 3]> {
    let win_lo = sigma_j.saturating_sub(n - 1);
    let win_hi = sigma_j.checked_sub(1)?;
    let mut best: Option<(usize, [u32; 3])> = None;
    let dom = |k: usize| -> std::ops::RangeInclusive<u32> { fanin_stages[k].max(win_lo)..=win_hi };
    for a0 in dom(0) {
        for a1 in dom(1) {
            if a1 == a0 {
                continue;
            }
            for a2 in dom(2) {
                if a2 == a0 || a2 == a1 {
                    continue;
                }
                let arr = [a0, a1, a2];
                let cost = arrival_cost(fanin_stages, arr, n);
                let better = match &best {
                    None => true,
                    Some((bc, ba)) => cost < *bc || (cost == *bc && arr < *ba),
                };
                if better {
                    best = Some((cost, arr));
                }
            }
        }
    }
    best.map(|(_, a)| a)
}

/// Memo cache for [`solve_arrivals`] keyed by the window-relative reduction
/// `(Δ_k mod n, min(Δ_k, n−1))₍k₌₀‥₂₎` plus `n` — the full invariant of the
/// solve, independent of absolute stages. The reference descent shares one
/// instance with its MILP warm start, and the reference DFF insertion keeps
/// its own; the same key recurs thousands of times per flow because
/// coordinate descent slides whole regions of the netlist without changing
/// stage *differences*.
///
/// Interior-mutable so read-mostly holders can share `&ArrivalCache`.
#[derive(Debug, Default)]
pub struct ArrivalCache {
    memo: RefCell<HashMap<u64, Option<[u8; 3]>>>,
}

impl ArrivalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized [`solve_arrivals`].
    pub fn solve(&self, fanin_stages: [u32; 3], sigma_j: u32, n: u32) -> Option<[u32; 3]> {
        if n >= 256 {
            // The packed key truncates components to bytes (valid because
            // m, cap < n ≤ 255 for every in-tree phase count, which comes
            // from a u8). Phase counts beyond that skip the memo rather
            // than risk key collisions.
            return solve_arrivals(fanin_stages, sigma_j, n);
        }
        let (m, cap) = arrival_key(fanin_stages, sigma_j, n)?;
        // cap < n ≤ 255 and m < n, so every component fits a byte.
        let key = pack_arrival_key(m, cap, n);
        let rel = *self
            .memo
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| solve_arrivals_rel(m, cap));
        let r = rel?;
        Some([
            sigma_j - u32::from(r[0]),
            sigma_j - u32::from(r[1]),
            sigma_j - u32::from(r[2]),
        ])
    }

    /// Number of distinct keys memoized so far (diagnostics).
    pub fn len(&self) -> usize {
        self.memo.borrow().len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.memo.borrow().is_empty()
    }
}

/// DFF cost of one arrival assignment: `Σ ⌈(aₖ − σ(fanin_k))/n⌉`.
pub fn arrival_cost(fanin_stages: [u32; 3], arrivals: [u32; 3], n: u32) -> usize {
    (0..3)
        .map(|k| {
            let s = fanin_stages[k];
            if arrivals[k] <= s {
                0
            } else {
                ((arrivals[k] - s) as usize).div_ceil(n as usize)
            }
        })
        .sum()
}

// ======================================================================
// Cost evaluation (the heuristic's objective = true materialization cost)
// ======================================================================

pub(crate) struct CostModel<'a> {
    pub net: &'a Network,
    /// Pin→sinks index the pin costs read.
    pub view: &'a NetView,
    pub n: u32,
    /// Shared arrival memo (heuristic, MILP warm-start, DFF insertion).
    cache: &'a ArrivalCache,
    /// Reusable exact-tap scratch for the counting-only chain cost.
    taps: RefCell<Vec<u32>>,
}

impl<'a> CostModel<'a> {
    pub fn new(net: &'a Network, view: &'a NetView, n: u32, cache: &'a ArrivalCache) -> Self {
        CostModel {
            net,
            view,
            n,
            cache,
            taps: RefCell::new(Vec::new()),
        }
    }

    /// Arrival stages for one T1 cell under `stages`.
    pub fn arrivals(&self, t1: CellId, stages: &[u32]) -> Option<[u32; 3]> {
        let f = self.net.fanins(t1);
        let fs = [
            stages[f[0].cell.0 as usize],
            stages[f[1].cell.0 as usize],
            stages[f[2].cell.0 as usize],
        ];
        self.cache.solve(fs, stages[t1.0 as usize], self.n)
    }

    /// Chain DFF count of pin `pi`; `None` on arrival infeasibility.
    ///
    /// Counting-only: exact taps are gathered into a reusable scratch
    /// buffer and costed arithmetically; no chain plan is materialized.
    pub fn pin_cost(&self, pi: usize, stages: &[u32], output_stage: u32) -> Option<usize> {
        let view = self.view;
        let su = stages[view.signal(pi).cell.0 as usize];
        let max_plain = view.plain(pi).iter().map(|v| stages[v.0 as usize]).max();
        let mut taps = self.taps.borrow_mut();
        taps.clear();
        for &(t1, k) in view.t1(pi) {
            let a = self.arrivals(t1, stages)?[k as usize];
            if a > su {
                taps.push(a);
            }
        }
        if view.outputs(pi) > 0 && output_stage > su {
            taps.push(output_stage);
        }
        taps.sort_unstable();
        taps.dedup();
        Some(chain_cost_sorted(su, &taps, max_plain, self.n))
    }

    /// Total DFF count over all pins; `None` on any infeasibility.
    ///
    /// This is the oracle the engines' objectives are tested against
    /// (`tests::heuristic_objective_equals_materialized_dffs`); the engines
    /// themselves evaluate incremental per-pin deltas.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn total_cost(&self, stages: &[u32], output_stage: u32) -> Option<usize> {
        let mut total = 0usize;
        for pi in 0..self.view.num_pins() {
            total += self.pin_cost(pi, stages, output_stage)?;
        }
        Some(total)
    }
}

// ======================================================================
// ASAP seeding
// ======================================================================

pub(crate) fn t1_lower_bound(mut fs: [u32; 3]) -> u32 {
    fs.sort_unstable();
    (fs[0] + 3).max(fs[1] + 2).max(fs[2] + 1)
}

/// Earliest feasible stage of clocked cell `id` given its fanin stages:
/// `1 + max(fanins)` for ordinary cells, the eq.-3 T1 window bound for T1
/// cells. The single source of the per-cell causality rule, shared by ASAP
/// seeding, both descents' candidate windows, and the engine's restart
/// perturbation (whose feasibility-by-construction argument relies on
/// using exactly this bound).
#[inline]
pub(crate) fn clocked_lower_bound(net: &Network, stages: &[u32], id: CellId) -> u32 {
    let f = net.fanins(id);
    if matches!(net.kind(id), CellKind::T1 { .. }) {
        t1_lower_bound([
            stages[f[0].cell.0 as usize],
            stages[f[1].cell.0 as usize],
            stages[f[2].cell.0 as usize],
        ])
    } else {
        1 + f
            .iter()
            .map(|s| stages[s.cell.0 as usize])
            .max()
            .unwrap_or(0)
    }
}

pub(crate) fn asap_stages(net: &Network, view: &NetView) -> Vec<u32> {
    let mut stages = vec![0u32; net.num_cells()];
    for &id in &view.order {
        if !net.kind(id).is_clocked() {
            continue;
        }
        stages[id.0 as usize] = clocked_lower_bound(net, &stages, id);
    }
    stages
}

pub(crate) fn max_output_stage(net: &Network, stages: &[u32]) -> u32 {
    net.outputs()
        .iter()
        .map(|o| stages[o.cell.0 as usize])
        .max()
        .unwrap_or(0)
}

// ======================================================================
// Public entry
// ======================================================================

/// Assigns clock stages to every cell of `net` under an `n`-phase clock.
///
/// Runs on the incremental [`TimingEngine`](crate::engine::TimingEngine);
/// bit-identical to [`assign_phases_reference`], the executable
/// specification the differential harness checks it against.
///
/// # Errors
/// [`PhaseError::TooFewPhasesForT1`] when the network contains T1 cells and
/// `n < 4`; [`PhaseError::Milp`] when the exact engine fails.
pub fn assign_phases(
    net: &Network,
    n: u8,
    engine: PhaseEngine,
) -> Result<StageAssignment, PhaseError> {
    assign_phases_with_restarts(net, n, engine, 1)
}

/// [`assign_phases`] with deterministic multi-restart descent: restart 0 is
/// the plain ASAP descent (so `restarts == 1` is exactly [`assign_phases`]);
/// restarts `1..` descend from deterministically perturbed ASAP seeds, and
/// the smallest `(DFF cost, restart index)` wins. The restarts run in index
/// order on the calling thread, so the result never depends on the worker
/// count.
/// Restarts apply to the heuristic paths; the exact MILP paths ignore them
/// (their warm start stays the single-descent incumbent).
///
/// # Errors
/// As [`assign_phases`].
pub fn assign_phases_with_restarts(
    net: &Network,
    n: u8,
    engine: PhaseEngine,
    restarts: usize,
) -> Result<StageAssignment, PhaseError> {
    let mut eng = crate::engine::TimingEngine::new(net, n)?;
    eng.assign(engine, restarts)
}

/// The pre-engine phase assignment, kept alive as the executable
/// specification of [`assign_phases`]: ASAP seeding plus the original
/// incremental coordinate descent ([`PhaseEngine::Heuristic`]), and the
/// same MILP formulation warm-started from that descent
/// ([`PhaseEngine::Exact`] / [`PhaseEngine::Auto`]).
/// `tests/differential_mapping.rs` asserts bit-identical assignments
/// against the engine across every benchmark generator.
///
/// # Errors
/// As [`assign_phases`].
pub fn assign_phases_reference(
    net: &Network,
    n: u8,
    engine: PhaseEngine,
) -> Result<StageAssignment, PhaseError> {
    if n == 0 {
        return Err(PhaseError::ZeroPhases);
    }
    let view = build_view(net)?;
    if !view.t1_cells.is_empty() && n < 4 {
        return Err(PhaseError::TooFewPhasesForT1 { phases: n });
    }
    let cache = ArrivalCache::new();
    let node_limit = match engine {
        PhaseEngine::Exact => EXACT_NODE_LIMIT,
        PhaseEngine::Auto if auto_takes_exact(net, view.t1_cells.len()) => AUTO_NODE_LIMIT,
        PhaseEngine::Heuristic | PhaseEngine::Auto => {
            return Ok(heuristic_assign(net, &view, n as u32, &cache))
        }
    };
    let seed = heuristic_assign(net, &view, n as u32, &cache);
    exact_assign(net, &view, n as u32, node_limit, &cache, seed).map(|(asg, _)| asg)
}

/// Whether [`PhaseEngine::Auto`] runs the bounded exact engine on `net`
/// (carrying `t1_cells` T1 cells) rather than the heuristic alone.
///
/// Calibrated with the `profile_flow` binary: the exact engine is
/// sub-second up to ~40 clocked cells at n = 1 or n ≥ 4, but each T1 cell
/// adds three big-M ordering booleans whose branching dominates, and
/// intermediate phase counts (n = 2, 3) blow up the optimality proof (314 s
/// on a 38-gate adder at n = 3). Auto therefore runs the exact engine under
/// a small node budget — warm-started from the heuristic incumbent it can
/// only improve on it — and falls back to the heuristic outright at scale.
pub(crate) fn auto_takes_exact(net: &Network, t1_cells: usize) -> bool {
    let clocked = net.cell_ids().filter(|&c| net.kind(c).is_clocked()).count();
    clocked <= 40 && t1_cells <= 4
}

/// Node budget of [`PhaseEngine::Exact`]: enough to prove optimality on
/// every instance the test oracle uses.
pub(crate) const EXACT_NODE_LIMIT: usize = 200_000;

/// Node budget of [`PhaseEngine::Auto`]'s bounded-effort exact runs. Each
/// node is a warm dual-simplex re-solve from the previous node's basis:
/// the criterion gate `assign_phases/c7552_4_t1`, whose 169-row LPs take
/// 1,343 pivots over all 500 nodes (≈ 2.7 per node), runs in 6–9 ms on a
/// 2-vCPU Xeon, ≈ 15 µs per node. The budget still closes small gaps over
/// the heuristic incumbent — on the adder8 probe, 500 nodes keep the full
/// n = 2 improvement (77 → 71 DFFs) found by the unbounded engine.
pub(crate) const AUTO_NODE_LIMIT: usize = 500;

// ======================================================================
// Exact MILP engine
// ======================================================================

/// Solves the phase-assignment MILP warm-started from `seed`. The solver's
/// [`MilpSolution`] rides along with the assignment so its work counters
/// (`nodes`, `lp_pivots`) can pin the branch-and-bound path in tests.
pub(crate) fn exact_assign(
    net: &Network,
    view: &NetView,
    n: u32,
    node_limit: usize,
    cache: &ArrivalCache,
    seed: StageAssignment,
) -> Result<(StageAssignment, MilpSolution), PhaseError> {
    // The caller's heuristic solution (the reference descent or the timing
    // engine's — bit-identical by contract) seeds branch & bound: it is
    // always feasible, so the MILP starts with a strong incumbent and mostly
    // just proves (or slightly improves) it. `cache` memoizes the handful of
    // arrival re-solves the warm start needs; the reference path shares it
    // with its heuristic seed, the engine path passes a fresh one (its own
    // memo lives in the engine — exact instances are ≤ 40 cells, so the
    // re-solves are noise).
    let seed_model = CostModel::new(net, view, n, cache);

    let asap = asap_stages(net, view);
    let depth_bound = (asap.iter().copied().max().unwrap_or(0) + n + 4).max(seed.output_stage + 2);
    let h = depth_bound as f64;
    let big_m = h + n as f64 + 2.0;

    // Longest path (in clocked edges) from each cell to a primary output:
    // σ(id) + rev[id] ≤ σ_out ≤ h gives a valid ALAP upper bound. Together
    // with the ASAP lower bound this shrinks every stage variable's box,
    // which is where most of the LP-relaxation slack lives.
    let rev = reverse_distances(net);

    let mut p = MilpProblem::new();
    // Warm-start values, recorded per variable id and handed to the solver
    // through the order-independent pair API.
    let mut ws: Vec<(sfq_solver::VarId, f64)> = Vec::new();
    // Stage vars for clocked cells (inputs fixed at 0 — no var).
    let mut sigma: HashMap<CellId, sfq_solver::VarId> = HashMap::new();
    for id in net.cell_ids() {
        if net.kind(id).is_clocked() {
            let lo = f64::from(asap[id.0 as usize].max(1));
            let ub = h - f64::from(rev[id.0 as usize]);
            let v = p.add_int_var(lo, ub, 0.0);
            p.set_branch_priority(v, 2);
            sigma.insert(id, v);
            ws.push((v, f64::from(seed.stages[id.0 as usize])));
        }
    }
    let stage_term =
        |id: CellId| -> Option<(sfq_solver::VarId, f64)> { sigma.get(&id).map(|&v| (v, 1.0)) };

    let out_lb = net
        .outputs()
        .iter()
        .map(|o| asap[o.cell.0 as usize])
        .max()
        .unwrap_or(0);
    let sigma_out = p.add_int_var(f64::from(out_lb), h, 0.0);
    p.set_branch_priority(sigma_out, 1);
    ws.push((sigma_out, f64::from(seed.output_stage)));

    // Arrival vars per T1 fanin.
    let mut arrivals: HashMap<(CellId, usize), sfq_solver::VarId> = HashMap::new();
    for &t1 in &view.t1_cells {
        let seed_arr = seed_model
            .arrivals(t1, &seed.stages)
            .expect("heuristic assignment is arrival-feasible");
        let sj = sigma[&t1];
        let mut avars = Vec::new();
        for k in 0..3 {
            let fanin_lb = f64::from(asap[net.fanins(t1)[k].cell.0 as usize]);
            let a = p.add_int_var(fanin_lb, h - 1.0, 0.0);
            p.set_branch_priority(a, 1);
            ws.push((a, f64::from(seed_arr[k])));
            arrivals.insert((t1, k), a);
            avars.push(a);
            // window: σj − (n−1) ≤ a ≤ σj − 1
            p.add_constraint(&[(sj, 1.0), (a, -1.0)], Cmp::Le, (n - 1) as f64);
            p.add_constraint(&[(sj, 1.0), (a, -1.0)], Cmp::Ge, 1.0);
            // a ≥ σ(fanin driver)
            let f = net.fanins(t1)[k];
            if let Some((fv, _)) = stage_term(f.cell) {
                p.add_constraint(&[(a, 1.0), (fv, -1.0)], Cmp::Ge, 0.0);
            } // inputs are at stage 0: a ≥ 0 already holds
        }
        // pairwise distinct via big-M order booleans
        for (x, y) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let b = p.add_bool_var(0.0);
            p.set_branch_priority(b, 3);
            ws.push((b, f64::from(seed_arr[x] > seed_arr[y])));
            // a_x + 1 ≤ a_y + M(1−b)  and  a_y + 1 ≤ a_x + M·b
            p.add_constraint(
                &[(avars[y], 1.0), (avars[x], -1.0), (b, big_m)],
                Cmp::Ge,
                1.0,
            );
            p.add_constraint(
                &[(avars[x], 1.0), (avars[y], -1.0), (b, -big_m)],
                Cmp::Ge,
                1.0 - big_m,
            );
        }
    }

    // Edge causality + chain variables per driven pin.
    for pi in 0..view.num_pins() {
        let pin = view.signal(pi);
        let k_var = p.add_int_var(0.0, h, 1.0);
        ws.push((k_var, seed_chain_k(&seed, &seed_model, pi, n)));
        let driver = stage_term(pin.cell);
        // helper closures to build terms with/without the driver var
        let add_edge = |p: &mut MilpProblem, consumer: sfq_solver::VarId| {
            // σv − σu ≥ 1
            let mut terms = vec![(consumer, 1.0)];
            if let Some((du, _)) = driver {
                terms.push((du, -1.0));
            }
            p.add_constraint(&terms, Cmp::Ge, 1.0);
        };
        for &v in view.plain(pi) {
            let sv = sigma[&v];
            add_edge(&mut p, sv);
            // n·k ≥ σv − σu − n
            let mut terms = vec![(k_var, n as f64), (sv, -1.0)];
            if let Some((du, _)) = driver {
                terms.push((du, 1.0));
            }
            p.add_constraint(&terms, Cmp::Ge, -(n as f64));
        }
        for &(t1, k) in view.t1(pi) {
            let a = arrivals[&(t1, usize::from(k))];
            // n·k_pin ≥ a − σu  (exact tap needs ⌈(a−σu)/n⌉ DFFs)
            let mut terms = vec![(k_var, n as f64), (a, -1.0)];
            if let Some((du, _)) = driver {
                terms.push((du, 1.0));
            }
            p.add_constraint(&terms, Cmp::Ge, 0.0);
        }
        if view.outputs(pi) > 0 {
            // σ_out ≥ σu; n·k ≥ σ_out − σu
            let mut ge = vec![(sigma_out, 1.0)];
            if let Some((du, _)) = driver {
                ge.push((du, -1.0));
            }
            p.add_constraint(&ge, Cmp::Ge, 0.0);
            let mut terms = vec![(k_var, n as f64), (sigma_out, -1.0)];
            if let Some((du, _)) = driver {
                terms.push((du, 1.0));
            }
            p.add_constraint(&terms, Cmp::Ge, 0.0);
        }
    }

    debug_assert_eq!(ws.len(), p.num_vars(), "one warm-start value per variable");
    p.set_warm_start_pairs(&ws);
    p.set_node_limit(node_limit);
    let sol = p.solve().map_err(PhaseError::Milp)?;
    let mut stages = vec![0u32; net.num_cells()];
    for (id, var) in &sigma {
        stages[id.0 as usize] = sol.int_value(*var) as u32;
    }
    let output_stage = sol.int_value(sigma_out) as u32;
    let asg = StageAssignment {
        stages,
        output_stage,
    };
    Ok((asg, sol))
}

/// Longest clocked path (edge count) from each cell to any primary output.
fn reverse_distances(net: &Network) -> Vec<u32> {
    let order = net.topological_order().expect("subject network is acyclic");
    let mut rev = vec![0u32; net.num_cells()];
    for &id in order.iter().rev() {
        let d = rev[id.0 as usize];
        for f in net.fanins(id) {
            let fd = &mut rev[f.cell.0 as usize];
            *fd = (*fd).max(d + 1);
        }
    }
    rev
}

/// Minimal chain-variable value consistent with the MILP's `k` constraints
/// under the seed assignment (the linearized chain count the objective sums).
fn seed_chain_k(seed: &StageAssignment, model: &CostModel<'_>, pi: usize, n: u32) -> f64 {
    let view = model.view;
    let su = i64::from(seed.stages[view.signal(pi).cell.0 as usize]);
    let n = i64::from(n);
    let ceil_div = |x: i64, d: i64| -> i64 {
        if x <= 0 {
            0
        } else {
            (x + d - 1) / d
        }
    };
    let mut k = 0i64;
    for &v in view.plain(pi) {
        k = k.max(ceil_div(i64::from(seed.stages[v.0 as usize]) - su - n, n));
    }
    for &(t1, idx) in view.t1(pi) {
        let arr = model
            .arrivals(t1, &seed.stages)
            .expect("heuristic assignment is arrival-feasible");
        k = k.max(ceil_div(i64::from(arr[usize::from(idx)]) - su, n));
    }
    if view.outputs(pi) > 0 {
        k = k.max(ceil_div(i64::from(seed.output_stage) - su, n));
    }
    k as f64
}

// ======================================================================
// Heuristic engine
// ======================================================================

/// Exact-maximum tracker over the primary-output driver stages: a histogram
/// plus the current maximum, so evaluating "σ_out if cell `c` moved to
/// stage `s`" is O(1) per candidate (one exclusion scan per *cell*, not per
/// candidate) and accepted moves update in O(1) amortized.
pub(crate) struct OutputTracker {
    /// `po_count[c]` = number of primary outputs driven by cell `c`.
    pub(crate) po_count: Vec<u32>,
    /// `hist[s]` = number of primary outputs whose driver sits at stage `s`.
    hist: Vec<u32>,
    /// Current maximum driver stage (= σ_out while descending).
    pub(crate) max: u32,
}

impl OutputTracker {
    pub(crate) fn new(net: &Network, stages: &[u32]) -> Self {
        let mut po_count = vec![0u32; net.num_cells()];
        let mut hist: Vec<u32> = Vec::new();
        let mut max = 0u32;
        for o in net.outputs() {
            let c = o.cell.0 as usize;
            po_count[c] += 1;
            let s = stages[c] as usize;
            if hist.len() <= s {
                hist.resize(s + 1, 0);
            }
            hist[s] += 1;
            max = max.max(s as u32);
        }
        OutputTracker {
            po_count,
            hist,
            max,
        }
    }

    /// Maximum PO driver stage when all of `cell`'s outputs are excluded.
    /// Called once per descended cell (not per candidate).
    pub(crate) fn max_excluding(&self, cell: CellId, cell_stage: u32) -> u32 {
        let cnt = self.po_count[cell.0 as usize];
        debug_assert!(cnt > 0, "only PO-driving cells query the tracker");
        if cell_stage < self.max || self.hist[self.max as usize] > cnt {
            return self.max;
        }
        // This cell holds every output at the current maximum: scan down.
        let mut s = self.max;
        while s > 0 {
            s -= 1;
            if self.hist[s as usize] > 0 {
                return s;
            }
        }
        0
    }

    /// Commits a stage move of a PO-driving cell.
    pub(crate) fn move_cell(&mut self, cell: CellId, from: u32, to: u32, new_max: u32) {
        let cnt = self.po_count[cell.0 as usize];
        self.hist[from as usize] -= cnt;
        if self.hist.len() <= to as usize {
            self.hist.resize(to as usize + 1, 0);
        }
        self.hist[to as usize] += cnt;
        self.max = new_max;
    }
}

/// Structural (stage-independent) per-cell data for the descent, built once:
/// the affected-pin list (own pins, fanin pins, and the fanin pins of every
/// adjacent T1 cell whose arrival solve the move perturbs), sorted/deduped,
/// in CSR layout.
struct AffectedIndex {
    offsets: Vec<u32>,
    pins: Vec<u32>,
}

impl AffectedIndex {
    fn build(net: &Network, view: &NetView) -> Self {
        let mut offsets = Vec::with_capacity(net.num_cells() + 1);
        let mut pins: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        let mut t1_consumers: Vec<CellId> = Vec::new();
        offsets.push(0);
        for id in net.cell_ids() {
            let kind = net.kind(id);
            if kind.is_clocked() {
                scratch.clear();
                t1_consumers.clear();
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
                            t1_consumers.push(t1);
                        }
                    }
                }
                for &fi in net.fanins(id) {
                    add_pin(fi, &mut scratch);
                }
                if matches!(kind, CellKind::T1 { .. }) {
                    t1_consumers.push(id);
                }
                for &t1 in &t1_consumers {
                    for &fi in net.fanins(t1) {
                        add_pin(fi, &mut scratch);
                    }
                }
                scratch.sort_unstable();
                scratch.dedup();
                pins.extend_from_slice(&scratch);
            }
            offsets.push(pins.len() as u32);
        }
        AffectedIndex { offsets, pins }
    }

    fn of(&self, id: CellId) -> &[u32] {
        let i = id.0 as usize;
        &self.pins[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

fn heuristic_assign(
    net: &Network,
    view: &NetView,
    n: u32,
    cache: &ArrivalCache,
) -> StageAssignment {
    let model = CostModel::new(net, view, n, cache);
    let mut stages = asap_stages(net, view);
    let mut tracker = OutputTracker::new(net, &stages);
    let mut output_stage = tracker.max;
    debug_assert_eq!(output_stage, max_output_stage(net, &stages));

    let affected_index = AffectedIndex::build(net, view);
    let po_pins = view.po_pins();

    // Per-pin cached costs. PO-pin entries additionally depend on σ_out and
    // are revalidated lazily against `out_gen` (bumped when σ_out moves), so
    // an accepted move never rescans the whole primary-output frontier.
    let mut pin_cost: Vec<usize> = (0..view.num_pins())
        .map(|pi| {
            model
                .pin_cost(pi, &stages, output_stage)
                .expect("ASAP stages are feasible")
        })
        .collect();
    let mut out_gen: u32 = 0;
    let mut pin_gen: Vec<u32> = vec![0; view.num_pins()];

    /// Reads a pin's cached cost, recomputing PO pins stamped before the
    /// last σ_out change.
    ///
    /// A free fn taking split borrows (not a closure) because the candidate
    /// loop mutates `stages` between calls; the argument count is the price
    /// of keeping the borrow regions disjoint.
    #[allow(clippy::too_many_arguments)]
    fn cached_cost(
        pi: usize,
        view: &NetView,
        model: &CostModel<'_>,
        stages: &[u32],
        output_stage: u32,
        out_gen: u32,
        pin_cost: &mut [usize],
        pin_gen: &mut [u32],
    ) -> usize {
        if view.outputs(pi) > 0 && pin_gen[pi] != out_gen {
            pin_cost[pi] = model
                .pin_cost(pi, stages, output_stage)
                .expect("incumbent assignment is feasible");
            pin_gen[pi] = out_gen;
        }
        pin_cost[pi]
    }

    let mut cands: Vec<u32> = Vec::new();
    let max_passes = 10;
    for _pass in 0..max_passes {
        let mut improved = false;
        for &id in &view.order {
            let kind = net.kind(id);
            if !kind.is_clocked() {
                continue;
            }
            let current = stages[id.0 as usize];
            // Feasible range from neighbors.
            let lo = clocked_lower_bound(net, &stages, id);
            let mut hi = u32::MAX;
            for port in 0..kind.num_ports() {
                let pin = Signal {
                    cell: id,
                    port: port as u8,
                };
                if let Some(pi) = view.pin_lookup(pin) {
                    for &v in view.plain(pi) {
                        hi = hi.min(stages[v.0 as usize] - 1);
                    }
                    for &(t1, _) in view.t1(pi) {
                        hi = hi.min(stages[t1.0 as usize] - 1);
                    }
                }
            }
            if lo > hi {
                continue; // pinned by neighbors
            }
            // Candidate stages: near lo, near hi, near current.
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

            let affected = affected_index.of(id);
            let drives_output = tracker.po_count[id.0 as usize] > 0;
            // σ_out with this cell's outputs excluded: constant across the
            // candidate loop, so each candidate's σ_out is a single max().
            let excl_out = if drives_output {
                tracker.max_excluding(id, current)
            } else {
                0
            };

            let mut base_affected = 0usize;
            for &pi in affected {
                base_affected += cached_cost(
                    pi as usize,
                    view,
                    &model,
                    &stages,
                    output_stage,
                    out_gen,
                    &mut pin_cost,
                    &mut pin_gen,
                );
            }
            if drives_output {
                // A candidate of this cell may move σ_out, and the delta of
                // an off-list PO pin is measured against its cached cost —
                // revalidate any entry stamped before the last σ_out change
                // now, while `stages` still holds the incumbent.
                for &pi in &po_pins {
                    cached_cost(
                        pi as usize,
                        view,
                        &model,
                        &stages,
                        output_stage,
                        out_gen,
                        &mut pin_cost,
                        &mut pin_gen,
                    );
                }
            }
            let mut best: Option<(i64, u32, u32)> = None; // (delta, stage, new σ_out)
            for &cand in &cands {
                if cand == current {
                    continue; // baseline delta is 0 by definition
                }
                stages[id.0 as usize] = cand;
                let new_out = if drives_output {
                    excl_out.max(cand)
                } else {
                    output_stage
                };
                let out_changed = new_out != output_stage;
                let mut ok = true;
                let mut new_affected = 0usize;
                for &pi in affected {
                    match model.pin_cost(pi as usize, &stages, new_out) {
                        Some(c) => new_affected += c,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                // On a σ_out change, every PO pin not already covered above
                // changes cost too.
                let mut extra_delta = 0i64;
                if ok && out_changed {
                    for &pi in &po_pins {
                        if affected.binary_search(&pi).is_ok() {
                            continue;
                        }
                        match model.pin_cost(pi as usize, &stages, new_out) {
                            // `pin_cost[pi]` is fresh: every PO pin was
                            // revalidated above, before `stages` was probed.
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
            stages[id.0 as usize] = current;
            if let Some((_, cand, new_out)) = best {
                stages[id.0 as usize] = cand;
                if drives_output {
                    tracker.move_cell(id, current, cand, new_out);
                }
                if new_out != output_stage {
                    output_stage = new_out;
                    out_gen = out_gen.wrapping_add(1);
                }
                improved = true;
                // Refresh the affected caches; PO pins outside the list
                // refresh lazily through their generation stamp.
                for &pi in affected {
                    pin_cost[pi as usize] = model
                        .pin_cost(pi as usize, &stages, output_stage)
                        .expect("accepted move is feasible");
                    pin_gen[pi as usize] = out_gen;
                }
            }
        }
        if !improved {
            break;
        }
    }
    // σ_out may be lowered if all PO drivers sit below it.
    output_stage = max_output_stage(net, &stages);
    StageAssignment {
        stages,
        output_stage,
    }
}

// NOTE for careful readers of the candidate loop: the mutable-borrow dance
// around `cached_cost` is why it is a free fn taking split borrows instead
// of a closure — `stages` is also mutated per candidate, and the Rust borrow
// checker (correctly) demands the cache refresh and the stage probe never
// alias.
