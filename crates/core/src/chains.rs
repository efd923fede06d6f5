//! Shared DFF-chain planning.
//!
//! Every driven output pin gets at most one linear chain of DFFs; all sinks
//! tap the chain (through implied splitters), which is what makes multiphase
//! path balancing so much cheaper than per-edge insertion. This module
//! contains the chain construction used both by the phase-assignment cost
//! model (counting) and by DFF insertion (materializing), so the objective
//! being optimized and the hardware being built can never drift apart.
//!
//! Chain rules (`n` = phases per period):
//! * the driver pin fires at stage `σ_u`; chain DFFs fire at strictly
//!   increasing stages, each hop spanning at most `n` stages;
//! * a *plain* sink clocked at `σ_v` may tap any chain element with stage in
//!   `[σ_v − n, σ_v − 1]`;
//! * an *exact* sink (a T1 fanin with a chosen arrival stage, or a primary
//!   output aligned to `σ_out`) must tap an element at exactly its stage —
//!   or the driver itself when the stage equals `σ_u`.

/// Requirements a single driver pin must satisfy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainDemand {
    /// Stages of plain (window-tapping) sinks.
    pub plain: Vec<u32>,
    /// Stages of exact-tap sinks (`> σ_u`; equal-to-driver taps are free and
    /// must be filtered out by the caller).
    pub exact: Vec<u32>,
}

impl ChainDemand {
    /// True if no sink needs the chain at all.
    pub fn is_empty(&self) -> bool {
        self.plain.is_empty() && self.exact.is_empty()
    }
}

/// Computes the DFF stages of the minimal shared chain for one driver pin.
///
/// Returns the sorted stages of the inserted DFFs. The caller guarantees
/// `σ_u < v` for every plain sink stage `v` and `σ_u < t` for every exact
/// tap `t` (violations panic in debug builds and produce malformed chains
/// otherwise — upstream constraints make them impossible).
///
/// A thin wrapper over [`plan_chain_sorted_into`], the allocation-free
/// planner DFF insertion runs.
pub fn plan_chain(sigma_u: u32, demand: &ChainDemand, n: u32) -> Vec<u32> {
    debug_assert!(
        demand.plain.iter().all(|&v| v > sigma_u),
        "plain sink at/before driver"
    );
    let mut taps: Vec<u32> = demand.exact.clone();
    taps.sort_unstable();
    taps.dedup();
    let mut chain = Vec::new();
    plan_chain_sorted_into(
        sigma_u,
        &taps,
        demand.plain.iter().copied().max(),
        n,
        &mut chain,
    );
    chain
}

/// [`plan_chain`] over pre-sorted, deduplicated exact taps and the maximum
/// plain-sink stage, *appending* the chain's stages to `out` — the form the
/// timing engine uses to build every pin's plan into one shared buffer.
/// Same preconditions as [`chain_cost_sorted`], whose count it
/// materializes.
pub fn plan_chain_sorted_into(
    sigma_u: u32,
    exact_sorted: &[u32],
    max_plain: Option<u32>,
    n: u32,
    out: &mut Vec<u32>,
) {
    debug_assert!(n >= 1);
    debug_assert!(
        exact_sorted.windows(2).all(|w| w[0] < w[1]),
        "taps must be sorted+deduped"
    );
    debug_assert!(
        exact_sorted.first().is_none_or(|&t| t > sigma_u),
        "exact tap at/before driver"
    );
    // Fill hops longer than n between consecutive chain elements.
    let mut last = sigma_u;
    for &t in exact_sorted {
        while t - last > n {
            last += n;
            out.push(last);
        }
        out.push(t);
        last = t;
    }
    // Cover the plain sinks: the tail ladder that reaches the largest one
    // covers every smaller one too (the gap invariant ≤ n puts a tap in
    // each sink's window `[v − n, v − 1]`). A sink within the driver's
    // pulse lifetime taps the driver itself.
    if let Some(v) = max_plain {
        debug_assert!(v > sigma_u, "plain sink at/before driver");
        if v - sigma_u > n {
            while last + n < v {
                last += n;
                out.push(last);
            }
        }
    }
}

/// Counts the chain DFFs without materializing them.
///
/// Semantically `plan_chain(..).len()`, computed arithmetically: ladder fills
/// between consecutive exact taps are `⌈Δ/n⌉ − 1` hops each, and the plain
/// tail extension depends only on the *largest* plain sink (processing plain
/// sinks in stage order extends the tail by whole `n`-hops, so every
/// intermediate sink's extension is subsumed by the maximum's).
pub fn chain_cost(sigma_u: u32, demand: &ChainDemand, n: u32) -> usize {
    let mut exact: Vec<u32> = demand.exact.clone();
    exact.sort_unstable();
    exact.dedup();
    chain_cost_sorted(sigma_u, &exact, demand.plain.iter().copied().max(), n)
}

/// [`chain_cost`] over pre-sorted, deduplicated exact taps and the maximum
/// plain-sink stage — the allocation-free form the phase-assignment hot loop
/// uses with reusable scratch buffers.
///
/// `exact_sorted` must be strictly increasing with every element `> sigma_u`;
/// `max_plain`, when present, is the largest plain-sink stage (`> sigma_u`).
pub fn chain_cost_sorted(
    sigma_u: u32,
    exact_sorted: &[u32],
    max_plain: Option<u32>,
    n: u32,
) -> usize {
    debug_assert!(n >= 1);
    debug_assert!(
        exact_sorted.windows(2).all(|w| w[0] < w[1]),
        "taps must be sorted+deduped"
    );
    let mut count = 0usize;
    let mut last = sigma_u;
    for &t in exact_sorted {
        debug_assert!(t > sigma_u, "exact tap at/before driver");
        // Ladder fills so no hop exceeds n, then the tap itself.
        count += ((t - last - 1) / n) as usize + 1;
        last = t;
    }
    if let Some(v) = max_plain {
        debug_assert!(v > sigma_u, "plain sink at/before driver");
        // A sink within the driver's pulse lifetime taps the driver directly;
        // beyond it, extend the tail ladder (gap invariant keeps a tap in
        // every sink's window).
        if v - sigma_u > n && v > last {
            count += ((v - last - 1) / n) as usize;
        }
    }
    count
}

/// Finds the tap (a chain stage, or the driver when `None`) a plain sink at
/// stage `v` should read.
///
/// # Panics
/// Panics if the chain does not cover the sink — [`plan_chain`] output always
/// does.
pub fn tap_for_plain(sigma_u: u32, chain: &[u32], v: u32, n: u32) -> Option<u32> {
    // Prefer the latest admissible tap (shortest wire, most sharing).
    let lo = v.saturating_sub(n);
    if let Some(&t) = chain.iter().rev().find(|&&t| t < v && t >= lo) {
        return Some(t);
    }
    assert!(
        v - sigma_u <= n,
        "chain does not cover plain sink at stage {v} (driver {sigma_u}, n={n})"
    );
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(plain: &[u32], exact: &[u32]) -> ChainDemand {
        ChainDemand {
            plain: plain.to_vec(),
            exact: exact.to_vec(),
        }
    }

    #[test]
    fn empty_demand_no_chain() {
        assert_eq!(plan_chain(5, &demand(&[], &[]), 4), Vec::<u32>::new());
        assert_eq!(chain_cost(5, &demand(&[], &[]), 4), 0);
    }

    #[test]
    fn plain_within_lifetime_needs_nothing() {
        assert_eq!(
            plan_chain(0, &demand(&[1, 3, 4], &[]), 4),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn plain_beyond_lifetime_builds_ladder() {
        // Driver at 0, sink at 9, n=4: DFFs at 4 and 8.
        assert_eq!(plan_chain(0, &demand(&[9], &[]), 4), vec![4, 8]);
        // Matches the closed form ⌈Δ/n⌉ − 1.
        assert_eq!(
            chain_cost(0, &demand(&[9], &[]), 4),
            (9f64 / 4.0).ceil() as usize - 1
        );
    }

    #[test]
    fn shared_chain_covers_many_sinks() {
        // Sinks at 3, 6, 9, 12 share one ladder: DFFs at 4 and 8.
        let c = plan_chain(0, &demand(&[3, 6, 9, 12], &[]), 4);
        assert_eq!(c, vec![4, 8]);
        assert_eq!(tap_for_plain(0, &c, 3, 4), None); // direct from driver
        assert_eq!(tap_for_plain(0, &c, 6, 4), Some(4));
        assert_eq!(tap_for_plain(0, &c, 9, 4), Some(8));
        assert_eq!(tap_for_plain(0, &c, 12, 4), Some(8));
    }

    #[test]
    fn single_phase_recovers_classic_balancing() {
        // n=1: a sink at stage 7 from a driver at 2 needs 4 DFFs (3,4,5,6).
        assert_eq!(plan_chain(2, &demand(&[7], &[]), 1), vec![3, 4, 5, 6]);
    }

    #[test]
    fn exact_taps_are_inserted_verbatim() {
        let c = plan_chain(0, &demand(&[], &[2, 3]), 4);
        assert_eq!(c, vec![2, 3]);
    }

    #[test]
    fn exact_taps_far_away_get_ladder_fill() {
        // Exact tap at 10, n=4: fills at 4, 8, then 10.
        assert_eq!(plan_chain(0, &demand(&[], &[10]), 4), vec![4, 8, 10]);
    }

    #[test]
    fn exact_taps_also_serve_plain_sinks() {
        // Exact tap at 5 needs a ladder fill at 4 first (a 0→5 hop would
        // exceed the 4-stage pulse lifetime); the tap then covers a plain
        // sink at 7 (window [3,6]) with no further DFFs.
        let c = plan_chain(0, &demand(&[7], &[5]), 4);
        assert_eq!(c, vec![4, 5]);
        assert_eq!(tap_for_plain(0, &c, 7, 4), Some(5));
    }

    #[test]
    fn duplicate_exact_taps_dedupe() {
        assert_eq!(plan_chain(1, &demand(&[], &[3, 3, 3]), 4), vec![3]);
    }

    #[test]
    fn mixed_demand_counts_match_plan() {
        let d = demand(&[2, 9, 14], &[6, 13]);
        let c = plan_chain(0, &d, 4);
        assert_eq!(chain_cost(0, &d, 4), c.len());
        // Gap invariant.
        let mut prev = 0;
        for &t in &c {
            assert!(t - prev <= 4);
            prev = t;
        }
        // Every plain sink covered.
        for v in [2u32, 9, 14] {
            let _ = tap_for_plain(0, &c, v, 4); // must not panic
        }
    }

    /// The `chain_cost`/`plan_chain` seam is the contract between the
    /// phase-assignment descent (which only counts) and DFF insertion
    /// (which materializes): the counted cost of a demand must equal the
    /// length of the plan built for it, the plan must keep the ≤ n gap
    /// invariant, contain every exact tap verbatim, and cover every plain
    /// sink through `tap_for_plain` — including sinks and taps landing
    /// exactly on epoch boundaries (`σ_u + k·n`), where the tap window
    /// `[v − n, v − 1]` closes.
    mod consistency {
        use super::*;
        use proptest::prelude::*;

        fn check(sigma_u: u32, demand: &ChainDemand, n: u32) -> Result<(), TestCaseError> {
            let plan = plan_chain(sigma_u, demand, n);
            let counted = chain_cost(sigma_u, demand, n);
            let expected = if demand.is_empty() { 0 } else { plan.len() };
            prop_assert_eq!(
                counted,
                expected,
                "cost vs plan at σ_u={} n={} demand={:?} plan={:?}",
                sigma_u,
                n,
                demand,
                &plan
            );
            // The in-place planner appends the same plan after whatever the
            // shared buffer already holds, leaving that prefix untouched.
            let mut exact = demand.exact.clone();
            exact.sort_unstable();
            exact.dedup();
            let mut shared = vec![u32::MAX, 0];
            plan_chain_sorted_into(
                sigma_u,
                &exact,
                demand.plain.iter().copied().max(),
                n,
                &mut shared,
            );
            prop_assert_eq!(&shared[..2], &[u32::MAX, 0][..]);
            prop_assert_eq!(&shared[2..], &plan[..]);
            // Gap invariant: strictly increasing, no hop longer than n.
            let mut prev = sigma_u;
            for &t in &plan {
                prop_assert!(t > prev && t - prev <= n, "gap {prev}→{t} at n={n}");
                prev = t;
            }
            // Every exact tap is in the plan verbatim.
            for &t in &demand.exact {
                prop_assert!(
                    plan.binary_search(&t).is_ok(),
                    "exact tap {t} missing from plan {plan:?}"
                );
            }
            // Every plain sink resolves a tap inside its window (or the
            // driver itself within the pulse lifetime); tap_for_plain
            // panics if the chain fails to cover a sink.
            for &v in &demand.plain {
                match tap_for_plain(sigma_u, &plan, v, n) {
                    Some(t) => prop_assert!(t < v && v - t <= n),
                    None => prop_assert!(v - sigma_u <= n),
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(768))]

            /// Random mixed demands over the full small-parameter domain.
            #[test]
            fn prop_chain_cost_equals_plan(
                sigma_u in 0u32..12,
                n in 1u32..9,
                plain_deltas in prop::collection::vec(1u32..30, 0..6),
                exact_deltas in prop::collection::vec(1u32..30, 0..5),
            ) {
                let demand = ChainDemand {
                    plain: plain_deltas.iter().map(|d| sigma_u + d).collect(),
                    exact: exact_deltas.iter().map(|d| sigma_u + d).collect(),
                };
                check(sigma_u, &demand, n)?;
            }

            /// Epoch-boundary bias: every tap and sink sits at `σ_u + k·n`
            /// or one stage either side of it, the `tap_for_plain` window
            /// edges where an off-by-one would hide.
            #[test]
            fn prop_chain_cost_at_epoch_boundaries(
                sigma_u in 0u32..8,
                n in 1u32..9,
                exact_epochs in prop::collection::vec((1u32..5, 0u32..3), 0..4),
                plain_epochs in prop::collection::vec((1u32..5, 0u32..3), 1..5),
            ) {
                // off ∈ 0..3 places the stage at k·n − 1, k·n, or k·n + 1
                // relative to the driver (clamped past the driver).
                let snap =
                    |k: u32, off: u32| (sigma_u + k * n + off).saturating_sub(1).max(sigma_u + 1);
                let demand = ChainDemand {
                    plain: plain_epochs.iter().map(|&(k, o)| snap(k, o)).collect(),
                    exact: exact_epochs.iter().map(|&(k, o)| snap(k, o)).collect(),
                };
                check(sigma_u, &demand, n)?;
            }
        }
    }

    /// The counting-only path must equal `plan_chain(..).len()` on a dense
    /// pseudo-random sweep of demands (the hot loop never materializes a
    /// plan, so any divergence would silently corrupt the heuristic's
    /// objective).
    #[test]
    fn counting_cost_matches_materialized_plan_everywhere() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move |bound: u32| -> u32 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32 % bound
        };
        for _case in 0..20_000 {
            let n = 1 + next(8);
            let sigma_u = next(12);
            let mut d = ChainDemand::default();
            for _ in 0..next(5) {
                d.plain.push(sigma_u + 1 + next(20));
            }
            for _ in 0..next(4) {
                d.exact.push(sigma_u + 1 + next(20));
            }
            assert_eq!(
                chain_cost(sigma_u, &d, n),
                if d.is_empty() {
                    0
                } else {
                    plan_chain(sigma_u, &d, n).len()
                },
                "σ_u={sigma_u} n={n} demand={d:?}"
            );
        }
    }
}
