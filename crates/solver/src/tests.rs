use crate::milp::solve_node;
use crate::milp::{MilpProblem, MilpStatus};
use crate::simplex::{Cmp, LpProblem, LpSolution, SolverError, Tableau, REFACTOR_EVERY};
use proptest::prelude::*;

// ------------------------------------------------------------------ LP ----

#[test]
fn lp_simple_maximization() {
    // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 — classic, opt = 36.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, f64::INFINITY, -3.0);
    let y = lp.add_var(0.0, f64::INFINITY, -5.0);
    lp.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
    lp.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
    lp.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
    let sol = lp.solve().unwrap();
    assert!((sol.objective + 36.0).abs() < 1e-6);
    assert!((sol.values[x] - 2.0).abs() < 1e-6);
    assert!((sol.values[y] - 6.0).abs() < 1e-6);
}

#[test]
fn lp_with_ge_and_eq_constraints() {
    // min x + y s.t. x + 2y ≥ 4, x - y = 1 → y = 1, x = 2.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, f64::INFINITY, 1.0);
    let y = lp.add_var(0.0, f64::INFINITY, 1.0);
    lp.add_constraint(&[(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
    lp.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
    let sol = lp.solve().unwrap();
    assert!((sol.values[x] - 2.0).abs() < 1e-6);
    assert!((sol.values[y] - 1.0).abs() < 1e-6);
}

#[test]
fn lp_detects_infeasible() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 10.0, 1.0);
    lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 5.0);
    lp.add_constraint(&[(x, 1.0)], Cmp::Le, 3.0);
    assert_eq!(lp.solve().unwrap_err(), SolverError::Infeasible);
}

#[test]
fn lp_detects_unbounded() {
    let mut lp = LpProblem::new();
    let _x = lp.add_var(0.0, f64::INFINITY, -1.0); // maximize x, unconstrained
    let _ = lp.add_var(0.0, 1.0, 0.0);
    assert_eq!(lp.solve().unwrap_err(), SolverError::Unbounded);
}

#[test]
fn lp_respects_lower_bounds() {
    // Shifted bounds: min x with x ∈ [3, 8] → 3.
    let mut lp = LpProblem::new();
    let x = lp.add_var(3.0, 8.0, 1.0);
    let sol = lp.solve().unwrap();
    assert!((sol.values[x] - 3.0).abs() < 1e-6);
    // And negative lower bounds.
    let mut lp = LpProblem::new();
    let x = lp.add_var(-5.0, 5.0, 1.0);
    lp.add_constraint(&[(x, 1.0)], Cmp::Ge, -2.0);
    let sol = lp.solve().unwrap();
    assert!((sol.values[x] + 2.0).abs() < 1e-6);
}

#[test]
fn lp_rejects_bad_bounds() {
    let mut lp = LpProblem::new();
    let _x = lp.add_var(2.0, 1.0, 1.0);
    assert!(matches!(
        lp.solve().unwrap_err(),
        SolverError::BadBounds { .. }
    ));
}

#[test]
fn lp_degenerate_no_cycle() {
    // Degenerate vertex (multiple constraints meeting): the primal pass's
    // Bland rule must still terminate.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, f64::INFINITY, -0.75);
    let y = lp.add_var(0.0, f64::INFINITY, 150.0);
    let z = lp.add_var(0.0, f64::INFINITY, -0.02);
    let w = lp.add_var(0.0, f64::INFINITY, 6.0);
    lp.add_constraint(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Cmp::Le, 0.0);
    lp.add_constraint(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Cmp::Le, 0.0);
    lp.add_constraint(&[(z, 1.0)], Cmp::Le, 1.0);
    let sol = lp.solve().unwrap();
    assert!(
        (sol.objective + 0.05).abs() < 1e-4,
        "beale cycling example optimum"
    );
}

// ------------------------------------------- kernel edge paths (pinned) ----
//
// Every solve is bit-reproducible: the same LP under the same bounds takes
// the same pivots to the same bits. The goldens hang on each MILP's
// incumbent rather than on one pivot sequence, but a drift in the kernel's
// rules would still show first here: these LPs each steer the kernel down
// one edge path, and their values, objective and pivot count are pinned as
// IEEE-754 bit patterns.

/// `(objective bits, value bits, pivots)` of a solve.
fn lp_bits(sol: &LpSolution) -> (u64, Vec<u64>, usize) {
    (
        sol.objective.to_bits(),
        sol.values.iter().map(|v| v.to_bits()).collect(),
        sol.pivots,
    )
}

/// The same fingerprint from shortest-round-trip literals.
fn pinned(objective: f64, values: &[f64], pivots: usize) -> (u64, Vec<u64>, usize) {
    (
        objective.to_bits(),
        values.iter().map(|v| v.to_bits()).collect(),
        pivots,
    )
}

#[test]
fn lp_boxed_nonbasic_flips_bound() {
    // y has no upper bound and a negative cost, so the slack basis is not
    // dual feasible and the primal pass runs. Once y is basic on the first
    // row, x prices in, and its own box [0, 1] is the shortest step: x
    // flips to its upper bound without a pivot.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 1.0, 1.0);
    let y = lp.add_var(0.0, f64::INFINITY, -2.0);
    lp.add_constraint(&[(y, 1.0), (x, -1.0)], Cmp::Le, 3.0);
    lp.add_constraint(&[(y, 1.0)], Cmp::Le, 10.0);
    let pin = pinned(-7.0, &[1.0, 4.0], 1);
    assert_eq!(lp_bits(&lp.solve().unwrap()), pin);
}

#[test]
fn lp_infeasible_node_then_feasible_warm_resolve() {
    // A branch & bound shape: the working tableau proves one box empty,
    // then re-solves a sibling box from the basis the failed solve left.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 6.0, -1.0);
    let y = lp.add_var(0.0, 6.0, -1.0);
    lp.add_constraint(&[(x, 2.0), (y, 3.0)], Cmp::Le, 12.0);
    lp.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 12.0);
    lp.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Ge, -1.5);
    let mut tab = Tableau::new(&lp);
    let root = tab.solve().unwrap();
    assert_eq!(
        lp_bits(&root),
        pinned(-4.8, &[2.4000000000000004, 2.3999999999999995], 2)
    );
    tab.set_bounds(x, 0.0, 0.0);
    tab.set_bounds(y, 2.0, 6.0);
    assert_eq!(tab.solve().unwrap_err(), SolverError::Infeasible);
    tab.set_bounds(x, 0.0, 2.0);
    tab.set_bounds(y, 0.0, 6.0);
    let warm = tab.solve().unwrap();
    assert_eq!(
        lp_bits(&warm),
        pinned(-4.666666666666666, &[2.0, 2.6666666666666665], 1)
    );
    let mut cold = lp.clone();
    cold.set_bounds(x, 0.0, 2.0);
    assert!((cold.solve().unwrap().objective - warm.objective).abs() < 1e-9);
}

#[test]
fn lp_redundant_equality_fixes_its_logical() {
    // The second equality is twice the first, so their logicals — fixed
    // at [7.5, 7.5] and [15, 15] — are dependent. The larger violation
    // pivots the second one out; the first row then reads r₁ = r₂ / 2, and
    // its logical stays basic inside its fixed box for good: a fixed column
    // never enters, and a satisfied row never leaves.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.5, 10.0, -1.0);
    let y = lp.add_var(0.0, 10.0, 0.3);
    let z = lp.add_var(0.0, 4.0, -3.0);
    lp.add_constraint(&[(x, 1.0), (y, 1.0), (z, 2.0)], Cmp::Eq, 7.5);
    lp.add_constraint(&[(x, 2.0), (y, 2.0), (z, 4.0)], Cmp::Eq, 15.0);
    lp.add_constraint(&[(x, 1.0), (z, -1.0)], Cmp::Ge, 0.25);
    let pin = pinned(
        -9.916666666666668,
        &[2.6666666666666665, 0.0, 2.416666666666667],
        2,
    );
    assert_eq!(lp_bits(&lp.solve().unwrap()), pin);
}

#[test]
fn lp_dense_pivot_row_has_no_zero_to_skip() {
    // One ≥ row over every variable and no upper bounds: the tableau has a
    // single row in which every column (structural and logical) is
    // nonzero. The dual ratio test picks the cheapest repair per unit of
    // row activity, w at 0.9 / 0.45, and one pivot through the full row
    // finishes.
    let mut lp = LpProblem::new();
    let cost = [5.0, 3.0, 1.7, 0.9];
    let coef = [1.0, 0.9, 0.7, 0.45];
    let vars: Vec<usize> = cost
        .iter()
        .map(|&c| lp.add_var(0.0, f64::INFINITY, c))
        .collect();
    let terms: Vec<(usize, f64)> = vars.iter().zip(coef).map(|(&v, a)| (v, a)).collect();
    lp.add_constraint(&terms, Cmp::Ge, 3.3);
    let pin = pinned(6.6, &[0.0, 0.0, 0.0, 7.333333333333333], 1);
    assert_eq!(lp_bits(&lp.solve().unwrap()), pin);
}

#[test]
fn lp_degenerate_dual_ratio_tie_goes_to_the_smaller_column() {
    // The violated ≥ row can be repaired by x or y, both at a zero
    // reduced cost: a dual ratio tie at 0. The smaller column wins, even
    // though y's larger entry would be the steeper pivot.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 5.0, 0.0);
    let y = lp.add_var(0.0, 5.0, 0.0);
    let z = lp.add_var(0.0, 5.0, 1.0);
    lp.add_constraint(&[(x, 1.0), (y, 2.0), (z, 1.0)], Cmp::Ge, 2.0);
    let pin = pinned(0.0, &[2.0, 0.0, 0.0], 1);
    assert_eq!(lp_bits(&lp.solve().unwrap()), pin);
}

#[test]
fn lp_solves_are_bitwise_reproducible() {
    // Fractional coefficients against nonzero lower bounds: each row's
    // bound shift Σ aᵢ·lbᵢ rounds differently in different summation
    // orders, so the rows must be merged in one fixed (variable) order.
    let mut lp = LpProblem::new();
    let vars: Vec<usize> = (0..8)
        .map(|i| lp.add_var(0.5 + 0.3 * i as f64, 20.0, 0.1 * (i % 3) as f64 - 0.15))
        .collect();
    for r in 0..6 {
        let terms: Vec<(usize, f64)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 0.1 * ((i + r) % 7 + 1) as f64))
            .collect();
        lp.add_constraint(&terms, Cmp::Le, 9.7 + 1.3 * r as f64);
    }
    lp.add_constraint(
        &[(vars[0], 0.3), (vars[5], 0.7), (vars[7], 0.1)],
        Cmp::Ge,
        3.9,
    );
    let first = lp_bits(&lp.solve().unwrap());
    for _ in 1..200 {
        assert_eq!(lp_bits(&lp.solve().unwrap()), first);
    }
}

// ---------------------------------------------------------------- MILP ----

#[test]
fn milp_knapsack() {
    // max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d ≤ 14, binary → 21 (b,c,d).
    let mut p = MilpProblem::new();
    let a = p.add_bool_var(-8.0);
    let b = p.add_bool_var(-11.0);
    let c = p.add_bool_var(-6.0);
    let d = p.add_bool_var(-4.0);
    p.add_constraint(&[(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)], Cmp::Le, 14.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert!((sol.objective + 21.0).abs() < 1e-6);
    assert_eq!(sol.int_value(a), 0);
    assert_eq!(sol.int_value(b), 1);
    assert_eq!(sol.int_value(c), 1);
    assert_eq!(sol.int_value(d), 1);
}

#[test]
fn milp_integrality_changes_optimum() {
    // LP relaxation gives fractional x; MILP must round properly.
    // max x + y, 2x + 3y ≤ 12, 3x + 2y ≤ 12 → LP opt (2.4, 2.4); ILP opt 4.
    let mut p = MilpProblem::new();
    let x = p.add_int_var(0.0, 10.0, -1.0);
    let y = p.add_int_var(0.0, 10.0, -1.0);
    p.add_constraint(&[(x, 2.0), (y, 3.0)], Cmp::Le, 12.0);
    p.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 12.0);
    let sol = p.solve().unwrap();
    assert!((sol.objective + 4.0).abs() < 1e-6);
}

#[test]
fn milp_mixed_continuous_integer() {
    // min 2x + y, x integer, y continuous; x + y ≥ 3.5, x ≤ 2.
    // Best: x = 2 (cost 4) + y = 1.5 (cost 1.5) = 5.5? Or x = 0, y = 3.5 → 3.5.
    let mut p = MilpProblem::new();
    let x = p.add_int_var(0.0, 2.0, 2.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 3.5);
    let sol = p.solve().unwrap();
    assert!((sol.objective - 3.5).abs() < 1e-6);
    assert_eq!(sol.int_value(x), 0);
}

#[test]
fn milp_infeasible_integer_box() {
    // 0.4 ≤ x ≤ 0.6 with x integer: LP feasible, ILP infeasible.
    let mut p = MilpProblem::new();
    let x = p.add_int_var(0.0, 1.0, 1.0);
    p.add_constraint(&[(x, 1.0)], Cmp::Ge, 0.4);
    p.add_constraint(&[(x, 1.0)], Cmp::Le, 0.6);
    assert_eq!(p.solve().unwrap_err(), SolverError::Infeasible);
}

#[test]
fn milp_big_m_disjunction() {
    // Model |x - y| ≥ 2 on [0,4]² via indicator b:
    //   x - y ≥ 2 - M·(1-b),  y - x ≥ 2 - M·b,  M = 10
    // minimize x + y → (0,2) or (2,0), objective 2.
    let mut p = MilpProblem::new();
    let x = p.add_int_var(0.0, 4.0, 1.0);
    let y = p.add_int_var(0.0, 4.0, 1.0);
    let b = p.add_bool_var(0.0);
    let m = 10.0;
    p.add_constraint(&[(x, 1.0), (y, -1.0), (b, -m)], Cmp::Ge, 2.0 - m);
    p.add_constraint(&[(y, 1.0), (x, -1.0), (b, m)], Cmp::Ge, 2.0);
    let sol = p.solve().unwrap();
    assert!((sol.objective - 2.0).abs() < 1e-6);
    let (xv, yv) = (sol.int_value(x), sol.int_value(y));
    assert!((xv - yv).abs() >= 2);
}

#[test]
fn milp_retiming_shaped_problem() {
    // A miniature of the phase-assignment ILP: a diamond u→{v,w}→t with
    // n = 2 phases; σ(u)=0. Chain vars k per driver, minimize Σk.
    //   σv, σw ≥ 1; σt ≥ σv+1, σw+1;
    //   2·ku ≥ max(σv,σw) − 2 ; 2·kv ≥ σt − σv − 2 ; …
    let n = 2.0;
    let mut p = MilpProblem::new();
    let sv = p.add_int_var(1.0, 20.0, 0.0);
    let sw = p.add_int_var(1.0, 20.0, 0.0);
    let st = p.add_int_var(2.0, 20.0, 0.0);
    let ku = p.add_int_var(0.0, 20.0, 1.0);
    let kv = p.add_int_var(0.0, 20.0, 1.0);
    let kw = p.add_int_var(0.0, 20.0, 1.0);
    p.add_constraint(&[(st, 1.0), (sv, -1.0)], Cmp::Ge, 1.0);
    p.add_constraint(&[(st, 1.0), (sw, -1.0)], Cmp::Ge, 1.0);
    // driver u at stage 0 feeds v and w: n·ku ≥ σv − n, n·ku ≥ σw − n
    p.add_constraint(&[(ku, n), (sv, -1.0)], Cmp::Ge, -n);
    p.add_constraint(&[(ku, n), (sw, -1.0)], Cmp::Ge, -n);
    p.add_constraint(&[(kv, n), (st, -1.0), (sv, 1.0)], Cmp::Ge, -n);
    p.add_constraint(&[(kw, n), (st, -1.0), (sw, 1.0)], Cmp::Ge, -n);
    let sol = p.solve().unwrap();
    // Everything fits inside one period: σv=σw=1, σt=2, zero DFFs.
    assert!((sol.objective - 0.0).abs() < 1e-6);
}

#[test]
fn milp_node_limit_reports_status() {
    let mut p = MilpProblem::new();
    // A small but branching-heavy problem.
    let vars: Vec<_> = (0..12)
        .map(|i| p.add_bool_var(-((i % 5) as f64 + 1.0)))
        .collect();
    let terms: Vec<_> = vars.iter().map(|&v| (v, 3.0)).collect();
    p.add_constraint(&terms, Cmp::Le, 17.0);
    p.set_node_limit(3);
    match p.solve() {
        Ok(sol) => assert_eq!(sol.status, MilpStatus::FeasibleLimit),
        Err(SolverError::IterationLimit) => {}
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn milp_warm_start_is_used_and_validated() {
    // minimize x + y  s.t.  x + y ≥ 5, integers in [0, 10].
    let build = || {
        let mut p = MilpProblem::new();
        let x = p.add_int_var(0.0, 10.0, 1.0);
        let y = p.add_int_var(0.0, 10.0, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        (p, x, y)
    };

    // A feasible warm start: accepted as incumbent, then improved to 5.
    let (mut p, x, y) = build();
    p.set_warm_start_pairs(&[(x, 4.0), (y, 4.0)]);
    let sol = p.solve().unwrap();
    assert!((sol.objective - 5.0).abs() < 1e-6);

    // An infeasible warm start must be ignored, not believed.
    let (mut p, x, y) = build();
    p.set_warm_start_pairs(&[(x, 1.0), (y, 1.0)]); // violates x + y ≥ 5
    let sol = p.solve().unwrap();
    assert!((sol.objective - 5.0).abs() < 1e-6);

    // A fractional warm start on integer variables is ignored too.
    let (mut p, x, y) = build();
    p.set_warm_start_pairs(&[(x, 2.5), (y, 2.5)]);
    let sol = p.solve().unwrap();
    assert!((sol.objective - 5.0).abs() < 1e-6);
    assert!(sol.values.iter().all(|v| (v - v.round()).abs() < 1e-6));
}

#[test]
fn milp_warm_start_pairs_matches_positional() {
    // A partial warm start means the full point with every unmentioned
    // variable at its lower bound. minimize x + y  s.t.  2x + 2y ≥ 5,
    // x ∈ [0, 10], y ∈ [2, 10]: the root LP bound 2.5 rounds up to the
    // optimum 3, so only the incumbent (1, 2) prunes the root. Had y
    // defaulted to 0 the point would be infeasible, and at 10 too costly;
    // either way the search would branch. The full point, listed in either
    // order, takes the same search.
    let build = || {
        let mut p = MilpProblem::new();
        let x = p.add_int_var(0.0, 10.0, 1.0);
        let y = p.add_int_var(2.0, 10.0, 1.0);
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Cmp::Ge, 5.0);
        (p, x, y)
    };
    let (cold, _, _) = build();
    let cold = cold.solve().unwrap();
    let (mut partial, x, _) = build();
    partial.set_warm_start_pairs(&[(x, 1.0)]);
    let partial = partial.solve().unwrap();
    let (mut full, x, y) = build();
    full.set_warm_start_pairs(&[(y, 2.0), (x, 1.0)]);
    let full = full.solve().unwrap();
    assert!((partial.objective - 3.0).abs() < 1e-6);
    assert_eq!(partial.status, MilpStatus::Optimal);
    assert_eq!(partial.nodes, 1, "the defaulted incumbent prunes the root");
    assert_eq!(
        (partial.nodes, partial.lp_pivots),
        (full.nodes, full.lp_pivots)
    );
    assert!(
        cold.nodes > 1,
        "cold search must branch for the check to bite"
    );
}

#[test]
fn milp_warm_start_at_optimum_prunes_search() {
    // With the optimum handed over, B&B only needs to prove it.
    let mut p = MilpProblem::new();
    let vars: Vec<_> = (0..6).map(|_| p.add_int_var(0.0, 9.0, 1.0)).collect();
    for w in vars.windows(2) {
        p.add_constraint(&[(w[1], 1.0), (w[0], -1.0)], Cmp::Ge, 1.0);
    }
    let baseline = p.solve().unwrap();
    let mut warm = p.clone();
    let pairs: Vec<_> = vars.iter().map(|&v| (v, baseline.value(v))).collect();
    warm.set_warm_start_pairs(&pairs);
    let sol = warm.solve().unwrap();
    assert!((sol.objective - baseline.objective).abs() < 1e-6);
    assert!(
        sol.nodes <= baseline.nodes,
        "warm start explored more nodes ({}) than cold ({})",
        sol.nodes,
        baseline.nodes
    );
}

#[test]
fn milp_branch_priority_preserves_optimality() {
    // Same model solved under opposite priorities must agree on the optimum.
    let build = |prio_first: bool| {
        let mut p = MilpProblem::new();
        let x = p.add_int_var(0.0, 7.0, 2.0);
        let y = p.add_int_var(0.0, 7.0, 3.0);
        let b = p.add_bool_var(5.0);
        p.add_constraint(&[(x, 2.0), (y, 3.0)], Cmp::Ge, 11.0);
        p.add_constraint(&[(x, 1.0), (b, 7.0)], Cmp::Ge, 4.0);
        if prio_first {
            p.set_branch_priority(b, 5);
            p.set_branch_priority(x, 1);
        } else {
            p.set_branch_priority(y, 5);
        }
        p
    };
    let a = build(true).solve().unwrap();
    let b = build(false).solve().unwrap();
    assert!((a.objective - b.objective).abs() < 1e-6);
}

#[test]
fn milp_integral_objective_bound_rounding_still_exact() {
    // A model with a weak LP relaxation (the chain-variable shape from
    // phase assignment): n·k ≥ σ − 4 with σ free in [1, 13]. The LP bound
    // is fractional; integral-objective rounding may prune, never cut the
    // optimum.
    let mut p = MilpProblem::new();
    let sigma = p.add_int_var(1.0, 13.0, 0.0);
    let k1 = p.add_int_var(0.0, 4.0, 1.0);
    let k2 = p.add_int_var(0.0, 4.0, 1.0);
    // σ must be at least 9 via a side constraint.
    p.add_constraint(&[(sigma, 1.0)], Cmp::Ge, 9.0);
    p.add_constraint(&[(k1, 4.0), (sigma, -1.0)], Cmp::Ge, -4.0);
    p.add_constraint(&[(k2, 4.0), (sigma, -1.0)], Cmp::Ge, -6.0);
    let sol = p.solve().unwrap();
    // σ = 9: k1 ≥ ⌈5/4⌉ = 2, k2 ≥ ⌈3/4⌉ = 1 → objective 3.
    assert!(
        (sol.objective - 3.0).abs() < 1e-6,
        "objective {}",
        sol.objective
    );
}

#[test]
fn lp_feasibility_and_objective_probes() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 5.0, 2.0);
    let y = lp.add_var(1.0, 4.0, -1.0);
    lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 6.0);
    assert!(lp.is_feasible(&[2.0, 3.0]));
    assert!(!lp.is_feasible(&[5.0, 4.0]), "violates x + y ≤ 6");
    assert!(!lp.is_feasible(&[2.0, 0.0]), "violates y ≥ 1");
    assert!(!lp.is_feasible(&[2.0]), "wrong arity");
    assert!((lp.objective_value(&[2.0, 3.0]) - 1.0).abs() < 1e-9);
    assert_eq!(lp.objective_coef(x), 2.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small LPs: simplex optimum must match brute-force over a grid
    /// of basic solutions (we verify feasibility + objective is a lower
    /// bound of grid search).
    #[test]
    fn prop_lp_vs_grid(coefs in proptest::collection::vec((-4i32..5, -4i32..5, 0i32..15), 1..5),
                       obj in proptest::collection::vec(-3i32..4, 2)) {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 6.0, obj[0] as f64);
        let y = lp.add_var(0.0, 6.0, obj[1] as f64);
        for &(a, b, c) in &coefs {
            lp.add_constraint(&[(x, a as f64), (y, b as f64)], Cmp::Le, c as f64);
        }
        // Grid-search feasible integer points.
        let mut grid_best: Option<f64> = None;
        for xi in 0..=6 {
            for yi in 0..=6 {
                let ok = coefs.iter().all(|&(a, b, c)| a * xi + b * yi <= c);
                if ok {
                    let v = (obj[0] * xi + obj[1] * yi) as f64;
                    grid_best = Some(grid_best.map_or(v, |g: f64| g.min(v)));
                }
            }
        }
        match lp.solve() {
            Ok(sol) => {
                // LP optimum ≤ best grid point (grid points are feasible).
                if let Some(g) = grid_best {
                    prop_assert!(sol.objective <= g + 1e-6);
                }
                // Solution must satisfy all constraints.
                for &(a, b, c) in &coefs {
                    prop_assert!(a as f64 * sol.values[x] + b as f64 * sol.values[y] <= c as f64 + 1e-6);
                }
            }
            // A feasible grid point with an infeasible LP would be a bug —
            // (0,0) is always checked by the grid.
            Err(SolverError::Infeasible) => prop_assert!(grid_best.is_none()),
            Err(e) => return Err(TestCaseError::fail(format!("solver error {e}"))),
        }
    }

    /// MILP on pure-integer knapsacks must equal exhaustive search.
    #[test]
    fn prop_milp_vs_bruteforce(weights in proptest::collection::vec(1i64..8, 3..7),
                               values in proptest::collection::vec(1i64..9, 3..7),
                               cap in 4i64..20) {
        let n = weights.len().min(values.len());
        let mut p = MilpProblem::new();
        let vars: Vec<_> = (0..n).map(|i| p.add_bool_var(-(values[i] as f64))).collect();
        let terms: Vec<_> = (0..n).map(|i| (vars[i], weights[i] as f64)).collect();
        p.add_constraint(&terms, Cmp::Le, cap as f64);
        let sol = p.solve().unwrap();
        let mut best = 0i64;
        for mask in 0u32..(1 << n) {
            let w: i64 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| weights[i]).sum();
            if w <= cap {
                let v: i64 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| values[i]).sum();
                best = best.max(v);
            }
        }
        prop_assert!((sol.objective + best as f64).abs() < 1e-6,
            "milp {} vs brute {}", -sol.objective, best);
    }
}

// ----------------------------------------- warm start and refactoring ----

/// A deterministic LP with mixed rows, negative costs and a redundant
/// equality, big enough that warm re-solves pivot.
fn mixed_lp() -> LpProblem {
    let mut lp = LpProblem::new();
    let vars: Vec<usize> = (0..9)
        .map(|i| lp.add_var(0.0, 4.0 + (i % 4) as f64, ((i * 7) % 5) as f64 - 2.0))
        .collect();
    for r in 0..7 {
        let terms: Vec<(usize, f64)> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + r) % 3 != 0)
            .map(|(i, &v)| (v, ((i * 5 + r * 3) % 7) as f64 - 2.5))
            .collect();
        let cmp = [Cmp::Le, Cmp::Ge, Cmp::Le][r % 3];
        lp.add_constraint(&terms, cmp, 6.0 - r as f64);
    }
    let pair = [(vars[0], 1.0), (vars[4], 1.0), (vars[8], -1.0)];
    lp.add_constraint(&pair, Cmp::Eq, 2.0);
    let doubled: Vec<(usize, f64)> = pair.iter().map(|&(v, a)| (v, 2.0 * a)).collect();
    lp.add_constraint(&doubled, Cmp::Eq, 4.0);
    lp
}

/// Status and objective of a solve, for warm/cold comparison.
fn outcome(result: &Result<LpSolution, SolverError>) -> Result<f64, SolverError> {
    result.as_ref().map(|s| s.objective).map_err(Clone::clone)
}

fn same_outcome(warm: &Result<f64, SolverError>, cold: &Result<f64, SolverError>) -> bool {
    match (warm, cold) {
        (Ok(w), Ok(c)) => (w - c).abs() <= 1e-6,
        (w, c) => w == c,
    }
}

#[test]
fn refactor_keeps_the_objective() {
    let lp = mixed_lp();
    let mut tab = Tableau::new(&lp);
    let first = tab.solve().unwrap();
    let mut rebuilt = tab.clone();
    rebuilt.refactor();
    let again = rebuilt.solve().unwrap();
    assert_eq!(again.pivots, 0, "a rebuilt optimal basis stays optimal");
    assert!((again.objective - first.objective).abs() < 1e-9);
    // Both tableaus take the same bound changes to the same optima.
    for (v, ub) in [(2, 1.0), (5, 0.0), (7, 2.0), (2, 6.0)] {
        tab.set_bounds(v, 0.0, ub);
        rebuilt.set_bounds(v, 0.0, ub);
        let (a, b) = (tab.solve(), rebuilt.solve());
        assert!(same_outcome(&outcome(&a), &outcome(&b)), "{a:?} vs {b:?}");
    }
}

#[test]
fn warm_resolves_across_the_refactor_schedule_match_cold() {
    // A long branch-and-bound-like walk on one tableau: enough pivots that
    // the rows are rebuilt on schedule several times along the way.
    let lp = mixed_lp();
    let mut tab = Tableau::new(&lp);
    let mut cur = lp.clone();
    let mut step = 0usize;
    while tab.pivots() < 3 * REFACTOR_EVERY {
        step += 1;
        assert!(step < 20_000, "the walk stopped pivoting");
        let v = (step * 5) % lp.num_vars();
        let (_, ub) = lp.bounds(v);
        let cut = ((step * 3) % 5) as f64;
        let (lo, hi) = if step.is_multiple_of(2) {
            (0.0, cut.min(ub))
        } else {
            (cut.min(ub), ub)
        };
        let (lo, hi) = if step.is_multiple_of(7) {
            (0.0, ub)
        } else {
            (lo, hi)
        };
        tab.set_bounds(v, lo, hi);
        cur.set_bounds(v, lo, hi);
        let (warm, cold) = (tab.solve(), cur.solve());
        assert!(
            same_outcome(&outcome(&warm), &outcome(&cold)),
            "step {step}: {warm:?} vs {cold:?}"
        );
        if let Ok(sol) = &warm {
            assert!(cur.is_feasible(&sol.values), "step {step}");
        }
    }
}

#[test]
fn node_retries_cold_after_the_warm_iteration_cap() {
    let lp = mixed_lp();
    let bounds: Vec<(f64, f64)> = (0..lp.num_vars()).map(|v| lp.bounds(v)).collect();
    let mut capped = Tableau::new(&lp);
    capped.max_iter = 0;
    assert_eq!(capped.solve().unwrap_err(), SolverError::IterationLimit);
    let mut pivots = 0;
    let sol = solve_node(&mut capped, &lp, &bounds, &mut pivots).unwrap();
    let cold = lp.solve().unwrap();
    assert!((sol.objective - cold.objective).abs() < 1e-9);
    assert_eq!(pivots, cold.pivots, "the capped attempt made no pivot");
}

/// One random LP: per variable `(lb, span, bounded, cost)` — `bounded == 0`
/// means no upper bound; per row `(coefficients, cmp, rhs)`.
type RandomVar = (i32, i32, u8, i32);
type RandomRow = (Vec<i32>, u8, i32);
/// A built row: `(terms, cmp, rhs)`.
type BuiltRow = (Vec<(usize, f64)>, Cmp, f64);

fn cmp_of(code: u8) -> Cmp {
    [Cmp::Le, Cmp::Ge, Cmp::Eq][code as usize % 3]
}

/// The rows of a random LP as `(terms, cmp, rhs)`. With `anchored`, each
/// right-hand side is instead placed `|rhs| mod 3` on the feasible side of
/// the box's integer midpoint, so the root is feasible; with `redundant`,
/// row 0 is added again, doubled.
fn random_rows_of(
    vars: &[RandomVar],
    rows: &[RandomRow],
    anchored: bool,
    redundant: bool,
) -> Vec<BuiltRow> {
    let mut out: Vec<BuiltRow> = rows
        .iter()
        .map(|(coefs, code, rhs)| {
            let cmp = cmp_of(*code);
            let rhs = if anchored {
                let at: i32 = vars
                    .iter()
                    .zip(coefs)
                    .map(|(&(lb, span, _, _), a)| a * (lb + span / 2))
                    .sum();
                match cmp {
                    Cmp::Le => at + rhs.abs() % 3,
                    Cmp::Ge => at - rhs.abs() % 3,
                    Cmp::Eq => at,
                }
            } else {
                *rhs
            };
            let terms = (0..vars.len()).map(|v| (v, f64::from(coefs[v]))).collect();
            (terms, cmp, f64::from(rhs))
        })
        .collect();
    if redundant {
        let (terms, cmp, rhs) = out[0].clone();
        let doubled = terms.iter().map(|&(v, a)| (v, 2.0 * a)).collect();
        out.push((doubled, cmp, 2.0 * rhs));
    }
    out
}

/// Builds the LP of [`random_rows_of`].
fn random_lp(vars: &[RandomVar], rows: &[RandomRow], anchored: bool, redundant: bool) -> LpProblem {
    let mut lp = LpProblem::new();
    for &(lb, span, bounded, cost) in vars {
        let ub = if bounded == 0 {
            f64::INFINITY
        } else {
            f64::from(lb + span)
        };
        lp.add_var(f64::from(lb), ub, f64::from(cost));
    }
    for (terms, cmp, rhs) in random_rows_of(vars, rows, anchored, redundant) {
        lp.add_constraint(&terms, cmp, rhs);
    }
    lp
}

/// Warm re-solves on one tableau under a sequence of bound tightenings
/// and relaxations must match a cold solve of the same bounds, step by
/// step, and every returned point must be feasible.
fn check_warm_against_cold(
    vars: &[RandomVar],
    rows: &[RandomRow],
    shape: u8,
    steps: &[(usize, u8, i32)],
) -> Result<(), TestCaseError> {
    let lp = random_lp(
        vars,
        rows,
        !shape.is_multiple_of(4),
        shape.is_multiple_of(3),
    );
    let mut tab = Tableau::new(&lp);
    let mut cur = lp.clone();
    let first = (tab.solve(), lp.solve());
    prop_assert!(
        same_outcome(&outcome(&first.0), &outcome(&first.1)),
        "root: {:?} vs {:?}",
        first.0,
        first.1
    );
    for (k, &(var, kind, value)) in steps.iter().enumerate() {
        let v = var % lp.num_vars();
        let (lb, ub) = cur.bounds(v);
        let (root_lb, root_ub) = lp.bounds(v);
        let value = f64::from(value);
        let (lb, ub) = match kind % 5 {
            0 => (value.max(lb).min(ub), ub),
            1 => (lb, value.min(ub).max(lb)),
            2 => (root_lb, root_ub),
            3 => (lb, f64::INFINITY),
            _ => {
                let at = value.max(lb).min(ub);
                (at, at)
            }
        };
        tab.set_bounds(v, lb, ub);
        cur.set_bounds(v, lb, ub);
        let (warm, cold) = (tab.solve(), cur.solve());
        prop_assert!(
            same_outcome(&outcome(&warm), &outcome(&cold)),
            "step {k}: warm {:?} vs cold {:?}",
            outcome(&warm),
            outcome(&cold)
        );
        for sol in [&warm, &cold].into_iter().flatten() {
            prop_assert!(cur.is_feasible(&sol.values), "step {k}: infeasible point");
        }
    }
    Ok(())
}

/// Branch & bound on a pure-integer program in a small box must equal
/// exhaustive enumeration of the box.
fn check_milp_against_enumeration(
    vars: &[(i32, i32, i32)],
    rows: &[RandomRow],
    shape: u8,
) -> Result<(), TestCaseError> {
    let boxed: Vec<RandomVar> = vars.iter().map(|&(lb, span, c)| (lb, span, 1, c)).collect();
    let (anchored, redundant) = (!shape.is_multiple_of(4), shape.is_multiple_of(3));
    let lp = random_lp(&boxed, rows, anchored, redundant);
    let mut p = MilpProblem::new();
    let ids: Vec<_> = vars
        .iter()
        .map(|&(lb, span, c)| p.add_int_var(f64::from(lb), f64::from(lb + span), f64::from(c)))
        .collect();
    for (terms, cmp, rhs) in random_rows_of(&boxed, rows, anchored, redundant) {
        let terms: Vec<_> = terms.iter().map(|&(v, a)| (ids[v], a)).collect();
        p.add_constraint(&terms, cmp, rhs);
    }
    // Enumerate the box.
    let mut best: Option<f64> = None;
    let mut point: Vec<f64> = vars.iter().map(|&(lb, _, _)| f64::from(lb)).collect();
    'walk: loop {
        if lp.is_feasible(&point) {
            let z = lp.objective_value(&point);
            best = Some(best.map_or(z, |b: f64| b.min(z)));
        }
        for (i, &(lb, span, _)) in vars.iter().enumerate() {
            if point[i] < f64::from(lb + span) {
                point[i] += 1.0;
                continue 'walk;
            }
            point[i] = f64::from(lb);
        }
        break;
    }
    match (p.solve(), best) {
        (Ok(sol), Some(b)) => {
            prop_assert!(
                (sol.objective - b).abs() < 1e-6,
                "milp {} vs enumeration {b}",
                sol.objective
            );
            prop_assert!(lp.is_feasible(&sol.values));
            prop_assert!(
                sol.values.iter().all(|x| x.fract() == 0.0),
                "{:?}",
                sol.values
            );
        }
        (Err(SolverError::Infeasible), None) => {}
        (got, b) => {
            return Err(TestCaseError::fail(format!(
                "milp {got:?} vs enumeration {b:?}"
            )))
        }
    }
    Ok(())
}

fn random_vars() -> impl Strategy<Value = Vec<RandomVar>> {
    proptest::collection::vec((-3i32..3, 0i32..6, 0u8..4, -3i32..4), 2..5)
}

fn random_rows() -> impl Strategy<Value = Vec<RandomRow>> {
    proptest::collection::vec(
        (proptest::collection::vec(-3i32..4, 4), 0u8..3, -6i32..9),
        1..5,
    )
}

fn random_steps() -> impl Strategy<Value = Vec<(usize, u8, i32)>> {
    proptest::collection::vec((0usize..4, 0u8..5, -3i32..6), 1..12)
}

fn random_int_vars() -> impl Strategy<Value = Vec<(i32, i32, i32)>> {
    proptest::collection::vec((-2i32..2, 0i32..4, -3i32..4), 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Warm re-solves agree with cold solves under random bound walks.
    #[test]
    fn prop_warm_resolve_matches_cold(vars in random_vars(), rows in random_rows(),
                                      shape in 0u8..12, steps in random_steps()) {
        check_warm_against_cold(&vars, &rows, shape, &steps)?;
    }

    /// Warm-started branch & bound agrees with enumerating the box.
    #[test]
    fn prop_milp_matches_enumeration(vars in random_int_vars(), rows in random_rows(),
                                     shape in 0u8..12) {
        check_milp_against_enumeration(&vars, &rows, shape)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// Deep, fixed-seed run of [`prop_warm_resolve_matches_cold`]
    /// (`cargo test --release -p sfq-solver -- --ignored`).
    #[test]
    #[ignore]
    fn deep_warm_resolve_matches_cold(vars in random_vars(), rows in random_rows(),
                                      shape in 0u8..12, steps in random_steps()) {
        check_warm_against_cold(&vars, &rows, shape, &steps)?;
    }

    /// Deep, fixed-seed run of [`prop_milp_matches_enumeration`].
    #[test]
    #[ignore]
    fn deep_milp_matches_enumeration(vars in random_int_vars(), rows in random_rows(),
                                     shape in 0u8..12) {
        check_milp_against_enumeration(&vars, &rows, shape)?;
    }
}
