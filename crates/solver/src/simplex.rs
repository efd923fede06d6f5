//! Bounded-variable simplex for linear programs, warm-startable.
//!
//! Every constraint row `Σ aᵢxᵢ cmp b` gets a *logical* column
//! `r = Σ aᵢxᵢ` whose bounds encode the comparison: `(−∞, b]` for `≤`,
//! `[b, ∞)` for `≥` and `[b, b]` for `=`. Every column, structural or
//! logical, keeps its `[lb, ub]` inside the ratio tests, so the tableau
//! has one row per constraint and no upper-bound rows, artificial columns
//! or phase 1: a cold solve starts from the slack basis (every logical
//! basic).
//!
//! A solve is a dual simplex. Nonbasic columns sit at the bound their
//! reduced-cost sign asks for; the leaving row is the basic variable
//! furthest outside its bounds, the entering column the one with the
//! minimum dual ratio, and both ties go to the smaller index, so every
//! solve is bit-reproducible. Where a column's reduced cost asks for a
//! bound it does not have (a negative cost on a variable without a finite
//! upper bound), its cost is shifted to make the basis dual feasible; once
//! the dual reaches a primal feasible basis the true costs come back and a
//! bounded primal pass (Bland's rule) finishes on the same tableau.
//!
//! Branch & bound keeps one working tableau for a whole search and re-solves
//! each node from whatever basis the previous node ended in. Only
//! structural bounds differ between nodes, so that basis stays dual
//! feasible and a node usually takes a handful of pivots. The tableau is
//! rebuilt from the original rows every `REFACTOR_EVERY` pivots, so
//! roundoff cannot accumulate over a long search.
//!
//! The tableau is stored dense, but a pivot eliminates only the pivot
//! row's nonzero columns, and only in rows whose pivot-column entry is
//! nonzero.

use std::fmt;

const TOL: f64 = 1e-7;

/// Pivots between two rebuilds of the working tableau from the original
/// rows.
pub(crate) const REFACTOR_EVERY: usize = 400;

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// Errors from LP construction or solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration cap was hit (numerical trouble).
    IterationLimit,
    /// A variable was declared with `lb > ub` or a non-finite bound.
    BadBounds {
        /// Index of the offending variable.
        var: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Infeasible => write!(f, "problem is infeasible"),
            SolverError::Unbounded => write!(f, "objective is unbounded"),
            SolverError::IterationLimit => write!(f, "simplex iteration limit reached"),
            SolverError::BadBounds { var } => write!(f, "variable {var} has invalid bounds"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Outcome classification of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
}

/// A solved LP: objective value and a value per structural variable.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Objective at the optimum.
    pub objective: f64,
    /// Variable values in declaration order.
    pub values: Vec<f64>,
    /// Solve status (always [`LpStatus::Optimal`] when returned as `Ok`).
    pub status: LpStatus,
    /// Tableau pivots performed by this solve (dual and primal; bound
    /// flips are not pivots) — a work counter that pins the pivot path.
    pub pivots: usize,
}

#[derive(Debug, Clone)]
struct Constraint {
    /// Merged terms: ascending variable order, nonzero coefficients only.
    terms: Vec<(usize, f64)>,
    cmp: Cmp,
    rhs: f64,
}

/// A linear program: minimize `c·x` subject to linear constraints and
/// variable bounds.
///
/// # Example
///
/// ```
/// use sfq_solver::{Cmp, LpProblem};
/// let mut lp = LpProblem::new();
/// let x = lp.add_var(0.0, f64::INFINITY, -1.0); // maximize x
/// lp.add_constraint(&[(x, 2.0)], Cmp::Le, 5.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.values[x] - 2.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    lower: Vec<f64>,
    upper: Vec<f64>,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty LP.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lb, ub]` (`ub` may be `f64::INFINITY`)
    /// and objective coefficient `obj`. Returns its column index.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> usize {
        self.lower.push(lb);
        self.upper.push(ub);
        self.objective.push(obj);
        self.lower.len() - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lower.len()
    }

    /// Number of constraints — one tableau row each.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a linear constraint `Σ coef·var  cmp  rhs`.
    ///
    /// Terms may repeat a variable; coefficients accumulate.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        // Merge once, here, in ascending variable order, so every rebuild
        // of a tableau row lays the coefficients out identically. A stable
        // sort keeps a repeated variable's coefficients in call order.
        let mut sorted = terms.to_vec();
        sorted.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(sorted.len());
        for (v, a) in sorted {
            match merged.last_mut() {
                Some((last, sum)) if *last == v => *sum += a,
                _ => merged.push((v, a)),
            }
        }
        merged.retain(|&(_, a)| a.abs() > 0.0);
        self.constraints.push(Constraint {
            terms: merged,
            cmp,
            rhs,
        });
    }

    /// Overrides the bounds of an existing variable.
    pub fn set_bounds(&mut self, var: usize, lb: f64, ub: f64) {
        self.lower[var] = lb;
        self.upper[var] = ub;
    }

    /// Bounds of a variable.
    pub fn bounds(&self, var: usize) -> (f64, f64) {
        (self.lower[var], self.upper[var])
    }

    /// Objective coefficient of a variable.
    pub fn objective_coef(&self, var: usize) -> f64 {
        self.objective[var]
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        x.iter().zip(&self.objective).map(|(a, c)| a * c).sum()
    }

    /// Checks a point against all bounds and constraints (within `1e-6`).
    pub fn is_feasible(&self, x: &[f64]) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        const FEAS_TOL: f64 = 1e-6;
        for (v, &xv) in x.iter().enumerate() {
            if xv < self.lower[v] - FEAS_TOL || xv > self.upper[v] + FEAS_TOL {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + FEAS_TOL,
                Cmp::Ge => lhs >= c.rhs - FEAS_TOL,
                Cmp::Eq => (lhs - c.rhs).abs() <= FEAS_TOL,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Solves the LP from the slack basis.
    ///
    /// # Errors
    /// [`SolverError::Infeasible`], [`SolverError::Unbounded`],
    /// [`SolverError::IterationLimit`] or [`SolverError::BadBounds`].
    pub fn solve(&self) -> Result<LpSolution, SolverError> {
        Tableau::new(self).solve()
    }
}

/// Where a column sits: in the basis, or nonbasic at one of its bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    Basic,
    Lower,
    Upper,
}

/// The working tableau of one LP: `B⁻¹·[−A | I]` over the structural
/// columns `0..n` and the logical columns `n..n + m`, with the column
/// bounds, values and reduced costs that go with the current basis.
///
/// Row `i` reads `x_B(i) + Σ_{j nonbasic} T_ij·x_j = 0`. Structural bounds
/// can be changed between solves ([`Tableau::set_bounds`]); the next
/// [`Tableau::solve`] starts from the basis the last one ended in.
///
/// Rows are separate allocations on purpose. One flat buffer is a few
/// hundred kilobytes on the flow's largest served MILP, above glibc's mmap
/// threshold; freeing a block that size makes glibc raise its mmap and
/// trim thresholds, after which every allocator arena the daemon's threads
/// use keeps a megabyte or two resident. Rows of a few kilobytes are recycled like any small
/// allocation, and pivots index a row once per touched row either way.
#[derive(Debug, Clone)]
pub(crate) struct Tableau<'a> {
    lp: &'a LpProblem,
    rows: Vec<Vec<f64>>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Per column.
    place: Vec<Place>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Value of every column; a nonbasic one sits exactly on its bound.
    x: Vec<f64>,
    /// Working costs: the objective, logicals at zero, plus any shift the
    /// current solve applied to reach dual feasibility.
    cost: Vec<f64>,
    /// Reduced costs `cost_j − Σᵢ cost_B(i)·T_ij` (zero on basic columns).
    d: Vec<f64>,
    /// Reused buffer: the current pivot row's nonzero columns.
    support: Vec<usize>,
    /// Pivots performed so far, all solves together.
    pivots: usize,
    /// Pivots since the rows were last rebuilt from the problem.
    since_refactor: usize,
    /// Iteration cap of one solve (pivots plus bound flips).
    pub(crate) max_iter: usize,
}

impl<'a> Tableau<'a> {
    /// The slack-basis tableau of `lp`: every logical basic, every
    /// structural nonbasic, bounds as declared.
    pub(crate) fn new(lp: &'a LpProblem) -> Self {
        let (n, m) = (lp.num_vars(), lp.num_constraints());
        let mut lower = lp.lower.clone();
        let mut upper = lp.upper.clone();
        for c in &lp.constraints {
            let (lo, hi) = match c.cmp {
                Cmp::Le => (f64::NEG_INFINITY, c.rhs),
                Cmp::Ge => (c.rhs, f64::INFINITY),
                Cmp::Eq => (c.rhs, c.rhs),
            };
            lower.push(lo);
            upper.push(hi);
        }
        let mut cost = lp.objective.clone();
        cost.resize(n + m, 0.0);
        let mut place = vec![Place::Lower; n];
        place.resize(n + m, Place::Basic);
        let mut x = lower[..n].to_vec();
        x.resize(n + m, 0.0);
        let mut tab = Tableau {
            lp,
            rows: Vec::new(),
            basis: (n..n + m).collect(),
            place,
            lower,
            upper,
            x,
            cost,
            d: Vec::new(),
            support: Vec::new(),
            pivots: 0,
            since_refactor: 0,
            max_iter: 2000 + 200 * (2 * m + n),
        };
        tab.refactor();
        tab
    }

    /// Pivots performed so far, all solves together.
    pub(crate) fn pivots(&self) -> usize {
        self.pivots
    }

    /// Sets the bounds of structural variable `var` for the next solve.
    pub(crate) fn set_bounds(&mut self, var: usize, lb: f64, ub: f64) {
        self.lower[var] = lb;
        self.upper[var] = ub;
    }

    /// Re-solves from the current basis under the current bounds.
    ///
    /// # Errors
    /// As [`LpProblem::solve`]. After `Infeasible` or `Unbounded` the
    /// tableau is still a valid basis and the next solve warm-starts from
    /// it; after `IterationLimit` it should be rebuilt.
    pub(crate) fn solve(&mut self) -> Result<LpSolution, SolverError> {
        let n = self.lp.num_vars();
        for v in 0..n {
            if !self.lower[v].is_finite() || self.lower[v] > self.upper[v] + TOL {
                return Err(SolverError::BadBounds { var: v });
            }
        }
        let start = self.pivots;
        let mut budget = self.max_iter;
        self.place_nonbasics();
        let shifted = self.shift_dual_infeasible();
        let reached = self.dual(&mut budget);
        if shifted {
            self.cost[..n].copy_from_slice(&self.lp.objective);
            self.cost[n..].fill(0.0);
            self.price();
        }
        reached?;
        self.primal(&mut budget)?;
        let values = self.x[..n].to_vec();
        Ok(LpSolution {
            objective: self.lp.objective_value(&values),
            values,
            status: LpStatus::Optimal,
            pivots: self.pivots - start,
        })
    }

    /// Rebuilds the rows from the problem for the current basis, then the
    /// basic values and reduced costs from the nonbasic values and the
    /// working costs.
    ///
    /// The rows start as the slack basis `[−A | I]`; each basic structural
    /// column, in ascending order, is pivoted in on the row of a logical
    /// that is not basic, the one with the largest entry (ties to the
    /// smaller row). A column with no usable entry — a basis gone
    /// numerically singular — is dropped to its lower bound instead.
    pub(crate) fn refactor(&mut self) {
        let (n, m) = (self.lp.num_vars(), self.basis.len());
        self.rows = self
            .lp
            .constraints
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut row = vec![0.0; n + m];
                for &(v, a) in &c.terms {
                    row[v] = -a;
                }
                row[n + i] = 1.0;
                row
            })
            .collect();
        let mut wanted: Vec<usize> = self.basis.iter().copied().filter(|&c| c < n).collect();
        wanted.sort_unstable();
        self.basis = (n..n + m).collect();
        for q in wanted {
            let mut best: Option<(usize, f64)> = None;
            for (i, row) in self.rows.iter().enumerate() {
                let b = self.basis[i];
                if b < n || self.place[b] == Place::Basic {
                    continue; // taken by a structural, or a logical that stays
                }
                let a = row[q].abs();
                if a > TOL && best.is_none_or(|(_, w)| a > w) {
                    best = Some((i, a));
                }
            }
            match best {
                Some((i, _)) => {
                    self.eliminate(i, q);
                    self.basis[i] = q;
                }
                None => {
                    self.place[q] = Place::Lower;
                    self.x[q] = self.lower[q];
                }
            }
        }
        for &b in &self.basis {
            self.place[b] = Place::Basic;
        }
        let moved: Vec<usize> = (0..n + m)
            .filter(|&j| self.place[j] != Place::Basic && self.x[j] != 0.0)
            .collect();
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            let mut v = 0.0;
            for &j in &moved {
                v -= row[j] * self.x[j];
            }
            self.x[b] = v;
        }
        self.price();
        self.since_refactor = 0;
    }

    /// Recomputes every reduced cost from the working costs.
    fn price(&mut self) {
        self.d.clone_from(&self.cost);
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = self.cost[b];
            if cb != 0.0 {
                for (dj, &t) in self.d.iter_mut().zip(&self.rows[i]) {
                    *dj -= cb * t;
                }
            }
        }
        for &b in &self.basis {
            self.d[b] = 0.0;
        }
    }

    /// The bound a nonbasic column's place names.
    fn bound(&self, j: usize) -> f64 {
        match self.place[j] {
            Place::Upper => self.upper[j],
            _ => self.lower[j],
        }
    }

    /// Moves every nonbasic column onto the bound its reduced-cost sign
    /// asks for (a boxed column with a zero reduced cost stays where it
    /// is; a column with one finite bound sits on it), carrying the basic
    /// values along.
    fn place_nonbasics(&mut self) {
        for j in 0..self.x.len() {
            let here = self.place[j];
            if here == Place::Basic {
                continue;
            }
            let (lo, hi) = (self.lower[j], self.upper[j]);
            self.place[j] = if !hi.is_finite() {
                Place::Lower
            } else if !lo.is_finite() {
                Place::Upper
            } else if lo == hi {
                here
            } else if self.d[j] < -TOL {
                Place::Upper
            } else if self.d[j] > TOL {
                Place::Lower
            } else {
                here
            };
            let to = self.bound(j);
            if to != self.x[j] {
                self.step(j, to - self.x[j]);
                self.x[j] = to;
            }
        }
    }

    /// Whether nonbasic column `j` would improve the objective by leaving
    /// its bound — a dual infeasibility.
    fn prices_in(&self, j: usize) -> bool {
        match self.place[j] {
            Place::Basic => false,
            _ if self.lower[j] == self.upper[j] => false,
            Place::Lower => self.d[j] < -TOL,
            Place::Upper => self.d[j] > TOL,
        }
    }

    /// Shifts the working cost of every nonbasic column whose reduced cost
    /// asks for a bound it lacks, zeroing that reduced cost. Returns
    /// whether any was shifted.
    fn shift_dual_infeasible(&mut self) -> bool {
        let mut shifted = false;
        for j in 0..self.x.len() {
            if self.prices_in(j) {
                self.cost[j] -= self.d[j];
                self.d[j] = 0.0;
                shifted = true;
            }
        }
        shifted
    }

    /// Moves nonbasic column `j` by `delta`, updating every basic value.
    /// The caller sets `x[j]` itself, exactly.
    fn step(&mut self, j: usize, delta: f64) {
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            let a = row[j];
            if a != 0.0 {
                self.x[b] -= a * delta;
            }
        }
    }

    /// Takes one iteration from `budget`.
    fn tick(budget: &mut usize) -> Result<(), SolverError> {
        if *budget == 0 {
            return Err(SolverError::IterationLimit);
        }
        *budget -= 1;
        Ok(())
    }

    /// Rebuilds the rows when the pivot schedule says so.
    fn refactor_on_schedule(&mut self) {
        if self.since_refactor >= REFACTOR_EVERY {
            self.refactor();
        }
    }

    /// Dual simplex from a dual feasible basis to a primal feasible one.
    fn dual(&mut self, budget: &mut usize) -> Result<(), SolverError> {
        loop {
            self.refactor_on_schedule();
            // Leaving row: the largest bound violation, ties to the smaller
            // row.
            let mut leave: Option<(usize, f64)> = None;
            for (i, &b) in self.basis.iter().enumerate() {
                let v = self.x[b];
                let violation = if v < self.lower[b] - TOL {
                    self.lower[b] - v
                } else if v > self.upper[b] + TOL {
                    v - self.upper[b]
                } else {
                    continue;
                };
                if leave.is_none_or(|(_, w)| violation > w) {
                    leave = Some((i, violation));
                }
            }
            let Some((r, _)) = leave else {
                return Ok(());
            };
            Self::tick(budget)?;
            let p = self.basis[r];
            let rising = self.x[p] < self.lower[p];
            let target = if rising { self.lower[p] } else { self.upper[p] };
            // Entering column: moving it off its bound must push x_p toward
            // `target`; the minimum ratio |d_j / T_rj| keeps every reduced
            // cost on its side; ties go to the smaller column.
            let row = &self.rows[r];
            let mut enter: Option<(usize, f64)> = None;
            for (j, &a) in row.iter().enumerate() {
                if a.abs() <= TOL {
                    continue;
                }
                let s = match self.place[j] {
                    Place::Basic => continue,
                    _ if self.lower[j] == self.upper[j] => continue,
                    Place::Lower => 1.0,
                    Place::Upper => -1.0,
                };
                // x_p moves by −a·s per unit of x_j's free direction s.
                let pushes = if rising { -a * s > 0.0 } else { -a * s < 0.0 };
                if pushes {
                    let ratio = (self.d[j] * s).max(0.0) / a.abs();
                    if enter.is_none_or(|(_, best)| ratio < best) {
                        enter = Some((j, ratio));
                    }
                }
            }
            let Some((q, _)) = enter else {
                return Err(SolverError::Infeasible);
            };
            let theta = (self.x[p] - target) / row[q];
            self.step(q, theta);
            self.x[q] += theta;
            self.x[p] = target;
            self.place[p] = if rising { Place::Lower } else { Place::Upper };
            self.pivot(r, q);
        }
    }

    /// Bounded primal simplex with Bland's rule from a primal feasible
    /// basis: the smallest improving column enters; the smallest step
    /// wins, ties to the smaller column, the entering column's own bound
    /// flip counting as its index.
    fn primal(&mut self, budget: &mut usize) -> Result<(), SolverError> {
        loop {
            self.refactor_on_schedule();
            let Some(q) = (0..self.x.len()).find(|&j| self.prices_in(j)) else {
                return Ok(());
            };
            Self::tick(budget)?;
            let s = if self.place[q] == Place::Lower {
                1.0
            } else {
                -1.0
            };
            // Basic i moves by −T_iq·s per unit step.
            let mut step = self.upper[q] - self.lower[q];
            let mut leave: Option<usize> = None;
            for (i, row) in self.rows.iter().enumerate() {
                let rate = -row[q] * s;
                let b = self.basis[i];
                let limit = if rate > TOL && self.upper[b].is_finite() {
                    (self.upper[b] - self.x[b]) / rate
                } else if rate < -TOL && self.lower[b].is_finite() {
                    (self.x[b] - self.lower[b]) / -rate
                } else {
                    continue;
                };
                let limit = limit.max(0.0);
                let holder = leave.map_or(q, |l| self.basis[l]);
                if limit < step - TOL || (limit <= step + TOL && b < holder) {
                    step = limit;
                    leave = Some(i);
                }
            }
            if step == f64::INFINITY {
                return Err(SolverError::Unbounded);
            }
            self.step(q, s * step);
            match leave {
                None => {
                    self.place[q] = if s > 0.0 { Place::Upper } else { Place::Lower };
                    self.x[q] = self.bound(q);
                }
                Some(r) => {
                    self.x[q] += s * step;
                    let p = self.basis[r];
                    self.place[p] = if -self.rows[r][q] * s > 0.0 {
                        Place::Upper
                    } else {
                        Place::Lower
                    };
                    self.x[p] = self.bound(p);
                    self.pivot(r, q);
                }
            }
        }
    }

    /// Pivots `col` into the basis at `row` and updates the reduced costs.
    /// The caller has already placed the leaving column.
    fn pivot(&mut self, row: usize, col: usize) {
        self.eliminate(row, col);
        let dq = self.d[col];
        if dq != 0.0 {
            let pivot_row = &self.rows[row];
            for &k in &self.support {
                self.d[k] -= dq * pivot_row[k];
            }
        }
        self.d[col] = 0.0;
        self.basis[row] = col;
        self.place[col] = Place::Basic;
        self.pivots += 1;
        self.since_refactor += 1;
    }

    /// Divides `row` by its entry in `col`, then eliminates `col` from
    /// every other row whose entry there is nonzero, touching only the
    /// pivot row's nonzero columns (left in `support`).
    fn eliminate(&mut self, row: usize, col: usize) {
        let Tableau { rows, support, .. } = self;
        let (above, rest) = rows.split_at_mut(row);
        let (pivot_row, below) = rest.split_first_mut().expect("pivot row in range");
        let p = pivot_row[col];
        support.clear();
        for (k, x) in pivot_row.iter_mut().enumerate() {
            *x /= p;
            if *x != 0.0 {
                support.push(k);
            }
        }
        for r in above.iter_mut().chain(below.iter_mut()) {
            let f = r[col];
            if f != 0.0 {
                for &k in support.iter() {
                    r[k] -= f * pivot_row[k];
                }
            }
        }
    }
}
