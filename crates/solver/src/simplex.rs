//! Two-phase primal simplex for linear programs.
//!
//! Variables carry finite lower bounds (shifted to zero internally) and
//! optional finite upper bounds (added as explicit rows). Bland's rule makes
//! the iteration finite; a generous iteration cap guards against numerical
//! pathologies.
//!
//! The tableau is stored dense, but each pivot only does the work the
//! flow's sparse formulations need: the pivot row's nonzero columns are
//! collected once and only those are eliminated, and only in the rows
//! whose pivot-column entry is nonzero; pricing sums only over rows whose
//! basic variable has a nonzero cost. Every floating-point operation a
//! comparison can see runs in the order a dense textbook tableau would run
//! it, so the pivot sequence — and with it each branch & bound search above
//! — is exactly the dense kernel's. Skipped entries are `x − f·0`, which
//! can at most flip the sign of a zero.

use std::fmt;

const TOL: f64 = 1e-7;

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
    /// Tableau pivots performed (phase 1, artificial drive-out and
    /// phase 2) — a work counter that pins the pivot path.
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

    /// Number of constraints (upper-bound rows not included).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a linear constraint `Σ coef·var  cmp  rhs`.
    ///
    /// Terms may repeat a variable; coefficients accumulate.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        // Merge once, here, in ascending variable order: every solve then
        // sums a row's bound shift in that one order. A stable sort keeps
        // a repeated variable's coefficients in call order.
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

    /// Overrides the bounds of an existing variable (used by branch & bound).
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

    /// Solves the LP.
    ///
    /// # Errors
    /// [`SolverError::Infeasible`], [`SolverError::Unbounded`],
    /// [`SolverError::IterationLimit`] or [`SolverError::BadBounds`].
    pub fn solve(&self) -> Result<LpSolution, SolverError> {
        self.solve_counted(&mut 0)
    }

    /// [`solve`](Self::solve), adding every pivot to `pivots` whatever the
    /// outcome — branch & bound counts the work of infeasible nodes too.
    pub(crate) fn solve_counted(&self, pivots: &mut usize) -> Result<LpSolution, SolverError> {
        let n = self.num_vars();
        for v in 0..n {
            if !self.lower[v].is_finite() || self.lower[v] > self.upper[v] + TOL {
                return Err(SolverError::BadBounds { var: v });
            }
        }

        // Shift x = lb + x', x' ≥ 0; collect rows (including ub rows).
        let unit_rows: Vec<(usize, f64)> = (0..n)
            .filter(|&v| self.upper[v].is_finite())
            .map(|v| (v, 1.0))
            .collect();
        let mut rows: Vec<Row<'_>> = Vec::with_capacity(self.constraints.len() + unit_rows.len());
        for c in &self.constraints {
            let mut shift = 0.0;
            for &(v, a) in &c.terms {
                shift += a * self.lower[v];
            }
            rows.push(Row::new(&c.terms, c.cmp, c.rhs - shift));
        }
        for unit in &unit_rows {
            let span = self.upper[unit.0] - self.lower[unit.0];
            rows.push(Row::new(std::slice::from_ref(unit), Cmp::Le, span));
        }

        // Columns: structural (n) + slacks + artificials.
        let num_slacks = rows.iter().filter(|r| r.cmp != Cmp::Eq).count();
        let first_artificial = n + num_slacks;
        let total = first_artificial + rows.iter().filter(|r| r.cmp != Cmp::Le).count();
        let mut tab = Tableau::new(rows.len(), total);
        let (mut slack, mut artificial) = (n, first_artificial);
        for (i, r) in rows.iter().enumerate() {
            let row = &mut tab.rows[i];
            for &(v, a) in r.terms {
                row[v] = if r.negated { -a } else { a };
            }
            row[total] = r.rhs;
            let basic = match r.cmp {
                Cmp::Le => {
                    row[slack] = 1.0;
                    slack += 1;
                    slack - 1
                }
                Cmp::Ge => {
                    row[slack] = -1.0;
                    slack += 1;
                    row[artificial] = 1.0;
                    artificial += 1;
                    artificial - 1
                }
                Cmp::Eq => {
                    row[artificial] = 1.0;
                    artificial += 1;
                    artificial - 1
                }
            };
            tab.set_basic(i, basic);
        }

        let result = self.two_phase(&mut tab, first_artificial);
        *pivots += tab.pivots;
        result
    }

    /// Runs both simplex phases on the initial tableau and reads out the
    /// solution. Artificial columns are `first_artificial..`.
    fn two_phase(
        &self,
        tab: &mut Tableau,
        first_artificial: usize,
    ) -> Result<LpSolution, SolverError> {
        let n = self.num_vars();
        let m = tab.basis.len();
        let total = tab.columns;
        let max_iter = 2000 + 200 * (m + total);

        // ---- phase 1 ----
        if first_artificial < total {
            let mut cost = vec![0.0f64; total];
            cost[first_artificial..].fill(1.0);
            let obj = tab.run_simplex(&cost, total, max_iter)?;
            if obj > 1e-6 {
                return Err(SolverError::Infeasible);
            }
            // Drive remaining artificials out of the basis. A redundant row
            // has no structural or slack entry left: its artificial stays
            // basic at zero, never to re-enter (phase 2 does not price it).
            for i in 0..m {
                if tab.basis[i] >= first_artificial {
                    if let Some(j) = (0..first_artificial).find(|&j| tab.rows[i][j].abs() > TOL) {
                        tab.pivot(i, j);
                    }
                }
            }
        }

        // ---- phase 2 ----
        let mut cost = vec![0.0f64; total];
        cost[..n].copy_from_slice(&self.objective);
        let obj = tab.run_simplex(&cost, first_artificial, max_iter)?;

        // Read out structural values (undo the shift).
        let mut values = vec![0.0f64; n];
        for i in 0..m {
            if tab.basis[i] < n {
                values[tab.basis[i]] = tab.rows[i][total];
            }
        }
        for (v, value) in values.iter_mut().enumerate() {
            *value += self.lower[v];
        }
        let shift_obj: f64 = (0..n).map(|v| self.objective[v] * self.lower[v]).sum();
        Ok(LpSolution {
            objective: obj + shift_obj,
            values,
            status: LpStatus::Optimal,
            pivots: tab.pivots,
        })
    }
}

/// One tableau row before it is laid out: shifted, and negated when its
/// right-hand side was negative so that every row starts with `rhs ≥ 0`.
struct Row<'a> {
    terms: &'a [(usize, f64)],
    negated: bool,
    cmp: Cmp,
    rhs: f64,
}

impl<'a> Row<'a> {
    fn new(terms: &'a [(usize, f64)], cmp: Cmp, rhs: f64) -> Self {
        let negated = rhs < 0.0;
        let cmp = match (negated, cmp) {
            (true, Cmp::Le) => Cmp::Ge,
            (true, Cmp::Ge) => Cmp::Le,
            (_, cmp) => cmp,
        };
        Row {
            terms,
            negated,
            cmp,
            rhs: if negated { -rhs } else { rhs },
        }
    }
}

/// A simplex tableau: each row holds `columns` cells followed by its
/// right-hand side.
///
/// Rows are separate allocations on purpose. One flat buffer is about
/// 1 MB on the flow's largest served MILP; freeing a block that size makes
/// glibc raise its mmap and trim thresholds, after which every allocator
/// arena the daemon's threads use keeps a megabyte or two resident. Rows
/// of a few kilobytes are recycled like any small allocation, and pivots
/// index a row once per touched row either way.
struct Tableau {
    rows: Vec<Vec<f64>>,
    columns: usize,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Whether a column is basic, kept in step with `basis`.
    in_basis: Vec<bool>,
    /// Reused buffer: the current pivot row's nonzero columns.
    support: Vec<usize>,
    /// Reused buffer: `(row, basic cost)` of rows whose basic cost is nonzero.
    costed: Vec<(usize, f64)>,
    /// Pivots performed so far.
    pivots: usize,
}

impl Tableau {
    /// An all-zero tableau of `rows` rows over `columns` columns, with no
    /// basis yet (every row gets one through [`Tableau::set_basic`]).
    fn new(rows: usize, columns: usize) -> Self {
        Tableau {
            rows: vec![vec![0.0; columns + 1]; rows],
            columns,
            basis: vec![usize::MAX; rows],
            in_basis: vec![false; columns],
            support: Vec::new(),
            costed: Vec::new(),
            pivots: 0,
        }
    }

    fn set_basic(&mut self, row: usize, col: usize) {
        if let Some(was_basic) = self.in_basis.get_mut(self.basis[row]) {
            *was_basic = false;
        }
        self.basis[row] = col;
        self.in_basis[col] = true;
    }

    /// Runs primal simplex with Bland's rule, pricing columns `0..price`.
    ///
    /// Bland's first-improving-column rule needs more pivots than steeper
    /// pricing on paper, but it is cycle-free and — measured on this crate's
    /// branch-and-bound workloads — beats Dantzig pricing, whose steepest
    /// columns thrash on the highly degenerate scheduling polytopes the flow
    /// produces.
    ///
    /// Returns the final objective value of `cost` over the basic solution.
    fn run_simplex(
        &mut self,
        cost: &[f64],
        price: usize,
        max_iter: usize,
    ) -> Result<f64, SolverError> {
        let rhs = self.columns;
        for _iter in 0..max_iter {
            // Reduced costs: d_j = c_j - c_B · column_j, summed in ascending
            // row order over the rows whose basic cost is nonzero.
            self.costed.clear();
            for (i, &b) in self.basis.iter().enumerate() {
                if cost[b] != 0.0 {
                    self.costed.push((i, cost[b]));
                }
            }
            let (rows, costed, in_basis) = (&self.rows, &self.costed, &self.in_basis);
            let entering = (0..price).find(|&j| {
                if in_basis[j] {
                    return false;
                }
                let mut d = cost[j];
                for &(i, cb) in costed {
                    d -= cb * rows[i][j];
                }
                d < -TOL // Bland: first improving column
            });
            let Some(j) = entering else {
                // Optimal: compute objective.
                let mut obj = 0.0;
                for (i, &b) in self.basis.iter().enumerate() {
                    obj += cost[b] * rows[i][rhs];
                }
                return Ok(obj);
            };
            // Ratio test (Bland tie-break on smallest basis column).
            let mut leave: Option<(usize, f64)> = None;
            for (i, row) in rows.iter().enumerate() {
                let a = row[j];
                if a > TOL {
                    let ratio = row[rhs] / a;
                    match leave {
                        None => leave = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < lr - TOL
                                || (ratio < lr + TOL && self.basis[i] < self.basis[li])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((i, _)) = leave else {
                return Err(SolverError::Unbounded);
            };
            self.pivot(i, j);
        }
        Err(SolverError::IterationLimit)
    }

    /// Pivots `col` into the basis at `row`: divides the pivot row, then
    /// eliminates `col` from every other row whose entry there is nonzero,
    /// touching only the pivot row's nonzero columns.
    fn pivot(&mut self, row: usize, col: usize) {
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
        self.set_basic(row, col);
        self.pivots += 1;
    }
}
