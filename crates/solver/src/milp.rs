//! Mixed-integer linear programming by branch & bound.
//!
//! Branching is most-fractional-variable (within branch priorities) with
//! depth-first search and incumbent pruning. One working
//! [`crate::simplex`] tableau serves the whole search: each popped node
//! only changes structural bounds, so its LP relaxation is re-solved by the
//! dual simplex from the basis the previous node ended in, with no basis or
//! tableau stored per node. A warm re-solve that hits its iteration cap is
//! retried once, cold, on a tableau rebuilt from the original rows. An
//! integer point becomes the incumbent only if it is feasible for the
//! original problem. Exactness is what the flow needs from this layer (the
//! paper reports optimally retimed DFF counts); scale is handled upstream
//! by only sending compact formulations here.

use crate::simplex::{Cmp, LpProblem, LpSolution, SolverError, Tableau};

/// Handle to a MILP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Termination status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal.
    Optimal,
    /// A feasible incumbent was returned but the node limit stopped the
    /// proof of optimality.
    FeasibleLimit,
}

/// A MILP solution.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Objective value of the incumbent.
    pub objective: f64,
    /// Values per variable (integer variables are integral within 1e-6).
    pub values: Vec<f64>,
    /// Whether optimality was proven.
    pub status: MilpStatus,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Simplex pivots summed over every node's LP, infeasible ones
    /// included — with `nodes`, a fingerprint of the search path.
    pub lp_pivots: usize,
}

impl MilpSolution {
    /// Value of a variable.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Value of an integer variable, rounded.
    pub fn int_value(&self, v: VarId) -> i64 {
        self.values[v.0].round() as i64
    }
}

/// A mixed-integer linear program (minimization).
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, Default)]
pub struct MilpProblem {
    lp: LpProblem,
    integer: Vec<bool>,
    node_limit: usize,
    warm_start: Option<Vec<f64>>,
    branch_priority: Vec<i32>,
}

const INT_TOL: f64 = 1e-6;

impl MilpProblem {
    /// Creates an empty problem with the default node limit (200 000).
    pub fn new() -> Self {
        MilpProblem {
            lp: LpProblem::new(),
            integer: Vec::new(),
            node_limit: 200_000,
            warm_start: None,
            branch_priority: Vec::new(),
        }
    }

    /// Sets the branch-and-bound node limit.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.max(1);
    }

    /// Provides a candidate solution, by variable id, as the initial
    /// incumbent; variables not mentioned default to their lower bound.
    ///
    /// Branch & bound prunes every node whose LP bound cannot beat the
    /// incumbent, so a good warm start (e.g. the phase-assignment
    /// heuristic's incumbent) shrinks the search enormously. The point is
    /// validated at solve time; an infeasible or non-integral warm start is
    /// silently ignored.
    pub fn set_warm_start_pairs(&mut self, pairs: &[(VarId, f64)]) {
        let mut values: Vec<f64> = (0..self.num_vars()).map(|v| self.lp.bounds(v).0).collect();
        for &(v, x) in pairs {
            values[v.0] = x;
        }
        self.warm_start = Some(values);
    }

    /// Adds a continuous variable with bounds and objective coefficient.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        let v = self.lp.add_var(lb, ub, obj);
        self.integer.push(false);
        self.branch_priority.push(0);
        VarId(v)
    }

    /// Adds an integer variable with bounds and objective coefficient.
    pub fn add_int_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        let v = self.lp.add_var(lb, ub, obj);
        self.integer.push(true);
        self.branch_priority.push(0);
        VarId(v)
    }

    /// Sets the branch priority of a variable (default 0). When several
    /// integer variables are fractional, branching picks the highest
    /// priority first — put structural decisions (e.g. schedule stages)
    /// above derived counters whose value follows from them.
    pub fn set_branch_priority(&mut self, v: VarId, priority: i32) {
        self.branch_priority[v.0] = priority;
    }

    /// Adds a binary (0/1) variable.
    pub fn add_bool_var(&mut self, obj: f64) -> VarId {
        self.add_int_var(0.0, 1.0, obj)
    }

    /// Adds a linear constraint `Σ coef·var  cmp  rhs`.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) {
        let raw: Vec<(usize, f64)> = terms.iter().map(|&(v, c)| (v.0, c)).collect();
        self.lp.add_constraint(&raw, cmp, rhs);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.integer.len()
    }

    /// Solves the problem to optimality (or best incumbent at node limit).
    ///
    /// # Errors
    /// [`SolverError::Infeasible`] if no integer-feasible point exists;
    /// [`SolverError::Unbounded`] / [`SolverError::IterationLimit`] from the
    /// LP layer.
    pub fn solve(&self) -> Result<MilpSolution, SolverError> {
        #[derive(Clone)]
        struct Node {
            bounds: Vec<(f64, f64)>,
            lower_bound: f64,
        }
        let root_bounds: Vec<(f64, f64)> =
            (0..self.num_vars()).map(|v| self.lp.bounds(v)).collect();

        // When the objective is an integer combination of integer variables,
        // every attainable value is integral, so LP bounds can be rounded up
        // before pruning — the single cheapest cut there is.
        let integral_objective = (0..self.num_vars()).all(|v| {
            let c = self.lp.objective_coef(v);
            c == 0.0 || (self.integer[v] && c.fract() == 0.0)
        });
        let sharpen = |bound: f64| -> f64 {
            if integral_objective {
                (bound - 1e-6).ceil()
            } else {
                bound
            }
        };

        let mut stack = vec![Node {
            bounds: root_bounds,
            lower_bound: f64::NEG_INFINITY,
        }];
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        if let Some(ws) = &self.warm_start {
            let integral = ws
                .iter()
                .zip(&self.integer)
                .all(|(&x, &int)| !int || (x - x.round()).abs() <= INT_TOL);
            if integral && self.lp.is_feasible(ws) {
                incumbent = Some((self.lp.objective_value(ws), ws.clone()));
            }
        }
        // One working tableau; each node overwrites every bound before its
        // warm re-solve.
        let mut tab = Tableau::new(&self.lp);
        let mut nodes = 0usize;
        let mut lp_pivots = 0usize;
        let mut hit_limit = false;

        while let Some(node) = stack.pop() {
            if nodes >= self.node_limit {
                hit_limit = true;
                break;
            }
            nodes += 1;
            if let Some((best, _)) = &incumbent {
                if node.lower_bound >= *best - 1e-9 {
                    continue; // pruned by bound
                }
            }
            if node.bounds.iter().any(|&(lb, ub)| lb > ub + INT_TOL) {
                continue; // empty box
            }
            let sol = match solve_node(&mut tab, &self.lp, &node.bounds, &mut lp_pivots) {
                Ok(s) => s,
                Err(SolverError::Infeasible) => continue,
                Err(e) => return Err(e),
            };
            let node_bound = sharpen(sol.objective);
            if let Some((best, _)) = &incumbent {
                if node_bound >= *best - 1e-9 {
                    continue;
                }
            }
            // Branch variable: highest priority, then most fractional.
            let mut branch_var: Option<(usize, i32, f64)> = None;
            for v in 0..self.num_vars() {
                if !self.integer[v] {
                    continue;
                }
                let x = sol.values[v];
                let frac = (x - x.round()).abs();
                if frac > INT_TOL {
                    let prio = self.branch_priority[v];
                    let dist = (x - x.floor() - 0.5).abs(); // closeness to .5
                    let better = match branch_var {
                        None => true,
                        Some((_, bp, bd)) => prio > bp || (prio == bp && dist < bd),
                    };
                    if better {
                        branch_var = Some((v, prio, dist));
                    }
                }
            }
            let branch_var = branch_var.map(|(v, _, d)| (v, d));
            match branch_var {
                None => {
                    // Integer feasible: snap the integers and accept the
                    // point only if the original problem agrees.
                    let mut point = sol.values;
                    for (x, _) in point.iter_mut().zip(&self.integer).filter(|(_, &int)| int) {
                        *x = x.round();
                    }
                    if !self.lp.is_feasible(&point) {
                        continue;
                    }
                    let objective = self.lp.objective_value(&point);
                    let better = incumbent
                        .as_ref()
                        .map(|(best, _)| objective < *best - 1e-9)
                        .unwrap_or(true);
                    if better {
                        incumbent = Some((objective, point));
                    }
                }
                Some((v, _)) => {
                    let x = sol.values[v];
                    let (lb, ub) = node.bounds[v];
                    // Down branch: x ≤ floor.
                    let mut down = node.bounds.clone();
                    down[v] = (lb, x.floor());
                    // Up branch: x ≥ ceil.
                    let mut up = node.bounds.clone();
                    up[v] = (x.ceil(), ub);
                    // Explore the branch closer to the LP optimum first
                    // (pushed last → popped first).
                    let frac = x - x.floor();
                    let d = Node {
                        bounds: down,
                        lower_bound: node_bound,
                    };
                    let u = Node {
                        bounds: up,
                        lower_bound: node_bound,
                    };
                    if frac > 0.5 {
                        stack.push(d);
                        stack.push(u);
                    } else {
                        stack.push(u);
                        stack.push(d);
                    }
                }
            }
        }

        match incumbent {
            Some((objective, values)) => Ok(MilpSolution {
                objective,
                values,
                status: if hit_limit {
                    MilpStatus::FeasibleLimit
                } else {
                    MilpStatus::Optimal
                },
                nodes,
                lp_pivots,
            }),
            None => {
                if hit_limit {
                    Err(SolverError::IterationLimit)
                } else {
                    Err(SolverError::Infeasible)
                }
            }
        }
    }
}

/// Re-solves one node's LP relaxation on the working tableau under the
/// node's `bounds`, adding its pivots to `pivots`. A warm re-solve that
/// hits its iteration cap is retried once from a tableau rebuilt from the
/// original rows (the slack basis) before the limit surfaces.
pub(crate) fn solve_node<'a>(
    tab: &mut Tableau<'a>,
    lp: &'a LpProblem,
    bounds: &[(f64, f64)],
    pivots: &mut usize,
) -> Result<LpSolution, SolverError> {
    let mut attempt = |tab: &mut Tableau<'a>| {
        for (v, &(lb, ub)) in bounds.iter().enumerate() {
            tab.set_bounds(v, lb, ub);
        }
        let before = tab.pivots();
        let result = tab.solve();
        *pivots += tab.pivots() - before;
        result
    };
    match attempt(tab) {
        Err(SolverError::IterationLimit) => {
            *tab = Tableau::new(lp);
            attempt(tab)
        }
        result => result,
    }
}
