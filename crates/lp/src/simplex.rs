//! Bounded-variable primal simplex with a two-phase start.
//!
//! The implementation follows the textbook "simplex method with upper
//! bounds": nonbasic variables rest at one of their (finite) bounds, the
//! ratio test accounts for both basic-variable bounds and a bound flip of
//! the entering variable, and phase 1 minimises the sum of artificial
//! variables that absorb any initial row infeasibility.

use std::error::Error;
use std::fmt;

/// Feasibility tolerance: a value within `FEAS_TOL` of a bound counts as on
/// the bound.
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// Pivot / reduced-cost tolerance.
pub(crate) const PIVOT_TOL: f64 = 1e-9;

/// Direction of optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Relation of a constraint row to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a · x ≤ b`
    Le,
    /// `a · x ≥ b`
    Ge,
    /// `a · x = b`
    Eq,
}

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
}

/// Error returned by [`Problem::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The iteration limit was exceeded (should not happen with Bland's
    /// rule unless the problem is numerically pathological).
    IterationLimit,
    /// The problem definition is malformed (e.g. a lower bound above an
    /// upper bound).
    BadProblem(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            SolveError::BadProblem(msg) => write!(f, "malformed problem: {msg}"),
        }
    }
}

impl Error for SolveError {}

/// Result of a successful solve.
///
/// `x` and `objective` are meaningful only when `status` is
/// [`Status::Optimal`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Outcome classification.
    pub status: Status,
    /// Optimal values of the structural variables.
    pub x: Vec<f64>,
    /// Objective value at `x`, in the user's original sense.
    pub objective: f64,
    /// Simplex pivots (basis changes) this solve performed, phases 1 and 2
    /// combined. A call-based work counter: independent of wall time and
    /// identical across machines.
    pub pivots: usize,
    /// Cell writes spent on basis-change updates across the solve: tableau
    /// row eliminations for the dense path, FTRAN plus basis-inverse eta
    /// updates for the revised path. Like `pivots`, a call-based counter —
    /// the per-pivot work metric the revised simplex reduces.
    pub pivot_cells: usize,
    /// `true` when the solve started from an installed [`WarmStart`] basis
    /// (`false` for cold solves and for warm solves that fell back to the
    /// two-phase path because the basis was unrecoverable).
    pub warmed: bool,
    /// Snapshot of the optimal basis, for warm-starting a related solve
    /// via [`Problem::solve_warm`]. `None` unless `status` is
    /// [`Status::Optimal`] with a basis free of artificial variables.
    pub warm: Option<WarmStart>,
}

/// Where a nonbasic variable rests in a [`WarmStart`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rest {
    Lower,
    Upper,
    Free,
}

/// An optimal simplex basis captured from a solved [`Problem`], usable to
/// warm-start the solve of a perturbed problem with the same shape
/// (variable count and row count).
///
/// The snapshot is opaque: it records which variable is basic in each row
/// and the rest bound of every nonbasic variable, nothing tied to the
/// numeric tableau, so it stays valid after the problem's bounds, row
/// coefficients, or objective change.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    pub(crate) n: usize,
    pub(crate) m: usize,
    /// Basic variable per row: structural `0..n`, slack `n..n + m`.
    pub(crate) basis: Vec<usize>,
    /// Rest side of every structural and slack variable (entries for basic
    /// variables are placeholders).
    pub(crate) rests: Vec<Rest>,
}

/// A linear program with per-variable bounds.
///
/// Construct with [`Problem::new`], describe with [`set_objective`],
/// [`set_bounds`] and [`add_row`], then call [`solve`].
///
/// [`set_objective`]: Problem::set_objective
/// [`set_bounds`]: Problem::set_bounds
/// [`add_row`]: Problem::add_row
/// [`solve`]: Problem::solve
///
/// # Examples
///
/// ```
/// use abonn_lp::{Problem, Relation, Sense, Status};
///
/// let mut p = Problem::new(1, Sense::Minimize);
/// p.set_objective(&[1.0]);
/// p.set_bounds(0, -2.0, 5.0);
/// p.add_row(&[1.0], Relation::Ge, -1.0);
/// let sol = p.solve()?;
/// assert_eq!(sol.status, Status::Optimal);
/// assert!((sol.objective + 1.0).abs() < 1e-8);
/// # Ok::<(), abonn_lp::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) n: usize,
    pub(crate) sense: Sense,
    pub(crate) objective: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) rows: Vec<Vec<f64>>,
    pub(crate) relations: Vec<Relation>,
    pub(crate) rhs: Vec<f64>,
}

impl Problem {
    /// Creates a problem with `n` structural variables, a zero objective,
    /// and free (`-∞, +∞`) variables.
    #[must_use]
    pub fn new(n: usize, sense: Sense) -> Self {
        Self {
            n,
            sense,
            objective: vec![0.0; n],
            lower: vec![f64::NEG_INFINITY; n],
            upper: vec![f64::INFINITY; n],
            rows: Vec::new(),
            relations: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Number of structural variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraint rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective coefficient vector.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the number of variables.
    pub fn set_objective(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.n, "objective length mismatch");
        self.objective.copy_from_slice(c);
    }

    /// Sets the bounds of variable `j` to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn set_bounds(&mut self, j: usize, lo: f64, hi: f64) {
        assert!(j < self.n, "variable index out of range");
        self.lower[j] = lo;
        self.upper[j] = hi;
    }

    /// Appends the constraint `coeffs · x (rel) rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the number of variables.
    pub fn add_row(&mut self, coeffs: &[f64], rel: Relation, rhs: f64) {
        assert_eq!(coeffs.len(), self.n, "row length mismatch");
        self.rows.push(coeffs.to_vec());
        self.relations.push(rel);
        self.rhs.push(rhs);
    }

    /// Solves the problem with the revised-simplex engine (sparse
    /// columns, product-form basis inverse; see `revised.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::BadProblem`] when a variable has `lower >
    /// upper` or a non-finite coefficient appears, and
    /// [`SolveError::IterationLimit`] if the pivot budget is exhausted.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.validate()?;
        let mut r = crate::revised::Revised::build(self);
        let status = r.run()?;
        Ok(self.extract_parts(
            status,
            false,
            r.terminal_x(),
            || r.warm_snapshot(),
            r.pivots(),
            r.pivot_cells(),
        ))
    }

    /// Solves with the dense-tableau engine: the reference that the
    /// revised engine behind [`solve`](Problem::solve) is tested and
    /// benchmarked against. Both engines share the same pivot rules and
    /// the same canonical vertex extraction, so they return bit-identical
    /// solutions whenever they stop at the same optimal vertex (always
    /// the case for a unique optimum); only the work counters differ.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Problem::solve).
    pub fn solve_dense(&self) -> Result<Solution, SolveError> {
        self.validate()?;
        let mut t = Tableau::build(self);
        let status = t.run()?;
        Ok(self.extract_parts(
            status,
            false,
            &t.x,
            || t.warm_snapshot(),
            t.pivots,
            t.pivot_cells,
        ))
    }

    /// Solves the problem starting from a previously captured basis.
    ///
    /// The basis is installed by re-deriving the pivoted tableau from the
    /// *current* problem data (so bound and row perturbations since the
    /// snapshot are honoured), primal feasibility is repaired by moving any
    /// out-of-bounds basic variable to its violated bound with an
    /// artificial absorbing the residual, and the usual phase-1/phase-2
    /// iteration finishes the job. When the basis is unrecoverable (shape
    /// mismatch, duplicate or numerically singular basis columns, or an
    /// iteration-limit stall), the solve falls back to the cold two-phase
    /// path; the returned [`Solution::warmed`] flag records which path ran.
    ///
    /// A warm solve reaches the same [`Status`] and optimal objective as a
    /// cold [`solve`](Problem::solve); because both extract the final
    /// solution canonically from the terminal *vertex* (see
    /// [`vertex_values`]) — not from the pivot path or even the terminal
    /// basis — they return bit-identical solutions whenever they stop at
    /// the same optimal vertex, degenerate or not (always the case for a
    /// unique optimum).
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Problem::solve).
    pub fn solve_warm(&self, warm: &WarmStart) -> Result<Solution, SolveError> {
        self.validate()?;
        if let Some(mut r) = crate::revised::Revised::build_warm(self, warm) {
            match r.run() {
                Ok(status) => {
                    return Ok(self.extract_parts(
                        status,
                        true,
                        r.terminal_x(),
                        || r.warm_snapshot(),
                        r.pivots(),
                        r.pivot_cells(),
                    ))
                }
                // A stall from a pathological warm basis is recoverable:
                // retry from scratch below.
                Err(SolveError::IterationLimit) => {}
                Err(e) => return Err(e),
            }
        }
        self.solve()
    }

    /// Warm-started solve with the dense-tableau engine: the reference for
    /// [`solve_warm`](Problem::solve_warm), as
    /// [`solve_dense`](Problem::solve_dense) is for `solve`.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Problem::solve).
    pub fn solve_warm_dense(&self, warm: &WarmStart) -> Result<Solution, SolveError> {
        self.validate()?;
        if let Some(mut t) = Tableau::build_warm(self, warm) {
            match t.run() {
                Ok(status) => {
                    return Ok(self.extract_parts(
                        status,
                        true,
                        &t.x,
                        || t.warm_snapshot(),
                        t.pivots,
                        t.pivot_cells,
                    ))
                }
                // A stall from a pathological warm basis is recoverable:
                // retry from scratch below.
                Err(SolveError::IterationLimit) => {}
                Err(e) => return Err(e),
            }
        }
        let mut t = Tableau::build(self);
        let status = t.run()?;
        Ok(self.extract_parts(
            status,
            false,
            &t.x,
            || t.warm_snapshot(),
            t.pivots,
            t.pivot_cells,
        ))
    }

    /// Builds the `Solution` for a finished solve of either engine.
    /// Optimal solutions are re-derived canonically from the terminal
    /// vertex (see [`vertex_values`]; basis-based [`canonical_values`] as
    /// fallback) so the result is a pure function of `(problem, vertex)`
    /// rather than of the pivot path — or the engine — that found it.
    /// `terminal_x` holds the terminal variable values (structural, slack,
    /// then any artificials); `snapshot` is consulted only on optimality.
    fn extract_parts(
        &self,
        status: Status,
        warmed: bool,
        terminal_x: &[f64],
        snapshot: impl FnOnce() -> Option<WarmStart>,
        pivots: usize,
        pivot_cells: usize,
    ) -> Solution {
        if status != Status::Optimal {
            return Solution {
                status,
                x: vec![0.0; self.n],
                objective: 0.0,
                pivots,
                pivot_cells,
                warmed,
                warm: None,
            };
        }
        let warm = snapshot();
        let canonical = vertex_values(self, terminal_x)
            .or_else(|| warm.as_ref().and_then(|w| canonical_values(self, w)));
        let x = match &canonical {
            Some(full) => full[..self.n].to_vec(),
            None => terminal_x[..self.n].to_vec(),
        };
        let mut objective = 0.0;
        for (cj, xj) in self.objective.iter().zip(&x) {
            objective += cj * xj;
        }
        Solution {
            status: Status::Optimal,
            x,
            objective,
            pivots,
            pivot_cells,
            warmed,
            warm,
        }
    }

    fn validate(&self) -> Result<(), SolveError> {
        for j in 0..self.n {
            if self.lower[j] > self.upper[j] + FEAS_TOL {
                return Err(SolveError::BadProblem(format!(
                    "variable {j}: lower bound {} exceeds upper bound {}",
                    self.lower[j], self.upper[j]
                )));
            }
            if self.objective[j].is_nan() {
                return Err(SolveError::BadProblem(format!(
                    "variable {j}: NaN objective coefficient"
                )));
            }
        }
        for (i, row) in self.rows.iter().enumerate() {
            if row.iter().any(|v| !v.is_finite()) || !self.rhs[i].is_finite() {
                return Err(SolveError::BadProblem(format!(
                    "row {i}: non-finite coefficient or rhs"
                )));
            }
        }
        Ok(())
    }
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    Basic(usize), // row index
    AtLower,
    AtUpper,
    /// Free nonbasic variable resting at zero.
    FreeZero,
}

struct Tableau {
    /// rows × total-vars coefficient matrix, kept pivoted so that basic
    /// columns are unit columns.
    a: Vec<Vec<f64>>,
    /// Current value of every variable.
    x: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    state: Vec<VarState>,
    /// basis[row] = variable index basic in that row.
    basis: Vec<usize>,
    /// Phase-2 minimisation objective over all variables.
    cost: Vec<f64>,
    n_structural: usize,
    /// First artificial variable index (artificials occupy the tail).
    first_artificial: usize,
    /// Simplex pivots performed (basis changes; bound flips excluded).
    pivots: usize,
    /// Tableau cell writes spent on those pivots (see
    /// [`Solution::pivot_cells`]).
    pivot_cells: usize,
}

/// Bounds of the slack variable encoding `rel` (see `Tableau::build`).
pub(crate) fn slack_bounds(rel: Relation) -> (f64, f64) {
    match rel {
        Relation::Le => (0.0, f64::INFINITY),
        Relation::Ge => (f64::NEG_INFINITY, 0.0),
        Relation::Eq => (0.0, 0.0),
    }
}

impl Tableau {
    fn build(p: &Problem) -> Self {
        let m = p.rows.len();
        let n = p.n;
        let n_slack = m;
        // Artificials are appended lazily below; reserve index space now.
        let total_known = n + n_slack;

        let mut lower = p.lower.clone();
        let mut upper = p.upper.clone();
        let mut cost: Vec<f64> = match p.sense {
            Sense::Minimize => p.objective.clone(),
            Sense::Maximize => p.objective.iter().map(|c| -c).collect(),
        };
        // Slack bounds encode the relation: a·x + s = b.
        for rel in &p.relations {
            let (lo, hi) = slack_bounds(*rel);
            lower.push(lo);
            upper.push(hi);
            cost.push(0.0);
        }

        // Initial nonbasic placement for structural variables.
        let mut state = Vec::with_capacity(total_known);
        let mut x = vec![0.0; total_known];
        for j in 0..n {
            if lower[j].is_finite() {
                state.push(VarState::AtLower);
                x[j] = lower[j];
            } else if upper[j].is_finite() {
                state.push(VarState::AtUpper);
                x[j] = upper[j];
            } else {
                state.push(VarState::FreeZero);
                x[j] = 0.0;
            }
        }
        // Slacks: placement decided per row below.
        for _ in 0..n_slack {
            state.push(VarState::AtLower); // provisional, fixed up below
        }

        let mut a: Vec<Vec<f64>> = Vec::with_capacity(m);
        for row in &p.rows {
            let mut r = vec![0.0; total_known];
            r[..n].copy_from_slice(row);
            a.push(r);
        }
        for (i, r) in a.iter_mut().enumerate() {
            r[n + i] = 1.0; // slack coefficient
        }

        let mut basis = Vec::with_capacity(m);
        let mut artificial_cols: Vec<(usize, f64)> = Vec::new(); // (row, residual sign)
        #[allow(clippy::needless_range_loop)] // `i` indexes three arrays in lockstep
        for i in 0..m {
            let sj = n + i;
            // Residual the slack would have to take for the row to hold.
            let mut dot = 0.0;
            for (j, &xj) in x[..n].iter().enumerate() {
                dot += a[i][j] * xj;
            }
            let need = p.rhs[i] - dot;
            if need >= lower[sj] - FEAS_TOL && need <= upper[sj] + FEAS_TOL {
                // Slack can be basic at `need`: row starts feasible.
                x[sj] = need.clamp(lower[sj], upper[sj]);
                state[sj] = VarState::Basic(i);
                basis.push(sj);
            } else {
                // Put the slack at its nearest bound and absorb the rest
                // with an artificial variable.
                let rest;
                if need < lower[sj] {
                    x[sj] = lower[sj];
                    state[sj] = VarState::AtLower;
                    rest = need - lower[sj];
                } else {
                    x[sj] = upper[sj];
                    state[sj] = VarState::AtUpper;
                    rest = need - upper[sj];
                }
                artificial_cols.push((i, rest));
                basis.push(usize::MAX); // patched when artificials are added
            }
        }

        let first_artificial = total_known;
        let n_art = artificial_cols.len();
        let total = total_known + n_art;
        for r in &mut a {
            r.resize(total, 0.0);
        }
        let mut lower2 = lower;
        let mut upper2 = upper;
        let mut x2 = x;
        let mut state2 = state;
        let mut cost2 = cost;
        lower2.resize(total, 0.0);
        upper2.resize(total, f64::INFINITY);
        x2.resize(total, 0.0);
        state2.resize(total, VarState::AtLower);
        cost2.resize(total, 0.0);
        for (k, &(row, rest)) in artificial_cols.iter().enumerate() {
            let aj = first_artificial + k;
            // Scale the row so the artificial enters with coefficient +1
            // while staying nonnegative; basic columns must be unit columns
            // for the tableau invariants to hold.
            if rest < 0.0 {
                for v in &mut a[row] {
                    *v = -*v;
                }
            }
            a[row][aj] = 1.0;
            x2[aj] = rest.abs();
            state2[aj] = VarState::Basic(row);
            basis[row] = aj;
        }

        Tableau {
            a,
            x: x2,
            lower: lower2,
            upper: upper2,
            state: state2,
            basis,
            cost: cost2,
            n_structural: n,
            first_artificial,
            pivots: 0,
            pivot_cells: 0,
        }
    }

    /// Rebuilds a tableau around a previously captured basis, honouring the
    /// *current* problem data. Returns `None` when the basis cannot be
    /// recovered: shape mismatch, duplicate/out-of-range basis entries, or
    /// a numerically singular basis column.
    fn build_warm(p: &Problem, warm: &WarmStart) -> Option<Tableau> {
        let m = p.rows.len();
        let n = p.n;
        let total_known = n + m;
        if warm.n != n || warm.m != m || warm.basis.len() != m || warm.rests.len() != total_known {
            return None;
        }
        let mut is_basic = vec![false; total_known];
        for &b in &warm.basis {
            if b >= total_known || is_basic[b] {
                return None;
            }
            is_basic[b] = true;
        }

        let mut lower = p.lower.clone();
        let mut upper = p.upper.clone();
        let mut cost: Vec<f64> = match p.sense {
            Sense::Minimize => p.objective.clone(),
            Sense::Maximize => p.objective.iter().map(|c| -c).collect(),
        };
        for rel in &p.relations {
            let (lo, hi) = slack_bounds(*rel);
            lower.push(lo);
            upper.push(hi);
            cost.push(0.0);
        }

        // Constraint matrix with the slack identity, plus a tracked rhs so
        // basic values can be read off after the basis is installed.
        let mut a: Vec<Vec<f64>> = Vec::with_capacity(m);
        for row in &p.rows {
            let mut r = vec![0.0; total_known];
            r[..n].copy_from_slice(row);
            a.push(r);
        }
        for (i, r) in a.iter_mut().enumerate() {
            r[n + i] = 1.0;
        }
        let mut rhs = p.rhs.clone();

        // Install the basis by Gauss–Jordan elimination. Each saved basic
        // variable is pivoted into the unassigned row where its column is
        // largest (partial pivoting; ties take the smallest row index), so
        // a basis that is recoverable under *some* row assignment is
        // recovered deterministically.
        let mut basis = vec![usize::MAX; m];
        let mut row_taken = vec![false; m];
        for &b in &warm.basis {
            let mut best_row = usize::MAX;
            let mut best = PIVOT_TOL;
            for (i, r) in a.iter().enumerate() {
                if !row_taken[i] && r[b].abs() > best {
                    best = r[b].abs();
                    best_row = i;
                }
            }
            if best_row == usize::MAX {
                return None; // singular basis column
            }
            let i = best_row;
            row_taken[i] = true;
            basis[i] = b;
            let inv = 1.0 / a[i][b];
            for v in &mut a[i] {
                *v *= inv;
            }
            rhs[i] *= inv;
            let pivot_row = a[i].clone();
            let pivot_rhs = rhs[i];
            for (i2, r) in a.iter_mut().enumerate() {
                if i2 == i {
                    continue;
                }
                let factor = r[b];
                if factor == 0.0 {
                    continue;
                }
                for (v, &q) in r.iter_mut().zip(&pivot_row) {
                    *v -= factor * q;
                }
                rhs[i2] -= factor * pivot_rhs;
            }
        }

        // Nonbasic variables rest where the snapshot recorded them, demoted
        // to a still-finite bound (or to free-at-zero) when the recorded
        // side is no longer finite after a perturbation.
        let mut state = vec![VarState::AtLower; total_known];
        let mut x = vec![0.0; total_known];
        for j in 0..total_known {
            if is_basic[j] {
                continue;
            }
            state[j] = match warm.rests[j] {
                Rest::Lower if lower[j].is_finite() => VarState::AtLower,
                Rest::Upper if upper[j].is_finite() => VarState::AtUpper,
                Rest::Lower if upper[j].is_finite() => VarState::AtUpper,
                Rest::Upper if lower[j].is_finite() => VarState::AtLower,
                _ => VarState::FreeZero,
            };
            x[j] = match state[j] {
                VarState::AtLower => lower[j],
                VarState::AtUpper => upper[j],
                _ => 0.0,
            };
        }
        // Basic values from the transformed rows: basic columns are unit
        // columns, so row `i` reads `x[basis[i]] + Σ_nonbasic a·x = rhs`.
        #[allow(clippy::needless_range_loop)] // `i` indexes basis/a/rhs in lockstep
        for i in 0..m {
            let b = basis[i];
            let mut dot = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                if j != b {
                    dot += a[i][j] * xj;
                }
            }
            x[b] = rhs[i] - dot;
            state[b] = VarState::Basic(i);
        }

        // Primal-feasibility repair: a basic variable pushed outside its
        // bounds by the perturbation is snapped to the violated bound and
        // an artificial absorbs the residual, exactly as in `build`; the
        // phase-1 run then repairs only these rows instead of starting the
        // whole basis from scratch.
        let mut artificial_rows: Vec<(usize, f64)> = Vec::new();
        #[allow(clippy::needless_range_loop)] // `i` indexes basis in lockstep with rows
        for i in 0..m {
            let b = basis[i];
            let viol_low = lower[b].is_finite() && x[b] < lower[b] - FEAS_TOL;
            let viol_high = upper[b].is_finite() && x[b] > upper[b] + FEAS_TOL;
            if !viol_low && !viol_high {
                continue;
            }
            let bound = if viol_low { lower[b] } else { upper[b] };
            let rest = x[b] - bound;
            x[b] = bound;
            state[b] = if viol_low {
                VarState::AtLower
            } else {
                VarState::AtUpper
            };
            artificial_rows.push((i, rest));
        }

        let first_artificial = total_known;
        let total = total_known + artificial_rows.len();
        for r in &mut a {
            r.resize(total, 0.0);
        }
        lower.resize(total, 0.0);
        upper.resize(total, f64::INFINITY);
        x.resize(total, 0.0);
        state.resize(total, VarState::AtLower);
        cost.resize(total, 0.0);
        for (k, &(row, rest)) in artificial_rows.iter().enumerate() {
            let aj = first_artificial + k;
            if rest < 0.0 {
                for v in &mut a[row] {
                    *v = -*v;
                }
                rhs[row] = -rhs[row];
            }
            a[row][aj] = 1.0;
            x[aj] = rest.abs();
            state[aj] = VarState::Basic(row);
            basis[row] = aj;
        }

        Some(Tableau {
            a,
            x,
            lower,
            upper,
            state,
            basis,
            cost,
            n_structural: n,
            first_artificial,
            pivots: 0,
            pivot_cells: 0,
        })
    }

    /// Captures the current basis as a [`WarmStart`], or `None` while an
    /// artificial variable is still basic (degenerate phase-1 leftovers).
    fn warm_snapshot(&self) -> Option<WarmStart> {
        let m = self.a.len();
        let mut basis = Vec::with_capacity(m);
        for &b in &self.basis {
            if b >= self.first_artificial {
                return None;
            }
            basis.push(b);
        }
        let mut rests = Vec::with_capacity(self.first_artificial);
        for j in 0..self.first_artificial {
            rests.push(match self.state[j] {
                VarState::AtUpper => Rest::Upper,
                VarState::FreeZero => Rest::Free,
                VarState::AtLower | VarState::Basic(_) => Rest::Lower,
            });
        }
        Some(WarmStart {
            n: self.n_structural,
            m,
            basis,
            rests,
        })
    }

    fn total_vars(&self) -> usize {
        self.x.len()
    }

    /// Reduced costs `d_j = c_j − c_B · T[:, j]` for the given cost vector.
    fn reduced_costs(&self, cost: &[f64]) -> Vec<f64> {
        let mut d = cost.to_vec();
        for (i, &bi) in self.basis.iter().enumerate() {
            let cb = cost[bi];
            if cb == 0.0 {
                continue;
            }
            for (dj, &aij) in d.iter_mut().zip(&self.a[i]) {
                *dj -= cb * aij;
            }
        }
        d
    }

    fn run(&mut self) -> Result<Status, SolveError> {
        // Phase 1: minimise the sum of artificial variables.
        if self.first_artificial < self.total_vars() {
            let mut phase1 = vec![0.0; self.total_vars()];
            for c in phase1[self.first_artificial..].iter_mut() {
                *c = 1.0;
            }
            let status = self.optimize(&phase1)?;
            let artificial: &[f64] = &self.x[self.first_artificial..];
            let infeas: f64 = artificial.iter().sum();
            if status != Status::Optimal || infeas > 1e-6 {
                return Ok(Status::Infeasible);
            }
            // Pin artificials to zero for phase 2 so they can never
            // re-enter with a nonzero value.
            for j in self.first_artificial..self.total_vars() {
                self.lower[j] = 0.0;
                self.upper[j] = 0.0;
                self.x[j] = 0.0;
            }
        }
        let phase2 = self.cost.clone();
        self.optimize(&phase2)
    }

    /// Runs primal simplex iterations with the given minimisation costs.
    fn optimize(&mut self, cost: &[f64]) -> Result<Status, SolveError> {
        let total = self.total_vars();
        let max_iter = 200 * (total + self.a.len() + 16);
        // Dantzig rule normally; switch to Bland's rule after a stall to
        // guarantee termination under degeneracy.
        let mut degenerate_steps = 0usize;

        for _ in 0..max_iter {
            let d = self.reduced_costs(cost);
            let use_bland = degenerate_steps > 40;
            let Some((enter, dir)) = self.pick_entering(&d, use_bland) else {
                return Ok(Status::Optimal);
            };
            match self.ratio_test(enter, dir) {
                RatioOutcome::Unbounded => return Ok(Status::Unbounded),
                RatioOutcome::BoundFlip(t) => {
                    self.apply_step(enter, dir, t);
                    self.state[enter] = match self.state[enter] {
                        VarState::AtLower => VarState::AtUpper,
                        VarState::AtUpper => VarState::AtLower,
                        s => s,
                    };
                    if t <= FEAS_TOL {
                        degenerate_steps += 1;
                    } else {
                        degenerate_steps = 0;
                    }
                }
                RatioOutcome::Pivot(t, row, leave_state) => {
                    self.apply_step(enter, dir, t);
                    self.pivot(row, enter, leave_state);
                    if t <= FEAS_TOL {
                        degenerate_steps += 1;
                    } else {
                        degenerate_steps = 0;
                    }
                }
            }
        }
        Err(SolveError::IterationLimit)
    }

    /// Chooses an entering variable and its direction (+1 increase, −1
    /// decrease), or `None` at optimality.
    fn pick_entering(&self, d: &[f64], bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (var, dir, score)
        #[allow(clippy::needless_range_loop)] // `j` indexes `d` and `self.state`
        for j in 0..self.total_vars() {
            let (eligible, dir) = match self.state[j] {
                VarState::Basic(_) => (false, 0.0),
                VarState::AtLower => (d[j] < -PIVOT_TOL, 1.0),
                VarState::AtUpper => (d[j] > PIVOT_TOL, -1.0),
                VarState::FreeZero => {
                    if d[j] < -PIVOT_TOL {
                        (true, 1.0)
                    } else if d[j] > PIVOT_TOL {
                        (true, -1.0)
                    } else {
                        (false, 0.0)
                    }
                }
            };
            if !eligible {
                continue;
            }
            if bland {
                return Some((j, dir));
            }
            let score = d[j].abs();
            match best {
                Some((_, _, s)) if s >= score => {}
                _ => best = Some((j, dir, score)),
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// Moves `x[enter]` by `dir * t` and updates basic values accordingly.
    fn apply_step(&mut self, enter: usize, dir: f64, t: f64) {
        if t == 0.0 {
            return;
        }
        self.x[enter] += dir * t;
        for (i, &bi) in self.basis.iter().enumerate() {
            self.x[bi] -= dir * t * self.a[i][enter];
        }
    }

    fn ratio_test(&self, enter: usize, dir: f64) -> RatioOutcome {
        // Limit from the entering variable's own opposite bound.
        let own_limit = if dir > 0.0 {
            self.upper[enter] - self.x[enter]
        } else {
            self.x[enter] - self.lower[enter]
        };
        let mut t_max = own_limit; // may be +inf
        let mut leaving: Option<(usize, VarState)> = None;

        for (i, &bi) in self.basis.iter().enumerate() {
            let delta = dir * self.a[i][enter]; // x_bi decreases by delta * t
            if delta > PIVOT_TOL {
                if self.lower[bi].is_finite() {
                    let t = (self.x[bi] - self.lower[bi]) / delta;
                    if t < t_max - FEAS_TOL
                        || (t < t_max + FEAS_TOL && better_leaving(&leaving, bi))
                    {
                        t_max = t.max(0.0);
                        leaving = Some((i, VarState::AtLower));
                    }
                }
            } else if delta < -PIVOT_TOL && self.upper[bi].is_finite() {
                let t = (self.upper[bi] - self.x[bi]) / (-delta);
                if t < t_max - FEAS_TOL || (t < t_max + FEAS_TOL && better_leaving(&leaving, bi)) {
                    t_max = t.max(0.0);
                    leaving = Some((i, VarState::AtUpper));
                }
            }
        }

        match leaving {
            None if t_max.is_infinite() => RatioOutcome::Unbounded,
            None => RatioOutcome::BoundFlip(t_max),
            Some((row, st)) => {
                if own_limit < t_max - FEAS_TOL {
                    RatioOutcome::BoundFlip(own_limit)
                } else {
                    RatioOutcome::Pivot(t_max, row, st)
                }
            }
        }
    }

    /// Pivots `enter` into the basis at `row`; the departing variable takes
    /// `leave_state`.
    fn pivot(&mut self, row: usize, enter: usize, leave_state: VarState) {
        self.pivots += 1;
        let total = self.total_vars();
        let leave = self.basis[row];
        let piv = self.a[row][enter];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot element too small: {piv}");
        let inv = 1.0 / piv;
        for v in &mut self.a[row] {
            *v *= inv;
        }
        let pivot_row = self.a[row].clone();
        let mut updated_rows = 0usize;
        for (i, r) in self.a.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[enter];
            if factor == 0.0 {
                continue;
            }
            updated_rows += 1;
            for (v, &p) in r.iter_mut().zip(&pivot_row) {
                *v -= factor * p;
            }
        }
        // Normalising the pivot row plus eliminating `enter` from each
        // touched row each rewrites a full `total`-wide tableau row — the
        // per-pivot cost the revised engine avoids.
        self.pivot_cells += total * (1 + updated_rows);
        self.basis[row] = enter;
        self.state[enter] = VarState::Basic(row);
        self.state[leave] = leave_state;
        // Snap the departing variable exactly onto its bound to stop
        // round-off from accumulating.
        self.x[leave] = match leave_state {
            VarState::AtLower => self.lower[leave],
            VarState::AtUpper => self.upper[leave],
            _ => self.x[leave],
        };
    }
}

/// Tie-break for the leaving variable: smallest variable index (Bland).
pub(crate) fn better_leaving(current: &Option<(usize, VarState)>, _candidate_var: usize) -> bool {
    current.is_none()
}

/// Re-derives the full variable vector (structural then slack) of an
/// optimal solution from the geometry of its terminal *vertex*,
/// independently of both the pivot path and the terminal basis.
///
/// At a vertex, every variable is either tight at one of its bounds or
/// determined by the equality rows. Degenerate vertices admit many bases —
/// a warm and a cold solve routinely stop at the *same* vertex through
/// *different* bases, and any basis-dependent extraction would then differ
/// in the last bits. This extraction instead (1) classifies each variable
/// by which bound its terminal value is tight against (`FEAS_TOL`,
/// lower-bound preferred), pinning tight variables exactly onto the bound,
/// then (2) solves the equality rows for the remaining interior variables
/// by Gaussian elimination with partial row pivoting over interior columns
/// taken in ascending variable order. The result is a pure function of
/// `(problem, tight-set)`, so two solves stopping at the same vertex
/// extract bit-identical solutions.
///
/// Returns `None` (caller falls back to basis-based extraction) when the
/// classification does not describe a consistent vertex: more interior
/// variables than rows, a rank-deficient interior system, leftover rows
/// with a non-trivial residual, or a solved value straying from the
/// terminal one (all signs of an interior variable sitting within
/// tolerance of a bound it is not actually tight against).
fn vertex_values(p: &Problem, terminal: &[f64]) -> Option<Vec<f64>> {
    let n = p.n;
    let m = p.rows.len();
    let total = n + m;
    let mut x = vec![0.0; total];
    let mut is_interior = vec![false; total];
    let mut interior: Vec<usize> = Vec::new();
    for j in 0..total {
        let (lo, hi) = if j < n {
            (p.lower[j], p.upper[j])
        } else {
            slack_bounds(p.relations[j - n])
        };
        let v = terminal[j];
        if lo.is_finite() && (v - lo).abs() <= FEAS_TOL {
            x[j] = lo;
        } else if hi.is_finite() && (v - hi).abs() <= FEAS_TOL {
            x[j] = hi;
        } else if !lo.is_finite() && !hi.is_finite() && v.abs() <= FEAS_TOL {
            // Free variable resting at zero.
            x[j] = 0.0;
        } else {
            is_interior[j] = true;
            interior.push(j);
        }
    }
    let f = interior.len();
    if f > m {
        return None;
    }
    // r = rhs − A·x_tight (column j of the constraint matrix is the
    // original row coefficients for structural variables and the identity
    // for slacks).
    let mut b = p.rhs.clone();
    for (i, bi) in b.iter_mut().enumerate() {
        let mut dot = 0.0;
        for (j, &xj) in x[..n].iter().enumerate() {
            if !is_interior[j] {
                dot += p.rows[i][j] * xj;
            }
        }
        let sj = n + i;
        if !is_interior[sj] {
            dot += x[sj];
        }
        *bi -= dot;
    }
    let scale = b.iter().fold(1.0_f64, |acc, v| acc.max(v.abs()));
    // Interior columns in ascending variable order; rows chosen by partial
    // pivoting — both depend only on (problem, tight-set).
    let mut a = vec![vec![0.0; f]; m];
    for (k, &j) in interior.iter().enumerate() {
        if j < n {
            for (i, row) in p.rows.iter().enumerate() {
                a[i][k] = row[j];
            }
        } else {
            a[j - n][k] = 1.0;
        }
    }
    for k in 0..f {
        let mut piv = k;
        let mut best = a[k][k].abs();
        for (i, row) in a.iter().enumerate().skip(k + 1) {
            let v = row[k].abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        if best <= 1e-12 {
            return None;
        }
        a.swap(k, piv);
        b.swap(k, piv);
        let (head, tail) = a.split_at_mut(k + 1);
        let pivot_row = &head[k];
        let pivot_b = b[k];
        for (off, row) in tail.iter_mut().enumerate() {
            let factor = row[k] / pivot_row[k];
            if factor == 0.0 {
                continue;
            }
            row[k] = 0.0;
            for j in k + 1..f {
                row[j] -= factor * pivot_row[j];
            }
            b[k + 1 + off] -= factor * pivot_b;
        }
    }
    // The system is overdetermined; rows beyond the pivoted `f` are fully
    // eliminated, so a non-trivial leftover means the tight-set was wrong.
    for bi in &b[f..] {
        if bi.abs() > 1e-6 * scale {
            return None;
        }
    }
    let mut y = vec![0.0; f];
    for k in (0..f).rev() {
        let mut s = b[k];
        for j in k + 1..f {
            s -= a[k][j] * y[j];
        }
        y[k] = s / a[k][k];
    }
    for (k, &j) in interior.iter().enumerate() {
        let v = y[k];
        if !v.is_finite() || (v - terminal[j]).abs() > 1e-5 * (1.0 + v.abs()) {
            return None;
        }
        x[j] = v;
    }
    Some(x)
}

/// Basis-based fallback for [`vertex_values`]: nonbasic variables sit at
/// their recorded rest bound and the basic values solve `B·x_B = b − N·x_N`
/// by Gaussian elimination with partial pivoting over the basis columns
/// taken in ascending variable order — a pure function of
/// `(problem, basis set)`, still independent of the pivot path (though not
/// of which of a degenerate vertex's bases the solve stopped in).
///
/// Returns `None` when the basis matrix is numerically singular (the
/// caller then falls back to the tableau-accumulated values).
fn canonical_values(p: &Problem, warm: &WarmStart) -> Option<Vec<f64>> {
    let n = p.n;
    let m = p.rows.len();
    let total = n + m;
    let mut is_basic = vec![false; total];
    for &b in &warm.basis {
        is_basic[b] = true;
    }
    let mut x = vec![0.0; total];
    for j in 0..total {
        if is_basic[j] {
            continue;
        }
        let (lo, hi) = if j < n {
            (p.lower[j], p.upper[j])
        } else {
            slack_bounds(p.relations[j - n])
        };
        x[j] = match warm.rests[j] {
            Rest::Lower if lo.is_finite() => lo,
            Rest::Upper if hi.is_finite() => hi,
            Rest::Lower if hi.is_finite() => hi,
            Rest::Upper if lo.is_finite() => lo,
            _ => 0.0,
        };
    }
    // r = b − N·x_N. Column j of the constraint matrix is the original row
    // coefficients for structural variables and the identity for slacks.
    let mut r = p.rhs.clone();
    for (i, ri) in r.iter_mut().enumerate() {
        let mut dot = 0.0;
        for (j, &xj) in x[..n].iter().enumerate() {
            if !is_basic[j] {
                dot += p.rows[i][j] * xj;
            }
        }
        let sj = n + i;
        if !is_basic[sj] {
            dot += x[sj];
        }
        *ri -= dot;
    }
    // Basis matrix with columns in ascending variable order, so the
    // elimination path depends only on (problem, basis set) and not on
    // which row each variable happened to be basic in.
    let cols: Vec<usize> = (0..total).filter(|&j| is_basic[j]).collect();
    if cols.len() != m {
        return None;
    }
    let mut bmat = vec![vec![0.0; m]; m];
    for (k, &j) in cols.iter().enumerate() {
        if j < n {
            for (i, row) in p.rows.iter().enumerate() {
                bmat[i][k] = row[j];
            }
        } else {
            bmat[j - n][k] = 1.0;
        }
    }
    let y = gauss_solve(&mut bmat, &mut r)?;
    for (k, &j) in cols.iter().enumerate() {
        x[j] = y[k];
    }
    Some(x)
}

/// Dense Gaussian elimination with partial pivoting (ties take the
/// smallest row index). Consumes `a` and `b`; returns `None` on a
/// numerically singular matrix.
fn gauss_solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let m = b.len();
    for k in 0..m {
        let mut piv = k;
        let mut best = a[k][k].abs();
        for (i, row) in a.iter().enumerate().skip(k + 1) {
            let v = row[k].abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        if best <= 1e-12 {
            return None;
        }
        a.swap(k, piv);
        b.swap(k, piv);
        let (head, tail) = a.split_at_mut(k + 1);
        let pivot_row = &head[k];
        let pivot_b = b[k];
        for (off, row) in tail.iter_mut().enumerate() {
            let factor = row[k] / pivot_row[k];
            if factor == 0.0 {
                continue;
            }
            row[k] = 0.0;
            for j in k + 1..m {
                row[j] -= factor * pivot_row[j];
            }
            b[k + 1 + off] -= factor * pivot_b;
        }
    }
    let mut y = vec![0.0; m];
    for k in (0..m).rev() {
        let mut s = b[k];
        for j in k + 1..m {
            s -= a[k][j] * y[j];
        }
        y[k] = s / a[k][k];
    }
    Some(y)
}

pub(crate) enum RatioOutcome {
    Unbounded,
    /// The entering variable travels `t` and flips to its opposite bound.
    BoundFlip(f64),
    /// Pivot: step `t`, leaving row, and the state the leaving variable
    /// lands in.
    Pivot(f64, usize, VarState),
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn maximize_classic_two_var() {
        // max 3x + 5y, x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0 → 36 at (2,6)
        let mut p = Problem::new(2, Sense::Maximize);
        p.set_objective(&[3.0, 5.0]);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.add_row(&[1.0, 0.0], Relation::Le, 4.0);
        p.add_row(&[0.0, 2.0], Relation::Le, 12.0);
        p.add_row(&[3.0, 2.0], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn minimize_with_ge_rows() {
        // min 2x + 3y, x + y >= 4, x >= 0, y >= 0 → 8 at (4, 0)
        let mut p = Problem::new(2, Sense::Minimize);
        p.set_objective(&[2.0, 3.0]);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.add_row(&[1.0, 1.0], Relation::Ge, 4.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 8.0);
    }

    #[test]
    fn equality_constraint() {
        // min x - y, x + y = 2, 0 <= x,y <= 2 → -2 at (0, 2)
        let mut p = Problem::new(2, Sense::Minimize);
        p.set_objective(&[1.0, -1.0]);
        p.set_bounds(0, 0.0, 2.0);
        p.set_bounds(1, 0.0, 2.0);
        p.add_row(&[1.0, 1.0], Relation::Eq, 2.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, -2.0);
        assert_close(s.x[0] + s.x[1], 2.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(1, Sense::Minimize);
        p.set_objective(&[1.0]);
        p.set_bounds(0, 0.0, 1.0);
        p.add_row(&[1.0], Relation::Ge, 2.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(1, Sense::Maximize);
        p.set_objective(&[1.0]);
        p.set_bounds(0, 0.0, f64::INFINITY);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn bounds_only_problem() {
        // No rows at all: optimum sits at a bound.
        let mut p = Problem::new(3, Sense::Minimize);
        p.set_objective(&[1.0, -2.0, 0.5]);
        for j in 0..3 {
            p.set_bounds(j, -1.0, 2.0);
        }
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, -1.0 - 4.0 - 0.5);
    }

    #[test]
    fn free_variable_with_equality() {
        // min x, x + y = 1, y in [0, 1], x free → x = 0 at y = 1.
        let mut p = Problem::new(2, Sense::Minimize);
        p.set_objective(&[1.0, 0.0]);
        p.set_bounds(1, 0.0, 1.0);
        p.add_row(&[1.0, 1.0], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x + y, x, y in [-3, -1], x + y >= -5
        let mut p = Problem::new(2, Sense::Minimize);
        p.set_objective(&[1.0, 1.0]);
        p.set_bounds(0, -3.0, -1.0);
        p.set_bounds(1, -3.0, -1.0);
        p.add_row(&[1.0, 1.0], Relation::Ge, -5.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn conflicting_bounds_is_bad_problem() {
        let mut p = Problem::new(1, Sense::Minimize);
        p.set_bounds(0, 2.0, 1.0);
        assert!(matches!(p.solve(), Err(SolveError::BadProblem(_))));
    }

    #[test]
    fn fixed_variable_bounds() {
        // A variable pinned by equal bounds must keep its value.
        let mut p = Problem::new(2, Sense::Maximize);
        p.set_objective(&[1.0, 1.0]);
        p.set_bounds(0, 2.5, 2.5);
        p.set_bounds(1, 0.0, 1.0);
        p.add_row(&[1.0, 1.0], Relation::Le, 3.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.x[0], 2.5);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints meet at the optimum.
        let mut p = Problem::new(2, Sense::Maximize);
        p.set_objective(&[1.0, 1.0]);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.add_row(&[1.0, 0.0], Relation::Le, 1.0);
        p.add_row(&[0.0, 1.0], Relation::Le, 1.0);
        p.add_row(&[1.0, 1.0], Relation::Le, 2.0);
        p.add_row(&[2.0, 1.0], Relation::Le, 3.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn warm_start_reproduces_cold_solve_bit_for_bit() {
        // Same problem warm-started from its own optimal basis: zero
        // repair work, identical terminal basis, so the canonical
        // extraction must agree to the bit.
        let mut p = Problem::new(2, Sense::Maximize);
        p.set_objective(&[3.0, 5.0]);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.add_row(&[1.0, 0.0], Relation::Le, 4.0);
        p.add_row(&[0.0, 2.0], Relation::Le, 12.0);
        p.add_row(&[3.0, 2.0], Relation::Le, 18.0);
        let cold = p.solve().unwrap();
        let warm = p.solve_warm(cold.warm.as_ref().unwrap()).unwrap();
        assert!(warm.warmed);
        assert_eq!(warm.status, Status::Optimal);
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        for (a, b) in warm.x.iter().zip(&cold.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Re-optimising from the optimal basis needs no pivots at all.
        assert_eq!(warm.pivots, 0);
        assert!(cold.pivots > 0);
    }

    #[test]
    fn warm_start_after_bound_tightening_matches_cold() {
        let mut p = Problem::new(2, Sense::Minimize);
        p.set_objective(&[-1.0, -2.0]);
        p.set_bounds(0, 0.0, 3.0);
        p.set_bounds(1, 0.0, 3.0);
        p.add_row(&[1.0, 1.0], Relation::Le, 4.0);
        let base = p.solve().unwrap();
        let ws = base.warm.clone().unwrap();
        // Tighten a bound so the old optimal vertex becomes infeasible;
        // the repair path must land on the same optimum as a cold solve.
        p.set_bounds(1, 0.0, 1.5);
        let cold = p.solve().unwrap();
        let warm = p.solve_warm(&ws).unwrap();
        assert!(warm.warmed);
        assert_eq!(warm.status, cold.status);
        assert_close(warm.objective, cold.objective);
        assert_close(warm.objective, -(2.5 + 2.0 * 1.5));
    }

    #[test]
    fn warm_start_after_objective_change_matches_cold() {
        let mut p = Problem::new(2, Sense::Minimize);
        p.set_objective(&[1.0, 0.0]);
        p.set_bounds(0, -1.0, 2.0);
        p.set_bounds(1, -1.0, 2.0);
        p.add_row(&[1.0, 1.0], Relation::Ge, 0.5);
        let first = p.solve().unwrap();
        let ws = first.warm.clone().unwrap();
        p.set_objective(&[0.0, 1.0]);
        let cold = p.solve().unwrap();
        let warm = p.solve_warm(&ws).unwrap();
        assert!(warm.warmed);
        assert_eq!(warm.status, Status::Optimal);
        assert_close(warm.objective, cold.objective);
    }

    #[test]
    fn warm_start_detects_infeasible_after_perturbation() {
        let mut p = Problem::new(1, Sense::Minimize);
        p.set_objective(&[1.0]);
        p.set_bounds(0, 0.0, 5.0);
        p.add_row(&[1.0], Relation::Ge, 1.0);
        let ws = p.solve().unwrap().warm.unwrap();
        p.set_bounds(0, 0.0, 0.5);
        let warm = p.solve_warm(&ws).unwrap();
        assert_eq!(warm.status, Status::Infeasible);
        assert_eq!(p.solve().unwrap().status, Status::Infeasible);
    }

    #[test]
    fn warm_start_shape_mismatch_falls_back_to_cold() {
        let mut small = Problem::new(1, Sense::Minimize);
        small.set_objective(&[1.0]);
        small.set_bounds(0, 0.0, 1.0);
        small.add_row(&[1.0], Relation::Le, 1.0);
        let ws = small.solve().unwrap().warm.unwrap();

        let mut other = Problem::new(2, Sense::Minimize);
        other.set_objective(&[2.0, 3.0]);
        other.set_bounds(0, 0.0, f64::INFINITY);
        other.set_bounds(1, 0.0, f64::INFINITY);
        other.add_row(&[1.0, 1.0], Relation::Ge, 4.0);
        let warm = other.solve_warm(&ws).unwrap();
        assert!(!warm.warmed, "mismatched basis must fall back to phase 1");
        assert_eq!(warm.status, Status::Optimal);
        assert_close(warm.objective, 8.0);
    }

    #[test]
    fn warm_start_singular_basis_falls_back_to_cold() {
        // Capture a basis where x0 is basic, then zero x0's column so the
        // basis matrix becomes singular: install must fail and the cold
        // fallback must still find the optimum of the modified problem.
        let mut p = Problem::new(2, Sense::Minimize);
        p.set_objective(&[-1.0, 0.0]);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, 1.0);
        p.add_row(&[1.0, 1.0], Relation::Le, 2.0);
        let sol = p.solve().unwrap();
        let ws = sol.warm.unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-6, "x0 should be basic at 2");

        let mut q = Problem::new(2, Sense::Minimize);
        q.set_objective(&[0.0, -1.0]);
        q.set_bounds(0, 0.0, 1.0);
        q.set_bounds(1, 0.0, 1.0);
        q.add_row(&[0.0, 0.0], Relation::Le, 2.0);
        let warm = q.solve_warm(&ws).unwrap();
        assert!(!warm.warmed, "singular basis column must fall back");
        assert_eq!(warm.status, Status::Optimal);
        assert_close(warm.objective, -1.0);
    }

    #[test]
    fn solve_reports_pivots_and_warm_basis() {
        let mut p = Problem::new(2, Sense::Maximize);
        p.set_objective(&[1.0, 1.0]);
        p.set_bounds(0, 0.0, 1.0);
        p.set_bounds(1, 0.0, 1.0);
        p.add_row(&[1.0, 1.0], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(s.warm.is_some());
        assert!(!s.warmed);
        // Non-optimal statuses carry no basis snapshot.
        let mut inf = Problem::new(1, Sense::Minimize);
        inf.set_bounds(0, 0.0, 1.0);
        inf.add_row(&[1.0], Relation::Ge, 2.0);
        let s = inf.solve().unwrap();
        assert_eq!(s.status, Status::Infeasible);
        assert!(s.warm.is_none());
    }

    /// Brute-force reference for 2-variable LPs over a fine grid.
    fn grid_reference(p: &Problem) -> Option<f64> {
        let steps = 200;
        let mut best: Option<f64> = None;
        let (l0, u0) = (p.lower[0].max(-10.0), p.upper[0].min(10.0));
        let (l1, u1) = (p.lower[1].max(-10.0), p.upper[1].min(10.0));
        for i in 0..=steps {
            for j in 0..=steps {
                let x = l0 + (u0 - l0) * i as f64 / steps as f64;
                let y = l1 + (u1 - l1) * j as f64 / steps as f64;
                let feasible = p.rows.iter().enumerate().all(|(k, row)| {
                    let v = row[0] * x + row[1] * y;
                    match p.relations[k] {
                        Relation::Le => v <= p.rhs[k] + 1e-9,
                        Relation::Ge => v >= p.rhs[k] - 1e-9,
                        Relation::Eq => (v - p.rhs[k]).abs() <= 1e-6,
                    }
                });
                if feasible {
                    let obj = p.objective[0] * x + p.objective[1] * y;
                    let obj = match p.sense {
                        Sense::Minimize => obj,
                        Sense::Maximize => -obj,
                    };
                    best = Some(best.map_or(obj, |b: f64| b.min(obj)));
                }
            }
        }
        best.map(|b| match p.sense {
            Sense::Minimize => b,
            Sense::Maximize => -b,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random feasible-by-construction LPs: the solution must be
        /// feasible and at least as good as every grid point.
        #[test]
        fn optimal_beats_grid_samples(
            c0 in -3.0..3.0_f64, c1 in -3.0..3.0_f64,
            a in proptest::collection::vec((-2.0..2.0_f64, -2.0..2.0_f64, 0.1..3.0_f64), 0..4),
        ) {
            let mut p = Problem::new(2, Sense::Minimize);
            p.set_objective(&[c0, c1]);
            p.set_bounds(0, 0.0, 2.0);
            p.set_bounds(1, 0.0, 2.0);
            // Rows pass through x0 = (1, 1) with positive slack, so the
            // problem is always feasible.
            for (r0, r1, slack) in &a {
                p.add_row(&[*r0, *r1], Relation::Le, r0 + r1 + slack);
            }
            let s = p.solve().unwrap();
            prop_assert_eq!(s.status, Status::Optimal);
            // Feasibility of the reported point.
            for (k, row) in p.rows.iter().enumerate() {
                let v = row[0] * s.x[0] + row[1] * s.x[1];
                prop_assert!(v <= p.rhs[k] + 1e-6);
            }
            prop_assert!(s.x[0] >= -1e-9 && s.x[0] <= 2.0 + 1e-9);
            prop_assert!(s.x[1] >= -1e-9 && s.x[1] <= 2.0 + 1e-9);
            if let Some(reference) = grid_reference(&p) {
                prop_assert!(s.objective <= reference + 1e-4,
                    "solver {} worse than grid {}", s.objective, reference);
            }
        }

        /// Minimising and maximising the negated objective must agree.
        #[test]
        fn min_max_duality(
            c0 in -3.0..3.0_f64, c1 in -3.0..3.0_f64,
            b in 0.5..4.0_f64,
        ) {
            let build = |sense: Sense, c: [f64; 2]| {
                let mut p = Problem::new(2, sense);
                p.set_objective(&c);
                p.set_bounds(0, -1.0, 1.5);
                p.set_bounds(1, -1.0, 1.5);
                p.add_row(&[1.0, 1.0], Relation::Le, b);
                p
            };
            let min = build(Sense::Minimize, [c0, c1]).solve().unwrap();
            let max = build(Sense::Maximize, [-c0, -c1]).solve().unwrap();
            prop_assert_eq!(min.status, Status::Optimal);
            prop_assert_eq!(max.status, Status::Optimal);
            prop_assert!((min.objective + max.objective).abs() < 1e-6);
        }
    }
}
