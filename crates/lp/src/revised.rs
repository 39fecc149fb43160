//! Revised simplex: the dense tableau's pivot rules on a factorized basis.
//!
//! [`Revised`] mirrors the dense tableau's decision procedure — the same
//! entering rule, ratio test, tolerances, Bland fallback and two-phase
//! structure — but never materialises the pivoted `m × total` tableau.
//! It keeps the original constraint columns sparse and an explicit
//! `m × m` basis inverse updated by product-form (eta) steps, so one basis
//! change costs `O(m · (m + nnz))` cell writes instead of the dense row
//! sweep's `O(m · total)` — the saving the [`Solution::pivot_cells`]
//! counter tracks. It grows with `total / m`, as in the wide regime
//! (`total ≫ m`) of the `lp/pivot_revised` bench.
//!
//! Determinism: both engines stop at an optimal *vertex*, and the
//! canonical extraction (`vertex_values` in `simplex.rs`) is a pure
//! function of `(problem, vertex)`. A dense and a revised solve of a
//! uniquely-optimal LP therefore return bit-identical solutions even
//! though their intermediate arithmetic differs; only the call counters
//! (`pivots`, `pivot_cells`) may diverge, and those never reach persisted
//! reports. [`Problem::solve`] runs this engine; the dense tableau
//! survives only as the `cfg(test)` oracle in `dense.rs`, whose unit
//! tests compare the two.
//!
//! [`Solution::pivot_cells`]: crate::Solution::pivot_cells
//! [`Problem::solve`]: crate::Problem::solve

use crate::simplex::{
    slack_bounds, Problem, RatioOutcome, Rest, Sense, SolveError, Status, TerminalBasis, VarState,
    FEAS_TOL, PIVOT_TOL,
};

/// Revised-simplex working state: sparse original columns plus an explicit
/// basis inverse, mirroring every scalar decision of the dense tableau.
pub(crate) struct Revised {
    /// Original-space constraint columns in compressed-sparse-column form:
    /// `(row, value)` pairs in ascending row order, column `j` occupying
    /// `col_entries[col_start[j]..col_start[j + 1]]`. Structural columns
    /// come first (`0..n`), then slack units (`n..n + m`), then any
    /// artificials (see `build` for their columns). One flat
    /// allocation instead of a `Vec` per column: the per-iteration pricing
    /// sweep walks `col_entries` contiguously.
    col_entries: Vec<(usize, f64)>,
    /// Column extents into `col_entries`; length `total + 1`.
    col_start: Vec<usize>,
    /// The same structural nonzeros in compressed-sparse-row form,
    /// `(column, value)` ascending within each row — the pricing sweep
    /// walks rows (skipping `y_i = 0`) so each iteration touches the
    /// matrix nonzeros once instead of setting up one short loop per
    /// column. Slack and artificial columns are not stored here; pricing
    /// handles their unit entries directly.
    row_entries: Vec<(usize, f64)>,
    /// Row extents into `row_entries`; length `m + 1`.
    row_start: Vec<usize>,
    /// Row-major `m × m` basis inverse. Initial row signs (the dense
    /// build's whole-row negations) are folded in here, so
    /// `binv · cols[j]` always reproduces the dense tableau's column `j`.
    binv: Vec<f64>,
    m: usize,
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
    pivots: usize,
    pivot_cells: usize,
    /// Scratch copy of the normalised pivot row during an eta update.
    eta: Vec<f64>,
}

/// CSC form of the original constraint matrix over structural and slack
/// variables: nonzeros of `p.rows` column by column, then one unit entry
/// per slack. Built in two row-major passes (count, then fill), so every
/// column's entries land in ascending row order without sorting.
fn csc_columns(p: &Problem) -> (Vec<(usize, f64)>, Vec<usize>) {
    let m = p.rows.len();
    let n = p.n;
    let total_known = n + m;
    let mut col_start = vec![0usize; total_known + 1];
    for row in &p.rows {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                col_start[j + 1] += 1;
            }
        }
    }
    for j in n..total_known {
        col_start[j + 1] = 1; // slack unit column
    }
    for j in 0..total_known {
        col_start[j + 1] += col_start[j];
    }
    let mut col_entries = vec![(0usize, 0.0); col_start[total_known]];
    let mut cursor: Vec<usize> = col_start[..total_known].to_vec();
    for (i, row) in p.rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                col_entries[cursor[j]] = (i, v);
                cursor[j] += 1;
            }
        }
    }
    for i in 0..m {
        col_entries[col_start[n + i]] = (i, 1.0);
    }
    (col_entries, col_start)
}

/// CSR form of the structural block of the constraint matrix: nonzeros of
/// `p.rows`, row by row, `(column, value)` pairs in ascending column
/// order.
fn csr_rows(p: &Problem) -> (Vec<(usize, f64)>, Vec<usize>) {
    let mut row_entries = Vec::new();
    let mut row_start = Vec::with_capacity(p.rows.len() + 1);
    row_start.push(0);
    for row in &p.rows {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                row_entries.push((j, v));
            }
        }
        row_start.push(row_entries.len());
    }
    (row_entries, row_start)
}

impl Revised {
    /// Cold start: the same initial placement, slack-vs-artificial
    /// decision, and residual arithmetic as the dense build, with its
    /// whole-row negations folded into `binv` (which starts as the signed
    /// identity).
    pub(crate) fn build(p: &Problem) -> Self {
        let m = p.rows.len();
        let n = p.n;
        let total_known = n + m;
        // Bounds and costs extended over the slack block, as the dense
        // build extends them.
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
        for _ in 0..m {
            state.push(VarState::AtLower); // provisional, fixed up below
        }

        let (mut col_entries, mut col_start) = csc_columns(p);
        let (row_entries, row_start) = csr_rows(p);

        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }

        let mut basis = Vec::with_capacity(m);
        let mut artificial_cols: Vec<(usize, f64)> = Vec::new(); // (row, residual)
        for i in 0..m {
            let sj = n + i;
            // Residual the slack would have to take for the row to hold —
            // the exact arithmetic of the dense build.
            let mut dot = 0.0;
            for (j, &xj) in x[..n].iter().enumerate() {
                dot += p.rows[i][j] * xj;
            }
            let need = p.rhs[i] - dot;
            if need >= lower[sj] - FEAS_TOL && need <= upper[sj] + FEAS_TOL {
                x[sj] = need.clamp(lower[sj], upper[sj]);
                state[sj] = VarState::Basic(i);
                basis.push(sj);
            } else {
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
        let total = total_known + artificial_cols.len();
        lower.resize(total, 0.0);
        upper.resize(total, f64::INFINITY);
        x.resize(total, 0.0);
        state.resize(total, VarState::AtLower);
        cost.resize(total, 0.0);
        for (k, &(row, rest)) in artificial_cols.iter().enumerate() {
            let aj = first_artificial + k;
            let sign = if rest < 0.0 { -1.0 } else { 1.0 };
            // The dense build negates the whole row; here the sign lands on
            // the basis-inverse row, and the artificial's original-space
            // column is the signed slack unit so `binv · col = e_row`.
            if rest < 0.0 {
                for v in &mut binv[row * m..(row + 1) * m] {
                    *v = -*v;
                }
            }
            col_entries.push((row, sign));
            col_start.push(col_entries.len());
            x[aj] = rest.abs();
            state[aj] = VarState::Basic(row);
            basis[row] = aj;
        }

        Revised {
            col_entries,
            col_start,
            row_entries,
            row_start,
            binv,
            m,
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
            eta: Vec::new(),
        }
    }

    /// Terminal variable values (structural, slack, artificials).
    pub(crate) fn terminal_x(&self) -> &[f64] {
        &self.x
    }

    pub(crate) fn pivots(&self) -> usize {
        self.pivots
    }

    pub(crate) fn pivot_cells(&self) -> usize {
        self.pivot_cells
    }

    fn total_vars(&self) -> usize {
        self.x.len()
    }

    /// Sparse entries of column `j`, ascending by row.
    fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.col_entries[self.col_start[j]..self.col_start[j + 1]]
    }

    /// Runs phase 1 (when artificials exist) then phase 2, as the dense
    /// tableau does.
    pub(crate) fn run(&mut self) -> Result<Status, SolveError> {
        if self.first_artificial < self.total_vars() {
            let mut phase1 = vec![0.0; self.total_vars()];
            for c in phase1[self.first_artificial..].iter_mut() {
                *c = 1.0;
            }
            let status = self.optimize(&phase1)?;
            let mut infeas = 0.0;
            for &v in &self.x[self.first_artificial..] {
                infeas += v;
            }
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

    /// Primal simplex iterations with the given minimisation costs — the
    /// dense loop with pricing through `y = c_B · B⁻¹` and the entering
    /// column resolved by FTRAN instead of a tableau lookup.
    fn optimize(&mut self, cost: &[f64]) -> Result<Status, SolveError> {
        let total = self.total_vars();
        let max_iter = 200 * (total + self.m + 16);
        let mut degenerate_steps = 0usize;
        let mut y = vec![0.0; self.m];
        let mut d = vec![0.0; total];
        let mut w = vec![0.0; self.m];

        for _ in 0..max_iter {
            self.price_into(cost, &mut y, &mut d);
            let use_bland = degenerate_steps > 40;
            let Some((enter, dir)) = self.pick_entering(&d, use_bland) else {
                return Ok(Status::Optimal);
            };
            self.ftran(enter, &mut w);
            match self.ratio_test(enter, dir, &w) {
                RatioOutcome::Unbounded => return Ok(Status::Unbounded),
                RatioOutcome::BoundFlip(t) => {
                    self.apply_step(enter, dir, t, &w);
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
                    self.apply_step(enter, dir, t, &w);
                    self.pivot(row, enter, leave_state, &w);
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

    /// Reduced costs via the dual vector: `y = c_B · B⁻¹` (skipping zero
    /// basic costs, as the dense pricing skips zero `c_B` rows), then
    /// `d = c − yᵀA` scattered row-by-row through the CSR nonzeros,
    /// skipping `y_i = 0` rows. One pass over the matrix nonzeros per
    /// iteration — no per-column loop setup, and the same subtraction
    /// order per column as a dense row sweep. Slack columns subtract
    /// their unit `y_i` directly; artificial columns (at most a handful)
    /// go through their sparse CSC entries.
    fn price_into(&self, cost: &[f64], y: &mut [f64], d: &mut [f64]) {
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for (i, &bi) in self.basis.iter().enumerate() {
            let cb = cost[bi];
            if cb == 0.0 {
                continue;
            }
            for (yk, &v) in y.iter_mut().zip(&self.binv[i * self.m..(i + 1) * self.m]) {
                *yk += cb * v;
            }
        }
        d.copy_from_slice(cost);
        let n = self.n_structural;
        for i in 0..self.m {
            let yi = y[i];
            if yi == 0.0 {
                continue;
            }
            for &(j, v) in &self.row_entries[self.row_start[i]..self.row_start[i + 1]] {
                d[j] -= yi * v;
            }
            d[n + i] -= yi;
        }
        let artificials = self.first_artificial..self.total_vars();
        for (j, dj) in d[artificials.clone()].iter_mut().enumerate() {
            for &(r, v) in self.col(artificials.start + j) {
                *dj -= y[r] * v;
            }
        }
    }

    /// Chooses an entering variable and its direction — the dense rule
    /// (Dantzig by `|d|`, keep-first ties; first-eligible under Bland).
    /// The Dantzig sweep tests the score against the incumbent *before*
    /// matching on the variable state: a column only needs the eligibility
    /// match when its score strictly beats the best so far, and seeding
    /// the incumbent score with `PIVOT_TOL` encodes the strict `|d_j| >
    /// PIVOT_TOL` eligibility floor, so the hot path is one compare on the
    /// contiguous `d` array. Decision-for-decision identical to the dense
    /// `pick_entering`.
    fn pick_entering(&self, d: &[f64], bland: bool) -> Option<(usize, f64)> {
        let eligibility = |j: usize| -> (bool, f64) {
            match self.state[j] {
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
            }
        };
        if bland {
            for j in 0..self.total_vars() {
                let (eligible, dir) = eligibility(j);
                if eligible {
                    return Some((j, dir));
                }
            }
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        let mut best_score = PIVOT_TOL;
        for (j, dj) in d.iter().enumerate() {
            let score = dj.abs();
            if score <= best_score {
                continue;
            }
            let (eligible, dir) = eligibility(j);
            if !eligible {
                continue;
            }
            best = Some((j, dir));
            best_score = score;
        }
        best
    }

    /// FTRAN: `w = B⁻¹ · A_enter`, the entering column in the current
    /// basis — the values the dense tableau holds at `a[:, enter]`.
    fn ftran(&self, enter: usize, w: &mut [f64]) {
        let col = self.col(enter);
        for (i, wi) in w.iter_mut().enumerate() {
            let row = &self.binv[i * self.m..(i + 1) * self.m];
            let mut s = 0.0;
            for &(r, v) in col {
                s += row[r] * v;
            }
            *wi = s;
        }
    }

    /// Bounded-variable ratio test — the dense test with the FTRAN result
    /// standing in for the tableau column.
    fn ratio_test(&self, enter: usize, dir: f64, w: &[f64]) -> RatioOutcome {
        let own_limit = if dir > 0.0 {
            self.upper[enter] - self.x[enter]
        } else {
            self.x[enter] - self.lower[enter]
        };
        let mut t_max = own_limit; // may be +inf
        let mut leaving: Option<(usize, VarState)> = None;
        // A row within `FEAS_TOL` of the current limit displaces only the
        // entering variable's own bound, never an earlier row: ratio ties
        // go to the first basis row in scan order.

        for (i, &bi) in self.basis.iter().enumerate() {
            let delta = dir * w[i]; // x_bi decreases by delta * t
            if delta > PIVOT_TOL {
                if self.lower[bi].is_finite() {
                    let t = (self.x[bi] - self.lower[bi]) / delta;
                    if t < t_max - FEAS_TOL || (t < t_max + FEAS_TOL && leaving.is_none()) {
                        t_max = t.max(0.0);
                        leaving = Some((i, VarState::AtLower));
                    }
                }
            } else if delta < -PIVOT_TOL && self.upper[bi].is_finite() {
                let t = (self.upper[bi] - self.x[bi]) / (-delta);
                if t < t_max - FEAS_TOL || (t < t_max + FEAS_TOL && leaving.is_none()) {
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

    /// Moves `x[enter]` by `dir * t` and updates basic values through the
    /// FTRAN column.
    fn apply_step(&mut self, enter: usize, dir: f64, t: f64, w: &[f64]) {
        if t == 0.0 {
            return;
        }
        self.x[enter] += dir * t;
        for (i, &bi) in self.basis.iter().enumerate() {
            self.x[bi] -= dir * t * w[i];
        }
    }

    /// Pivots `enter` into the basis at `row` by a product-form update of
    /// `B⁻¹`: scale the pivot row by `1 / w[row]`, then eliminate `w[i]`
    /// from every other row — `m`-wide sweeps instead of the dense
    /// `total`-wide ones.
    fn pivot(&mut self, row: usize, enter: usize, leave_state: VarState, w: &[f64]) {
        self.pivots += 1;
        let m = self.m;
        let leave = self.basis[row];
        let piv = w[row];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot element too small: {piv}");
        let inv = 1.0 / piv;
        for v in &mut self.binv[row * m..(row + 1) * m] {
            *v *= inv;
        }
        self.eta.clear();
        self.eta.extend_from_slice(&self.binv[row * m..(row + 1) * m]);
        let mut updated_rows = 0usize;
        for (i, &factor) in w.iter().enumerate().take(m) {
            if i == row || factor == 0.0 {
                continue;
            }
            updated_rows += 1;
            for (v, &q) in self.binv[i * m..(i + 1) * m].iter_mut().zip(&self.eta) {
                *v -= factor * q;
            }
        }
        // FTRAN of the entering column plus the eta update — the entire
        // per-pivot cell cost of the revised step.
        let enter_nnz = self.col_start[enter + 1] - self.col_start[enter];
        self.pivot_cells += m * enter_nnz + m + m * updated_rows;
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

    /// The current basis as a [`TerminalBasis`] — the dense engine's rule:
    /// `None` while an artificial is still basic.
    pub(crate) fn terminal_basis(&self) -> Option<TerminalBasis> {
        let mut basis = Vec::with_capacity(self.m);
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
        Some(TerminalBasis { basis, rests })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Problem, Relation, Sense, Status};

    fn classic() -> Problem {
        let mut p = Problem::new(2, Sense::Maximize);
        p.set_objective(&[3.0, 5.0]);
        p.set_bounds(0, 0.0, f64::INFINITY);
        p.set_bounds(1, 0.0, f64::INFINITY);
        p.add_row(&[1.0, 0.0], Relation::Le, 4.0);
        p.add_row(&[0.0, 2.0], Relation::Le, 12.0);
        p.add_row(&[3.0, 2.0], Relation::Le, 18.0);
        p
    }

    #[test]
    fn solve_agrees_with_the_dense_engine() {
        let p = classic();
        let revised = p.solve().unwrap();
        let dense = p.solve_dense().unwrap();
        assert_eq!(revised.status, Status::Optimal);
        assert_eq!(dense.status, Status::Optimal);
        // Unique optimum: canonical extraction makes the engines agree to
        // the bit even though their pivot arithmetic differs.
        assert_eq!(revised.objective.to_bits(), dense.objective.to_bits());
        for (a, b) in revised.x.iter().zip(&dense.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn revised_pivot_cells_undercut_dense_on_wide_problems() {
        // total ≫ m: many bounded variables, few rows — the triangle-LP
        // shape. The revised per-pivot cost must be strictly smaller.
        let n = 40;
        let mut p = Problem::new(n, Sense::Minimize);
        let mut c = vec![0.0; n];
        let mut row = vec![0.0; n];
        for j in 0..n {
            c[j] = ((j % 7) as f64) - 3.0;
            row[j] = 1.0 + ((j % 3) as f64);
            p.set_bounds(j, 0.0, 2.0);
        }
        p.set_objective(&c);
        p.add_row(&row, Relation::Ge, 10.0);
        p.add_row(&c, Relation::Le, 50.0);
        let dense = p.solve_dense().unwrap();
        let revised = p.solve().unwrap();
        assert_eq!(dense.status, Status::Optimal);
        assert_eq!(revised.status, Status::Optimal);
        assert!(dense.pivots > 0, "fixture must pivot to be meaningful");
        assert!(
            revised.pivot_cells * 2 < dense.pivot_cells,
            "revised {} cells vs dense {}",
            revised.pivot_cells,
            dense.pivot_cells
        );
    }
}
