//! Property tests for the simplex solver, cross-checked against a naive
//! vertex enumerator.
//!
//! For an LP whose variables are all box-bounded, the feasible region is
//! a (possibly empty) polytope, so it is infeasible exactly when it has
//! no vertex, and otherwise some vertex attains the optimum. A vertex in
//! `n` variables is the intersection of `n` active constraints drawn
//! from the rows (as equalities) and the variable bounds — small enough
//! to enumerate exhaustively for `n ≤ 3`. The enumerator shares nothing
//! with the simplex implementation: it solves each `n × n` system by
//! Gaussian elimination and filters by feasibility.

use abonn_lp::{Problem, Relation, Sense, Status};
use proptest::collection::vec;
use proptest::prelude::*;

const FEAS_TOL: f64 = 1e-7;
const OBJ_TOL: f64 = 1e-5;

/// One linear constraint `a · x (≤ | ≥ | =) b`.
#[derive(Debug)]
struct Row {
    a: Vec<f64>,
    rel: Relation,
    b: f64,
}

/// A fully bounded random LP.
#[derive(Debug)]
struct BoundedLp {
    sense: Sense,
    objective: Vec<f64>,
    bounds: Vec<(f64, f64)>,
    rows: Vec<Row>,
}

impl BoundedLp {
    fn to_problem(&self) -> Problem {
        let n = self.objective.len();
        let mut p = Problem::new(n, self.sense);
        p.set_objective(&self.objective);
        for (j, &(lo, hi)) in self.bounds.iter().enumerate() {
            p.set_bounds(j, lo, hi);
        }
        for row in &self.rows {
            p.add_row(&row.a, row.rel, row.b);
        }
        p
    }

    fn feasible(&self, x: &[f64]) -> bool {
        for (j, &(lo, hi)) in self.bounds.iter().enumerate() {
            if x[j] < lo - FEAS_TOL || x[j] > hi + FEAS_TOL {
                return false;
            }
        }
        self.rows.iter().all(|row| {
            let lhs: f64 = row.a.iter().zip(x).map(|(a, v)| a * v).sum();
            match row.rel {
                Relation::Le => lhs <= row.b + FEAS_TOL,
                Relation::Ge => lhs >= row.b - FEAS_TOL,
                Relation::Eq => (lhs - row.b).abs() <= FEAS_TOL,
            }
        })
    }

    fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Best feasible vertex value, or `None` when no vertex is feasible
    /// (⇔ the bounded LP is infeasible).
    fn enumerate_optimum(&self) -> Option<f64> {
        let n = self.objective.len();
        // Candidate active constraints as equalities `a · x = b`.
        let mut eqs: Vec<(Vec<f64>, f64)> = Vec::new();
        for row in &self.rows {
            eqs.push((row.a.clone(), row.b));
        }
        for (j, &(lo, hi)) in self.bounds.iter().enumerate() {
            let mut unit = vec![0.0; n];
            unit[j] = 1.0;
            eqs.push((unit.clone(), lo));
            eqs.push((unit, hi));
        }
        let mut best: Option<f64> = None;
        for combo in combinations(eqs.len(), n) {
            let system: Vec<&(Vec<f64>, f64)> = combo.iter().map(|&i| &eqs[i]).collect();
            let Some(x) = solve_square(&system) else {
                continue;
            };
            if !self.feasible(&x) {
                continue;
            }
            let v = self.objective_at(&x);
            best = Some(match (best, self.sense) {
                (None, _) => v,
                (Some(b), Sense::Maximize) => b.max(v),
                (Some(b), Sense::Minimize) => b.min(v),
            });
        }
        best
    }
}

/// All `k`-subsets of `0..n` in lexicographic order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut combo: Vec<usize> = (0..k).collect();
    if k > n {
        return out;
    }
    loop {
        out.push(combo.clone());
        // Advance the rightmost index that can still move.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if combo[i] + (k - i) < n {
                combo[i] += 1;
                for j in i + 1..k {
                    combo[j] = combo[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Solves `A x = b` for square `A` by Gaussian elimination with partial
/// pivoting; `None` when (near-)singular.
fn solve_square(system: &[&(Vec<f64>, f64)]) -> Option<Vec<f64>> {
    let n = system.len();
    let mut m: Vec<Vec<f64>> = system
        .iter()
        .map(|(a, b)| {
            let mut row = a.clone();
            row.push(*b);
            row
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < 1e-10 {
            return None;
        }
        m.swap(col, pivot);
        let pivot_row = m[col].clone();
        for (i, row) in m.iter_mut().enumerate() {
            if i == col {
                continue;
            }
            let f = row[col] / pivot_row[col];
            for (x, &p) in row[col..=n].iter_mut().zip(&pivot_row[col..=n]) {
                *x -= f * p;
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

/// Builds a `BoundedLp` from raw generated material, truncating the raw
/// vectors to the drawn dimension.
fn assemble(
    n: usize,
    raw_bounds: &[(f64, f64)],
    raw_obj: &[f64],
    raw_rows: &[(Vec<f64>, u8, f64)],
    maximize: bool,
) -> BoundedLp {
    BoundedLp {
        sense: if maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        },
        objective: raw_obj[..n].to_vec(),
        bounds: raw_bounds[..n]
            .iter()
            .map(|&(lo, width)| (lo, lo + width))
            .collect(),
        rows: raw_rows
            .iter()
            .map(|(a, rel, b)| Row {
                a: a[..n].to_vec(),
                rel: match rel % 3 {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                },
                b: *b,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]
    #[test]
    fn simplex_matches_vertex_enumeration(
        n in 1usize..=3,
        raw_bounds in vec((-2.0..0.0_f64, 0.1..3.0_f64), 3),
        raw_obj in vec(-2.0..2.0_f64, 3),
        raw_rows in vec((vec(-2.0..2.0_f64, 3), 0u8..6, -2.0..2.0_f64), 0..4),
        maximize in 0u8..2,
    ) {
        let lp = assemble(n, &raw_bounds, &raw_obj, &raw_rows, maximize == 1);
        let sol = lp.to_problem().solve();
        let reference = lp.enumerate_optimum();
        match (sol, reference) {
            (Ok(sol), Some(best)) => {
                prop_assert_eq!(sol.status, Status::Optimal, "enumerator found {}", best);
                prop_assert!(
                    (sol.objective - best).abs() <= OBJ_TOL,
                    "simplex {} vs enumerated {}",
                    sol.objective,
                    best
                );
                prop_assert!(lp.feasible(&sol.x), "optimal point violates constraints");
                let at_point = lp.objective_at(&sol.x);
                prop_assert!(
                    (sol.objective - at_point).abs() <= OBJ_TOL,
                    "reported objective {} but c·x = {}",
                    sol.objective,
                    at_point
                );
            }
            (Ok(sol), None) => {
                prop_assert_eq!(
                    sol.status,
                    Status::Infeasible,
                    "no feasible vertex but simplex says {:?} at {:?}",
                    sol.status,
                    sol.x
                );
            }
            (Err(e), _) => prop_assert!(false, "solver error on bounded LP: {e}"),
        }
    }

    /// Pure box LPs: the optimum is read straight off the bounds, so the
    /// solver must place every coordinate at the bound matching its
    /// objective sign (bound-flip handling with no rows at all).
    #[test]
    fn box_only_optimum_sits_on_bounds(
        raw_bounds in vec((-2.0..0.0_f64, 0.1..3.0_f64), 3),
        raw_obj in vec(-2.0..2.0_f64, 3),
    ) {
        let lp = assemble(3, &raw_bounds, &raw_obj, &[], true);
        let sol = lp.to_problem().solve().unwrap();
        prop_assert_eq!(sol.status, Status::Optimal);
        let expected: f64 = lp
            .objective
            .iter()
            .zip(&lp.bounds)
            .map(|(&c, &(lo, hi))| if c >= 0.0 { c * hi } else { c * lo })
            .sum();
        prop_assert!((sol.objective - expected).abs() <= OBJ_TOL);
    }
}

#[test]
fn degenerate_vertex_is_handled() {
    // Three constraints meet at (1, 1): any basis choice there is
    // degenerate, which exercises the Bland's-rule fallback.
    let mut p = Problem::new(2, Sense::Maximize);
    p.set_objective(&[1.0, 1.0]);
    p.set_bounds(0, 0.0, 5.0);
    p.set_bounds(1, 0.0, 5.0);
    p.add_row(&[1.0, 0.0], Relation::Le, 1.0);
    p.add_row(&[0.0, 1.0], Relation::Le, 1.0);
    p.add_row(&[1.0, 1.0], Relation::Le, 2.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 2.0).abs() < 1e-9);
}

#[test]
fn redundant_equalities_stay_feasible() {
    // The same equality twice: a degenerate but consistent system.
    let mut p = Problem::new(2, Sense::Minimize);
    p.set_objective(&[1.0, 2.0]);
    p.set_bounds(0, 0.0, 10.0);
    p.set_bounds(1, 0.0, 10.0);
    p.add_row(&[1.0, 1.0], Relation::Eq, 3.0);
    p.add_row(&[2.0, 2.0], Relation::Eq, 6.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 3.0).abs() < 1e-9, "minimum at (3, 0)");
}

#[test]
fn contradictory_rows_are_infeasible() {
    let mut p = Problem::new(1, Sense::Minimize);
    p.set_objective(&[1.0]);
    p.set_bounds(0, -10.0, 10.0);
    p.add_row(&[1.0], Relation::Ge, 1.0);
    p.add_row(&[1.0], Relation::Le, 0.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.status, Status::Infeasible);
}

#[test]
fn bound_window_excluded_by_row_is_infeasible() {
    // Row forces x ≥ 5 but the variable's own upper bound is 2.
    let mut p = Problem::new(1, Sense::Maximize);
    p.set_objective(&[1.0]);
    p.set_bounds(0, 0.0, 2.0);
    p.add_row(&[1.0], Relation::Ge, 5.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.status, Status::Infeasible);
}

#[test]
fn free_variable_detects_unbounded() {
    let mut p = Problem::new(2, Sense::Maximize);
    p.set_objective(&[1.0, 0.0]);
    p.set_bounds(0, 0.0, f64::INFINITY);
    p.set_bounds(1, 0.0, 1.0);
    p.add_row(&[-1.0, 1.0], Relation::Le, 1.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.status, Status::Unbounded);
}

#[test]
fn minimisation_with_free_negative_direction_is_unbounded() {
    let mut p = Problem::new(1, Sense::Minimize);
    p.set_objective(&[1.0]);
    p.set_bounds(0, f64::NEG_INFINITY, 0.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.status, Status::Unbounded);
}

#[test]
fn flipped_bounds_at_upper_then_lower() {
    // Same constraint matrix, opposite objective signs: the optimum must
    // flip from the upper to the lower bound of each variable.
    // Maximising +x puts each variable at its upper bound (2 + 3);
    // maximising -x puts it at the lower bound (-(-1) - (-2) = 3).
    for (c0, c1, expected) in [(1.0, 1.0, 5.0), (-1.0, -1.0, 3.0)] {
        let mut p = Problem::new(2, Sense::Maximize);
        p.set_objective(&[c0, c1]);
        p.set_bounds(0, -1.0, 2.0);
        p.set_bounds(1, -2.0, 3.0);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective - expected).abs() < 1e-9,
            "objective ({c0}, {c1}): got {}, want {expected}",
            sol.objective
        );
    }
}

#[test]
fn combinations_enumerate_all_subsets() {
    assert_eq!(combinations(4, 2).len(), 6);
    assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
    assert!(combinations(2, 3).is_empty());
}
