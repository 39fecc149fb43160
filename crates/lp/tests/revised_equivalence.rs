//! Revised-vs-dense engine equivalence on randomly generated LPs.
//!
//! [`Problem::solve`]/[`Problem::solve_warm`] run the revised simplex;
//! [`Problem::solve_dense`]/[`Problem::solve_warm_dense`] keep the dense
//! tableau it replaced as the reference. Both engines implement the same
//! pivot rules (entering rule, ratio test, tolerances, Bland fallback,
//! two-phase structure), differing only in how the basis arithmetic is
//! carried (pivoted tableau vs. factorized basis inverse). These tests pin
//! the contract down:
//!
//! * same [`Status`] on feasible, infeasible, and degenerate problems;
//! * bit-identical extracted vertices and objectives whenever both
//!   engines are optimal (the canonical vertex extraction is a pure
//!   function of `(problem, vertex)`, independent of the engine);
//! * the revised engine never spends more pivots than the dense one, and
//!   on LPs shaped like `abonn-bound`'s triangle relaxation — solved as a
//!   warm-chained objective sweep, the way `LpVerifier` solves them — it
//!   walks the same pivot path.
//!
//! Coefficients are drawn from a dyadic grid (multiples of 1/8, exactly
//! representable in binary) so the two engines' pricing — mathematically
//! equal but computed through different expressions — stays exact until
//! divisions enter and near-ties cannot flip the Dantzig argmax.

use abonn_lp::{Problem, Relation, Sense, Solution, Status, WarmStart};
use proptest::collection::vec;
use proptest::prelude::*;

/// Decodes raw integer draws into a fully boxed dyadic LP with `n`
/// variables: coefficients are eighths in `[-2, 2]`, right-hand sides
/// eighths in `[-4, 4]`, every variable boxed to `[-2, 2]` so the LP is
/// never unbounded and every optimum is a vertex of a polytope.
fn build_lp(
    n: usize,
    sense_raw: u8,
    objective_raw: &[i32],
    rows_raw: &[(Vec<i32>, u8, i32)],
) -> Problem {
    let sense = if sense_raw == 0 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut p = Problem::new(n, sense);
    let c: Vec<f64> = objective_raw[..n].iter().map(|&k| f64::from(k) / 8.0).collect();
    p.set_objective(&c);
    for j in 0..n {
        p.set_bounds(j, -2.0, 2.0);
    }
    for (coeffs_raw, rel_raw, rhs_raw) in rows_raw {
        let a: Vec<f64> = coeffs_raw[..n].iter().map(|&k| f64::from(k) / 8.0).collect();
        let rel = match rel_raw % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        p.add_row(&a, rel, f64::from(*rhs_raw) / 8.0);
    }
    p
}

/// Interval of `row · v + bias` over the box `[lo, hi]`.
fn interval(row: &[f64], bias: f64, lo: &[f64], hi: &[f64]) -> (f64, f64) {
    let (mut l, mut u) = (bias, bias);
    for ((&w, &vl), &vh) in row.iter().zip(lo).zip(hi) {
        let (a, b) = (w * vl, w * vh);
        l += a.min(b);
        u += a.max(b);
    }
    (l, u)
}

/// A dyadic LP with `LpVerifier`'s triangle layout for a one-hidden-layer
/// net `x (n_in) → z, a (hidden) → out (n_out)`: variables `[x, z, a,
/// out]`, all boxed (inputs to `[-1, 1]`, pre-activations and outputs to
/// their exact interval bounds); first the affine equality rows
/// `z − W·x = b` and `out − V·a = c`, then exactly two rows per hidden
/// neuron by category — active `a = z` plus an inert all-zero `≤ 0` row,
/// inactive two inert rows with `a` fixed to 0, unstable the facets
/// `a ≥ z` and `a − s·z ≤ −s·l` with a dyadic slope `s`.
///
/// Returns the problem and its objective sweep: minimise each output,
/// then minimise and maximise each pre-activation.
fn build_triangle_lp(
    n_in: usize,
    hidden: usize,
    n_out: usize,
    w_raw: &[i32],
    b_raw: &[i32],
    neurons: &[(u8, u8)],
) -> (Problem, Vec<Vec<f64>>) {
    let eighths = |raw: &[i32]| raw.iter().map(|&k| f64::from(k) / 8.0).collect::<Vec<_>>();
    let (z_off, a_off, out_off) = (n_in, n_in + hidden, n_in + 2 * hidden);
    let total = out_off + n_out;
    let w = eighths(&w_raw[..hidden * n_in]);
    let v = eighths(&w_raw[6..6 + n_out * hidden]);
    let b = eighths(&b_raw[..hidden]);
    let c = eighths(&b_raw[3..3 + n_out]);

    let mut p = Problem::new(total, Sense::Minimize);
    for j in 0..n_in {
        p.set_bounds(j, -1.0, 1.0);
    }
    let (x_lo, x_hi) = (vec![-1.0; n_in], vec![1.0; n_in]);
    let (mut a_lo, mut a_hi) = (vec![0.0; hidden], vec![0.0; hidden]);
    let mut relu_rows = Vec::new();
    let zero_row = vec![0.0; total];
    for i in 0..hidden {
        let (lo, hi) = interval(&w[i * n_in..(i + 1) * n_in], b[i], &x_lo, &x_hi);
        let (zv, av) = (z_off + i, a_off + i);
        let mut row = vec![0.0; total];
        row[zv] = 1.0;
        for j in 0..n_in {
            row[j] = -w[i * n_in + j];
        }
        p.add_row(&row, Relation::Eq, b[i]);
        let (category, slope_raw) = neurons[i];
        match category % 3 {
            0 => {
                // Active (or split positive): a = z.
                let (l, u) = (lo.max(0.0), hi.max(0.0));
                p.set_bounds(zv, l, u);
                (a_lo[i], a_hi[i]) = (l, u);
                let mut eq = vec![0.0; total];
                eq[av] = 1.0;
                eq[zv] = -1.0;
                relu_rows.push((eq, Relation::Eq, 0.0));
                relu_rows.push((zero_row.clone(), Relation::Le, 0.0));
            }
            1 => {
                // Inactive (or split negative): a = 0.
                p.set_bounds(zv, lo.min(0.0), hi.min(0.0));
                relu_rows.push((zero_row.clone(), Relation::Le, 0.0));
                relu_rows.push((zero_row.clone(), Relation::Le, 0.0));
            }
            _ => {
                // Unstable: the two triangle facets over [lo, hi].
                p.set_bounds(zv, lo, hi);
                a_hi[i] = hi.max(0.0);
                let mut ge = vec![0.0; total];
                ge[av] = 1.0;
                ge[zv] = -1.0;
                relu_rows.push((ge, Relation::Ge, 0.0));
                let s = f64::from(slope_raw) / 4.0;
                let mut le = vec![0.0; total];
                le[av] = 1.0;
                le[zv] = -s;
                relu_rows.push((le, Relation::Le, -s * lo));
            }
        }
        p.set_bounds(av, a_lo[i], a_hi[i]);
    }
    for r in 0..n_out {
        let vrow = &v[r * hidden..(r + 1) * hidden];
        let (lo, hi) = interval(vrow, c[r], &a_lo, &a_hi);
        p.set_bounds(out_off + r, lo, hi);
        let mut row = vec![0.0; total];
        row[out_off + r] = 1.0;
        for i in 0..hidden {
            row[a_off + i] = -vrow[i];
        }
        p.add_row(&row, Relation::Eq, c[r]);
    }
    for (row, rel, rhs) in &relu_rows {
        p.add_row(row, *rel, *rhs);
    }

    let unit = |var: usize, coef: f64| {
        let mut obj = vec![0.0; total];
        obj[var] = coef;
        obj
    };
    let mut sweep: Vec<Vec<f64>> = (0..n_out).map(|r| unit(out_off + r, 1.0)).collect();
    for i in 0..hidden {
        sweep.push(unit(z_off + i, 1.0));
        sweep.push(unit(z_off + i, -1.0));
    }
    (p, sweep)
}

/// Solves `sweep` in order, each objective warm-started from the last
/// optimal basis (cold until one exists), as `LpVerifier` does.
fn solve_sweep(
    p: &mut Problem,
    sweep: &[Vec<f64>],
    cold: impl Fn(&Problem) -> Solution,
    warm_solve: impl Fn(&Problem, &WarmStart) -> Solution,
) -> Vec<Solution> {
    let mut warm: Option<WarmStart> = None;
    let mut out = Vec::new();
    for obj in sweep {
        p.set_objective(obj);
        let sol = match &warm {
            Some(w) => warm_solve(p, w),
            None => cold(p),
        };
        if sol.status == Status::Optimal && sol.warm.is_some() {
            warm = sol.warm.clone();
        }
        out.push(sol);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The two engines classify every problem identically, extract
    /// bit-identical optima, and the revised engine never pivots more.
    #[test]
    fn engines_agree_on_dyadic_lps(
        n in 2usize..=4,
        sense_raw in 0u8..=1,
        objective_raw in vec(-16i32..=16, 4),
        rows_raw in vec((vec(-16i32..=16, 4), 0u8..=2, -32i32..=32), 0..=4),
    ) {
        let p = build_lp(n, sense_raw, &objective_raw, &rows_raw);
        let dense = p.solve_dense().unwrap();
        let revised = p.solve().unwrap();
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == Status::Optimal {
            prop_assert_eq!(
                dense.objective.to_bits(),
                revised.objective.to_bits(),
                "objectives differ: dense {} vs revised {}",
                dense.objective,
                revised.objective
            );
            for (a, b) in dense.x.iter().zip(&revised.x) {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "vertices differ: dense {:?} vs revised {:?}", dense.x, revised.x);
            }
        }
        prop_assert!(
            revised.pivots <= dense.pivots,
            "revised spent {} pivots, dense {}",
            revised.pivots,
            dense.pivots
        );
    }

    /// Warm-started resolves agree the same way: snapshot an optimal basis
    /// with each engine, perturb a bound, and resolve warm.
    #[test]
    fn warm_engines_agree_after_bound_tightening(
        n in 2usize..=4,
        sense_raw in 0u8..=1,
        objective_raw in vec(-16i32..=16, 4),
        rows_raw in vec((vec(-16i32..=16, 4), 0u8..=2, -32i32..=32), 0..=4),
        tighten_var in 0usize..4,
        tighten_amt in 1i32..=8,
    ) {
        let mut p = build_lp(n, sense_raw, &objective_raw, &rows_raw);
        let dense0 = p.solve_dense().unwrap();
        let revised0 = p.solve().unwrap();
        prop_assert_eq!(dense0.status, revised0.status);
        let (Some(dw), Some(rw)) = (dense0.warm, revised0.warm) else {
            // No snapshot (non-optimal, or an artificial was left basic):
            // nothing to warm-start.
            return Ok(());
        };
        let j = tighten_var % n;
        let hi = 2.0 - f64::from(tighten_amt) / 4.0;
        p.set_bounds(j, -2.0, hi);
        let dense = p.solve_warm_dense(&dw).unwrap();
        let revised = p.solve_warm(&rw).unwrap();
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == Status::Optimal {
            prop_assert_eq!(
                dense.objective.to_bits(),
                revised.objective.to_bits(),
                "warm objectives differ: dense {} vs revised {}",
                dense.objective,
                revised.objective
            );
            for (a, b) in dense.x.iter().zip(&revised.x) {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "warm vertices differ: dense {:?} vs revised {:?}", dense.x, revised.x);
            }
        }
    }

}

/// Triangle-shaped LPs solved as warm-chained objective sweeps. Every
/// solve of every chain has the same status and warm/cold path on both
/// engines and a bit-identical optimum, and both engines walk the same
/// pivot path on all but a sliver of the solves.
///
/// The sliver is exact Dantzig ties: when two entering candidates have
/// reduced costs of exactly equal magnitude, the keep-first rule decides,
/// and the dense tableau's round-off can shave the earlier candidate's
/// magnitude (`0.6249999999999993` against an exact `0.625`), so the
/// engines enter different variables and reach the same optimum along
/// paths of different length. Over 5000 generated problems (27,582
/// solves) this happened on 19 solves, always with identical status and
/// optimum bits. The property therefore pins pivot counts in aggregate —
/// at most 1% of solves may differ — and everything else per solve.
#[test]
fn engines_agree_on_triangle_lp_sweeps() {
    let strategy = (
        1usize..=2,
        1usize..=3,
        1usize..=2,
        vec(-16i32..=16, 12),
        vec(-8i32..=8, 5),
        vec((0u8..=2, 1u8..=3), 3),
    );
    let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(1000));
    let (mut solves, mut diverged) = (0usize, 0usize);
    let outcome = runner.run(&strategy, |(n_in, hidden, n_out, w_raw, b_raw, neurons)| {
        let (mut p, sweep) = build_triangle_lp(n_in, hidden, n_out, &w_raw, &b_raw, &neurons);
        let revised = solve_sweep(
            &mut p,
            &sweep,
            |p| p.solve().unwrap(),
            |p, w| p.solve_warm(w).unwrap(),
        );
        let dense = solve_sweep(
            &mut p,
            &sweep,
            |p| p.solve_dense().unwrap(),
            |p, w| p.solve_warm_dense(w).unwrap(),
        );
        for (k, (r, d)) in revised.iter().zip(&dense).enumerate() {
            solves += 1;
            diverged += usize::from(r.pivots != d.pivots);
            prop_assert_eq!(r.status, d.status, "solve {}: status", k);
            prop_assert_eq!(r.warmed, d.warmed, "solve {}: warm path", k);
            if r.status == Status::Optimal {
                prop_assert_eq!(
                    r.objective.to_bits(),
                    d.objective.to_bits(),
                    "solve {}: objectives differ: revised {} vs dense {}",
                    k,
                    r.objective,
                    d.objective
                );
                for (a, b) in r.x.iter().zip(&d.x) {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "solve {}: vertices differ: revised {:?} vs dense {:?}",
                        k,
                        r.x,
                        d.x
                    );
                }
            }
        }
        Ok(())
    });
    if let Err(e) = outcome {
        panic!("{e}");
    }
    eprintln!("triangle sweeps: pivot counts differ on {diverged} of {solves} solves");
    assert!(solves > 4000, "only {solves} solves generated");
    assert!(
        diverged * 100 <= solves,
        "pivot counts differ on {diverged} of {solves} solves"
    );
}
