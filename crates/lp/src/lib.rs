#![forbid(unsafe_code)]
//! A bounded-variable, two-phase simplex LP solver.
//!
//! The ABONN paper's evaluation uses GUROBI as the underlying solver for
//! LP-relaxation-based bounding. This crate is the from-scratch substitute:
//! a primal simplex implementation that natively supports per-variable
//! bounds `l ≤ x ≤ u` (including infinite bounds), `≤` / `≥` / `=` rows,
//! and minimisation or maximisation objectives. Bland's rule is used as an
//! anti-cycling fallback, so the solver terminates on degenerate problems.
//!
//! [`Problem::solve`] and [`Problem::solve_warm`] run a revised simplex
//! over a product-form basis inverse. The dense tableau it replaced is
//! kept behind [`Problem::solve_dense`] and [`Problem::solve_warm_dense`]
//! as the reference for equivalence tests and benchmarks.
//!
//! # Examples
//!
//! ```
//! use abonn_lp::{Problem, Relation, Sense, Status};
//!
//! // maximise x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  0 <= x, y <= 10
//! let mut p = Problem::new(2, Sense::Maximize);
//! p.set_objective(&[1.0, 1.0]);
//! p.set_bounds(0, 0.0, 10.0);
//! p.set_bounds(1, 0.0, 10.0);
//! p.add_row(&[1.0, 2.0], Relation::Le, 4.0);
//! p.add_row(&[3.0, 1.0], Relation::Le, 6.0);
//! let sol = p.solve()?;
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - 2.8).abs() < 1e-7);
//! # Ok::<(), abonn_lp::SolveError>(())
//! ```

mod revised;
mod simplex;

pub use simplex::{Problem, Relation, Sense, Solution, SolveError, Status, WarmStart};
