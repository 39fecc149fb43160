//! ABONN — Adaptive BaB with Order for Neural Network verification.
//!
//! This crate implements the contribution of the DATE 2025 paper
//! *"Adaptive Branch-and-Bound Tree Exploration for Neural Network
//! Verification"* (Fukuda, Zhang, Zhang, Sui, Zhao), together with the two
//! baselines it is evaluated against:
//!
//! * [`AbonnVerifier`] — the paper's Algorithm 1: Monte-Carlo-tree-search
//!   style exploration of the BaB sub-problem tree, guided by
//!   *counterexample potentiality* (Definition 1, [`potentiality`]) and
//!   UCB1 selection;
//! * [`BabBaseline`] — classical breadth-first BaB;
//! * [`CrownStyle`] — an αβ-CROWN-style verifier: PGD pre-attack plus
//!   most-violated-first (best-first) BaB over α-optimised bounds.
//!
//! All three share the same substrates: approximated verifiers from
//! `abonn-bound`, branching heuristics ([`heuristics`]), the exact-LP leaf
//! fallback, and the [`RobustnessProblem`] specification encoding (built
//! directly or from a VNN-LIB property). Every run returns the branch tree
//! it built as a [`Certificate`] ([`RunResult::certificate`]): complete
//! when verified, partial on timeout. `abonn-check`'s `audit_certificate`
//! is its checker.
//!
//! # Examples
//!
//! ```
//! use abonn_core::{AbonnVerifier, Budget, RobustnessProblem, Verdict, Verifier};
//! use abonn_nn::{Layer, Network, Shape};
//! use abonn_tensor::Matrix;
//!
//! // A tiny network robust around (0.5, 0.5) with radius 0.05.
//! let net = Network::new(
//!     Shape::Flat(2),
//!     vec![
//!         Layer::dense(Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, -1.0]]), vec![0.0, 0.4]),
//!         Layer::relu(),
//!         Layer::dense(Matrix::identity(2), vec![0.0, 0.0]),
//!     ],
//! )?;
//! let problem = RobustnessProblem::new(&net, vec![0.5, 0.5], 0, 0.05)?;
//! let result = AbonnVerifier::default().verify(&problem, &Budget::with_appver_calls(100));
//! assert_eq!(result.verdict, Verdict::Verified);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bab;
mod certificate;
mod crown;
mod driver;
mod mcts;
mod portfolio;
mod spec;
mod tree;

pub mod heuristics;
pub mod pool;
pub mod potentiality;

pub use bab::BabBaseline;
pub use certificate::{Certificate, ProofNode};
pub use crown::CrownStyle;
pub use driver::{Budget, RunResult, RunStats, Verdict, Verifier};
pub use mcts::{AbonnConfig, AbonnVerifier};
pub use pool::WorkerPool;
pub use portfolio::{Portfolio, Stage};
pub use spec::{RobustnessProblem, SpecError};
pub use tree::{BabTree, NodeId, NodeState};
