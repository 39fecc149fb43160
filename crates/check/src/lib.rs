#![forbid(unsafe_code)]
//! Soundness audit subsystem: an independent certificate checker and a
//! seeded differential fuzzing harness.
//!
//! The engines under test (`abonn-core`'s MCTS search, the BaB baseline,
//! and the CROWN-style baseline) all bound sub-problems with the
//! DeepPoly/α-CROWN back-substitution machinery in `abonn-bound`. A bug
//! there could make *every* engine wrong in the same way, so this crate
//! re-establishes `Verified` verdicts from first principles:
//!
//! * [`interval`] reimplements plain interval propagation from its
//!   definition — no code shared with `abonn-bound`'s analyzers.
//! * `linear` (crate-private, behind [`leaf`]) reimplements
//!   back-substituted linear bounds (DeepPoly's adaptive lower slope, the
//!   triangle's upper facet) the same way.
//! * [`leaf`] escalates each leaf obligation through four independent
//!   stages: intervals, linear bounds, a triangle-relaxation LP over the
//!   interval boxes, and a layerwise LP-refined variant whose bound
//!   provably dominates any back-substituted bound the engines could
//!   have used (see `DESIGN.md` §5d). Most leaves close before any LP.
//! * [`audit`] replays a [`Certificate`](abonn_core::Certificate)'s flat
//!   terminal collection, rejecting overlapping or non-covering split
//!   sets before any leaf is believed.
//! * [`fuzz`] generates seeded random verification instances, runs all
//!   three engines across cache and thread configurations, and
//!   cross-checks verdicts, witnesses, `RunStats` determinism, and
//!   certificates; failures are minimized into re-runnable JSON repros.
//! * [`replay`] re-establishes a SAT witness against a VNN-LIB property
//!   with one concrete forward pass — the check proof-reuse layers run
//!   before serving a cached counterexample to a dominating query.
//!
//! What this crate deliberately shares with the engines: the problem and
//! certificate *types* (`abonn-core`), the network representation
//! (`abonn-nn`), and the simplex solver (`abonn-lp`). What it deliberately
//! reimplements: every bound computation.

pub mod audit;
pub mod fuzz;
pub mod interval;
pub mod leaf;
mod linear;
pub mod replay;

pub use audit::{
    audit_certificate, audit_partial, audit_structure, AuditError, AuditReport, StructureReport,
};
pub use fuzz::{
    generate_case, minimize, run_campaign, run_case, CampaignOutcome, FuzzCase, FuzzFailure,
};
pub use interval::{propagate, IntervalBounds};
pub use leaf::{check_leaf, LeafError, LeafOutcome, LeafStage};
pub use replay::{replay_witness, ReplayError};
