#![forbid(unsafe_code)]
//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§V).
//!
//! | Paper artefact | Binary | Library entry point |
//! |----------------|--------|---------------------|
//! | Table I (benchmark details)            | `table1`   | [`experiments::table1`] |
//! | Fig. 3 (BaB tree-size distribution)    | `fig3`     | [`experiments::fig3`] |
//! | Table II (RQ1 solved/time)             | `table2`   | [`experiments::table2`] |
//! | Fig. 4 (RQ1 per-instance speedups)     | `fig4`     | [`experiments::fig4`] |
//! | Fig. 5 (RQ2 hyperparameter heatmaps)   | `fig5`     | [`experiments::fig5`] |
//! | Fig. 6 (RQ3 violated/certified split)  | `fig6`     | [`experiments::fig6`] |
//! | Ablations (extensions)                 | `ablation` | [`experiments::ablation`] |
//!
//! Three audit binaries ride alongside the experiment runners: `fuzz`
//! (seeded differential fuzzing across all engines, JSON repros for
//! minimized failures), `check` (replay of every emitted certificate
//! through the independent checker in `abonn-check`), and `lint` (the
//! `abonn-lint` static determinism & soundness gate over the workspace
//! sources).
//!
//! Every binary accepts `--scale {smoke,default,full}`, `--seed N`,
//! `--out-dir PATH`, and `--fresh` (ignore cached run records). Results
//! are printed as text tables shaped like the paper's and persisted as
//! CSV/JSON under the output directory (default `target/experiments`).
//!
//! Run-time note: budgets are counted in `AppVer` calls (the
//! machine-independent cost unit, see `DESIGN.md` §2) with a wall-clock
//! cap per instance; relative comparisons between approaches are the
//! reproduction target, not absolute seconds.

pub mod cli;
pub mod experiments;
pub mod report;
pub mod scenario;

pub use cli::Args;
pub use scenario::{Approach, InstanceRecord, Scale};
