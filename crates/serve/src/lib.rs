#![forbid(unsafe_code)]
//! Verification service daemon: a persistent process answering
//! line-delimited JSON verification queries with a content-addressed,
//! ε-monotonically reusable proof store.
//!
//! The paper's engine answers one query per process. Deployment looks
//! different: the same model is probed at many radii around many
//! centers, and most queries are dominated by one already answered. This
//! crate adds the serving layer:
//!
//! * [`protocol`] — strict wire parsing: every malformed input is a
//!   structured error line, never a panic and never a silent default.
//!   Each line is read once; an inline model arrives as its raw text.
//! * [`hash`] — FNV-1a content hashing for store keys: machine- and
//!   process-independent, bit-exact on floats.
//! * [`store`] — the result store. Queries differing only in ε share a
//!   *family*; within a family UNSAT verdicts dominate downward and SAT
//!   witnesses dominate upward (clamped L∞ balls nest), so a dominated
//!   query is answered with zero engine calls.
//! * [`model_cache`] — deterministic LRU of models lowered to canonical
//!   form once per content hash; a model text an entry already keeps is
//!   served without being parsed again.
//! * [`server`] — the daemon: wave-based query processing with
//!   intra-query parallelism via the engine's `WorkerPool`, call-only
//!   budgets with admission-control clamping, and responses whose bytes
//!   are identical across thread counts, batch sizes, and machines.
//! * [`scheduler`] — deterministic multi-query wave scheduling: engine
//!   misses run concurrently, every observable effect flushes in input
//!   order, so the response stream is wave-partition invariant.
//! * [`persist`] — canonical-JSON store snapshots with a versioned,
//!   checksummed header; a restarted daemon reloads its proofs and
//!   re-audits every loaded certificate before first reuse.
//! * [`fuzz`] — the served-vs-batch differential campaign: every served
//!   answer must match a fresh single-shot run, and every store-served
//!   UNSAT must survive an independent `audit_certificate`.
//!
//! Trust is never outsourced to the store: cached SAT witnesses are
//! replayed through the network against the query's own region before
//! being served, and cached certificates can be re-audited on every hit.

pub mod fuzz;
pub mod hash;
pub mod model_cache;
pub mod persist;
pub mod protocol;
#[cfg(test)]
mod request_oracle;
pub mod scheduler;
pub mod server;
pub mod store;

pub use fuzz::{run_served_campaign, ServedOutcome};
pub use hash::{
    exact_property_key, model_hash, robustness_cohort_key, robustness_family_key, StableHasher,
};
pub use model_cache::{LoweredModel, ModelCache, ModelCacheCounters};
pub use persist::{LoadReport, SnapshotError, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};
pub use protocol::{parse_request, ModelRef, Request, VerifyRequest};
pub use server::{apply_epsilon_override, Server, ServerConfig, ENGINE_CONFIG, MAX_LINE_BYTES};
pub use store::{
    ball_contains, CachedEntry, CachedVerdict, EpsLattice, FamilyMeta, Hit, HitKind, ResultStore,
    StoreCounters,
};
