#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::panic_in_result_fn
)]
//! The verification service: line-delimited JSON queries in, response
//! lines out, byte-identical across thread counts, batch sizes, and
//! machines.
//!
//! Queries are admitted in *waves* (see [`crate::scheduler`]): engine
//! misses within a wave run concurrently on the shared [`WorkerPool`],
//! while every observable effect — store counters, recency, inserts,
//! evictions, model-cache admissions — is applied sequentially in input
//! order, so the response stream is a pure function of the request
//! stream. Budgets are call-only (never wall-clock), which is what makes
//! that claim hold for verdicts too.

use crate::hash::{exact_property_key, robustness_cohort_key, robustness_family_key};
use crate::model_cache::{LoweredModel, ModelCache};
use crate::protocol::{error_line, float_array, num, obj, uint, ModelRef, VerifyRequest};
use crate::scheduler::{EngineJob, EngineOutcome};
use crate::store::{CachedVerdict, FamilyMeta, Hit, HitKind, ResultStore};
use abonn_check::{audit_certificate, replay_witness};
use abonn_core::{RobustnessProblem, Verdict, WorkerPool};
use abonn_vnnlib::Property;
use serde_json::Value;
use std::io::{self, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Engine configuration tag baked into every store key and snapshot
/// header: bump it whenever a change could alter verdicts, and old
/// entries stop matching (and old snapshots stop loading). An opaque
/// version string: the daemon runs `AbonnVerifier::default()`, ABONN over
/// adaptive DeepPoly, whatever the `planet` in the tag suggests.
pub const ENGINE_CONFIG: &str = "abonn/planet/v1";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads for intra-query parallelism (and the wave's
    /// inter-query fan-out — both levels share one pool).
    pub threads: usize,
    /// Maximum concurrently in-flight engine runs per wave.
    pub batch: usize,
    /// Hard admission-control cap on any query's call budget.
    pub max_calls: usize,
    /// Budget used when a query names none.
    pub default_calls: usize,
    /// Directory named models are resolved against.
    pub model_dir: Option<PathBuf>,
    /// How many lowered models to keep resident.
    pub model_cache_capacity: usize,
    /// Maximum result-store entries (`None` = unbounded); LRU families
    /// are evicted whole when exceeded.
    pub store_cap: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            batch: 1,
            max_calls: 10_000,
            default_calls: 2_000,
            model_dir: None,
            model_cache_capacity: 8,
            store_cap: None,
        }
    }
}

/// Rebuilds a robustness property's input box as the clamped L∞ ball of
/// radius `epsilon` around `center` (domain `[0, 1]`), keeping the
/// parsed violation region. This is the meaning of the wire `epsilon`
/// field: the property text supplies the output constraint shape, the
/// override supplies the region — which is what joins the query to an
/// ε-monotone store family.
#[must_use]
pub fn apply_epsilon_override(property: &Property, center: &[f64], epsilon: f64) -> Property {
    let mut adjusted = property.clone();
    adjusted.input_lo = center.iter().map(|&c| (c - epsilon).max(0.0)).collect();
    adjusted.input_hi = center.iter().map(|&c| (c + epsilon).min(1.0)).collect();
    adjusted
}

/// How the store key and region were derived for one query.
pub(crate) struct QueryPlan {
    /// Store family key.
    pub(crate) family: u64,
    /// Cross-center reuse cohort (ε-families only).
    pub(crate) cohort: Option<u64>,
    /// ε-coordinate inside the family (0 for exact-only families).
    pub(crate) epsilon: f64,
    /// Whether the family supports ε-monotone reuse.
    pub(crate) monotone: bool,
    /// The property actually verified (box possibly rebuilt).
    pub(crate) property: Property,
    /// The center the family is keyed by (ε-families only).
    pub(crate) center: Option<Vec<f64>>,
}

/// The verification service daemon.
pub struct Server {
    pub(crate) config: ServerConfig,
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) store: ResultStore,
    pub(crate) models: ModelCache,
    pub(crate) queries: usize,
    pub(crate) appver_calls_total: usize,
}

impl Server {
    /// Builds a server; spawns its worker pool up front.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        let pool = Arc::new(if config.threads <= 1 {
            WorkerPool::inline()
        } else {
            WorkerPool::new(config.threads)
        });
        let models = ModelCache::new(config.model_cache_capacity);
        let store = ResultStore::with_capacity(config.store_cap);
        Self {
            config,
            pool,
            store,
            models,
            queries: 0,
            appver_calls_total: 0,
        }
    }

    /// The result store (for snapshotting).
    #[must_use]
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Replaces the result store with one restored from a snapshot.
    /// Call before serving queries; loaded certificates carry their
    /// `needs_reaudit` flag and are re-audited before first reuse.
    pub fn load_store(&mut self, store: ResultStore) {
        self.store = store;
    }

    /// Handles one request line; `None` for blank lines.
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        self.handle_batch(&[line]).pop().flatten()
    }

    /// Runs the line protocol over a reader/writer pair until EOF.
    ///
    /// Up to `batch` lines already buffered on the reader are admitted as
    /// one wave — a *greedy fill* that never blocks waiting for a second
    /// line. The partition this produces depends on pipe/TCP buffering
    /// accidents, which is safe because responses are wave-partition
    /// invariant (see [`crate::scheduler`]).
    ///
    /// Lines that are not valid UTF-8 get a structured error response;
    /// output is flushed after every wave so pipes see responses
    /// promptly.
    ///
    /// # Errors
    ///
    /// Only I/O errors from the underlying streams.
    pub fn run<R: Read, W: Write>(
        &mut self,
        input: &mut BufReader<R>,
        output: &mut W,
    ) -> io::Result<()> {
        let limit = self.config.batch.max(1);
        while let Some(raw_lines) = read_wave(input, limit)? {
            let responses = self.respond_wave(&raw_lines);
            write_responses(output, &responses)?;
        }
        Ok(())
    }

    /// Like [`Server::run`], but over a shared server: the lock is held
    /// only while a wave is processed, never while blocked on input, so
    /// multiple connections make progress concurrently. Each client's
    /// response stream is still a pure function of the interleaved
    /// request order the daemon admits.
    ///
    /// # Errors
    ///
    /// I/O errors from the streams, or a poisoned lock (another
    /// connection's thread panicked mid-query).
    pub fn run_shared<R: Read, W: Write>(
        server: &std::sync::Mutex<Server>,
        input: &mut BufReader<R>,
        output: &mut W,
    ) -> io::Result<()> {
        let limit = {
            let guard = server
                .lock()
                .map_err(|_| io::Error::other("server lock poisoned"))?;
            guard.config.batch.max(1)
        };
        while let Some(raw_lines) = read_wave(input, limit)? {
            let responses = {
                let mut guard = server
                    .lock()
                    .map_err(|_| io::Error::other("server lock poisoned"))?;
                guard.respond_wave(&raw_lines)
            };
            write_responses(output, &responses)?;
        }
        Ok(())
    }

    /// Processes one wave of raw request lines into response lines,
    /// routing invalid UTF-8 to structured errors in stream order.
    fn respond_wave(&mut self, raw_lines: &[Vec<u8>]) -> Vec<String> {
        let mut decoded: Vec<&str> = Vec::new();
        let mut responses: Vec<String> = Vec::new();
        for raw in raw_lines {
            match std::str::from_utf8(raw) {
                Ok(line) => decoded.push(line),
                Err(_) => {
                    responses.extend(self.handle_batch(&decoded).into_iter().flatten());
                    decoded.clear();
                    responses.push(error_line(&Value::Null, "request line is not valid UTF-8"));
                }
            }
        }
        responses.extend(self.handle_batch(&decoded).into_iter().flatten());
        responses
    }

    /// Resolves the model and derives the store plan for one verify
    /// request. The model-cache admission here is the query's only
    /// plan-time side effect, and it happens in strict input order.
    pub(crate) fn plan_verify(
        &mut self,
        req: &VerifyRequest,
    ) -> Result<(Arc<LoweredModel>, QueryPlan), String> {
        let (model_hash, model) = self.resolve_model(&req.model)?;
        let property = abonn_vnnlib::parse_bytes(req.property.as_bytes())
            .map_err(|e| format!("invalid property: {e}"))?;
        let plan = self.plan_query(model_hash, &model, &property, req)?;
        Ok((model, plan))
    }

    /// Resolves a request's model to its JSON text, then to the cached
    /// lowering: a text a model-cache entry keeps is served without being
    /// parsed, any other is parsed and admitted (see
    /// [`crate::model_cache`]).
    fn resolve_model(&mut self, model: &ModelRef) -> Result<(u64, Arc<LoweredModel>), String> {
        let file;
        let text = match model {
            ModelRef::Inline(text) => text,
            ModelRef::Named(name) => {
                if name.contains('/') || name.contains('\\') || name.contains("..") {
                    return Err(format!("invalid model name '{name}'"));
                }
                let Some(dir) = self.config.model_dir.as_ref() else {
                    return Err(format!(
                        "unknown model '{name}': no model directory configured"
                    ));
                };
                file = std::fs::read_to_string(dir.join(name))
                    .map_err(|e| format!("unknown model '{name}': {e}"))?;
                &file
            }
        };
        if let Some(resolved) = self.models.resolve_text(text) {
            return Ok(resolved);
        }
        let network = abonn_nn::io::from_json(text).map_err(|e| match model {
            ModelRef::Inline(_) => format!("invalid model: {e}"),
            ModelRef::Named(name) => format!("unknown model '{name}': {e}"),
        })?;
        self.models
            .admit(network, text)
            .map_err(|e| format!("model does not lower: {e}"))
    }

    fn plan_query(
        &self,
        model_hash: u64,
        model: &LoweredModel,
        property: &Property,
        req: &VerifyRequest,
    ) -> Result<QueryPlan, String> {
        if property.num_inputs() != model.network.input_dim() {
            return Err(format!(
                "property declares {} inputs, model expects {}",
                property.num_inputs(),
                model.network.input_dim()
            ));
        }
        let Some(epsilon) = req.epsilon else {
            return Ok(QueryPlan {
                family: exact_property_key(model_hash, property, ENGINE_CONFIG),
                cohort: None,
                epsilon: 0.0,
                monotone: false,
                property: property.clone(),
                center: None,
            });
        };
        let Some((label, adversarial)) = property.as_robustness() else {
            return Err("epsilon override requires a classification-robustness property".into());
        };
        let center = match &req.center {
            Some(c) => {
                if c.len() != property.num_inputs() {
                    return Err(format!(
                        "center has {} coordinates, property declares {}",
                        c.len(),
                        property.num_inputs()
                    ));
                }
                c.clone()
            }
            None => property
                .input_lo
                .iter()
                .zip(&property.input_hi)
                .map(|(l, h)| 0.5 * (l + h))
                .collect(),
        };
        if let Some((i, c)) = center
            .iter()
            .enumerate()
            .find(|(_, c)| !(0.0..=1.0).contains(*c))
        {
            return Err(format!(
                "center coordinate {i} = {c} is outside the [0, 1] input domain"
            ));
        }
        let family = robustness_family_key(model_hash, label, &adversarial, &center, ENGINE_CONFIG);
        let cohort = robustness_cohort_key(model_hash, label, &adversarial, ENGINE_CONFIG);
        Ok(QueryPlan {
            family,
            cohort: Some(cohort),
            epsilon,
            monotone: true,
            property: apply_epsilon_override(property, &center, epsilon),
            center: Some(center),
        })
    }

    /// Lowers the verification problem for a fresh engine run.
    pub(crate) fn build_job(
        &self,
        model: &LoweredModel,
        plan: &QueryPlan,
        req: &VerifyRequest,
    ) -> Result<EngineJob, String> {
        let problem = RobustnessProblem::from_vnnlib_prelowered(
            &model.network,
            &model.canonical,
            &plan.property,
        )
        .map_err(|e| format!("unsupported property: {e}"))?;
        Ok(EngineJob {
            problem,
            requested: req.calls.unwrap_or(self.config.default_calls),
            audit: req.audit,
        })
    }

    /// Tries to answer from a store hit. `Err(())` means the evidence was
    /// not servable (failed replay or audit) and the query must run
    /// fresh.
    ///
    /// Certificates loaded from a snapshot (`needs_reaudit`) are audited
    /// here before their first reuse regardless of the query's audit
    /// flag, and the flag is cleared on success.
    pub(crate) fn serve_from_store(
        &mut self,
        req: &VerifyRequest,
        model: &LoweredModel,
        plan: &QueryPlan,
        hit: &Hit,
    ) -> Result<String, ()> {
        let entry = &hit.entry;
        let mut fields: Vec<(&str, Value)> = vec![
            ("id", req.id.clone()),
            ("status", Value::String("ok".into())),
        ];
        match &entry.verdict {
            CachedVerdict::Unsat { certificate } => {
                let audit_wanted = req.audit || entry.needs_reaudit;
                if audit_wanted {
                    // The certificate proves the property at its SOURCE
                    // radius; audit against that region, which covers the
                    // query's (ε′ ≤ ε ⇒ nested clamped balls). UNSAT hits
                    // always come from the query's own family.
                    let source_property = match (plan.monotone, &plan.center) {
                        (true, Some(center)) => {
                            apply_epsilon_override(&plan.property, center, entry.epsilon)
                        }
                        _ => plan.property.clone(),
                    };
                    let Ok(problem) = RobustnessProblem::from_vnnlib_prelowered(
                        &model.network,
                        &model.canonical,
                        &source_property,
                    ) else {
                        return Err(());
                    };
                    if audit_certificate(certificate, &problem).is_err() {
                        return Err(());
                    }
                    if entry.needs_reaudit {
                        self.store.mark_audited(hit.family, entry.epsilon);
                    }
                }
                fields.push(("verdict", Value::String("verified".into())));
                push_store_fields(&mut fields, hit.kind, entry.epsilon, plan.monotone);
                fields.push(("appver_calls", uint(0)));
                fields.push(("nodes_visited", uint(0)));
                if audit_wanted {
                    fields.push(("audit", Value::String("passed".into())));
                }
            }
            CachedVerdict::Sat { witness } => {
                // A cached witness is never trusted blindly: replay it
                // against the query's own region and violation. Cross-center
                // hits pass through the exact same check — containment put
                // the witness inside the query's ball, the replay proves it
                // violates the query's property.
                if replay_witness(&model.network, &plan.property, witness).is_err() {
                    return Err(());
                }
                fields.push(("verdict", Value::String("falsified".into())));
                fields.push(("witness", float_array(witness)));
                push_store_fields(&mut fields, hit.kind, entry.epsilon, plan.monotone);
                fields.push(("appver_calls", uint(0)));
                fields.push(("nodes_visited", uint(0)));
            }
        }
        Ok(render(&fields))
    }

    /// Applies a fresh engine outcome: counters, store insert, response.
    pub(crate) fn finish_fresh(
        &mut self,
        req: &VerifyRequest,
        plan: &QueryPlan,
        outcome: EngineOutcome,
    ) -> String {
        self.appver_calls_total += outcome.appver_calls;
        let meta = FamilyMeta {
            cohort: plan.cohort,
            center: plan.center.clone(),
        };
        let mut fields: Vec<(&str, Value)> = vec![
            ("id", req.id.clone()),
            ("status", Value::String("ok".into())),
        ];
        let mut audited = false;
        match &outcome.verdict {
            Verdict::Verified => {
                match &outcome.audit {
                    Some(Err(e)) => {
                        // A fresh certificate failing its own audit is an
                        // engine bug; surface it rather than caching it.
                        return error_line(&req.id, &format!("certificate failed audit: {e}"));
                    }
                    Some(Ok(())) => audited = true,
                    None => {}
                }
                // An engine reporting Verified without a certificate is
                // broken; answer this client with an error instead of
                // unwinding the daemon thread.
                let Some(cert) = outcome.certificate else {
                    return error_line(&req.id, "verified outcome carried no certificate");
                };
                self.store.insert(
                    plan.family,
                    plan.epsilon,
                    &meta,
                    CachedVerdict::Unsat { certificate: cert },
                );
                fields.push(("verdict", Value::String("verified".into())));
            }
            Verdict::Falsified(witness) => {
                self.store.insert(
                    plan.family,
                    plan.epsilon,
                    &meta,
                    CachedVerdict::Sat {
                        witness: witness.clone(),
                    },
                );
                fields.push(("verdict", Value::String("falsified".into())));
                fields.push(("witness", float_array(witness)));
            }
            Verdict::Timeout => {
                // Budget exhaustion is not a fact about the problem; it is
                // never cached.
                fields.push(("verdict", Value::String("timeout".into())));
            }
        }
        fields.push(("store", Value::String("miss".into())));
        fields.push(("appver_calls", uint(outcome.appver_calls)));
        fields.push(("nodes_visited", uint(outcome.nodes_visited)));
        fields.push(("budget_calls", uint(outcome.budget_calls)));
        fields.push(("clamped", Value::Bool(outcome.clamped)));
        if audited {
            fields.push(("audit", Value::String("passed".into())));
        }
        render(&fields)
    }

    pub(crate) fn stats_response(&self, id: &Value) -> String {
        let mut fields = vec![("id", id.clone()), ("status", Value::String("ok".into()))];
        fields.extend(self.stats_fields());
        render(&fields)
    }

    /// Counter snapshot as a standalone JSON value (the `--store-stats`
    /// artifact). Every field is a pure function of the input-order
    /// request stream — never of wave partitions or thread counts.
    #[must_use]
    pub fn stats_json(&self) -> Value {
        obj(self.stats_fields())
    }

    fn stats_fields(&self) -> Vec<(&'static str, Value)> {
        let sc = self.store.counters();
        let mc = self.models.counters();
        vec![
            ("queries", uint(self.queries)),
            ("appver_calls_total", uint(self.appver_calls_total)),
            (
                "store",
                obj(vec![
                    ("families", uint(self.store.num_families())),
                    ("entries", uint(self.store.num_entries())),
                    ("exact_hits", uint(sc.exact_hits)),
                    ("reuse_unsat", uint(sc.reuse_unsat)),
                    ("reuse_sat", uint(sc.reuse_sat)),
                    ("reuse_cross", uint(sc.reuse_cross)),
                    ("misses", uint(sc.misses)),
                    ("inserts", uint(sc.inserts)),
                    ("evicted_families", uint(sc.evicted_families)),
                    ("evicted_entries", uint(sc.evicted_entries)),
                    ("expunged", uint(sc.expunged)),
                ]),
            ),
            (
                "models",
                obj(vec![
                    ("cached", uint(self.models.len())),
                    ("hits", uint(mc.hits)),
                    ("misses", uint(mc.misses)),
                    ("evictions", uint(mc.evictions)),
                ]),
            ),
        ]
    }
}

/// Reads one wave of raw lines: the first blocks, further lines are
/// taken greedily — only while already buffered on the reader — up to
/// `limit`. Returns `None` at EOF.
fn read_wave<R: Read>(input: &mut BufReader<R>, limit: usize) -> io::Result<Option<Vec<Vec<u8>>>> {
    use io::BufRead as _;
    let mut raw_lines: Vec<Vec<u8>> = Vec::new();
    let mut buf = Vec::new();
    if input.read_until(b'\n', &mut buf)? == 0 {
        return Ok(None);
    }
    raw_lines.push(std::mem::take(&mut buf));
    while raw_lines.len() < limit && !input.buffer().is_empty() {
        if input.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        raw_lines.push(std::mem::take(&mut buf));
    }
    Ok(Some(raw_lines))
}

fn write_responses<W: Write>(output: &mut W, responses: &[String]) -> io::Result<()> {
    for response in responses {
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
    }
    output.flush()
}

fn push_store_fields(
    fields: &mut Vec<(&str, Value)>,
    kind: HitKind,
    source_eps: f64,
    monotone: bool,
) {
    fields.push(("store", Value::String(kind.as_str().into())));
    if monotone && kind != HitKind::Exact {
        fields.push(("source_eps", num(source_eps)));
    }
}

#[expect(
    clippy::expect_used,
    reason = "in-memory Value trees serialise infallibly: no I/O and no foreign Serialize impls"
)]
fn render(fields: &[(&str, Value)]) -> String {
    serde_json::to_string(&obj(fields.to_vec())).expect("value tree serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_nn::{Layer, Network, Shape};
    use abonn_tensor::Matrix;
    use abonn_vnnlib::write_robustness;

    fn demo_net() -> Network {
        // 2 → ReLU(4) → 3, small enough to verify in a handful of calls.
        Network::new(
            Shape::Flat(2),
            vec![
                Layer::dense(
                    Matrix::from_rows(&[&[1.0, 0.5], &[-0.5, 1.0], &[0.8, -1.0], &[-1.0, -0.3]]),
                    vec![0.1, -0.2, 0.0, 0.3],
                ),
                Layer::relu(),
                Layer::dense(
                    Matrix::from_rows(&[
                        &[1.0, 0.2, -0.3, 0.1],
                        &[-0.4, 1.1, 0.2, -0.2],
                        &[0.3, -0.5, 0.9, 0.4],
                    ]),
                    vec![0.05, 0.0, -0.05],
                ),
            ],
        )
        .unwrap()
    }

    fn verify_line(id: u64, model_json: &str, center: &[f64], eps: f64, label: usize) -> String {
        let prop = write_robustness(center, eps, label, 3);
        let center_txt = center
            .iter()
            .map(|c| format!("{c:?}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"id\":{id},\"cmd\":\"verify\",\"model\":{model_json},\
             \"property\":{},\"epsilon\":{eps:?},\"center\":[{center_txt}],\
             \"calls\":3000,\"audit\":true}}",
            serde_json::to_string(&prop).unwrap()
        )
    }

    #[test]
    fn session_hits_reuse_and_stays_deterministic() {
        let model_json = abonn_nn::io::to_json(&demo_net()).unwrap();
        let center = [0.6, 0.4];

        let mut transcripts = Vec::new();
        for threads in [1, 4] {
            let mut server = Server::new(ServerConfig {
                threads,
                ..ServerConfig::default()
            });
            let mut out = Vec::new();
            let lines = [
                verify_line(1, &model_json, &center, 0.02, 0),
                verify_line(2, &model_json, &center, 0.02, 0), // exact repeat
                verify_line(3, &model_json, &center, 0.01, 0), // dominated by #1
            ];
            for line in &lines {
                let resp = server.handle_line(line).unwrap();
                out.push(resp);
            }
            transcripts.push(out.join("\n"));
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "byte-identical across thread counts"
        );
        let t = &transcripts[0];
        assert!(t.contains("\"store\":\"miss\""));
        assert!(t.contains("\"store\":\"exact\""));
        assert!(t.contains("\"store\":\"reuse-unsat\""));
        // Hits cost zero engine calls.
        let hits: Vec<&str> = t
            .lines()
            .filter(|l| !l.contains("\"store\":\"miss\""))
            .collect();
        assert_eq!(hits.len(), 2);
        for hit in hits {
            assert!(hit.contains("\"appver_calls\":0"), "hit line: {hit}");
            assert!(hit.contains("\"audit\":\"passed\""), "hit line: {hit}");
        }
    }

    #[test]
    fn blank_lines_and_garbage_are_handled() {
        let mut server = Server::new(ServerConfig::default());
        assert!(server.handle_line("   ").is_none());
        let resp = server.handle_line("{broken").unwrap();
        assert!(resp.contains("\"status\":\"error\""));
        let resp = server
            .handle_line(r#"{"cmd":"verify","model":"nope.json","property":"(p)"}"#)
            .unwrap();
        assert!(resp.contains("unknown model"), "got: {resp}");
    }

    #[test]
    fn stats_reflect_the_session() {
        let model_json = abonn_nn::io::to_json(&demo_net()).unwrap();
        let mut server = Server::new(ServerConfig::default());
        let line = verify_line(1, &model_json, &[0.6, 0.4], 0.02, 0);
        server.handle_line(&line).unwrap();
        server.handle_line(&line).unwrap();
        let stats = server.handle_line(r#"{"id":9,"cmd":"stats"}"#).unwrap();
        assert!(stats.contains("\"queries\":2"), "got: {stats}");
        assert!(stats.contains("\"exact_hits\":1"), "got: {stats}");
        let artifact = serde_json::to_string(&server.stats_json()).unwrap();
        assert!(artifact.contains("\"inserts\":1"), "got: {artifact}");
    }

    #[test]
    fn cross_center_hit_is_served_and_replayed() {
        let model_json = abonn_nn::io::to_json(&demo_net()).unwrap();
        let mut server = Server::new(ServerConfig::default());
        // Find a falsifiable query: large radius around a center, label 2
        // (the demo net rarely argmaxes 2 near [0.6, 0.4]).
        let first = server
            .handle_line(&verify_line(1, &model_json, &[0.6, 0.4], 0.3, 2))
            .unwrap();
        assert!(
            first.contains("\"verdict\":\"falsified\""),
            "fixture must falsify, got: {first}"
        );
        // A different center whose ball safely contains the first one.
        let second = server
            .handle_line(&verify_line(2, &model_json, &[0.5, 0.5], 0.9, 2))
            .unwrap();
        assert!(
            second.contains("\"store\":\"reuse-cross\""),
            "got: {second}"
        );
        assert!(
            second.contains("\"verdict\":\"falsified\""),
            "got: {second}"
        );
        assert!(second.contains("\"appver_calls\":0"), "got: {second}");
        assert!(second.contains("\"source_eps\""), "got: {second}");
        let stats = server.handle_line(r#"{"id":9,"cmd":"stats"}"#).unwrap();
        assert!(stats.contains("\"reuse_cross\":1"), "got: {stats}");
    }

    #[test]
    fn run_greedily_fills_waves_and_matches_line_by_line() {
        let model_json = abonn_nn::io::to_json(&demo_net()).unwrap();
        let session: String = [
            verify_line(1, &model_json, &[0.6, 0.4], 0.02, 0),
            verify_line(2, &model_json, &[0.3, 0.7], 0.02, 0),
            verify_line(3, &model_json, &[0.6, 0.4], 0.01, 0),
            r#"{"id":4,"cmd":"stats"}"#.to_string(),
        ]
        .join("\n")
            + "\n";

        let mut reference = Server::new(ServerConfig::default());
        let mut ref_out = Vec::new();
        {
            let mut input = BufReader::new(session.as_bytes());
            reference.run(&mut input, &mut ref_out).unwrap();
        }

        let mut batched = Server::new(ServerConfig {
            threads: 2,
            batch: 8,
            ..ServerConfig::default()
        });
        let mut batch_out = Vec::new();
        {
            // The whole session is buffered up front, so the greedy fill
            // actually forms multi-query waves.
            let mut input = BufReader::new(session.as_bytes());
            batched.run(&mut input, &mut batch_out).unwrap();
        }
        assert_eq!(
            String::from_utf8(ref_out).unwrap(),
            String::from_utf8(batch_out).unwrap(),
            "greedy waves must not change a single byte"
        );
    }
}
