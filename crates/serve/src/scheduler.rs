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
//! Deterministic multi-query wave scheduling.
//!
//! The daemon admits a *wave* of in-flight queries onto the shared
//! [`WorkerPool`] — engine runs execute concurrently — while the response
//! stream stays **byte-identical to a sequential daemon**, for any wave
//! partition of the input. The argument:
//!
//! 1. **Plan in input order.** Each line is parsed, its model resolved
//!    (the only model-cache mutation, so cache counters and LRU state see
//!    the exact sequential order), and its store key planned. The store
//!    is only *peeked* (no counters, no recency). The parse steps over
//!    inline model texts the cache keeps, which changes its speed and
//!    never its result (see [`crate::protocol`]).
//! 2. **Execute only pure work in parallel.** A query that peeks as a
//!    store miss becomes an `EngineJob`: a self-contained
//!    `(problem, budget)` pair. Its budget comes from
//!    [`Budget::admit_slices`], which clamps each request independently
//!    of its wave-mates — the *partition-invariance* the byte-identity
//!    claim rests on. Engine runs are pure functions of `(problem,
//!    budget)` (verdicts are thread-count-invariant by the engine's own
//!    determinism contract), so computing them early changes nothing.
//! 3. **Flush in input order.** Every store effect — the real `lookup`
//!    with counters and recency, replay/audit of served evidence,
//!    expunges, inserts, evictions — happens here, sequentially. A
//!    flushed query re-runs the sequential serving algorithm exactly; if
//!    its flush-time lookup misses and a precomputed engine outcome
//!    exists, that outcome is spliced in; if the lookup hits, the
//!    precomputed outcome is *discarded* (the sequential daemon would
//!    never have run the engine, so its calls are not counted either).
//!
//! Because flush is literally the sequential algorithm and precomputed
//! outcomes equal what it would compute in place, responses are invariant
//! under the wave partition — hence identical across `--batch` settings,
//! greedy wave fills, and TCP buffering accidents.
//!
//! Two *barriers* cut waves early. They are performance guards, not
//! correctness guards (correctness holds for any partition):
//!
//! * **Conflict barrier** — a query whose family or cohort matches a
//!   pending job would either recompute work the job is about to insert
//!   or miss a reuse opportunity; it waits for the flush.
//! * **Eviction barrier** — a peeked hit, with pending jobs whose inserts
//!   could push a bounded store over capacity, might lose its serving
//!   entry to eviction before flushing; it waits rather than risk an
//!   inline (non-parallel) engine run.
//!
//! A stats request is a full barrier: it flushes everything planned, then
//! renders alone, so its counters match the sequential daemon's at that
//! exact stream position.

use crate::model_cache::LoweredModel;
use crate::protocol::{self, error_line, Request, VerifyRequest};
use crate::server::{QueryPlan, Server};
use abonn_check::audit_certificate;
use abonn_core::{
    AbonnVerifier, Budget, Certificate, RobustnessProblem, Verdict, Verifier, WorkerPool,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A self-contained engine run: everything a worker needs, nothing the
/// worker could observe effects through.
pub(crate) struct EngineJob {
    /// The lowered verification problem.
    pub(crate) problem: RobustnessProblem,
    /// Requested call budget (pre-admission).
    pub(crate) requested: usize,
    /// Whether the query asked for a certificate audit.
    pub(crate) audit: bool,
}

/// What an engine run produced, carried back to the flush.
pub(crate) struct EngineOutcome {
    /// The engine's verdict.
    pub(crate) verdict: Verdict,
    /// `AppVer` calls actually spent.
    pub(crate) appver_calls: usize,
    /// Search-tree nodes visited.
    pub(crate) nodes_visited: usize,
    /// The proof, when the verdict is `Verified`.
    pub(crate) certificate: Option<Certificate>,
    /// Audit result, when one was requested and a certificate exists.
    pub(crate) audit: Option<Result<(), String>>,
    /// The admitted call budget.
    pub(crate) budget_calls: usize,
    /// Whether admission control clamped the request.
    pub(crate) clamped: bool,
}

/// A verify query planned but not yet flushed: its parse and model
/// resolution happened exactly once, in input order.
pub(crate) struct PlannedQuery {
    pub(crate) req: VerifyRequest,
    pub(crate) model: Arc<LoweredModel>,
    pub(crate) plan: QueryPlan,
    /// Present when the query peeked as a miss and the problem lowered.
    pub(crate) job: Option<EngineJob>,
    /// Filled by [`Server::execute_wave`].
    pub(crate) outcome: Option<EngineOutcome>,
}

/// One planned input line.
enum Planned {
    /// Blank line: no response.
    Blank,
    /// Response already final (parse or planning error).
    Ready(String),
    /// A verify query awaiting its flush.
    Query(Box<PlannedQuery>),
}

/// Runs one engine job. Pure: depends only on `(problem, budget)` plus
/// the engine's thread-invariant determinism.
pub(crate) fn run_engine(
    pool: &Arc<WorkerPool>,
    job: EngineJob,
    budget: Budget,
    clamped: bool,
) -> EngineOutcome {
    let verifier = AbonnVerifier::default().with_pool(Arc::clone(pool));
    let result = verifier.verify(&job.problem, &budget);
    let audit = match (&result.verdict, job.audit, &result.certificate) {
        (Verdict::Verified, true, Some(cert)) => Some(
            audit_certificate(cert, &job.problem)
                .map(|_| ())
                .map_err(|e| e.to_string()),
        ),
        _ => None,
    };
    EngineOutcome {
        verdict: result.verdict,
        appver_calls: result.stats.appver_calls,
        nodes_visited: result.stats.nodes_visited,
        certificate: result.certificate,
        audit,
        budget_calls: budget.max_appver_calls,
        clamped,
    }
}

impl Server {
    /// Handles a batch of request lines, returning one response slot per
    /// line (`None` for blank lines), byte-identical to feeding the lines
    /// through [`Server::handle_line`] one at a time.
    pub fn handle_batch(&mut self, lines: &[&str]) -> Vec<Option<String>> {
        let limit = self.config.batch.max(1);
        let mut responses = Vec::with_capacity(lines.len());
        let mut wave: Vec<Planned> = Vec::new();
        let mut in_flight = 0usize;
        let mut pending_families: BTreeSet<u64> = BTreeSet::new();
        let mut pending_cohorts: BTreeSet<u64> = BTreeSet::new();
        for raw in lines {
            let line = raw.trim();
            if line.is_empty() {
                wave.push(Planned::Blank);
                responses.push(None);
                continue;
            }
            let parsed = protocol::parse_request_knowing(line, &self.models.inline_texts());
            let planned = match parsed {
                Err(msg) => Planned::Ready(error_line(&protocol::best_effort_id(line), &msg)),
                Ok(Request::Stats { id }) => {
                    // Full barrier: stats must observe exactly the effects
                    // of everything before it and nothing after.
                    self.flush_wave(
                        &mut wave,
                        &mut in_flight,
                        &mut pending_families,
                        &mut pending_cohorts,
                        &mut responses,
                    );
                    responses.push(Some(self.stats_response(&id)));
                    continue;
                }
                Ok(Request::Verify(req)) => {
                    self.queries += 1;
                    match self.plan_verify(&req) {
                        Err(msg) => Planned::Ready(error_line(&req.id, &msg)),
                        Ok((model, plan)) => {
                            let conflict = pending_families.contains(&plan.family)
                                || plan.cohort.is_some_and(|c| pending_cohorts.contains(&c));
                            let evictable_hit = in_flight > 0
                                && self.store.may_evict(in_flight)
                                && self
                                    .store
                                    .peek(
                                        plan.family,
                                        plan.epsilon,
                                        plan.cohort,
                                        plan.center.as_deref(),
                                    )
                                    .is_some();
                            if conflict || evictable_hit {
                                // The barrier'd query keeps its resolved
                                // model — resolution already happened, in
                                // input order, exactly once.
                                self.flush_wave(
                                    &mut wave,
                                    &mut in_flight,
                                    &mut pending_families,
                                    &mut pending_cohorts,
                                    &mut responses,
                                );
                            }
                            let missed = self
                                .store
                                .peek(
                                    plan.family,
                                    plan.epsilon,
                                    plan.cohort,
                                    plan.center.as_deref(),
                                )
                                .is_none();
                            // A problem that fails to lower gets no job;
                            // the flush re-derives the error after the
                            // real store lookup, like the sequential path.
                            let job = if missed {
                                self.build_job(&model, &plan, &req).ok()
                            } else {
                                None
                            };
                            if job.is_some() {
                                in_flight += 1;
                                pending_families.insert(plan.family);
                                if let Some(c) = plan.cohort {
                                    pending_cohorts.insert(c);
                                }
                            }
                            Planned::Query(Box::new(PlannedQuery {
                                req: *req,
                                model,
                                plan,
                                job,
                                outcome: None,
                            }))
                        }
                    }
                }
            };
            wave.push(planned);
            responses.push(None); // placeholder; filled by the flush
            if in_flight >= limit {
                self.flush_wave(
                    &mut wave,
                    &mut in_flight,
                    &mut pending_families,
                    &mut pending_cohorts,
                    &mut responses,
                );
            }
        }
        self.flush_wave(
            &mut wave,
            &mut in_flight,
            &mut pending_families,
            &mut pending_cohorts,
            &mut responses,
        );
        responses
    }

    /// Executes the wave's jobs concurrently, then flushes every planned
    /// item sequentially in input order, filling the trailing `None`
    /// placeholders of `responses`.
    fn flush_wave(
        &mut self,
        wave: &mut Vec<Planned>,
        in_flight: &mut usize,
        pending_families: &mut BTreeSet<u64>,
        pending_cohorts: &mut BTreeSet<u64>,
        responses: &mut [Option<String>],
    ) {
        self.execute_wave(wave);
        let fill_from = responses.len() - wave.len();
        #[expect(
            clippy::indexing_slicing,
            reason = "fill_from is responses.len() minus wave.len() so fill_from + i stays in \
                      range for every drained i"
        )]
        for (i, item) in wave.drain(..).enumerate() {
            responses[fill_from + i] = match item {
                Planned::Blank => None,
                Planned::Ready(line) => Some(line),
                Planned::Query(q) => Some(self.flush_query(*q)),
            };
        }
        *in_flight = 0;
        pending_families.clear();
        pending_cohorts.clear();
    }

    /// Runs every pending job of the wave on the pool, in parallel,
    /// collecting outcomes back onto their queries.
    fn execute_wave(&mut self, wave: &mut [Planned]) {
        let mut slots: Vec<usize> = Vec::new();
        let mut jobs: Vec<EngineJob> = Vec::new();
        for (i, item) in wave.iter_mut().enumerate() {
            if let Planned::Query(q) = item {
                if let Some(job) = q.job.take() {
                    slots.push(i);
                    jobs.push(job);
                }
            }
        }
        if jobs.is_empty() {
            return;
        }
        let requested: Vec<usize> = jobs.iter().map(|j| j.requested).collect();
        let admitted = Budget::admit_slices(&requested, self.config.max_calls);
        let tasks: Vec<(EngineJob, Budget, bool)> = jobs
            .into_iter()
            .zip(admitted)
            .map(|(job, (budget, clamped))| (job, budget, clamped))
            .collect();
        let pool = Arc::clone(&self.pool);
        let outcomes = pool.map(tasks, |(job, budget, clamped)| {
            run_engine(&pool, job, budget, clamped)
        });
        #[expect(
            clippy::indexing_slicing,
            reason = "every slot came from enumerate over this same wave earlier in the call"
        )]
        for (slot, outcome) in slots.into_iter().zip(outcomes) {
            if let Planned::Query(q) = &mut wave[slot] {
                q.outcome = Some(outcome);
            }
        }
    }

    /// Flushes one query: the sequential serving algorithm, with the
    /// precomputed engine outcome spliced in where the sequential daemon
    /// would have called the engine.
    fn flush_query(&mut self, mut q: PlannedQuery) -> String {
        if let Some(hit) = self.store.lookup(
            q.plan.family,
            q.plan.epsilon,
            q.plan.cohort,
            q.plan.center.as_deref(),
        ) {
            // Pin the serving family so the evidence backing this
            // response cannot be evicted mid-replay/audit.
            self.store.pin(hit.family);
            let served = self.serve_from_store(&q.req, &q.model, &q.plan, &hit);
            self.store.unpin(hit.family);
            match served {
                Ok(response) => return response,
                // Evidence that failed replay/audit must not shadow the
                // sound entry the fresh run below will insert.
                Err(()) => self.store.expunge(hit.family, hit.entry.epsilon),
            }
        }
        let outcome = match q.outcome.take() {
            Some(outcome) => outcome,
            // Planned as a hit but the flush missed (evicted or expunged
            // by a wave-mate), or the serve above fell through: run
            // inline, exactly where the sequential daemon would.
            None => match self.build_job(&q.model, &q.plan, &q.req) {
                Ok(job) => {
                    // admit_slices returns one slice per input; an empty
                    // vector would be an admission bug, answered as an
                    // error rather than a daemon panic.
                    let admitted =
                        Budget::admit_slices(&[job.requested], self.config.max_calls).pop();
                    let Some((budget, clamped)) = admitted else {
                        return error_line(&q.req.id, "budget admission produced no slice");
                    };
                    let pool = Arc::clone(&self.pool);
                    run_engine(&pool, job, budget, clamped)
                }
                Err(msg) => return error_line(&q.req.id, &msg),
            },
        };
        self.finish_fresh(&q.req, &q.plan, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use abonn_nn::{Layer, Network, Shape};
    use abonn_tensor::Matrix;
    use abonn_vnnlib::write_robustness;

    fn demo_net() -> Network {
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

    fn verify_line(id: u64, model_json: &str, center: &[f64], eps: f64) -> String {
        let prop = write_robustness(center, eps, 0, 3);
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

    fn session_lines(model_json: &str) -> Vec<String> {
        vec![
            verify_line(1, model_json, &[0.6, 0.4], 0.02),
            verify_line(2, model_json, &[0.3, 0.7], 0.02),
            verify_line(3, model_json, &[0.6, 0.4], 0.02), // exact repeat of #1
            "".into(),
            verify_line(4, model_json, &[0.6, 0.4], 0.01), // dominated by #1
            r#"{"id":5,"cmd":"stats"}"#.into(),
            verify_line(6, model_json, &[0.45, 0.55], 0.02),
            verify_line(7, model_json, &[0.3, 0.7], 0.015), // dominated by #2
            r#"{"id":8,"cmd":"stats"}"#.into(),
        ]
    }

    fn transcript(threads: usize, batch: usize, partition: &[usize]) -> String {
        let model_json = abonn_nn::io::to_json(&demo_net()).unwrap();
        let lines = session_lines(&model_json);
        let mut server = Server::new(ServerConfig {
            threads,
            batch,
            ..ServerConfig::default()
        });
        let mut out: Vec<String> = Vec::new();
        let mut i = 0;
        for &chunk in partition {
            let end = (i + chunk).min(lines.len());
            let refs: Vec<&str> = lines[i..end].iter().map(String::as_str).collect();
            out.extend(server.handle_batch(&refs).into_iter().flatten());
            i = end;
        }
        let refs: Vec<&str> = lines[i..].iter().map(String::as_str).collect();
        out.extend(server.handle_batch(&refs).into_iter().flatten());
        out.join("\n")
    }

    #[test]
    fn waves_are_byte_identical_to_the_sequential_daemon() {
        // One line at a time, threads 1 = the sequential reference.
        let reference = transcript(1, 1, &[1, 1, 1, 1, 1, 1, 1, 1, 1]);
        for (threads, batch, partition) in [
            (1, 8, vec![9]),
            (4, 1, vec![9]),
            (4, 8, vec![9]),
            (4, 8, vec![2, 3, 4]),
            (4, 3, vec![5, 4]),
        ] {
            assert_eq!(
                reference,
                transcript(threads, batch, &partition),
                "threads={threads} batch={batch} partition={partition:?}"
            );
        }
        assert!(reference.contains("\"store\":\"exact\""));
        assert!(reference.contains("\"store\":\"reuse-unsat\""));
    }

    #[test]
    fn conflicting_wave_mates_do_not_recompute() {
        let model_json = abonn_nn::io::to_json(&demo_net()).unwrap();
        // Identical query three times in one batch: the conflict barrier
        // serialises them, so only the first runs the engine.
        let lines: Vec<String> = (1..=3)
            .map(|id| verify_line(id, &model_json, &[0.6, 0.4], 0.02))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut server = Server::new(ServerConfig {
            batch: 8,
            ..ServerConfig::default()
        });
        let out: Vec<String> = server.handle_batch(&refs).into_iter().flatten().collect();
        assert_eq!(out.len(), 3);
        assert!(out[0].contains("\"store\":\"miss\""));
        assert!(out[1].contains("\"store\":\"exact\""), "got: {}", out[1]);
        assert!(out[2].contains("\"store\":\"exact\""), "got: {}", out[2]);
        let stats = server.stats_json();
        let rendered = serde_json::to_string(&stats).unwrap();
        assert!(rendered.contains("\"inserts\":1"), "got: {rendered}");
    }

    #[test]
    fn mid_batch_stats_match_sequential_counters() {
        let model_json = abonn_nn::io::to_json(&demo_net()).unwrap();
        let lines = [
            verify_line(1, &model_json, &[0.6, 0.4], 0.02),
            r#"{"id":2,"cmd":"stats"}"#.to_string(),
            verify_line(3, &model_json, &[0.3, 0.7], 0.02),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut batched = Server::new(ServerConfig {
            batch: 8,
            ..ServerConfig::default()
        });
        let batched_out: Vec<String> = batched.handle_batch(&refs).into_iter().flatten().collect();
        let mut sequential = Server::new(ServerConfig::default());
        let sequential_out: Vec<String> = lines
            .iter()
            .filter_map(|l| sequential.handle_line(l))
            .collect();
        assert_eq!(batched_out, sequential_out);
        assert!(
            batched_out[1].contains("\"queries\":1"),
            "got: {}",
            batched_out[1]
        );
    }
}
