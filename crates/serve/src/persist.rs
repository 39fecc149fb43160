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
//! Store persistence: canonical-JSON snapshots with a versioned header
//! and an FNV checksum, so a restarted daemon keeps its proofs.
//!
//! The snapshot is one canonical JSON document:
//!
//! ```json
//! {"format":"abonn-store-snapshot","version":1,
//!  "engine_config":"abonn/planet/v1","checksum":"<16 hex>",
//!  "payload":{...}}
//! ```
//!
//! The checksum is FNV-1a/64 over the canonical rendering of `payload`
//! — the same rendering the writer produced, re-derived from the parsed
//! value on load. Because every serialisation step here is a bijection
//! on canonical documents and FNV-1a's per-byte step is a bijection of
//! its state, any single corrupted byte that survives JSON parsing still
//! changes the digest; bytes that do not survive parsing are structured
//! parse errors. Loads therefore never panic: truncation, version
//! bumps, engine-config mismatches, and bit flips each map to a
//! [`SnapshotError`] variant.
//!
//! Trust is *not* restored with the bytes. Loaded certificates pass the
//! checker's structural audit ([`abonn_check::audit_structure`]) at load
//! time, and are flagged `needs_reaudit` so the server runs the full
//! [`abonn_check::audit_certificate`] before their first
//! reuse (the model and property needed for that audit only exist once
//! a matching query arrives — family keys are one-way hashes). Loaded
//! witnesses need no flag: witnesses are replayed on every serve.
//!
//! Writes are atomic: the document is written to a sibling tmp file,
//! synced, and renamed over the target, so a crash mid-write leaves the
//! previous snapshot intact. Each write gets its own tmp file (process id
//! plus a process-wide counter): every closing TCP connection saves a
//! snapshot, and concurrent closers sharing one tmp file would truncate
//! and rename each other's half-written bytes.

use crate::hash::hash_bytes;
use crate::server::ENGINE_CONFIG;
use crate::store::{
    CachedEntry, CachedVerdict, EpsLattice, FamilyMeta, FamilyState, ResultStore, WitnessRef,
};
use abonn_check::audit_structure;
use abonn_core::Certificate;
use serde::{Deserialize as _, Serialize as _};
use serde_json::{Number, Value};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot format marker.
pub const SNAPSHOT_FORMAT: &str = "abonn-store-snapshot";
/// Current snapshot schema version.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Why a snapshot was rejected. Every variant is a structured error —
/// loading never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Filesystem error reading or writing the snapshot.
    Io(String),
    /// The file is not valid UTF-8 JSON (truncation lands here too).
    Json(String),
    /// The document is JSON but not a store snapshot.
    Format(String),
    /// The snapshot was written by a different schema version.
    Version {
        /// Version found in the header.
        found: u64,
    },
    /// The snapshot was produced under a different engine configuration,
    /// so its verdicts cannot be trusted to match this binary.
    EngineConfig {
        /// Engine config tag found in the header.
        found: String,
    },
    /// The payload does not hash to the recorded checksum.
    Checksum,
    /// The payload parsed but decodes to an inconsistent store (bad
    /// field types, dangling witness refs, structurally invalid
    /// certificates, ...).
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Json(e) => write!(f, "snapshot is not valid JSON: {e}"),
            SnapshotError::Format(e) => write!(f, "not a store snapshot: {e}"),
            SnapshotError::Version { found } => write!(
                f,
                "snapshot version {found} unsupported (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapshotError::EngineConfig { found } => write!(
                f,
                "snapshot engine config '{found}' does not match '{ENGINE_CONFIG}'"
            ),
            SnapshotError::Checksum => write!(f, "snapshot checksum mismatch (corrupted file)"),
            SnapshotError::Invalid(e) => write!(f, "snapshot payload invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What a successful load restored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Families restored.
    pub families: usize,
    /// Entries restored (certificates flagged for re-audit).
    pub entries: usize,
    /// Witness index refs restored.
    pub witnesses: usize,
}

fn u64_value(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

fn float_value(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn floats_value(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| float_value(x)).collect())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn get_u64(v: &Value, key: &str) -> Result<u64, SnapshotError> {
    match v.get(key) {
        Some(Value::Number(n)) => n
            .as_u64()
            .ok_or_else(|| SnapshotError::Invalid(format!("field '{key}' is not a u64"))),
        Some(other) => Err(SnapshotError::Invalid(format!(
            "field '{key}' must be a number, got {}",
            other.type_name()
        ))),
        None => Err(SnapshotError::Invalid(format!("missing field '{key}'"))),
    }
}

fn get_finite_f64(v: &Value, key: &str) -> Result<f64, SnapshotError> {
    match v.get(key) {
        Some(Value::Number(n)) => {
            let f = n.as_f64();
            if f.is_finite() {
                Ok(f)
            } else {
                Err(SnapshotError::Invalid(format!(
                    "field '{key}' is not finite"
                )))
            }
        }
        _ => Err(SnapshotError::Invalid(format!(
            "missing or non-numeric field '{key}'"
        ))),
    }
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, SnapshotError> {
    match v.get(key) {
        Some(Value::String(s)) => Ok(s),
        _ => Err(SnapshotError::Invalid(format!(
            "missing or non-string field '{key}'"
        ))),
    }
}

fn get_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], SnapshotError> {
    match v.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(SnapshotError::Invalid(format!(
            "missing or non-array field '{key}'"
        ))),
    }
}

fn finite_floats(v: &Value, what: &str) -> Result<Vec<f64>, SnapshotError> {
    let Value::Array(items) = v else {
        return Err(SnapshotError::Invalid(format!("{what} must be an array")));
    };
    items
        .iter()
        .map(|item| match item {
            Value::Number(n) if n.as_f64().is_finite() => Ok(n.as_f64()),
            _ => Err(SnapshotError::Invalid(format!(
                "{what} holds a non-finite or non-numeric value"
            ))),
        })
        .collect()
}

impl ResultStore {
    /// The snapshot payload as a canonical JSON value.
    #[must_use]
    pub fn snapshot_payload(&self) -> Value {
        let families: Vec<Value> = self
            .families_iter()
            .map(|(key, state)| {
                let entries: Vec<Value> = state
                    .lattice
                    .entries()
                    .map(|entry| match &entry.verdict {
                        CachedVerdict::Unsat { certificate } => obj(vec![
                            ("epsilon", float_value(entry.epsilon)),
                            ("verdict", Value::String("unsat".into())),
                            ("certificate", certificate.to_value()),
                        ]),
                        CachedVerdict::Sat { witness } => obj(vec![
                            ("epsilon", float_value(entry.epsilon)),
                            ("verdict", Value::String("sat".into())),
                            ("witness", floats_value(witness)),
                        ]),
                    })
                    .collect();
                obj(vec![
                    ("key", u64_value(*key)),
                    ("cohort", state.meta.cohort.map_or(Value::Null, u64_value)),
                    (
                        "center",
                        state
                            .meta
                            .center
                            .as_deref()
                            .map_or(Value::Null, floats_value),
                    ),
                    ("last_used", u64_value(state.last_used)),
                    ("entries", Value::Array(entries)),
                ])
            })
            .collect();
        let witnesses: Vec<Value> = self
            .witness_refs_ordered()
            .into_iter()
            .map(|(cohort, r)| {
                obj(vec![
                    ("seq", u64_value(r.seq)),
                    ("cohort", u64_value(cohort)),
                    ("family", u64_value(r.family)),
                    ("epsilon", float_value(r.epsilon)),
                ])
            })
            .collect();
        obj(vec![
            ("clock", u64_value(self.clock())),
            ("next_seq", u64_value(self.next_seq())),
            ("families", Value::Array(families)),
            ("witnesses", Value::Array(witnesses)),
        ])
    }

    /// The complete snapshot document (header + checksum + payload) as a
    /// canonical JSON string.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the tail expect serialises the assembled document Value tree; same \
                  infallible-serialisation argument as the payload expect below"
    )]
    pub fn snapshot_string(&self) -> String {
        let payload = self.snapshot_payload();
        #[expect(
            clippy::expect_used,
            reason = "snapshot_string serialises an in-memory Value payload; serde_json::to_string \
                      over Value has no error path, so the expect is unreachable; rewriting \
                      snapshot rendering around an impossible error obscures the format code"
        )]
        let canonical = serde_json::to_string(&payload).expect("snapshot payload serialises");
        let checksum = format!("{:016x}", hash_bytes(canonical.as_bytes()));
        let doc = obj(vec![
            ("format", Value::String(SNAPSHOT_FORMAT.into())),
            ("version", u64_value(SNAPSHOT_VERSION)),
            ("engine_config", Value::String(ENGINE_CONFIG.into())),
            ("checksum", Value::String(checksum)),
            ("payload", payload),
        ]);
        serde_json::to_string(&doc).expect("snapshot document serialises")
    }

    /// Writes the snapshot atomically: a sibling `*.tmp` file is renamed
    /// over `path`, so readers (and crashes) only ever see a complete
    /// document.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn write_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        write_snapshot_text(&self.snapshot_string(), path)
    }

    /// Loads a snapshot file written by [`ResultStore::write_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; see the variants. Never panics on
    /// malformed input.
    pub fn load_snapshot(
        path: &Path,
        capacity: Option<usize>,
    ) -> Result<(Self, LoadReport), SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_snapshot_str(&text, capacity)
    }

    /// Parses and validates a snapshot document. Restored certificates
    /// are structurally audited and flagged `needs_reaudit`; counters
    /// start at zero (they describe a process, not the store).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; see the variants.
    pub fn from_snapshot_str(
        text: &str,
        capacity: Option<usize>,
    ) -> Result<(Self, LoadReport), SnapshotError> {
        let doc: Value =
            serde_json::from_str(text).map_err(|e| SnapshotError::Json(e.to_string()))?;
        let format = get_str(&doc, "format")
            .map_err(|_| SnapshotError::Format("missing 'format' marker".into()))?;
        if format != SNAPSHOT_FORMAT {
            return Err(SnapshotError::Format(format!("format is '{format}'")));
        }
        let version = get_u64(&doc, "version")
            .map_err(|_| SnapshotError::Format("missing 'version'".into()))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version { found: version });
        }
        let config = get_str(&doc, "engine_config")
            .map_err(|_| SnapshotError::Format("missing 'engine_config'".into()))?;
        if config != ENGINE_CONFIG {
            return Err(SnapshotError::EngineConfig {
                found: config.to_string(),
            });
        }
        let recorded = get_str(&doc, "checksum")
            .map_err(|_| SnapshotError::Format("missing 'checksum'".into()))?;
        let payload = doc
            .get("payload")
            .ok_or_else(|| SnapshotError::Format("missing 'payload'".into()))?;
        // Re-derive the canonical rendering of what was parsed; a single
        // corrupted payload byte that still parses yields a different
        // canonical string, hence a different digest.
        #[expect(
            clippy::expect_used,
            reason = "from_snapshot_str re-serialises a Value that serde_json itself just parsed; \
                      round-tripping a parsed Value cannot fail, the expect is unreachable"
        )]
        let canonical = serde_json::to_string(payload).expect("parsed value re-serialises");
        let computed = format!("{:016x}", hash_bytes(canonical.as_bytes()));
        if recorded != computed {
            return Err(SnapshotError::Checksum);
        }
        Self::decode_payload(payload, capacity)
    }

    fn decode_payload(
        payload: &Value,
        capacity: Option<usize>,
    ) -> Result<(Self, LoadReport), SnapshotError> {
        let mut store = ResultStore::with_capacity(capacity);
        let mut report = LoadReport::default();
        let clock = get_u64(payload, "clock")?;
        let next_seq = get_u64(payload, "next_seq")?;
        store.restore_clocks(clock, next_seq);
        for family in get_array(payload, "families")? {
            let key = get_u64(family, "key")?;
            let cohort =
                match family.get("cohort") {
                    Some(Value::Null) | None => None,
                    Some(Value::Number(n)) => Some(n.as_u64().ok_or_else(|| {
                        SnapshotError::Invalid("family cohort is not a u64".into())
                    })?),
                    Some(other) => {
                        return Err(SnapshotError::Invalid(format!(
                            "family cohort must be a number or null, got {}",
                            other.type_name()
                        )))
                    }
                };
            let center = match family.get("center") {
                Some(Value::Null) | None => None,
                Some(v) => Some(finite_floats(v, "family center")?),
            };
            let last_used = get_u64(family, "last_used")?;
            if last_used > clock {
                return Err(SnapshotError::Invalid(
                    "family recency is ahead of the clock".into(),
                ));
            }
            let mut lattice = EpsLattice::default();
            for entry in get_array(family, "entries")? {
                let epsilon = get_finite_f64(entry, "epsilon")?;
                let verdict = match get_str(entry, "verdict")? {
                    "unsat" => {
                        let cert_value = entry.get("certificate").ok_or_else(|| {
                            SnapshotError::Invalid("unsat entry lacks a certificate".into())
                        })?;
                        let certificate = Certificate::from_value(cert_value).map_err(|e| {
                            SnapshotError::Invalid(format!("certificate does not decode: {e}"))
                        })?;
                        audit_structure(&certificate).map_err(|e| {
                            SnapshotError::Invalid(format!(
                                "certificate fails structural audit: {e}"
                            ))
                        })?;
                        CachedVerdict::Unsat { certificate }
                    }
                    "sat" => {
                        let witness_value = entry.get("witness").ok_or_else(|| {
                            SnapshotError::Invalid("sat entry lacks a witness".into())
                        })?;
                        CachedVerdict::Sat {
                            witness: finite_floats(witness_value, "witness")?,
                        }
                    }
                    other => {
                        return Err(SnapshotError::Invalid(format!("unknown verdict '{other}'")))
                    }
                };
                let needs_reaudit = matches!(verdict, CachedVerdict::Unsat { .. });
                if !lattice.insert_entry(CachedEntry {
                    epsilon,
                    verdict,
                    needs_reaudit,
                }) {
                    return Err(SnapshotError::Invalid(format!(
                        "duplicate radius {epsilon} in family {key}"
                    )));
                }
                report.entries += 1;
            }
            if lattice.is_empty() {
                return Err(SnapshotError::Invalid(format!("family {key} is empty")));
            }
            store
                .restore_family(
                    key,
                    FamilyState {
                        lattice,
                        meta: FamilyMeta { cohort, center },
                        last_used,
                    },
                )
                .map_err(SnapshotError::Invalid)?;
            report.families += 1;
        }
        for witness in get_array(payload, "witnesses")? {
            let seq = get_u64(witness, "seq")?;
            if seq >= next_seq {
                return Err(SnapshotError::Invalid(
                    "witness seq is ahead of next_seq".into(),
                ));
            }
            let cohort = get_u64(witness, "cohort")?;
            store
                .restore_witness(
                    cohort,
                    WitnessRef {
                        seq,
                        family: get_u64(witness, "family")?,
                        epsilon: get_finite_f64(witness, "epsilon")?,
                    },
                )
                .map_err(SnapshotError::Invalid)?;
            report.witnesses += 1;
        }
        Ok((store, report))
    }
}

/// Writes an already-rendered snapshot document atomically: a sibling
/// tmp file of this call's own is synced and renamed over `path`, so
/// readers (and crashes) only ever see a complete document, even with
/// concurrent writers.
///
/// Split from [`ResultStore::write_snapshot`] so callers that share the
/// store behind a mutex can render under the lock and perform the file
/// I/O after dropping the guard.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failures.
pub fn write_snapshot_text(text: &str, path: &Path) -> Result<(), SnapshotError> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .ok_or_else(|| SnapshotError::Io(format!("{} has no file name", path.display())))?;
    // lint: allow(relaxed-atomics, the counter only has to hand out distinct values, which every atomic read-modify-write does; no other memory is published through it)
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(text.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_all()
    });
    let renamed = written.and_then(|()| std::fs::rename(&tmp, path));
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed.map_err(|e| SnapshotError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::HitKind;
    use abonn_core::ProofNode;

    fn seeded_store() -> ResultStore {
        let mut s = ResultStore::new();
        s.insert(
            7,
            0.25,
            &FamilyMeta {
                cohort: Some(40),
                center: Some(vec![0.5, 0.5]),
            },
            CachedVerdict::Unsat {
                certificate: Certificate::new(ProofNode::root_leaf()),
            },
        );
        s.insert(
            7,
            0.5,
            &FamilyMeta {
                cohort: Some(40),
                center: Some(vec![0.5, 0.5]),
            },
            CachedVerdict::Sat {
                witness: vec![0.9, 0.1],
            },
        );
        s.insert(
            11,
            0.0,
            &FamilyMeta::default(),
            CachedVerdict::Unsat {
                certificate: Certificate::new(ProofNode::root_leaf()),
            },
        );
        s
    }

    /// The deepest snapshot the daemon writes holds a certificate that
    /// branches on every ReLU of CIFAR-10_DEEP (736) along one path. It
    /// nests within the JSON parser's limit, as that limit's derivation
    /// counts, and parses on the 2 MiB stack of a TCP connection thread.
    #[test]
    fn deepest_snapshot_parses_on_a_connection_stack() {
        use abonn_bound::{NeuronId, SplitSign};
        const RELUS: usize = 736;
        let mut node = ProofNode::leaf(vec![(NeuronId::new(0, 0), SplitSign::Pos)]);
        for i in (0..RELUS).rev() {
            node = ProofNode::Branch {
                neuron: NeuronId::new(i / 256, i % 256),
                pos: Box::new(node),
                neg: Box::new(ProofNode::open(Vec::new())),
            };
        }
        let mut store = ResultStore::new();
        store.insert(
            1,
            0.1,
            &FamilyMeta::default(),
            CachedVerdict::Unsat {
                certificate: Certificate::new(node),
            },
        );
        let text = store.snapshot_string();
        let (mut depth, mut deepest) = (0usize, 0usize);
        for b in text.bytes() {
            match b {
                b'[' | b'{' => {
                    depth += 1;
                    deepest = deepest.max(depth);
                }
                b']' | b'}' => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(deepest, 7 + 2 * RELUS + 5);
        assert!(deepest <= serde_json::RECURSION_LIMIT);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || serde_json::from_str::<Value>(&text).is_ok())
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed);
    }

    #[test]
    fn snapshot_round_trips() {
        let store = seeded_store();
        let text = store.snapshot_string();
        let (loaded, report) = ResultStore::from_snapshot_str(&text, None).unwrap();
        assert_eq!(report.families, 2);
        assert_eq!(report.entries, 3);
        assert_eq!(report.witnesses, 1);
        assert_eq!(loaded.num_families(), 2);
        assert_eq!(loaded.num_entries(), 3);
        // The witness index survived: a containing cross-center query hits.
        let hit = loaded.peek(99, 0.5, Some(40), Some(&[0.85, 0.15])).unwrap();
        assert_eq!(hit.kind, HitKind::ReuseCross);
        // Loaded certificates carry the re-audit flag; witnesses do not.
        let unsat_hit = loaded.peek(7, 0.25, None, None).unwrap();
        assert!(unsat_hit.entry.needs_reaudit);
        let sat_hit = loaded.peek(7, 0.5, None, None).unwrap();
        assert!(!sat_hit.entry.needs_reaudit);
        // Re-snapshotting the loaded store is byte-identical.
        assert_eq!(loaded.snapshot_string(), text);
    }

    #[test]
    fn header_problems_are_structured() {
        let text = seeded_store().snapshot_string();
        assert!(matches!(
            ResultStore::from_snapshot_str("{not json", None),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            ResultStore::from_snapshot_str("{\"a\":1}", None),
            Err(SnapshotError::Format(_))
        ));
        let bumped = text.replace("\"version\":1", "\"version\":2");
        assert!(matches!(
            ResultStore::from_snapshot_str(&bumped, None),
            Err(SnapshotError::Version { found: 2 })
        ));
        let other_engine = text.replace(ENGINE_CONFIG, "abonn/other/v9");
        assert!(matches!(
            ResultStore::from_snapshot_str(&other_engine, None),
            Err(SnapshotError::EngineConfig { .. })
        ));
    }

    #[test]
    fn payload_tampering_fails_the_checksum() {
        let text = seeded_store().snapshot_string();
        let tampered = text.replace("\"witness\":[0.9,0.1]", "\"witness\":[0.9,0.2]");
        assert_ne!(tampered, text, "fixture must actually tamper");
        assert!(matches!(
            ResultStore::from_snapshot_str(&tampered, None),
            Err(SnapshotError::Checksum)
        ));
    }

    #[test]
    #[expect(
        clippy::string_slice,
        reason = "the seeded store renders to ASCII JSON (fixed keys and numbers), so every \
                  cut is a char boundary"
    )]
    fn truncation_is_a_structured_error() {
        let text = seeded_store().snapshot_string();
        for cut in [1, text.len() / 2, text.len() - 1] {
            assert!(
                ResultStore::from_snapshot_str(&text[..cut], None).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join("abonn-persist-test");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("store.json");
        let store = seeded_store();
        store.write_snapshot(&path).unwrap();
        // No stray temp file remains.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["store.json"]);
        let (loaded, _) = ResultStore::load_snapshot(&path, Some(16)).unwrap();
        assert_eq!(loaded.capacity(), Some(16));
        assert_eq!(loaded.num_entries(), store.num_entries());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Concurrent closers each save a snapshot to the same path: every
    /// write succeeds, and the file left behind is one whole rendering.
    #[test]
    fn concurrent_writers_each_leave_a_complete_snapshot() {
        let dir = std::env::temp_dir().join(format!("abonn-persist-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        // Four distinct ~200 KB renderings.
        let renderings: Vec<String> = (0..4u8)
            .map(|w| format!("{{\"writer\":{w},\"pad\":\"{}\"}}", "x".repeat(200_000)))
            .collect();
        let start = std::sync::Barrier::new(renderings.len());
        std::thread::scope(|scope| {
            for text in &renderings {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        write_snapshot_text(text, path).unwrap();
                    }
                });
            }
        });
        let left = std::fs::read_to_string(&path).unwrap();
        assert!(
            renderings.iter().any(|text| left == format!("{text}\n")),
            "the snapshot is not one complete rendering ({} bytes)",
            left.len()
        );
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "tmp files were left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
