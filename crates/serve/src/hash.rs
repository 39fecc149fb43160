//! Stable content hashing for store keys.
//!
//! Store keys must be identical across machines, processes, and runs —
//! `std::hash` is none of those (SipHash is randomly keyed per process),
//! so this module pins FNV-1a/64 with explicit domain separation and
//! bit-exact float encoding. A key never encodes budgets or thread
//! counts: conclusive verdicts are mathematical facts about
//! (model, property, engine configuration) alone.

use abonn_nn::Network;
use abonn_vnnlib::{Property, Relation};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a/64 with length-prefixed writes, so concatenated
/// fields cannot alias (`"ab" + "c"` ≠ `"a" + "bc"`).
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a byte string, length-prefixed.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Hashes a UTF-8 string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Hashes a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Hashes a float bit-exactly (`-0.0` and `0.0` are distinct keys;
    /// callers never hash NaN — wire validation rejects it upstream).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The 64-bit digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a/64 of a byte string (length-prefixed, same as
/// [`StableHasher::write_bytes`]).
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Content hash of a model: FNV over its canonical JSON serialisation.
///
/// The network is serialised (not the client's raw bytes), so two
/// syntactically different JSON spellings of the same model share a
/// hash, and the hash covers exactly what the engine will execute.
///
/// # Panics
///
/// Never: network serialisation is infallible for validated networks.
#[must_use]
pub fn model_hash(net: &Network) -> u64 {
    let json = abonn_nn::io::to_json(net).expect("validated network serialises");
    hash_bytes(json.as_bytes())
}

/// Key of an ε-monotone robustness family: everything that identifies
/// the family *except* ε, which is the lattice coordinate.
#[must_use]
pub fn robustness_family_key(
    model_hash: u64,
    label: usize,
    adversarial: &[usize],
    center: &[f64],
    config: &str,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("abonn/family/robustness/v1");
    h.write_u64(model_hash);
    h.write_str(config);
    h.write_u64(label as u64);
    h.write_u64(adversarial.len() as u64);
    for &j in adversarial {
        h.write_u64(j as u64);
    }
    h.write_u64(center.len() as u64);
    for &c in center {
        h.write_f64(c);
    }
    h.finish()
}

/// Key of a robustness *cohort*: everything a family key covers except
/// the center (and, as always, ε). All families probing the same model
/// for the same label/adversarial set under one engine configuration
/// share a cohort, which is the index space for cross-center witness
/// reuse: a concrete counterexample falsifies *any* query in the cohort
/// whose clamped L∞ ball contains it, wherever that query is centered.
#[must_use]
pub fn robustness_cohort_key(
    model_hash: u64,
    label: usize,
    adversarial: &[usize],
    config: &str,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("abonn/cohort/robustness/v1");
    h.write_u64(model_hash);
    h.write_str(config);
    h.write_u64(label as u64);
    h.write_u64(adversarial.len() as u64);
    for &j in adversarial {
        h.write_u64(j as u64);
    }
    h.finish()
}

/// Key of an exact-match family: hashes the full property — box bounds
/// bit-exactly plus the violation structure — so only byte-equivalent
/// queries share it.
#[must_use]
pub fn exact_property_key(model_hash: u64, property: &Property, config: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("abonn/family/exact/v1");
    h.write_u64(model_hash);
    h.write_str(config);
    h.write_u64(property.num_inputs() as u64);
    for (&lo, &hi) in property.input_lo.iter().zip(&property.input_hi) {
        h.write_f64(lo);
        h.write_f64(hi);
    }
    h.write_u64(property.num_outputs as u64);
    h.write_u64(property.violation.len() as u64);
    for conj in &property.violation {
        h.write_u64(conj.len() as u64);
        for atom in conj {
            h.write_u64(match atom.rel {
                Relation::Le => 0,
                Relation::Ge => 1,
            });
            for term in [&atom.lhs, &atom.rhs] {
                h.write_u64(term.coeffs.len() as u64);
                for (&j, &c) in &term.coeffs {
                    h.write_u64(j as u64);
                    h.write_f64(c);
                }
                h.write_f64(term.constant);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_vnnlib::parse;

    #[test]
    fn length_prefixing_separates_fields() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn floats_hash_bit_exactly() {
        let mut a = StableHasher::new();
        a.write_f64(0.0);
        let mut b = StableHasher::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn family_keys_separate_every_component() {
        let base = robustness_family_key(1, 0, &[1, 2], &[0.5, 0.5], "cfg");
        assert_eq!(
            base,
            robustness_family_key(1, 0, &[1, 2], &[0.5, 0.5], "cfg")
        );
        assert_ne!(
            base,
            robustness_family_key(2, 0, &[1, 2], &[0.5, 0.5], "cfg")
        );
        assert_ne!(
            base,
            robustness_family_key(1, 1, &[1, 2], &[0.5, 0.5], "cfg")
        );
        assert_ne!(base, robustness_family_key(1, 0, &[2], &[0.5, 0.5], "cfg"));
        assert_ne!(
            base,
            robustness_family_key(1, 0, &[1, 2], &[0.5, 0.6], "cfg")
        );
        assert_ne!(
            base,
            robustness_family_key(1, 0, &[1, 2], &[0.5, 0.5], "cfg2")
        );
    }

    #[test]
    fn cohort_keys_ignore_the_center_only() {
        let base = robustness_cohort_key(1, 0, &[1, 2], "cfg");
        assert_eq!(base, robustness_cohort_key(1, 0, &[1, 2], "cfg"));
        // Two families at different centers share the cohort.
        assert_ne!(
            robustness_family_key(1, 0, &[1, 2], &[0.1, 0.9], "cfg"),
            robustness_family_key(1, 0, &[1, 2], &[0.5, 0.5], "cfg")
        );
        // ...but everything else still separates.
        assert_ne!(base, robustness_cohort_key(2, 0, &[1, 2], "cfg"));
        assert_ne!(base, robustness_cohort_key(1, 1, &[1, 2], "cfg"));
        assert_ne!(base, robustness_cohort_key(1, 0, &[2], "cfg"));
        assert_ne!(base, robustness_cohort_key(1, 0, &[1, 2], "cfg2"));
        // Cohort and family keys live in separate domains.
        assert_ne!(base, robustness_family_key(1, 0, &[1, 2], &[], "cfg"));
    }

    #[test]
    fn exact_keys_cover_box_and_violation() {
        let p = |text: &str| parse(text).unwrap();
        let a = p(
            "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(declare-const Y_1 Real)\n\
                   (assert (>= X_0 0.0))\n(assert (<= X_0 1.0))\n(assert (<= Y_0 Y_1))",
        );
        let b = p(
            "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(declare-const Y_1 Real)\n\
                   (assert (>= X_0 0.0))\n(assert (<= X_0 0.5))\n(assert (<= Y_0 Y_1))",
        );
        let c = p(
            "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(declare-const Y_1 Real)\n\
                   (assert (>= X_0 0.0))\n(assert (<= X_0 1.0))\n(assert (>= Y_0 Y_1))",
        );
        let k = |prop| exact_property_key(7, prop, "cfg");
        assert_ne!(k(&a), k(&b), "box must be keyed");
        assert_ne!(k(&a), k(&c), "violation must be keyed");
        assert_eq!(k(&a), k(&a));
    }
}
