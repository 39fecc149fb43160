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
//! Model LRU: each network is validated and lowered to canonical form
//! once, then every query against the same content hash reuses the
//! lowered copy ("lowered once").
//!
//! A request names its model by JSON text: the inline object exactly as
//! the client sent it, or the named file's contents. Each entry keeps the
//! text that last resolved to it, and [`ModelCache::resolve_text`] answers
//! a byte-equal text from that entry without parsing, hashing or lowering
//! anything. That lookup is a hit in every observable way — the same
//! counters and recency as the hit [`ModelCache::admit`] would have
//! recorded after parsing the text — because equal bytes parse to the
//! same network. Any other text is parsed, hashed and admitted, so two
//! spellings of one model still meet at one content hash, and the entry
//! then keeps the newer spelling. A kept text leaves with its entry when
//! the entry is evicted, so `capacity` bounds the texts too.
//!
//! A text kept from an inline request model is also handed to the
//! request parser as known ([`ModelCache::inline_texts`]): the parser
//! accepted those bytes as a request's `model` member before, so it
//! steps over them in a later line instead of checking them again. A
//! named file's text is not handed over, because it was parsed as a
//! document of its own, one nesting level higher than a member.
//!
//! Recency is a deterministic logical tick (queries processed), not wall
//! time, so eviction order is identical on every machine. Ties (which
//! cannot happen — ticks are unique per touch) would break by key.

use crate::hash::model_hash;
use abonn_nn::{CanonicalNetwork, Network};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A network plus its cached canonical lowering.
#[derive(Debug)]
pub struct LoweredModel {
    /// The validated network.
    pub network: Network,
    /// Its canonical form, lowered once at admission.
    pub canonical: CanonicalNetwork,
}

/// Model cache counters, serialised into the stats artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCacheCounters {
    /// Queries that found their model already lowered.
    pub hits: usize,
    /// Queries that lowered a model.
    pub misses: usize,
    /// Models evicted to stay under capacity.
    pub evictions: usize,
}

/// One resident model.
#[derive(Debug)]
struct Entry {
    /// Logical tick of the last touch.
    last_used: u64,
    model: Arc<LoweredModel>,
    /// The JSON text that last resolved to this model.
    text: String,
    /// Whether `text` arrived as an inline request model.
    inline: bool,
}

/// Deterministic LRU of lowered models keyed by content hash.
#[derive(Debug)]
pub struct ModelCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<u64, Entry>,
    counters: ModelCacheCounters,
}

impl ModelCache {
    /// Cache holding at most `capacity` lowered models (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            entries: BTreeMap::new(),
            counters: ModelCacheCounters::default(),
        }
    }

    /// Fetches the lowered model for `hash`, if cached; refreshes its
    /// recency.
    pub fn get(&mut self, hash: u64) -> Option<Arc<LoweredModel>> {
        self.tick += 1;
        let entry = self.entries.get_mut(&hash)?;
        entry.last_used = self.tick;
        self.counters.hits += 1;
        Some(Arc::clone(&entry.model))
    }

    /// Fetches the model whose entry keeps a text byte-equal to `text`.
    /// This is the `get` that [`ModelCache::admit`] would make for the
    /// network parsed from `text`, with the same counter and recency
    /// effect. `None`, with no effect at all, when no entry keeps that
    /// text.
    pub fn resolve_text(&mut self, text: &str) -> Option<(u64, Arc<LoweredModel>)> {
        let hash = self
            .entries
            .iter()
            .find(|(_, entry)| entry.text == text)
            .map(|(&hash, _)| hash)?;
        self.get(hash).map(|model| (hash, model))
    }

    /// The kept texts that arrived as inline request models, in key
    /// order.
    #[must_use]
    pub fn inline_texts(&self) -> Vec<&str> {
        self.entries
            .values()
            .filter(|entry| entry.inline)
            .map(|entry| entry.text.as_str())
            .collect()
    }

    /// Lowers and admits a network parsed from `text`, evicting the
    /// least-recently-used model if over capacity; the model's entry
    /// keeps `text`, and `inline` says whether it arrived as an inline
    /// request model. Returns `(content_hash, lowered)`.
    ///
    /// # Errors
    ///
    /// The lowering error message when the network cannot be put in
    /// canonical form.
    pub fn admit(
        &mut self,
        network: Network,
        text: &str,
        inline: bool,
    ) -> Result<(u64, Arc<LoweredModel>), String> {
        let hash = model_hash(&network);
        if let Some(model) = self.get(hash) {
            if let Some(entry) = self.entries.get_mut(&hash) {
                text.clone_into(&mut entry.text);
                entry.inline = inline;
            }
            return Ok((hash, model));
        }
        self.counters.misses += 1;
        let canonical = CanonicalNetwork::from_network(&network).map_err(|e| e.to_string())?;
        let model = Arc::new(LoweredModel { network, canonical });
        self.tick += 1;
        let entry = Entry {
            last_used: self.tick,
            model: Arc::clone(&model),
            text: text.to_owned(),
            inline,
        };
        self.entries.insert(hash, entry);
        while self.entries.len() > self.capacity {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(key, entry)| (entry.last_used, **key))
                .map(|(key, _)| *key)
            else {
                break;
            };
            self.entries.remove(&victim);
            self.counters.evictions += 1;
        }
        Ok((hash, model))
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> ModelCacheCounters {
        self.counters
    }

    /// Number of currently cached models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_nn::{Layer, Shape};
    use abonn_tensor::Matrix;

    fn tiny_net(bias: f64) -> Network {
        Network::new(
            Shape::Flat(1),
            vec![Layer::dense(
                Matrix::from_rows(&[&[1.0], &[-1.0]]),
                vec![bias, 0.0],
            )],
        )
        .unwrap()
    }

    /// Parses and admits `text` as an inline model, as the server does
    /// when no entry keeps it.
    fn admit_text(cache: &mut ModelCache, text: &str) -> u64 {
        let net = abonn_nn::io::from_json(text).unwrap();
        cache.admit(net, text, true).unwrap().0
    }

    fn text(bias: f64) -> String {
        abonn_nn::io::to_json(&tiny_net(bias)).unwrap()
    }

    #[test]
    fn admission_is_content_addressed() {
        let mut cache = ModelCache::new(4);
        let h1 = admit_text(&mut cache, &text(0.0));
        let h2 = admit_text(&mut cache, &text(0.0));
        let h3 = admit_text(&mut cache, &text(1.0));
        assert_eq!(h1, h2, "identical content, identical hash");
        assert_ne!(h1, h3);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (1, 2, 0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ModelCache::new(2);
        let h0 = admit_text(&mut cache, &text(0.0));
        admit_text(&mut cache, &text(1.0));
        // Touch h0 so h1 becomes the victim.
        assert!(cache.get(h0).is_some());
        admit_text(&mut cache, &text(2.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(h0).is_some(), "recently used survives");
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn a_kept_text_resolves_like_the_hit_admit_records() {
        let (a, b) = (text(0.0), text(1.0));
        let mut by_text = ModelCache::new(2);
        let mut by_parse = ModelCache::new(2);
        for cache in [&mut by_text, &mut by_parse] {
            admit_text(cache, &a);
            admit_text(cache, &b);
        }
        // `a` again: a text hit on one side, parse-then-admit on the other.
        let (hash, _) = by_text.resolve_text(&a).unwrap();
        assert_eq!(hash, admit_text(&mut by_parse, &a));
        assert_eq!(by_text.counters(), by_parse.counters());
        // The same recency too: `b` is now the victim on both sides.
        let (c, d) = (text(2.0), text(3.0));
        admit_text(&mut by_text, &c);
        admit_text(&mut by_parse, &c);
        assert!(by_text.resolve_text(&b).is_none(), "evicted with its model");
        assert!(by_text.resolve_text(&a).is_some());
        assert!(by_parse.get(hash).is_some());
        assert_eq!(by_text.counters(), by_parse.counters());
        // An unknown text has no effect at all.
        let before = by_text.counters();
        assert!(by_text.resolve_text(&d).is_none());
        assert_eq!(by_text.counters(), before);
    }

    #[test]
    fn only_texts_that_arrived_inline_are_handed_to_the_parser() {
        let (a, b, c) = (text(0.0), text(1.0), text(2.0));
        let from_file = |cache: &mut ModelCache, text: &str| {
            let net = abonn_nn::io::from_json(text).unwrap();
            cache.admit(net, text, false).unwrap().0
        };
        let mut cache = ModelCache::new(2);
        admit_text(&mut cache, &a);
        from_file(&mut cache, &b);
        assert_eq!(cache.inline_texts(), vec![a.as_str()]);
        // The newer text decides: `a` arrives from a file, `b` inline.
        from_file(&mut cache, &a);
        assert!(cache.inline_texts().is_empty());
        admit_text(&mut cache, &b);
        assert_eq!(cache.inline_texts(), vec![b.as_str()]);
        // An evicted entry's text goes with it (`a` is the older entry).
        admit_text(&mut cache, &c);
        let mut kept = cache.inline_texts();
        kept.sort_unstable();
        let mut want = vec![b.as_str(), c.as_str()];
        want.sort_unstable();
        assert_eq!(kept, want);
    }

    #[test]
    fn an_entry_keeps_the_spelling_that_last_resolved_to_it() {
        let pretty = text(0.5);
        let compact = serde_json::to_string(&tiny_net(0.5)).unwrap();
        assert_ne!(pretty, compact);
        let mut cache = ModelCache::new(4);
        let h = admit_text(&mut cache, &pretty);
        assert!(cache.resolve_text(&compact).is_none());
        assert_eq!(admit_text(&mut cache, &compact), h, "one model, one hash");
        assert!(
            cache.resolve_text(&pretty).is_none(),
            "replaced by the newer text"
        );
        assert_eq!(cache.resolve_text(&compact).map(|(k, _)| k), Some(h));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, cache.len()), (2, 1, 1));
    }
}
