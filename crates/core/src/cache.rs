//! A sharded, thread-safe cache of answered queries, keyed by canonical
//! query form and knowledge-base fingerprint.
//!
//! "Random Worlds and Maximum Entropy" (Grove–Halpern–Koller) shows that
//! many distinct surface queries collapse to the same canonical
//! subproblem, so a serving path that normalizes before solving gets
//! reuse far beyond exact string repeats. The key is built from
//! [`rw_logic::canon`]: the canonical form identifies a query up to
//! commutation/reassociation/duplication of `&`/`or`, double negation,
//! alpha-renaming and symbol-interning order — every rewrite preserving
//! the degree of belief — and the KB fingerprint pins the knowledge base
//! the answer was computed against.
//!
//! Storage is sharded ([`AnswerCache::with_shards`]): each shard is a
//! small `Mutex<HashSet>`, so concurrent batch workers contend on
//! (1/shards) of the map instead of one global lock, and hits produced
//! by one worker are immediately visible to the others. Each entry is
//! one heap record holding the key and the encoded answer, so a cached answer costs one allocation plus a 16-byte
//! table slot. Hit/miss counters are lock-free atomics.
//!
//! What is cached is the *semantic* answer — [`Belief`] plus
//! [`Provenance`] — never the per-query [`crate::Trace`] (a cache hit
//! gets a one-step `cache` trace instead, and sets
//! [`crate::Response::cached`]).

use crate::belief::{Belief, Provenance};
use rw_logic::canon::fnv1a;
use rw_worlds::ScaledCount;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A cached semantic answer: what a [`crate::Response`] carries minus the
/// per-run trace.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedAnswer {
    /// The degree of belief.
    pub belief: Belief,
    /// The method that originally produced it.
    pub provenance: Provenance,
}

impl CachedAnswer {
    /// The cacheable part of a [`crate::Response`].
    pub fn of(response: &crate::Response) -> CachedAnswer {
        CachedAnswer {
            belief: response.belief.clone(),
            provenance: response.provenance.clone(),
        }
    }
}

/// A sharded map from `(KB fingerprint, canonical query)` to answers,
/// safe to share across batch workers (and across whole batches: a warm
/// cache keeps its entries).
///
/// ```
/// use rw_core::cache::{AnswerCache, CachedAnswer};
/// use rw_core::{Belief, Provenance};
///
/// let cache = AnswerCache::new();
/// let key = AnswerCache::key(0xfeed, "P:Hep(c:Eric)");
/// assert!(cache.get(&key).is_none());
/// cache.insert(key.clone(), CachedAnswer {
///     belief: Belief::Point(0.8),
///     provenance: Provenance::DirectInference,
/// });
/// assert_eq!(cache.get(&key).unwrap().belief, Belief::Point(0.8));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<Mutex<HashSet<Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnswerCache {
    /// A cache with the default shard count (16: enough that a typical
    /// worker pool rarely collides on a shard lock).
    pub fn new() -> AnswerCache {
        AnswerCache::with_shards(16)
    }

    /// A cache with an explicit shard count (minimum 1).
    pub fn with_shards(n: usize) -> AnswerCache {
        let n = n.max(1);
        AnswerCache {
            shards: (0..n).map(|_| Mutex::new(HashSet::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Builds the cache key for a canonical query against a fingerprinted
    /// KB (see [`rw_logic::canon::canonical_formula`] and
    /// [`rw_logic::canon::kb_fingerprint`]).
    pub fn key(kb_fingerprint: u64, canonical_query: &str) -> String {
        format!("{kb_fingerprint:016x}|{canonical_query}")
    }

    fn shard(&self, key: &str) -> &Mutex<HashSet<Entry>> {
        let i = (fnv1a(key.as_bytes()) as usize) % self.shards.len();
        &self.shards[i]
    }

    /// Looks up a key, counting the outcome in [`Self::hits`] /
    /// [`Self::misses`].
    pub fn get(&self, key: &str) -> Option<CachedAnswer> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .map(Entry::answer);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores an answer, replacing any entry under the same key.
    /// Concurrent inserts of the same key are benign: both workers
    /// computed the same semantic answer.
    pub fn insert(&self, key: String, answer: CachedAnswer) {
        let entry = Entry::new(&key, &answer);
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .replace(entry);
    }

    /// Lookups that found an entry, since construction or [`Self::clear`].
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The number of shards the cache was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of cached answers across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cached entry, cloned out and sorted by key — the stable
    /// iteration order snapshot files are written in. Does not count as
    /// lookups.
    pub fn export(&self) -> Vec<(String, CachedAnswer)> {
        let mut out: Vec<(String, CachedAnswer)> = Vec::with_capacity(self.len());
        for s in &self.shards {
            let shard = s.lock().expect("cache shard poisoned");
            out.extend(shard.iter().map(|e| (e.key().to_string(), e.answer())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Bulk-inserts entries restored from a snapshot. Hit/miss counters
    /// are untouched: a reload is not a lookup, and the first real query
    /// against a restored entry must still count as a hit.
    pub fn restore(&self, entries: Vec<(String, CachedAnswer)>) {
        for (key, answer) in entries {
            self.insert(key, answer);
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl Default for AnswerCache {
    fn default() -> AnswerCache {
        AnswerCache::new()
    }
}

/// One [`AnswerCache`] entry in a single allocation:
/// `[key length: u32 LE][key bytes][encoded Belief][encoded Provenance]`.
///
/// Hashing and equality look at the key part only, and the entry borrows
/// as that key, so a shard's `HashSet<Entry>` is a map probed by `&str`.
/// Numbers are fixed-width little-endian (`f64`s as their bit patterns,
/// so a decoded answer is bit-identical to the inserted one).
struct Entry(Box<[u8]>);

const KEY_LEN_BYTES: usize = 4;

impl Entry {
    fn new(key: &str, answer: &CachedAnswer) -> Entry {
        let len = u32::try_from(key.len()).expect("cache key under 4 GiB");
        let mut buf = Vec::with_capacity(KEY_LEN_BYTES + key.len() + 16);
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(key.as_bytes());
        encode_belief(&answer.belief, &mut buf);
        encode_provenance(&answer.provenance, &mut buf);
        Entry(buf.into_boxed_slice())
    }

    fn key_len(&self) -> usize {
        let mut len = [0u8; KEY_LEN_BYTES];
        len.copy_from_slice(&self.0[..KEY_LEN_BYTES]);
        u32::from_le_bytes(len) as usize
    }

    fn key(&self) -> &str {
        let bytes = &self.0[KEY_LEN_BYTES..KEY_LEN_BYTES + self.key_len()];
        std::str::from_utf8(bytes).expect("entry keys are written from &str")
    }

    fn answer(&self) -> CachedAnswer {
        let mut r = Reader(&self.0[KEY_LEN_BYTES + self.key_len()..]);
        let belief = r.belief();
        let provenance = r.provenance();
        debug_assert!(r.0.is_empty(), "trailing bytes after a cached answer");
        CachedAnswer { belief, provenance }
    }
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Entry").field(&self.key()).finish()
    }
}

impl Hash for Entry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl Borrow<str> for Entry {
    fn borrow(&self) -> &str {
        self.key()
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn encode_belief(belief: &Belief, buf: &mut Vec<u8>) {
    match belief {
        Belief::Point(v) => {
            buf.push(0);
            put_f64(buf, *v);
        }
        Belief::Interval(lo, hi) => {
            buf.push(1);
            put_f64(buf, *lo);
            put_f64(buf, *hi);
        }
        Belief::NonRobust(vs) => {
            buf.push(2);
            put_u64(buf, vs.len() as u64);
            for v in vs {
                put_f64(buf, *v);
            }
        }
        Belief::Approximate {
            value,
            ci_half_width,
        } => {
            buf.push(3);
            put_f64(buf, *value);
            put_f64(buf, *ci_half_width);
        }
        Belief::Undefined => buf.push(4),
    }
}

fn encode_provenance(provenance: &Provenance, buf: &mut Vec<u8>) {
    match provenance {
        Provenance::DirectInference => buf.push(0),
        Provenance::MinimalReferenceClass => buf.push(1),
        Provenance::StrengthRule => buf.push(2),
        Provenance::Dempster => buf.push(3),
        Provenance::Independence(parts) => {
            buf.push(4);
            put_u64(buf, parts.len() as u64);
            for part in parts {
                encode_provenance(part, buf);
            }
        }
        Provenance::UniqueNames => buf.push(5),
        Provenance::NestedDefault => buf.push(6),
        Provenance::MaxEnt => buf.push(7),
        Provenance::UnaryExact { max_n } => {
            buf.push(8);
            put_u64(buf, *max_n as u64);
        }
        Provenance::Enumeration {
            max_n,
            visited,
            branched,
            orbits,
        } => {
            buf.push(9);
            for v in [*max_n as u64, *visited, *branched, *orbits] {
                put_u64(buf, v);
            }
        }
        Provenance::Entailed => buf.push(10),
        Provenance::MonteCarlo {
            drawn,
            accepted,
            n_points,
        } => {
            buf.push(11);
            for v in [*drawn, *accepted, *n_points as u64] {
                put_u64(buf, v);
            }
        }
    }
}

/// Decodes what [`encode_belief`] / [`encode_provenance`] wrote. Entries
/// are only ever built by [`Entry::new`], so malformed bytes are a bug.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        let (b, rest) = self.0.split_first().expect("truncated cache entry");
        self.0 = rest;
        *b
    }

    fn u64(&mut self) -> u64 {
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        u64::from_le_bytes(head.try_into().expect("8 bytes"))
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    fn belief(&mut self) -> Belief {
        match self.byte() {
            0 => Belief::Point(self.f64()),
            1 => Belief::Interval(self.f64(), self.f64()),
            2 => {
                let n = self.u64() as usize;
                Belief::NonRobust((0..n).map(|_| self.f64()).collect())
            }
            3 => Belief::Approximate {
                value: self.f64(),
                ci_half_width: self.f64(),
            },
            4 => Belief::Undefined,
            tag => unreachable!("belief tag {tag}"),
        }
    }

    fn provenance(&mut self) -> Provenance {
        match self.byte() {
            0 => Provenance::DirectInference,
            1 => Provenance::MinimalReferenceClass,
            2 => Provenance::StrengthRule,
            3 => Provenance::Dempster,
            4 => {
                let n = self.u64() as usize;
                Provenance::Independence((0..n).map(|_| Box::new(self.provenance())).collect())
            }
            5 => Provenance::UniqueNames,
            6 => Provenance::NestedDefault,
            7 => Provenance::MaxEnt,
            8 => Provenance::UnaryExact {
                max_n: self.u64() as usize,
            },
            9 => Provenance::Enumeration {
                max_n: self.u64() as usize,
                visited: self.u64(),
                branched: self.u64(),
                orbits: self.u64(),
            },
            10 => Provenance::Entailed,
            11 => Provenance::MonteCarlo {
                drawn: self.u64(),
                accepted: self.u64(),
                n_points: self.u64() as usize,
            },
            tag => unreachable!("provenance tag {tag}"),
        }
    }
}

/// The key of one denominator entry: which world count it is.
///
/// `#worlds_N^τ(KB)` is a pure function of the knowledge base *content*
/// (its canonical fingerprint), the **vocabulary shape** (each interned
/// symbol contributes slots whether or not the KB mentions it — queries
/// interning fresh constants grow the space by a factor of `N` each),
/// the domain size and the tolerance. Engine configuration is
/// deliberately absent: budgets decide whether a count *finishes*, never
/// what it equals, so every engine sharing a cache agrees on the value.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct DenomKey {
    /// [`rw_logic::canon::kb_fingerprint`] of the knowledge base.
    pub kb_fingerprint: u64,
    /// A fingerprint of the vocabulary shape (predicate/function arities
    /// in interning order plus the constant count).
    pub vocab_fingerprint: u64,
    /// The domain size `N`.
    pub n: usize,
    /// The uniform tolerance `τ` as `(numerator, denominator)`.
    pub tau: (i128, i128),
    /// The visited-node budget the count ran under. The *value* of a
    /// count is budget-independent, but whether it **finishes** is not —
    /// and the counting stage's domain-size scan reacts to failures. A
    /// budget-free key would let an entry computed under a large budget
    /// rescue a smaller-budget engine's scan past where a cold run
    /// stops, making answers depend on cache warmth. Keyed by budget, a
    /// hit only ever replaces a count that would have succeeded anyway.
    pub budget: u64,
    /// Whether the count came from the symmetry-reduced orbit counter.
    /// Both modes compute the same exact number when both finish, but
    /// their budget units differ (visited search nodes vs orbit
    /// representatives), so the same budget value means different
    /// reachability — keeping the modes keyed apart preserves the
    /// warmth-independence argument above.
    pub symmetry: bool,
}

/// A small shared cache of `#worlds_N^τ(KB)` denominator counts.
///
/// Definition 4.2 divides every query's numerator by the *same*
/// denominator; a τ-diagonal sweep answering many queries against one KB
/// recomputes it per query unless cached. Only **successful** counts are
/// stored (a count that fit one budget is valid under every budget), so
/// a hit can change how fast an answer arrives but never what it is.
/// Values are [`ScaledCount`]s because symmetry-reduced counts routinely
/// exceed `u128`; plain branch-and-count entries store their `u128`
/// exactly. Hit/miss counters are lock-free atomics, surfaced by the
/// server's `stats` op alongside the [`AnswerCache`]'s.
///
/// ```
/// use rw_core::cache::{DenomCache, DenomKey};
/// use rw_worlds::ScaledCount;
///
/// let cache = DenomCache::new();
/// let key = DenomKey {
///     kb_fingerprint: 0xfeed,
///     vocab_fingerprint: 0xbee,
///     n: 4,
///     tau: (1, 4),
///     budget: 1 << 24,
///     symmetry: false,
/// };
/// assert_eq!(cache.get(&key), None);
/// cache.insert(key.clone(), ScaledCount::from_u128(196_608));
/// assert_eq!(cache.get(&key).unwrap().exact(), Some(196_608));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct DenomCache {
    entries: Mutex<HashMap<DenomKey, ScaledCount>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DenomCache {
    /// An empty denominator cache.
    pub fn new() -> DenomCache {
        DenomCache::default()
    }

    /// Looks up a cached world count, counting the outcome in
    /// [`Self::hits`] / [`Self::misses`] (mirrored into the global
    /// metrics registry as `cache.denom.hits` / `cache.denom.misses`,
    /// with probe latency under `cache.denom.lookup_us`).
    pub fn get(&self, key: &DenomKey) -> Option<ScaledCount> {
        let start = std::time::Instant::now();
        let found = self
            .entries
            .lock()
            .expect("denominator cache poisoned")
            .get(key)
            .copied();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        if rw_obs::enabled() {
            let reg = rw_obs::registry();
            reg.histogram("cache.denom.lookup_us")
                .record_us(start.elapsed().as_micros() as u64);
            reg.counter(if found.is_some() {
                "cache.denom.hits"
            } else {
                "cache.denom.misses"
            })
            .inc();
        }
        found
    }

    /// Stores a successfully computed world count. Concurrent inserts of
    /// one key are benign: exact counting is deterministic.
    pub fn insert(&self, key: DenomKey, count: ScaledCount) {
        self.entries
            .lock()
            .expect("denominator cache poisoned")
            .insert(key, count);
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Every cached count, cloned out in a stable key order (snapshot
    /// files are diffable across saves). Does not count as lookups.
    pub fn export(&self) -> Vec<(DenomKey, ScaledCount)> {
        let entries = self.entries.lock().expect("denominator cache poisoned");
        let mut out: Vec<(DenomKey, ScaledCount)> =
            entries.iter().map(|(k, v)| (k.clone(), *v)).collect();
        drop(entries);
        out.sort_by_key(|(k, _)| {
            (
                k.kb_fingerprint,
                k.vocab_fingerprint,
                k.n,
                k.tau,
                k.budget,
                k.symmetry,
            )
        });
        out
    }

    /// Bulk-inserts counts restored from a snapshot, without touching
    /// the hit/miss counters.
    pub fn restore(&self, entries: Vec<(DenomKey, ScaledCount)>) {
        for (key, count) in entries {
            self.insert(key, count);
        }
    }

    /// Number of cached denominators.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("denominator cache poisoned")
            .len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(v: f64) -> CachedAnswer {
        CachedAnswer {
            belief: Belief::Point(v),
            provenance: Provenance::DirectInference,
        }
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let cache = AnswerCache::new();
        let k = AnswerCache::key(1, "q");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), answer(0.5));
        assert_eq!(cache.get(&k), Some(answer(0.5)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_kb_fingerprints_do_not_collide() {
        let cache = AnswerCache::new();
        cache.insert(AnswerCache::key(1, "q"), answer(0.25));
        cache.insert(AnswerCache::key(2, "q"), answer(0.75));
        assert_eq!(
            cache.get(&AnswerCache::key(1, "q")).unwrap().belief,
            Belief::Point(0.25)
        );
        assert_eq!(
            cache.get(&AnswerCache::key(2, "q")).unwrap().belief,
            Belief::Point(0.75)
        );
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = AnswerCache::with_shards(4);
        let k = AnswerCache::key(9, "x");
        cache.insert(k.clone(), answer(1.0));
        let _ = cache.get(&k);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn shard_floor_is_one() {
        let cache = AnswerCache::with_shards(0);
        cache.insert(AnswerCache::key(0, "q"), answer(0.0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn denom_cache_counts_lookups_and_keys_modes_apart() {
        let cache = DenomCache::new();
        let key = DenomKey {
            kb_fingerprint: 1,
            vocab_fingerprint: 2,
            n: 4,
            tau: (1, 16),
            budget: 1 << 24,
            symmetry: false,
        };
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), ScaledCount::from_u128(42));
        assert_eq!(cache.get(&key).unwrap().exact(), Some(42));
        // The symmetry-mode twin of the same point is a distinct entry.
        let sym_key = DenomKey {
            symmetry: true,
            ..key.clone()
        };
        assert_eq!(cache.get(&sym_key), None);
        cache.insert(sym_key.clone(), ScaledCount::new(3, 200));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&sym_key), Some(ScaledCount::new(3, 200)));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn export_is_sorted_and_restore_rebuilds_without_counting() {
        let cache = AnswerCache::with_shards(4);
        cache.insert(AnswerCache::key(2, "zz"), answer(0.2));
        cache.insert(AnswerCache::key(1, "aa"), answer(0.1));
        let exported = cache.export();
        let keys: Vec<&str> = exported.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let fresh = AnswerCache::new();
        fresh.restore(exported.clone());
        assert_eq!(fresh.export(), exported);
        // Restoring is not a lookup: counters start cold.
        assert_eq!((fresh.hits(), fresh.misses()), (0, 0));

        let denoms = DenomCache::new();
        let key = DenomKey {
            kb_fingerprint: 7,
            vocab_fingerprint: 8,
            n: 3,
            tau: (1, 8),
            budget: 1 << 20,
            symmetry: true,
        };
        denoms.insert(key.clone(), ScaledCount::new(5, 100));
        let fresh = DenomCache::new();
        fresh.restore(denoms.export());
        assert_eq!(fresh.get(&key), Some(ScaledCount::new(5, 100)));
    }

    #[test]
    fn every_answer_shape_roundtrips_bit_exactly() {
        let beliefs = [
            Belief::Point(0.8),
            Belief::Point(-0.0),
            Belief::Interval(0.25, 0.75),
            Belief::NonRobust(vec![]),
            Belief::NonRobust(vec![0.600027, 1.0 - 1e-12, 1e-300]),
            Belief::Approximate {
                value: 0.65,
                ci_half_width: 0.0565,
            },
            Belief::Undefined,
        ];
        let provenances = [
            Provenance::DirectInference,
            Provenance::MinimalReferenceClass,
            Provenance::StrengthRule,
            Provenance::Dempster,
            Provenance::Independence(vec![]),
            Provenance::Independence(vec![
                Box::new(Provenance::DirectInference),
                Box::new(Provenance::Independence(vec![
                    Box::new(Provenance::MaxEnt),
                    Box::new(Provenance::UnaryExact { max_n: 40 }),
                ])),
                Box::new(Provenance::Dempster),
            ]),
            Provenance::UniqueNames,
            Provenance::NestedDefault,
            Provenance::MaxEnt,
            Provenance::UnaryExact { max_n: usize::MAX },
            Provenance::Enumeration {
                max_n: 8,
                visited: u64::MAX,
                branched: 12_345,
                orbits: 0,
            },
            Provenance::Entailed,
            Provenance::MonteCarlo {
                drawn: 1 << 40,
                accepted: 7,
                n_points: 3,
            },
        ];
        let cache = AnswerCache::with_shards(3);
        let mut inserted = Vec::new();
        for (i, belief) in beliefs.iter().enumerate() {
            for (j, provenance) in provenances.iter().enumerate() {
                let key = AnswerCache::key(i as u64, &format!("q{j}|ünïcode"));
                let answer = CachedAnswer {
                    belief: belief.clone(),
                    provenance: provenance.clone(),
                };
                cache.insert(key.clone(), answer.clone());
                inserted.push((key, answer));
            }
        }
        assert_eq!(cache.len(), inserted.len());
        for (key, answer) in &inserted {
            let got = cache.get(key).unwrap();
            // Debug output round-trips every f64, so this is bit-exact
            // (unlike `==`, which equates 0.0 and -0.0).
            assert_eq!(format!("{got:?}"), format!("{answer:?}"), "{key}");
        }
        inserted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(cache.export(), inserted);
    }

    #[test]
    fn insert_replaces_an_existing_entry() {
        let cache = AnswerCache::with_shards(1);
        let k = AnswerCache::key(3, "q");
        cache.insert(k.clone(), answer(0.25));
        cache.insert(
            k.clone(),
            CachedAnswer {
                belief: Belief::NonRobust(vec![0.0, 1.0]),
                provenance: Provenance::MaxEnt,
            },
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.get(&k).unwrap().belief,
            Belief::NonRobust(vec![0.0, 1.0])
        );
    }

    #[test]
    fn concurrent_workers_share_entries() {
        let cache = AnswerCache::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50 {
                        let k = AnswerCache::key(i % 8, "shared");
                        if cache.get(&k).is_none() {
                            cache.insert(k, answer(t as f64));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.hits() + cache.misses(), 200);
    }
}
