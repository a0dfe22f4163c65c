//! Memoization of stable-model computations across chase outcomes.
//!
//! Distinct chase outcomes frequently induce the *same* ground program
//! `Σ ∪ G(Σ)` — in the coin-chain family every failing prefix grounds the
//! same constraint machinery, and repeated [`crate::Pipeline::solve`] calls
//! (Monte-Carlo refinement loops, report reruns) resolve identical programs
//! over and over. Since `sms(Σ ∪ G(Σ))` is a pure function of that program,
//! its event key can be cached.
//!
//! The cache key is a [`ProgramFingerprint`]: the canonical listing of the
//! outcome's choice set `Σ` plus the canonical listing of its grounder rules
//! `G(Σ)`. This encoding is *collision-free by construction* — it is not a
//! hash but the full, canonically ordered content of the program, so two
//! outcomes share a fingerprint exactly when they denote the same ground
//! program (set semantics). Equal programs have equal stable-model sets by
//! definition, so a cache hit can never change a result, at any thread
//! count. The content is hashed once, when the fingerprint is built; map
//! lookups hash only that `u64` and confirm a match by comparing the full
//! content.
//!
//! A cache reaches the keying pass through [`crate::Ctx::cache`]; every
//! [`crate::Pipeline`] puts its own in its context. Hit/miss counters are
//! kept for observability ([`crate::Pipeline::stable_cache_stats`]) and are
//! counted once per outcome during the sequential keying pass of
//! [`crate::OutputSpace::from_chase`], so they are deterministic across
//! executors.

use crate::grounding::AtrRule;
use crate::outcome::ModelSetKey;
use gdlog_engine::GroundRule;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The canonical, collision-free identity of an outcome's ground program
/// `Σ ∪ G(Σ)`: its choice set and grounder rules in canonical order.
///
/// Equality compares the full content; [`Hash`] writes only the content hash
/// computed once by the constructor, so equal fingerprints hash equally and
/// a map lookup costs one `u64` hash plus the confirming comparison.
#[derive(Clone, Debug)]
pub struct ProgramFingerprint {
    hash: u64,
    choices: Vec<AtrRule>,
    rules: Vec<GroundRule>,
}

impl ProgramFingerprint {
    /// Assemble a fingerprint from canonical listings (callers should use
    /// [`crate::PossibleOutcome::program_fingerprint`]).
    pub(crate) fn new(choices: Vec<AtrRule>, rules: Vec<GroundRule>) -> Self {
        let mut hasher = DefaultHasher::new();
        choices.hash(&mut hasher);
        rules.hash(&mut hasher);
        ProgramFingerprint {
            hash: hasher.finish(),
            choices,
            rules,
        }
    }

    /// Number of choices plus ground rules covered by the fingerprint.
    pub fn len(&self) -> usize {
        self.choices.len() + self.rules.len()
    }

    /// Is the fingerprint of the empty program?
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty() && self.rules.is_empty()
    }
}

impl Default for ProgramFingerprint {
    fn default() -> Self {
        ProgramFingerprint::new(Vec::new(), Vec::new())
    }
}

impl PartialEq for ProgramFingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.choices == other.choices && self.rules == other.rules
    }
}

impl Eq for ProgramFingerprint {}

impl Hash for ProgramFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Cache hit/miss counters of a [`ModelSetCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelCacheStats {
    /// Outcomes whose event key was served without a stable-model search
    /// (present in the cache, or a duplicate within the same call).
    pub hits: usize,
    /// Outcomes whose program had to be solved.
    pub misses: usize,
}

impl ModelCacheStats {
    /// Hits as a fraction of all lookups (zero when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe memo table from [`ProgramFingerprint`]s to the induced
/// [`ModelSetKey`]s, shared by every [`crate::OutputSpace::from_chase`] call
/// whose [`crate::Ctx`] holds the same cache (e.g. all solves of one
/// [`crate::Pipeline`]).
///
/// Only successful searches are cached; [`gdlog_engine::StableError`]s
/// propagate to the caller untouched so limit changes take effect on retry.
///
/// Storing the full canonical program as the key is a deliberate
/// space-for-certainty tradeoff: a 64-bit hash key could alias two distinct
/// programs and silently corrupt a probability. The footprint is bounded by
/// the distinct programs of the pipeline's outcome space (not by the number
/// of solves — repeated solves re-derive fingerprints but insert nothing
/// new), which is itself bounded by the chase budget's `max_outcomes`.
#[derive(Default)]
pub struct ModelSetCache {
    map: Mutex<HashMap<ProgramFingerprint, ModelSetKey>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ModelSetCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached key for a fingerprint, if present (does not touch the
    /// hit/miss counters — callers account once per outcome).
    pub fn peek(&self, fingerprint: &ProgramFingerprint) -> Option<ModelSetKey> {
        self.map.lock().get(fingerprint).cloned()
    }

    /// Record a solved program.
    pub fn insert(&self, fingerprint: ProgramFingerprint, key: ModelSetKey) {
        self.map.lock().insert(fingerprint, key);
    }

    /// Number of distinct programs cached.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add to the hit/miss counters (called once per `from_chase`).
    pub(crate) fn record(&self, hits: usize, misses: usize) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// The accumulated hit/miss counters.
    pub fn stats(&self) -> ModelCacheStats {
        ModelCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for ModelSetCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ModelSetCache")
            .field("entries", &self.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounding::AtrSet;
    use crate::outcome::PossibleOutcome;
    use gdlog_data::{Const, GroundAtom};
    use gdlog_engine::GroundProgram;
    use gdlog_prob::Prob;

    fn atom(name: &str, arg: i64) -> GroundAtom {
        GroundAtom::make(name, vec![Const::Int(arg)])
    }

    fn choice(arg: i64, outcome: i64) -> AtrRule {
        AtrRule {
            active: atom("Active", arg),
            outcome: Const::Int(outcome),
            result: GroundAtom::make("Result", vec![Const::Int(arg), Const::Int(outcome)]),
        }
    }

    fn rules() -> Vec<GroundRule> {
        vec![
            GroundRule::fact(atom("A", 1)),
            GroundRule::new(atom("B", 1), vec![atom("A", 1)], vec![atom("C", 1)]),
            GroundRule::new(atom("C", 1), vec![atom("Result", 1)], vec![]),
        ]
    }

    fn hash_of(fp: &ProgramFingerprint) -> u64 {
        let mut hasher = DefaultHasher::new();
        fp.hash(&mut hasher);
        hasher.finish()
    }

    fn outcome(
        choices: &[AtrRule],
        rules: impl IntoIterator<Item = GroundRule>,
    ) -> PossibleOutcome {
        let mut atr = AtrSet::new();
        for c in choices {
            atr.insert(c.clone()).unwrap();
        }
        PossibleOutcome::new(atr, GroundProgram::from_rules(rules), Prob::ONE)
    }

    #[test]
    fn push_order_does_not_change_the_fingerprint() {
        let choices = [choice(1, 0), choice(2, 1)];
        let forward = outcome(&choices, rules());
        let reversed_choices = [choice(2, 1), choice(1, 0)];
        let backward = outcome(&reversed_choices, rules().into_iter().rev());
        let (f, b) = (
            forward.program_fingerprint(),
            backward.program_fingerprint(),
        );
        assert_eq!(f, b);
        assert_eq!(hash_of(&f), hash_of(&b));

        let cache = ModelSetCache::new();
        cache.insert(f.clone(), ModelSetKey::empty());
        assert_eq!(cache.peek(&b), Some(ModelSetKey::empty()));
        assert_eq!(cache.peek(&f), Some(ModelSetKey::empty()));
    }

    #[test]
    fn fingerprints_differing_in_one_rule_are_distinct() {
        let base = outcome(&[choice(1, 0)], rules()).program_fingerprint();
        let mut changed = rules();
        changed[1].neg.clear();
        let other = outcome(&[choice(1, 0)], changed).program_fingerprint();
        assert_ne!(base, other);
        let cache = ModelSetCache::new();
        cache.insert(base, ModelSetKey::empty());
        assert!(cache.peek(&other).is_none());
    }

    #[test]
    fn hash_and_equality_agree_on_small_programs() {
        let r = rules();
        let table: Vec<ProgramFingerprint> = vec![
            ProgramFingerprint::default(),
            ProgramFingerprint::new(vec![choice(1, 0)], Vec::new()),
            ProgramFingerprint::new(vec![choice(1, 1)], Vec::new()),
            ProgramFingerprint::new(Vec::new(), vec![r[0].clone()]),
            ProgramFingerprint::new(Vec::new(), vec![r[1].clone()]),
            ProgramFingerprint::new(Vec::new(), vec![r[0].clone(), r[1].clone()]),
            ProgramFingerprint::new(vec![choice(1, 0)], vec![r[0].clone()]),
            ProgramFingerprint::new(vec![choice(1, 0), choice(2, 0)], r.clone()),
        ];
        for (i, a) in table.iter().enumerate() {
            for (j, b) in table.iter().enumerate() {
                assert_eq!(a == b, i == j, "entries {i} and {j}");
                // Rebuilding from the same content reproduces the hash.
                let a2 = ProgramFingerprint::new(a.choices.clone(), a.rules.clone());
                assert_eq!(a, &a2);
                assert_eq!(hash_of(a), hash_of(&a2));
                if i != j {
                    assert_ne!(hash_of(a), hash_of(b), "entries {i} and {j}");
                }
            }
        }
    }

    #[test]
    fn empty_cache_and_stats() {
        let cache = ModelSetCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), ModelCacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!(cache.peek(&ProgramFingerprint::default()).is_none());
        assert!(ProgramFingerprint::default().is_empty());
        assert_eq!(ProgramFingerprint::default().len(), 0);
    }

    #[test]
    fn insert_peek_and_counters() {
        let cache = ModelSetCache::new();
        let fp = ProgramFingerprint::default();
        cache.insert(fp.clone(), ModelSetKey::empty());
        assert_eq!(cache.peek(&fp), Some(ModelSetKey::empty()));
        assert_eq!(cache.len(), 1);
        cache.record(3, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
        assert_eq!(stats.hit_rate(), 0.75);
        assert!(format!("{cache:?}").contains("hits"));
    }
}
