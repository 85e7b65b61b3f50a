//! Engine orchestration: a configurable pipeline of [`Solver`](crate::Solver)
//! stages with per-stage budgets, batched queries, an optional answer
//! cache, and full per-query traces.

use crate::belief::{Belief, Provenance};
use crate::cache::{AnswerCache, CachedAnswer, DenomCache};
use crate::solver::{Budget, Diagonal, SolverOutcome, Stage, StageStatus, Trace};
use crate::solvers::{
    EnumerationDiagonalSolver, MaxEntSolver, MonteCarloSolver, TheoremSolver, UnaryDiagonalSolver,
};
use rw_logic::ast::Formula;
use rw_logic::canon;
use rw_logic::{KnowledgeBase, ParseError};
use rw_maxent::SweepConfig;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Configuration and entry point for random-worlds inference.
///
/// The engine is a pipeline: an ordered list of [`Stage`]s, each a
/// [`Solver`](crate::Solver) plus the [`Budget`] it may spend. A query walks the stages
/// in order until one answers; the walk is recorded in the returned
/// [`Response::trace`]. By default the pipeline is the paper's cascade —
/// theorems, maximum entropy, exact unary counting, enumeration — built
/// from the public configuration fields at query time; [`Self::with_solvers`]
/// replaces it wholesale.
#[derive(Clone, Debug)]
pub struct RandomWorlds {
    /// Maximum-entropy τ-sweep configuration (used by the default
    /// pipeline's maxent stage).
    pub sweep: SweepConfig,
    /// Budget for exact unary profile counting.
    pub unary_max_profiles: u128,
    /// Budget for the exact counting stage. With [`Self::enum_compiled`]
    /// set (the default) this bounds *visited search nodes* of the
    /// branch-and-count engine — which prunes and multiplies out free
    /// slots, so its reach in domain size and vocabulary vastly exceeds
    /// the same number of blindly enumerated interpretations. In oracle
    /// mode it bounds interpretations, as it historically did.
    pub enum_max_worlds: u128,
    /// Use the compiled branch-and-count engine for the exact counting
    /// stage (default `true`). `false` restores the naive odometer
    /// oracle. Folded into the cache keyspace: the two modes can select
    /// different diagonal points and so different (equally exact)
    /// extrapolations.
    pub enum_compiled: bool,
    /// Worker threads for compiled counting (0 = one per core). Counting
    /// is chunk-deterministic, so — like the sampler's worker count —
    /// this never affects an answer and is *not* part of the cache
    /// keyspace.
    pub enum_threads: usize,
    /// Symmetry-reduced orbit counting for the exact counting stage
    /// (default `false`). When set and a query lands inside the orbit
    /// fragment, counting enumerates weighted orbit representatives of
    /// the unnamed-element group instead of branching over worlds, so
    /// the rising-`N` scan climbs toward
    /// [`crate::solvers::MAX_SYMMETRY_N`] instead of stopping near
    /// [`crate::solvers::MAX_COMPILED_N`]. Outside the fragment the
    /// stage behaves exactly as with the flag off. Folded into the cache
    /// keyspace: deeper scans select different (equally exact)
    /// extrapolation points.
    pub enum_symmetry: bool,
    /// Floor of the exact stage's rising-`N` scan (`None` = 2). Values
    /// below 2 are clamped up. Folded into the cache keyspace.
    pub enum_min_n: Option<usize>,
    /// Ceiling of the exact stage's rising-`N` scan (`None` = the mode
    /// default). Folded into the cache keyspace.
    pub enum_max_n: Option<usize>,
    /// The `(τ, N)` diagonal used by the exact finite-`N` stages (and, as
    /// the `N`-sweep, by the Monte-Carlo stage when one is enabled).
    pub diagonal: Diagonal,
    /// Approximate inference: `Some` inserts a [`MonteCarloSolver`] stage
    /// (sampling along the diagonal with the given configuration) right
    /// after the theorem stage, so un-matched queries get a bounded-cost
    /// estimated answer instead of falling into maxent/counting. The
    /// configuration is folded into the cache keyspace — an
    /// [`AnswerCache`] never mixes exact and approximate answers.
    pub approx: Option<rw_worlds::mc::McConfig>,
    /// A custom pipeline installed by [`Self::with_solvers`]; `None` means
    /// the default cascade is built from the fields above per query.
    custom: Option<Arc<Vec<Stage>>>,
    /// An answer cache installed by [`Self::with_cache`], consulted before
    /// the pipeline runs (and shared with batch workers).
    cache: Option<Arc<AnswerCache>>,
    /// The shared `#worlds_N^τ(KB)` denominator cache for the exact
    /// counting stage: one count per `(KB, vocabulary shape, N, τ)`
    /// sweep point instead of one per query. Always on — world counts
    /// are pure functions of their key, so sharing (including across
    /// engine clones in batch workers) can never serve a wrong value.
    denom_cache: Arc<DenomCache>,
}

impl RandomWorlds {
    /// The default engine: the paper's four-stage cascade with the
    /// standard diagonal and counting budgets.
    pub fn new() -> RandomWorlds {
        RandomWorlds {
            sweep: SweepConfig::default(),
            unary_max_profiles: 20_000_000,
            enum_max_worlds: 1 << 24,
            enum_compiled: true,
            enum_threads: 1,
            enum_symmetry: false,
            enum_min_n: None,
            enum_max_n: None,
            diagonal: Diagonal::default(),
            approx: None,
            custom: None,
            cache: None,
            denom_cache: Arc::new(DenomCache::new()),
        }
    }

    /// Enables the Monte-Carlo approximate-inference stage with the given
    /// sampler configuration (builder form of setting [`Self::approx`]).
    ///
    /// ```
    /// use rw_core::{Belief, Provenance, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    /// use rw_worlds::mc::McConfig;
    ///
    /// let kb = KnowledgeBase::parse(
    ///     "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
    /// ).unwrap();
    /// let engine = RandomWorlds::new().with_approx(McConfig::default());
    /// // A conjunction over individuals sharing statistics misses every
    /// // theorem pattern; the sampler, which runs before the exact
    /// // stages, answers it with a CI.
    /// let r = engine.answer(&kb, "Hep(Eric) & Hep(Tom)").unwrap();
    /// assert!(matches!(r.belief, Belief::Approximate { .. }));
    /// assert!(matches!(r.provenance, Provenance::MonteCarlo { .. }));
    /// ```
    pub fn with_approx(mut self, config: rw_worlds::mc::McConfig) -> RandomWorlds {
        self.approx = Some(config);
        self
    }

    /// Replaces the pipeline with an explicit stage list (must be
    /// non-empty, so every answer still carries a non-empty trace).
    pub fn with_solvers(mut self, stages: Vec<Stage>) -> RandomWorlds {
        assert!(
            !stages.is_empty(),
            "a RandomWorlds pipeline needs at least one stage"
        );
        self.custom = Some(Arc::new(stages));
        self
    }

    /// Installs a shared [`AnswerCache`], consulted before the pipeline on
    /// every top-level query (single [`Self::answer`] calls and batches
    /// alike). The cache key is the canonical query form against the KB's
    /// fingerprint ([`rw_logic::canon`]), so syntactic variants — commuted
    /// conjunctions, double negations, alpha-renamed binders — share one
    /// entry. The engine's own configuration (stage list, budgets,
    /// diagonal, sweep) is folded into the key too, so mutating the
    /// configuration — or sharing one cache between differently
    /// configured engines — changes the keyspace instead of serving
    /// stale beliefs. A hit returns a [`Response`] with
    /// [`Response::cached`] set and a one-step `cache` trace.
    ///
    /// ```
    /// use rw_core::{cache::AnswerCache, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    /// use std::sync::Arc;
    ///
    /// let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
    /// let cache = Arc::new(AnswerCache::new());
    /// let engine = RandomWorlds::new().with_cache(Arc::clone(&cache));
    ///
    /// let cold = engine.answer(&kb, "Hep(Eric)").unwrap();
    /// assert!(!cold.cached);
    /// // A syntactic variant of the same query hits the cache.
    /// let warm = engine.answer(&kb, "!!Hep(Eric)").unwrap();
    /// assert!(warm.cached);
    /// assert_eq!(warm.belief, cold.belief);
    /// assert_eq!(cache.hits(), 1);
    /// ```
    pub fn with_cache(mut self, cache: Arc<AnswerCache>) -> RandomWorlds {
        self.cache = Some(cache);
        self
    }

    /// The installed answer cache, if any.
    pub fn cache(&self) -> Option<&Arc<AnswerCache>> {
        self.cache.as_ref()
    }

    /// The engine's `#worlds` denominator cache (always present), for
    /// callers that report its statistics or share it across engines.
    pub fn denom_cache(&self) -> &Arc<DenomCache> {
        &self.denom_cache
    }

    /// Replaces the denominator cache with a shared one, so several
    /// engines (e.g. per-KB serving sessions) pool their `#worlds_N^τ(KB)`
    /// counts. Always safe: entries are pure functions of their key, and
    /// the key carries the KB, vocabulary, budget, and counting mode.
    pub fn with_denom_cache(mut self, cache: Arc<DenomCache>) -> RandomWorlds {
        self.denom_cache = cache;
        self
    }

    /// The names of the effective pipeline's stages, in execution order.
    pub fn solvers(&self) -> Vec<String> {
        self.effective_stages()
            .iter()
            .map(|s| s.solver.name().to_string())
            .collect()
    }

    /// The default cascade, built from the current configuration fields.
    /// Useful as a base when composing a custom pipeline. With
    /// [`Self::approx`] set, the Monte-Carlo stage runs right after the
    /// theorem stage (its budget is the sampler's own draw cap).
    pub fn default_stages(&self) -> Vec<Stage> {
        let mut stages = vec![Stage::new(Box::new(TheoremSolver))];
        if let Some(cfg) = &self.approx {
            stages.push(Stage::budgeted(
                Box::new(MonteCarloSolver::new(cfg.clone(), self.diagonal.clone())),
                Budget::counting(cfg.max_samples as u128),
            ));
        }
        stages.push(Stage::new(Box::new(MaxEntSolver::new(self.sweep.clone()))));
        stages.push(Stage::budgeted(
            Box::new(UnaryDiagonalSolver::new(self.diagonal.clone())),
            Budget::counting(self.unary_max_profiles),
        ));
        stages.push(Stage::budgeted(
            Box::new(EnumerationDiagonalSolver {
                diagonal: self.diagonal.clone(),
                compiled: self.enum_compiled,
                symmetry: self.enum_symmetry,
                min_n: self.enum_min_n,
                max_n: self.enum_max_n,
                threads: self.enum_threads,
                denom_cache: Some(Arc::clone(&self.denom_cache)),
            }),
            Budget::counting(self.enum_max_worlds),
        ));
        stages
    }

    /// The pipeline a query will actually run: the custom stage list if
    /// one is installed, else the default cascade built from the current
    /// configuration fields (so field mutations keep taking effect).
    pub(crate) fn effective_stages(&self) -> Arc<Vec<Stage>> {
        match &self.custom {
            Some(s) => Arc::clone(s),
            None => Arc::new(self.default_stages()),
        }
    }

    /// A fingerprint of everything *besides* the KB and query that can
    /// influence an answer: the stage list (solver names + budgets) and
    /// the engine's public configuration fields. Folded into every cache
    /// key so a config mutation — or two differently configured engines
    /// sharing one [`AnswerCache`] — can never serve a stale belief.
    ///
    /// Custom solvers are identified by name and budget only; two custom
    /// solvers that share a name but answer differently must not share a
    /// cache.
    fn config_fingerprint(&self, stages: &[Stage]) -> u64 {
        let mut src = String::new();
        for s in stages {
            src.push_str(s.solver.name());
            src.push_str(&format!("#{};", s.budget.max_count));
        }
        src.push_str(&format!(
            "|{:?}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.sweep,
            self.unary_max_profiles,
            self.enum_max_worlds,
            // The counting mode selects diagonal points and so answers;
            // `enum_threads` is excluded like the sampler's worker count
            // (counting is chunk-deterministic at any thread count).
            self.enum_compiled,
            // Symmetry and the scan window select how deep the rising-N
            // diagonal goes, and so the extrapolation points.
            self.enum_symmetry,
            self.enum_min_n,
            self.enum_max_n,
            self.diagonal,
            // Only the sampler fields that can affect an answer — worker
            // count is excluded, so sessions differing only in threads
            // share cache entries (sampling is thread-count
            // deterministic).
            self.approx.as_ref().map(|c| c.result_fingerprint())
        ));
        canon::fnv1a(src.as_bytes())
    }

    /// The full cache-key prefix: KB fingerprint combined with the
    /// engine-config fingerprint.
    pub(crate) fn key_prefix(&self, kb_fingerprint: u64, stages: &[Stage]) -> u64 {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&kb_fingerprint.to_le_bytes());
        bytes[8..].copy_from_slice(&self.config_fingerprint(stages).to_le_bytes());
        canon::fnv1a(&bytes)
    }

    /// The cache context for queries against `kb`: the installed cache
    /// plus the combined KB/config key prefix, computed once per KB
    /// rather than per query.
    pub(crate) fn cache_ctx<'e>(
        &'e self,
        kb: &KnowledgeBase,
        stages: &[Stage],
    ) -> Option<CacheCtx<'e>> {
        self.cache_ctx_fingerprinted(canon::kb_fingerprint(kb), stages)
    }

    /// [`Self::cache_ctx`] with a caller-supplied KB fingerprint (for
    /// callers that hoist the fingerprint across many queries).
    pub(crate) fn cache_ctx_fingerprinted<'e>(
        &'e self,
        kb_fingerprint: u64,
        stages: &[Stage],
    ) -> Option<CacheCtx<'e>> {
        self.cache.as_deref().map(|cache| CacheCtx {
            cache,
            key_prefix: self.key_prefix(kb_fingerprint, stages),
        })
    }

    /// Computes `Pr∞(query | KB)` for a textual query.
    ///
    /// ```
    /// use rw_core::{Provenance, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    ///
    /// let kb = KnowledgeBase::parse(
    ///     "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)",
    /// ).unwrap();
    /// let r = RandomWorlds::new().answer(&kb, "Hep(Eric)").unwrap();
    /// assert_eq!(r.belief.as_point(), Some(0.8));
    /// assert_eq!(r.provenance, Provenance::DirectInference);
    /// assert_eq!(r.trace.to_string(), "theorems answered");
    /// ```
    pub fn answer(&self, kb: &KnowledgeBase, query: &str) -> Result<Response, EngineError> {
        let stages = self.effective_stages();
        let ctx = self.cache_ctx(kb, &stages);
        self.answer_with(&stages, kb, query, ctx.as_ref())
    }

    /// [`Self::answer`] with the KB's fingerprint
    /// ([`rw_logic::canon::kb_fingerprint`]) supplied by the caller — the
    /// single-query analogue of the hoisting [`Self::answer_batch`] does,
    /// for serving loops (REPLs, streamed batches) that answer many
    /// queries against one unchanging KB through a cache. Without an
    /// installed cache the fingerprint is ignored. The caller must not
    /// mutate `kb` between fingerprinting and answering.
    pub fn answer_fingerprinted(
        &self,
        kb: &KnowledgeBase,
        query: &str,
        kb_fingerprint: u64,
    ) -> Result<Response, EngineError> {
        let stages = self.effective_stages();
        let ctx = self.cache_ctx_fingerprinted(kb_fingerprint, &stages);
        self.answer_with(&stages, kb, query, ctx.as_ref())
    }

    /// Computes `Pr∞(query | KB)` for an already-parsed query.
    pub fn answer_formula(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
    ) -> Result<Response, EngineError> {
        let stages = self.effective_stages();
        let ctx = self.cache_ctx(kb, &stages);
        self.answer_parsed(&stages, kb, query, ctx.as_ref())
    }

    /// Answers many queries against one knowledge base, sequentially.
    ///
    /// This is the serving-path primitive: the pipeline is built once and
    /// the knowledge base is fingerprinted once, then reused across all
    /// queries. Per-query failures (parse errors, out-of-reach) are
    /// returned in place so one bad query never voids the rest. For the
    /// threaded version with an aggregate report, see
    /// [`Self::answer_batch_report`](RandomWorlds::answer_batch_report).
    ///
    /// ```
    /// use rw_core::RandomWorlds;
    /// use rw_logic::KnowledgeBase;
    ///
    /// let kb = KnowledgeBase::parse(
    ///     "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)",
    /// ).unwrap();
    /// let results = RandomWorlds::new()
    ///     .answer_batch(&kb, &["Hep(Eric)", "Hep(", "!Hep(Eric)"]);
    /// assert_eq!(results[0].as_ref().unwrap().belief.as_point(), Some(0.8));
    /// assert!(results[1].is_err()); // parse error, isolated to its slot
    /// assert!((results[2].as_ref().unwrap().belief.as_point().unwrap() - 0.2).abs() < 1e-9);
    /// ```
    pub fn answer_batch<S: AsRef<str>>(
        &self,
        kb: &KnowledgeBase,
        queries: &[S],
    ) -> Vec<Result<Response, EngineError>> {
        let stages = self.effective_stages();
        let cache = self.cache_ctx(kb, &stages);
        queries
            .iter()
            .map(|q| self.answer_with(&stages, kb, q.as_ref(), cache.as_ref()))
            .collect()
    }

    pub(crate) fn answer_with(
        &self,
        stages: &[Stage],
        kb: &KnowledgeBase,
        query: &str,
        cache: Option<&CacheCtx<'_>>,
    ) -> Result<Response, EngineError> {
        // Queries may mention fresh constants, so each gets its own
        // vocabulary extension. Only the vocabulary is cloned up front;
        // the conjunct list is cloned after the cache lookup, so a hit
        // never pays for copying the knowledge base.
        let mut vocab = kb.vocab().clone();
        let q = rw_logic::parse_formula(&mut vocab, query)?;
        if let Some(ctx) = cache {
            let start = Instant::now();
            let key = AnswerCache::key(ctx.key_prefix, &canon::canonical_formula(&vocab, &q));
            let hit = ctx.cache.get(&key);
            observe_cache_lookup(start, hit.is_some());
            if let Some(hit) = hit {
                return Ok(Self::cached_response(hit, start));
            }
            let local = KnowledgeBase::from_parts(vocab, kb.conjuncts().to_vec());
            let response = self.run_pipeline(stages, &local, &q)?;
            ctx.cache.insert(key, CachedAnswer::of(&response));
            return Ok(response);
        }
        let local = KnowledgeBase::from_parts(vocab, kb.conjuncts().to_vec());
        self.run_pipeline(stages, &local, &q)
    }

    /// A [`Response`] materialized from a cache hit: a one-step `cache`
    /// trace covering the lookup time.
    fn cached_response(hit: CachedAnswer, lookup_start: Instant) -> Response {
        let mut trace = Trace::default();
        trace.push("cache", StageStatus::Answered, lookup_start.elapsed());
        Response {
            belief: hit.belief,
            provenance: hit.provenance,
            trace,
            cached: true,
        }
    }

    /// The common top-level path: consult the cache (if any), else run
    /// the pipeline and remember the semantic answer.
    fn answer_parsed(
        &self,
        stages: &[Stage],
        kb: &KnowledgeBase,
        query: &Formula,
        cache: Option<&CacheCtx<'_>>,
    ) -> Result<Response, EngineError> {
        let Some(ctx) = cache else {
            return self.run_pipeline(stages, kb, query);
        };
        let start = Instant::now();
        let key = AnswerCache::key(ctx.key_prefix, &canon::canonical_formula(kb.vocab(), query));
        let hit = ctx.cache.get(&key);
        observe_cache_lookup(start, hit.is_some());
        if let Some(hit) = hit {
            return Ok(Self::cached_response(hit, start));
        }
        let response = self.run_pipeline(stages, kb, query)?;
        ctx.cache.insert(key, CachedAnswer::of(&response));
        Ok(response)
    }

    fn run_pipeline(
        &self,
        stages: &[Stage],
        kb: &KnowledgeBase,
        query: &Formula,
    ) -> Result<Response, EngineError> {
        // Recursion (independence products, nested defaults) re-enters the
        // *same* stage list rather than rebuilding it per sub-query.
        let recurse = |skb: &KnowledgeBase, sq: &Formula| {
            self.run_pipeline(stages, skb, sq)
                .ok()
                .map(|r| (r.belief, r.provenance))
        };
        let mut trace = Trace::default();
        for stage in stages {
            let start = Instant::now();
            let outcome = stage.solver.solve(kb, query, &stage.budget, &recurse);
            let elapsed = start.elapsed();
            let name = stage.solver.name();
            match outcome {
                SolverOutcome::Answered { belief, provenance } => {
                    trace.push(name, StageStatus::Answered, elapsed);
                    observe_stage(name, "answered", elapsed);
                    observe_provenance(&provenance);
                    return Ok(Response {
                        belief,
                        provenance,
                        trace,
                        cached: false,
                    });
                }
                SolverOutcome::Declined { reason } => {
                    trace.push(name, StageStatus::Declined(reason), elapsed);
                    observe_stage(name, "declined", elapsed);
                }
                SolverOutcome::BudgetExhausted { reason } => {
                    trace.push(name, StageStatus::BudgetExhausted(reason), elapsed);
                    observe_stage(name, "budget_exhausted", elapsed);
                }
            }
        }
        Err(EngineError::OutOfReach {
            reason: "every pipeline stage declined or exhausted its budget".to_string(),
            trace,
        })
    }

    /// Computes `Pr∞(query | KB)` for a textual query.
    ///
    /// Compatibility wrapper for [`Self::answer`] (the historical name).
    pub fn degree_of_belief(
        &self,
        kb: &KnowledgeBase,
        query: &str,
    ) -> Result<Response, EngineError> {
        self.answer(kb, query)
    }

    /// Computes `Pr∞(query | KB)` for an already-parsed query.
    ///
    /// Compatibility wrapper for [`Self::answer_formula`].
    pub fn degree_of_belief_formula(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
    ) -> Result<Response, EngineError> {
        self.answer_formula(kb, query)
    }

    /// The default-inference relation `KB |~rw φ`: degree of belief 1
    /// (paper §5.1).
    pub fn follows_by_default(&self, kb: &KnowledgeBase, query: &str) -> Result<bool, EngineError> {
        Ok(self.answer(kb, query)?.belief.is_one())
    }
}

impl Default for RandomWorlds {
    fn default() -> RandomWorlds {
        RandomWorlds::new()
    }
}

/// Records one pipeline stage run into the global metrics registry: a
/// per-stage latency histogram (`stage.<name>.wall_us`) plus an outcome
/// counter (`stage.<name>.<outcome>`). Recursive sub-query stage runs
/// (independence products, nested defaults) are recorded like top-level
/// ones — the histograms measure solver work, not request counts.
///
/// Purely additive: metrics never feed back into an answer, so beliefs,
/// traces and rendered bytes are identical with recording on or off.
fn observe_stage(name: &str, outcome: &str, elapsed: std::time::Duration) {
    if !rw_obs::enabled() {
        return;
    }
    let reg = rw_obs::registry();
    reg.histogram(&format!("stage.{name}.wall_us"))
        .record_us(elapsed.as_micros() as u64);
    reg.counter(&format!("stage.{name}.{outcome}")).inc();
}

/// Records one [`AnswerCache`] consultation: canonicalize-and-probe
/// latency (`cache.answer.lookup_us`) plus hit/miss counters, matching
/// the cache's own lifetime counters but scoped to the global registry.
fn observe_cache_lookup(start: Instant, hit: bool) {
    if !rw_obs::enabled() {
        return;
    }
    let reg = rw_obs::registry();
    reg.histogram("cache.answer.lookup_us")
        .record_us(start.elapsed().as_micros() as u64);
    reg.counter(if hit {
        "cache.answer.hits"
    } else {
        "cache.answer.misses"
    })
    .inc();
}

/// Harvests the effort counters an answering stage reported through its
/// [`Provenance`]: branch-and-count / symmetry search node counts (total
/// and per reached `N`) and Monte-Carlo draw/accept/effective-N tallies.
fn observe_provenance(provenance: &Provenance) {
    if !rw_obs::enabled() {
        return;
    }
    let reg = rw_obs::registry();
    match provenance {
        Provenance::Enumeration {
            max_n,
            visited,
            branched,
            orbits,
        } => {
            reg.counter("enum.answers").inc();
            reg.counter("enum.visited").add(*visited);
            reg.counter("enum.branched").add(*branched);
            reg.counter("enum.orbits").add(*orbits);
            reg.counter(&format!("enum.n{max_n}.visited")).add(*visited);
            reg.counter(&format!("enum.n{max_n}.branched"))
                .add(*branched);
            if *orbits > 0 {
                reg.counter(&format!("enum.n{max_n}.orbits")).add(*orbits);
            }
        }
        Provenance::MonteCarlo {
            drawn,
            accepted,
            n_points,
        } => {
            reg.counter("mc.answers").inc();
            reg.counter("mc.drawn").add(*drawn);
            reg.counter("mc.accepted").add(*accepted);
            reg.counter("mc.points").add(*n_points as u64);
        }
        Provenance::Independence(parts) => {
            for p in parts {
                observe_provenance(p);
            }
        }
        _ => {}
    }
}

/// A degree of belief, the method that produced it, and the per-stage
/// trace of the pipeline walk that got there.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The degree of belief `Pr∞(query | KB)`.
    pub belief: Belief,
    /// Which method produced it.
    pub provenance: Provenance,
    /// What every stage up to (and including) the answering one did. On a
    /// cache hit this is the single synthetic step `cache answered`.
    pub trace: Trace,
    /// True when the answer came from an installed [`AnswerCache`] rather
    /// than a pipeline run this call.
    pub cached: bool,
}

/// An [`AnswerCache`] plus the combined KB/engine-config key prefix it is
/// being consulted under — computed once per KB and shared across a batch.
pub(crate) struct CacheCtx<'c> {
    pub(crate) cache: &'c AnswerCache,
    pub(crate) key_prefix: u64,
}

/// The historical name for [`Response`], kept so terse example code and
/// downstream crates keep compiling.
pub type BeliefResult = Response;

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (via {})", self.belief, self.provenance)
    }
}

/// Engine-level failures.
#[derive(Debug)]
pub enum EngineError {
    /// The query failed to parse.
    Parse(ParseError),
    /// No stage answered; the trace records what each one reported.
    OutOfReach {
        /// Summary line.
        reason: String,
        /// Per-stage outcomes, for diagnosis.
        trace: Trace,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::OutOfReach { reason, trace } => {
                write!(f, "no engine applicable: {reason}")?;
                if !trace.is_empty() {
                    write!(f, " [{trace}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> EngineError {
        EngineError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Recurse, Solver, StageTrace};

    fn engine() -> RandomWorlds {
        RandomWorlds::default()
    }

    fn belief(kb_src: &str, query: &str) -> Response {
        let kb = KnowledgeBase::parse(kb_src).unwrap();
        engine().degree_of_belief(&kb, query).unwrap()
    }

    #[test]
    fn hepatitis_via_direct_inference() {
        let r = belief("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Hep(Eric)");
        assert_eq!(r.provenance, Provenance::DirectInference);
        assert_eq!(r.belief.as_point(), Some(0.8));
    }

    #[test]
    fn other_individuals_ignored() {
        // Paper Example 5.8: Hep(Tom) does not change Eric's belief.
        let r = belief(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Hep(Tom)",
            "Hep(Eric)",
        );
        assert_eq!(r.belief.as_point(), Some(0.8));
    }

    #[test]
    fn penguins_specificity() {
        // With Penguin(Tweety) as the only fact, Thm 5.6 applies directly
        // (the complement-normalized penguin default is an exact match).
        let r = belief(
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
            "Fly(Tweety)",
        );
        assert_eq!(r.belief.as_point(), Some(0.0), "{r}");
        assert_eq!(r.provenance, Provenance::DirectInference);
    }

    #[test]
    fn yellow_penguins_via_minimal_class() {
        // Paper Example 5.19: the irrelevant Yellow(Tweety) fact defeats the
        // exact-class match, so Thm 5.16 carries the inference.
        let r = belief(
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety); Yellow(Tweety)",
            "Fly(Tweety)",
        );
        assert_eq!(r.belief.as_point(), Some(0.0), "{r}");
        assert_eq!(r.provenance, Provenance::MinimalReferenceClass);
    }

    #[test]
    fn elephant_zookeeper_binary_predicates() {
        // Paper Example 5.12 — needs a binary predicate, so only the
        // theorem engine (Thm 5.6) can produce it.
        let kb_src = "||Likes(x, y) | Elephant(x) & Zookeeper(y)||_{x,y} ~=_1 1; \
                      ||Likes(x, Fred) | Elephant(x)||_x ~=_2 0; \
                      Zookeeper(Fred); Elephant(Clyde); Zookeeper(Eric)";
        let r1 = belief(kb_src, "Likes(Clyde, Eric)");
        assert_eq!(r1.belief.as_point(), Some(1.0), "{r1}");
        let r2 = belief(kb_src, "Likes(Clyde, Fred)");
        assert_eq!(r2.belief.as_point(), Some(0.0), "{r2}");
    }

    #[test]
    fn strength_rule_magpies() {
        // Paper Example 5.24.
        let r = belief(
            "0.7 <~_1 ||Chirps(x) | Bird(x)||_x <~_2 0.8; \
             0 <~_3 ||Chirps(x) | Magpie(x)||_x <~_4 0.99; \
             forall x (Magpie(x) => Bird(x)); Magpie(Tweety)",
            "Chirps(Tweety)",
        );
        assert_eq!(r.provenance, Provenance::StrengthRule);
        assert_eq!(r.belief.as_interval(), Some((0.7, 0.8)));
    }

    #[test]
    fn nixon_diamond_dempster() {
        let kb_src = "||Pacifist(x) | Quaker(x)||_x ~=_1 0.8; \
                      ||Pacifist(x) | Republican(x)||_x ~=_2 0.8; \
                      Quaker(Nixon); Republican(Nixon); \
                      exists! x (Quaker(x) & Republican(x))";
        let r = belief(kb_src, "Pacifist(Nixon)");
        assert_eq!(r.provenance, Provenance::Dempster);
        let v = r.belief.as_point().unwrap();
        assert!((v - 16.0 / 17.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn nixon_conflicting_defaults_non_robust() {
        let kb_src = "||Pacifist(x) | Quaker(x)||_x ~=_1 1; \
                      ||Pacifist(x) | Republican(x)||_x ~=_2 0; \
                      Quaker(Nixon); Republican(Nixon); \
                      exists! x (Quaker(x) & Republican(x))";
        let r = belief(kb_src, "Pacifist(Nixon)");
        assert!(matches!(r.belief, Belief::NonRobust(_)), "{r}");
    }

    #[test]
    fn nixon_equal_strength_gives_half() {
        let kb_src = "||Pacifist(x) | Quaker(x)||_x ~=_1 1; \
                      ||Pacifist(x) | Republican(x)||_x ~=_1 0; \
                      Quaker(Nixon); Republican(Nixon); \
                      exists! x (Quaker(x) & Republican(x))";
        let r = belief(kb_src, "Pacifist(Nixon)");
        assert_eq!(r.belief.as_point(), Some(0.5), "{r}");
    }

    #[test]
    fn independence_product() {
        // Paper Example 5.28: 0.8 × 0.4 = 0.32.
        let r = belief(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); \
             ||Over60(x) | Patient(x)||_x ~=_2 0.4; Patient(Eric)",
            "Hep(Eric) & Over60(Eric)",
        );
        let v = r.belief.as_point().unwrap();
        assert!((v - 0.32).abs() < 1e-9, "{r}");
        assert!(matches!(r.provenance, Provenance::Independence(_)));
    }

    #[test]
    fn unique_names_bias() {
        let r = belief("P(A) or !P(A)", "C1 = C2");
        assert_eq!(r.belief.as_point(), Some(0.0));
        assert_eq!(r.provenance, Provenance::UniqueNames);
        // Lifschitz C1.
        let r2 = belief("Ray = Reiter; Drew = McDermott", "!(Ray = Drew)");
        assert_eq!(r2.belief.as_point(), Some(1.0), "{r2}");
        let r3 = belief("Ray = Reiter; Drew = McDermott", "Ray = Reiter");
        assert_eq!(r3.belief.as_point(), Some(1.0));
    }

    #[test]
    fn nested_defaults_bed_late() {
        // Paper Examples 4.6 / 5.14.
        let kb_src = "|| ||Rises-late(x, y) | Day(y)||_y ~=_1 1 | ||To-bed-late(x, z) | Day(z)||_z ~=_2 1 ||_x ~=_3 1; \
                      ||To-bed-late(Alice, z) | Day(z)||_z ~=_2 1; \
                      Day(Tomorrow)";
        let r = belief(kb_src, "Rises-late(Alice, Tomorrow)");
        assert_eq!(r.belief.as_point(), Some(1.0), "{r}");
        assert_eq!(r.provenance, Provenance::NestedDefault);
    }

    #[test]
    fn tall_parent_via_direct_inference() {
        // Paper Example 5.13: existential reference class.
        let r = belief(
            "||Tall(x) | exists y (Child(x, y) & Tall(y))||_x ~=_1 1; \
             exists y (Child(Alice, y) & Tall(y))",
            "Tall(Alice)",
        );
        assert_eq!(r.belief.as_point(), Some(1.0), "{r}");
        assert_eq!(r.provenance, Provenance::DirectInference);
    }

    #[test]
    fn asserted_ground_facts_answer_in_the_theorem_stage() {
        // The PR-2 serving trap: without this pattern these shapes fall
        // into the maxent sweep (0.2–0.4 ms, against microseconds here).
        let kb_src = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Patient(Eric); !Jaun(Tom)";
        for (q, expect) in [
            ("Jaun(Eric)", 1.0),                 // bare asserted fact
            ("!!Jaun(Eric)", 1.0),               // double negation
            ("Jaun(Eric) & Patient(Eric)", 1.0), // conjunction of asserted literals
            ("Patient(Eric) & !Jaun(Tom)", 1.0), // mixed polarity, both asserted
            ("!Jaun(Eric)", 0.0),                // complement of an asserted fact
            ("Jaun(Tom)", 0.0),                  // asserted negative
            ("Jaun(Eric) & Jaun(Tom)", 0.0),     // one conjunct contradicted
        ] {
            let r = belief(kb_src, q);
            assert_eq!(r.provenance, Provenance::Entailed, "{q}: {r}");
            assert_eq!(r.belief.as_point(), Some(expect), "{q}: {r}");
            assert_eq!(r.trace.steps().len(), 1, "{q} must not leave theorems");
        }
        // Unasserted literals still decline to the statistical machinery
        // (minimal reference class here, since Eric has extra facts).
        let r = belief(kb_src, "Hep(Eric)");
        assert_ne!(r.provenance, Provenance::Entailed, "{r}");
        assert_eq!(r.belief.as_point(), Some(0.8), "{r}");
    }

    #[test]
    fn directly_contradictory_kbs_bypass_the_fast_path() {
        let r = belief("P(C); !P(C)", "P(C)");
        assert_eq!(r.belief, Belief::Undefined, "{r}");
    }

    #[test]
    fn symbol_free_false_conjuncts_bypass_the_fast_path() {
        // `false` shares no symbols with the query but voids the KB; the
        // fast path must not certify past it.
        let r = belief("false; P(C)", "P(C)");
        assert_ne!(r.provenance, Provenance::Entailed, "{r}");
        assert_eq!(r.belief, Belief::Undefined, "{r}");
    }

    #[test]
    fn quantified_contradictions_bypass_the_fast_path_too() {
        // The KB is inconsistent through a universal, not a ground
        // literal pair: the fast path must not claim entailment where
        // the semantic stages report Undefined.
        let r = belief("forall x (!P(x)); P(C)", "P(C)");
        assert_ne!(r.provenance, Provenance::Entailed, "{r}");
        assert_eq!(r.belief, Belief::Undefined, "{r}");
        // A universal about the queried predicate blocks the shortcut
        // even when consistent — the stages that understand it answer.
        let r = belief("forall x (P(x)); P(C)", "P(C)");
        assert_ne!(r.provenance, Provenance::Entailed, "{r}");
        assert_eq!(r.belief.as_point(), Some(1.0), "{r}");
        // Tolerance-carrying statistics about the queried symbols are
        // the allowed shape: the motivating trap KB keeps its fast path.
        let r = belief("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Jaun(Eric)");
        assert_eq!(r.provenance, Provenance::Entailed, "{r}");
    }

    #[test]
    fn maxent_fallback_for_unary_without_theorem() {
        // No explicit statistics for the query: falls to maxent.
        let r = belief(
            "||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1",
            "Black(Clyde)",
        );
        assert_eq!(r.provenance, Provenance::MaxEnt);
        assert!((r.belief.as_point().unwrap() - 0.47).abs() < 0.005, "{r}");
    }

    #[test]
    fn enumeration_fallback_for_tiny_non_unary() {
        // Binary predicate, no theorem pattern: enumeration diagonal.
        let r = belief("Likes(A, B)", "Likes(B, A)");
        assert!(
            matches!(r.provenance, Provenance::Enumeration { .. }),
            "{r}"
        );
        let v = r.belief.as_point().unwrap();
        assert!((v - 0.5).abs() < 0.05, "{r}");
    }

    #[test]
    fn inconsistent_kb_is_undefined() {
        let r = belief("forall x (P(x)); exists x (!P(x))", "P(C)");
        assert_eq!(r.belief, Belief::Undefined);
    }

    #[test]
    fn default_entailment_interface() {
        let kb = KnowledgeBase::parse(
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
        )
        .unwrap();
        let e = engine();
        assert!(e.follows_by_default(&kb, "!Fly(Tweety)").unwrap());
        assert!(!e.follows_by_default(&kb, "Fly(Tweety)").unwrap());
    }

    // ---- Pipeline API ----

    /// A test double answering every query with a fixed point belief.
    struct ConstSolver {
        name: &'static str,
        value: f64,
    }

    impl Solver for ConstSolver {
        fn name(&self) -> &str {
            self.name
        }

        fn solve(
            &self,
            _kb: &KnowledgeBase,
            _query: &Formula,
            _budget: &Budget,
            _recurse: &Recurse<'_>,
        ) -> SolverOutcome {
            SolverOutcome::Answered {
                belief: Belief::Point(self.value),
                provenance: Provenance::DirectInference,
            }
        }
    }

    /// A test double that always declines.
    struct DeclineSolver;

    impl Solver for DeclineSolver {
        fn name(&self) -> &str {
            "decline"
        }

        fn solve(
            &self,
            _kb: &KnowledgeBase,
            _query: &Formula,
            _budget: &Budget,
            _recurse: &Recurse<'_>,
        ) -> SolverOutcome {
            SolverOutcome::Declined {
                reason: "always declines".to_string(),
            }
        }
    }

    #[test]
    fn default_pipeline_exposes_stage_names() {
        assert_eq!(
            engine().solvers(),
            vec!["theorems", "maxent", "unary-exact", "enumeration"]
        );
    }

    #[test]
    fn custom_solver_ordering_is_honored() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        // The override runs *before* the theorem engine and wins.
        let e = engine().with_solvers(vec![
            Stage::new(Box::new(ConstSolver {
                name: "override",
                value: 0.42,
            })),
            Stage::new(Box::new(TheoremSolver)),
        ]);
        assert_eq!(e.solvers(), vec!["override", "theorems"]);
        let r = e.answer(&kb, "Hep(Eric)").unwrap();
        assert_eq!(r.belief.as_point(), Some(0.42));
        assert_eq!(r.trace.steps().len(), 1);
        assert_eq!(r.trace.steps()[0].stage, "override");
        // Swapped order: the theorem engine answers first.
        let e = engine().with_solvers(vec![
            Stage::new(Box::new(TheoremSolver)),
            Stage::new(Box::new(ConstSolver {
                name: "override",
                value: 0.42,
            })),
        ]);
        let r = e.answer(&kb, "Hep(Eric)").unwrap();
        assert_eq!(r.belief.as_point(), Some(0.8));
    }

    #[test]
    fn trace_records_declined_stages_before_the_answer() {
        // Binary predicate: theorems and maxent must both decline (maxent
        // cannot compile a non-unary KB), unary-exact declines, and the
        // enumeration stage answers — all of it visible in the trace.
        let r = belief("Likes(A, B)", "Likes(B, A)");
        let stages: Vec<(&str, &str)> = r
            .trace
            .steps()
            .iter()
            .map(|s: &StageTrace| (s.stage.as_str(), s.status.keyword()))
            .collect();
        assert_eq!(
            stages,
            vec![
                ("theorems", "declined"),
                ("maxent", "declined"),
                ("unary-exact", "declined"),
                ("enumeration", "answered"),
            ],
            "{:?}",
            r.trace
        );
        assert!(r.trace.stage("maxent").unwrap().status.reason().is_some());
    }

    #[test]
    fn every_response_carries_a_nonempty_trace() {
        for (kb_src, q) in [
            ("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Hep(Eric)"),
            (
                "||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1",
                "Black(Clyde)",
            ),
            ("Likes(A, B)", "Likes(B, A)"),
        ] {
            let r = belief(kb_src, q);
            assert!(!r.trace.is_empty(), "{kb_src} ⊢ {q}");
            assert_eq!(
                r.trace.steps().last().unwrap().status,
                StageStatus::Answered
            );
        }
    }

    #[test]
    fn declining_pipeline_reports_out_of_reach_with_trace() {
        let kb = KnowledgeBase::parse("P(C)").unwrap();
        let e = engine().with_solvers(vec![Stage::new(Box::new(DeclineSolver))]);
        match e.answer(&kb, "P(C)") {
            Err(EngineError::OutOfReach { trace, .. }) => {
                assert_eq!(trace.steps().len(), 1);
                assert_eq!(
                    trace.steps()[0].status,
                    StageStatus::Declined("always declines".to_string())
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn answer_batch_reuses_the_kb_and_isolates_failures() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let results = engine().answer_batch(&kb, &["Hep(Eric)", "Hep(", "!Hep(Eric)"]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().belief.as_point(), Some(0.8));
        assert!(matches!(results[1], Err(EngineError::Parse(_))));
        let v = results[2].as_ref().unwrap().belief.as_point().unwrap();
        assert!((v - 0.2).abs() < 1e-9);
        // Vocabulary extensions from one query must not leak into others:
        // the shared KB still parses fresh constants the same way.
        let again = engine().answer_batch(&kb, &["Hep(Eric)"]);
        assert_eq!(again[0].as_ref().unwrap().belief.as_point(), Some(0.8));
    }

    #[test]
    fn single_query_answers_share_the_installed_cache() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let cache = Arc::new(AnswerCache::new());
        let e = engine().with_cache(Arc::clone(&cache));
        let cold = e.answer(&kb, "Hep(Eric)").unwrap();
        assert!(!cold.cached);
        // Exact repeat and a syntactic variant both hit.
        let warm = e.answer(&kb, "Hep(Eric)").unwrap();
        assert!(warm.cached);
        assert_eq!(warm.belief, cold.belief);
        assert_eq!(warm.provenance, cold.provenance);
        assert_eq!(warm.trace.steps().len(), 1);
        assert_eq!(warm.trace.steps()[0].stage, "cache");
        assert!(e.answer(&kb, "!!Hep(Eric)").unwrap().cached);
        // A different KB must not see the entry.
        let other = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.3; Jaun(Eric)").unwrap();
        let r = e.answer(&other, "Hep(Eric)").unwrap();
        assert!(!r.cached);
        assert_eq!(r.belief.as_point(), Some(0.3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn config_mutations_invalidate_cache_entries() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let cache = Arc::new(AnswerCache::new());
        let mut e = engine().with_cache(Arc::clone(&cache));
        assert!(!e.answer(&kb, "Hep(Eric)").unwrap().cached);
        assert!(e.answer(&kb, "Hep(Eric)").unwrap().cached);
        // Any configuration change keys a fresh entry: a stale belief
        // computed under the old budgets/diagonal must never be served.
        e.enum_max_worlds = 1 << 10;
        assert!(!e.answer(&kb, "Hep(Eric)").unwrap().cached);
        e.diagonal = Diagonal::geometric(rw_util::Rat::new(1, 4), 8, 2);
        assert!(!e.answer(&kb, "Hep(Eric)").unwrap().cached);
        // The symmetry flag and scan window are part of the keyspace too.
        e.enum_symmetry = true;
        assert!(!e.answer(&kb, "Hep(Eric)").unwrap().cached);
        e.enum_min_n = Some(3);
        assert!(!e.answer(&kb, "Hep(Eric)").unwrap().cached);
        e.enum_max_n = Some(12);
        assert!(!e.answer(&kb, "Hep(Eric)").unwrap().cached);
        // ...and each configuration's own entry still hits.
        assert!(e.answer(&kb, "Hep(Eric)").unwrap().cached);
        // Sharing the cache across engines keys by configuration: an
        // identically configured engine reuses the entry, a differently
        // configured one (custom stage list) does not.
        let same = engine().with_cache(Arc::clone(&cache));
        assert!(same.answer(&kb, "Hep(Eric)").unwrap().cached);
        let different = engine()
            .with_solvers(vec![Stage::new(Box::new(TheoremSolver))])
            .with_cache(Arc::clone(&cache));
        assert!(!different.answer(&kb, "Hep(Eric)").unwrap().cached);
    }

    #[test]
    fn approx_engines_insert_the_sampling_stage_after_theorems() {
        let e = engine().with_approx(rw_worlds::mc::McConfig::default());
        assert_eq!(
            e.solvers(),
            vec![
                "theorems",
                "montecarlo",
                "maxent",
                "unary-exact",
                "enumeration"
            ]
        );
        // Theorem-answerable queries still bypass the sampler entirely.
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let r = e.answer(&kb, "Hep(Eric)").unwrap();
        assert_eq!(r.provenance, Provenance::DirectInference);
    }

    #[test]
    fn approx_and_exact_answers_never_share_cache_entries() {
        // A binary-predicate KB: exact inference lands on the (cheap at
        // N≤3) enumeration stage, the approx engine on the sampler.
        let kb = KnowledgeBase::parse("Likes(A, B)").unwrap();
        let cache = Arc::new(AnswerCache::new());
        let mut exact = engine().with_cache(Arc::clone(&cache));
        exact.enum_max_worlds = 1 << 13; // clamp enumeration to N=3
        let mut approx = exact
            .clone()
            .with_approx(rw_worlds::mc::McConfig::default());
        approx.diagonal = Diagonal::geometric(rw_util::Rat::new(1, 4), 4, 2);
        let q = "Likes(B, A)";
        let a = approx.answer(&kb, q).unwrap();
        assert!(!a.cached);
        assert!(matches!(a.belief, Belief::Approximate { .. }), "{a}");
        // The exact engine must not be served the sampled belief...
        let e1 = exact.answer(&kb, q).unwrap();
        assert!(
            !e1.cached,
            "approximate entry leaked into the exact keyspace"
        );
        assert!(!matches!(e1.belief, Belief::Approximate { .. }), "{e1}");
        // ...while each keyspace still hits itself.
        assert!(approx.answer(&kb, q).unwrap().cached);
        assert!(exact.answer(&kb, q).unwrap().cached);
        // A different sampling configuration keys differently too...
        let reseeded = RandomWorlds {
            approx: Some(rw_worlds::mc::McConfig {
                seed: 1234,
                ..rw_worlds::mc::McConfig::default()
            }),
            ..approx.clone()
        };
        assert!(!reseeded.answer(&kb, q).unwrap().cached);
        // ...but a different *worker count* does not: threads never
        // affect an answer (sampling is thread-count deterministic), so
        // sessions differing only in threads share cache entries.
        let rethreaded = RandomWorlds {
            approx: Some(rw_worlds::mc::McConfig {
                threads: 4,
                ..rw_worlds::mc::McConfig::default()
            }),
            ..approx.clone()
        };
        assert!(rethreaded.answer(&kb, q).unwrap().cached);
    }

    #[test]
    fn answer_fingerprinted_matches_answer() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let e = engine().with_cache(Arc::new(AnswerCache::new()));
        let fp = rw_logic::canon::kb_fingerprint(&kb);
        let cold = e.answer_fingerprinted(&kb, "Hep(Eric)", fp).unwrap();
        assert!(!cold.cached);
        // Shares the keyspace with the self-fingerprinting entry point.
        assert!(e.answer(&kb, "Hep(Eric)").unwrap().cached);
        let warm = e.answer_fingerprinted(&kb, "!!Hep(Eric)", fp).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.belief, cold.belief);
    }

    #[test]
    fn answer_formula_consults_the_cache_too() {
        let mut kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let e = engine().with_cache(Arc::new(AnswerCache::new()));
        let q = kb.parse_query("Hep(Eric)").unwrap();
        assert!(!e.answer_formula(&kb, &q).unwrap().cached);
        assert!(e.answer_formula(&kb, &q).unwrap().cached);
        // String and formula entry points share one keyspace.
        assert!(e.answer(&kb, "Hep(Eric)").unwrap().cached);
    }

    #[test]
    fn batch_matches_single_query_answers() {
        let kb = KnowledgeBase::parse("||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1")
            .unwrap();
        let queries = ["Black(Clyde)", "Bird(Clyde)"];
        let batch = engine().answer_batch(&kb, &queries);
        for (q, b) in queries.iter().zip(&batch) {
            let single = engine().answer(&kb, q).unwrap();
            assert_eq!(
                single.belief,
                b.as_ref().unwrap().belief,
                "batch diverged on {q}"
            );
        }
    }
}
