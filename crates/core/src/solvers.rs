//! The built-in pipeline stages: theorem engine, Monte-Carlo sampling,
//! maximum entropy, exact unary counting, and brute-force enumeration.
//!
//! Each implements [`Solver`] and is sound on its own; the default
//! [`crate::RandomWorlds`] pipeline runs them in the order above (cheapest
//! and most exact first; the sampling stage only joins when approximate
//! inference is enabled). All are plain public structs so callers can
//! reorder, omit, re-budget, or interleave them with custom solvers via
//! [`crate::RandomWorlds::with_solvers`].

use crate::belief::{Belief, Provenance};
use crate::cache::{DenomCache, DenomKey};
use crate::solver::{Budget, Diagonal, Recurse, Solver, SolverOutcome};
use crate::theorems;
use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances};
use rw_maxent::{LimitOutcome, MaxentError, SweepConfig};
use rw_worlds::mc::{self, McConfig};
use rw_worlds::{ScaledCount, SymmetrySpec};
use std::sync::Arc;
// The diagonal-extrapolation shape is shared with the Monte-Carlo sweep;
// the single implementation lives in `rw_worlds::mc::stats`.
use rw_worlds::mc::stats::extrapolate;

/// Stage 1: the syntactic theorem engine (§5 of the paper).
///
/// Pattern matchers with fully checked side conditions for direct
/// inference, minimal reference classes, the strength rule, Dempster
/// combination, independence products, unique names, and nested defaults.
/// Exact, effectively instant, and the only stage that handles non-unary
/// KBs symbolically — but incomplete: it declines whenever no pattern
/// (soundly) matches.
#[derive(Clone, Copy, Debug, Default)]
pub struct TheoremSolver;

impl Solver for TheoremSolver {
    fn name(&self) -> &str {
        "theorems"
    }

    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        _budget: &Budget,
        recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        match theorems::try_all(kb, query, recurse) {
            Some((belief, provenance)) => SolverOutcome::Answered { belief, provenance },
            None => SolverOutcome::Declined {
                reason: "no theorem pattern matched with verified side conditions".to_string(),
            },
        }
    }
}

/// Stage 2: the maximum-entropy asymptotics for unary KBs (§6).
///
/// Computes the entropy-maximizing atom distribution over a shrinking
/// τ-sweep and classifies the limit (converged / non-robust / infeasible).
/// Declines on KBs outside the essentially-propositional fragment it can
/// compile, or on numeric failure — both of which the exact finite-`N`
/// stages can still handle.
#[derive(Clone, Debug, Default)]
pub struct MaxEntSolver {
    /// The τ-sweep schedule and robustness probing configuration.
    pub sweep: SweepConfig,
}

impl MaxEntSolver {
    /// A maxent stage with the given sweep configuration.
    pub fn new(sweep: SweepConfig) -> MaxEntSolver {
        MaxEntSolver { sweep }
    }
}

impl Solver for MaxEntSolver {
    fn name(&self) -> &str {
        "maxent"
    }

    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        _budget: &Budget,
        _recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        match rw_maxent::degree_of_belief_limit(kb, query, &self.sweep) {
            Ok(LimitOutcome::Converged(v)) => SolverOutcome::Answered {
                belief: Belief::Point(v),
                provenance: Provenance::MaxEnt,
            },
            Ok(LimitOutcome::NonRobust(vs)) => SolverOutcome::Answered {
                belief: Belief::NonRobust(vs),
                provenance: Provenance::MaxEnt,
            },
            // Infeasibility is a *semantic* answer (Definition 4.3: the KB
            // is not eventually consistent), not a failure to apply.
            Ok(LimitOutcome::Infeasible) | Err(MaxentError::Infeasible) => {
                SolverOutcome::Answered {
                    belief: Belief::Undefined,
                    provenance: Provenance::MaxEnt,
                }
            }
            Err(e @ MaxentError::Compile(_)) | Err(e @ MaxentError::Numeric(_)) => {
                SolverOutcome::Declined {
                    reason: e.to_string(),
                }
            }
        }
    }
}

/// The sampling stage: Monte-Carlo estimation of the Definition 4.2
/// fraction along an `N`-sweep, with confidence intervals.
///
/// A bounded-cost, anytime stage for queries that miss every theorem
/// pattern and would otherwise fall into the counting stages (doubly
/// exponential in `N`; on unary KBs the maxent stage behind it is
/// faster, at 20–400 µs per answer). Sampling is KB-aware (asserted
/// facts forced, unary statistics proposed at their nominal rates — see
/// [`rw_worlds::mc::SamplePlan`]), stops adaptively once the 95% CI
/// half-width reaches the configured target, and answers with
/// [`Belief::Approximate`] so the uncertainty is part of the answer.
/// The stage [`Budget`] caps the total draws across the sweep.
///
/// Determinism: for a fixed [`McConfig::seed`] the answer is
/// bit-identical at any [`McConfig::threads`] count.
///
/// Declines when no draw satisfied the KB within the budget — an
/// improbable KB is indistinguishable from an inconsistent one by
/// sampling, so the exact stages get their turn.
#[derive(Clone, Debug, Default)]
pub struct MonteCarloSolver {
    /// Sampler tuning (seed, threads, caps, CI target).
    pub config: McConfig,
    /// The `(τ, N)` sweep points (2–4 domain sizes; the engine passes its
    /// configured diagonal).
    pub diagonal: Diagonal,
}

impl MonteCarloSolver {
    /// A sampling stage with the given configuration and sweep diagonal.
    pub fn new(config: McConfig, diagonal: Diagonal) -> MonteCarloSolver {
        MonteCarloSolver { config, diagonal }
    }
}

impl Solver for MonteCarloSolver {
    fn name(&self) -> &str {
        "montecarlo"
    }

    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        budget: &Budget,
        _recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        // The stage budget is the hard sample cap; the config's own cap
        // still applies if tighter.
        let cap = u64::try_from(budget.max_count.min(u64::MAX as u128)).expect("clamped");
        let cfg = McConfig {
            max_samples: self.config.max_samples.min(cap),
            ..self.config.clone()
        };
        let sweep = mc::estimate_sweep(kb, query, self.diagonal.points(), &cfg);
        match sweep.value {
            Some(value) => SolverOutcome::Answered {
                belief: Belief::Approximate {
                    value,
                    ci_half_width: sweep.ci_half_width.unwrap_or(0.5),
                },
                provenance: Provenance::MonteCarlo {
                    drawn: sweep.drawn,
                    accepted: sweep.accepted,
                    n_points: sweep.points.iter().filter(|p| p.value.is_some()).count(),
                },
            },
            None => SolverOutcome::Declined {
                reason: format!(
                    "no sample satisfied the KB ({} drawn); cannot distinguish an \
                     improbable KB from an inconsistent one",
                    sweep.drawn
                ),
            },
        }
    }
}

/// Stage 3: exact unary profile counting along a `(τ, N)` diagonal.
///
/// Counts atom profiles exactly at each diagonal point and Richardson-
/// extrapolates the geometric τ-schedule. Declines on non-unary
/// vocabularies; reports budget exhaustion when the profile space
/// outgrows the stage budget before any point is computed.
#[derive(Clone, Debug, Default)]
pub struct UnaryDiagonalSolver {
    /// The `(τ, N)` evaluation points.
    pub diagonal: Diagonal,
}

impl UnaryDiagonalSolver {
    /// A unary counting stage over the given diagonal.
    pub fn new(diagonal: Diagonal) -> UnaryDiagonalSolver {
        UnaryDiagonalSolver { diagonal }
    }
}

impl Solver for UnaryDiagonalSolver {
    fn name(&self) -> &str {
        "unary-exact"
    }

    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        budget: &Budget,
        _recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        if !kb.vocab().is_unary() {
            return SolverOutcome::Declined {
                reason: "vocabulary has functions or non-unary predicates".to_string(),
            };
        }
        let engine = rw_unary::UnaryEngine {
            max_profiles: budget.max_count,
        };
        let mut values = Vec::new();
        let mut max_n = 0usize;
        let mut undefined_steps = 0usize;
        let mut budget_hit = None;
        for &(tau, n) in self.diagonal.points() {
            let tol = Tolerances::uniform(tau);
            match engine.degree_of_belief_at(kb, query, n, &tol) {
                Ok(Some(v)) => {
                    values.push(v);
                    max_n = n.max(max_n);
                }
                Ok(None) => undefined_steps += 1,
                Err(e) => {
                    // Budget: extrapolate from the points already computed.
                    budget_hit = Some(e);
                    break;
                }
            }
        }
        if let Some(v) = extrapolate(&values) {
            return SolverOutcome::Answered {
                belief: Belief::Point(v),
                provenance: Provenance::UnaryExact { max_n },
            };
        }
        if undefined_steps > 0 {
            return SolverOutcome::Answered {
                belief: Belief::Undefined,
                provenance: Provenance::UnaryExact { max_n },
            };
        }
        match budget_hit {
            Some(e) => SolverOutcome::BudgetExhausted {
                reason: e.to_string(),
            },
            None => SolverOutcome::Declined {
                reason: "no diagonal point produced a value".to_string(),
            },
        }
    }
}

/// Stage 4: exact world counting along the diagonal (small `N`).
///
/// The last resort for non-unary KBs: compute the Definition 4.2 ratio
/// `#(KB ∧ query) / #KB` exactly at the two largest reachable domain
/// sizes and extrapolate the `O(1/N)` error term.
///
/// By default the counts come from the **compiled branch-and-count**
/// engine ([`rw_worlds::count`]): the KB and query are lowered once per
/// `(query, N)` into slot programs and counted by pruned search with
/// free-slot multiplication, so the stage [`Budget`] bounds *visited
/// search nodes* rather than interpretations — reaching domain sizes and
/// vocabularies (several binary predicates, functions) that blind
/// odometer enumeration never could. The `#KB` denominator is shared
/// across queries through an optional [`DenomCache`]. Counting is
/// bit-deterministic at any [`Self::threads`] count.
///
/// When [`Self::symmetry`] is set and the formula falls inside the
/// symmetry fragment ([`rw_worlds::SymmetrySpec`]), counting switches to
/// **orbit enumeration** over the unnamed-element group: polynomially
/// many weighted representatives instead of `2^(N²)` branches, which
/// lets the rising-`N` scan climb toward `N ≈ 40` instead of 8. Outside
/// the fragment the stage falls back to plain branch-and-count
/// unchanged.
///
/// Setting [`Self::compiled`] to `false` restores the historical
/// odometer path (`for_each_world`), kept as the oracle the compiled
/// engine is cross-checked against; there the budget bounds
/// interpretations, as before.
#[derive(Clone, Debug)]
pub struct EnumerationDiagonalSolver {
    /// The diagonal whose finest tolerance the counts evaluate at.
    pub diagonal: Diagonal,
    /// Use the compiled branch-and-count engine (default). `false`
    /// selects the naive odometer oracle.
    pub compiled: bool,
    /// Enable symmetry-reduced orbit counting for formulas inside the
    /// supported fragment (off by default; plain counting remains the
    /// fallback either way).
    pub symmetry: bool,
    /// Smallest domain size of the rising-`N` scan (`None` = 2; values
    /// below 2 are clamped up — `N = 1` has no extrapolation line).
    pub min_n: Option<usize>,
    /// Largest domain size the scan may attempt (`None` = the mode
    /// default: [`MAX_COMPILED_N`] plain, [`MAX_SYMMETRY_N`] when the
    /// symmetry mode applies). The scan still stops earlier when the
    /// visited budget would not survive the next point.
    pub max_n: Option<usize>,
    /// Worker threads for compiled counting (0 = one per core). Never
    /// affects an answer or its trace counters — counting is
    /// chunk-deterministic — so it is excluded from cache fingerprints.
    pub threads: usize,
    /// Shared cache of `#worlds_N^τ(KB)` denominators, so a sweep point's
    /// denominator is counted once per KB instead of once per query.
    pub denom_cache: Option<Arc<DenomCache>>,
}

impl Default for EnumerationDiagonalSolver {
    fn default() -> EnumerationDiagonalSolver {
        EnumerationDiagonalSolver {
            diagonal: Diagonal::default(),
            compiled: true,
            symmetry: false,
            min_n: None,
            max_n: None,
            threads: 1,
            denom_cache: None,
        }
    }
}

/// The largest domain size the plain compiled scan will attempt by
/// default. The rising-N scan stops earlier when the growth prediction
/// says the budget would not survive the next point.
pub const MAX_COMPILED_N: usize = 8;

/// The default ceiling of the symmetry-mode scan: representatives grow
/// polynomially, so the diagonal climbs far past [`MAX_COMPILED_N`]
/// before the budget bites.
pub const MAX_SYMMETRY_N: usize = 40;

/// Hard ceiling any configured `--max-n` is validated against (slot
/// values are `u8`, so plain counting cannot exceed `N = 254` anyway).
pub const MAX_SCAN_N: usize = 64;

impl EnumerationDiagonalSolver {
    /// A counting stage over the given diagonal, with the compiled
    /// engine enabled and no shared denominator cache.
    pub fn new(diagonal: Diagonal) -> EnumerationDiagonalSolver {
        EnumerationDiagonalSolver {
            diagonal,
            ..EnumerationDiagonalSolver::default()
        }
    }

    /// Builder: attach a shared denominator cache.
    pub fn with_denom_cache(mut self, cache: Arc<DenomCache>) -> EnumerationDiagonalSolver {
        self.denom_cache = Some(cache);
        self
    }

    /// One `(value, numerator-effort)` diagonal point at domain size `n`,
    /// or the counting error that stopped it. `Ok(None)` means the KB is
    /// unsatisfiable at this size (the degree of belief is undefined
    /// there — Definition 4.2).
    ///
    /// The numerator runs first under the (per-`N` laddered)
    /// `num_budget`; the denominator runs under the *full stage budget*
    /// and is shared through the [`DenomCache`]. Keeping the
    /// denominator's budget fixed — and part of its cache key — makes a
    /// point's outcome independent of cache warmth: a hit can only ever
    /// replace a count that would have succeeded anyway.
    #[allow(clippy::too_many_arguments)]
    fn compiled_point(
        &self,
        kb: &KnowledgeBase,
        n: usize,
        tol: &Tolerances,
        tau: rw_util::Rat,
        kb_formula: &Formula,
        num_prog: &rw_worlds::Program,
        num_budget: u64,
        full_budget: u64,
        fingerprints: Option<(u64, u64)>,
    ) -> Result<(Option<f64>, rw_worlds::CountOutcome), rw_worlds::CountError> {
        let numerator = rw_worlds::count_models(
            num_prog,
            &rw_worlds::CountOptions {
                max_visited: num_budget,
                threads: self.threads,
            },
        )?;
        let key = fingerprints.map(|(kb_fp, vocab_fp)| DenomKey {
            kb_fingerprint: kb_fp,
            vocab_fingerprint: vocab_fp,
            n,
            tau: (tau.num(), tau.den()),
            budget: full_budget,
            symmetry: false,
        });
        let cached = key
            .as_ref()
            .and_then(|k| self.denom_cache.as_ref().and_then(|c| c.get(k)));
        let denominator = match cached {
            Some(count) => count.exact().expect("plain counts fit u128"),
            None => {
                let out = rw_worlds::count_formula_models(
                    kb.vocab(),
                    n,
                    tol,
                    kb_formula,
                    &rw_worlds::CountOptions {
                        max_visited: full_budget,
                        threads: self.threads,
                    },
                )?;
                if let (Some(k), Some(cache)) = (key, self.denom_cache.as_ref()) {
                    cache.insert(k, ScaledCount::from_u128(out.count));
                }
                out.count
            }
        };
        let value = if denominator == 0 {
            None
        } else {
            Some(numerator.count as f64 / denominator as f64)
        };
        Ok((value, numerator))
    }

    /// One symmetry-mode diagonal point: numerator and denominator come
    /// from weighted orbit enumeration instead of branch-and-count, with
    /// the same budget discipline (laddered numerator, full-budget
    /// cacheable denominator keyed with `symmetry: true`). Returns the
    /// point value and the numerator's representative count.
    #[allow(clippy::too_many_arguments)]
    fn symmetry_point(
        &self,
        num_spec: &SymmetrySpec,
        kb_spec: &SymmetrySpec,
        n: usize,
        tol: &Tolerances,
        tau: rw_util::Rat,
        num_budget: u64,
        full_budget: u64,
        fingerprints: Option<(u64, u64)>,
    ) -> Result<(Option<f64>, u64), rw_worlds::CountError> {
        let numerator = num_spec.count(
            n,
            tol,
            &rw_worlds::CountOptions {
                max_visited: num_budget,
                threads: self.threads,
            },
        )?;
        let key = fingerprints.map(|(kb_fp, vocab_fp)| DenomKey {
            kb_fingerprint: kb_fp,
            vocab_fingerprint: vocab_fp,
            n,
            tau: (tau.num(), tau.den()),
            budget: full_budget,
            symmetry: true,
        });
        let cached = key
            .as_ref()
            .and_then(|k| self.denom_cache.as_ref().and_then(|c| c.get(k)));
        let denominator = match cached {
            Some(count) => count,
            None => {
                let out = kb_spec.count(
                    n,
                    tol,
                    &rw_worlds::CountOptions {
                        max_visited: full_budget,
                        threads: self.threads,
                    },
                )?;
                if let (Some(k), Some(cache)) = (key, self.denom_cache.as_ref()) {
                    cache.insert(k, out.count);
                }
                out.count
            }
        };
        Ok((
            ScaledCount::ratio(&numerator.count, &denominator),
            numerator.reps,
        ))
    }

    /// The `[min, max]` domain sizes the rising-`N` scan covers, after
    /// clamping: the floor never drops below 2 (no extrapolation line
    /// through `N = 1`) and the ceiling never drops below the floor.
    fn scan_bounds(&self, symmetry_applies: bool) -> (usize, usize) {
        let default_max = if symmetry_applies {
            MAX_SYMMETRY_N
        } else {
            MAX_COMPILED_N
        };
        let min = self.min_n.unwrap_or(2).max(2);
        let max = self.max_n.unwrap_or(default_max).max(min);
        (min, max)
    }

    fn solve_compiled(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        budget: &Budget,
    ) -> SolverOutcome {
        let tau = self.diagonal.finest_tau();
        let tol = Tolerances::uniform(tau);
        let kb_formula = kb.as_formula();
        let numerator_formula = Formula::and(kb_formula.clone(), query.clone());
        let max_visited = u64::try_from(budget.max_count.min(u64::MAX as u128)).expect("clamped");
        let fingerprints = self.denom_cache.as_ref().map(|_| {
            (
                rw_logic::canon::kb_fingerprint(kb),
                rw_logic::canon::vocab_fingerprint(kb.vocab()),
            )
        });

        // Symmetry mode engages only when *both* formulas land in the
        // orbit-counting fragment — the ratio must divide counts produced
        // by the same method. Otherwise fall back to plain
        // branch-and-count, identical to the symmetry-off configuration.
        let specs = if self.symmetry {
            SymmetrySpec::detect(kb.vocab(), &numerator_formula)
                .zip(SymmetrySpec::detect(kb.vocab(), &kb_formula))
        } else {
            None
        };
        let (min_n, max_n) = self.scan_bounds(specs.is_some());

        let mut points: Vec<(usize, Option<f64>)> = Vec::new();
        let mut visited = 0u64;
        let mut branched = 0u64;
        let mut orbits = 0u64;
        let mut failure: Option<String> = None;
        let mut prev_effort: u64 = 0;
        for n in min_n..=max_n {
            // Iterative deepening up the diagonal: the first point's
            // numerator gets the whole budget, every later one a
            // generous multiple of the previous point's *measured*
            // effort. A point that blows through that allowance is
            // growing doubly-exponentially — stop with the points in
            // hand instead of burning the full budget to learn the same
            // thing. Deterministic: effort counts are thread-count
            // invariant and the (cached) denominator plays no part.
            let num_budget = if points.is_empty() {
                max_visited
            } else {
                prev_effort.max(64).saturating_mul(1024).min(max_visited)
            };
            let step = match specs.as_ref() {
                Some((num_spec, kb_spec)) => self
                    .symmetry_point(
                        num_spec,
                        kb_spec,
                        n,
                        &tol,
                        tau,
                        num_budget,
                        max_visited,
                        fingerprints,
                    )
                    .map(|(value, reps)| {
                        orbits += reps;
                        (value, reps)
                    }),
                None => {
                    let Some(num_prog) =
                        rw_worlds::Program::compile(kb.vocab(), n, &tol, &numerator_formula)
                    else {
                        failure = Some(format!("slot space at N={n} overflows the machine"));
                        break;
                    };
                    self.compiled_point(
                        kb,
                        n,
                        &tol,
                        tau,
                        &kb_formula,
                        &num_prog,
                        num_budget,
                        max_visited,
                        fingerprints,
                    )
                    .map(|(value, effort)| {
                        visited += effort.visited;
                        branched += effort.branched;
                        (value, effort.visited)
                    })
                }
            };
            match step {
                Ok((value, effort)) => {
                    points.push((n, value));
                    prev_effort = effort;
                }
                Err(e) => {
                    failure = Some(format!("counting at N={n} failed: {e}"));
                    break;
                }
            }
        }

        let provenance = |max_n: usize| Provenance::Enumeration {
            max_n,
            visited,
            branched,
            orbits,
        };
        match points.len() {
            0 => SolverOutcome::BudgetExhausted {
                reason: failure.unwrap_or_else(|| {
                    format!("even N={min_n} exceeded the {max_visited}-node visit budget")
                }),
            },
            // A single reachable size has nothing to extrapolate from —
            // the line through N=1 runs off the domain — so use the
            // point value.
            1 => match points[0] {
                (n, Some(v)) => SolverOutcome::Answered {
                    belief: Belief::Point(v),
                    provenance: provenance(n),
                },
                (n, None) => SolverOutcome::Answered {
                    belief: Belief::Undefined,
                    provenance: provenance(n),
                },
            },
            len => {
                let (n_lo, v_lo) = points[len - 2];
                let (n_hi, v_hi) = points[len - 1];
                match (v_lo, v_hi) {
                    (Some(v_lo), Some(v_hi)) => {
                        // v(N) = v∞ + c/N  ⇒
                        // v∞ = v_hi + (v_hi − v_lo)·(1/N_hi)/(1/N_lo − 1/N_hi).
                        let inv_lo = 1.0 / n_lo as f64;
                        let inv_hi = 1.0 / n_hi as f64;
                        let v = v_hi + (v_hi - v_lo) * inv_hi / (inv_lo - inv_hi);
                        SolverOutcome::Answered {
                            belief: Belief::Point(v.clamp(0.0, 1.0)),
                            provenance: provenance(n_hi),
                        }
                    }
                    (None, None) => SolverOutcome::Answered {
                        belief: Belief::Undefined,
                        provenance: provenance(n_hi),
                    },
                    (Some(_), None) | (None, Some(_)) => SolverOutcome::Declined {
                        reason: format!(
                            "inconsistent satisfiability between N={n_lo} and N={n_hi}"
                        ),
                    },
                }
            }
        }
    }

    /// The historical odometer path: enumerate every interpretation at
    /// the two largest sizes whose world count fits the budget.
    fn solve_oracle(&self, kb: &KnowledgeBase, query: &Formula, budget: &Budget) -> SolverOutcome {
        // The scan window honors the same `min_n`/`max_n` contract as
        // the compiled path (a pinned window makes both modes
        // extrapolate from the same diagonal points, so their answers
        // are bit-identical when both complete it), intersected with
        // the odometer's own hard ceiling — blind enumeration is doubly
        // exponential, so sizes past 6 are never feasible anyway.
        const MAX_ORACLE_N: usize = 6;
        let (min_n, max_n) = self.scan_bounds(false);
        let max_n = max_n.min(MAX_ORACLE_N).max(min_n);
        // Largest feasible size within the world budget.
        let mut n_hi = None;
        for n in (min_n..=max_n).rev() {
            if let Some(c) = rw_worlds::count_interpretations(kb.vocab(), n) {
                if c <= budget.max_count {
                    n_hi = Some(n);
                    break;
                }
            }
        }
        let Some(n_hi) = n_hi else {
            return SolverOutcome::BudgetExhausted {
                reason: format!(
                    "even N={min_n} needs more than {} interpretations",
                    budget.max_count
                ),
            };
        };
        let provenance = |max_n: usize| Provenance::Enumeration {
            max_n,
            visited: 0,
            branched: 0,
            orbits: 0,
        };
        let tol = Tolerances::uniform(self.diagonal.finest_tau());
        let eval = |n: usize| {
            rw_worlds::enumerate::degree_of_belief_at_bounded(kb, query, n, &tol, budget.max_count)
        };
        // The dominant error term is O(1/N): evaluate at the two largest
        // feasible sizes and extrapolate linearly in 1/N. A one-point
        // "diagonal" (n_hi == 2) has nothing to extrapolate from — the
        // line through N=1 runs off the domain — so use the point value.
        let n_lo = n_hi - 1;
        if n_lo < 2 {
            return match eval(n_hi) {
                Ok(Some(v)) => SolverOutcome::Answered {
                    belief: Belief::Point(v),
                    provenance: provenance(n_hi),
                },
                Ok(None) => SolverOutcome::Answered {
                    belief: Belief::Undefined,
                    provenance: provenance(n_hi),
                },
                Err(e) => SolverOutcome::BudgetExhausted {
                    reason: e.to_string(),
                },
            };
        }
        match (eval(n_lo), eval(n_hi)) {
            (Ok(Some(v_lo)), Ok(Some(v_hi))) => {
                // v(N) = v∞ + c/N  ⇒
                // v∞ = v_hi + (v_hi − v_lo)·(1/N_hi)/(1/N_lo − 1/N_hi).
                let inv_lo = 1.0 / n_lo as f64;
                let inv_hi = 1.0 / n_hi as f64;
                let v = v_hi + (v_hi - v_lo) * inv_hi / (inv_lo - inv_hi);
                SolverOutcome::Answered {
                    belief: Belief::Point(v.clamp(0.0, 1.0)),
                    provenance: provenance(n_hi),
                }
            }
            (Ok(None), Ok(None)) => SolverOutcome::Answered {
                belief: Belief::Undefined,
                provenance: provenance(n_hi),
            },
            (Err(e), _) | (_, Err(e)) => SolverOutcome::BudgetExhausted {
                reason: e.to_string(),
            },
            (Ok(Some(_)), Ok(None)) | (Ok(None), Ok(Some(_))) => SolverOutcome::Declined {
                reason: format!("inconsistent satisfiability between N={n_lo} and N={n_hi}"),
            },
        }
    }
}

impl Solver for EnumerationDiagonalSolver {
    fn name(&self) -> &str {
        "enumeration"
    }

    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        budget: &Budget,
        _recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        if self.compiled {
            self.solve_compiled(kb, query, budget)
        } else {
            self.solve_oracle(kb, query, budget)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_recurse() -> impl Fn(&KnowledgeBase, &Formula) -> Option<(Belief, Provenance)> {
        |_, _| None
    }

    fn parsed(kb_src: &str, q_src: &str) -> (KnowledgeBase, Formula) {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let q = kb.parse_query(q_src).unwrap();
        (kb, q)
    }

    #[test]
    fn theorem_solver_answers_direct_inference_and_declines_otherwise() {
        let s = TheoremSolver;
        let (kb, q) = parsed("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Hep(Eric)");
        match s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                assert_eq!(belief.as_point(), Some(0.8));
                assert_eq!(provenance, Provenance::DirectInference);
            }
            other => panic!("{other:?}"),
        }
        let (kb, q) = parsed("||Black(x) | Bird(x)||_x ~=_1 0.2", "Black(C)");
        assert!(matches!(
            s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()),
            SolverOutcome::Declined { .. }
        ));
    }

    #[test]
    fn maxent_solver_declines_non_unary() {
        let s = MaxEntSolver::default();
        let (kb, q) = parsed("Likes(A, B)", "Likes(B, A)");
        assert!(matches!(
            s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()),
            SolverOutcome::Declined { .. }
        ));
    }

    #[test]
    fn unary_solver_reports_budget_exhaustion() {
        let s = UnaryDiagonalSolver::default();
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.5", "P(C)");
        match s.solve(&kb, &q, &Budget::counting(1), &no_recurse()) {
            SolverOutcome::BudgetExhausted { reason } => {
                assert!(reason.contains("budget"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_solver_declines_binary_vocabulary() {
        let s = UnaryDiagonalSolver::default();
        let (kb, q) = parsed("Likes(A, B)", "Likes(B, A)");
        assert!(matches!(
            s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()),
            SolverOutcome::Declined { .. }
        ));
    }

    fn oracle_solver() -> EnumerationDiagonalSolver {
        EnumerationDiagonalSolver {
            compiled: false,
            ..EnumerationDiagonalSolver::default()
        }
    }

    #[test]
    fn enumeration_single_point_fallback_when_only_n2_fits() {
        // Oracle mode, budget below the N=3 world count but above N=2:
        // the solver must use the single-point value instead of
        // extrapolating off N=1.
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.5", "P(C)");
        let n2 = rw_worlds::count_interpretations(kb.vocab(), 2).unwrap();
        let n3 = rw_worlds::count_interpretations(kb.vocab(), 3).unwrap();
        assert!(n2 < n3);
        let s = oracle_solver();
        match s.solve(&kb, &q, &Budget::counting(n2), &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                assert_eq!(
                    provenance,
                    Provenance::Enumeration {
                        max_n: 2,
                        visited: 0,
                        branched: 0,
                        orbits: 0
                    }
                );
                let v = belief.as_point().unwrap();
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compiled_counting_matches_the_oracle_where_both_reach() {
        // At a budget where oracle enumeration picks the same (N-1, N)
        // pair, the compiled engine's counts are exactly equal, so the
        // extrapolated beliefs are bit-identical.
        // KBs satisfiable at *every* N (a τ-tight statistic like
        // `||P||_x ≈ 0.5` is unsatisfiable at odd N, which makes the
        // deeper compiled scan legitimately decline).
        for (kb_src, q_src) in [
            ("Likes(A, B)", "Likes(B, A)"),
            ("P(C) or Q(C)", "P(C) & Q(C)"),
        ] {
            let (kb, q) = parsed(kb_src, q_src);
            let oracle = oracle_solver();
            // Clamp both to the oracle's N=4 reach (2^18 interpretations
            // covers the Likes KB at N=4, not N=5).
            let oracle_out = oracle.solve(&kb, &q, &Budget::counting(1 << 18), &no_recurse());
            let SolverOutcome::Answered {
                belief: oracle_belief,
                provenance: Provenance::Enumeration { max_n, .. },
            } = oracle_out
            else {
                panic!("{oracle_out:?}");
            };
            let compiled = EnumerationDiagonalSolver::default();
            let compiled_out = compiled.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse());
            let SolverOutcome::Answered {
                belief: compiled_belief,
                provenance:
                    Provenance::Enumeration {
                        max_n: compiled_n,
                        visited,
                        ..
                    },
            } = compiled_out
            else {
                panic!("{compiled_out:?}");
            };
            assert!(compiled_n >= max_n, "{kb_src}: {compiled_n} < {max_n}");
            assert!(visited > 0, "{kb_src}: compiled mode must report effort");
            // Both extrapolate v(N) = v∞ + c/N; deeper N can only move
            // the estimate closer to the true limit. These shapes are
            // exactly linear in 1/N, so the values agree tightly.
            let (a, b) = (
                oracle_belief.as_point().unwrap(),
                compiled_belief.as_point().unwrap(),
            );
            assert!((a - b).abs() < 1e-9, "{kb_src}: oracle {a} vs compiled {b}");
        }
    }

    #[test]
    fn compiled_counting_reaches_vocabularies_the_oracle_cannot() {
        // Three binary predicates: 3·2^(N²) interpretations put even N=2
        // beyond a 2^12 world budget, but branch-and-count answers well
        // within the same number as a *visited-node* budget.
        let (kb, q) = parsed(
            "Likes(A, B); Knows(B, C); Admires(C, A)",
            "Likes(B, A) & Knows(A, B)",
        );
        let oracle = oracle_solver();
        assert!(matches!(
            oracle.solve(&kb, &q, &Budget::counting(1 << 12), &no_recurse()),
            SolverOutcome::BudgetExhausted { .. }
        ));
        let compiled = EnumerationDiagonalSolver::default();
        match compiled.solve(&kb, &q, &Budget::counting(1 << 12), &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                let Provenance::Enumeration { max_n, visited, .. } = provenance else {
                    panic!("{provenance:?}");
                };
                assert!(max_n >= 3, "{max_n}");
                // `visited` totals the numerator effort across every
                // diagonal point; each point individually respected the
                // 2^12 budget.
                assert!(visited > 0, "{visited}");
                // Independent bits: Pr(Likes(B,A) ∧ Knows(A,B)) → 1/4
                // (plus O(1/N) constant-collision terms the
                // extrapolation removes).
                let v = belief.as_point().unwrap();
                assert!((v - 0.25).abs() < 0.05, "{v}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn denominator_cache_is_filled_and_shared_across_queries() {
        let (mut kb, q) = parsed("Likes(A, B)", "Likes(B, A)");
        let cache = Arc::new(DenomCache::new());
        let s = EnumerationDiagonalSolver::default().with_denom_cache(Arc::clone(&cache));
        let first = s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse());
        assert!(matches!(first, SolverOutcome::Answered { .. }), "{first:?}");
        let filled = cache.len();
        assert!(filled >= 2, "one denominator per diagonal point: {filled}");
        // A second query against the same KB recounts nothing in the
        // denominator: the cache does not grow.
        let q2 = kb.parse_query("!Likes(B, A)").unwrap();
        let second = s.solve(&kb, &q2, &Budget::UNLIMITED, &no_recurse());
        assert!(
            matches!(second, SolverOutcome::Answered { .. }),
            "{second:?}"
        );
        assert_eq!(cache.len(), filled);
    }

    #[test]
    fn compiled_counting_is_thread_count_invariant() {
        // A bounded budget, not UNLIMITED: the visited-node budget is
        // also what stops the rising-N scan (an unbounded scan on a
        // binary statistic would try to count 2^(N²) branches).
        let budget = Budget::counting(1 << 18);
        let (kb, q) = parsed(
            "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)",
            "Likes(B, A)",
        );
        let base = EnumerationDiagonalSolver::default();
        let reference = base.solve(&kb, &q, &budget, &no_recurse());
        assert!(
            matches!(reference, SolverOutcome::Answered { .. }),
            "{reference:?}"
        );
        for threads in [2usize, 4, 0] {
            let s = EnumerationDiagonalSolver {
                threads,
                ..EnumerationDiagonalSolver::default()
            };
            let out = s.solve(&kb, &q, &budget, &no_recurse());
            assert_eq!(out, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn montecarlo_answers_with_ci_and_counts() {
        let (kb, q) = parsed(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
            "Hep(Eric) & Hep(Tom)",
        );
        let s = MonteCarloSolver::default();
        match s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                let Belief::Approximate {
                    value,
                    ci_half_width,
                } = belief
                else {
                    panic!("{belief:?}");
                };
                assert!((0.0..=1.0).contains(&value), "{value}");
                assert!(ci_half_width > 0.0);
                let Provenance::MonteCarlo {
                    drawn,
                    accepted,
                    n_points,
                } = provenance
                else {
                    panic!();
                };
                assert!(drawn > 0 && accepted > 0 && n_points > 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn montecarlo_budget_caps_the_draws() {
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.6", "P(C)");
        let s = MonteCarloSolver::default();
        match s.solve(&kb, &q, &Budget::counting(4096), &no_recurse()) {
            SolverOutcome::Answered { provenance, .. } => match provenance {
                Provenance::MonteCarlo { drawn, .. } => assert!(drawn <= 4096, "{drawn}"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn montecarlo_declines_on_unsatisfiable_kb() {
        let (kb, q) = parsed("P(C) & !P(C)", "P(C)");
        let s = MonteCarloSolver::default();
        match s.solve(&kb, &q, &Budget::counting(2048), &no_recurse()) {
            SolverOutcome::Declined { reason } => {
                assert!(reason.contains("no sample satisfied"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
    }

    fn symmetry_solver() -> EnumerationDiagonalSolver {
        EnumerationDiagonalSolver {
            symmetry: true,
            ..EnumerationDiagonalSolver::default()
        }
    }

    #[test]
    fn symmetry_mode_matches_plain_counting_over_the_same_scan() {
        // Clamp both modes to the same rising-N range: the counts agree
        // exactly (proved against the odometer in rw-worlds), both ratio
        // paths divide the same u128s, so the beliefs are bit-identical.
        // KBs satisfiable at *every* scanned N (a τ-tight `≈ 0.5`
        // statistic is unsatisfiable when no integer lands in the
        // interval, which makes both modes legitimately decline).
        for (kb_src, q_src) in [
            ("P(C) or Q(C)", "P(C) & Q(C)"),
            ("||P(x)||_x ~=_1 1; Likes(A, B)", "Likes(B, A) & P(A)"),
        ] {
            let (kb, q) = parsed(kb_src, q_src);
            let plain = EnumerationDiagonalSolver {
                max_n: Some(6),
                ..EnumerationDiagonalSolver::default()
            };
            let sym = EnumerationDiagonalSolver {
                max_n: Some(6),
                ..symmetry_solver()
            };
            let plain_out = plain.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse());
            let sym_out = sym.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse());
            let SolverOutcome::Answered {
                belief: plain_belief,
                ..
            } = plain_out
            else {
                panic!("{kb_src}: {plain_out:?}");
            };
            let SolverOutcome::Answered {
                belief: sym_belief,
                provenance: Provenance::Enumeration { orbits, .. },
            } = sym_out
            else {
                panic!("{kb_src}: {sym_out:?}");
            };
            assert!(orbits > 0, "{kb_src}: symmetry mode must report orbits");
            assert_eq!(plain_belief.as_point(), sym_belief.as_point(), "{kb_src}");
        }
    }

    #[test]
    fn symmetry_mode_reaches_deep_domains_within_the_default_budget() {
        // The acceptance bar: one unary and one unary+binary KB past
        // N = 32 under the default visited budget — domain sizes plain
        // branch-and-count cannot approach (2^(N²) branches).
        for (kb_src, q_src) in [
            ("||P(x)||_x ~=_1 0.5; P(C)", "P(C)"),
            ("||P(x)||_x ~=_1 0.5; Likes(A, B); P(A)", "Likes(B, A)"),
        ] {
            let (kb, q) = parsed(kb_src, q_src);
            let s = symmetry_solver();
            let budget = Budget::counting(rw_worlds::count::DEFAULT_MAX_VISITED.into());
            match s.solve(&kb, &q, &budget, &no_recurse()) {
                SolverOutcome::Answered { belief, provenance } => {
                    let Provenance::Enumeration { max_n, orbits, .. } = provenance else {
                        panic!("{kb_src}: {provenance:?}");
                    };
                    assert!(max_n >= 32, "{kb_src}: only reached N={max_n}");
                    assert!(orbits > 0, "{kb_src}");
                    let v = belief.as_point().unwrap();
                    assert!((0.0..=1.0).contains(&v), "{kb_src}: {v}");
                }
                other => panic!("{kb_src}: {other:?}"),
            }
        }
    }

    #[test]
    fn symmetry_mode_is_thread_count_invariant() {
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.5; Likes(A, B); P(A)", "Likes(B, A)");
        let budget = Budget::counting(rw_worlds::count::DEFAULT_MAX_VISITED.into());
        let reference = symmetry_solver().solve(&kb, &q, &budget, &no_recurse());
        assert!(
            matches!(reference, SolverOutcome::Answered { .. }),
            "{reference:?}"
        );
        for threads in [2usize, 4, 0] {
            let s = EnumerationDiagonalSolver {
                threads,
                ..symmetry_solver()
            };
            let out = s.solve(&kb, &q, &budget, &no_recurse());
            assert_eq!(out, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn symmetry_mode_falls_back_to_plain_counting_outside_the_fragment() {
        // A binary *statistic* is outside the orbit fragment: the
        // symmetry-enabled solver must produce the exact plain outcome,
        // trace counters included.
        let budget = Budget::counting(1 << 18);
        let (kb, q) = parsed(
            "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)",
            "Likes(B, A)",
        );
        let plain = EnumerationDiagonalSolver::default().solve(&kb, &q, &budget, &no_recurse());
        let sym = symmetry_solver().solve(&kb, &q, &budget, &no_recurse());
        assert_eq!(sym, plain);
    }

    #[test]
    fn scan_bounds_honor_the_configured_window() {
        let (kb, q) = parsed("Likes(A, B)", "Likes(B, A)");
        let s = EnumerationDiagonalSolver {
            min_n: Some(3),
            max_n: Some(4),
            ..EnumerationDiagonalSolver::default()
        };
        match s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()) {
            SolverOutcome::Answered { provenance, .. } => {
                let Provenance::Enumeration { max_n, .. } = provenance else {
                    panic!("{provenance:?}");
                };
                assert_eq!(max_n, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn enumeration_budget_exhaustion_below_n2() {
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.5", "P(C)");
        for s in [EnumerationDiagonalSolver::default(), oracle_solver()] {
            assert!(
                matches!(
                    s.solve(&kb, &q, &Budget::counting(1), &no_recurse()),
                    SolverOutcome::BudgetExhausted { .. }
                ),
                "compiled={}",
                s.compiled
            );
        }
    }
}
