//! Asymptotic degrees of belief from maximum entropy: the τ-sweep.
//!
//! For a compiled unary KB, `lim_{N→∞} Pr_N^τ(φ|KB)` is the conditional
//! probability of `φ` at the entropy-maximizing point of `S(KB)[τ⃗]` (paper
//! §6 / GHK94). The outer limit `τ⃗ → 0` is computed by sweeping shrinking
//! tolerance vectors and extrapolating.
//!
//! **Robustness probing.** The paper (§5.3) shows the limit can depend on
//! *how* `τ⃗ → 0` when defaults conflict: shrinking `τ₁` faster than `τ₂`
//! prioritizes default 1. We therefore run one sweep with uniform shrinkage
//! and one extra sweep per tolerance index in which that index shrinks
//! quadratically faster. If all sweeps agree the limit exists; otherwise the
//! outcome is [`LimitOutcome::NonRobust`] with the candidate values —
//! mirroring the paper's diagnosis that conflicting defaults of unspecified
//! relative strength have no robust degree of belief (the Nixon diamond),
//! while *equal* strengths (a shared `≈_i`) give 1/2.

use crate::constraints::{compile, CompileError, UnaryConstraintSystem};
use crate::entropy::{DualSolution, EntropyError};
use rw_logic::analysis;
use rw_logic::ast::{Formula, TolId};
use rw_logic::{ConstId, KnowledgeBase, Pretty, Tolerances};
use rw_unary::atoms::{atom_count, compile_atom_set_const};
use rw_unary::AtomSet;
use rw_util::Rat;
use std::collections::BTreeMap;

/// Configuration of the τ-sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Initial tolerance vector.
    pub tau0: Tolerances,
    /// Per-step shrink factor.
    pub factor: Rat,
    /// Number of sweep steps.
    pub steps: usize,
    /// Run the asymmetric-shrinkage probes for robustness.
    pub probe_asymmetry: bool,
    /// Agreement threshold between probes.
    pub agreement: f64,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            tau0: Tolerances::uniform(Rat::new(1, 16)),
            factor: Rat::new(1, 2),
            steps: 8,
            probe_asymmetry: true,
            agreement: 0.02,
        }
    }
}

/// The classified limit.
#[derive(Clone, Debug, PartialEq)]
pub enum LimitOutcome {
    /// The limit exists (up to numerical tolerance).
    Converged(f64),
    /// Different shrinkage paths give different limits (conflicting
    /// defaults of unspecified relative strength, paper §5.3).
    NonRobust(Vec<f64>),
    /// The KB is not eventually consistent: no worlds satisfy it for small
    /// τ⃗ and large N, so no degree of belief exists (Definition 4.3).
    Infeasible,
}

/// Computes the maximum-entropy point of `S(KB)` at a concrete tolerance
/// vector (all atoms; pinned atoms are zero).
pub fn maxent_point(kb: &KnowledgeBase, tol: &Tolerances) -> Result<Vec<f64>, MaxentError> {
    let sys = compile(kb, tol)?;
    solve_system(&sys)
}

/// Errors: compilation failures (caller should fall back to exact engines)
/// or infeasibility (a semantic outcome).
#[derive(Clone, Debug, PartialEq)]
pub enum MaxentError {
    Compile(CompileError),
    Infeasible,
    Numeric(String),
}

impl From<CompileError> for MaxentError {
    fn from(e: CompileError) -> MaxentError {
        MaxentError::Compile(e)
    }
}

impl std::fmt::Display for MaxentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaxentError::Compile(e) => write!(f, "{e}"),
            MaxentError::Infeasible => write!(f, "knowledge base is not eventually consistent"),
            MaxentError::Numeric(s) => write!(f, "numeric failure: {s}"),
        }
    }
}

impl std::error::Error for MaxentError {}

fn solve_system(sys: &UnaryConstraintSystem) -> Result<Vec<f64>, MaxentError> {
    solve_system_warm(sys, None).map(|s| s.point)
}

fn solve_system_warm(
    sys: &UnaryConstraintSystem,
    warm: Option<&[f64]>,
) -> Result<DualSolution, MaxentError> {
    if sys.exists_violated() {
        return Err(MaxentError::Infeasible);
    }
    // Feasibility first: the dual ascent cannot certify an empty polytope.
    let (a, b) = sys.lp_rows();
    match crate::simplex::solve_lp(&vec![0.0; sys.atoms], &a, &b) {
        crate::simplex::LpResult::Infeasible => return Err(MaxentError::Infeasible),
        crate::simplex::LpResult::Unbounded => {
            return Err(MaxentError::Numeric("polytope unbounded".to_string()))
        }
        crate::simplex::LpResult::Optimal { .. } => {}
    }
    // Existential conjuncts need their witness class to be able to carry
    // *positive* proportion; if the linear rows force it to zero (Poole's
    // partition-of-exceptions KB, paper §5.5), no world of large size
    // satisfies the KB at this tolerance.
    for set in &sys.exists_sets {
        let mut c = vec![0.0; sys.atoms];
        for atom in set.iter() {
            c[atom] = 1.0;
        }
        match crate::simplex::solve_lp(&c, &a, &b) {
            crate::simplex::LpResult::Optimal { value, .. } => {
                if value < 1e-9 {
                    return Err(MaxentError::Infeasible);
                }
            }
            _ => return Err(MaxentError::Infeasible),
        }
    }
    let rows: Vec<(Vec<f64>, f64)> = sys.rows.iter().map(|r| (r.coeffs.clone(), r.rhs)).collect();
    crate::entropy::solve_dual(&rows, &sys.zero, sys.atoms, warm).map_err(|e| match e {
        EntropyError::Infeasible => MaxentError::Infeasible,
        e => MaxentError::Numeric(e.to_string()),
    })
}

/// A query compiled to per-constant atom sets: the value at a maxent point
/// is `Π_c p(Q_c ∩ F_c) / p(F_c)` (distinct constants are asymptotically
/// independent given the proportions — Theorem 5.27's phenomenon).
struct CompiledQuery {
    per_const: Vec<(ConstId, AtomSet)>,
}

fn compile_query(query: &Formula, kb: &KnowledgeBase) -> Result<CompiledQuery, CompileError> {
    let vocab = kb.vocab();
    let n = atom_count(vocab);
    let mut per_const: BTreeMap<ConstId, AtomSet> = BTreeMap::new();
    for part in query.conjuncts() {
        let consts = analysis::constants(part);
        if consts.len() != 1 {
            return Err(CompileError::Unsupported(format!(
                "query conjunct `{}` must mention exactly one constant",
                Pretty::new(vocab, part)
            )));
        }
        let c = *consts.iter().next().unwrap();
        let s = compile_atom_set_const(part, c, vocab).ok_or_else(|| {
            CompileError::Unsupported(format!(
                "query conjunct `{}` is not a boolean combination of unary atoms over one constant",
                Pretty::new(vocab, part)
            ))
        })?;
        let entry = per_const.entry(c).or_insert_with(|| AtomSet::full(n));
        *entry = entry.intersect(&s);
    }
    Ok(CompiledQuery {
        per_const: per_const.into_iter().collect(),
    })
}

/// Evaluates a compiled query at a maxent point; `None` when some
/// conditioning set carries no mass at this tolerance.
fn query_value(
    q: &CompiledQuery,
    sys: &UnaryConstraintSystem,
    point: &[f64],
    n: usize,
) -> Option<f64> {
    let mut value = 1.0;
    for (c, qset) in &q.per_const {
        let fset = sys
            .const_atoms
            .get(c)
            .cloned()
            .unwrap_or_else(|| AtomSet::full(n));
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, &p) in point.iter().enumerate().take(n) {
            if fset.contains(a) {
                den += p;
                if qset.contains(a) {
                    num += p;
                }
            }
        }
        if den < 1e-13 {
            return None;
        }
        value *= num / den;
    }
    Some(value)
}

/// The tolerance vectors of one sweep, largest first. Every index shrinks
/// by `factor` per step; the accelerated one (if any) starts a factor²
/// lower and shrinks by factor² per step.
fn sweep_tolerances(config: &SweepConfig, accelerate: Option<TolId>) -> Vec<Tolerances> {
    let mut tol = config.tau0.clone();
    if let Some(idx) = accelerate {
        // Give the accelerated index a head start so the asymmetry is
        // visible even after few steps.
        let accelerated = tol.get(idx) * config.factor * config.factor;
        tol = tol.with(idx, accelerated);
    }
    let mut out = Vec::with_capacity(config.steps);
    for _ in 0..config.steps {
        let next = tol.scaled(config.factor);
        out.push(std::mem::replace(&mut tol, next));
        if let Some(idx) = accelerate {
            let accelerated = tol.get(idx) * config.factor;
            tol = tol.with(idx, accelerated);
        }
    }
    out
}

/// One sweep along a fixed shrinkage path; returns the extrapolated limit.
fn sweep(
    kb: &KnowledgeBase,
    q: &CompiledQuery,
    config: &SweepConfig,
    accelerate: Option<TolId>,
) -> Result<Option<f64>, MaxentError> {
    let n = atom_count(kb.vocab());
    let mut values: Vec<f64> = Vec::with_capacity(config.steps);
    let mut warm: Option<Vec<f64>> = None;
    for tol in sweep_tolerances(config, accelerate) {
        let sys = compile(kb, &tol)?;
        let solution = solve_system_warm(&sys, warm.as_deref())?;
        if let Some(v) = query_value(q, &sys, &solution.point, n) {
            values.push(v);
        }
        warm = Some(solution.lambda);
    }
    if values.len() < 2 {
        return Ok(values.last().copied());
    }
    // Richardson extrapolation for an error model c₁·f^k + c₂·f^{2k}:
    // one pass removes the linear term, a second pass the quadratic one.
    let f = config.factor.to_f64();
    let first: Vec<f64> = values
        .windows(2)
        .map(|w| (w[1] - f * w[0]) / (1.0 - f))
        .collect();
    let extrapolated = if first.len() >= 2 {
        let k = first.len();
        (first[k - 1] - f * f * first[k - 2]) / (1.0 - f * f)
    } else {
        first[0]
    };
    Ok(Some(extrapolated.clamp(0.0, 1.0)))
}

/// The asymptotic random-worlds degree of belief
/// `lim_{τ⃗→0} lim_{N→∞} Pr_N^τ(query | KB)` via maximum entropy.
pub fn degree_of_belief_limit(
    kb: &KnowledgeBase,
    query: &Formula,
    config: &SweepConfig,
) -> Result<LimitOutcome, MaxentError> {
    let q = compile_query(query, kb)?;
    let base = match sweep(kb, &q, config, None) {
        Ok(Some(v)) => v,
        Ok(None) => return Ok(LimitOutcome::Infeasible),
        Err(MaxentError::Infeasible) => return Ok(LimitOutcome::Infeasible),
        Err(e) => return Err(e),
    };
    if !config.probe_asymmetry {
        return Ok(LimitOutcome::Converged(base));
    }
    // Collect the tolerance indices actually used by the KB.
    let mut indices = std::collections::BTreeSet::new();
    for c in kb.conjuncts() {
        indices.extend(analysis::tolerance_indices(c));
    }
    if indices.len() <= 1 {
        return Ok(LimitOutcome::Converged(base));
    }
    let mut candidates = vec![base];
    for idx in indices {
        match sweep(kb, &q, config, Some(idx)) {
            Ok(Some(v)) => candidates.push(v),
            Ok(None) | Err(MaxentError::Infeasible) => return Ok(LimitOutcome::Infeasible),
            Err(e) => return Err(e),
        }
    }
    let min = candidates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = candidates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max - min <= config.agreement {
        // All shrinkage paths agree; report the uniform-path value (it has
        // the most accurate extrapolation — accelerated paths trade
        // precision for asymmetry detection).
        Ok(LimitOutcome::Converged(base))
    } else {
        Ok(LimitOutcome::NonRobust(candidates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limit(kb_src: &str, q_src: &str) -> LimitOutcome {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let q = kb.parse_query(q_src).unwrap();
        degree_of_belief_limit(&kb, &q, &SweepConfig::default()).unwrap()
    }

    fn expect_point(kb_src: &str, q_src: &str, expected: f64, eps: f64) {
        match limit(kb_src, q_src) {
            LimitOutcome::Converged(v) => {
                assert!(
                    (v - expected).abs() < eps,
                    "{kb_src} ⊢ {q_src}: {v} vs {expected}"
                )
            }
            other => panic!("{kb_src} ⊢ {q_src}: {other:?}"),
        }
    }

    #[test]
    fn direct_inference_hepatitis() {
        // Paper Example 5.8: Pr∞(Hep(Eric)) = 0.8.
        expect_point(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)",
            "Hep(Eric)",
            0.8,
            1e-3,
        );
    }

    #[test]
    fn default_specificity_penguins() {
        // Paper Example 5.10: penguins don't fly (specificity), despite
        // being birds.
        expect_point(
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
            "Fly(Tweety)",
            0.0,
            1e-2,
        );
    }

    #[test]
    fn exceptional_subclass_inheritance() {
        // Paper Example 5.20: Tweety the penguin is still warm-blooded.
        expect_point(
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             Bird(x) ->_3 Warm-blooded(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
            "Warm-blooded(Tweety)",
            1.0,
            1e-2,
        );
    }

    #[test]
    fn black_birds_047() {
        // Paper Example 5.29: not 0.2 but ≈ 0.47.
        expect_point(
            "||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1",
            "Black(Clyde)",
            0.47,
            5e-3,
        );
    }

    #[test]
    fn section6_worked_example() {
        // ∀x P1(x) ∧ ||P1∧P2|| ⪯ 0.3 → Pr(P2(c)) = 0.3.
        expect_point(
            "forall x (P1(x)); ||P1(x) & P2(x)||_x <~_1 0.3",
            "P2(C)",
            0.3,
            1e-3,
        );
    }

    #[test]
    fn representation_dependence_colors() {
        // Paper §7.2: refining ¬White into Red/Blue moves Pr(White) from
        // 1/2 to 1/3.
        expect_point("true", "White(B1)", 0.5, 1e-6);
        expect_point(
            "forall x (!White(x) <=> Red(x) or Blue(x)); forall x (!(Red(x) & Blue(x))); \
             forall x (White(x) => !Red(x) & !Blue(x))",
            "White(B1)",
            1.0 / 3.0,
            1e-3,
        );
    }

    #[test]
    fn representation_dependence_flyingbird() {
        // Paper §7.2: Bird/FlyingBird representation gives Pr(Bird(Opus)) = 2/3.
        expect_point(
            "||FlyingBird(x) | Bird(x)||_x ~=_1 0.5; forall x (FlyingBird(x) => Bird(x)); Bird(Tweety)",
            "Bird(Opus)",
            2.0 / 3.0,
            1e-3,
        );
        // While the Bird/Fly representation gives 1/2.
        expect_point(
            "||Fly(x) | Bird(x)||_x ~=_1 0.5; Bird(Tweety)",
            "Bird(Opus)",
            0.5,
            1e-3,
        );
    }

    #[test]
    fn conflicting_defaults_are_non_robust() {
        // Two defaults of unspecified relative strength disagree about C:
        // the limit depends on the shrinkage path (paper §5.3 / §6 Geffner
        // discussion).
        let out = limit(
            "||Q(x) | P(x) & S(x)||_x ~=_1 1; ||Q(x) | R(x)||_x ~=_2 0; \
             P(C); S(C); R(C)",
            "Q(C)",
        );
        match out {
            LimitOutcome::NonRobust(vs) => {
                let min = vs.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = vs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                assert!(max - min > 0.3, "{vs:?}");
            }
            other => panic!("expected NonRobust, got {other:?}"),
        }
    }

    #[test]
    fn equal_strength_conflict_is_robust() {
        // Same conflict but through a *shared* tolerance index: the limit
        // is robust. Its value is 3/5, not 1/2: the Lagrangian analysis
        // gives Pr(Q|PSR) = e^{-l2}/(e^{-l1}+e^{-l2}) with the budgets
        // 2C e^{-l1} = tau*p_PS (p_PS ~ C) and 4C e^{-l2} = tau*p_R
        // (p_R ~ 3C), hence e^{-l1} = tau/2, e^{-l2} = 3tau/4 and the
        // ratio (3/4)/(1/2 + 3/4) = 3/5. (The symmetric 1/2 of the paper's
        // Nixon diamond needs the classes to have equal-size supports.)
        expect_point(
            "||Q(x) | P(x) & S(x)||_x ~=_1 1; ||Q(x) | R(x)||_x ~=_1 0; \
             P(C); S(C); R(C)",
            "Q(C)",
            0.6,
            0.01,
        );
    }

    #[test]
    fn inconsistent_kb_is_infeasible() {
        let out = limit("forall x (P(x)); forall x (!P(x))", "P(C)");
        assert_eq!(out, LimitOutcome::Infeasible);
        let out2 = limit("exists x (P(x)); forall x (!P(x))", "P(C)");
        assert_eq!(out2, LimitOutcome::Infeasible);
    }

    #[test]
    fn independence_product() {
        // Paper Example 5.28: Pr(Hep ∧ Over60) = 0.8 × 0.4 = 0.32.
        expect_point(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); \
             ||Over60(x) | Patient(x)||_x ~=_2 0.4; Patient(Eric)",
            "Hep(Eric) & Over60(Eric)",
            0.32,
            2e-3,
        );
    }

    /// Newton steps each sweep takes: the uniform path, then one
    /// accelerated path per tolerance index of the KB.
    fn sweep_steps(kb_src: &str) -> Vec<usize> {
        let kb = KnowledgeBase::parse(kb_src).unwrap();
        let config = SweepConfig::default();
        let mut paths = vec![None];
        for c in kb.conjuncts() {
            for idx in analysis::tolerance_indices(c) {
                if !paths.contains(&Some(idx)) {
                    paths.push(Some(idx));
                }
            }
        }
        paths
            .into_iter()
            .map(|accelerate| {
                let mut warm: Option<Vec<f64>> = None;
                let mut steps = 0;
                for tol in sweep_tolerances(&config, accelerate) {
                    let sys = compile(&kb, &tol).unwrap();
                    // `Ok` means the KKT residual fell below 1e-11.
                    let solution = solve_system_warm(&sys, warm.as_deref())
                        .unwrap_or_else(|e| panic!("{kb_src} at {tol:?}: {e}"));
                    steps += solution.steps;
                    warm = Some(solution.lambda);
                }
                steps
            })
            .collect()
    }

    fn assert_sweeps_converge_within(kb_src: &str, budget: usize) {
        for steps in sweep_steps(kb_src) {
            assert!(
                steps <= budget,
                "{kb_src}: {steps} Newton steps in one sweep"
            );
        }
    }

    #[test]
    fn unary_statistic_sweeps_converge_in_few_newton_steps() {
        for a in ["0.21", "0.45", "0.68"] {
            assert_sweeps_converge_within(&format!("||P(x)||_x ~=_1 {a}"), 60);
            for b in ["0.30", "0.50", "0.70"] {
                assert_sweeps_converge_within(
                    &format!("||P(x) | Q(x)||_x ~=_1 {a}; ||Q(x)||_x ~=_1 {b}"),
                    60,
                );
            }
        }
    }

    #[test]
    fn tau_squared_scale_sweeps_converge_in_few_newton_steps() {
        // Exceptional-subclass inheritance puts atoms at scale τ², the
        // worst conditioning the dual meets; conflicting defaults put
        // multipliers on both rows of nearly opposite pairs.
        for kb in [
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             Bird(x) ->_3 Warm-blooded(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
            "||Q(x) | P(x) & S(x)||_x ~=_1 1; ||Q(x) | R(x)||_x ~=_2 0; \
             P(C); S(C); R(C)",
        ] {
            assert_sweeps_converge_within(kb, 60);
        }
    }

    #[test]
    fn unsupported_queries_error() {
        let mut kb = KnowledgeBase::parse("P(C)").unwrap();
        let q = kb.parse_query("C = D").unwrap();
        assert!(matches!(
            degree_of_belief_limit(&kb, &q, &SweepConfig::default()),
            Err(MaxentError::Compile(CompileError::Unsupported(_)))
        ));
    }
}
