//! The theorem engine: syntactic pattern matchers, with checked side
//! conditions, for the paper's general theorems about random worlds.
//!
//! Each matcher returns `None` when its theorem does not apply — soundness
//! over completeness: a returned belief is always justified by the cited
//! theorem, and unverifiable side conditions reject the match (the engine
//! then falls back to the semantic computations in `rw-maxent` /
//! `rw-unary` / `rw-worlds`).

use crate::belief::{Belief, Provenance};
use crate::patterns::{
    canon, canon_conjunction, classify, conjuncts_mentioning, const_atom_set, synthetic_var,
    Classified, StatStatement, Taxonomy,
};
use rw_logic::ast::{Formula, PropExpr, Term};
use rw_logic::{analysis, ConstId, KnowledgeBase, PredId, VarId};
use rw_unary::atoms::compile_atom_set;
use rw_unary::AtomSet;
use rw_util::Rat;
use std::collections::BTreeMap;

/// A callback into the full engine, used by theorems that decompose the
/// problem (Thm 5.27 independence).
pub type Solver<'a> = dyn Fn(&KnowledgeBase, &Formula) -> Option<(Belief, Provenance)> + 'a;

/// Dempster's rule of combination (paper Thm 5.26):
/// `δ(ᾱ) = Π αᵢ / (Π αᵢ + Π (1-αᵢ))`.
pub fn dempster_rule(alphas: &[f64]) -> f64 {
    let num: f64 = alphas.iter().product();
    let den: f64 = num + alphas.iter().map(|a| 1.0 - a).product::<f64>();
    num / den
}

/// Tries every theorem pattern in order of specificity.
pub fn try_all(
    kb: &KnowledgeBase,
    query: &Formula,
    solver: &Solver<'_>,
) -> Option<(Belief, Provenance)> {
    let cls = classify(kb);
    try_ground_facts(query, &cls)
        .or_else(|| try_unique_names(kb, query, &cls))
        .or_else(|| try_dempster(kb, query, &cls))
        .or_else(|| try_strength(kb, query, &cls))
        .or_else(|| try_direct_inference(kb, query, &cls))
        .or_else(|| try_minimal_class(kb, query, &cls))
        .or_else(|| try_nested_default(kb, query, &cls))
        .or_else(|| try_independence(kb, query, &cls, solver))
}

fn interval_belief(lo: Rat, hi: Rat) -> Option<Belief> {
    if lo > hi {
        return None; // contradictory bounds: let the semantic engines decide
    }
    if lo == hi {
        Some(Belief::Point(lo.to_f64()))
    } else {
        Some(Belief::Interval(lo.to_f64(), hi.to_f64()))
    }
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    fn go(prefix: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        let k = used.len();
        if prefix.len() == k {
            out.push(prefix.clone());
            return;
        }
        for i in 0..k {
            if !used[i] {
                used[i] = true;
                prefix.push(i);
                go(prefix, used, out);
                prefix.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    go(&mut Vec::new(), &mut vec![false; k], &mut out);
    out
}

// ---------------------------------------------------------------------------
// Asserted ground facts: direct entailment (Definition 4.2).
// ---------------------------------------------------------------------------

/// The cheapest pattern of all: the query is a conjunction of ground
/// literals each directly asserted by the KB (belief 1: every KB-world
/// satisfies each conjunct, Def 4.2) or with one conjunct asserted with
/// the opposite polarity (belief 0: no KB-world satisfies it).
///
/// This covers the serving-path traps that previously fell through to
/// the maxent sweep (0.2–0.4 ms per answer, against microseconds here):
/// bare asserted facts (`Jaun(Eric)`), double negations (`!!P(c)`), and
/// conjunctions of asserted ground literals.
///
/// Side conditions (all checked; any failure declines to the semantic
/// stages):
///
/// * every query conjunct is a ground literal, and each is asserted by
///   the KB one way or the other;
/// * no ground literal is asserted both ways (directly inconsistent KB,
///   so `Pr` may be undefined);
/// * every other KB conjunct *touching the query's symbols* (a predicate
///   or constant of some query literal) is a tolerance-carrying
///   statistical comparison — the one shape that cannot make an asserted
///   ground fact eventually inconsistent. Universals, equalities,
///   exact-proportion constraints and other quantified facts about those
///   symbols disable the fast path: `forall x (!P(x)); P(C)` must reach
///   the stages that can report `Undefined`. (Conjuncts over unrelated
///   symbols are not inspected — the same scope every other matcher
///   here uses.)
pub fn try_ground_facts(query: &Formula, cls: &Classified) -> Option<(Belief, Provenance)> {
    // Every query conjunct (after `!!` stripping) must be a ground literal.
    let stripped = analysis::strip_double_neg(query);
    let mut literals = Vec::new();
    for part in stripped.conjuncts() {
        literals.push(analysis::as_ground_literal(part)?);
    }
    if literals.is_empty() {
        return None;
    }
    let q_preds: std::collections::BTreeSet<PredId> = literals.iter().map(|(p, _, _)| *p).collect();
    let q_consts: std::collections::BTreeSet<ConstId> = literals
        .iter()
        .flat_map(|(_, args, _)| args.iter().copied())
        .collect();
    // The KB's asserted ground literals, with a direct-contradiction scan;
    // everything else sharing symbols with the query must be a
    // tolerance-carrying statistical statement.
    let mut asserted: BTreeMap<(PredId, Vec<ConstId>), bool> = BTreeMap::new();
    for f in &cls.conjuncts {
        if let Some((p, args, value)) = analysis::as_ground_literal(f) {
            match asserted.insert((p, args), value) {
                Some(prior) if prior != value => return None, // KB ⊨ ⊥ on this literal
                _ => {}
            }
            continue;
        }
        if matches!(f, Formula::True) {
            continue;
        }
        let syms = analysis::symbols(f);
        // A symbol-free conjunct other than `true` (e.g. a literal
        // `false`, or `!true`) can void the whole KB without ever
        // "touching" the query's symbols — never certify past one.
        if syms.preds.is_empty() && syms.consts.is_empty() && syms.funcs.is_empty() {
            return None;
        }
        let touches = !syms.preds.is_disjoint(&q_preds) || !syms.consts.is_disjoint(&q_consts);
        if !touches {
            continue;
        }
        // A proportion compared under a tolerance (`~=_i`, `<~_i`) is
        // satisfiable alongside any finite set of ground facts for all
        // large `N`; anything else could entail their negation.
        let Formula::Cmp(_, op, _) = f else {
            return None;
        };
        op.tolerance()?;
    }
    let mut all_match = true;
    for (p, args, value) in literals {
        match asserted.get(&(p, args)) {
            Some(&v) if v == value => {}
            // One conjunct entailed false bounds the whole conjunction:
            // Pr(φ ∧ ψ | KB) ≤ Pr(φ | KB) = 0.
            Some(_) => return Some((Belief::Point(0.0), Provenance::Entailed)),
            None => all_match = false,
        }
    }
    if all_match {
        Some((Belief::Point(1.0), Provenance::Entailed))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Theorem 5.6 / Corollary 5.7: direct inference.
// ---------------------------------------------------------------------------

/// Matches `KB = ψ(c̄) ∧ KB'` with an explicit statistical statement
/// `||φ(x̄) | ψ(x̄)||_x̄ ∈ [lo, hi]` in `KB'`, where the constants `c̄` (a
/// subset of the query's constants) occur nowhere else.
pub fn try_direct_inference(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let q_consts: Vec<ConstId> = analysis::constants(query).into_iter().collect();
    if q_consts.is_empty() || q_consts.len() > 3 {
        return None;
    }
    let _ = kb;
    // Subsets of the query constants, larger first (most information used).
    let mut masks: Vec<u32> = (1..(1u32 << q_consts.len())).collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    for mask in masks {
        let cbar: Vec<ConstId> = q_consts
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, c)| *c)
            .collect();
        let f_idx = conjuncts_mentioning(cls, &cbar);
        // Generalize c̄ → synthetic variables in the query and the facts.
        let generalize = |f: &Formula| {
            let mut g = f.clone();
            for (i, c) in cbar.iter().enumerate() {
                g = analysis::generalize_const(&g, *c, synthetic_var(i));
            }
            g
        };
        let phi = generalize(query);
        let psi = Formula::conjoin(f_idx.iter().map(|&i| generalize(&cls.conjuncts[i])));

        'stat: for s in &cls.stats {
            if s.vars.len() != cbar.len() {
                continue;
            }
            // The statistical statement itself must not mention c̄ (it would
            // have been swept into ψ otherwise).
            if s.sources.iter().any(|i| f_idx.contains(i)) {
                continue;
            }
            let their_map: BTreeMap<VarId, usize> =
                s.vars.iter().enumerate().map(|(j, &v)| (v, j)).collect();
            let their_body = canon(&s.body, &their_map);
            let their_cond = canon_conjunction(&s.cond, &their_map);
            for perm in permutations(cbar.len()) {
                let our_map: BTreeMap<VarId, usize> = (0..cbar.len())
                    .map(|i| (synthetic_var(i), perm[i]))
                    .collect();
                if canon(&phi, &our_map) == their_body
                    && canon_conjunction(&psi, &our_map) == their_cond
                {
                    let belief = match interval_belief(s.lo, s.hi) {
                        Some(b) => b,
                        None => continue 'stat,
                    };
                    return Some((belief, Provenance::DirectInference));
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Theorem 5.16 / Corollary 5.17: minimal reference class + irrelevance.
// ---------------------------------------------------------------------------

struct Candidate<'a> {
    stat: &'a StatStatement,
    class: AtomSet,
}

/// Reference-class candidates for a single-constant query: statistical
/// statements whose body alpha-matches the generalized query, with
/// compilable (quantifier-free unary) condition classes. Returns `None` if
/// some statement about `φ` has a class we cannot analyze (the theorems'
/// side conditions quantify over *all* such statements).
fn phi_candidates<'a>(
    kb: &KnowledgeBase,
    cls: &'a Classified,
    phi: &Formula,
) -> Option<Vec<Candidate<'a>>> {
    let vocab = kb.vocab();
    let our_map: BTreeMap<VarId, usize> = [(synthetic_var(0), 0)].into_iter().collect();
    let phi_canon = canon(phi, &our_map);
    let mut out = Vec::new();
    for s in &cls.stats {
        if s.vars.len() != 1 {
            continue;
        }
        let their_map: BTreeMap<VarId, usize> = [(s.vars[0], 0)].into_iter().collect();
        if canon(&s.body, &their_map) != phi_canon {
            continue;
        }
        let class = compile_atom_set(&s.cond, s.vars[0], vocab)?;
        out.push(Candidate { stat: s, class });
    }
    Some(out)
}

/// Condition (c) of Thm 5.16 (shared with Thm 5.23): the symbols of `φ`
/// occur in the KB only inside the bodies of the candidate statements.
fn phi_symbols_isolated(cls: &Classified, phi: &Formula, candidates: &[Candidate<'_>]) -> bool {
    let phi_syms = analysis::symbols(phi);
    let candidate_sources: Vec<usize> = candidates
        .iter()
        .flat_map(|c| c.stat.sources.iter().copied())
        .collect();
    for (idx, f) in cls.conjuncts.iter().enumerate() {
        let syms = analysis::symbols(f);
        let shares = !syms.preds.is_disjoint(&phi_syms.preds)
            || !syms.funcs.is_disjoint(&phi_syms.funcs)
            || !syms.consts.is_disjoint(&phi_syms.consts);
        if shares && !candidate_sources.contains(&idx) {
            return false;
        }
    }
    // ... and not inside the conditions of those statements.
    for c in candidates {
        let cond_syms = analysis::symbols(&c.stat.cond);
        if !cond_syms.preds.is_disjoint(&phi_syms.preds)
            || !cond_syms.consts.is_disjoint(&phi_syms.consts)
        {
            return false;
        }
    }
    true
}

fn single_query_constant(query: &Formula) -> Option<ConstId> {
    let cs = analysis::constants(query);
    if cs.len() == 1 {
        cs.into_iter().next()
    } else {
        None
    }
}

/// Theorem 5.16: if the statements about `φ` include a unique minimal class
/// `ψ₀` containing `c` — every other class a superset or disjoint — then the
/// degree of belief is `ψ₀`'s statistic, regardless of any other facts
/// about `c` (irrelevance / exceptional-subclass inheritance).
pub fn try_minimal_class(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let c = single_query_constant(query)?;
    let vocab = kb.vocab();
    let taxonomy = Taxonomy::build(cls, vocab)?;
    let phi = analysis::generalize_const(query, c, synthetic_var(0));
    let candidates = phi_candidates(kb, cls, &phi)?;
    if candidates.is_empty() || !phi_symbols_isolated(cls, &phi, &candidates) {
        return None;
    }
    let facts = const_atom_set(cls, c, vocab);
    if !taxonomy.satisfiable(&facts) {
        return None;
    }
    // Classes containing c.
    let mut best: Option<&Candidate> = None;
    for cand in &candidates {
        if !taxonomy.entails(&facts, &cand.class) {
            continue;
        }
        // Minimality against every candidate class.
        let minimal = candidates.iter().all(|other| {
            taxonomy.entails(&cand.class, &other.class)
                || taxonomy.disjoint(&cand.class, &other.class)
        });
        if minimal {
            match best {
                None => best = Some(cand),
                Some(b) => {
                    // Prefer the smaller class; merge equal classes by
                    // interval intersection.
                    if taxonomy.entails(&cand.class, &b.class)
                        && !taxonomy.entails(&b.class, &cand.class)
                    {
                        best = Some(cand);
                    }
                }
            }
        }
    }
    let b = best?;
    let belief = interval_belief(b.stat.lo, b.stat.hi)?;
    Some((belief, Provenance::MinimalReferenceClass))
}

// ---------------------------------------------------------------------------
// Theorem 5.23: the strength rule along a chain of reference classes.
// ---------------------------------------------------------------------------

/// Theorem 5.23: when the classes with statistics about `φ` form a chain
/// `ψ₁ ⊆ ... ⊆ ψ_m` containing `c` in the smallest, and one interval is
/// strictly nested inside all others, that tightest interval bounds the
/// degree of belief.
pub fn try_strength(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let c = single_query_constant(query)?;
    let vocab = kb.vocab();
    let taxonomy = Taxonomy::build(cls, vocab)?;
    let phi = analysis::generalize_const(query, c, synthetic_var(0));
    let candidates = phi_candidates(kb, cls, &phi)?;
    if candidates.len() < 2 || !phi_symbols_isolated(cls, &phi, &candidates) {
        return None;
    }
    // Chain check.
    for i in 0..candidates.len() {
        for j in i + 1..candidates.len() {
            let a = &candidates[i].class;
            let b = &candidates[j].class;
            if !taxonomy.entails(a, b) && !taxonomy.entails(b, a) {
                return None;
            }
        }
    }
    // c must lie in the minimal class of the chain.
    let facts = const_atom_set(cls, c, vocab);
    if !taxonomy.satisfiable(&facts) {
        return None;
    }
    let bottom = candidates.iter().find(|cand| {
        candidates
            .iter()
            .all(|other| taxonomy.entails(&cand.class, &other.class))
    })?;
    if !taxonomy.entails(&facts, &bottom.class) {
        return None;
    }
    // Strictly tightest interval.
    let tightest = candidates.iter().find(|cand| {
        candidates.iter().all(|other| {
            std::ptr::eq(*cand, other)
                || (other.stat.lo < cand.stat.lo && cand.stat.hi < other.stat.hi)
        })
    })?;
    let belief = interval_belief(tightest.stat.lo, tightest.stat.hi)?;
    Some((belief, Provenance::StrengthRule))
}

// ---------------------------------------------------------------------------
// Theorem 5.26: Dempster combination of essentially disjoint evidence.
// ---------------------------------------------------------------------------

/// Theorem 5.26: `KB = ∧ᵢ (||P(x)|ψᵢ(x)|| ≈ αᵢ ∧ ψᵢ(c)) ∧ ∧_{i≠j} ∃!x(ψᵢ∧ψⱼ)`
/// gives `Pr∞(P(c)) = δ(ᾱ)`. Conflicting extremes (`αᵢ = 1` and `αⱼ = 0`)
/// with distinct tolerance indices have no robust limit; with a shared
/// index the symmetric limit is 1/2 (paper §5.3).
pub fn try_dempster(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let (pred, c, negated) = match query {
        Formula::Pred(p, args) => match args.as_slice() {
            [Term::Const(c)] => (*p, *c, false),
            _ => return None,
        },
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Pred(p, args) => match args.as_slice() {
                [Term::Const(c)] => (*p, *c, true),
                _ => return None,
            },
            _ => return None,
        },
        _ => return None,
    };
    let vocab = kb.vocab();
    let taxonomy = Taxonomy::build(cls, vocab)?;
    let phi = analysis::generalize_const(query, c, synthetic_var(0));
    let phi_pos = if negated {
        match &phi {
            Formula::Not(inner) => inner.as_ref().clone(),
            _ => return None,
        }
    } else {
        phi.clone()
    };
    let candidates = phi_candidates(kb, cls, &phi_pos)?;
    if candidates.len() < 2 {
        return None;
    }
    // All statements must be points, classes must not mention P or c, and c
    // must be known to lie in every class.
    let facts = const_atom_set(cls, c, vocab);
    if !taxonomy.satisfiable(&facts) {
        return None;
    }
    let mut alphas = Vec::new();
    for cand in &candidates {
        if !cand.stat.is_point() {
            return None;
        }
        let cond_syms = analysis::symbols(&cand.stat.cond);
        if cond_syms.preds.contains(&pred) || cond_syms.consts.contains(&c) {
            return None;
        }
        if !taxonomy.entails(&facts, &cand.class) {
            return None;
        }
        alphas.push(cand.stat.lo);
    }
    // Pairwise ∃!x(ψᵢ ∧ ψⱼ) conjuncts must be present.
    for i in 0..candidates.len() {
        'next_pair: for j in i + 1..candidates.len() {
            let want: Vec<String> = {
                let mut parts = canon_conjunction(
                    &Formula::and(
                        candidates[i].stat.cond.clone(),
                        candidates[j].stat.cond.clone(),
                    ),
                    &[
                        (candidates[i].stat.vars[0], 0),
                        (candidates[j].stat.vars[0], 0),
                    ]
                    .into_iter()
                    .collect(),
                );
                parts.sort();
                parts
            };
            for (_, inner, v) in &cls.exists_unique {
                let map: BTreeMap<VarId, usize> = [(*v, 0)].into_iter().collect();
                let mut got = canon_conjunction(inner, &map);
                got.sort();
                if got == want {
                    continue 'next_pair;
                }
            }
            return None;
        }
    }
    // Strictness: every remaining conjunct must belong to the pattern.
    for (idx, f) in cls.conjuncts.iter().enumerate() {
        let is_stat_source = candidates
            .iter()
            .any(|cand| cand.stat.sources.contains(&idx));
        let is_exists = cls.exists_unique.iter().any(|(i, _, _)| *i == idx);
        let is_fact = {
            let cs = analysis::constants(f);
            cs.len() == 1
                && cs.contains(&c)
                && !analysis::symbols(f).preds.contains(&pred)
                && rw_unary::atoms::compile_atom_set_const(f, c, vocab).is_some()
        };
        if !(is_stat_source || is_exists || is_fact || matches!(f, Formula::True)) {
            return None;
        }
    }

    let ones = alphas.iter().filter(|a| **a == Rat::ONE).count();
    let zeros = alphas.iter().filter(|a| **a == Rat::ZERO).count();
    let belief = if ones > 0 && zeros > 0 {
        // Conflicting hard defaults.
        let tols: Vec<_> = candidates
            .iter()
            .map(|cand| {
                let mut ts = cand.stat.tols.clone();
                ts.dedup();
                ts
            })
            .collect();
        let shared = tols.iter().all(|ts| ts.len() == 1 && ts[0] == tols[0][0]);
        if shared && candidates.len() == 2 {
            Belief::Point(0.5)
        } else {
            Belief::NonRobust(vec![0.0, 1.0])
        }
    } else {
        let v = dempster_rule(&alphas.iter().map(|a| a.to_f64()).collect::<Vec<_>>());
        Belief::Point(v)
    };
    let belief = if negated {
        match belief {
            Belief::Point(v) => Belief::Point(1.0 - v),
            Belief::NonRobust(vs) => Belief::NonRobust(vs.iter().map(|v| 1.0 - v).collect()),
            other => other,
        }
    } else {
        belief
    };
    Some((belief, Provenance::Dempster))
}

// ---------------------------------------------------------------------------
// Theorem 5.27: independence across disjoint subvocabularies.
// ---------------------------------------------------------------------------

/// Theorem 5.27: if `KB ∧ query` splits into components over vocabularies
/// that are pairwise disjoint except for (at most) one shared constant, the
/// belief is the product of the components' beliefs.
pub fn try_independence(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
    solver: &Solver<'_>,
) -> Option<(Belief, Provenance)> {
    let query_parts: Vec<Formula> = query.conjuncts().into_iter().cloned().collect();
    let n_kb = cls.conjuncts.len();
    let n_all = n_kb + query_parts.len();
    if n_all < 2 {
        return None;
    }
    let q_consts = analysis::constants(query);

    // Union-find over conjuncts + query parts; edges share a predicate, a
    // function, or a constant outside the query's constants.
    let mut parent: Vec<usize> = (0..n_all).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    let sym_of = |i: usize| -> analysis::Symbols {
        if i < n_kb {
            analysis::symbols(&cls.conjuncts[i])
        } else {
            analysis::symbols(&query_parts[i - n_kb])
        }
    };
    let symbols: Vec<analysis::Symbols> = (0..n_all).map(sym_of).collect();
    for i in 0..n_all {
        for j in i + 1..n_all {
            let a = &symbols[i];
            let b = &symbols[j];
            let share_pred = !a.preds.is_disjoint(&b.preds) || !a.funcs.is_disjoint(&b.funcs);
            let share_other_const = a
                .consts
                .intersection(&b.consts)
                .any(|c| !q_consts.contains(c));
            if share_pred || share_other_const {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut components: BTreeMap<usize, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for i in 0..n_all {
        let r = find(&mut parent, i);
        let entry = components.entry(r).or_default();
        if i < n_kb {
            entry.0.push(i);
        } else {
            entry.1.push(i - n_kb);
        }
    }
    let with_query: Vec<_> = components.values().filter(|(_, q)| !q.is_empty()).collect();
    if with_query.len() < 2 {
        return None;
    }
    // At most one constant may be shared between any two components.
    let comp_consts: Vec<std::collections::BTreeSet<ConstId>> = components
        .values()
        .map(|(ks, qs)| {
            let mut s = std::collections::BTreeSet::new();
            for &k in ks {
                s.extend(analysis::constants(&cls.conjuncts[k]));
            }
            for &q in qs {
                s.extend(analysis::constants(&query_parts[q]));
            }
            s
        })
        .collect();
    let mut shared_total: std::collections::BTreeSet<ConstId> = Default::default();
    for i in 0..comp_consts.len() {
        for j in i + 1..comp_consts.len() {
            shared_total.extend(comp_consts[i].intersection(&comp_consts[j]).copied());
        }
    }
    if shared_total.len() > 1 {
        return None;
    }

    // Solve each component carrying a query part.
    let mut lo = 1.0f64;
    let mut hi = 1.0f64;
    let mut parts = Vec::new();
    for (kidxs, qidxs) in components.values() {
        if qidxs.is_empty() {
            continue;
        }
        let sub_kb = KnowledgeBase::from_parts(
            kb.vocab().clone(),
            kidxs.iter().map(|&i| cls.conjuncts[i].clone()).collect(),
        );
        let sub_q = Formula::conjoin(qidxs.iter().map(|&i| query_parts[i].clone()));
        let (belief, prov) = solver(&sub_kb, &sub_q)?;
        let (blo, bhi) = belief.as_interval()?;
        lo *= blo;
        hi *= bhi;
        parts.push(Box::new(prov));
    }
    let belief = if (hi - lo).abs() < 1e-12 {
        Belief::Point(lo)
    } else {
        Belief::Interval(lo, hi)
    };
    Some((belief, Provenance::Independence(parts)))
}

// ---------------------------------------------------------------------------
// §5.5: unique names.
// ---------------------------------------------------------------------------

/// The unique-names bias: `Pr∞(c₁ = c₂ | KB) = 0` when the KB constrains the
/// constants only through positive equality conjuncts (or not at all); the
/// equalities partition constants into blocks that behave like fresh names
/// (GHK94 Lemma D.1; Lifschitz benchmark C1).
pub fn try_unique_names(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let (a, b, negated) = match query {
        Formula::TermEq(Term::Const(a), Term::Const(b)) => (*a, *b, false),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::TermEq(Term::Const(a), Term::Const(b)) => (*a, *b, true),
            _ => return None,
        },
        _ => return None,
    };
    let n_consts = kb.vocab().const_count();
    let mut uf: Vec<usize> = (0..n_consts).collect();
    fn find(uf: &mut Vec<usize>, i: usize) -> usize {
        if uf[i] != i {
            let r = find(uf, uf[i]);
            uf[i] = r;
        }
        uf[i]
    }
    for f in &cls.conjuncts {
        match f {
            Formula::True => {}
            Formula::TermEq(Term::Const(x), Term::Const(y)) => {
                let (rx, ry) = (find(&mut uf, x.index()), find(&mut uf, y.index()));
                if rx != ry {
                    uf[rx] = ry;
                }
            }
            other => {
                // Any non-equality information about either constant blocks
                // the pattern (but information about *other* symbols is fine).
                let cs = analysis::constants(other);
                if cs.contains(&a) || cs.contains(&b) {
                    return None;
                }
            }
        }
    }
    let equal = find(&mut uf, a.index()) == find(&mut uf, b.index());
    let v = match (equal, negated) {
        (true, false) | (false, true) => 1.0,
        _ => 0.0,
    };
    Some((Belief::Point(v), Provenance::UniqueNames))
}

// ---------------------------------------------------------------------------
// Example 5.14: nested-default chaining.
// ---------------------------------------------------------------------------

/// The bed-late pattern: from a nested default
/// `|| ||R(x,y)|D(y)||_y ≈ 1 | C(x) ||_x ≈ 1`, a fact entailing `C(c₁)` and
/// a fact `D(c₂)`, conclude `R(c₁, c₂)` with belief 1 — the paper's
/// Example 5.14 derivation (Cor 5.9 twice through Prop 5.2).
pub fn try_nested_default(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let (r_pred, c1, c2) = match query {
        Formula::Pred(p, args) => match args.as_slice() {
            [Term::Const(c1), Term::Const(c2)] => (*p, *c1, *c2),
            _ => return None,
        },
        _ => return None,
    };
    let vocab = kb.vocab();
    for s in &cls.stats {
        if s.vars.len() != 1 || s.lo != Rat::ONE || s.hi != Rat::ONE {
            continue;
        }
        let x = s.vars[0];
        // Body must be the inner default ||R(x, y) | D(y)||_y ≈ 1.
        let Formula::Cmp(
            PropExpr::Prop {
                body,
                cond: Some(d),
                vars,
            },
            op,
            rhs,
        ) = &s.body
        else {
            continue;
        };
        if vars.len() != 1 || op.tolerance().is_none() {
            continue;
        }
        let y = vars[0];
        if !matches!(rhs, PropExpr::Rat(r) if *r == Rat::ONE) {
            continue;
        }
        let Formula::Pred(bp, bargs) = body.as_ref() else {
            continue;
        };
        if *bp != r_pred || bargs.as_slice() != [Term::Var(x), Term::Var(y)] {
            continue;
        }
        let Formula::Pred(dp, dargs) = d.as_ref() else {
            continue;
        };
        if dargs.as_slice() != [Term::Var(y)] {
            continue;
        }
        // A fact entailing C(c1): some conjunct alpha-matching cond at c1.
        let cond_map: BTreeMap<VarId, usize> = [(x, 0)].into_iter().collect();
        let cond_canon = canon_conjunction(&s.cond, &cond_map);
        let syn_map: BTreeMap<VarId, usize> = [(synthetic_var(0), 0)].into_iter().collect();
        let mut c1_ok = false;
        let mut d_c2_ok = false;
        for (idx, f) in cls.conjuncts.iter().enumerate() {
            if s.sources.contains(&idx) {
                continue;
            }
            let gen1 = analysis::generalize_const(f, c1, synthetic_var(0));
            if canon_conjunction(&gen1, &syn_map) == cond_canon {
                c1_ok = true;
            }
            if let Formula::Pred(p, args) = f {
                if *p == *dp && args.as_slice() == [Term::Const(c2)] {
                    d_c2_ok = true;
                }
            }
        }
        if !c1_ok || !d_c2_ok {
            continue;
        }
        // Side conditions: R and c2 appear nowhere else.
        let mut ok = true;
        for (idx, f) in cls.conjuncts.iter().enumerate() {
            if s.sources.contains(&idx) {
                continue;
            }
            let syms = analysis::symbols(f);
            if syms.preds.contains(&r_pred) {
                ok = false;
            }
            if syms.consts.contains(&c2) {
                if let Formula::Pred(p, args) = f {
                    if *p == *dp && args.as_slice() == [Term::Const(c2)] {
                        continue;
                    }
                }
                ok = false;
            }
        }
        let _ = vocab;
        if ok {
            return Some((Belief::Point(1.0), Provenance::NestedDefault));
        }
    }
    None
}
