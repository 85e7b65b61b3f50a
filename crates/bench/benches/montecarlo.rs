//! Approximate vs exact on the PR-2 trap queries (experiment index B11):
//! the Monte-Carlo sampling stage against the maximum-entropy stage on
//! query shapes that miss every theorem pattern.
//!
//! These are the shapes the PR-2 changelog flagged as the serving-path
//! trap — each one used to fall into a 1–14 s maxent sweep, which the
//! projected-Newton dual solver has since cut to 0.2–0.4 ms, so the
//! "speedup" column now reads well below 1:
//!
//! * `!!φ(c)` — double negation defeats the syntactic matchers (the
//!   answer cache canonicalizes it away, but only on a repeat);
//! * conjunctions over individuals sharing one statistic — the shared
//!   predicate defeats the Thm 5.27 independence product.
//!
//! The table reports, per query, the maxent wall time and value against
//! the sampler's wall time, estimate and 95% CI, plus the speedup. Each
//! run cross-checks that the sampler's interval brackets the maxent
//! value (within 3 half-widths plus extrapolation slack) — the speedup
//! is for a *compatible* answer, not a different one. Bare asserted
//! facts, the third trap shape, no longer need either stage: the
//! theorem fast path answers them in microseconds (asserted below).

use rw_core::solvers::{MaxEntSolver, MonteCarloSolver, TheoremSolver};
use rw_core::{Belief, Budget, Provenance, Solver, SolverOutcome};
use rw_logic::KnowledgeBase;
use std::time::{Duration, Instant};

fn kb() -> KnowledgeBase {
    KnowledgeBase::parse(
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8; ||Over60(x) | Patient(x)||_x ~=_2 0.4; \
         Jaun(Eric); Patient(Eric); Jaun(Tom)",
    )
    .unwrap()
}

fn solve_timed(solver: &dyn Solver, kb: &KnowledgeBase, query: &str) -> (Duration, SolverOutcome) {
    let mut kb = kb.clone();
    let q = kb.parse_query(query).unwrap();
    let t = Instant::now();
    let outcome = solver.solve(&kb, &q, &Budget::UNLIMITED, &|_, _| None);
    (t.elapsed(), outcome)
}

fn point_of(outcome: &SolverOutcome) -> Option<f64> {
    match outcome {
        SolverOutcome::Answered { belief, .. } => belief.as_point(),
        _ => None,
    }
}

fn main() {
    let kb = kb();
    let maxent = MaxEntSolver::default();
    let sampler = MonteCarloSolver::default();
    println!(
        "maxent vs montecarlo on theorem-missing trap queries ({} conjuncts)\n",
        kb.conjuncts().len()
    );
    println!(
        "{:<28} {:>12} {:>9}   {:>12} {:>9} {:>8}   {:>8}",
        "query", "maxent ms", "value", "sampler ms", "estimate", "±ci", "speedup"
    );

    let mut all_compatible = true;
    for query in [
        "!!Hep(Eric)",
        "Hep(Eric) & Hep(Tom)",
        "Hep(Eric) & Over60(Eric)",
    ] {
        let (me_t, me_o) = solve_timed(&maxent, &kb, query);
        let (mc_t, mc_o) = solve_timed(&sampler, &kb, query);
        let me_v = point_of(&me_o).expect("maxent must answer the trap queries");
        let (mc_v, mc_hw) = match &mc_o {
            SolverOutcome::Answered {
                belief:
                    Belief::Approximate {
                        value,
                        ci_half_width,
                    },
                provenance: Provenance::MonteCarlo { .. },
            } => (*value, *ci_half_width),
            other => panic!("sampler must answer approximately, got {other:?}"),
        };
        // 3 half-widths plus slack for the finite-N extrapolation error.
        let compatible = (mc_v - me_v).abs() <= 3.0 * mc_hw + 0.05;
        all_compatible &= compatible;
        println!(
            "{query:<28} {:>12.1} {me_v:>9.4}   {:>12.1} {mc_v:>9.4} {mc_hw:>8.4}   {:>7.1}x{}",
            me_t.as_secs_f64() * 1e3,
            mc_t.as_secs_f64() * 1e3,
            me_t.as_secs_f64() / mc_t.as_secs_f64().max(1e-9),
            if compatible { "" } else { "   <-- DISAGREES" }
        );
    }

    // The third trap shape needs no sampling at all any more: the
    // theorem fast path answers asserted ground facts directly.
    let (th_t, th_o) = solve_timed(&TheoremSolver, &kb, "Jaun(Eric) & Patient(Eric)");
    assert_eq!(point_of(&th_o), Some(1.0), "{th_o:?}");
    println!(
        "\nasserted-fact fast path: Jaun(Eric) & Patient(Eric) answered exactly in {:.3} ms",
        th_t.as_secs_f64() * 1e3
    );
    println!("sampler estimates compatible with maxent: {all_compatible}");
    assert!(all_compatible, "a sampler estimate left its own interval");
}
