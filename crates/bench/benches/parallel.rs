//! Serving-path scaling benchmark (experiment index B10): the parallel
//! sharded batch executor and the canonical-query answer cache, on a
//! generated ≥200-query workload against one medical-style KB.
//!
//! Three axes, reported as a table with speedups over the sequential
//! uncached baseline (each figure is the median of [`RUNS`] runs):
//!
//! * **threads** — 1/2/4/8 workers, no cache: pure sharding. Expect
//!   near-linear scaling up to the core count (per-query work is
//!   independent; the only shared state is one atomic work index). On a
//!   single-core container this row is flat — read it on real hardware.
//! * **cache, cold** — first pass over the workload with a fresh cache:
//!   the workload repeats every canonical form twice under different
//!   surface syntax, so even a cold pass serves half its queries from
//!   the cache.
//! * **cache, warm** — second pass over a populated cache: every query
//!   is a hit; this is the steady-state serving latency.
//!
//! Every query is theorem-answerable (micro- not milliseconds), keeping
//! the whole suite fast; the `batching` bench covers per-stage costs.
//! The run cross-checks that every configuration produced exactly the
//! baseline's beliefs (`beliefs identical: true`), so the speedups are
//! for equivalent answers.

use rw_core::{AnswerCache, BatchOptions, BatchRun, RandomWorlds};
use rw_logic::KnowledgeBase;
use std::sync::Arc;
use std::time::{Duration, Instant};

const INDIVIDUALS: usize = 40;
const RUNS: usize = 5;

/// Two statistical defaults plus per-individual facts: every query in
/// the workload resolves in the theorem stage (direct inference or
/// minimal reference class) against this (2 + 2·INDIVIDUALS)-conjunct KB.
fn kb() -> KnowledgeBase {
    let mut src =
        String::from("||Hep(x) | Jaun(x)||_x ~=_1 0.8; ||Over60(x) | Patient(x)||_x ~=_2 0.4");
    for i in 0..INDIVIDUALS {
        src.push_str(&format!("; Jaun(C{i}); Patient(C{i})"));
    }
    KnowledgeBase::parse(&src).unwrap()
}

/// 240 queries over 120 canonical forms: per individual, three distinct
/// canonical queries, each repeated once under a different surface form
/// (redundant parens / double-negation-free negation shapes) that
/// canonicalizes onto it.
fn workload() -> Vec<String> {
    let mut queries = Vec::with_capacity(6 * INDIVIDUALS);
    for i in 0..INDIVIDUALS {
        queries.push(format!("Hep(C{i})"));
        queries.push(format!("Over60(C{i})"));
        queries.push(format!("!Hep(C{i})"));
        queries.push(format!("(Hep(C{i}))"));
        queries.push(format!("(Over60(C{i}))"));
        queries.push(format!("!(Hep(C{i}))"));
    }
    queries
}

fn beliefs(run: &BatchRun) -> Vec<String> {
    run.results
        .iter()
        .map(|r| match r {
            Ok(resp) => format!("{:?}", resp.belief),
            Err(e) => format!("err: {e}"),
        })
        .collect()
}

/// Runs `f` [`RUNS`] times; returns the median wall time and the last run.
fn median_timed(mut f: impl FnMut() -> BatchRun) -> (Duration, BatchRun) {
    let mut times = Vec::with_capacity(RUNS);
    let mut last = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        let run = f();
        times.push(t.elapsed());
        last = Some(run);
    }
    times.sort();
    (times[times.len() / 2], last.expect("RUNS > 0"))
}

fn row(label: &str, elapsed: Duration, baseline: Duration, detail: &str) {
    println!(
        "{label:<34} {:>10.3} ms   speedup {:>6.2}x   {detail}",
        elapsed.as_secs_f64() * 1e3,
        baseline.as_secs_f64() / elapsed.as_secs_f64().max(1e-12),
    );
}

fn main() {
    let kb = kb();
    let queries = workload();
    let engine = RandomWorlds::new();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "batch-serving workload: {} queries ({} canonical forms), {} KB conjuncts, {} core(s), median of {} runs\n",
        queries.len(),
        3 * INDIVIDUALS,
        kb.conjuncts().len(),
        cores,
        RUNS
    );

    let (baseline, baseline_run) =
        median_timed(|| engine.answer_batch_report(&kb, &queries, &BatchOptions::sequential()));
    let reference = beliefs(&baseline_run);
    assert_eq!(baseline_run.report.failed, 0, "workload must be answerable");
    assert_eq!(baseline_run.report.threads, 1, "the baseline runs inline");
    row("sequential, no cache (baseline)", baseline, baseline, "");

    let mut all_identical = true;

    for threads in [2usize, 4, 8] {
        let (elapsed, run) = median_timed(|| {
            engine.answer_batch_report(&kb, &queries, &BatchOptions::threaded(threads))
        });
        all_identical &= beliefs(&run) == reference;
        row(
            &format!("threads={threads}, no cache"),
            elapsed,
            baseline,
            &format!("cpu {:.3} ms", run.report.cpu.as_secs_f64() * 1e3),
        );
    }

    println!();
    for threads in [1usize, 4] {
        let (cold_elapsed, cold) = median_timed(|| {
            // A fresh cache per run: this measures the cold pass.
            let opts = BatchOptions::threaded(threads).with_cache(Arc::new(AnswerCache::new()));
            engine.answer_batch_report(&kb, &queries, &opts)
        });
        all_identical &= beliefs(&cold) == reference;
        row(
            &format!("threads={threads}, cache cold"),
            cold_elapsed,
            baseline,
            &format!("hits {}", cold.report.cache_hits),
        );

        // One shared cache, warmed by a first pass, measured on reruns.
        let warm_opts = BatchOptions::threaded(threads).with_cache(Arc::new(AnswerCache::new()));
        let _ = engine.answer_batch_report(&kb, &queries, &warm_opts);
        let (warm_elapsed, warm) =
            median_timed(|| engine.answer_batch_report(&kb, &queries, &warm_opts));
        all_identical &= beliefs(&warm) == reference;
        assert!(
            warm.report.cache_hits > 0,
            "warm cache must report nonzero hits"
        );
        row(
            &format!("threads={threads}, cache warm"),
            warm_elapsed,
            baseline,
            &format!("hits {}", warm.report.cache_hits),
        );
    }

    println!();
    overhead_gate(&engine, &kb, &queries);

    println!("\nbeliefs identical across all runs: {all_identical}");
    assert!(all_identical, "a configuration diverged from the baseline");
}

/// Observability overhead gate: warm-cache serving with the metrics
/// registry enabled must stay within 5% of the registry disabled. The
/// warm pass is the steady state where per-query instrumentation (hit
/// counters, lookup-latency histograms) is the largest relative cost.
/// Medians already damp noise; a few retries ride out scheduler spikes
/// so the gate fails only on a real regression.
fn overhead_gate(engine: &RandomWorlds, kb: &KnowledgeBase, queries: &[String]) {
    const ATTEMPTS: usize = 7;
    let opts = BatchOptions::threaded(1).with_cache(Arc::new(AnswerCache::new()));
    let _ = engine.answer_batch_report(kb, queries, &opts); // warm the cache
    let mut best = f64::INFINITY;
    for attempt in 1..=ATTEMPTS {
        rw_obs::set_enabled(false);
        let (off, _) = median_timed(|| engine.answer_batch_report(kb, queries, &opts));
        rw_obs::set_enabled(true);
        let (on, _) = median_timed(|| engine.answer_batch_report(kb, queries, &opts));
        let ratio = on.as_secs_f64() / off.as_secs_f64().max(1e-12);
        best = best.min(ratio);
        println!(
            "obs overhead (warm, threads=1)     on {:>8.3} ms   off {:>8.3} ms   {:+.2}%",
            on.as_secs_f64() * 1e3,
            off.as_secs_f64() * 1e3,
            (ratio - 1.0) * 100.0,
        );
        if best <= 1.05 {
            break;
        }
        eprintln!("  attempt {attempt}/{ATTEMPTS}: over the 5% budget, retrying");
    }
    assert!(
        best <= 1.05,
        "metrics registry costs more than 5% warm-cache throughput (best ratio {best:.3})"
    );
}
