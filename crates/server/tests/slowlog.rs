//! Release-tier slow-query regression guard.
//!
//! The known trap shape — the Monte-Carlo binary statistic — must land
//! in the `--slow-log` with a full span tree (request ⊃ queue-wait/answer
//! ⊃ stage:*), while theorem-speed paper examples and maxent answers must
//! stay out of it. If an optimisation regresses and a paper example or a
//! maxent sweep starts taking hundreds of milliseconds, or the trap
//! quietly stops being exercised, this test notices.

use rw_server::{Client, Server, ServerConfig, Value};
use std::sync::Arc;

/// The §4 hepatitis example: answered by the theorems stage in
/// microseconds, so it must never cross the slow-log threshold.
const PAPER_KB: &str = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)";

/// Binary-predicate statistic sampled by Monte-Carlo: the worlds are
/// functions on domain pairs, so sampling is the historical slow path.
const MC_TRAP_KB: &str = "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)";

/// Deterministic-causal one-step projection (the shoot scenario): its
/// compiled unary KB misses every theorem pattern and is answered by the
/// maxent τ-sweep in a few milliseconds, so it must stay out of the log.
const SHOOT_KB: &str = "@temporal causal\\nfluent Loaded\\nfluent Alive\\ninit Loaded\\ninit Alive\\nstep shoot requires Loaded causes !Alive";

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trap queries are release-tier (the MC binary statistic takes minutes in debug)"
)]
fn traps_land_in_the_slow_log_and_paper_examples_do_not() {
    let log = std::env::temp_dir().join(format!("rwq-slowlog-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);

    let server = Arc::new(
        Server::bind(ServerConfig {
            threads: 1,
            slow_log: Some(log.clone()),
            slow_ms: 500,
            ..ServerConfig::default()
        })
        .expect("bind"),
    );
    let addr = server.local_addr().expect("local addr");
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    let mut c = Client::connect(addr).unwrap();
    for load in [
        format!(r#"{{"op":"load","kb":"paper","text":"{PAPER_KB}"}}"#),
        format!(r#"{{"op":"load","kb":"mc","text":"{MC_TRAP_KB}","approx":{{"seed":7}}}}"#),
        format!(r#"{{"op":"load","kb":"shoot","text":"{SHOOT_KB}"}}"#),
    ] {
        let loaded = c.request_line(&load).unwrap();
        assert!(loaded.contains(r#""ok":true"#), "{load} => {loaded}");
    }
    for (kb, query) in [
        ("paper", "Hep(Eric)"),
        ("mc", "Likes(B, A)"),
        ("shoot", "Alive1(S)"),
    ] {
        let answer = c
            .request_line(&format!(
                r#"{{"op":"query","kb":"{kb}","query":"{query}"}}"#
            ))
            .unwrap();
        assert!(answer.contains(r#""ok":true"#), "{kb}/{query} => {answer}");
    }
    c.request_line(r#"{"op":"shutdown"}"#).unwrap();
    server.stop();
    runner.join().expect("server thread panicked");

    let content = std::fs::read_to_string(&log).expect("slow log written");
    let _ = std::fs::remove_file(&log);

    // The paper example and the maxent answer stay under the threshold.
    for query in ["Hep(Eric)", "Alive1(S)"] {
        assert!(
            !content.contains(query),
            "{query} regressed into the slow log:\n{content}"
        );
    }
    // The trap crosses it.
    let query = "Likes(B, A)";
    let line = content
        .lines()
        .find(|l| l.contains(&format!(r#""query":"{query}""#)))
        .unwrap_or_else(|| panic!("trap {query} missing from slow log:\n{content}"));
    let value = Value::parse(line).expect("slow-log line is valid JSON");
    assert!(value.get("trace_id").and_then(Value::as_u64).is_some());
    assert!(value.get("fingerprint").and_then(Value::as_str).is_some());
    let elapsed = value.get("elapsed_us").and_then(Value::as_u64).unwrap();
    assert!(elapsed >= 500_000, "{query} logged below threshold: {line}");
    // Full span tree: a request root, its answer child, and at
    // least one parented stage span under the answer.
    let Some(Value::Arr(spans)) = value.get("spans") else {
        panic!("trap {query} has no span tree: {line}");
    };
    let name = |s: &Value| s.get("name").and_then(Value::as_str).map(String::from);
    assert!(spans.iter().any(|s| name(s).as_deref() == Some("request")));
    assert!(spans.iter().any(|s| name(s).as_deref() == Some("answer")));
    assert!(
        spans
            .iter()
            .any(|s| name(s).is_some_and(|n| n.starts_with("stage:"))
                && s.get("parent").and_then(Value::as_u64).is_some()),
        "no parented stage span for {query}: {line}"
    );
}
