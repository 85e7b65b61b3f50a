//! The connection behaviors `rwq shard` shares with `rwq serve` through
//! the one readiness event loop, exercised on a [`Shard`] whose only
//! backend address refuses connections: oversized-line resync, the
//! connection ceiling, and refusal of connects during a graceful drain.
//! None of these need a live backend.

use rw_server::{Client, Shard, ShardConfig, Value};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An address nothing listens on: bind an ephemeral port, then free it.
fn dead_backend() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe port");
    listener.local_addr().expect("probe addr")
}

/// Binds a shard in front of a dead backend and runs it on a background
/// thread; the caller stops and joins it.
fn spawn_shard(config: ShardConfig) -> (Arc<Shard>, std::thread::JoinHandle<()>) {
    let shard = Arc::new(
        Shard::bind(ShardConfig {
            backends: vec![dead_backend().to_string()],
            threads: 1,
            ..config
        })
        .expect("bind shard"),
    );
    let runner = {
        let shard = Arc::clone(&shard);
        std::thread::spawn(move || shard.run().expect("run"))
    };
    (shard, runner)
}

#[test]
fn oversized_lines_are_answered_and_resynced() {
    let (shard, runner) = spawn_shard(ShardConfig::default());
    let mut c = Client::connect(shard.local_addr().unwrap()).unwrap();
    // Barely over the cap and far past it: one structured error each,
    // and the connection stays usable.
    for extra in [128, rw_server::MAX_LINE] {
        let huge = "x".repeat(rw_server::MAX_LINE + extra);
        let response = c.request_line(&huge).unwrap();
        assert!(response.contains(r#""code":"bad-request""#), "{response}");
        assert!(response.contains("exceeds"), "{response}");
        assert_eq!(
            c.request_line(r#"{"op":"ping"}"#).unwrap(),
            r#"{"ok":true,"op":"ping"}"#
        );
    }
    shard.stop();
    runner.join().expect("shard thread panicked");
}

#[test]
fn connections_past_the_ceiling_are_refused_with_overloaded() {
    let (shard, runner) = spawn_shard(ShardConfig {
        max_conns: 2,
        ..ShardConfig::default()
    });
    let addr = shard.local_addr().unwrap();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert!(a.request_line(r#"{"op":"ping"}"#).unwrap().contains("ping"));
    assert!(b.request_line(r#"{"op":"ping"}"#).unwrap().contains("ping"));
    let mut refused = Client::connect(addr).unwrap();
    let line = refused.recv_line().unwrap();
    assert!(line.contains(r#""code":"overloaded""#), "{line}");
    assert!(line.contains("connection limit reached"), "{line}");
    shard.stop();
    runner.join().expect("shard thread panicked");
}

#[test]
fn connects_during_drain_are_refused_with_shutting_down() {
    // Each retry against the dead backend sleeps (300 + 600 + 1200 ms),
    // which keeps one query in flight — and the drain open — long after
    // the first retry is visible in `stats`.
    let (shard, runner) = spawn_shard(ShardConfig {
        retry: 3,
        retry_backoff_ms: 300,
        ..ShardConfig::default()
    });
    let addr = shard.local_addr().unwrap();
    let mut inflight = Client::connect(addr).unwrap();
    inflight
        .send_line(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#)
        .unwrap();
    let mut ctl = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = Value::parse(&ctl.request_line(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let retries = stats
            .get("shard")
            .and_then(|s| s.get("retries"))
            .and_then(Value::as_u64)
            .expect("stats carry shard.retries");
        if retries > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "the query never reached a retry");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(ctl);

    shard.stop();
    let mut late = Client::connect(addr).unwrap();
    let refusal = late.recv_line().unwrap();
    assert!(refusal.contains(r#""code":"shutting-down""#), "{refusal}");

    // The in-flight query still gets its answer before the drain ends.
    let answer = inflight.recv_line().unwrap();
    assert!(answer.contains(r#""code":"overloaded""#), "{answer}");
    runner.join().expect("run() returns once drained");
    assert_eq!(shard.drain_reason(), Some("shutdown"));
}
