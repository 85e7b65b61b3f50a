//! `rwq shard` — a consistent-hashing front over N backend servers,
//! with health probes and structured failover.
//!
//! ```text
//!                       ┌───────────── rwq shard ─────────────┐
//!  client A ──TCP──▶    │ event loop (ppoll; the one loop     │     ┌─ backend 0
//!  client B ──TCP──▶    │ rwq serve runs too)                 │──┬─▶│  rwq serve
//!     ⋮                 │   query  → hash(kb ⊕ canonical(q))  │  │  └───────────
//!  client N ──TCP──▶    │          → ring walk → forward      │  ├─▶ backend 1
//!                       │   load/unload → broadcast to all    │  │
//!                       │   probes: ping every backend        │  └─▶ backend 2
//!                       └─────────────────────────────────────┘
//! ```
//!
//! Queries are routed by **consistent hashing on the canonical query
//! key**: the KB name plus [`rw_logic::canon::canonical_formula`] of the
//! query, so syntactic variants of one query — commuted conjunctions,
//! renamed binders — land on the *same* backend and hit its
//! [`rw_core::AnswerCache`]. The hash walks a ring of virtual nodes
//! ([`ShardConfig::vnodes`] per backend); removing a backend reassigns
//! only its arc, not the whole keyspace.
//!
//! Failure handling is layered, cheapest first:
//!
//! - **Pooled connections**: each worker keeps one connection per
//!   backend; a stale pooled connection (backend restarted) costs one
//!   reconnect, not an error.
//! - **Retry with exponential backoff** ([`ShardConfig::retry`],
//!   [`ShardConfig::retry_backoff_ms`]): transient connect failures are
//!   retried against the same backend before it is given up on.
//! - **Failover**: when the ring-primary backend cannot serve — it is
//!   unreachable after retries, or answered with `shutting-down`
//!   (graceful drain is a *re-route*, never a client-visible error) —
//!   the query moves to the ring successor and the response is
//!   annotated with `"failover":true`. Answer bytes are otherwise
//!   untouched: the fingerprint-keyed cache keyspace makes any backend's
//!   answer for a key byte-identical to any other's.
//! - **Health probes**: a probe thread pings every backend each
//!   [`ShardConfig::probe_interval_ms`]; probed-down backends are
//!   skipped during routing (tried last, as a final resort) until a
//!   probe sees them answer again.
//!
//! The serving surface is the same JSONL protocol as `rwq serve`:
//! `ping`/`stats`/`metrics`/`shutdown` answer inline (with shard-level
//! stats: per-backend health and forward/failover/error counters),
//! `load`/`unload` broadcast to every backend, `list` is served by the
//! first healthy backend, and `query` forwards as above. The event loop
//! is not a copy: the shard runs the very loop [`crate::server`] runs —
//! one `ppoll` over nonblocking sockets, bounded admission queue,
//! ordered response slots, connection ceiling, oversized-line resync,
//! graceful drain on `shutdown`/SIGTERM/SIGINT — and supplies only its
//! routing handler, forwarding workers and probe thread. It evicts no
//! idle connections and takes no snapshots. Drains count as
//! `conns.drain` plus `conns.drain.signal` or `conns.drain.shutdown`, as
//! on `rwq serve` (the shard-only `shard.drain` counter is gone).

use crate::client::Client;
use crate::front::{count, Front, Handled, Handler};
use crate::proto::{self, ProtoError, Request};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// How a [`Shard`] front is built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Bind address for the client-facing listener; port 0 picks a free
    /// port (see [`Shard::local_addr`]).
    pub addr: String,
    /// Backend `rwq serve` addresses (`host:port`); at least one.
    pub backends: Vec<String>,
    /// Forwarding worker threads (`0` = two per backend, clamped to
    /// `[2, 16]`).
    pub threads: usize,
    /// Admission-queue capacity: requests beyond this many pending are
    /// rejected with an `overloaded` error.
    pub max_queue: usize,
    /// Open-connection ceiling, as in [`crate::server::ServerConfig`].
    pub max_conns: usize,
    /// Milliseconds between health probes of each backend.
    pub probe_interval_ms: u64,
    /// Reconnect attempts against one backend after a transient
    /// failure, before failing over to the ring successor.
    pub retry: u32,
    /// First retry backoff in milliseconds; doubles per attempt.
    pub retry_backoff_ms: u64,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            threads: 0,
            max_queue: 1024,
            max_conns: 10_000,
            probe_interval_ms: 250,
            retry: 2,
            retry_backoff_ms: 50,
            vnodes: 64,
        }
    }
}

/// TCP handshake bound when forwarding — a dead backend fails fast.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Read/write bound on a forwarded request (covers slow exact queries).
const FORWARD_TIMEOUT: Duration = Duration::from_secs(30);
/// Handshake + ping bound for a health probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// One backend's address and live counters.
struct Backend {
    /// The configured address string (reported in `stats`).
    addr: String,
    /// The resolved socket address connections go to.
    sock: SocketAddr,
    /// Last known health: probes and forwarding outcomes both write it.
    healthy: AtomicBool,
    /// Queries this backend answered.
    forwarded: AtomicU64,
    /// Queries this backend was primary for but could not serve.
    failovers: AtomicU64,
    /// Times this backend was unreachable (after retries) or draining.
    errors: AtomicU64,
}

/// Where a queued request line must go.
enum Route {
    /// Consistent-hash to the ring primary, fail over along successors.
    Query { hash: u64 },
    /// To every backend (`load`/`unload` keep registries in lock-step).
    Broadcast,
    /// To the first backend that answers (`list`: registries match).
    First,
}

/// A request line admitted to the forwarding queue.
pub(crate) struct Job {
    line: String,
    route: Route,
    conn: u64,
    seq: u64,
}

/// A bound sharding front: client listener, hash ring, backend table,
/// forwarding worker pool and health-probe thread. [`Shard::run`]
/// blocks until a `shutdown` request (or [`Shard::stop`], or a handled
/// signal) arrives and the graceful drain finishes.
pub struct Shard {
    /// Listener, admission queue and drain state of the shared loop.
    front: Front<Job>,
    backends: Vec<Backend>,
    /// `(hash, backend index)` virtual nodes, sorted by hash.
    ring: Vec<(u64, usize)>,
    threads: usize,
    probe_interval_ms: u64,
    retry: u32,
    retry_backoff_ms: u64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    retries: AtomicU64,
}

impl Shard {
    /// Binds the client-facing listener, resolves every backend and
    /// builds the hash ring; no thread runs until [`Shard::run`].
    pub fn bind(config: ShardConfig) -> std::io::Result<Shard> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a shard needs at least one backend address",
            ));
        }
        // Idle timeout 0: the shard never evicts idle connections.
        let front = Front::bind(&config.addr, config.max_queue, config.max_conns, 0)?;
        let mut backends = Vec::with_capacity(config.backends.len());
        for addr in &config.backends {
            let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("backend `{addr}` resolves to no address"),
                )
            })?;
            backends.push(Backend {
                addr: addr.clone(),
                sock,
                healthy: AtomicBool::new(true),
                forwarded: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            });
        }
        let vnodes = config.vnodes.max(1);
        let mut ring = Vec::with_capacity(backends.len() * vnodes);
        for (idx, backend) in backends.iter().enumerate() {
            for v in 0..vnodes {
                let point = rw_logic::canon::fnv1a(format!("{}#{v}", backend.addr).as_bytes());
                ring.push((point, idx));
            }
        }
        ring.sort_unstable();
        let threads = match config.threads {
            0 => (backends.len() * 2).clamp(2, 16),
            n => n,
        };
        Ok(Shard {
            front,
            backends,
            ring,
            threads,
            probe_interval_ms: config.probe_interval_ms.max(20),
            retry: config.retry,
            retry_backoff_ms: config.retry_backoff_ms.max(1),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        })
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.front.local_addr()
    }

    /// Forwarding worker threads the pool will run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured backend addresses, in ring-construction order.
    pub fn backend_addrs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr.clone()).collect()
    }

    /// Requests shutdown: the event loop drains gracefully and
    /// [`Shard::run`] returns. Backends are *not* shut down.
    pub fn stop(&self) {
        self.front.stop();
    }

    /// Why the shard is draining (or drained), when it is: `"shutdown"`,
    /// `"SIGTERM"`, or `"SIGINT"`.
    pub fn drain_reason(&self) -> Option<&'static str> {
        self.front.drain_reason()
    }

    /// Serves until shutdown, then drains. Workers, the probe thread
    /// and the event loop all live in one scope, so returning means
    /// everything is joined.
    pub fn run(&self) -> std::io::Result<()> {
        // One synchronous probe round before serving: a backend that is
        // down at startup should not cost the first queries its retry
        // budget.
        for backend in &self.backends {
            backend
                .healthy
                .store(Self::probe(&backend.sock), Ordering::SeqCst);
        }
        crate::front::run(self)
    }

    // ---- routing ----

    /// The routing key hash: KB name ⊕ canonical query form, so
    /// syntactic variants of one query land on one backend (and hit its
    /// cache). A query that does not parse hashes its trimmed text —
    /// every backend produces identical error bytes for it anyway.
    fn route_hash(kb: &str, query: &str) -> u64 {
        let mut vocab = rw_logic::Vocabulary::new();
        let key = match rw_logic::parse_formula(&mut vocab, query) {
            Ok(f) => rw_logic::canon::canonical_formula(&vocab, &f),
            Err(_) => query.trim().to_string(),
        };
        rw_logic::canon::fnv1a(format!("{kb}\u{1f}{key}").as_bytes())
    }

    /// Backend indices in ring order from `hash`'s successor: element 0
    /// is the primary, the rest are the failover chain. Every backend
    /// appears exactly once.
    fn candidates(&self, hash: u64) -> Vec<usize> {
        let start = self.ring.partition_point(|&(h, _)| h < hash) % self.ring.len();
        let mut out = Vec::with_capacity(self.backends.len());
        for i in 0..self.ring.len() {
            let idx = self.ring[(start + i) % self.ring.len()].1;
            if !out.contains(&idx) {
                out.push(idx);
                if out.len() == self.backends.len() {
                    break;
                }
            }
        }
        out
    }

    /// `order`, stably partitioned healthy-first: probed-down backends
    /// are still tried, but only as a last resort.
    fn healthy_first(&self, order: Vec<usize>) -> Vec<usize> {
        let (healthy, down): (Vec<usize>, Vec<usize>) = order
            .into_iter()
            .partition(|&i| self.backends[i].healthy.load(Ordering::SeqCst));
        healthy.into_iter().chain(down).collect()
    }

    // ---- forwarding (worker threads) ----

    fn worker_loop(&self) {
        // One pooled connection per backend per worker: the hot path
        // reuses a warm connection; a stale one (backend restarted)
        // costs a reconnect, not an error.
        let mut pool: Vec<Option<Client>> = (0..self.backends.len()).map(|_| None).collect();
        while let Some(job) = self.front.queue().pop() {
            let line = match job.route {
                Route::Query { hash } => self.forward_query(hash, &job.line, &mut pool),
                Route::Broadcast => self.forward_broadcast(&job.line, &mut pool),
                Route::First => self.forward_first(&job.line, &mut pool),
            };
            self.front.complete(job.conn, job.seq, line);
        }
    }

    /// Routes one query: primary first, then the failover chain. A
    /// non-primary answer is annotated with `"failover":true`; the
    /// answer bytes are otherwise exactly what the backend produced.
    fn forward_query(&self, hash: u64, line: &str, pool: &mut [Option<Client>]) -> String {
        let started = Instant::now();
        let candidates = self.candidates(hash);
        let primary = candidates[0];
        for idx in self.healthy_first(candidates) {
            let Some(resp) = self.forward_to(idx, line, pool) else {
                continue;
            };
            self.forwarded.fetch_add(1, Ordering::Relaxed);
            self.backends[idx].forwarded.fetch_add(1, Ordering::Relaxed);
            if rw_obs::enabled() {
                let registry = rw_obs::registry();
                registry.counter("shard.forwarded").inc();
                registry
                    .histogram("shard.forward_us")
                    .record_us(started.elapsed().as_micros() as u64);
            }
            if idx != primary {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                self.backends[primary]
                    .failovers
                    .fetch_add(1, Ordering::Relaxed);
                count("shard.failover");
                return annotate_failover(&resp);
            }
            return resp;
        }
        no_backend("no backend available; retry later")
    }

    /// `load`/`unload` go to every backend so registries stay in
    /// lock-step. An explicit protocol error (parse failure, unknown
    /// KB) is deterministic across backends and wins; otherwise any
    /// acknowledgment does — an unreachable backend rejoins with the
    /// same KBs via its snapshot, or is probed out until then.
    fn forward_broadcast(&self, line: &str, pool: &mut [Option<Client>]) -> String {
        let mut ok_line: Option<String> = None;
        let mut err_line: Option<String> = None;
        for idx in 0..self.backends.len() {
            if let Some(resp) = self.forward_to(idx, line, pool) {
                if resp.starts_with(r#"{"ok":false"#) {
                    err_line.get_or_insert(resp);
                } else {
                    ok_line = Some(resp);
                }
            }
        }
        if let Some(line) = err_line {
            return line;
        }
        if let Some(line) = ok_line {
            return line;
        }
        no_backend("no backend reachable; retry later")
    }

    /// `list`: any backend's answer is every backend's answer.
    fn forward_first(&self, line: &str, pool: &mut [Option<Client>]) -> String {
        let order = self.healthy_first((0..self.backends.len()).collect());
        for idx in order {
            if let Some(resp) = self.forward_to(idx, line, pool) {
                return resp;
            }
        }
        no_backend("no backend reachable; retry later")
    }

    /// One attempt chain against one backend: pooled connection, then
    /// fresh connects with exponential backoff. `None` means the
    /// backend cannot serve right now — unreachable after retries, or
    /// draining — and the caller should move on.
    fn forward_to(&self, idx: usize, line: &str, pool: &mut [Option<Client>]) -> Option<String> {
        let backend = &self.backends[idx];
        if let Some(client) = pool[idx].as_mut() {
            match client.request_line(line) {
                Ok(resp) => {
                    if is_draining(&resp) {
                        pool[idx] = None;
                        self.note_draining(idx);
                        return None;
                    }
                    return Some(resp);
                }
                // A stale pooled connection (backend restarted between
                // requests) is normal: drop it and reconnect below.
                Err(_) => pool[idx] = None,
            }
        }
        let mut backoff = Duration::from_millis(self.retry_backoff_ms);
        for attempt in 0..=self.retry {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                count("shard.retries");
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(2));
            }
            let Ok(client) = Client::connect_timeout(&backend.sock, CONNECT_TIMEOUT) else {
                continue;
            };
            let _ = client.set_timeouts(Some(FORWARD_TIMEOUT));
            let mut client = client;
            match client.request_line(line) {
                Ok(resp) => {
                    if is_draining(&resp) {
                        self.note_draining(idx);
                        return None;
                    }
                    backend.healthy.store(true, Ordering::SeqCst);
                    pool[idx] = Some(client);
                    return Some(resp);
                }
                Err(_) => continue,
            }
        }
        backend.healthy.store(false, Ordering::SeqCst);
        backend.errors.fetch_add(1, Ordering::Relaxed);
        count("shard.backend_errors");
        None
    }

    /// A backend answered `shutting-down`: it is draining, not broken.
    /// Mark it down so routing skips it; probes will notice when its
    /// replacement comes back up.
    fn note_draining(&self, idx: usize) {
        let backend = &self.backends[idx];
        backend.healthy.store(false, Ordering::SeqCst);
        backend.errors.fetch_add(1, Ordering::Relaxed);
        count("shard.backend.draining");
    }

    // ---- health probes ----

    /// Pings every backend each probe interval, flipping health bits
    /// and the `shard.backends.healthy` gauge. Exits when the drain
    /// begins.
    fn probe_loop(&self) {
        let interval = Duration::from_millis(self.probe_interval_ms);
        loop {
            for backend in &self.backends {
                let healthy = Self::probe(&backend.sock);
                let was = backend.healthy.swap(healthy, Ordering::SeqCst);
                count("shard.health.probes");
                if !healthy {
                    count("shard.health.failures");
                }
                if was != healthy {
                    count(if healthy {
                        "shard.backend.up"
                    } else {
                        "shard.backend.down"
                    });
                }
            }
            if rw_obs::enabled() {
                let up = self
                    .backends
                    .iter()
                    .filter(|b| b.healthy.load(Ordering::SeqCst))
                    .count();
                rw_obs::registry()
                    .gauge("shard.backends.healthy")
                    .set(up as u64);
            }
            // Sleep in small slices so a drain is honored promptly.
            let mut waited = Duration::ZERO;
            while waited < interval {
                if self.front.stopping() {
                    return;
                }
                let step = Duration::from_millis(20).min(interval - waited);
                std::thread::sleep(step);
                waited += step;
            }
        }
    }

    /// One health probe: connect, ping, expect an `ok` answer. A
    /// draining backend refuses with `"ok":false` and probes unhealthy.
    fn probe(sock: &SocketAddr) -> bool {
        let Ok(client) = Client::connect_timeout(sock, PROBE_TIMEOUT) else {
            return false;
        };
        if client.set_timeouts(Some(PROBE_TIMEOUT)).is_err() {
            return false;
        }
        let mut client = client;
        matches!(
            client.request_line(r#"{"op":"ping"}"#),
            Ok(resp) if resp.starts_with(r#"{"ok":true"#)
        )
    }

    /// The `stats` op: shard-level routing totals plus one entry per
    /// backend with its health bit and counters.
    fn stats_json(&self) -> String {
        let backends: Vec<String> = self
            .backends
            .iter()
            .map(|b| {
                format!(
                    r#"{{"addr":"{}","healthy":{},"forwarded":{},"failovers":{},"errors":{}}}"#,
                    crate::json::escape(&b.addr),
                    b.healthy.load(Ordering::SeqCst),
                    b.forwarded.load(Ordering::Relaxed),
                    b.failovers.load(Ordering::Relaxed),
                    b.errors.load(Ordering::Relaxed),
                )
            })
            .collect();
        format!(
            r#"{{"ok":true,"op":"stats","uptime_us":{},"shard":{{"forwarded":{},"failovers":{},"retries":{},"rejected":{},"backends":[{}]}},"queue":{{"depth":{},"capacity":{},"workers":{}}}}}"#,
            self.front.uptime_us(),
            self.forwarded.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
            self.front.rejected(),
            backends.join(","),
            self.front.queue().depth(),
            self.front.queue().capacity(),
            self.threads,
        )
    }
}

impl Handler for Shard {
    type Job = Job;

    fn front(&self) -> &Front<Job> {
        &self.front
    }

    /// Answers one request line: control ops inline, everything that
    /// touches a backend through the admission queue.
    fn handle_line(&self, line: &str, conn: u64, seq: u64) -> Handled {
        let request = match proto::parse_request(line) {
            Ok(r) => r,
            Err(e) => return Handled::Inline(e.line()),
        };
        let route = match request {
            Request::Ping => return Handled::Inline(r#"{"ok":true,"op":"ping"}"#.to_string()),
            Request::Stats => return Handled::Inline(self.stats_json()),
            Request::Metrics => return Handled::Inline(self.front.metrics_json()),
            Request::Shutdown => return Handled::Shutdown,
            Request::Sleep { .. } => {
                return Handled::Inline(ProtoError::bad_request("`sleep` is a test-only op").line())
            }
            Request::Query { kb, query } => Route::Query {
                hash: Self::route_hash(&kb, &query),
            },
            Request::Load { .. } | Request::Unload { .. } => Route::Broadcast,
            Request::List => Route::First,
        };
        self.front.admit(Job {
            line: line.to_string(),
            route,
            conn,
            seq,
        })
    }

    fn spawn_threads<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        for _ in 0..self.threads {
            scope.spawn(|| self.worker_loop());
        }
        scope.spawn(|| self.probe_loop());
    }
}

/// The `overloaded` answer for a request no backend could serve.
fn no_backend(message: &str) -> String {
    count("shard.no_backend");
    ProtoError::overloaded(message).line()
}

/// Whether a backend response line is a drain refusal: those re-route,
/// they never reach a client. Answer lines escape embedded quotes, so
/// the raw `"code":"shutting-down"` substring cannot occur in one.
fn is_draining(resp: &str) -> bool {
    resp.starts_with(r#"{"ok":false"#) && resp.contains(r#""code":"shutting-down""#)
}

/// Appends `"failover":true` to a response object so clients (and the
/// soak harness) can see a query was served by a ring successor. The
/// annotation is additive: stripping it recovers the backend's bytes.
fn annotate_failover(line: &str) -> String {
    match line.strip_suffix('}') {
        Some(body) => format!("{body},\"failover\":true}}"),
        None => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use std::sync::Arc;

    fn shard_of(backends: &[&str]) -> Shard {
        // Bind-only construction: listener on an ephemeral port, ring
        // built, nothing running.
        Shard::bind(ShardConfig {
            backends: backends.iter().map(|s| s.to_string()).collect(),
            ..ShardConfig::default()
        })
        .expect("bind shard")
    }

    #[test]
    fn bind_rejects_empty_backends() {
        match Shard::bind(ShardConfig::default()) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            Ok(_) => panic!("a backend-less shard must not bind"),
        }
    }

    #[test]
    fn candidates_cover_all_backends_deterministically() {
        let shard = shard_of(&["127.0.0.1:19001", "127.0.0.1:19002", "127.0.0.1:19003"]);
        for query in ["Hep(Eric)", "Jaun(Tom)", "Hep(Eric) & Jaun(Eric)"] {
            let hash = Shard::route_hash("med", query);
            let a = shard.candidates(hash);
            let b = shard.candidates(hash);
            assert_eq!(a, b, "ring walk must be deterministic");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "every backend appears once");
        }
    }

    #[test]
    fn route_hash_is_syntax_invariant() {
        // Commuted conjunction and double negation canonicalize to the
        // same routing key — one backend, one warm cache.
        let a = Shard::route_hash("med", "Hep(Eric) & Jaun(Eric)");
        let b = Shard::route_hash("med", "Jaun(Eric) & Hep(Eric)");
        let c = Shard::route_hash("med", "!!(Hep(Eric) & Jaun(Eric))");
        assert_eq!(a, b);
        assert_eq!(a, c);
        // A different KB name must be free to land elsewhere.
        assert_ne!(a, Shard::route_hash("other", "Hep(Eric) & Jaun(Eric)"));
    }

    #[test]
    fn failover_annotation_is_additive() {
        let line = r#"{"ok":true,"op":"query","belief":{"value":0.8}}"#;
        let annotated = annotate_failover(line);
        assert_eq!(
            annotated,
            r#"{"ok":true,"op":"query","belief":{"value":0.8},"failover":true}"#
        );
        assert_eq!(crate::json::strip_failover(&annotated), line);
    }

    #[test]
    fn drain_refusals_are_recognized() {
        assert!(is_draining(
            r#"{"ok":false,"error":"server is shutting down","code":"shutting-down"}"#
        ));
        assert!(!is_draining(r#"{"ok":true,"op":"ping"}"#));
        // A query echoing the substring inside a JSON string is escaped
        // by the answer renderer and must not look like a drain.
        assert!(!is_draining(
            r#"{"ok":false,"error":"no KB named `\"code\":\"shutting-down\"`","code":"unknown-kb"}"#
        ));
    }

    /// End-to-end in-process: two backends behind a shard, a kill, and
    /// a failover that stays invisible to the client (modulo the
    /// annotation).
    #[test]
    fn kill_one_backend_fails_over_with_annotation() {
        let spawn_backend = || {
            let server = Arc::new(
                Server::bind(ServerConfig {
                    threads: 1,
                    ..ServerConfig::default()
                })
                .expect("bind backend"),
            );
            let addr = server.local_addr().expect("backend addr");
            let handle = std::thread::spawn({
                let server = server.clone();
                move || server.run()
            });
            (server, addr, handle)
        };
        let (backend_a, addr_a, handle_a) = spawn_backend();
        let (backend_b, addr_b, handle_b) = spawn_backend();
        let mut backends = [Some(backend_a), Some(backend_b)];
        let mut handles = [Some(handle_a), Some(handle_b)];

        let shard = Arc::new(
            Shard::bind(ShardConfig {
                backends: vec![addr_a.to_string(), addr_b.to_string()],
                threads: 2,
                probe_interval_ms: 50,
                retry: 1,
                retry_backoff_ms: 5,
                ..ShardConfig::default()
            })
            .expect("bind shard"),
        );
        let shard_addr = shard.local_addr().expect("shard addr");
        let shard_handle = std::thread::spawn({
            let shard = shard.clone();
            move || shard.run()
        });

        let mut client = Client::connect(shard_addr).expect("connect shard");
        let loaded = client
            .request_line(
                r#"{"op":"load","kb":"med","text":"||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)"}"#,
            )
            .expect("broadcast load");
        assert!(loaded.starts_with(r#"{"ok":true,"op":"load""#), "{loaded}");

        let query = r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#;
        let first = client.request_line(query).expect("routed query");
        assert!(first.contains(r#""value":0.8"#), "{first}");
        assert!(!first.contains(r#""failover":true"#), "{first}");

        // Kill the primary for this key; the ring successor must answer
        // the same bytes, annotated.
        let primary = shard.candidates(Shard::route_hash("med", "Hep(Eric)"))[0];
        backends[primary].as_ref().expect("primary alive").stop();
        handles[primary]
            .take()
            .expect("primary handle")
            .join()
            .expect("join primary")
            .expect("primary run");
        // Drop the Server so its listener closes: a killed process's
        // port refuses connects instead of accepting into a backlog
        // nobody drains (which would stall the failover on the forward
        // timeout instead of an instant ECONNREFUSED).
        backends[primary] = None;

        let over = client.request_line(query).expect("failover query");
        assert!(over.contains(r#""failover":true"#), "{over}");
        assert_eq!(
            crate::json::mask_times(&crate::json::strip_failover(&over)),
            crate::json::mask_times(&first)
        );

        let stats = client.request_line(r#"{"op":"stats"}"#).expect("stats");
        assert!(stats.contains(r#""failovers":1"#), "{stats}");

        // Drain the shard, then the surviving backend.
        let ack = client.request_line(r#"{"op":"shutdown"}"#).expect("ack");
        assert!(ack.contains(r#""op":"shutdown""#), "{ack}");
        shard_handle.join().expect("join shard").expect("shard run");
        assert_eq!(shard.drain_reason(), Some("shutdown"));
        let survivor = 1 - primary;
        backends[survivor].as_ref().expect("survivor alive").stop();
        handles[survivor]
            .take()
            .expect("survivor handle")
            .join()
            .expect("join survivor")
            .expect("survivor run");
    }
}
