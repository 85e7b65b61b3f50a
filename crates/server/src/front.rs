//! The readiness event loop both serving fronts run: `rwq serve`
//! ([`crate::server::Server`]) and `rwq shard` ([`crate::shard::Shard`]).
//!
//! The loop owns everything about connections — the listener, one
//! nonblocking socket and [`Conn`] state machine per client, the wake
//! pipe workers use to hand answers back, the bounded admission queue,
//! the connection ceiling, fd-exhaustion backoff and the graceful drain.
//! A front plugs in through [`Handler`]: how one request line is
//! answered (registry dispatch or ring routing), which threads serve the
//! queue, and optionally a periodic checkpoint. The loop is generic over
//! the handler, so the per-line call is monomorphized — no dynamic
//! dispatch on the request path.

use crate::conn::{Conn, Frame};
use crate::poll::{self, PollFd, POLLHUP, POLLIN, POLLOUT};
use crate::proto::{ErrorCode, ProtoError};
use crate::queue::{JobQueue, PushError};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Per-connection request-line cap. A line beyond this is answered with
/// one `bad-request` error and skipped (the connection resynchronizes
/// at the next newline); with the fixed-size chunk reads this bounds a
/// connection's buffering no matter what the client streams. Inline
/// `load` texts for realistic KBs are kilobytes, so 4 MiB is generous.
pub const MAX_LINE: usize = 4 << 20;

/// Hard ceiling on a graceful drain: connections that have not
/// delivered everything they owe within this window are force-closed so
/// [`run`] always returns.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Largest accept burst per loop iteration — bounds time spent away
/// from established connections when a connect storm hits.
const ACCEPT_BURST: usize = 256;

/// Read chunks consumed per connection per iteration (fairness: one
/// fast writer may not monopolize the loop).
const READS_PER_TICK: usize = 16;

/// A finished job on its way back from a worker to the event loop.
struct Completion {
    conn: u64,
    seq: u64,
    line: String,
}

/// How the event loop should deliver a request's answer.
pub(crate) enum Handled {
    /// Answered on the loop thread: fill the slot now.
    Inline(String),
    /// The `shutdown` op: start the drain, acknowledge it, and close
    /// this connection once the acknowledgment flushes.
    Shutdown,
    /// Admitted to the worker queue; the slot fills on completion.
    Queued,
}

/// What a serving front supplies to the shared loop.
pub(crate) trait Handler: Sync {
    /// The admission-queue job type.
    type Job: Send;

    /// The loop state this front runs on.
    fn front(&self) -> &Front<Self::Job>;

    /// Answers one request line for response slot `seq` of connection
    /// `conn`: inline, or by admitting a job whose worker later calls
    /// [`Front::complete`] with the same `conn` and `seq`.
    fn handle_line(&self, line: &str, conn: u64, seq: u64) -> Handled;

    /// Spawns the threads that serve the admission queue (and any
    /// background threads) into the serving scope. They must return once
    /// the queue closes or [`Front::stopping`] turns true.
    fn spawn_threads<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>);

    /// How often the loop calls [`Handler::checkpoint`]; `None` never.
    fn checkpoint_interval(&self) -> Option<Duration> {
        None
    }

    /// A periodic durability checkpoint, run on the loop thread.
    fn checkpoint(&self) {}
}

/// The loop's shared state: listener, admission queue, worker → loop
/// hand-off and the stop/drain flags.
pub(crate) struct Front<J> {
    listener: TcpListener,
    queue: JobQueue<J>,
    /// Worker → event-loop handoff: finished jobs land here and a byte
    /// on the wake pipe interrupts the loop's `ppoll`.
    completions: Mutex<Vec<Completion>>,
    /// Write end of the wake pipe, present while [`run`] lives.
    wake: Mutex<Option<UnixStream>>,
    stop: AtomicBool,
    /// Why the drain began: 0 = not draining, 1 = `shutdown` op /
    /// [`Front::stop`], 2 = SIGTERM, 3 = SIGINT. First writer wins.
    drain_reason: AtomicU8,
    /// Admissions refused because the queue was full.
    rejected: AtomicU64,
    /// Open connections, mirrored by the event loop for `metrics`.
    conns_open: AtomicU64,
    started: Instant,
    max_conns: usize,
    idle_timeout: Option<Duration>,
}

impl<J> Front<J> {
    /// Binds the listener. `idle_timeout_ms == 0` disables idle eviction.
    pub(crate) fn bind(
        addr: &str,
        max_queue: usize,
        max_conns: usize,
        idle_timeout_ms: u64,
    ) -> std::io::Result<Front<J>> {
        Ok(Front {
            listener: TcpListener::bind(addr)?,
            queue: JobQueue::new(max_queue),
            completions: Mutex::new(Vec::new()),
            wake: Mutex::new(None),
            stop: AtomicBool::new(false),
            drain_reason: AtomicU8::new(0),
            rejected: AtomicU64::new(0),
            conns_open: AtomicU64::new(0),
            started: Instant::now(),
            max_conns: max_conns.max(1),
            idle_timeout: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
        })
    }

    pub(crate) fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub(crate) fn queue(&self) -> &JobQueue<J> {
        &self.queue
    }

    pub(crate) fn max_conns(&self) -> usize {
        self.max_conns
    }

    pub(crate) fn idle_timeout_ms(&self) -> u64 {
        self.idle_timeout.map_or(0, |t| t.as_millis() as u64)
    }

    /// Queries refused with `overloaded` because the queue was full.
    pub(crate) fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    pub(crate) fn uptime_us(&self) -> u128 {
        self.started.elapsed().as_micros()
    }

    /// Requests a graceful drain: reading stops, in-flight requests
    /// complete and flush, new connects are refused, and [`run`] returns.
    pub(crate) fn stop(&self) {
        self.begin_stop(1);
    }

    /// Whether a drain has been requested.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Starts the drain, recording why (first reason wins).
    fn begin_stop(&self, reason: u8) {
        let _ = self
            .drain_reason
            .compare_exchange(0, reason, Ordering::SeqCst, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.wake_loop();
    }

    /// Why the front is draining (or drained), when it is: `"shutdown"`
    /// (the wire op or [`Front::stop`]), `"SIGTERM"`, or `"SIGINT"`.
    pub(crate) fn drain_reason(&self) -> Option<&'static str> {
        match self.drain_reason.load(Ordering::SeqCst) {
            1 => Some("shutdown"),
            2 => Some("SIGTERM"),
            3 => Some("SIGINT"),
            _ => None,
        }
    }

    /// Writes one byte into the wake pipe so a blocked `ppoll` returns
    /// now. Best-effort: a full pipe already guarantees a wakeup, and a
    /// missing pipe means no loop is running.
    fn wake_loop(&self) {
        if let Some(stream) = self.wake.lock().expect("wake lock poisoned").as_ref() {
            let mut writer = stream;
            let _ = writer.write(&[1]);
        }
    }

    /// Hands a finished job back to the event loop and wakes it.
    pub(crate) fn complete(&self, conn: u64, seq: u64, line: String) {
        self.completions
            .lock()
            .expect("completions lock poisoned")
            .push(Completion { conn, seq, line });
        self.wake_loop();
    }

    /// Admits a job to the queue; a full queue is answered immediately
    /// with `overloaded` — the event loop never blocks on admission.
    pub(crate) fn admit(&self, job: J) -> Handled {
        match self.queue.push(job) {
            Ok(()) => Handled::Queued,
            Err(PushError::Full) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                count("queue.rejected");
                Handled::Inline(
                    ProtoError::overloaded(format!(
                        "admission queue full ({} pending); retry later",
                        self.queue.capacity()
                    ))
                    .line(),
                )
            }
            Err(PushError::Closed) => Handled::Inline(shutting_down().line()),
        }
    }

    /// The `metrics` op: the full observability-registry snapshot, with
    /// the admission-queue depth and open-connection gauges refreshed at
    /// snapshot time.
    pub(crate) fn metrics_json(&self) -> String {
        let registry = rw_obs::registry();
        registry.gauge("queue.depth").set(self.queue.depth() as u64);
        registry
            .gauge("conns.open")
            .set(self.conns_open.load(Ordering::Relaxed));
        format!(
            r#"{{"ok":true,"op":"metrics","uptime_us":{},"metrics":{}}}"#,
            self.uptime_us(),
            registry.snapshot().to_json(),
        )
    }
}

/// Increments a registry counter when observability is recording.
pub(crate) fn count(name: &str) {
    if rw_obs::enabled() {
        rw_obs::registry().counter(name).inc();
    }
}

fn shutting_down() -> ProtoError {
    ProtoError {
        code: ErrorCode::ShuttingDown,
        message: "server is shutting down".to_string(),
    }
}

/// Serves until shutdown, then drains. The handler's threads and the
/// event loop all live in one scope, so returning means everything is
/// joined.
pub(crate) fn run<H: Handler>(handler: &H) -> std::io::Result<()> {
    let front = handler.front();
    front.listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    *front.wake.lock().expect("wake lock poisoned") = Some(wake_tx);
    let result = std::thread::scope(|scope| {
        handler.spawn_threads(scope);
        let result = event_loop(handler, &wake_rx);
        // Workers drain everything already admitted, then exit.
        front.queue.close();
        result
    });
    *front.wake.lock().expect("wake lock poisoned") = None;
    result
}

/// The readiness loop: one `ppoll` over the wake pipe, the listener
/// and every connection, then one pass of completions → accepts →
/// per-connection IO. Runs until a graceful drain empties the
/// connection table (or the drain deadline forces it).
fn event_loop<H: Handler>(handler: &H, wake_rx: &UnixStream) -> std::io::Result<()> {
    let front = handler.front();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    // fd-exhaustion backoff: accepting pauses until the deadline,
    // doubling on repeat up to one second.
    let mut accept_pause: Option<Instant> = None;
    let mut backoff = Duration::from_millis(10);
    let mut drain_deadline: Option<Instant> = None;
    let idle_timeout = front.idle_timeout;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut frames: Vec<Frame> = Vec::new();
    let checkpoint_interval = handler.checkpoint_interval();
    let mut last_checkpoint = Instant::now();

    loop {
        // ---- lifecycle: signals, drain, closes, idle eviction ----
        if let Some(signo) = crate::signal::take() {
            // A supervisor's SIGTERM (or an operator's Ctrl-C) is a
            // drain request, not a death sentence: same graceful
            // path as the `shutdown` op.
            let reason = if signo == crate::signal::SIGINT { 3 } else { 2 };
            front.begin_stop(reason);
        }
        if front.stopping() && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
            count("conns.drain");
            match front.drain_reason() {
                Some("SIGTERM") | Some("SIGINT") => count("conns.drain.signal"),
                _ => count("conns.drain.shutdown"),
            }
            // Stop reading everywhere; finish what each connection
            // is owed, then close it.
            for conn in conns.values_mut() {
                conn.closing = true;
            }
        }
        if checkpoint_interval.is_some_and(|every| last_checkpoint.elapsed() >= every) {
            handler.checkpoint();
            last_checkpoint = Instant::now();
        }
        conns.retain(|_, c| !(c.closing && c.drained()));
        if let Some(deadline) = drain_deadline {
            if conns.is_empty() || Instant::now() >= deadline {
                break;
            }
        }
        if let Some(timeout) = idle_timeout {
            let now = Instant::now();
            let evicted: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    c.is_idle() && !c.closing && now.duration_since(c.last_activity) >= timeout
                })
                .map(|(&id, _)| id)
                .collect();
            for id in evicted {
                conns.remove(&id);
                count("conns.idle_closed");
            }
        }
        front
            .conns_open
            .store(conns.len() as u64, Ordering::Relaxed);
        if rw_obs::enabled() {
            rw_obs::registry()
                .gauge("conns.open")
                .set(conns.len() as u64);
        }

        // ---- build the poll set ----
        fds.clear();
        ids.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        if accept_pause.is_some_and(|until| Instant::now() >= until) {
            accept_pause = None;
        }
        // The listener stays polled during drain: connects are
        // answered with a structured refusal instead of hanging in
        // the backlog until the listener drops.
        let listener_idx = if accept_pause.is_none() {
            fds.push(PollFd::new(front.listener.as_raw_fd(), POLLIN));
            Some(fds.len() - 1)
        } else {
            None
        };
        let conn_base = fds.len();
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if !conn.closing && !conn.read_paused() {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            // events == 0 still reports POLLERR/POLLHUP, which is
            // exactly what a quiesced connection needs watched.
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            ids.push(id);
        }
        // The wake pipe handles every urgent wakeup (completions,
        // stop); the timeout only bounds deadline latency.
        let timeout = if drain_deadline.is_some() || accept_pause.is_some() {
            Duration::from_millis(10)
        } else if let Some(t) = idle_timeout {
            t.clamp(Duration::from_millis(10), Duration::from_millis(250))
        } else {
            Duration::from_millis(500)
        };
        poll::poll(&mut fds, Some(timeout))?;

        // ---- drain the wake pipe, apply completions ----
        if fds[0].ready(POLLIN) {
            let mut wake = wake_rx;
            while matches!(wake.read(&mut chunk), Ok(n) if n > 0) {}
        }
        let done =
            std::mem::take(&mut *front.completions.lock().expect("completions lock poisoned"));
        for completion in done {
            let Some(conn) = conns.get_mut(&completion.conn) else {
                // The connection died while its query ran; the
                // answer is simply dropped.
                continue;
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.fill_slot(completion.seq, completion.line);
            conn.last_activity = Instant::now();
            if conn.flush().is_err() {
                conns.remove(&completion.conn);
            }
        }

        // ---- accept ----
        if listener_idx.is_some_and(|i| fds[i].ready(POLLIN)) {
            for _ in 0..ACCEPT_BURST {
                match front.listener.accept() {
                    Ok((stream, _peer)) => {
                        backoff = Duration::from_millis(10);
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        if drain_deadline.is_some() {
                            refuse(stream, shutting_down());
                            continue;
                        }
                        if conns.len() >= front.max_conns {
                            refuse(
                                stream,
                                ProtoError::overloaded(format!(
                                    "connection limit reached ({} open); retry later",
                                    front.max_conns
                                )),
                            );
                            count("conns.refused");
                            continue;
                        }
                        let id = next_id;
                        next_id += 1;
                        conns.insert(id, Conn::new(stream, MAX_LINE));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        count("accept.errors");
                        const EMFILE: i32 = 24;
                        const ENFILE: i32 = 23;
                        if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) {
                            // fd exhaustion: shed the oldest idle
                            // connection and retry the accept; with
                            // nothing to shed, pause accepting with
                            // exponential backoff (established
                            // connections keep full service).
                            let oldest = conns
                                .iter()
                                .filter(|(_, c)| c.is_idle() && !c.closing)
                                .min_by_key(|(_, c)| c.last_activity)
                                .map(|(&id, _)| id);
                            match oldest {
                                Some(id) => {
                                    conns.remove(&id);
                                    count("conns.idle_closed");
                                    continue;
                                }
                                None => {
                                    accept_pause = Some(Instant::now() + backoff);
                                    backoff = (backoff * 2).min(Duration::from_secs(1));
                                    break;
                                }
                            }
                        }
                        // Transient (ECONNABORTED & co): the failed
                        // accept consumed the pending connection;
                        // return to poll rather than spin here.
                        break;
                    }
                }
            }
        }

        // ---- per-connection IO ----
        for (slot, &id) in fds[conn_base..].iter().zip(ids.iter()) {
            let Some(conn) = conns.get_mut(&id) else {
                continue; // shed or closed earlier this iteration
            };
            if slot.failed() {
                conns.remove(&id);
                continue;
            }
            if slot.ready(POLLOUT) && conn.flush().is_err() {
                conns.remove(&id);
                continue;
            }
            if conn.closing || !slot.ready(POLLIN | POLLHUP) {
                continue;
            }
            frames.clear();
            let mut eof = false;
            let mut gone = false;
            for _ in 0..READS_PER_TICK {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        conn.framer.push(&chunk[..n], &mut frames);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        gone = true;
                        break;
                    }
                }
            }
            if gone {
                conns.remove(&id);
                continue;
            }
            if eof {
                // Half-close: a final line without a trailing
                // newline still deserves its answer; everything
                // owed flushes before the connection closes.
                if let Some(line) = conn.framer.finish() {
                    frames.push(Frame::Line(line));
                }
                conn.closing = true;
            }
            let mut acked_shutdown = false;
            for frame in frames.drain(..) {
                let seq = conn.alloc_slot();
                match frame {
                    Frame::Oversized => {
                        let error = ProtoError::bad_request(format!(
                            "request line exceeds {MAX_LINE} bytes"
                        ));
                        conn.fill_slot(seq, error.line());
                    }
                    Frame::Line(line) => match handler.handle_line(&line, id, seq) {
                        Handled::Inline(line) => conn.fill_slot(seq, line),
                        Handled::Shutdown => {
                            front.stop();
                            conn.fill_slot(seq, r#"{"ok":true,"op":"shutdown"}"#.to_string());
                            acked_shutdown = true;
                        }
                        Handled::Queued => conn.inflight += 1,
                    },
                }
            }
            if acked_shutdown {
                conn.closing = true;
            }
            if conn.flush().is_err() {
                conns.remove(&id);
            }
        }
    }
    front.conns_open.store(0, Ordering::Relaxed);
    if rw_obs::enabled() {
        rw_obs::registry().gauge("conns.open").set(0);
    }
    Ok(())
}

/// Best-effort one-line rejection for a connection the loop will not
/// admit (ceiling reached or draining); the socket is dropped after.
fn refuse(mut stream: TcpStream, error: ProtoError) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(format!("{}\n", error.line()).as_bytes());
}
