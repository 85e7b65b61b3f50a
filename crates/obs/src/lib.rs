//! Always-on observability for the random-worlds serving stack.
//!
//! Random-worlds inference cost is wildly shape-dependent: the same
//! pipeline answers a direct-inference query in microseconds and then
//! spends hundreds of milliseconds on a low-acceptance Monte-Carlo
//! statistic or on exact world counting. This crate is the measurement
//! substrate that makes those cliffs visible in production instead of by
//! accident:
//!
//! - [`MetricsRegistry`] — named atomic counters, gauges and
//!   log2-bucketed latency [`Histogram`]s with p50/p90/p99 snapshot
//!   math. Recording is lock-free; one process-global instance lives
//!   behind [`registry`].
//! - [`SpanRecorder`] / [`SpanGuard`] — per-request hierarchical
//!   wall/CPU spans with process-unique trace ids ([`next_trace_id`]),
//!   serialized by [`spans_json`] into the server's slow-query log and
//!   re-aggregated by `rwq obs`.
//! - JSON ([`RegistrySnapshot::to_json`]) and text
//!   ([`RegistrySnapshot::to_text`]) exposition.
//!
//! The hard contract, shared with every consumer: **observability never
//! changes answer bytes**. Instrumentation only appends to side
//! channels (the metrics registry, the slow/access logs); response
//! lines stay byte-identical with it on or off, and every timing field
//! anywhere is `_us`-suffixed so the golden corpus's time masking keeps
//! working. The [`set_enabled`]/[`enabled`] switch exists for overhead
//! benchmarks, not correctness: code must behave identically either
//! way, just faster with recording skipped.

mod histogram;
mod registry;
mod span;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry, RegistrySnapshot};
pub use span::{next_trace_id, spans_json, thread_cpu_us, SpanGuard, SpanRecord, SpanRecorder};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);

/// The process-global registry every instrumented crate records into.
pub fn registry() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Whether instrumentation sites should record (default: on). A single
/// relaxed load — cheap enough to check on any hot path.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording at instrumentation sites on or off. Exists so the
/// overhead benchmark can compare instrumented vs. uninstrumented
/// throughput in one process; answers must not depend on it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Minimal JSON string escaping (metric and span names are
/// code-controlled, but exposition must never emit broken JSON).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared_and_enabled_by_default() {
        assert!(enabled());
        registry().counter("lib.smoke").inc();
        assert_eq!(registry().counter("lib.smoke").get(), 1);
    }

    #[test]
    fn escape_handles_quotes_and_control_bytes() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
