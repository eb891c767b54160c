//! # pc-metrics — host-side telemetry vocabulary
//!
//! The simulated machine is fully attributable (`StallTable`, `pcsim
//! explain`); this crate gives the *host* the same treatment: where do
//! the simulator's and the sweep engine's own nanoseconds go? It is the
//! shared metrics vocabulary under the engine phase profile
//! (`pc_sim::HostProfile`), the sweep pool/cache telemetry
//! (`coupling::sweep`), and the `pcsim metrics` report.
//!
//! Design rules, in priority order:
//!
//! 1. **Zero cost when off.** Nothing here is global: a component holds
//!    an `Option<…>` of its telemetry and a disabled run pays one
//!    predicted branch per recording point, allocates nothing, and
//!    reads no clock. Recording never changes simulated results —
//!    telemetry observes the host, not the machine.
//! 2. **Lock-free when on.** Recording is plain relaxed atomics
//!    ([`Counter`], [`Gauge`], [`Histogram`]) or per-worker padded
//!    lanes ([`Lanes`]) each written by exactly one thread; registration
//!    happens once at setup, so only [`Registry::snapshot`] walks the
//!    whole set.
//! 3. **Aggregate at snapshot time.** A [`Snapshot`] is a plain,
//!    orderable value: render it as a terminal report
//!    ([`Snapshot::render_text`]), one JSONL line
//!    ([`Snapshot::to_jsonl`]), or Prometheus text exposition
//!    ([`Snapshot::render_prometheus`]) ready for a `/metrics` endpoint.
//!
//! Hot single-threaded loops (the simulator's per-cycle phases) use the
//! non-atomic [`SampledTimers`] instead: exact invocation counts plus
//! clock reads on one invocation in [`SAMPLE_PERIOD`], so the estimated
//! per-phase nanoseconds cost a fraction of a clock read per cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod render;

pub use render::{render_prometheus, sanitize_metric_name};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many invocations one [`SampledTimers`] clock pair covers: phase
/// `k` is timed on every invocation with `calls % SAMPLE_PERIOD == 0`
/// and the total is estimated by scaling. Power of two so the hot-path
/// check is a mask.
pub const SAMPLE_PERIOD: u64 = 512;

const RELAXED: Ordering = Ordering::Relaxed;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// A monotonically increasing count (events, items, nanoseconds).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, RELAXED);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(RELAXED)
    }
}

/// A value that can move both ways (queue depth, occupancy). Also the
/// high-water-mark primitive via [`Gauge::set_max`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, RELAXED);
    }

    /// Raises the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, RELAXED);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(RELAXED)
    }
}

/// Number of power-of-two histogram buckets: bucket `i` holds values
/// `v` with `2^i <= v < 2^(i+1)` (bucket 0 also holds 0). The last
/// bucket absorbs everything at or above `2^(HIST_BUCKETS-1)`.
pub const HIST_BUCKETS: usize = 40;

/// A lock-free power-of-two-bucketed histogram (latencies in
/// nanoseconds, block sizes, depths). 40 buckets cover 1 ns to ~9
/// minutes with ≤2× relative error — plenty for "where did the time
/// go", and cheap enough to record on every cache probe.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index recording `v` increments: the index of `v`'s
    /// highest set bit (0 for 0 and 1), clamped to the last bucket.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        let bits = 64 - (v | 1).leading_zeros() as usize;
        (bits - 1).min(HIST_BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i` (`2^(i+1) - 1`).
    pub fn upper_bound(i: usize) -> u64 {
        (2u64 << i) - 1
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, RELAXED);
        self.count.fetch_add(1, RELAXED);
        self.sum.fetch_add(v, RELAXED);
    }

    /// Point-in-time summary.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count.load(RELAXED),
            sum: self.sum.load(RELAXED),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(RELAXED);
                    (n != 0).then_some((Self::upper_bound(i), n))
                })
                .collect(),
        }
    }
}

/// A [`Histogram`]'s aggregated form: non-empty `(upper_bound, count)`
/// buckets, total count, and sum of observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSummary {
    /// Mean observation, or 0 with no observations.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// observation (`q` in 0..=1), or 0 with no observations. Bucketed,
    /// so accurate to the 2× bucket width — fine for reports.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(ub, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return ub;
            }
        }
        self.buckets.last().map(|&(ub, _)| ub).unwrap_or(0)
    }
}

/// One cache line's worth of padding around a per-worker counter so
/// workers never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Per-worker counter lanes: lane `w` is written only by worker `w`
/// (relaxed stores on its own cache line), read by anyone — the
/// progress display reads live lanes while workers run. Aggregation is
/// [`Lanes::total`] at snapshot time.
#[derive(Debug)]
pub struct Lanes {
    lanes: Box<[PaddedU64]>,
}

impl Lanes {
    /// `n` lanes at zero.
    pub fn new(n: usize) -> Self {
        Lanes {
            lanes: (0..n.max(1)).map(|_| PaddedU64::default()).collect(),
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Always false: even a handle built for zero lanes holds one, so
    /// recording never bounds-checks.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds `n` to worker `w`'s lane.
    #[inline]
    pub fn add(&self, w: usize, n: u64) {
        self.lanes[w].0.fetch_add(n, RELAXED);
    }

    /// Worker `w`'s lane value.
    pub fn get(&self, w: usize) -> u64 {
        self.lanes[w].0.load(RELAXED)
    }

    /// Sum over all lanes.
    pub fn total(&self) -> u64 {
        self.lanes.iter().map(|l| l.0.load(RELAXED)).sum()
    }

    /// All lane values, in worker order.
    pub fn per_lane(&self) -> Vec<u64> {
        self.lanes.iter().map(|l| l.0.load(RELAXED)).collect()
    }
}

// ---------------------------------------------------------------------
// Sampled phase timers (single-threaded hot loops)
// ---------------------------------------------------------------------

/// Exact-count, sampled-duration timers for `N` phases of a
/// single-threaded hot loop (the simulator's per-cycle step phases).
///
/// Every invocation increments the phase's call count; one in
/// [`SAMPLE_PERIOD`] also reads the clock around the phase body. The
/// total duration is then *estimated* as `sampled_ns × calls /
/// sampled_calls` — unbiased under the cycle-mix assumption and two
/// orders of magnitude cheaper than timing every call, which is what
/// keeps metrics-on runs inside the bench-gate noise floor.
#[derive(Debug, Clone)]
pub struct SampledTimers<const N: usize> {
    calls: [u64; N],
    sampled_calls: [u64; N],
    sampled_ns: [u64; N],
}

impl<const N: usize> Default for SampledTimers<N> {
    fn default() -> Self {
        SampledTimers {
            calls: [0; N],
            sampled_calls: [0; N],
            sampled_ns: [0; N],
        }
    }
}

impl<const N: usize> SampledTimers<N> {
    /// Fresh timers, all zero.
    pub fn new() -> Self {
        SampledTimers::default()
    }

    /// Marks one invocation of phase `i`; returns a start token on
    /// sampled invocations (pass it to [`SampledTimers::stop`]).
    #[inline]
    pub fn start(&mut self, i: usize) -> Option<Instant> {
        let c = self.calls[i];
        self.calls[i] = c + 1;
        (c & (SAMPLE_PERIOD - 1) == 0).then(Instant::now)
    }

    /// Closes a sampled invocation of phase `i` (no-op for `None`).
    #[inline]
    pub fn stop(&mut self, i: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.sampled_calls[i] += 1;
            self.sampled_ns[i] += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Exact invocation count of phase `i`.
    pub fn calls(&self, i: usize) -> u64 {
        self.calls[i]
    }

    /// Invocations of phase `i` that were actually clocked.
    pub fn sampled_calls(&self, i: usize) -> u64 {
        self.sampled_calls[i]
    }

    /// Estimated total nanoseconds in phase `i`: the sampled mean
    /// scaled to the exact call count (0 when never sampled).
    pub fn estimated_ns(&self, i: usize) -> u64 {
        if self.sampled_calls[i] == 0 {
            return 0;
        }
        // 128-bit intermediate: ns × calls overflows u64 on long runs.
        ((self.sampled_ns[i] as u128 * self.calls[i] as u128) / self.sampled_calls[i] as u128)
            as u64
    }
}

// ---------------------------------------------------------------------
// Registry and snapshot
// ---------------------------------------------------------------------

/// What kind of instrument a registry entry is.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// Lanes appear in snapshots as one labeled sample per worker plus
    /// a `…_total` sum.
    Lanes(Arc<Lanes>),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A named set of instruments, aggregated by [`Registry::snapshot`].
///
/// Registration takes a mutex (setup-time only); recording goes through
/// the returned `Arc`s and never locks. Names should be
/// `snake_case_with_unit_suffix` (`_total`, `_ns`, `_bytes`) — they
/// pass through [`sanitize_metric_name`] on Prometheus render.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn push(&self, name: &str, help: &str, instrument: Instrument) {
        self.entries.lock().expect("registry lock").push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            instrument,
        });
    }

    /// Registers and returns a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.push(name, help, Instrument::Counter(Arc::clone(&c)));
        c
    }

    /// Registers and returns a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push(name, help, Instrument::Gauge(Arc::clone(&g)));
        g
    }

    /// Registers and returns a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, Instrument::Histogram(Arc::clone(&h)));
        h
    }

    /// Registers and returns `n` per-worker lanes.
    pub fn lanes(&self, name: &str, help: &str, n: usize) -> Arc<Lanes> {
        let l = Arc::new(Lanes::new(n));
        self.push(name, help, Instrument::Lanes(Arc::clone(&l)));
        l
    }

    /// Point-in-time aggregation of every registered instrument, in
    /// name order (stable across identical registrations, so snapshots
    /// diff cleanly).
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry lock");
        let mut samples: Vec<Sample> = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            match &e.instrument {
                Instrument::Counter(c) => samples.push(Sample {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    label: None,
                    value: SampleValue::Counter(c.get()),
                }),
                Instrument::Gauge(g) => samples.push(Sample {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    label: None,
                    value: SampleValue::Gauge(g.get()),
                }),
                Instrument::Histogram(h) => samples.push(Sample {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    label: None,
                    value: SampleValue::Histogram(h.summary()),
                }),
                Instrument::Lanes(l) => {
                    for (w, v) in l.per_lane().into_iter().enumerate() {
                        samples.push(Sample {
                            name: e.name.clone(),
                            help: e.help.clone(),
                            label: Some(("worker".to_string(), w.to_string())),
                            value: SampleValue::Counter(v),
                        });
                    }
                }
            }
        }
        samples.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        Snapshot { samples }
    }
}

/// One aggregated reading of one instrument (one lane, for [`Lanes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (`snake_case`, unit-suffixed).
    pub name: String,
    /// One-line description.
    pub help: String,
    /// Optional `(key, value)` label — `("worker", "3")` for lanes.
    pub label: Option<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// A [`Sample`]'s reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(u64),
    /// Aggregated histogram.
    Histogram(HistSummary),
}

/// A point-in-time aggregation of a [`Registry`] (or a hand-built set
/// of samples — the engine's [`SampledTimers`] profile converts into
/// one for uniform rendering).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Samples in `(name, label)` order.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Builds a snapshot from pre-made samples, sorting them into the
    /// canonical `(name, label)` order.
    pub fn from_samples(mut samples: Vec<Sample>) -> Snapshot {
        samples.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        Snapshot { samples }
    }

    /// The sample named `name` (first match, any label).
    pub fn get(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// The counter/gauge value named `name` with no label, if present.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.label.is_none())
            .and_then(|s| match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => Some(*v),
                SampleValue::Histogram(_) => None,
            })
    }

    /// Sum of every lane of the labeled counter family `name`.
    pub fn labeled_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.label.is_some())
            .map(|s| match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => *v,
                SampleValue::Histogram(h) => h.sum,
            })
            .sum()
    }

    /// One JSONL line: `{"telemetry":true,"metrics":{...}}`, names in
    /// canonical order. Labeled samples key as `name{label=value}`;
    /// histograms as `{"count":..,"sum":..,"buckets":[[le,n],..]}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::from("{\"telemetry\":true,\"metrics\":{");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key = match &s.label {
                Some((k, v)) => format!("{}{{{}={}}}", s.name, k, v),
                None => s.name.clone(),
            };
            out.push('"');
            out.push_str(&json_escape(&key));
            out.push_str("\":");
            match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    out.push_str(&v.to_string());
                }
                SampleValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count, h.sum
                    ));
                    for (j, (ub, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{ub},{n}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("}}");
        out
    }

    /// Human-readable report: one aligned line per sample, histograms
    /// with count/mean/p50/p99.
    pub fn render_text(&self) -> String {
        let width = self
            .samples
            .iter()
            .map(|s| {
                s.name.len()
                    + s.label
                        .as_ref()
                        .map(|(k, v)| k.len() + v.len() + 3)
                        .unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for s in &self.samples {
            let key = match &s.label {
                Some((k, v)) => format!("{}{{{}={}}}", s.name, k, v),
                None => s.name.clone(),
            };
            match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    out.push_str(&format!("{key:<width$}  {v}\n"));
                }
                SampleValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{key:<width$}  count {}  mean {}  p50 ≤{}  p99 ≤{}\n",
                        h.count,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.99),
                    ));
                }
            }
        }
        out
    }

    /// Prometheus text exposition (see [`render_prometheus`]).
    pub fn render_prometheus(&self, prefix: &str) -> String {
        render_prometheus(self, prefix)
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
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
    fn counter_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7, "set_max never lowers");
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(Histogram::upper_bound(0), 1);
        assert_eq!(Histogram::upper_bound(1), 3);
        assert_eq!(Histogram::upper_bound(9), 1023);
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 900, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1906);
        assert_eq!(s.buckets, vec![(1, 2), (3, 2), (1023, 2)]);
        assert_eq!(s.mean(), 1906 / 6);
        assert_eq!(s.quantile(0.5), 3);
        assert_eq!(s.quantile(1.0), 1023);
        assert_eq!(HistSummary::default().quantile(0.5), 0);
    }

    #[test]
    fn lanes_aggregate_and_stay_per_worker() {
        let l = Lanes::new(3);
        l.add(0, 5);
        l.add(2, 7);
        l.add(0, 1);
        assert_eq!(l.per_lane(), vec![6, 0, 7]);
        assert_eq!(l.total(), 13);
        assert_eq!(Lanes::new(0).len(), 1, "zero lanes clamps to one");
    }

    #[test]
    fn sampled_timers_estimate_scales_to_exact_calls() {
        let mut t = SampledTimers::<2>::new();
        for _ in 0..(SAMPLE_PERIOD * 3) {
            let tok = t.start(0);
            // Only every SAMPLE_PERIOD-th invocation carries a token;
            // hold those open until the clock visibly advances so the
            // estimate is provably nonzero.
            if let Some(t0) = tok {
                while t0.elapsed().as_nanos() == 0 {
                    std::hint::spin_loop();
                }
            }
            t.stop(0, tok);
        }
        assert_eq!(t.calls(0), SAMPLE_PERIOD * 3);
        assert_eq!(t.sampled_calls(0), 3);
        assert_eq!(t.calls(1), 0);
        assert_eq!(t.estimated_ns(1), 0);
        // Estimate = mean sampled ns × calls ≥ calls, since every
        // sampled window read at least 1 ns.
        assert!(t.estimated_ns(0) >= t.calls(0), "{}", t.estimated_ns(0));
    }

    #[test]
    fn registry_snapshot_is_name_ordered_and_typed() {
        let r = Registry::new();
        let c = r.counter("zz_total", "a counter");
        let g = r.gauge("aa_depth", "a gauge");
        let h = r.histogram("mm_ns", "a histogram");
        let l = r.lanes("ww_busy_ns", "per-worker", 2);
        c.add(3);
        g.set_max(9);
        h.record(5);
        l.add(1, 4);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["aa_depth", "mm_ns", "ww_busy_ns", "ww_busy_ns", "zz_total"]
        );
        assert_eq!(snap.value("zz_total"), Some(3));
        assert_eq!(snap.value("aa_depth"), Some(9));
        assert_eq!(snap.labeled_total("ww_busy_ns"), 4);
        assert!(matches!(
            snap.get("mm_ns").unwrap().value,
            SampleValue::Histogram(_)
        ));
    }

    #[test]
    fn jsonl_line_is_stable_and_parsable_shape() {
        let r = Registry::new();
        r.counter("cells_total", "cells").add(2);
        r.histogram("lat_ns", "lat").record(3);
        let line = r.snapshot().to_jsonl();
        assert_eq!(
            line,
            "{\"telemetry\":true,\"metrics\":{\"cells_total\":2,\
             \"lat_ns\":{\"count\":1,\"sum\":3,\"buckets\":[[3,1]]}}}"
        );
    }
}
