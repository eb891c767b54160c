//! Host-side telemetry for the simulator engines.
//!
//! [`crate::Machine::enable_host_telemetry`] attaches a
//! `HostTelemetry` block that times each phase of
//! `Machine::step` in *host* nanoseconds and counts the wake-repair
//! machinery's events (bitmask rebuilds, dirty-mark repairs, order-rule
//! re-grades, bulk idle skips). None of it touches simulated state, so a
//! telemetry-on run is bit-identical to a telemetry-off run — the same
//! contract the `Obs` probe layer honors.
//!
//! Phase timing is *sampled*: every invocation increments an exact call
//! counter, but the host clock is read only on one invocation in
//! [`pc_metrics::SAMPLE_PERIOD`], and the total is estimated by scaling
//! (`estimated_ns = sampled_ns × calls / sampled_calls`). This keeps the
//! telemetry-on overhead well under the CI bench gate's 5% budget while
//! still attributing host time phase-by-phase. Nested phases (wake
//! repair runs inside completion and issue phases) report *inclusive*
//! time.

use pc_metrics::{Sample, SampleValue, SampledTimers};

/// Phase index: function-unit pipeline completions (step phase A1).
pub(crate) const PH_PIPE: usize = 0;
/// Phase index: memory-system completions (step phase A2).
pub(crate) const PH_MEM: usize = 1;
/// Phase index: retrying writebacks denied a port (step phase A0).
/// First attempts run inside the completion phases that produce them.
pub(crate) const PH_WRITEBACK: usize = 2;
/// Phase index: operation issue (step phase B).
pub(crate) const PH_ISSUE: usize = 3;
/// Phase index: row advance / control transfer (step phase C).
pub(crate) const PH_ADVANCE: usize = 4;
/// Phase index: full readiness-bitmask rebuild (`refresh_ready`).
pub(crate) const PH_WAKE: usize = 5;
/// Phase index: bulk idle-span skip (`skip_idle_span`).
pub(crate) const PH_SKIP: usize = 6;
/// Number of timed phases.
pub(crate) const N_PHASES: usize = 7;

/// Display names, indexed by the `PH_*` constants.
const PHASE_NAMES: [&str; N_PHASES] = [
    "pipe_completion",
    "mem_completion",
    "writeback",
    "issue",
    "advance",
    "wake_repair",
    "bulk_skip",
];

const PHASE_HELP: [&str; N_PHASES] = [
    "Host time draining due function-unit pipeline entries (phase A1).",
    "Host time draining due memory-system completions (phase A2).",
    "Host time retrying writebacks denied a port or bus (phase A0).",
    "Host time in the issue engine (phase B).",
    "Host time advancing rows and applying control transfers (phase C).",
    "Host time in full readiness-bitmask rebuilds (inclusive, nested).",
    "Host time computing bulk idle-span skips.",
];

/// Live host-telemetry state carried by a [`crate::Machine`]. One
/// predicted branch per phase when absent; sampled clock reads plus
/// plain counter increments when present.
#[derive(Debug, Default)]
pub(crate) struct HostTelemetry {
    /// Sampled per-phase wall timers (exact call counts).
    pub timers: SampledTimers<N_PHASES>,
    /// `Machine::step` invocations observed.
    pub steps: u64,
    /// Full readiness-bitmask rebuilds (`refresh_ready`).
    pub bitmask_rebuilds: u64,
    /// Dirty-mark wake repairs (`update_ready_after_write`).
    pub wake_repairs: u64,
    /// Order-rule re-grades after memory drains
    /// (`update_ready_after_mem_drain`).
    pub mem_drain_regrades: u64,
    /// Bulk idle spans actually taken (clock jumped).
    pub idle_spans_skipped: u64,
    /// Cycles elided by those spans.
    pub idle_cycles_skipped: u64,
}

impl HostTelemetry {
    /// Freezes the current state into a [`HostProfile`] snapshot.
    /// `decode_ns` is the (exact) decode time of the program the
    /// machine runs, measured once by
    /// [`crate::DecodedProgram::decode`].
    pub fn profile(&self, decode_ns: u64) -> HostProfile {
        HostProfile {
            decode_ns,
            steps: self.steps,
            phases: (0..N_PHASES)
                .map(|i| HostPhase {
                    name: PHASE_NAMES[i],
                    calls: self.timers.calls(i),
                    sampled_calls: self.timers.sampled_calls(i),
                    estimated_ns: self.timers.estimated_ns(i),
                })
                .collect(),
            bitmask_rebuilds: self.bitmask_rebuilds,
            wake_repairs: self.wake_repairs,
            mem_drain_regrades: self.mem_drain_regrades,
            idle_spans_skipped: self.idle_spans_skipped,
            idle_cycles_skipped: self.idle_cycles_skipped,
        }
    }
}

/// One phase row of a [`HostProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostPhase {
    /// Phase name (`"issue"`, `"wake_repair"`, …).
    pub name: &'static str,
    /// Exact number of invocations.
    pub calls: u64,
    /// Invocations on which the host clock was read.
    pub sampled_calls: u64,
    /// Estimated total host nanoseconds
    /// (`sampled_ns × calls / sampled_calls`).
    pub estimated_ns: u64,
}

/// Immutable snapshot of a machine's host-side telemetry: where the
/// *host's* time went while simulating, as opposed to
/// [`crate::RunStats`], which says where the *guest's* cycles went.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HostProfile {
    /// Exact nanoseconds spent decoding the program (once per
    /// [`crate::DecodedProgram`], however many machines share it).
    pub decode_ns: u64,
    /// `Machine::step` invocations (cycles actually stepped; bulk-skipped
    /// cycles are not stepped).
    pub steps: u64,
    /// Per-phase timing rows, in fixed phase order.
    pub phases: Vec<HostPhase>,
    /// Full readiness-bitmask rebuilds.
    pub bitmask_rebuilds: u64,
    /// Dirty-mark wake repairs after register writes.
    pub wake_repairs: u64,
    /// Order-rule re-grades after memory-system drains.
    pub mem_drain_regrades: u64,
    /// Bulk idle spans taken.
    pub idle_spans_skipped: u64,
    /// Cycles elided by bulk idle skips.
    pub idle_cycles_skipped: u64,
}

impl HostProfile {
    /// Estimated total nanoseconds across all timed phases (decode
    /// excluded — it happens once per program, not per run).
    pub fn total_phase_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.estimated_ns).sum()
    }

    /// Converts the profile into [`pc_metrics::Sample`]s (names prefixed
    /// `host_`), ready for a [`pc_metrics::Snapshot`] and its JSONL /
    /// text / Prometheus renderers.
    pub fn to_samples(&self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.phases.len() * 2 + 7);
        let counter = |name: &str, help: &str, v: u64| Sample {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            value: SampleValue::Counter(v),
        };
        out.push(counter(
            "host_decode_ns",
            "Exact host nanoseconds decoding the program.",
            self.decode_ns,
        ));
        out.push(counter(
            "host_steps_total",
            "Machine::step invocations.",
            self.steps,
        ));
        for (i, p) in self.phases.iter().enumerate() {
            out.push(Sample {
                name: "host_phase_ns".to_string(),
                help: PHASE_HELP[i].to_string(),
                label: Some(("phase".to_string(), p.name.to_string())),
                value: SampleValue::Counter(p.estimated_ns),
            });
            out.push(Sample {
                name: "host_phase_calls".to_string(),
                help: "Exact invocation count of the phase.".to_string(),
                label: Some(("phase".to_string(), p.name.to_string())),
                value: SampleValue::Counter(p.calls),
            });
        }
        out.push(counter(
            "host_bitmask_rebuilds_total",
            "Full readiness-bitmask rebuilds.",
            self.bitmask_rebuilds,
        ));
        out.push(counter(
            "host_wake_repairs_total",
            "Dirty-mark wake repairs after register writes.",
            self.wake_repairs,
        ));
        out.push(counter(
            "host_mem_drain_regrades_total",
            "Order-rule re-grades after memory drains.",
            self.mem_drain_regrades,
        ));
        out.push(counter(
            "host_idle_spans_skipped_total",
            "Bulk idle spans taken.",
            self.idle_spans_skipped,
        ));
        out.push(counter(
            "host_idle_cycles_skipped_total",
            "Cycles elided by bulk idle skips.",
            self.idle_cycles_skipped,
        ));
        out
    }

    /// Renders a human-readable phase table (the body of
    /// `pcsim metrics <bench>`).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.total_phase_ns().max(1);
        let _ = writeln!(out, "host phase profile ({} steps)", self.steps);
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>14} {:>8}",
            "phase", "calls", "est. ns", "share"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>14} {:>7.1}%",
                p.name,
                p.calls,
                p.estimated_ns,
                p.estimated_ns as f64 * 100.0 / total as f64,
            );
        }
        let _ = writeln!(out, "  decode (one-time): {} ns", self.decode_ns);
        let _ = writeln!(
            out,
            "  events: {} bitmask rebuilds, {} wake repairs, {} mem-drain regrades",
            self.bitmask_rebuilds, self.wake_repairs, self.mem_drain_regrades
        );
        let _ = writeln!(
            out,
            "  bulk skip: {} spans, {} cycles elided",
            self.idle_spans_skipped, self.idle_cycles_skipped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_snapshot_is_consistent() {
        let mut t = HostTelemetry {
            steps: 10,
            bitmask_rebuilds: 3,
            ..HostTelemetry::default()
        };
        for _ in 0..5 {
            let t0 = t.timers.start(PH_ISSUE);
            t.timers.stop(PH_ISSUE, t0);
        }
        let p = t.profile(1234);
        assert_eq!(p.decode_ns, 1234);
        assert_eq!(p.steps, 10);
        assert_eq!(p.phases.len(), N_PHASES);
        assert_eq!(p.phases[PH_ISSUE].calls, 5);
        assert_eq!(p.phases[PH_ISSUE].sampled_calls, 1);
        assert_eq!(p.bitmask_rebuilds, 3);
        let text = p.render_text();
        assert!(text.contains("issue"), "{text}");
        assert!(text.contains("wake_repair"), "{text}");
    }

    #[test]
    fn samples_round_trip_through_snapshot() {
        let t = HostTelemetry {
            steps: 2,
            wake_repairs: 7,
            ..HostTelemetry::default()
        };
        let snap = pc_metrics::Snapshot::from_samples(t.profile(5).to_samples());
        assert_eq!(snap.value("host_steps_total"), Some(2));
        assert_eq!(snap.value("host_wake_repairs_total"), Some(7));
        assert_eq!(snap.value("host_decode_ns"), Some(5));
        let prom = snap.render_prometheus("pcsim_");
        assert!(prom.contains("pcsim_host_steps_total 2"), "{prom}");
    }
}
