//! Observability for the EaseIO simulator stack.
//!
//! Every layer of the simulator — the MCU/power substrate, the task
//! executor, the baselines, and the EaseIO core runtime — records into one
//! flat, ring-buffered stream of structured [`Event`]s through a
//! [`TraceSink`]. The stream has a single vocabulary across all runtimes, so
//! a Naive trace and an EaseIO trace of the same app are directly
//! comparable. From the stream this crate derives:
//!
//! * a Chrome `trace_event` document ([`chrome_trace`]) viewable in
//!   `chrome://tracing` / Perfetto, with power-off intervals on their own
//!   track;
//! * compact JSONL ([`jsonl`](fn@jsonl)) for `jq`-style post-processing;
//! * a per-call-site / per-task profile ([`build_profile`]): executions,
//!   skips, redundant re-executions, µs/nJ, wasted-work share, and
//!   attempt-latency percentiles;
//! * a versioned machine-readable run report ([`build_report`] /
//!   [`validate_report`]).
//!
//! The sink is disabled by default and its fast path is a single `Option`
//! check with the event construction behind a closure, so an untraced run
//! pays effectively nothing (`crates/bench/benches/micro.rs` measures this).
//! This crate has no dependencies; it sits below `mcu-emu` in the workspace
//! graph.

pub mod agg;
pub mod chrome;
pub mod envelope;
pub mod event;
pub mod fleet;
pub mod forensics;
pub mod hash;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod report;
pub mod ring;
pub mod schema;
pub mod sketch;
pub mod stats;
pub mod stream;
pub mod sweep;
pub mod tracker;

pub use chrome::{chrome_trace, chrome_trace_with_counters, counter_events, CounterTrack};
pub use envelope::{
    identity_document, validate_any_report, ReportBody, ReportKind, SCHEMA_VERSION,
};
pub use event::{Event, EventKind, InstantKind, SpanKind, Status, NO_SITE, NO_TASK};
pub use fleet::{
    build_fleet_report, validate_fleet_report, FleetDeliveryDoc, FleetEnergyDoc, FleetInputs,
    FleetMediumDoc, FleetOutcomesDoc, FleetStragglerDoc, FleetTimingDoc,
};
pub use forensics::{
    build_forensics_report, validate_forensics_report, ForensicsInputs, ForensicsViolationDoc,
    FramDiffByte, FramDiffDoc, FRAM_DIFF_CAP,
};
pub use json::{parse as parse_json, JsonError, Value};
pub use jsonl::jsonl;
pub use metrics::{
    build_metrics_report, compare_metrics, flamegraph, validate_metrics_report, MetricsEntry,
    MetricsInputs, Regression, SkippedApp,
};
pub use profile::{build_profile, LatencySummary, Profile, SiteProfile, TaskProfile};
pub use progress::{Progress, ProgressSnapshot};
pub use report::{build_report, validate_report, ReportInputs};
pub use ring::{RingRecorder, DEFAULT_CAPACITY};
pub use sketch::Sketch;
pub use stats::{
    current_rss_bytes, peak_rss_bytes, CauseMarks, CauseSample, Counter, EnergyCause, RunStats,
    TaskRows, WorkKind, CATEGORY_NAMES, CAUSE_COUNT, DMA_SITE_BASE, KERNEL_TASK,
    WASTE_CATEGORY_NAMES,
};
pub use stream::{flush_registered, register_for_flush, JsonlWriter, ShardedSink, StreamStats};
pub use sweep::{
    build_sweep_report, validate_sweep_report, FaultSpecDoc, SweepInputs, SweepPruneDoc,
    SweepTimingDoc, SweepViolation, SweepWasteDoc, SWEEP_MODES,
};
pub use tracker::ActivationTracker;

/// The recording endpoint embedded in the simulated MCU.
///
/// Disabled (the default) it is a `None` and [`TraceSink::emit_with`]
/// returns after one branch without evaluating the event closure; enabled it
/// appends to a bounded [`RingRecorder`].
#[derive(Debug, Default)]
pub struct TraceSink(Option<RingRecorder>);

impl TraceSink {
    /// A sink that records nothing.
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// A sink recording into a ring of [`DEFAULT_CAPACITY`] events.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A sink recording into a ring of `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Some(RingRecorder::new(capacity)))
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event produced by `f`, if enabled. The closure is not
    /// evaluated on a disabled sink — callers may freely gather timestamps
    /// and names inside it.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> Event) {
        if let Some(ring) = &mut self.0 {
            ring.push(f());
        }
    }

    /// Events lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, RingRecorder::dropped)
    }

    /// Drains all recorded events, oldest first. Empty on a disabled sink.
    pub fn take(&mut self) -> Vec<Event> {
        self.0.as_mut().map_or_else(Vec::new, RingRecorder::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_never_evaluates_the_closure() {
        let mut sink = TraceSink::disabled();
        let mut evaluated = false;
        sink.emit_with(|| {
            evaluated = true;
            Event::instant(0, 0, InstantKind::Boot, "boot")
        });
        assert!(!evaluated);
        assert!(!sink.is_enabled());
        assert!(sink.take().is_empty());
    }

    #[test]
    fn enabled_sink_records_and_drains() {
        let mut sink = TraceSink::enabled();
        sink.emit_with(|| Event::instant(1, 0, InstantKind::Boot, "boot"));
        sink.emit_with(|| Event::instant(2, 0, InstantKind::PowerFailure, "timer"));
        assert!(sink.is_enabled());
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ts_us, 1);
        assert_eq!(sink.dropped(), 0);
    }
}
