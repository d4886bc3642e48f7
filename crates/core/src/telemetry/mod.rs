//! Deterministic observability: metrics, structured tracing, and sinks.
//!
//! The paper's evaluation lives on quantities (per-algorithm Joules,
//! detection counts, retransmissions) that PR 1–3 scattered across
//! `SimulationReport` fields and ad-hoc prints. This module gives every
//! layer of the hot path one uniform place to publish them:
//!
//! * [`MetricsRegistry`] — named counters/gauges/histograms with
//!   bit-stable, sorted-key JSON dumps;
//! * [`TraceEvent`] + [`FlightRecorder`] — a bounded structured event
//!   stream with round/camera scoping, dumpable in full or as a
//!   "last N rounds before the failure" slice;
//! * [`Telemetry`] — the shared handle threaded through
//!   [`crate::config::EecsConfig`]. [`TelemetrySink::Null`] (the default)
//!   carries no state at all: every publish call branches on one
//!   `Option` and returns, so ideal-plan reports stay bit-identical and
//!   benchmarks don't move.
//!
//! Everything is emitted from the simulation's *serial* effect-replay
//! path, so — like battery drains and transport interactions — the
//! stream and the registry are bit-identical across
//! [`crate::simulation::Parallelism`] settings.

pub mod metrics;
pub mod summary;
pub mod trace;

pub use metrics::{Histogram, MetricsRegistry};
pub use trace::{FlightRecorder, TraceEvent};

use crate::jsonio::Json;
use eecs_energy::meter::PowerMeter;
use eecs_net::reliable::Delivery;
use eecs_net::transport::TransportStats;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Where telemetry goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetrySink {
    /// Record nothing. Every publish call is a branch on a `None` and
    /// nothing else — reports stay bit-identical to a build without the
    /// telemetry layer.
    Null,
    /// Record into an in-memory [`MetricsRegistry`] + [`FlightRecorder`].
    Memory {
        /// Ring-buffer capacity of the flight recorder, in events.
        trace_capacity: usize,
    },
}

#[derive(Debug)]
struct TelemetryState {
    metrics: MetricsRegistry,
    recorder: FlightRecorder,
}

/// The shared telemetry handle threaded through `EecsConfig`.
///
/// Cloning is cheap and clones *share* the recording state (it is an
/// `Arc`), which is what lets the `Simulation`, its `Controller` copy of
/// the config, and the caller all see one stream. Equality compares the
/// sink configuration only — two handles are equal when they would record
/// the same way — so `EecsConfig`'s derived `PartialEq` keeps meaning
/// "same configuration", not "same recorded history".
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<TelemetryState>>>,
    trace_capacity: usize,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::null()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("sink", &self.sink())
            .finish()
    }
}

impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        self.sink() == other.sink()
    }
}

impl Telemetry {
    /// The no-op handle: records nothing, costs one branch per call.
    pub fn null() -> Telemetry {
        Telemetry {
            inner: None,
            trace_capacity: 0,
        }
    }

    /// A recording handle with the given flight-recorder capacity.
    pub fn recording(trace_capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(TelemetryState {
                metrics: MetricsRegistry::new(),
                recorder: FlightRecorder::new(trace_capacity),
            }))),
            trace_capacity: trace_capacity.max(1),
        }
    }

    /// A handle for the given sink.
    pub fn new(sink: TelemetrySink) -> Telemetry {
        match sink {
            TelemetrySink::Null => Telemetry::null(),
            TelemetrySink::Memory { trace_capacity } => Telemetry::recording(trace_capacity),
        }
    }

    /// The sink this handle was built for.
    pub fn sink(&self) -> TelemetrySink {
        if self.inner.is_some() {
            TelemetrySink::Memory {
                trace_capacity: self.trace_capacity,
            }
        } else {
            TelemetrySink::Null
        }
    }

    /// Whether publishes are recorded at all. Instrumentation sites use
    /// this to skip building metric names on the null sink.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with(&self, f: impl FnOnce(&mut TelemetryState)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().expect("telemetry lock"));
        }
    }

    /// Records one trace event. The closure only runs when recording, so
    /// null-sink call sites pay nothing for constructing the event.
    pub fn event(&self, make: impl FnOnce() -> TraceEvent) {
        self.with(|s| s.recorder.record(make()));
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.with(|s| s.metrics.counter_add(name, delta));
    }

    /// Sets a named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.with(|s| s.metrics.gauge_set(name, value));
    }

    /// Counts `value` into a named histogram (created with `bounds` on
    /// first use).
    pub fn histogram_record(&self, name: &str, bounds: &[f64], value: f64) {
        self.with(|s| s.metrics.histogram_record(name, bounds, value));
    }

    /// Publishes one reliable-transport delivery: attempt/retry counters,
    /// a [`TraceEvent::Retransmit`] when it took more than one try, and a
    /// [`TraceEvent::CorruptFrame`] when any attempt arrived corrupted.
    pub fn observe_delivery(&self, round: usize, camera: usize, d: &Delivery) {
        self.with(|s| {
            s.metrics.counter_add("net.attempts", u64::from(d.attempts));
            if d.attempts > 1 {
                s.metrics
                    .counter_add("net.retransmits", u64::from(d.attempts - 1));
                s.recorder.record(TraceEvent::Retransmit {
                    round,
                    camera,
                    attempts: d.attempts,
                });
            }
            if d.corrupted > 0 {
                s.metrics
                    .counter_add("transport.corrupted", u64::from(d.corrupted));
                s.recorder.record(TraceEvent::CorruptFrame {
                    round,
                    camera,
                    corrupted: d.corrupted,
                });
            }
            if !d.delivered {
                s.metrics.counter_add("net.undelivered", 1);
            }
        });
    }

    /// Scrapes one [`TransportStats`] into `scope.`-prefixed counters and
    /// gauges (e.g. `transport.cam0.attempts`).
    pub fn observe_transport(&self, scope: &str, stats: &TransportStats) {
        self.with(|s| {
            for (field, value) in stats.counter_fields() {
                s.metrics.counter_add(&format!("{scope}.{field}"), value);
            }
            for (field, value) in stats.gauge_fields() {
                s.metrics.gauge_set(&format!("{scope}.{field}"), value);
            }
        });
    }

    /// Scrapes one [`PowerMeter`] into `scope.`-prefixed gauges, one per
    /// [`eecs_energy::meter::EnergyCategory`] plus the total (e.g. `camera.0.energy.total_j`).
    pub fn observe_meter(&self, scope: &str, meter: &PowerMeter) {
        self.with(|s| {
            for (category, joules) in meter.snapshot() {
                s.metrics
                    .gauge_set(&format!("{scope}.energy.{category}_j"), joules);
            }
            s.metrics
                .gauge_set(&format!("{scope}.energy.total_j"), meter.total());
        });
    }

    /// Clears all recorded state (the sink configuration is kept). Null
    /// handles are unaffected.
    pub fn reset(&self) {
        let capacity = self.trace_capacity;
        self.with(|s| {
            s.metrics = MetricsRegistry::new();
            s.recorder = FlightRecorder::new(capacity);
        });
    }

    /// A copy of the current metrics (empty on the null sink).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        self.with(|s| out = s.metrics.clone());
        out
    }

    /// A copy of the retained trace events (empty on the null sink).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        self.with(|s| out = s.recorder.events().cloned().collect());
        out
    }

    /// Events falling off the recorder's ring buffer so far.
    pub fn trace_evicted(&self) -> u64 {
        let mut out = 0;
        self.with(|s| out = s.recorder.evicted());
        out
    }

    /// The events of the last `n` rounds, including the newest round.
    pub fn tail_events(&self, rounds: usize) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        self.with(|s| out = s.recorder.tail_rounds(rounds));
        out
    }

    /// The metrics registry as a JSON document (`{}` shape even when
    /// empty or on the null sink).
    ///
    /// # Errors
    ///
    /// Returns an error if a gauge holds a non-finite value.
    pub fn metrics_json(&self) -> Result<String, String> {
        self.metrics().to_json()
    }

    /// The full trace stream as a JSON array.
    ///
    /// # Errors
    ///
    /// Returns an error if an event holds a non-finite number.
    pub fn trace_json(&self) -> Result<String, String> {
        let mut v = Json::Arr(Vec::new());
        self.with(|s| v = s.recorder.to_json_value());
        v.write()
    }

    /// The last-`n`-rounds trace slice as a JSON array.
    ///
    /// # Errors
    ///
    /// Returns an error if an event holds a non-finite number.
    pub fn tail_json(&self, rounds: usize) -> Result<String, String> {
        let mut v = Json::Arr(Vec::new());
        self.with(|s| v = s.recorder.tail_json_value(rounds));
        v.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_records_nothing() {
        let tel = Telemetry::null();
        assert!(!tel.enabled());
        tel.counter_add("x", 5);
        tel.event(|| panic!("event closure must not run on the null sink"));
        assert!(tel.metrics().is_empty());
        assert!(tel.events().is_empty());
        assert_eq!(
            tel.metrics_json().unwrap(),
            Telemetry::null().metrics_json().unwrap()
        );
    }

    #[test]
    fn clones_share_recording_state() {
        let tel = Telemetry::recording(16);
        let clone = tel.clone();
        clone.counter_add("shared", 3);
        clone.event(|| TraceEvent::Checkpoint { round: 0 });
        assert_eq!(tel.metrics().counter("shared"), 3);
        assert_eq!(tel.events().len(), 1);
        tel.reset();
        assert!(clone.metrics().is_empty());
        assert!(clone.events().is_empty());
    }

    #[test]
    fn equality_compares_sink_not_history() {
        let a = Telemetry::recording(16);
        let b = Telemetry::recording(16);
        a.counter_add("only-in-a", 1);
        assert_eq!(a, b);
        assert_ne!(a, Telemetry::null());
        assert_ne!(a, Telemetry::recording(32));
        assert_eq!(Telemetry::null(), Telemetry::default());
    }

    #[test]
    fn observe_delivery_counts_retransmits() {
        let tel = Telemetry::recording(16);
        let mut d = Delivery::loopback();
        d.attempts = 3;
        tel.observe_delivery(2, 1, &d);
        let m = tel.metrics();
        assert_eq!(m.counter("net.attempts"), 3);
        assert_eq!(m.counter("net.retransmits"), 2);
        assert!(matches!(
            tel.events().as_slice(),
            [TraceEvent::Retransmit {
                round: 2,
                camera: 1,
                attempts: 3
            }]
        ));
    }

    #[test]
    fn sink_round_trips_through_new() {
        for sink in [
            TelemetrySink::Null,
            TelemetrySink::Memory { trace_capacity: 64 },
        ] {
            assert_eq!(Telemetry::new(sink).sink(), sink);
        }
    }
}
