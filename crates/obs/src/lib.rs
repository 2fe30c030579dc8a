//! Observability layer for the GDISim engine.
//!
//! The paper promises operators can "navigate down to the detail of
//! individual elements" while simulating at global scale; MonALISA
//! (Legrand et al., PAPERS.md) shows the enabling pattern is a
//! monitoring plane *decoupled* from the system under measurement.
//! This crate is that plane for the simulator itself:
//!
//! * [`StepProfiler`] — cheap monotonic-clock spans around the engine's
//!   step phases, aggregated into a [`StepProfile`]: per-phase wall
//!   totals, a log-bucketed histogram of step durations, drain-gating
//!   statistics per event class, and active-set occupancy. The profiler
//!   only ever reads the wall clock and counters handed to it — it
//!   cannot influence simulation state, so enabling it never changes
//!   results.
//! * [`perfetto`] — renders recorded phase spans as Chrome trace-event
//!   JSON, viewable in Perfetto / `chrome://tracing`.
//! * [`export`] — renders a [`StepProfile`] (plus an optional
//!   [`gdisim_metrics::MetricsRegistry`] snapshot) as the
//!   `--profile-json` document.
//! * [`optrace`] — causal operation tracing (ISSUE 10): per-operation
//!   span trees (attempt → hedge half → message → hop segment) with
//!   deterministic `(seed, instance)` sampling, critical-path latency
//!   attribution into queue/service/WAN/backoff/hedge-wait components,
//!   and the `gdisim.optrace.v1` / Perfetto async-span renderers.
//!
//! The profiler is event-class-agnostic: drain slots are indexed
//! `0..NUM_CLASSES` and the engine supplies the class labels at export
//! time, keeping this crate free of engine types.

#![warn(missing_docs)]

pub mod export;
pub mod optrace;
pub mod perfetto;
pub mod profiler;

pub use optrace::{
    attribute, op_perfetto_events, op_to_value, render_optrace, sample, AttemptSpan, HalfOutcome,
    HalfSpan, HopSeg, MsgSpan, OpRecord, OpStatus, OptraceCounters,
};
pub use profiler::{
    DrainStats, Span, StepProfile, StepProfiler, KIND_NAMES, NUM_CLASSES, NUM_KINDS, NUM_PHASES,
    PHASE_ADVANCE, PHASE_COLLECT, PHASE_DRAIN, PHASE_NAMES, PHASE_ROUTE,
};
