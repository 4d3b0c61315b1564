//! `mcs-obs` — observability for the crowdsensing auction platform.
//!
//! The crate answers the question the aggregate counters cannot: *what
//! happened inside this round?* It provides, in dependency order:
//!
//! * [`event`] — the shared trace vocabulary: pipeline [`Stage`]s,
//!   [`EventKind`]s, and the fixed-width [`TraceEvent`].
//! * [`digest`] — FNV-1a, the one digest behind every fingerprint and
//!   checksum in the workspace, and SplitMix64, the one seed mixer.
//! * [`codec`] — the one little-endian binary writer and bounds-checked
//!   reader, shared by the replay log and the cluster wire protocol.
//! * [`ring`] — the [`FlightRecorder`]: a lock-free, fixed-capacity,
//!   allocation-free ring buffer of trace events, with a wall clock for
//!   operators and a logical clock for deterministic harnesses.
//! * [`postmortem`] — [`PostMortem`]: the JSON artifact dumped when the
//!   degrade path quarantines a round, reconstructing every admitted bid
//!   from the round's causal trace.
//! * [`replay`] — [`ReplayLog`]: a versioned, checksummed binary trace
//!   of engine drive operations (submit/tick/flush/drain) that replays
//!   bit-exactly, cross-checkable against the recorder's admitted-bid
//!   events.
//! * [`prom`] — minimal, NaN-safe Prometheus text rendering, plus an
//!   offline exposition lint.
//! * [`slo`] — the SLO watchdog: declarative budgets ([`SloBudget`])
//!   evaluated against live telemetry into typed [`SloBreach`]es,
//!   strictly outside the clearing path.
//! * [`export`] — [`ExportServer`]: a std-only HTTP endpoint serving
//!   `/metrics` (Prometheus), `/metrics.json`, `/slo`, and `/healthz`
//!   from any [`MetricsSource`].
//! * [`analyze`] — offline analysis over recorded artifacts (drive
//!   logs, post-mortems, event snapshots): stage timelines, economics
//!   timeseries, collapsed flamegraph stacks, and trace diffing — the
//!   library behind the `mcs-obs` CLI.
//!
//! The crate depends only on the vendored `serde` stack, so it sits
//! *below* `mcs-platform` in the dependency graph: the platform calls
//! into the recorder at every stage boundary, and the recorder knows
//! nothing about auctions beyond opaque round and user ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod codec;
pub mod digest;
pub mod event;
pub mod export;
pub mod merge;
pub mod postmortem;
pub mod prom;
pub mod replay;
pub mod ring;
pub mod slo;

pub use analyze::{DecodedBreach, DiffOutcome, TraceInput};
pub use event::{EventKind, RawEvent, Stage, TraceEvent};
pub use export::{ExportServer, MetricsSource};
pub use merge::{merge_shard_traces, MergedTraceEvent};
pub use postmortem::{BidRecord, PostMortem, TaskDeclaration};
pub use prom::{PromKind, PromWriter};
pub use replay::{ReplayBid, ReplayError, ReplayLog, ReplayOp};
pub use ring::{ClockMode, FlightRecorder};
pub use slo::{
    SloBaseline, SloBreach, SloBudget, SloInputs, SloKind, SloReport, StageBudget, StageObservation,
};

/// Convenience glob import for downstream crates.
pub mod prelude {
    pub use crate::event::{EventKind, RawEvent, Stage, TraceEvent};
    pub use crate::export::{ExportServer, MetricsSource};
    pub use crate::merge::{merge_shard_traces, MergedTraceEvent};
    pub use crate::postmortem::{BidRecord, PostMortem, TaskDeclaration};
    pub use crate::prom::{PromKind, PromWriter};
    pub use crate::replay::{ReplayBid, ReplayError, ReplayLog, ReplayOp};
    pub use crate::ring::{ClockMode, FlightRecorder};
    pub use crate::slo::{
        SloBaseline, SloBreach, SloBudget, SloInputs, SloKind, SloReport, StageBudget,
        StageObservation,
    };
}
