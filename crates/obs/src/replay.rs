//! Replayable traces: a versioned, checksummed binary log of every
//! engine drive operation, replayable bit-exactly through
//! `Engine::submit`.
//!
//! A [`ReplayLog`] is recorded *authoritatively* by whoever drives the
//! engine (each submit/tick/flush/drain as it happens) and
//! cross-checkable against the flight recorder: the `BidAdmitted` +
//! `BidTask` events the engine emits carry every admitted bid's full
//! wire form as `f64` bits, so [`admitted_bids`] reconstructs the
//! admitted sub-stream from a trace snapshot and a recorder-vs-log
//! disagreement is detectable before the log is ever persisted.
//!
//! ## Wire format (version 1)
//!
//! Written and read through [`crate::codec`], so all integers are
//! little-endian:
//!
//! ```text
//! magic      8 bytes  "MCSTRACE"
//! version    u32
//! seed       u64      engine seed the log was recorded under
//! label      u32 len + UTF-8 bytes
//! op count   u64
//! ops        op count × op
//! checksum   u64      FNV-1a over every preceding byte
//! op := tag u8
//!   0 = Submit: user u32, cost-bits u64, task count u32,
//!       task count × (task u32, pos-bits u64)
//!   1 = Tick
//!   2 = Flush
//!   3 = Drain
//! ```
//!
//! Costs and PoS travel as raw `f64` bit patterns, never as decimal
//! text, so a recorded run and its replay submit *bitwise identical*
//! bids — the precondition for fingerprint-identical outcomes. Decoding
//! is total: any truncation, bad tag, or flipped byte yields a typed
//! [`ReplayError`], never a panic.

use std::fmt;

use crate::codec::{CodecError, Reader, Writer};
use crate::digest::fnv1a;
use crate::event::{EventKind, TraceEvent};

/// Magic bytes opening every replay log.
pub const REPLAY_MAGIC: [u8; 8] = *b"MCSTRACE";

/// The wire-format version this module writes.
pub const REPLAY_VERSION: u32 = 1;

/// One admitted-or-attempted bid in wire form: `f64`s as bit patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayBid {
    /// The bidding user.
    pub user: u32,
    /// Declared cost, as `f64::to_bits`.
    pub cost_bits: u64,
    /// Declared `(task id, PoS bits)` pairs, in declaration order.
    pub tasks: Vec<(u32, u64)>,
}

impl ReplayBid {
    /// The declared cost as a float.
    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }
}

/// One engine drive operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOp {
    /// `Engine::submit` with this bid (admitted, rejected, or shed —
    /// the replay must re-submit all of them to reproduce admission
    /// decisions).
    Submit(ReplayBid),
    /// `Engine::tick`.
    Tick,
    /// `Engine::flush`.
    Flush,
    /// `Engine::drain`.
    Drain,
}

/// Why a replay log failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The file does not start with [`REPLAY_MAGIC`].
    BadMagic {
        /// The bytes actually found.
        found: Vec<u8>,
    },
    /// The version is newer than this build understands.
    UnsupportedVersion {
        /// The version the file claims.
        version: u32,
    },
    /// The buffer ended before the structure did.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// An op tag byte is not a known operation.
    BadOpTag {
        /// The unknown tag.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// The label is not valid UTF-8.
    BadLabel,
    /// The trailing checksum does not match the payload — the log was
    /// corrupted (or edited) after recording.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// Bytes remain after the checksum.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadMagic { found } => {
                write!(f, "not a replay log: magic {found:02x?}")
            }
            ReplayError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "replay log version {version} is newer than supported {REPLAY_VERSION}"
                )
            }
            ReplayError::Truncated { offset } => {
                write!(f, "replay log truncated at byte {offset}")
            }
            ReplayError::BadOpTag { tag, offset } => {
                write!(f, "unknown op tag {tag:#04x} at byte {offset}")
            }
            ReplayError::BadLabel => write!(f, "replay log label is not UTF-8"),
            ReplayError::ChecksumMismatch { stored, computed } => write!(
                f,
                "replay log corrupt: stored checksum {stored:016x} != computed {computed:016x}"
            ),
            ReplayError::TrailingBytes { extra } => {
                write!(f, "{extra} unexpected bytes after the checksum")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// A recorded drive sequence, replayable through a fresh engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayLog {
    /// Engine seed the log was recorded under; a replayer must build its
    /// engine with the same seed for outcomes to match.
    pub seed: u64,
    /// Free-form provenance label (e.g. the scenario name@version).
    pub label: String,
    /// The drive sequence, in execution order.
    pub ops: Vec<ReplayOp>,
}

impl ReplayLog {
    /// An empty log for a run under `seed`.
    pub fn new(seed: u64, label: impl Into<String>) -> Self {
        ReplayLog {
            seed,
            label: label.into(),
            ops: Vec::new(),
        }
    }

    /// Appends one operation.
    pub fn push(&mut self, op: ReplayOp) {
        self.ops.push(op);
    }

    /// How many `Submit` ops the log holds.
    pub fn submit_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, ReplayOp::Submit(_)))
            .count()
    }

    /// Serializes the log to its checksummed wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(64 + self.ops.len() * 24);
        out.raw(&REPLAY_MAGIC);
        out.u32(REPLAY_VERSION);
        out.u64(self.seed);
        out.str(&self.label);
        out.u64(self.ops.len() as u64);
        for op in &self.ops {
            match op {
                ReplayOp::Submit(bid) => {
                    out.u8(0);
                    out.u32(bid.user);
                    out.u64(bid.cost_bits);
                    out.seq(&bid.tasks, |out, &(task, pos_bits)| {
                        out.u32(task);
                        out.u64(pos_bits);
                    });
                }
                ReplayOp::Tick => out.u8(1),
                ReplayOp::Flush => out.u8(2),
                ReplayOp::Drain => out.u8(3),
            }
        }
        out.u64(fnv1a(out.bytes()));
        out.into_bytes()
    }

    /// Decodes a log from its wire form.
    ///
    /// # Errors
    ///
    /// A typed [`ReplayError`] on any structural defect; corruption
    /// anywhere in the payload surfaces as
    /// [`ReplayError::ChecksumMismatch`] (or an earlier structural
    /// error), never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplayLog, ReplayError> {
        let mut reader = Reader::new(bytes);
        let magic = reader.take(8)?;
        if magic != REPLAY_MAGIC {
            return Err(ReplayError::BadMagic {
                found: magic.to_vec(),
            });
        }
        let version = reader.u32()?;
        if version > REPLAY_VERSION {
            return Err(ReplayError::UnsupportedVersion { version });
        }
        let seed = reader.u64()?;
        let label = reader.str()?.to_string();
        let op_count = reader.u64()?;
        let mut ops = Vec::new();
        for _ in 0..op_count {
            let offset = reader.offset();
            ops.push(match reader.u8()? {
                0 => ReplayOp::Submit(ReplayBid {
                    user: reader.u32()?,
                    cost_bits: reader.u64()?,
                    tasks: reader.seq(12, |r| Ok::<_, CodecError>((r.u32()?, r.u64()?)))?,
                }),
                1 => ReplayOp::Tick,
                2 => ReplayOp::Flush,
                3 => ReplayOp::Drain,
                tag => return Err(ReplayError::BadOpTag { tag, offset }),
            });
        }
        let payload_len = reader.offset();
        let stored = reader.u64()?;
        reader.finish()?;
        let computed = fnv1a(&bytes[..payload_len]);
        if stored != computed {
            return Err(ReplayError::ChecksumMismatch { stored, computed });
        }
        Ok(ReplayLog { seed, label, ops })
    }
}

impl From<CodecError> for ReplayError {
    fn from(error: CodecError) -> Self {
        match error {
            CodecError::Truncated { offset } => ReplayError::Truncated { offset },
            CodecError::BadUtf8 => ReplayError::BadLabel,
            CodecError::TrailingBytes { extra } => ReplayError::TrailingBytes { extra },
        }
    }
}

/// Reconstructs the admitted bid stream from a flight-recorder snapshot:
/// each `BidAdmitted` event plus its trailing `BidTask` events yields one
/// [`ReplayBid`], in admission order. Use on an unwrapped recorder only —
/// a lapped ring has legitimately lost old bids.
pub fn admitted_bids(events: &[TraceEvent]) -> Vec<ReplayBid> {
    let mut bids: Vec<ReplayBid> = Vec::new();
    for event in events {
        match event.kind {
            EventKind::BidAdmitted => bids.push(ReplayBid {
                user: event.a as u32,
                cost_bits: event.b,
                tasks: Vec::with_capacity(event.c as usize),
            }),
            EventKind::BidTask => {
                if let Some(bid) = bids.last_mut() {
                    if bid.user == event.a as u32 {
                        bid.tasks.push((event.b as u32, event.c));
                    }
                }
            }
            _ => {}
        }
    }
    bids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayLog {
        let mut log = ReplayLog::new(42, "diurnal-weather@1");
        log.push(ReplayOp::Submit(ReplayBid {
            user: 3,
            cost_bits: 2.5f64.to_bits(),
            tasks: vec![(0, 0.5f64.to_bits()), (2, 0.75f64.to_bits())],
        }));
        log.push(ReplayOp::Tick);
        log.push(ReplayOp::Submit(ReplayBid {
            user: 4,
            cost_bits: f64::NAN.to_bits(),
            tasks: vec![],
        }));
        log.push(ReplayOp::Flush);
        log.push(ReplayOp::Drain);
        log
    }

    #[test]
    fn logs_round_trip_bitwise() {
        let log = sample();
        let bytes = log.to_bytes();
        let back = ReplayLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.submit_count(), 2);
        // NaN costs survive because only bit patterns travel.
        match &back.ops[2] {
            ReplayOp::Submit(bid) => assert!(bid.cost().is_nan()),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn sample_log_keeps_its_pinned_bytes() {
        let bytes = sample().to_bytes();
        assert_eq!((fnv1a(&bytes), bytes.len()), (0x2b1a_4ea0_3eb1_1c6c, 118));
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                ReplayLog::from_bytes(&corrupt).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = ReplayLog::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ReplayError::Truncated { .. }
                        | ReplayError::BadMagic { .. }
                        | ReplayError::ChecksumMismatch { .. }
                        | ReplayError::BadOpTag { .. }
                ),
                "prefix of {len} bytes gave {err:?}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            ReplayLog::from_bytes(&extra),
            Err(ReplayError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn future_versions_are_refused() {
        let mut bytes = sample().to_bytes();
        // Bump the version field (bytes 8..12) and re-checksum.
        bytes[8] = REPLAY_VERSION as u8 + 1;
        let len = bytes.len();
        let checksum = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            ReplayLog::from_bytes(&bytes),
            Err(ReplayError::UnsupportedVersion {
                version: REPLAY_VERSION + 1
            })
        );
    }

    #[test]
    fn errors_render_for_humans() {
        let text = ReplayError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        }
        .to_string();
        assert!(text.contains("corrupt"));
        assert!(ReplayError::Truncated { offset: 9 }
            .to_string()
            .contains("9"));
    }

    #[test]
    fn admitted_bids_rebuild_from_trace_events() {
        use crate::ring::{ClockMode, FlightRecorder};
        use crate::RawEvent;
        let recorder = FlightRecorder::new(64, ClockMode::Logical);
        recorder.record(RawEvent::new(
            EventKind::BidAdmitted,
            0,
            7,
            1.5f64.to_bits(),
            2,
        ));
        recorder.record(RawEvent::new(EventKind::BidTask, 0, 7, 0, 0.5f64.to_bits()));
        recorder.record(RawEvent::new(
            EventKind::BidTask,
            0,
            7,
            3,
            0.25f64.to_bits(),
        ));
        recorder.record(RawEvent::new(
            EventKind::BidRejected,
            0,
            8,
            2.0f64.to_bits(),
            0,
        ));
        let bids = admitted_bids(&recorder.snapshot());
        assert_eq!(
            bids,
            vec![ReplayBid {
                user: 7,
                cost_bits: 1.5f64.to_bits(),
                tasks: vec![(0, 0.5f64.to_bits()), (3, 0.25f64.to_bits())],
            }]
        );
    }
}
