//! The cluster wire protocol: a hand-rolled, length-prefixed binary
//! codec for coordinator ↔ node traffic.
//!
//! ## Frame layout
//!
//! ```text
//! [ magic "MCSCLST1" | payload len u32 LE | payload | FNV-1a(payload) u64 LE ]
//! ```
//!
//! Every float crosses the wire as its raw `u64` bit pattern
//! (`f64::to_bits`), never as decimal text — the cluster's headline
//! guarantee is *bitwise* outcome equality, and a codec that formats
//! floats would forfeit it before a single bid clears. Integers are
//! little-endian; vectors are `u32` length-prefixed; the trailing
//! checksum makes every single-byte corruption a typed decode error
//! instead of a garbage outcome (property-tested below). The checksum
//! is the workspace's one FNV-1a, [`mcs_obs::digest`].

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};

use mcs_core::mechanism::Allocation;
use mcs_core::types::UserId;
use mcs_obs::digest::fnv1a;
use mcs_obs::TraceEvent;
use mcs_platform::batch::RoundId;
use mcs_platform::degrade::RoundError;
use mcs_platform::engine::CheckpointDelta;
use mcs_platform::ingest::Bid;
use mcs_platform::settle::{RewardQuote, RoundSettlement};
use mcs_platform::shard::ClearedRound;

/// Frame magic: protocol name + version.
pub const MAGIC: [u8; 8] = *b"MCSCLST1";

/// Hard cap on payload size (64 MiB): a corrupted length prefix must
/// not become an absurd allocation.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The buffer ends before the structure it promises.
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The advertised payload length.
        len: u64,
    },
    /// The payload checksum does not match.
    ChecksumMismatch,
    /// Bytes remain after the last field of the payload.
    TrailingBytes,
    /// An unknown message or variant tag.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A length-prefixed string is not valid UTF-8.
    BadString,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { len } => write!(f, "payload length {len} exceeds cap"),
            WireError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload"),
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            WireError::BadString => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Primitive cursor
// ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.at + n > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A vector length, sanity-capped so a corrupted count cannot ask
    /// for more elements than the remaining bytes could possibly hold.
    fn len(&mut self, min_element: usize) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_element.max(1)) > self.bytes.len() - self.at {
            return Err(WireError::Truncated);
        }
        Ok(len)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.at != self.bytes.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(out, u32::try_from(len).expect("vector fits a u32 length"));
}

fn put_string(out: &mut Vec<u8>, value: &str) {
    put_len(out, value.len());
    out.extend_from_slice(value.as_bytes());
}

// ---------------------------------------------------------------------
// Wire value types
// ---------------------------------------------------------------------

/// A cleared sub-round in wire form: the outcome fields settlement
/// needs, floats as raw bits. Economics are *not* shipped — the
/// coordinator normalizes every outcome to default economics, so both
/// sides of the equivalence proof compare the same shape.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// The region shard that cleared.
    pub region: u32,
    /// The cluster round id.
    pub round: u64,
    /// Winning user ids, ascending.
    pub winners: Vec<u32>,
    /// Per winner `(user, success bits, failure bits)`, ascending user.
    pub quotes: Vec<(u32, u64, u64)>,
    /// Per winner `(user, completed)`, ascending user.
    pub reports: Vec<(u32, u8)>,
    /// `social_cost.to_bits()`.
    pub social_cost_bits: u64,
}

impl WireOutcome {
    /// Captures a [`ClearedRound`] for the wire.
    pub fn from_cleared(region: u32, cleared: &ClearedRound) -> Self {
        WireOutcome {
            region,
            round: cleared.id.0,
            winners: cleared
                .allocation
                .winners()
                .map(|w| w.index() as u32)
                .collect(),
            quotes: cleared
                .quotes
                .iter()
                .map(|(user, quote)| {
                    (
                        user.index() as u32,
                        quote.success.to_bits(),
                        quote.failure.to_bits(),
                    )
                })
                .collect(),
            reports: cleared
                .reports
                .iter()
                .map(|(user, &completed)| (user.index() as u32, completed as u8))
                .collect(),
            social_cost_bits: cleared.social_cost.to_bits(),
        }
    }

    /// Reconstructs the [`ClearedRound`] (default economics).
    pub fn to_cleared(&self) -> ClearedRound {
        ClearedRound {
            id: RoundId(self.round),
            allocation: Allocation::from_winners(self.winners.iter().map(|&w| UserId::new(w))),
            quotes: self
                .quotes
                .iter()
                .map(|&(user, success, failure)| {
                    (
                        UserId::new(user),
                        RewardQuote {
                            success: f64::from_bits(success),
                            failure: f64::from_bits(failure),
                        },
                    )
                })
                .collect(),
            reports: self
                .reports
                .iter()
                .map(|&(user, completed)| (UserId::new(user), completed != 0))
                .collect(),
            social_cost: f64::from_bits(self.social_cost_bits),
            economics: Default::default(),
        }
    }
}

/// A typed clearing failure in wire form, mirroring
/// [`RoundError`](mcs_platform::RoundError) variant by variant.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRoundError {
    /// No bidder set can cover this task's requirement.
    Infeasible {
        /// The uncoverable task.
        task: u32,
    },
    /// The mechanism itself rejected the round.
    Mechanism {
        /// The mechanism's message.
        message: String,
    },
    /// Clearing panicked.
    Panicked {
        /// The recovered panic message.
        message: String,
    },
    /// The round exceeded its clearing budget.
    DeadlineExceeded {
        /// Per-round budget in bids.
        budget: u64,
        /// Bidders cleared before the cut.
        cleared: u64,
        /// Bidders deferred past it.
        deferred: u64,
    },
}

impl WireRoundError {
    /// Captures a [`RoundError`] for the wire.
    pub fn from_error(error: &RoundError) -> Self {
        match error {
            RoundError::Infeasible { task } => WireRoundError::Infeasible {
                task: task.index() as u32,
            },
            RoundError::Mechanism { message } => WireRoundError::Mechanism {
                message: message.clone(),
            },
            RoundError::Panicked { message } => WireRoundError::Panicked {
                message: message.clone(),
            },
            RoundError::DeadlineExceeded {
                budget,
                cleared,
                deferred,
            } => WireRoundError::DeadlineExceeded {
                budget: *budget as u64,
                cleared: *cleared as u64,
                deferred: *deferred as u64,
            },
        }
    }

    /// Reconstructs the [`RoundError`].
    pub fn to_error(&self) -> RoundError {
        match self {
            WireRoundError::Infeasible { task } => RoundError::Infeasible {
                task: mcs_core::types::TaskId::new(*task),
            },
            WireRoundError::Mechanism { message } => RoundError::Mechanism {
                message: message.clone(),
            },
            WireRoundError::Panicked { message } => RoundError::Panicked {
                message: message.clone(),
            },
            WireRoundError::DeadlineExceeded {
                budget,
                cleared,
                deferred,
            } => RoundError::DeadlineExceeded {
                budget: *budget as usize,
                cleared: *cleared as usize,
                deferred: *deferred as usize,
            },
        }
    }
}

/// One settled round in wire form (floats as bits).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSettlement {
    /// The settled round id.
    pub round: u64,
    /// `(user, payout bits)`, ascending user.
    pub payouts: Vec<(u32, u64)>,
    /// `total.to_bits()`.
    pub total_bits: u64,
    /// `(user, completed)`, ascending user.
    pub outcomes: Vec<(u32, u8)>,
}

impl WireSettlement {
    /// Captures a [`RoundSettlement`] for the wire.
    pub fn from_settlement(settlement: &RoundSettlement) -> Self {
        WireSettlement {
            round: settlement.round.0,
            payouts: settlement
                .payouts
                .iter()
                .map(|(user, payout)| (user.index() as u32, payout.to_bits()))
                .collect(),
            total_bits: settlement.total.to_bits(),
            outcomes: settlement
                .outcomes
                .iter()
                .map(|(user, &completed)| (user.index() as u32, completed as u8))
                .collect(),
        }
    }

    /// Reconstructs the [`RoundSettlement`].
    pub fn to_settlement(&self) -> RoundSettlement {
        RoundSettlement {
            round: RoundId(self.round),
            payouts: self
                .payouts
                .iter()
                .map(|&(user, bits)| (UserId::new(user), f64::from_bits(bits)))
                .collect::<BTreeMap<_, _>>(),
            total: f64::from_bits(self.total_bits),
            outcomes: self
                .outcomes
                .iter()
                .map(|&(user, completed)| (UserId::new(user), completed != 0))
                .collect(),
        }
    }
}

/// A checkpoint delta in wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDelta {
    /// Settlements newer than the requested watermark, ascending round.
    pub settlements: Vec<WireSettlement>,
    /// The primary's round-id high-water mark.
    pub next_round_id: u64,
}

impl WireDelta {
    /// Captures a [`CheckpointDelta`] for the wire.
    pub fn from_delta(delta: &CheckpointDelta) -> Self {
        WireDelta {
            settlements: delta
                .settlements
                .iter()
                .map(WireSettlement::from_settlement)
                .collect(),
            next_round_id: delta.next_round_id,
        }
    }

    /// Reconstructs the [`CheckpointDelta`].
    pub fn to_delta(&self) -> CheckpointDelta {
        CheckpointDelta {
            settlements: self
                .settlements
                .iter()
                .map(WireSettlement::to_settlement)
                .collect(),
            next_round_id: self.next_round_id,
        }
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// A coordinator → node request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Clear one region sub-round. Idempotent per `(region, round)`:
    /// a duplicate delivery returns the cached response.
    Clear {
        /// Target region shard.
        region: u32,
        /// Cluster round id (the engine is pinned to it).
        round: u64,
        /// The routed bids, coordinator submission order.
        bids: Vec<Bid>,
    },
    /// Pull the settlement delta newer than `since` for one region.
    PullDelta {
        /// Target region shard.
        region: u32,
        /// Replication watermark: highest round already replicated
        /// (`u64::MAX` encodes "nothing yet").
        since: Option<u64>,
    },
    /// Fold a delta into a follower's standby checkpoint.
    ApplyDelta {
        /// Target region shard.
        region: u32,
        /// The delta pulled from the primary.
        delta: WireDelta,
    },
    /// Promote a follower to primary (idempotent).
    Promote,
    /// Snapshot one region engine's flight-recorder trace.
    TraceSnapshot {
        /// Target region shard.
        region: u32,
    },
}

/// A node → coordinator response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong {
        /// Responding node id.
        node: u32,
        /// Whether the node currently serves as primary.
        primary: bool,
    },
    /// The sub-round cleared.
    Cleared(WireOutcome),
    /// The sub-round had no bids; nothing cleared, nothing consumed.
    ClearedEmpty {
        /// The region shard.
        region: u32,
        /// The cluster round id.
        round: u64,
    },
    /// The sub-round was quarantined with a typed error.
    Quarantined {
        /// The region shard.
        region: u32,
        /// The cluster round id.
        round: u64,
        /// Bidders in the quarantined round.
        bidders: u64,
        /// Why clearing failed.
        error: WireRoundError,
    },
    /// The requested delta.
    Delta(WireDelta),
    /// The delta was folded into the standby checkpoint.
    Applied,
    /// The node now serves as primary.
    Promoted,
    /// The region engine's trace events.
    Trace(Vec<TraceEvent>),
    /// The node rejected the request.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Payload encode/decode
// ---------------------------------------------------------------------

fn put_bid(out: &mut Vec<u8>, bid: &Bid) {
    put_u32(out, bid.user);
    put_u64(out, bid.cost.to_bits());
    put_len(out, bid.tasks.len());
    for &(task, pos) in &bid.tasks {
        put_u32(out, task);
        put_u64(out, pos.to_bits());
    }
}

fn get_bid(cursor: &mut Cursor<'_>) -> Result<Bid, WireError> {
    let user = cursor.u32()?;
    let cost = f64::from_bits(cursor.u64()?);
    let len = cursor.len(12)?;
    let mut tasks = Vec::with_capacity(len);
    for _ in 0..len {
        let task = cursor.u32()?;
        let pos = f64::from_bits(cursor.u64()?);
        tasks.push((task, pos));
    }
    Ok(Bid { user, cost, tasks })
}

fn put_outcome(out: &mut Vec<u8>, outcome: &WireOutcome) {
    put_u32(out, outcome.region);
    put_u64(out, outcome.round);
    put_len(out, outcome.winners.len());
    for &winner in &outcome.winners {
        put_u32(out, winner);
    }
    put_len(out, outcome.quotes.len());
    for &(user, success, failure) in &outcome.quotes {
        put_u32(out, user);
        put_u64(out, success);
        put_u64(out, failure);
    }
    put_len(out, outcome.reports.len());
    for &(user, completed) in &outcome.reports {
        put_u32(out, user);
        out.push(completed);
    }
    put_u64(out, outcome.social_cost_bits);
}

fn get_outcome(cursor: &mut Cursor<'_>) -> Result<WireOutcome, WireError> {
    let region = cursor.u32()?;
    let round = cursor.u64()?;
    let len = cursor.len(4)?;
    let mut winners = Vec::with_capacity(len);
    for _ in 0..len {
        winners.push(cursor.u32()?);
    }
    let len = cursor.len(20)?;
    let mut quotes = Vec::with_capacity(len);
    for _ in 0..len {
        quotes.push((cursor.u32()?, cursor.u64()?, cursor.u64()?));
    }
    let len = cursor.len(5)?;
    let mut reports = Vec::with_capacity(len);
    for _ in 0..len {
        reports.push((cursor.u32()?, cursor.u8()?));
    }
    let social_cost_bits = cursor.u64()?;
    Ok(WireOutcome {
        region,
        round,
        winners,
        quotes,
        reports,
        social_cost_bits,
    })
}

fn put_round_error(out: &mut Vec<u8>, error: &WireRoundError) {
    match error {
        WireRoundError::Infeasible { task } => {
            out.push(0);
            put_u32(out, *task);
        }
        WireRoundError::Mechanism { message } => {
            out.push(1);
            put_string(out, message);
        }
        WireRoundError::Panicked { message } => {
            out.push(2);
            put_string(out, message);
        }
        WireRoundError::DeadlineExceeded {
            budget,
            cleared,
            deferred,
        } => {
            out.push(3);
            put_u64(out, *budget);
            put_u64(out, *cleared);
            put_u64(out, *deferred);
        }
    }
}

fn get_round_error(cursor: &mut Cursor<'_>) -> Result<WireRoundError, WireError> {
    match cursor.u8()? {
        0 => Ok(WireRoundError::Infeasible {
            task: cursor.u32()?,
        }),
        1 => Ok(WireRoundError::Mechanism {
            message: cursor.string()?,
        }),
        2 => Ok(WireRoundError::Panicked {
            message: cursor.string()?,
        }),
        3 => Ok(WireRoundError::DeadlineExceeded {
            budget: cursor.u64()?,
            cleared: cursor.u64()?,
            deferred: cursor.u64()?,
        }),
        tag => Err(WireError::UnknownTag { tag }),
    }
}

fn put_settlement(out: &mut Vec<u8>, settlement: &WireSettlement) {
    put_u64(out, settlement.round);
    put_len(out, settlement.payouts.len());
    for &(user, bits) in &settlement.payouts {
        put_u32(out, user);
        put_u64(out, bits);
    }
    put_u64(out, settlement.total_bits);
    put_len(out, settlement.outcomes.len());
    for &(user, completed) in &settlement.outcomes {
        put_u32(out, user);
        out.push(completed);
    }
}

fn get_settlement(cursor: &mut Cursor<'_>) -> Result<WireSettlement, WireError> {
    let round = cursor.u64()?;
    let len = cursor.len(12)?;
    let mut payouts = Vec::with_capacity(len);
    for _ in 0..len {
        payouts.push((cursor.u32()?, cursor.u64()?));
    }
    let total_bits = cursor.u64()?;
    let len = cursor.len(5)?;
    let mut outcomes = Vec::with_capacity(len);
    for _ in 0..len {
        outcomes.push((cursor.u32()?, cursor.u8()?));
    }
    Ok(WireSettlement {
        round,
        payouts,
        total_bits,
        outcomes,
    })
}

fn put_delta(out: &mut Vec<u8>, delta: &WireDelta) {
    put_len(out, delta.settlements.len());
    for settlement in &delta.settlements {
        put_settlement(out, settlement);
    }
    put_u64(out, delta.next_round_id);
}

fn get_delta(cursor: &mut Cursor<'_>) -> Result<WireDelta, WireError> {
    let len = cursor.len(16)?;
    let mut settlements = Vec::with_capacity(len);
    for _ in 0..len {
        settlements.push(get_settlement(cursor)?);
    }
    let next_round_id = cursor.u64()?;
    Ok(WireDelta {
        settlements,
        next_round_id,
    })
}

/// Sentinel for "no stage" in the wire stage byte (mirrors the
/// recorder's own packing).
const NO_STAGE: u8 = 0xFF;

fn put_trace_event(out: &mut Vec<u8>, event: &TraceEvent) {
    put_u64(out, event.seq);
    put_u64(out, event.at);
    out.push(event.kind.code() as u8);
    out.push(event.stage.map_or(NO_STAGE, |s| s.index() as u8));
    put_u64(out, event.round);
    put_u64(out, event.a);
    put_u64(out, event.b);
    put_u64(out, event.c);
}

fn get_trace_event(cursor: &mut Cursor<'_>) -> Result<TraceEvent, WireError> {
    let seq = cursor.u64()?;
    let at = cursor.u64()?;
    let kind_code = cursor.u8()?;
    let kind = mcs_obs::EventKind::from_code(kind_code as u64)
        .ok_or(WireError::UnknownTag { tag: kind_code })?;
    let stage_byte = cursor.u8()?;
    let stage = if stage_byte == NO_STAGE {
        None
    } else {
        Some(
            mcs_obs::Stage::from_index(stage_byte as usize)
                .ok_or(WireError::UnknownTag { tag: stage_byte })?,
        )
    };
    Ok(TraceEvent {
        seq,
        at,
        kind,
        stage,
        round: cursor.u64()?,
        a: cursor.u64()?,
        b: cursor.u64()?,
        c: cursor.u64()?,
    })
}

/// Encodes a request payload (no frame).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match request {
        Request::Ping => out.push(0),
        Request::Clear {
            region,
            round,
            bids,
        } => {
            out.push(1);
            put_u32(&mut out, *region);
            put_u64(&mut out, *round);
            put_len(&mut out, bids.len());
            for bid in bids {
                put_bid(&mut out, bid);
            }
        }
        Request::PullDelta { region, since } => {
            out.push(2);
            put_u32(&mut out, *region);
            put_u64(&mut out, since.map_or(u64::MAX, |s| s));
        }
        Request::ApplyDelta { region, delta } => {
            out.push(3);
            put_u32(&mut out, *region);
            put_delta(&mut out, delta);
        }
        Request::Promote => out.push(4),
        Request::TraceSnapshot { region } => {
            out.push(5);
            put_u32(&mut out, *region);
        }
    }
    out
}

/// Decodes a request payload.
///
/// # Errors
///
/// A typed [`WireError`] on any malformed byte.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut cursor = Cursor::new(payload);
    let request = match cursor.u8()? {
        0 => Request::Ping,
        1 => {
            let region = cursor.u32()?;
            let round = cursor.u64()?;
            let len = cursor.len(16)?;
            let mut bids = Vec::with_capacity(len);
            for _ in 0..len {
                bids.push(get_bid(&mut cursor)?);
            }
            Request::Clear {
                region,
                round,
                bids,
            }
        }
        2 => {
            let region = cursor.u32()?;
            let since = match cursor.u64()? {
                u64::MAX => None,
                s => Some(s),
            };
            Request::PullDelta { region, since }
        }
        3 => Request::ApplyDelta {
            region: cursor.u32()?,
            delta: get_delta(&mut cursor)?,
        },
        4 => Request::Promote,
        5 => Request::TraceSnapshot {
            region: cursor.u32()?,
        },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    cursor.finish()?;
    Ok(request)
}

/// Encodes a response payload (no frame).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match response {
        Response::Pong { node, primary } => {
            out.push(0);
            put_u32(&mut out, *node);
            out.push(*primary as u8);
        }
        Response::Cleared(outcome) => {
            out.push(1);
            put_outcome(&mut out, outcome);
        }
        Response::ClearedEmpty { region, round } => {
            out.push(2);
            put_u32(&mut out, *region);
            put_u64(&mut out, *round);
        }
        Response::Quarantined {
            region,
            round,
            bidders,
            error,
        } => {
            out.push(3);
            put_u32(&mut out, *region);
            put_u64(&mut out, *round);
            put_u64(&mut out, *bidders);
            put_round_error(&mut out, error);
        }
        Response::Delta(delta) => {
            out.push(4);
            put_delta(&mut out, delta);
        }
        Response::Applied => out.push(5),
        Response::Promoted => out.push(6),
        Response::Trace(events) => {
            out.push(7);
            put_len(&mut out, events.len());
            for event in events {
                put_trace_event(&mut out, event);
            }
        }
        Response::Error { message } => {
            out.push(8);
            put_string(&mut out, message);
        }
    }
    out
}

/// Decodes a response payload.
///
/// # Errors
///
/// A typed [`WireError`] on any malformed byte.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut cursor = Cursor::new(payload);
    let response = match cursor.u8()? {
        0 => Response::Pong {
            node: cursor.u32()?,
            primary: cursor.u8()? != 0,
        },
        1 => Response::Cleared(get_outcome(&mut cursor)?),
        2 => Response::ClearedEmpty {
            region: cursor.u32()?,
            round: cursor.u64()?,
        },
        3 => Response::Quarantined {
            region: cursor.u32()?,
            round: cursor.u64()?,
            bidders: cursor.u64()?,
            error: get_round_error(&mut cursor)?,
        },
        4 => Response::Delta(get_delta(&mut cursor)?),
        5 => Response::Applied,
        6 => Response::Promoted,
        7 => {
            let len = cursor.len(42)?;
            let mut events = Vec::with_capacity(len);
            for _ in 0..len {
                events.push(get_trace_event(&mut cursor)?);
            }
            Response::Trace(events)
        }
        8 => Response::Error {
            message: cursor.string()?,
        },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    cursor.finish()?;
    Ok(response)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Wraps a payload in a checksummed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds frame cap");
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    put_u64(&mut out, fnv1a(payload));
    out
}

/// Unwraps a complete frame back into its payload.
///
/// # Errors
///
/// A typed [`WireError`] when the magic, length, checksum, or size do
/// not hold.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], WireError> {
    if bytes.len() < 12 {
        return Err(WireError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len: len as u64 });
    }
    if bytes.len() != 12 + len + 8 {
        return Err(WireError::Truncated);
    }
    let payload = &bytes[12..12 + len];
    let checksum = u64::from_le_bytes(bytes[12 + len..].try_into().unwrap());
    if checksum != fnv1a(payload) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Writes one framed payload to a stream.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    writer.write_all(&frame(payload))?;
    writer.flush()
}

/// Reads one framed payload from a stream.
///
/// # Errors
///
/// `Ok(Err(_))` for protocol violations (bad magic / checksum /
/// oversize), `Err(_)` for transport-level I/O failures.
pub fn read_frame<R: Read>(reader: &mut R) -> std::io::Result<Result<Vec<u8>, WireError>> {
    let mut header = [0u8; 12];
    reader.read_exact(&mut header)?;
    if header[..8] != MAGIC {
        return Ok(Err(WireError::BadMagic));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Ok(Err(WireError::Oversized { len: len as u64 }));
    }
    let mut rest = vec![0u8; len + 8];
    reader.read_exact(&mut rest)?;
    let checksum = u64::from_le_bytes(rest[len..].try_into().unwrap());
    rest.truncate(len);
    if checksum != fnv1a(&rest) {
        return Ok(Err(WireError::ChecksumMismatch));
    }
    Ok(Ok(rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Clear {
                region: 3,
                round: 17,
                bids: vec![
                    Bid {
                        user: 1,
                        cost: 2.5,
                        tasks: vec![(0, 0.5), (1, 0.25)],
                    },
                    Bid {
                        user: 2,
                        cost: 0.125,
                        tasks: vec![(1, 0.75)],
                    },
                ],
            },
            Request::PullDelta {
                region: 0,
                since: None,
            },
            Request::PullDelta {
                region: 9,
                since: Some(41),
            },
            Request::ApplyDelta {
                region: 2,
                delta: WireDelta {
                    settlements: vec![WireSettlement {
                        round: 5,
                        payouts: vec![(1, 4614256656552045848), (7, 13830554455654793216)],
                        total_bits: 42,
                        outcomes: vec![(1, 1), (7, 0)],
                    }],
                    next_round_id: 6,
                },
            },
            Request::Promote,
            Request::TraceSnapshot { region: 4 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong {
                node: 2,
                primary: true,
            },
            Response::Cleared(WireOutcome {
                region: 1,
                round: 9,
                winners: vec![1, 4],
                quotes: vec![(1, 10, 20), (4, 30, 40)],
                reports: vec![(1, 1), (4, 0)],
                social_cost_bits: 0x4008_0000_0000_0000,
            }),
            Response::ClearedEmpty {
                region: 6,
                round: 2,
            },
            Response::Quarantined {
                region: 0,
                round: 3,
                bidders: 12,
                error: WireRoundError::Infeasible { task: 7 },
            },
            Response::Quarantined {
                region: 0,
                round: 3,
                bidders: 2,
                error: WireRoundError::Mechanism {
                    message: "α out of range".into(),
                },
            },
            Response::Quarantined {
                region: 0,
                round: 3,
                bidders: 2,
                error: WireRoundError::DeadlineExceeded {
                    budget: 10,
                    cleared: 10,
                    deferred: 5,
                },
            },
            Response::Delta(WireDelta {
                settlements: vec![],
                next_round_id: 0,
            }),
            Response::Applied,
            Response::Promoted,
            Response::Trace(vec![TraceEvent {
                seq: 1,
                at: 1,
                kind: mcs_obs::EventKind::RoundClosed,
                stage: Some(mcs_obs::Stage::Batch),
                round: 4,
                a: 1,
                b: 2,
                c: 3,
            }]),
            Response::Error {
                message: "unknown region".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for request in sample_requests() {
            let payload = encode_request(&request);
            assert_eq!(decode_request(&payload).unwrap(), request);
            let framed = frame(&payload);
            assert_eq!(unframe(&framed).unwrap(), &payload[..]);
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in sample_responses() {
            let payload = encode_response(&response);
            assert_eq!(decode_response(&payload).unwrap(), response);
        }
    }

    #[test]
    fn every_single_byte_corruption_is_a_typed_error() {
        // Flip every byte of every framed sample message: each flip must
        // produce a typed decode error, never a silently different value
        // and never a panic. The checksum covers the payload; the header
        // fields are structurally validated.
        for request in sample_requests() {
            let framed = frame(&encode_request(&request));
            for i in 0..framed.len() {
                let mut corrupt = framed.clone();
                corrupt[i] ^= 0x40;
                let outcome = unframe(&corrupt).and_then(decode_request);
                assert!(
                    outcome.is_err(),
                    "byte {i} flip of {request:?} decoded as {outcome:?}"
                );
            }
        }
        for response in sample_responses() {
            let framed = frame(&encode_response(&response));
            for i in 0..framed.len() {
                let mut corrupt = framed.clone();
                corrupt[i] ^= 0x40;
                let outcome = unframe(&corrupt).and_then(decode_response);
                assert!(outcome.is_err(), "byte {i} flip decoded as {outcome:?}");
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_typed_errors() {
        let framed = frame(&encode_request(&Request::Ping));
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut]).is_err());
        }
        let mut extended = framed.clone();
        extended.push(0);
        assert!(unframe(&extended).is_err());
    }

    #[test]
    fn frames_round_trip_over_streams() {
        let payload = encode_request(&Request::TraceSnapshot { region: 1 });
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &payload).unwrap();
        let mut reader = &buffer[..];
        let back = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn outcome_and_settlement_conversions_are_bit_exact() {
        use mcs_core::types::UserId;
        let cleared = ClearedRound {
            id: RoundId(11),
            allocation: Allocation::from_winners([UserId::new(3), UserId::new(8)]),
            quotes: [
                (
                    UserId::new(3),
                    RewardQuote {
                        success: 1.0 / 3.0,
                        failure: -0.7,
                    },
                ),
                (
                    UserId::new(8),
                    RewardQuote {
                        success: 2.5,
                        failure: f64::MIN_POSITIVE,
                    },
                ),
            ]
            .into_iter()
            .collect(),
            reports: [(UserId::new(3), true), (UserId::new(8), false)]
                .into_iter()
                .collect(),
            social_cost: 0.1 + 0.2, // deliberately inexact decimal
            economics: Default::default(),
        };
        let wire = WireOutcome::from_cleared(5, &cleared);
        let back = wire.to_cleared();
        assert_eq!(back, cleared);
        assert_eq!(back.social_cost.to_bits(), cleared.social_cost.to_bits());

        let settlement = RoundSettlement {
            round: RoundId(11),
            payouts: [(UserId::new(3), 1.0 / 3.0), (UserId::new(8), -0.7)]
                .into_iter()
                .collect(),
            total: 1.0 / 3.0 - 0.7,
            outcomes: [(UserId::new(3), true), (UserId::new(8), false)]
                .into_iter()
                .collect(),
        };
        let wire = WireSettlement::from_settlement(&settlement);
        assert_eq!(wire.to_settlement(), settlement);
    }
}
