//! The cluster wire protocol: a length-prefixed binary codec for
//! coordinator ↔ node traffic.
//!
//! ## Frame layout
//!
//! ```text
//! [ magic "MCSCLST1" | payload len u32 LE | payload | FNV-1a(payload) u64 LE ]
//! ```
//!
//! Payloads are written and read through [`mcs_obs::codec`], the codec
//! the `MCSTRACE` replay log uses too: integers are little-endian,
//! vectors and strings `u32` length-prefixed, and every float crosses
//! the wire as its raw `u64` bit pattern, never as decimal text — the
//! cluster's headline guarantee is *bitwise* outcome equality, and a
//! codec that formats floats would forfeit it before a single bid
//! clears. Messages carry the platform's own types ([`Bid`],
//! [`ClearedRound`], [`RoundError`], [`TraceEvent`]); there is no mirror
//! layer to convert through. The trailing checksum makes every
//! single-byte corruption a typed decode error instead of a garbage
//! outcome (property-tested below). The checksum is the workspace's one
//! FNV-1a, [`mcs_obs::digest`].

use std::fmt;
use std::io::{Read, Write};

use mcs_core::mechanism::Allocation;
use mcs_core::types::{TaskId, UserId};
use mcs_obs::codec::{CodecError, Reader, Writer};
use mcs_obs::digest::fnv1a;
use mcs_obs::{EventKind, Stage, TraceEvent};
use mcs_platform::batch::RoundId;
use mcs_platform::degrade::RoundError;
use mcs_platform::ingest::Bid;
use mcs_platform::settle::RewardQuote;
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

impl From<CodecError> for WireError {
    fn from(error: CodecError) -> Self {
        match error {
            CodecError::Truncated { .. } => WireError::Truncated,
            CodecError::BadUtf8 => WireError::BadString,
            CodecError::TrailingBytes { .. } => WireError::TrailingBytes,
        }
    }
}

type Decoded<T> = Result<T, WireError>;

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
    /// Retired (checkpoint replication is gone): kept, with no payload,
    /// only because perfbench's traced transport
    /// (`perfbench/src/cluster_run.rs`) names it. It holds wire tag 2,
    /// nothing sends it, and a node answers it with [`Response::Error`].
    /// Delete it together with that reference.
    PullDelta,
    /// Retired like [`Request::PullDelta`], on wire tag 3.
    ApplyDelta,
    /// Promote a spare to primary (idempotent).
    Promote,
    /// Snapshot one region shard's span ring.
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
    /// The sub-round cleared. Its economics do not travel: they decode
    /// as the default, so nodes send them normalized to the default and
    /// a decoded response equals the one sent.
    Cleared {
        /// The region shard that cleared.
        region: u32,
        /// The cleared sub-round.
        cleared: ClearedRound,
    },
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
        error: RoundError,
    },
    /// The node now serves as primary.
    Promoted,
    /// The region shard's trace events.
    Trace(Vec<TraceEvent>),
    /// The node rejected the request.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

fn put_bid(out: &mut Writer, bid: &Bid) {
    out.u32(bid.user);
    out.f64(bid.cost);
    out.seq(&bid.tasks, |out, &(task, pos)| {
        out.u32(task);
        out.f64(pos);
    });
}

fn get_bid(r: &mut Reader<'_>) -> Decoded<Bid> {
    Ok(Bid {
        user: r.u32()?,
        cost: r.f64()?,
        tasks: r.seq(12, |r| -> Decoded<_> { Ok((r.u32()?, r.f64()?)) })?,
    })
}

fn put_user(out: &mut Writer, user: UserId) {
    out.u32(user.index() as u32);
}

fn get_user(r: &mut Reader<'_>) -> Result<UserId, CodecError> {
    r.u32().map(UserId::new)
}

fn put_cleared(out: &mut Writer, region: u32, cleared: &ClearedRound) {
    out.u32(region);
    out.u64(cleared.id.0);
    let winners: Vec<UserId> = cleared.allocation.winners().collect();
    out.seq(winners, put_user);
    out.seq(&cleared.quotes, |out, (&user, quote)| {
        put_user(out, user);
        out.f64(quote.success);
        out.f64(quote.failure);
    });
    out.seq(&cleared.reports, |out, (&user, &completed)| {
        put_user(out, user);
        out.u8(completed as u8);
    });
    out.f64(cleared.social_cost);
}

fn get_cleared(r: &mut Reader<'_>) -> Decoded<Response> {
    let region = r.u32()?;
    let id = RoundId(r.u64()?);
    let winners: Vec<UserId> = r.seq(4, get_user)?;
    Ok(Response::Cleared {
        region,
        cleared: ClearedRound {
            id,
            allocation: Allocation::from_winners(winners),
            quotes: r.seq(20, |r| -> Decoded<_> {
                let user = get_user(r)?;
                let (success, failure) = (r.f64()?, r.f64()?);
                Ok((user, RewardQuote { success, failure }))
            })?,
            reports: r.seq(5, |r| -> Decoded<_> { Ok((get_user(r)?, r.u8()? != 0)) })?,
            social_cost: r.f64()?,
            economics: Default::default(),
        },
    })
}

fn put_round_error(out: &mut Writer, error: &RoundError) {
    match error {
        RoundError::Infeasible { task } => {
            out.u8(0);
            out.u32(task.index() as u32);
        }
        RoundError::Mechanism { message } => {
            out.u8(1);
            out.str(message);
        }
        RoundError::Panicked { message } => {
            out.u8(2);
            out.str(message);
        }
        RoundError::DeadlineExceeded {
            budget,
            cleared,
            deferred,
        } => {
            out.u8(3);
            for count in [budget, cleared, deferred] {
                out.u64(*count as u64);
            }
        }
    }
}

fn get_round_error(r: &mut Reader<'_>) -> Decoded<RoundError> {
    Ok(match r.u8()? {
        0 => RoundError::Infeasible {
            task: TaskId::new(r.u32()?),
        },
        1 => RoundError::Mechanism {
            message: r.str()?.to_string(),
        },
        2 => RoundError::Panicked {
            message: r.str()?.to_string(),
        },
        3 => RoundError::DeadlineExceeded {
            budget: r.u64()? as usize,
            cleared: r.u64()? as usize,
            deferred: r.u64()? as usize,
        },
        tag => return Err(WireError::UnknownTag { tag }),
    })
}

/// Sentinel for "no stage" in the wire stage byte (mirrors the
/// recorder's own packing).
const NO_STAGE: u8 = 0xFF;

fn put_trace_event(out: &mut Writer, event: &TraceEvent) {
    out.u64(event.seq);
    out.u64(event.at);
    out.u8(event.kind.code() as u8);
    out.u8(event.stage.map_or(NO_STAGE, |s| s.index() as u8));
    for word in [event.round, event.a, event.b, event.c] {
        out.u64(word);
    }
}

fn get_trace_event(r: &mut Reader<'_>) -> Decoded<TraceEvent> {
    let (seq, at) = (r.u64()?, r.u64()?);
    let code = r.u8()?;
    let kind = EventKind::from_code(code as u64).ok_or(WireError::UnknownTag { tag: code })?;
    let stage = match r.u8()? {
        NO_STAGE => None,
        byte => Some(Stage::from_index(byte as usize).ok_or(WireError::UnknownTag { tag: byte })?),
    };
    Ok(TraceEvent {
        seq,
        at,
        kind,
        stage,
        round: r.u64()?,
        a: r.u64()?,
        b: r.u64()?,
        c: r.u64()?,
    })
}

/// Encodes a request payload (no frame).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Writer::default();
    match request {
        Request::Ping => out.u8(0),
        Request::Clear {
            region,
            round,
            bids,
        } => {
            out.u8(1);
            out.u32(*region);
            out.u64(*round);
            out.seq(bids, put_bid);
        }
        Request::PullDelta => out.u8(2),
        Request::ApplyDelta => out.u8(3),
        Request::Promote => out.u8(4),
        Request::TraceSnapshot { region } => {
            out.u8(5);
            out.u32(*region);
        }
    }
    out.into_bytes()
}

/// Decodes a request payload.
///
/// # Errors
///
/// A typed [`WireError`] on any malformed byte.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let request = match r.u8()? {
        0 => Request::Ping,
        1 => Request::Clear {
            region: r.u32()?,
            round: r.u64()?,
            bids: r.seq(16, get_bid)?,
        },
        2 => Request::PullDelta,
        3 => Request::ApplyDelta,
        4 => Request::Promote,
        5 => Request::TraceSnapshot { region: r.u32()? },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    r.finish()?;
    Ok(request)
}

/// Encodes a response payload (no frame).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Writer::default();
    match response {
        Response::Pong { node, primary } => {
            out.u8(0);
            out.u32(*node);
            out.u8(*primary as u8);
        }
        Response::Cleared { region, cleared } => {
            out.u8(1);
            put_cleared(&mut out, *region, cleared);
        }
        Response::ClearedEmpty { region, round } => {
            out.u8(2);
            out.u32(*region);
            out.u64(*round);
        }
        Response::Quarantined {
            region,
            round,
            bidders,
            error,
        } => {
            out.u8(3);
            out.u32(*region);
            out.u64(*round);
            out.u64(*bidders);
            put_round_error(&mut out, error);
        }
        // Tags 4 and 5 stay unused: they carried the retired replication
        // responses.
        Response::Promoted => out.u8(6),
        Response::Trace(events) => {
            out.u8(7);
            out.seq(events, put_trace_event);
        }
        Response::Error { message } => {
            out.u8(8);
            out.str(message);
        }
    }
    out.into_bytes()
}

/// Decodes a response payload.
///
/// # Errors
///
/// A typed [`WireError`] on any malformed byte.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let response = match r.u8()? {
        0 => Response::Pong {
            node: r.u32()?,
            primary: r.u8()? != 0,
        },
        1 => get_cleared(&mut r)?,
        2 => Response::ClearedEmpty {
            region: r.u32()?,
            round: r.u64()?,
        },
        3 => Response::Quarantined {
            region: r.u32()?,
            round: r.u64()?,
            bidders: r.u64()?,
            error: get_round_error(&mut r)?,
        },
        6 => Response::Promoted,
        7 => Response::Trace(r.seq(42, get_trace_event)?),
        8 => Response::Error {
            message: r.str()?.to_string(),
        },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    r.finish()?;
    Ok(response)
}

/// Frame header bytes: the magic and the payload length.
const HEADER: usize = 12;

/// Wraps a payload in a checksummed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds frame cap");
    let mut out = Writer::with_capacity(payload.len() + HEADER + 8);
    out.raw(&MAGIC);
    out.len(payload.len());
    out.raw(payload);
    out.u64(fnv1a(payload));
    out.into_bytes()
}

/// The one frame-header check: the magic, then the payload length
/// against [`MAX_PAYLOAD`].
fn payload_len(header: &[u8]) -> Decoded<usize> {
    let mut r = Reader::new(header);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let len = r.u32()? as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len: len as u64 });
    }
    Ok(len)
}

/// Splits a frame body into its `len`-byte payload and verifies the
/// checksum after it. The body must hold exactly those bytes.
fn checked_payload(body: &[u8], len: usize) -> Decoded<&[u8]> {
    let mut r = Reader::new(body);
    let payload = r.take(len)?;
    let checksum = r.u64()?;
    r.finish().map_err(|_| WireError::Truncated)?;
    if checksum != fnv1a(payload) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Unwraps a complete frame back into its payload.
///
/// # Errors
///
/// A typed [`WireError`] when the magic, length, checksum, or size do
/// not hold.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], WireError> {
    let (header, body) = bytes.split_at_checked(HEADER).ok_or(WireError::Truncated)?;
    checked_payload(body, payload_len(header)?)
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
    let mut header = [0u8; HEADER];
    reader.read_exact(&mut header)?;
    let len = match payload_len(&header) {
        Ok(len) => len,
        Err(error) => return Ok(Err(error)),
    };
    let mut body = vec![0u8; len + 8];
    reader.read_exact(&mut body)?;
    if let Err(error) = checked_payload(&body, len) {
        return Ok(Err(error));
    }
    body.truncate(len);
    Ok(Ok(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A per-user map from `(user index, value)` pairs.
    fn users<T, const N: usize>(pairs: [(u32, T); N]) -> BTreeMap<UserId, T> {
        pairs
            .into_iter()
            .map(|(user, value)| (UserId::new(user), value))
            .collect()
    }

    fn bits_quote(success: u64, failure: u64) -> RewardQuote {
        RewardQuote {
            success: f64::from_bits(success),
            failure: f64::from_bits(failure),
        }
    }

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
            Request::PullDelta,
            Request::ApplyDelta,
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
            Response::Cleared {
                region: 1,
                cleared: ClearedRound {
                    id: RoundId(9),
                    allocation: Allocation::from_winners([UserId::new(1), UserId::new(4)]),
                    quotes: users([(1, bits_quote(10, 20)), (4, bits_quote(30, 40))]),
                    reports: users([(1, true), (4, false)]),
                    social_cost: 3.0,
                    economics: Default::default(),
                },
            },
            Response::ClearedEmpty {
                region: 6,
                round: 2,
            },
            Response::Quarantined {
                region: 0,
                round: 3,
                bidders: 12,
                error: RoundError::Infeasible {
                    task: TaskId::new(7),
                },
            },
            Response::Quarantined {
                region: 0,
                round: 3,
                bidders: 2,
                error: RoundError::Mechanism {
                    message: "α out of range".into(),
                },
            },
            Response::Quarantined {
                region: 0,
                round: 3,
                bidders: 2,
                error: RoundError::DeadlineExceeded {
                    budget: 10,
                    cleared: 10,
                    deferred: 5,
                },
            },
            Response::Promoted,
            Response::Trace(vec![TraceEvent {
                seq: 1,
                at: 1,
                kind: EventKind::RoundClosed,
                stage: Some(Stage::Batch),
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

    /// FNV-1a and length of every sample, framed and concatenated.
    fn pin(frames: impl Iterator<Item = Vec<u8>>) -> (u64, usize) {
        let bytes: Vec<u8> = frames.flatten().collect();
        (fnv1a(&bytes), bytes.len())
    }

    #[test]
    fn sample_frames_keep_their_pinned_bytes() {
        // Every live message encodes to the bytes it had before the
        // replication messages were retired.
        let retired = |r: &Request| matches!(r, Request::PullDelta | Request::ApplyDelta);
        let requests = sample_requests().into_iter().filter(|r| !retired(r));
        assert_eq!(
            pin(requests.map(|r| frame(&encode_request(&r)))),
            (0x7aeb_ac60_b3ef_2fef, 172)
        );
        let responses = sample_responses().into_iter();
        assert_eq!(
            pin(responses.map(|r| frame(&encode_response(&r)))),
            (0xf853_5954_30ff_3487, 478)
        );
        // The retired requests are their bare tags.
        assert_eq!(encode_request(&Request::PullDelta), [2]);
        assert_eq!(encode_request(&Request::ApplyDelta), [3]);
        // The retired responses' tags decode as unknown.
        for tag in [4, 5] {
            assert_eq!(decode_response(&[tag]), Err(WireError::UnknownTag { tag }));
        }
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
    fn platform_floats_round_trip_bit_exact() {
        // Deliberately inexact decimals and a subnormal boundary: only
        // bit patterns travel, so every one comes back bitwise.
        let cleared = ClearedRound {
            id: RoundId(11),
            allocation: Allocation::from_winners([UserId::new(3), UserId::new(8)]),
            quotes: users([
                (
                    3,
                    RewardQuote {
                        success: 1.0 / 3.0,
                        failure: -0.7,
                    },
                ),
                (
                    8,
                    RewardQuote {
                        success: 2.5,
                        failure: f64::MIN_POSITIVE,
                    },
                ),
            ]),
            reports: users([(3, true), (8, false)]),
            social_cost: 0.1 + 0.2,
            economics: Default::default(),
        };
        let response = Response::Cleared { region: 5, cleared };
        let back = decode_response(&encode_response(&response)).unwrap();
        assert_eq!(back, response);
        match (&back, &response) {
            (Response::Cleared { cleared: a, .. }, Response::Cleared { cleared: b, .. }) => {
                assert_eq!(a.social_cost.to_bits(), b.social_cost.to_bits());
            }
            other => panic!("expected two Cleared responses, got {other:?}"),
        }

        let request = Request::Clear {
            region: 5,
            round: 11,
            bids: vec![Bid {
                user: 3,
                cost: 1.0 / 3.0,
                tasks: vec![(0, 0.1 + 0.2), (4, f64::MIN_POSITIVE)],
            }],
        };
        assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
    }

    #[test]
    fn economics_stay_off_the_wire() {
        let mut cleared = ClearedRound {
            id: RoundId(2),
            allocation: Allocation::from_winners([UserId::new(1)]),
            quotes: users([(1, bits_quote(1, 2))]),
            reports: users([(1, true)]),
            social_cost: 1.5,
            economics: Default::default(),
        };
        let plain = encode_response(&Response::Cleared {
            region: 0,
            cleared: cleared.clone(),
        });
        cleared.economics.expected_payment = 1.25;
        let rich = encode_response(&Response::Cleared { region: 0, cleared });
        assert_eq!(plain, rich);
    }
}
