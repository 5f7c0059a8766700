//! The wire message vocabulary and its binary layouts.
//!
//! One [`Message`] per frame. Tags and layouts (all integers big-endian):
//!
//! | tag | message        | payload layout                                              |
//! |-----|----------------|-------------------------------------------------------------|
//! | 1   | `Hello`        | version u16, scenario u8, 3× seed u64, qsl_size u64, max_in_flight u32, session u64, epoch u32, resume u8 |
//! | 2   | `HelloAck`     | version u16, sut_name str, max_in_flight u32                |
//! | 3   | `Reject`       | reason str                                                  |
//! | 4   | —              | retired (untraced `Issue`); never reuse                     |
//! | 5   | `Completion`   | query_id u64, error u8, n u32, n× (sample_id u64, payload)  |
//! | 6   | —              | retired (`Heartbeat`); never reuse                          |
//! | 7   | —              | retired (`HeartbeatAck`); never reuse                       |
//! | 8   | `Drain`        | (empty)                                                     |
//! | 9   | `Goodbye`      | served u64                                                  |
//! | 10  | `IssueTraced`  | trace_id u64, query_id u64, scheduled_at u64, tenant u32, n u32, n× (sample_id u64, index u64) |
//! | 11  | `Events`       | jsonl str — server-side detail-log rows                     |
//! | 12  | `StatsRequest` | (empty)                                                     |
//! | 13  | `Stats`        | json str — daemon stats snapshot                            |
//! | 14  | `ClockProbe`   | seq u64, t0 u64                                             |
//! | 15  | `ClockProbeAck`| seq u64, t0 u64, t1 u64, t2 u64                             |
//!
//! Response payloads use their own tagged encoding,
//! [`ResponsePayload::encode`], shared with the run journal: 0 empty,
//! 1 class (u64), 2 boxes (n u32, n× class u64 + score f32 + 4× f32),
//! 3 tokens (n u32, n× u32).
//!
//! Every count is bounded by the bytes that remain before anything is
//! allocated ([`ByteReader::get_count`]). On the wire every encoded
//! message travels [`seal`]ed — prefixed by its CRC32 — via
//! [`Message::to_wire`] / [`Message::from_wire`]; see [`crate::frame`]
//! for the frame format.

use crate::frame::WireError;
use mlperf_loadgen::query::{Query, QuerySample, ResponsePayload, SampleCompletion};
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::SeedTriple;
use mlperf_trace::codec::{open, seal, ByteReader, ByteWriter};

/// The one protocol version this build speaks; the handshake accepts
/// exactly this version and rejects every other. v3 frames carry a CRC32
/// ([`seal`]), session-resume fields in [`Hello`], a trace id on every
/// issue (`IssueTraced`), server event shipping at drain (`Events`),
/// daemon stats (`StatsRequest`/`Stats`), and NTP-style clock probes
/// (`ClockProbe`/`ClockProbeAck`) that double as heartbeats.
pub const PROTOCOL_VERSION: u16 = 3;

/// What the client announces before any query flows: everything the server
/// needs to pre-load its QSL and sanity-check the run (scenario, the three
/// rulebook seeds, QSL size) plus the backpressure window it intends to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Client protocol version.
    pub version: u16,
    /// Scenario the run will drive.
    pub scenario: Scenario,
    /// The run's seed triple (qsl, schedule, accuracy).
    pub seeds: SeedTriple,
    /// Number of samples in the client's QSL.
    pub qsl_size: u64,
    /// Maximum queries the client will keep in flight.
    pub max_in_flight: u32,
    /// Stable id for the run's session; survives reconnects so the server
    /// can key its completion journal.
    pub session: u64,
    /// 0 for a fresh run; incremented on every reconnect of the same
    /// session. The server resets its service only on epoch 0.
    pub epoch: u32,
    /// Whether the client may reconnect and resume after a disconnect (it
    /// has a resume policy armed).
    pub resume: bool,
}

/// One message on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: handshake open.
    Hello(Hello),
    /// Server → client: handshake accept.
    HelloAck {
        /// Server protocol version.
        version: u16,
        /// Name of the SUT the server exports.
        sut_name: String,
        /// In-flight window the server granted.
        max_in_flight: u32,
    },
    /// Server → client: handshake refusal; the connection closes after.
    Reject {
        /// Why the server refused.
        reason: String,
    },
    /// Server → client: a query resolved. `error` marks a structural
    /// failure (the remote engine errored/dropped); sample ids still echo.
    Completion {
        /// Query id being resolved.
        query_id: u64,
        /// Whether the query resolved as an error.
        error: bool,
        /// Per-sample completions.
        samples: Vec<SampleCompletion>,
    },
    /// Client → server: no more queries; flush outstanding completions.
    Drain,
    /// Server → client: drain finished, connection closing.
    Goodbye {
        /// Queries the server resolved over the connection's lifetime.
        served: u64,
    },
    /// Client → server: run inference on a query, carrying the trace id
    /// the server must tag its side of the work with.
    IssueTraced {
        /// Trace id shared by every span of this query, on both hosts.
        trace_id: u64,
        /// The query.
        query: Query,
    },
    /// Server → client: a batch of server-side detail-log rows,
    /// JSONL-encoded `TraceRecord`s on the *server* clock. Shipped at
    /// drain, before `Goodbye`; the client re-stamps them onto its own
    /// clock via the negotiated offset estimate.
    Events {
        /// JSON Lines, one `TraceRecord` per line.
        jsonl: String,
    },
    /// Client → server: one-shot stats query. May open a dedicated
    /// connection: a `StatsRequest` as the first frame (instead of
    /// `Hello`) gets a `Stats` reply and the connection closes.
    StatsRequest,
    /// Server → client: daemon stats snapshot as JSON (see
    /// `DaemonStats` in the stats module).
    Stats {
        /// JSON-encoded `DaemonStats`.
        json: String,
    },
    /// Client → server: NTP-style clock probe. Doubles as the heartbeat
    /// (the ack refreshes the client's liveness clock).
    ClockProbe {
        /// Monotonic probe sequence number.
        seq: u64,
        /// Client clock at send, in nanoseconds.
        t0: u64,
    },
    /// Reply to a [`Message::ClockProbe`]: echoes `t0` and adds the
    /// server-clock receive (`t1`) and transmit (`t2`) stamps. The client
    /// supplies `t3` (its receive time) to complete the four-timestamp
    /// offset estimate.
    ClockProbeAck {
        /// Echoed sequence number.
        seq: u64,
        /// Echoed client send time.
        t0: u64,
        /// Server clock when the probe arrived.
        t1: u64,
        /// Server clock when the ack left.
        t2: u64,
    },
}

fn scenario_tag(s: Scenario) -> u8 {
    match s {
        Scenario::SingleStream => 0,
        Scenario::MultiStream => 1,
        Scenario::Server => 2,
        Scenario::Offline => 3,
    }
}

fn scenario_from_tag(tag: u8) -> Result<Scenario, WireError> {
    match tag {
        0 => Ok(Scenario::SingleStream),
        1 => Ok(Scenario::MultiStream),
        2 => Ok(Scenario::Server),
        3 => Ok(Scenario::Offline),
        other => Err(WireError::Protocol(format!("unknown scenario tag {other}"))),
    }
}

fn put_query(w: &mut ByteWriter, query: &Query) {
    w.put_u64(query.id);
    w.put_u64(query.scheduled_at.as_nanos());
    w.put_u32(query.tenant);
    w.put_count(query.samples.len());
    for s in &query.samples {
        w.put_u64(s.id);
        w.put_u64(s.index as u64);
    }
}

fn get_query(r: &mut ByteReader<'_>) -> Result<Query, WireError> {
    let id = r.get_u64()?;
    let scheduled_at = Nanos::from_nanos(r.get_u64()?);
    let tenant = r.get_u32()?;
    let n = r.get_count(16)?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        samples.push(QuerySample {
            id: r.get_u64()?,
            index: r.get_u64()? as usize,
        });
    }
    Ok(Query {
        id,
        samples,
        scheduled_at,
        tenant,
    })
}

impl Message {
    /// Human-readable message name, for diagnostics.
    pub fn tag_name(&self) -> &'static str {
        match self {
            Message::Hello(_) => "Hello",
            Message::HelloAck { .. } => "HelloAck",
            Message::Reject { .. } => "Reject",
            Message::Completion { .. } => "Completion",
            Message::Drain => "Drain",
            Message::Goodbye { .. } => "Goodbye",
            Message::IssueTraced { .. } => "IssueTraced",
            Message::Events { .. } => "Events",
            Message::StatsRequest => "StatsRequest",
            Message::Stats { .. } => "Stats",
            Message::ClockProbe { .. } => "ClockProbe",
            Message::ClockProbeAck { .. } => "ClockProbeAck",
        }
    }

    /// Encodes the message as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Message::Hello(h) => {
                w.put_u8(1);
                w.put_u16(h.version);
                w.put_u8(scenario_tag(h.scenario));
                w.put_u64(h.seeds.qsl_seed);
                w.put_u64(h.seeds.schedule_seed);
                w.put_u64(h.seeds.accuracy_seed);
                w.put_u64(h.qsl_size);
                w.put_u32(h.max_in_flight);
                w.put_u64(h.session);
                w.put_u32(h.epoch);
                w.put_u8(u8::from(h.resume));
            }
            Message::HelloAck {
                version,
                sut_name,
                max_in_flight,
            } => {
                w.put_u8(2);
                w.put_u16(*version);
                w.put_str(sut_name);
                w.put_u32(*max_in_flight);
            }
            Message::Reject { reason } => {
                w.put_u8(3);
                w.put_str(reason);
            }
            Message::Completion {
                query_id,
                error,
                samples,
            } => {
                w.put_u8(5);
                w.put_u64(*query_id);
                w.put_u8(u8::from(*error));
                w.put_count(samples.len());
                for s in samples {
                    w.put_u64(s.sample_id);
                    s.payload.encode(&mut w);
                }
            }
            Message::Drain => {
                w.put_u8(8);
            }
            Message::Goodbye { served } => {
                w.put_u8(9);
                w.put_u64(*served);
            }
            Message::IssueTraced { trace_id, query } => {
                w.put_u8(10);
                w.put_u64(*trace_id);
                put_query(&mut w, query);
            }
            Message::Events { jsonl } => {
                w.put_u8(11);
                w.put_str(jsonl);
            }
            Message::StatsRequest => {
                w.put_u8(12);
            }
            Message::Stats { json } => {
                w.put_u8(13);
                w.put_str(json);
            }
            Message::ClockProbe { seq, t0 } => {
                w.put_u8(14);
                w.put_u64(*seq);
                w.put_u64(*t0);
            }
            Message::ClockProbeAck { seq, t0, t1, t2 } => {
                w.put_u8(15);
                w.put_u64(*seq);
                w.put_u64(*t0);
                w.put_u64(*t1);
                w.put_u64(*t2);
            }
        }
        w.into_bytes()
    }

    /// Encodes the message and seals it for the wire: `crc32 || body`.
    pub fn to_wire(&self) -> Vec<u8> {
        seal(&self.encode())
    }

    /// Opens a sealed wire payload (verifying the CRC32) and decodes it.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Frame`] when the checksum does not match —
    /// corrupted bytes never decode into a message — plus
    /// [`Message::decode`]'s protocol errors.
    pub fn from_wire(payload: &[u8]) -> Result<Message, WireError> {
        Message::decode(open(payload)?)
    }

    /// Decodes one frame body (already integrity-checked).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Protocol`] for unknown tags, truncation, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = ByteReader::new(payload);
        let message = match r.get_u8()? {
            1 => Message::Hello(Hello {
                version: r.get_u16()?,
                scenario: scenario_from_tag(r.get_u8()?)?,
                seeds: SeedTriple {
                    qsl_seed: r.get_u64()?,
                    schedule_seed: r.get_u64()?,
                    accuracy_seed: r.get_u64()?,
                },
                qsl_size: r.get_u64()?,
                max_in_flight: r.get_u32()?,
                session: r.get_u64()?,
                epoch: r.get_u32()?,
                resume: r.get_u8()? != 0,
            }),
            2 => Message::HelloAck {
                version: r.get_u16()?,
                sut_name: r.get_str()?,
                max_in_flight: r.get_u32()?,
            },
            3 => Message::Reject {
                reason: r.get_str()?,
            },
            5 => {
                let query_id = r.get_u64()?;
                let error = r.get_u8()? != 0;
                // Each sample is at least its id plus a payload tag.
                let n = r.get_count(9)?;
                let mut samples = Vec::with_capacity(n);
                for _ in 0..n {
                    samples.push(SampleCompletion {
                        sample_id: r.get_u64()?,
                        payload: ResponsePayload::decode(&mut r)?,
                    });
                }
                Message::Completion {
                    query_id,
                    error,
                    samples,
                }
            }
            8 => Message::Drain,
            9 => Message::Goodbye {
                served: r.get_u64()?,
            },
            10 => Message::IssueTraced {
                trace_id: r.get_u64()?,
                query: get_query(&mut r)?,
            },
            11 => Message::Events {
                jsonl: r.get_str()?,
            },
            12 => Message::StatsRequest,
            13 => Message::Stats { json: r.get_str()? },
            14 => Message::ClockProbe {
                seq: r.get_u64()?,
                t0: r.get_u64()?,
            },
            15 => Message::ClockProbeAck {
                seq: r.get_u64()?,
                t0: r.get_u64()?,
                t1: r.get_u64()?,
                t2: r.get_u64()?,
            },
            other => {
                return Err(WireError::Protocol(format!("unknown message tag {other}")));
            }
        };
        r.finish()?;
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello(Hello {
                version: PROTOCOL_VERSION,
                scenario: Scenario::Server,
                seeds: SeedTriple::OFFICIAL,
                qsl_size: 1_024,
                max_in_flight: 64,
                session: 0xD15C0,
                epoch: 3,
                resume: true,
            }),
            Message::HelloAck {
                version: PROTOCOL_VERSION,
                sut_name: "datacenter-gpu".into(),
                max_in_flight: 64,
            },
            Message::Reject {
                reason: "version mismatch".into(),
            },
            Message::Completion {
                query_id: 17,
                error: false,
                samples: vec![
                    SampleCompletion {
                        sample_id: 170,
                        payload: ResponsePayload::Class(7),
                    },
                    SampleCompletion {
                        sample_id: 171,
                        payload: ResponsePayload::Boxes(vec![(1, 0.75, [0.0, 1.0, 2.0, 3.0])]),
                    },
                ],
            },
            Message::Completion {
                query_id: 18,
                error: true,
                samples: vec![SampleCompletion {
                    sample_id: 180,
                    payload: ResponsePayload::Empty,
                }],
            },
            Message::Completion {
                query_id: 19,
                error: false,
                samples: vec![SampleCompletion {
                    sample_id: 190,
                    payload: ResponsePayload::Tokens(vec![5, 6, 7]),
                }],
            },
            Message::Drain,
            Message::Goodbye { served: 270_336 },
            Message::IssueTraced {
                trace_id: 0x7AC3_1D00_DEAD_BEEF,
                query: Query {
                    id: 17,
                    samples: vec![
                        QuerySample { id: 170, index: 3 },
                        QuerySample {
                            id: 171,
                            index: 900,
                        },
                    ],
                    scheduled_at: Nanos::from_micros(250),
                    tenant: 2,
                },
            },
            Message::Events {
                jsonl: "{\"ts_ns\":1,\"event\":{\"QuerySent\":{\"query_id\":4}}}\n".into(),
            },
            Message::StatsRequest,
            Message::Stats {
                json: "{\"served\":12,\"uptime_ns\":99}".into(),
            },
            Message::ClockProbe {
                seq: 7,
                t0: 1_000_000,
            },
            Message::ClockProbeAck {
                seq: 7,
                t0: 1_000_000,
                t1: 1_000_420,
                t2: 1_000_690,
            },
        ]
    }

    #[test]
    fn messages_roundtrip() {
        for message in sample_messages() {
            let bytes = message.encode();
            let back = Message::decode(&bytes).unwrap();
            assert_eq!(back, message, "{message:?}");
        }
    }

    #[test]
    fn every_scenario_tag_roundtrips() {
        for scenario in Scenario::ALL {
            assert_eq!(scenario_from_tag(scenario_tag(scenario)).unwrap(), scenario);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Message::decode(&[200]),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn truncation_rejected_for_every_message() {
        for message in sample_messages() {
            let bytes = message.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Message::decode(&bytes[..cut]).is_err(),
                    "{message:?} decoded from a {cut}-byte prefix"
                );
            }
        }
    }

    /// A body whose count field claims `u32::MAX` elements.
    fn huge_count_body(tag: u8, fixed: &[u64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(tag);
        for &v in fixed {
            w.put_u64(v);
        }
        w.put_u32(u32::MAX);
        w.into_bytes()
    }

    /// Length fields are bounded by the bytes that remain, so a corrupt
    /// count is a structured error instead of a multi-gigabyte allocation
    /// that aborts the process.
    #[test]
    fn huge_counts_are_rejected_before_allocation() {
        // The retired untraced issue: query_id, scheduled_at, tenant, n.
        let mut issue = huge_count_body(4, &[17, 250_000]);
        issue.splice(17..17, 0u32.to_be_bytes());
        assert_eq!(issue.len(), 25);
        // The traced issue: trace_id, then the same query layout.
        let mut traced = huge_count_body(10, &[0x7AC3, 17, 250_000]);
        traced.splice(25..25, 0u32.to_be_bytes());
        // A completion: query_id, error flag, n.
        let mut completion = huge_count_body(5, &[17]);
        completion.insert(9, 0);
        // One completion sample whose payload claims `u32::MAX` boxes or
        // tokens.
        let payload = |tag: u8| {
            let mut w = ByteWriter::new();
            w.put_u8(5);
            w.put_u64(17);
            w.put_u8(0);
            w.put_u32(1);
            w.put_u64(170);
            w.put_u8(tag);
            w.put_u32(u32::MAX);
            w.into_bytes()
        };
        for body in [issue, traced, completion, payload(2), payload(3)] {
            assert!(
                matches!(Message::decode(&body), Err(WireError::Protocol(_))),
                "{body:?}"
            );
            let sealed = seal(&body);
            assert!(matches!(
                Message::from_wire(&sealed),
                Err(WireError::Protocol(_))
            ));
        }
    }

    #[test]
    fn retired_tags_are_rejected() {
        for tag in [4u8, 6, 7] {
            let mut body = vec![tag];
            body.extend_from_slice(&41u64.to_be_bytes());
            assert!(matches!(
                Message::decode(&body),
                Err(WireError::Protocol(_))
            ));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::Drain.encode();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn wire_roundtrip_is_sealed() {
        for message in sample_messages() {
            let payload = message.to_wire();
            assert_eq!(Message::from_wire(&payload).unwrap(), message);
        }
    }

    /// The acceptance sweep: any single flipped payload byte — checksum or
    /// body, any message — is rejected as a structured [`FrameError`] and
    /// never decodes into a message, let alone a plausible completion.
    #[test]
    fn seeded_corruption_sweep_never_decodes() {
        use mlperf_stats::rng::Rng64;
        let messages = sample_messages();
        let mut rng = Rng64::new(0x0BAD_F00D);
        let mut corruptions = 0;
        while corruptions < 256 {
            let message = &messages[rng.next_below(messages.len() as u64) as usize];
            let mut payload = message.to_wire();
            let pos = rng.next_below(payload.len() as u64) as usize;
            let bit = rng.next_below(8) as u8;
            payload[pos] ^= 1 << bit;
            match Message::from_wire(&payload) {
                Err(WireError::Frame(e)) => {
                    assert_ne!(e.expected, e.found, "structured mismatch must be real")
                }
                Ok(decoded) => panic!(
                    "corrupted frame decoded into {decoded:?} (byte {pos}, bit {bit}, from {message:?})"
                ),
                Err(other) => panic!("expected FrameError, got {other:?}"),
            }
            corruptions += 1;
        }
    }
}
