//! One corruption sweep for every binary format built on the shared byte
//! codec: wire frames, `MLPR` recorded traces, and `MLPJ` run journals.
//!
//! For every single-bit flip and every truncation of a valid encoding, the
//! decoder must return a structured verdict and never panic. Wire frames
//! and traces reject the damaged bytes outright; a journal salvages exactly
//! the intact prefix and reports the rest as a torn tail.
//!
//! A real run journal (a JSON meta frame, then binary checkpoints) is swept
//! twice: through the frame layer, where the CRC catches the damage, and
//! with each damaged checkpoint payload re-sealed under a fresh CRC, so the
//! binary checkpoint decoder itself meets the bad bytes.

use std::io::Cursor;
use std::path::Path;

use mlperf_loadgen::des::run_journaled;
use mlperf_loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::query::{QuerySample, ResponsePayload, SampleCompletion};
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::{Checkpoint, Instruments, LoadGenError, TestSettings};
use mlperf_loadgen::{Nanos, Query, Scenario};
use mlperf_replay::{RecordedQuery, RecordedTrace};
use mlperf_trace::codec::crc32;
use mlperf_trace::journal::{parse_journal, JournalWriter, FRAME_HEADER_LEN, MAGIC};
use mlperf_wire::frame::{read_frame, write_frame};
use mlperf_wire::Message;

/// Bytes of `MLPJ` magic + version before the first frame.
const HEADER_LEN: usize = MAGIC.len() + 2;

/// How a valid encoding was damaged.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// One bit flipped in the byte at this offset.
    Flip(usize),
    /// Everything from this offset on is gone.
    Cut(usize),
}

/// What a decoder made of a damaged encoding.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// A structured error: nothing decoded.
    Rejected,
    /// A journal salvage: the intact records, and the byte offset of the
    /// torn tail (`None` when the damage left a clean, shorter journal).
    Salvaged {
        records: Vec<Vec<u8>>,
        torn_at: Option<u64>,
    },
    /// The damaged bytes decoded as if nothing happened.
    Accepted,
}

/// One binary format under test.
struct Format {
    name: &'static str,
    encoding: Vec<u8>,
    decode: fn(&[u8]) -> Verdict,
    expect: Box<dyn Fn(Damage) -> Verdict>,
}

fn decode_wire(bytes: &[u8]) -> Verdict {
    match read_frame(&mut Cursor::new(bytes)).and_then(|p| Message::from_wire(&p)) {
        Ok(_) => Verdict::Accepted,
        Err(_) => Verdict::Rejected,
    }
}

fn decode_mlpr(bytes: &[u8]) -> Verdict {
    match RecordedTrace::decode(bytes) {
        Ok(_) => Verdict::Accepted,
        Err(_) => Verdict::Rejected,
    }
}

fn decode_mlpj(bytes: &[u8]) -> Verdict {
    match parse_journal(bytes) {
        Ok(scan) => Verdict::Salvaged {
            records: scan.records,
            torn_at: scan.torn.map(|t| t.byte_offset),
        },
        Err(_) => Verdict::Rejected,
    }
}

/// A full wire frame: length prefix, then the sealed message.
fn wire_format(name: &'static str, message: &Message) -> Format {
    let mut encoding = Vec::new();
    write_frame(&mut encoding, &message.to_wire()).expect("in-memory write");
    Format {
        name,
        encoding,
        decode: decode_wire,
        expect: Box::new(|_| Verdict::Rejected),
    }
}

fn mlpr_format() -> Format {
    let trace = RecordedTrace {
        scenario: Scenario::Server,
        source: "sweep".into(),
        population: 64,
        samples_per_query: 2,
        target_latency_ns: 15_000_000,
        target_percentile: 99.0,
        server_target_qps: 1_000.0,
        max_error_fraction: 0.0,
        interval_ns: 1_000_000,
        synthetic_indices: false,
        queries: vec![
            RecordedQuery {
                delta_ns: 0,
                latency_ns: Some(300_000),
                error: false,
                indices: vec![3, 9],
            },
            RecordedQuery {
                delta_ns: 1_000_000,
                latency_ns: None,
                error: true,
                indices: vec![17],
            },
        ],
    };
    Format {
        name: "MLPR trace",
        encoding: trace.encode(),
        decode: decode_mlpr,
        expect: Box::new(|_| Verdict::Rejected),
    }
}

fn mlpj_format() -> Format {
    let payloads: Vec<Vec<u8>> = vec![
        b"checkpoint-0".to_vec(),
        Vec::new(),
        b"completion \x00\xff".to_vec(),
    ];
    let path =
        std::env::temp_dir().join(format!("mlpj_corruption_sweep_{}.mlpj", std::process::id()));
    let mut writer = JournalWriter::create(&path, 0).expect("create journal");
    for p in &payloads {
        writer.append(p).expect("append");
    }
    drop(writer);
    let encoding = std::fs::read(&path).expect("read journal");
    std::fs::remove_file(&path).ok();

    // Frame k spans `starts[k]..starts[k + 1]`: length, CRC, payload.
    let mut starts = vec![HEADER_LEN];
    for p in &payloads {
        starts.push(starts.last().unwrap() + 8 + p.len());
    }
    assert_eq!(*starts.last().unwrap(), encoding.len());
    let expect = move |damage: Damage| {
        let at = match damage {
            Damage::Flip(at) | Damage::Cut(at) => at,
        };
        if at < HEADER_LEN {
            return Verdict::Rejected; // bad magic or version
        }
        // The frame the damage lands in (a cut on a boundary lands in the
        // next frame, which is then missing entirely).
        let k = starts.iter().rposition(|&s| s <= at).unwrap();
        let torn = match damage {
            Damage::Flip(_) => true,
            Damage::Cut(_) => starts[k] != at,
        };
        Verdict::Salvaged {
            records: payloads[..k].to_vec(),
            torn_at: torn.then_some(starts[k] as u64),
        }
    };
    Format {
        name: "MLPJ journal",
        encoding,
        decode: decode_mlpj,
        expect: Box::new(expect),
    }
}

fn formats() -> Vec<Format> {
    vec![
        wire_format(
            "wire Completion",
            &Message::Completion {
                query_id: 17,
                error: false,
                samples: vec![
                    SampleCompletion {
                        sample_id: 170,
                        payload: ResponsePayload::Class(7),
                    },
                    SampleCompletion {
                        sample_id: 171,
                        payload: ResponsePayload::Tokens(vec![5, 6, 7]),
                    },
                ],
            },
        ),
        wire_format(
            "wire IssueTraced",
            &Message::IssueTraced {
                trace_id: 0x7AC3_1D00_DEAD_BEEF,
                query: Query {
                    id: 18,
                    samples: vec![QuerySample { id: 180, index: 5 }],
                    scheduled_at: Nanos::from_micros(300),
                    tenant: 0,
                },
            },
        ),
        mlpr_format(),
        mlpj_format(),
    ]
}

#[test]
fn every_single_byte_flip_is_caught() {
    for format in formats() {
        let bytes = &format.encoding;
        let intact = (format.decode)(bytes);
        assert!(
            matches!(
                intact,
                Verdict::Accepted | Verdict::Salvaged { torn_at: None, .. }
            ),
            "{}: the valid encoding must decode, got {intact:?}",
            format.name
        );
        let flips = (0..bytes.len()).flat_map(|at| (0..8u8).map(move |bit| (at, bit)));
        for (at, bit) in flips {
            let mut damaged = bytes.clone();
            damaged[at] ^= 1 << bit;
            assert_eq!(
                (format.decode)(&damaged),
                (format.expect)(Damage::Flip(at)),
                "{}: bit {bit} of byte {at} flipped",
                format.name
            );
        }
        for cut in 0..bytes.len() {
            assert_eq!(
                (format.decode)(&bytes[..cut]),
                (format.expect)(Damage::Cut(cut)),
                "{}: cut to {cut} of {} bytes",
                format.name,
                bytes.len()
            );
        }
    }
}

/// What `load_run_journal` made of a run journal.
#[derive(Debug, PartialEq)]
enum RunVerdict {
    /// A structured `LoadGenError::Journal`.
    Refused,
    /// The complete checkpoints before the damage, the last of them, and
    /// the torn tail's offset (`None` for a clean, shorter journal).
    Salvaged {
        checkpoints: u64,
        last: Option<Box<Checkpoint>>,
        torn_at: Option<u64>,
    },
}

fn load_run(path: &Path, bytes: &[u8]) -> RunVerdict {
    std::fs::write(path, bytes).expect("write journal");
    match load_run_journal(path) {
        Ok(j) => RunVerdict::Salvaged {
            checkpoints: j.checkpoints,
            last: j.last.map(Box::new),
            torn_at: j.torn.map(|t| t.byte_offset),
        },
        Err(LoadGenError::Journal(_)) => RunVerdict::Refused,
        Err(other) => panic!("run journal load failed outside LoadGenError::Journal: {other}"),
    }
}

/// A DES journaled server run: a meta frame, then checkpoints that carry
/// completed records, outstanding queries and accuracy-log entries.
fn run_journal_bytes(path: &Path) -> Vec<u8> {
    let settings = TestSettings::server(1_000.0, Nanos::from_millis(15))
        .with_min_query_count(12)
        .with_min_duration(Nanos::from_micros(1))
        .with_accuracy_log_probability(0.5);
    let mut qsl = MemoryQsl::new("sweep", 16, 16);
    // Service slower than the arrival gap keeps queries outstanding at
    // every boundary.
    let mut sut = FixedLatencySut::new("sweep", Nanos::from_millis(3));
    let cfg = JournalConfig::new(path).with_checkpoint_every(4);
    run_journaled(&settings, &mut qsl, &mut sut, &Instruments::none(), &cfg)
        .expect("journaled run")
        .finished()
        .expect("no halt armed");
    std::fs::read(path).expect("read journal")
}

/// Frame k of an `MLPJ` file spans `starts[k]..starts[k + 1]`.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![MAGIC.len() + 2];
    while *starts.last().unwrap() < bytes.len() {
        let at = *starts.last().unwrap();
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        starts.push(at + FRAME_HEADER_LEN + len);
    }
    assert_eq!(*starts.last().unwrap(), bytes.len());
    starts
}

/// Replaces frame `k`'s payload and seals it with a matching length and
/// CRC, as an encoder bug (not a disk fault) would have written it.
fn reseal(bytes: &[u8], starts: &[usize], k: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..starts[k]].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[starts[k + 1]..]);
    out
}

#[test]
fn run_journal_damage_is_salvaged_or_refused() {
    let path = std::env::temp_dir().join(format!("mlpj_run_sweep_{}.mlpj", std::process::id()));
    let bytes = run_journal_bytes(&path);
    let starts = frame_starts(&bytes);
    let frames = starts.len() - 1;
    assert!(
        frames >= 4,
        "meta + at least 3 checkpoints, got {frames} frames"
    );
    // What a clean journal cut at each frame boundary loads as.
    let prefix: Vec<RunVerdict> = starts
        .iter()
        .map(|&s| load_run(&path, &bytes[..s]))
        .collect();
    assert_eq!(prefix[0], RunVerdict::Refused, "no meta frame");
    match &prefix[frames] {
        RunVerdict::Salvaged {
            checkpoints,
            last: Some(cp),
            torn_at: None,
        } => {
            assert_eq!(*checkpoints, frames as u64 - 1);
            assert!(!cp.recorder.accuracy_log.is_empty());
            assert_eq!(cp.recorder.records.len() as u64, cp.issued);
        }
        other => panic!("the intact journal must load: {other:?}"),
    }
    // Damage inside frame k (k >= 1) salvages the frames before it, as a
    // torn tail unless a cut lands on the boundary; damage in the header
    // or the meta frame leaves no run to salvage.
    let expect = |damage: Damage| -> RunVerdict {
        let at = match damage {
            Damage::Flip(at) | Damage::Cut(at) => at,
        };
        let Some(k) = starts.iter().rposition(|&s| s <= at).filter(|&k| k > 0) else {
            return RunVerdict::Refused;
        };
        let torn = match damage {
            Damage::Flip(_) => true,
            Damage::Cut(_) => starts[k] != at,
        };
        match &prefix[k] {
            RunVerdict::Salvaged {
                checkpoints, last, ..
            } => RunVerdict::Salvaged {
                checkpoints: *checkpoints,
                last: last.clone(),
                torn_at: torn.then_some(starts[k] as u64),
            },
            RunVerdict::Refused => panic!("a clean prefix with a meta frame must load"),
        }
    };
    for at in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut damaged = bytes.clone();
            damaged[at] ^= 1 << bit;
            assert_eq!(
                load_run(&path, &damaged),
                expect(Damage::Flip(at)),
                "bit {bit} of byte {at}"
            );
        }
    }
    for cut in 0..bytes.len() {
        assert_eq!(
            load_run(&path, &bytes[..cut]),
            expect(Damage::Cut(cut)),
            "cut to {cut}"
        );
    }

    // Re-sealed damage to one checkpoint payload reaches the binary
    // decoder: every cut is refused, and every bit flip either decodes to
    // other values or is refused — never a panic.
    let k = 2;
    let payload = &bytes[starts[k] + FRAME_HEADER_LEN..starts[k + 1]];
    for len in 0..payload.len() {
        let damaged = reseal(&bytes, &starts, k, &payload[..len]);
        assert_eq!(
            load_run(&path, &damaged),
            RunVerdict::Refused,
            "payload cut to {len}"
        );
    }
    let mut refused = 0;
    for at in 0..payload.len() {
        for bit in 0..8u8 {
            let mut mutated = payload.to_vec();
            mutated[at] ^= 1 << bit;
            let damaged = reseal(&bytes, &starts, k, &mutated);
            refused += usize::from(load_run(&path, &damaged) == RunVerdict::Refused);
        }
    }
    assert!(refused > 0, "no payload bit flip reached a decode error");
    std::fs::remove_file(&path).ok();
}
