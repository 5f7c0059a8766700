//! Cost of crash-safety: a journaled DES run vs the plain runner.
//!
//! `run_journaled` adds a durable write-ahead journal to the simulated
//! server scenario — one binary checkpoint frame (scenario cursor, RNG
//! states, recorder delta: each record encoded exactly once across the
//! run) per `checkpoint_every` issued queries, CRC-framed and
//! fsync-batched. Two costs matter and they are very different: the CPU
//! tax of snapshotting and serializing checkpoints (steady-state, should
//! be small), and the wall-clock price of `fsync` durability (dominated
//! by the storage stack — a few ms per sync — and amortized by the
//! batching window). The rows below separate them: the gated number is
//! the serialization-only overhead; the fsync rows price durability.

use mlperf_bench::runner::Bench;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::{run_instrumented, run_journaled};
use mlperf_loadgen::journal::JournalConfig;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Instruments;
use std::hint::black_box;

fn main() {
    let bench = Bench::from_env();
    let settings = TestSettings::server(10_000.0, Nanos::from_millis(10))
        .with_min_query_count(5_000)
        .with_min_duration(Nanos::from_micros(1));
    let dir = std::env::temp_dir().join(format!("mlpj-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    let baseline = bench.bench("run_server_plain", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let instruments = Instruments::none();
        black_box(run_instrumented(&settings, &mut qsl, &mut sut, &instruments).expect("runs"))
    });

    // Serialization-only: the fsync batching window never fills, so this
    // row is the pure CPU tax of checkpointing every 64 queries.
    let serialized = bench.bench("run_server_journaled_no_fsync", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let instruments = Instruments::none();
        let cfg = JournalConfig::new(dir.join("nofsync.mlpj"))
            .with_checkpoint_every(64)
            .with_fsync_every(u32::MAX);
        black_box(run_journaled(&settings, &mut qsl, &mut sut, &instruments, &cfg).expect("runs"))
    });

    // Durability pricing: fsync per checkpoint (the default), and batched
    // by 8 (the daemon's completion-journal window).
    bench.bench("run_server_journaled_fsync_each", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let instruments = Instruments::none();
        let cfg = JournalConfig::new(dir.join("each.mlpj")).with_checkpoint_every(64);
        black_box(run_journaled(&settings, &mut qsl, &mut sut, &instruments, &cfg).expect("runs"))
    });

    bench.bench("run_server_journaled_fsync_batch_8", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let instruments = Instruments::none();
        let cfg = JournalConfig::new(dir.join("batch8.mlpj"))
            .with_checkpoint_every(64)
            .with_fsync_every(8);
        black_box(run_journaled(&settings, &mut qsl, &mut sut, &instruments, &cfg).expect("runs"))
    });

    bench.finish();
    let _ = std::fs::remove_dir_all(&dir);

    if let (Some(base), Some(serialized)) = (baseline, serialized) {
        let pct = (serialized as f64 / base.max(1) as f64 - 1.0) * 100.0;
        // The percentage reads large because the plain DES baseline is
        // nearly free (~600 ns/query with no real SUT latency); the
        // absolute per-query cost — one binary delta-frame encode of each
        // record, once — is the number a real deployment pays. The ci.sh
        // allowance is about 3x the binary-frame figure (~+100%).
        let per_query = serialized.saturating_sub(base) as f64 / 5_000.0;
        println!(
            "journal serialization overhead vs plain run: {pct:+.1}% ({per_query:.0} ns/query)"
        );
        // Warn-only gate: with MLPERF_JOURNAL_OVERHEAD_MAX_PCT set, an
        // overshoot is called out loudly but never fails the run — the
        // fsync-free number still moves with filesystem cache weather.
        if let Some(max_pct) = std::env::var("MLPERF_JOURNAL_OVERHEAD_MAX_PCT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            if pct > max_pct {
                eprintln!(
                    "journal overhead gate (warn-only): serialization overhead \
                     {pct:+.1}% exceeds allowance {max_pct:.1}%"
                );
            } else {
                println!("journal overhead gate: within {max_pct:.1}% allowance");
            }
        }
    }
}
