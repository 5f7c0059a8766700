//! Run checkpoints and the typed run journal.
//!
//! The durable layer under crash-safe runs. `mlperf_trace::journal` owns
//! the *bytes* (the `MLPJ` append-only WAL: CRC-framed records, batched
//! `fsync`, torn-tail salvage); this module owns the *meaning*: what a
//! LoadGen run writes into that WAL so a fresh process can pick the run
//! back up after a `kill -9`.
//!
//! A run journal holds one [`RunMeta`] record (frame 0) followed by
//! [`Checkpoint`] records at deterministic issued-query boundaries. A
//! checkpoint is a complete image of the issue loop at a boundary:
//!
//! * the scenario cursor — queries issued, next sample id, the pending
//!   arrival, elapsed run clock;
//! * every RNG mid-stream state (QSL sampling, Poisson schedule, accuracy
//!   sampling), so the resumed run draws the *same* remaining schedule and
//!   sample indices the uninterrupted run would have;
//! * the recorder snapshot — records, outstanding queries (re-issuable),
//!   accuracy log, counters;
//! * the wire session epoch in force, so a resumed client reconnects with
//!   an epoch bump and the daemon's exactly-once replay machinery engages.
//!
//! Resume semantics are **roll back and re-execute**: the run restarts
//! from the last complete checkpoint; queries issued after it are re-drawn
//! (identically, from the checkpointed RNG states) and re-issued; queries
//! outstanding *at* the checkpoint are re-issued without re-recording.
//! Against a journaled wire daemon, re-issued known queries are answered
//! from the daemon's own journal, keeping execution effects exactly-once.

use crate::config::TestSettings;
use crate::record::RecorderSnapshot;
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_trace::codec::fnv1a64;
use mlperf_trace::journal::{read_journal, JournalWriter, TornTail};
use mlperf_trace::{FromJson, JsonError, JsonValue, ToJson};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

/// Digest of everything about a run's configuration that resume
/// correctness depends on. A journal may only resume a run whose settings
/// and QSL produce the same digest — anything else would silently splice
/// two different schedules together.
pub fn settings_digest(settings: &TestSettings, qsl_size: u64) -> u64 {
    let text = format!(
        "{};{:?};{};{};{};{};{};{};{};{};{}",
        settings.scenario,
        settings.mode,
        settings.seeds.qsl_seed,
        settings.seeds.schedule_seed,
        settings.seeds.accuracy_seed,
        settings.min_query_count,
        settings.min_duration.as_nanos(),
        settings.server_target_qps.to_bits(),
        settings.samples_per_query,
        settings.offline_min_sample_count,
        qsl_size,
    );
    fnv1a64(text.as_bytes())
}

/// Frame 0 of every run journal: what run this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The scenario, as its display string.
    pub scenario: String,
    /// [`settings_digest`] of the run's settings + QSL size.
    pub digest: u64,
    /// Performance-sample population the schedule draws from.
    pub qsl_size: u64,
}

impl ToJson for RunMeta {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("kind", "meta".to_json_value()),
            ("scenario", self.scenario.to_json_value()),
            ("digest", self.digest.to_json_value()),
            ("qsl_size", self.qsl_size.to_json_value()),
        ])
    }
}

impl FromJson for RunMeta {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(RunMeta {
            scenario: value.field("scenario")?.as_str()?.to_string(),
            digest: value.field("digest")?.as_u64()?,
            qsl_size: value.field("qsl_size")?.as_u64()?,
        })
    }
}

fn rng_state_json(s: &[u64; 4]) -> JsonValue {
    JsonValue::Array(s.iter().map(|w| w.to_json_value()).collect())
}

fn rng_state_from(value: &JsonValue) -> Result<[u64; 4], JsonError> {
    let words = value.as_array()?;
    if words.len() != 4 {
        return Err(JsonError::new(format!(
            "RNG state needs 4 words, got {}",
            words.len()
        )));
    }
    Ok([
        words[0].as_u64()?,
        words[1].as_u64()?,
        words[2].as_u64()?,
        words[3].as_u64()?,
    ])
}

/// A complete image of the issue loop at one issued-query boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Checkpoint index (0-based, in journal order).
    pub seq: u64,
    /// Queries issued so far.
    pub issued: u64,
    /// Next sample (response) id to assign.
    pub next_sample_id: u64,
    /// Elapsed run clock at capture (virtual time in the DES; wall time
    /// since origin in realtime runs).
    pub wall: Nanos,
    /// The already-drawn arrival not yet issued, if any (server scenario).
    pub pending_arrival: Option<Nanos>,
    /// QSL sampling RNG state.
    pub qsl_rng: [u64; 4],
    /// Poisson schedule RNG state (server scenario; zeroes otherwise).
    pub sched_rng: [u64; 4],
    /// The Poisson process clock, as `f64` bits (server scenario).
    pub sched_now_bits: u64,
    /// Accuracy-sampling RNG state.
    pub acc_rng: [u64; 4],
    /// Wire session epoch in force at capture; 0 for purely local runs.
    pub epoch: u32,
    /// The recorder: records, outstanding queries, accuracy log, counters.
    pub recorder: RecorderSnapshot,
}

impl ToJson for Checkpoint {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("kind", "checkpoint".to_json_value()),
            ("seq", self.seq.to_json_value()),
            ("issued", self.issued.to_json_value()),
            ("next_sample_id", self.next_sample_id.to_json_value()),
            ("wall", self.wall.to_json_value()),
            ("pending_arrival", self.pending_arrival.to_json_value()),
            ("qsl_rng", rng_state_json(&self.qsl_rng)),
            ("sched_rng", rng_state_json(&self.sched_rng)),
            ("sched_now_bits", self.sched_now_bits.to_json_value()),
            ("acc_rng", rng_state_json(&self.acc_rng)),
            ("epoch", self.epoch.to_json_value()),
            ("recorder", self.recorder.to_json_value()),
        ])
    }
}

impl FromJson for Checkpoint {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(Checkpoint {
            seq: value.field("seq")?.as_u64()?,
            issued: value.field("issued")?.as_u64()?,
            next_sample_id: value.field("next_sample_id")?.as_u64()?,
            wall: Nanos::from_json_value(value.field("wall")?)?,
            pending_arrival: Option::from_json_value(value.field("pending_arrival")?)?,
            qsl_rng: rng_state_from(value.field("qsl_rng")?)?,
            sched_rng: rng_state_from(value.field("sched_rng")?)?,
            sched_now_bits: value.field("sched_now_bits")?.as_u64()?,
            acc_rng: rng_state_from(value.field("acc_rng")?)?,
            epoch: value.field("epoch")?.as_u32()?,
            recorder: RecorderSnapshot::from_json_value(value.field("recorder")?)?,
        })
    }
}

/// How a journaled run checkpoints, and the chaos hooks that halt it.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Where the journal lives.
    pub path: PathBuf,
    /// Checkpoint every this many issued queries.
    pub checkpoint_every: u64,
    /// `fsync` batching window for journal appends (0 = every append).
    pub fsync_every: u32,
    /// Chaos hook: stop the run cleanly right after writing checkpoint
    /// with this `seq`, as if the process died at that boundary.
    pub halt_after: Option<u64>,
    /// Chaos hook: make the `halt_after` checkpoint a *torn* write — only
    /// a prefix of the frame lands on disk, exactly what a kill during the
    /// append leaves behind.
    pub torn_halt: bool,
    /// Live wire-session epoch, mirrored by the remote SUT client; each
    /// checkpoint captures its current value so a resumed run reconnects
    /// one epoch up. `None` for purely local runs.
    pub epoch_source: Option<Arc<AtomicU32>>,
}

impl JournalConfig {
    /// A journal at `path` with the defaults: checkpoint every 16 queries,
    /// `fsync` on every append, no chaos hooks.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            checkpoint_every: 16,
            fsync_every: 0,
            halt_after: None,
            torn_halt: false,
            epoch_source: None,
        }
    }

    /// Overrides the checkpoint interval (issued queries per checkpoint).
    pub fn with_checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }

    /// Overrides the `fsync` batching window.
    pub fn with_fsync_every(mut self, n: u32) -> Self {
        self.fsync_every = n;
        self
    }

    /// Arms the clean-halt chaos hook at checkpoint `seq`.
    pub fn with_halt_after(mut self, seq: u64) -> Self {
        self.halt_after = Some(seq);
        self
    }

    /// Makes the armed halt a torn checkpoint write.
    pub fn with_torn_halt(mut self) -> Self {
        self.torn_halt = true;
        self
    }

    /// Attaches the wire client's live epoch mirror.
    pub fn with_epoch_source(mut self, source: Arc<AtomicU32>) -> Self {
        self.epoch_source = Some(source);
        self
    }
}

/// Everything a journal load recovers.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Frame 0.
    pub meta: RunMeta,
    /// The last complete checkpoint, if any was written.
    pub last: Option<Checkpoint>,
    /// Complete checkpoints on disk.
    pub checkpoints: u64,
    /// The torn tail, when the file ends in a partial frame (the resumed
    /// run rolled back to `last`, dropping the torn write).
    pub torn: Option<TornTail>,
}

fn journal_err(context: &str, e: impl std::fmt::Display) -> LoadGenError {
    LoadGenError::Journal(format!("{context}: {e}"))
}

/// Reads and validates a run journal without opening it for writing.
///
/// # Errors
///
/// Returns [`LoadGenError::Journal`] when the file is unreadable, is not a
/// run journal, or its frames do not decode.
pub fn load_run_journal(path: impl AsRef<Path>) -> Result<LoadedJournal, LoadGenError> {
    let path = path.as_ref();
    let scan = read_journal(path).map_err(|e| journal_err(&path.display().to_string(), e))?;
    parse_scan(path, scan.records, scan.torn)
}

fn parse_scan(
    path: &Path,
    records: Vec<Vec<u8>>,
    torn: Option<TornTail>,
) -> Result<LoadedJournal, LoadGenError> {
    let ctx = path.display().to_string();
    let mut frames = records.into_iter();
    let meta_bytes = frames
        .next()
        .ok_or_else(|| journal_err(&ctx, "journal has no meta frame"))?;
    let meta_text =
        String::from_utf8(meta_bytes).map_err(|e| journal_err(&ctx, format!("meta frame: {e}")))?;
    let meta = RunMeta::from_json_str(&meta_text).map_err(|e| journal_err(&ctx, e))?;
    let mut last: Option<Checkpoint> = None;
    let mut checkpoints = 0u64;
    // Checkpoint frames are deltas: each carries only the records past the
    // previous frame's *stable prefix* — records below the lowest
    // outstanding position, which can never be rewritten — plus the
    // accuracy entries appended since (so the journal grows with the run
    // plus the outstanding window, not quadratically). Fold the history
    // back together as we pass it: roll the mutable suffix back to the
    // prior stable mark, then splice in this frame's copy.
    let mut folded_records = Vec::new();
    let mut folded_accuracy = Vec::new();
    let mut stable = 0usize;
    for frame in frames {
        let text = String::from_utf8(frame)
            .map_err(|e| journal_err(&ctx, format!("checkpoint frame: {e}")))?;
        let mut cp = Checkpoint::from_json_str(&text).map_err(|e| journal_err(&ctx, e))?;
        folded_records.truncate(stable);
        folded_records.append(&mut cp.recorder.records);
        folded_accuracy.append(&mut cp.recorder.accuracy_log);
        stable = stable_prefix(&cp.recorder.outstanding, folded_records.len());
        checkpoints += 1;
        last = Some(cp);
    }
    if let Some(cp) = last.as_mut() {
        cp.recorder.records = folded_records;
        cp.recorder.accuracy_log = folded_accuracy;
    }
    Ok(LoadedJournal {
        meta,
        last,
        checkpoints,
        torn,
    })
}

/// The index below which a snapshot's records can never change again:
/// everything before the lowest outstanding position is completed and
/// immutable, while records at or past it may still be rewritten in place
/// when their query completes. Delta frames must re-send that mutable
/// suffix.
fn stable_prefix(outstanding: &[crate::record::OutstandingEntry], records: usize) -> usize {
    outstanding.iter().map(|e| e.pos).min().unwrap_or(records)
}

/// The typed writer a journaled run appends through.
#[derive(Debug)]
pub struct RunJournal {
    writer: JournalWriter,
    /// Complete checkpoints written (including any recovered on reopen).
    pub checkpoints: u64,
    /// Records durably journaled *and immutable* (the stable prefix of
    /// the last frame written); the next frame carries only records past
    /// this mark. Callers read the mark back via
    /// [`flushed_marks`](RunJournal::flushed_marks) and snapshot only the
    /// suffix; [`load_run_journal`] folds the deltas back together.
    records_flushed: usize,
    /// Same high-water mark for the accuracy log.
    accuracy_flushed: usize,
}

impl RunJournal {
    /// Creates a fresh journal for a run: header plus the meta frame,
    /// synced to disk before any query issues.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn create(cfg: &JournalConfig, meta: &RunMeta) -> Result<Self, LoadGenError> {
        let ctx = cfg.path.display().to_string();
        let mut writer =
            JournalWriter::create(&cfg.path, cfg.fsync_every).map_err(|e| journal_err(&ctx, e))?;
        writer
            .append(meta.to_json_string().as_bytes())
            .and_then(|()| writer.sync())
            .map_err(|e| journal_err(&ctx, e))?;
        Ok(Self {
            writer,
            checkpoints: 0,
            records_flushed: 0,
            accuracy_flushed: 0,
        })
    }

    /// Reopens an existing journal for resumption: truncates any torn
    /// tail, parses the history, and returns the writer positioned after
    /// the last complete frame alongside what was recovered.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] when the file is unreadable or
    /// its frames do not decode.
    pub fn open_resume(cfg: &JournalConfig) -> Result<(Self, LoadedJournal), LoadGenError> {
        let ctx = cfg.path.display().to_string();
        let (writer, scan) = JournalWriter::open_append(&cfg.path, cfg.fsync_every)
            .map_err(|e| journal_err(&ctx, e))?;
        let loaded = parse_scan(&cfg.path, scan.records, scan.torn)?;
        let (records_flushed, accuracy_flushed) = loaded.last.as_ref().map_or((0, 0), |cp| {
            (
                stable_prefix(&cp.recorder.outstanding, cp.recorder.records.len()),
                cp.recorder.accuracy_log.len(),
            )
        });
        Ok((
            Self {
                writer,
                checkpoints: loaded.checkpoints,
                records_flushed,
                accuracy_flushed,
            },
            loaded,
        ))
    }

    /// Creates a fresh journal or reopens one for resumption, validating
    /// the meta digest on resume. Returns the journal plus the checkpoint
    /// to restore from (`None` on a fresh run, or when a resumed journal
    /// holds no complete checkpoint yet — the run then restarts from the
    /// beginning, which is exactly roll-back-and-re-execute to seq -1).
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure or when a resumed
    /// journal's digest does not match `meta` (a different run's journal).
    pub fn attach(
        cfg: &JournalConfig,
        meta: &RunMeta,
        resume: bool,
    ) -> Result<(Self, Option<Checkpoint>), LoadGenError> {
        if !resume {
            return Ok((Self::create(cfg, meta)?, None));
        }
        let (journal, history) = Self::open_resume(cfg)?;
        if history.meta.digest != meta.digest {
            return Err(LoadGenError::Journal(format!(
                "journal {} was written by a different run (digest {:016x}, expected {:016x})",
                cfg.path.display(),
                history.meta.digest,
                meta.digest
            )));
        }
        Ok((journal, history.last))
    }

    /// Appends one checkpoint, honouring the config's armed chaos halt:
    /// returns `true` when this boundary is `cfg.halt_after` (after
    /// writing the frame cleanly — or tearing it, under `torn_halt` —
    /// and syncing), meaning the run must stop here as a killed process
    /// would.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn append_checkpoint(
        &mut self,
        cfg: &JournalConfig,
        cp: &Checkpoint,
    ) -> Result<bool, LoadGenError> {
        if cfg.halt_after == Some(cp.seq) {
            if cfg.torn_halt {
                self.checkpoint_torn(cp)?;
            } else {
                self.checkpoint(cp)?;
                self.sync()?;
            }
            return Ok(true);
        }
        self.checkpoint(cp)?;
        Ok(false)
    }

    /// The `(records, accuracy)` high-water marks already journaled by
    /// earlier frames. Callers capture the next checkpoint's recorder
    /// with [`crate::record::Recorder::snapshot_suffix`] from exactly
    /// these marks, so building and serializing a checkpoint costs the
    /// delta — the window since the last frame plus the still-mutable
    /// outstanding suffix — not the whole run so far.
    pub fn flushed_marks(&self) -> (usize, usize) {
        (self.records_flushed, self.accuracy_flushed)
    }

    /// Appends one checkpoint frame. `cp.recorder` must be a suffix
    /// snapshot taken from this journal's [`flushed_marks`]; the frame is
    /// written as-is and [`load_run_journal`] folds the deltas back into
    /// a complete image on reload.
    ///
    /// [`flushed_marks`]: RunJournal::flushed_marks
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn checkpoint(&mut self, cp: &Checkpoint) -> Result<(), LoadGenError> {
        let payload = cp.to_json_string();
        self.writer
            .append(payload.as_bytes())
            .map_err(|e| journal_err("checkpoint append", e))?;
        let total = self.records_flushed + cp.recorder.records.len();
        self.records_flushed = stable_prefix(&cp.recorder.outstanding, total);
        self.accuracy_flushed += cp.recorder.accuracy_log.len();
        self.checkpoints += 1;
        Ok(())
    }

    /// The torn-halt chaos hook: writes only a prefix of the checkpoint
    /// frame — byte-for-byte what a kill mid-append leaves — and syncs it.
    /// Takes the same suffix snapshot as [`checkpoint`].
    ///
    /// [`checkpoint`]: RunJournal::checkpoint
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn checkpoint_torn(&mut self, cp: &Checkpoint) -> Result<(), LoadGenError> {
        let payload = cp.to_json_string();
        self.writer
            .append_torn(payload.as_bytes(), payload.len() / 2)
            .map_err(|e| journal_err("torn checkpoint append", e))
    }

    /// The verdict of a run whose armed halt just fired. A torn halt's
    /// frame is not counted (it is not a complete checkpoint), so its
    /// boundary seq is `checkpoints` itself.
    pub(crate) fn halted(&self, cfg: &JournalConfig) -> JournaledRun {
        JournaledRun::Halted {
            checkpoint: self
                .checkpoints
                .saturating_sub(if cfg.torn_halt { 0 } else { 1 }),
        }
    }

    /// Forces all appended frames onto disk.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn sync(&mut self) -> Result<(), LoadGenError> {
        self.writer
            .sync()
            .map_err(|e| journal_err("journal sync", e))
    }
}

/// What a journaled run returned: either it finished, or a chaos hook
/// halted it at a checkpoint boundary (simulating process death there).
#[derive(Debug)]
pub enum JournaledRun {
    /// The run completed; the outcome is scored as usual.
    Finished(Box<crate::des::RunOutcome>),
    /// The armed halt fired right after the named checkpoint was written.
    Halted {
        /// `seq` of the checkpoint the run halted at.
        checkpoint: u64,
    },
}

impl JournaledRun {
    /// The outcome, when the run finished.
    pub fn finished(self) -> Option<crate::des::RunOutcome> {
        match self {
            JournaledRun::Finished(outcome) => Some(*outcome),
            JournaledRun::Halted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mlperf_runjournal_{}_{name}.mlpj",
            std::process::id()
        ));
        p
    }

    fn sample_checkpoint(seq: u64) -> Checkpoint {
        Checkpoint {
            seq,
            issued: 32 * (seq + 1),
            next_sample_id: 64,
            wall: Nanos::from_millis(5),
            pending_arrival: Some(Nanos::from_millis(6)),
            qsl_rng: [1, 2, 3, 4],
            sched_rng: [5, 6, 7, 8],
            sched_now_bits: 0.25f64.to_bits(),
            acc_rng: [9, 10, 11, 12],
            epoch: 2,
            recorder: Recorder::new().snapshot(),
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let cp = sample_checkpoint(3);
        let back = Checkpoint::from_json_str(&cp.to_json_string()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn create_checkpoint_load_roundtrip() {
        let path = tmp("roundtrip");
        let cfg = JournalConfig::new(&path);
        let meta = RunMeta {
            scenario: "server".into(),
            digest: 0xDEAD_BEEF,
            qsl_size: 64,
        };
        let mut j = RunJournal::create(&cfg, &meta).unwrap();
        for seq in 0..3 {
            j.checkpoint(&sample_checkpoint(seq)).unwrap();
        }
        j.sync().unwrap();
        let loaded = load_run_journal(&path).unwrap();
        assert_eq!(loaded.meta, meta);
        assert_eq!(loaded.checkpoints, 3);
        assert_eq!(loaded.last.unwrap().seq, 2);
        assert!(loaded.torn.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_checkpoint_rolls_back_to_previous() {
        let path = tmp("torn");
        let cfg = JournalConfig::new(&path);
        let meta = RunMeta {
            scenario: "server".into(),
            digest: 1,
            qsl_size: 8,
        };
        let mut j = RunJournal::create(&cfg, &meta).unwrap();
        j.checkpoint(&sample_checkpoint(0)).unwrap();
        j.checkpoint_torn(&sample_checkpoint(1)).unwrap();
        let loaded = load_run_journal(&path).unwrap();
        assert_eq!(loaded.checkpoints, 1);
        assert_eq!(loaded.last.as_ref().unwrap().seq, 0);
        assert!(loaded.torn.is_some());
        // Reopen-for-resume truncates the tear and continues cleanly.
        let (mut j, _) = RunJournal::open_resume(&cfg).unwrap();
        assert_eq!(j.checkpoints, 1);
        j.checkpoint(&sample_checkpoint(1)).unwrap();
        j.sync().unwrap();
        let loaded = load_run_journal(&path).unwrap();
        assert_eq!(loaded.checkpoints, 2);
        assert!(loaded.torn.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_distinguishes_runs() {
        let a = TestSettings::server(100.0, Nanos::from_millis(10)).with_min_query_count(40);
        let b = a.clone().with_min_query_count(41);
        assert_ne!(settings_digest(&a, 64), settings_digest(&b, 64));
        assert_ne!(settings_digest(&a, 64), settings_digest(&a, 65));
        assert_eq!(settings_digest(&a, 64), settings_digest(&a.clone(), 64));
    }
}
