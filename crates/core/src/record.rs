//! Latency bookkeeping during a run.

use crate::query::{Query, QueryCompletion, QueryId, ResponsePayload, SampleIndex};
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_trace::codec::{ByteReader, ByteWriter, DecodeError};
use mlperf_trace::{FromJson, JsonError, JsonValue, ToJson};
use std::collections::HashMap;

/// Per-query record retained for the detail log and metric computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRecord {
    /// Query id.
    pub id: QueryId,
    /// When the schedule wanted the query issued (latency reference point).
    pub scheduled_at: Nanos,
    /// When the LoadGen actually issued it.
    pub issued_at: Nanos,
    /// When the SUT finished it (`None` while outstanding).
    pub completed_at: Option<Nanos>,
    /// Number of samples in the query.
    pub sample_count: usize,
    /// Multistream only: intervals this query overran.
    pub skipped_intervals: u32,
    /// The query resolved as an error/drop: the SUT acknowledged it (so it
    /// is not outstanding) but produced no usable answer.
    pub error: bool,
}

impl QueryRecord {
    /// Latency from scheduled time to completion, for queries that produced
    /// a usable answer. Errored queries return `None`: they carry a
    /// completion timestamp (when the failure surfaced) but no service
    /// latency worth aggregating into [`LatencyStats`].
    ///
    /// [`LatencyStats`]: crate::results::LatencyStats
    pub fn latency(&self) -> Option<Nanos> {
        if self.error {
            return None;
        }
        self.completed_at
            .map(|c| c.saturating_sub(self.scheduled_at))
    }

    /// Latency as scored by the validity rules: errored queries count as
    /// infinitely late ([`Nanos::MAX`]), so they always land past any
    /// latency bound. Still-outstanding queries return `None` (they are
    /// caught separately by the incomplete-queries check).
    pub fn scored_latency(&self) -> Option<Nanos> {
        if self.error {
            return self.completed_at.map(|_| Nanos::MAX);
        }
        self.latency()
    }
}

/// A response payload kept for accuracy checking.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedResponse {
    /// The sample's response id.
    pub sample_id: u64,
    /// The data-set index the sample referred to.
    pub sample_index: SampleIndex,
    /// The SUT's output.
    pub payload: ResponsePayload,
}

impl ToJson for QueryRecord {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", self.id.to_json_value()),
            ("scheduled_at", self.scheduled_at.to_json_value()),
            ("issued_at", self.issued_at.to_json_value()),
            ("completed_at", self.completed_at.to_json_value()),
            ("sample_count", self.sample_count.to_json_value()),
            ("skipped_intervals", self.skipped_intervals.to_json_value()),
            ("error", self.error.to_json_value()),
        ])
    }
}

impl FromJson for QueryRecord {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(QueryRecord {
            id: value.field("id")?.as_u64()?,
            scheduled_at: Nanos::from_json_value(value.field("scheduled_at")?)?,
            issued_at: Nanos::from_json_value(value.field("issued_at")?)?,
            completed_at: Option::from_json_value(value.field("completed_at")?)?,
            sample_count: value.field("sample_count")?.as_usize()?,
            skipped_intervals: value.field("skipped_intervals")?.as_u32()?,
            // Logs written before the fault-injection extension lack the
            // field; every completion then was a success.
            error: match value.get("error") {
                Some(v) => v.as_bool()?,
                None => false,
            },
        })
    }
}

impl ToJson for LoggedResponse {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("sample_id", self.sample_id.to_json_value()),
            ("sample_index", self.sample_index.to_json_value()),
            ("payload", self.payload.to_json_value()),
        ])
    }
}

impl FromJson for LoggedResponse {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(LoggedResponse {
            sample_id: value.field("sample_id")?.as_u64()?,
            sample_index: value.field("sample_index")?.as_usize()?,
            payload: ResponsePayload::from_json_value(value.field("payload")?)?,
        })
    }
}

/// One still-outstanding query inside a [`RecorderSnapshot`]: enough to
/// both restore the recorder's bookkeeping and re-issue the query itself
/// after a resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutstandingEntry {
    /// The query id.
    pub id: QueryId,
    /// Position of the query's record in [`RecorderSnapshot::records`].
    pub pos: usize,
    /// Sample `(response id, data-set index)` pairs, in issue order.
    pub samples: Vec<(u64, SampleIndex)>,
}

/// A serializable image of a [`Recorder`]'s complete state.
///
/// This is what a run checkpoint carries, in the binary layout of
/// [`RecorderSnapshot::encode`]: restoring it with
/// [`Recorder::restore`] yields a recorder indistinguishable from the one
/// snapshotted, and [`RecorderSnapshot::outstanding_queries`] rebuilds the
/// in-flight [`Query`] values a resumed run must re-issue.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderSnapshot {
    /// Every query record, in issue order.
    pub records: Vec<QueryRecord>,
    /// Outstanding queries, sorted by id (canonical byte order).
    pub outstanding: Vec<OutstandingEntry>,
    /// The accuracy log accumulated so far.
    pub accuracy_log: Vec<LoggedResponse>,
    /// Samples completed successfully.
    pub samples_completed: u64,
    /// Latest completion timestamp seen.
    pub last_completion: Nanos,
    /// Queries resolved as errors.
    pub errored: u64,
}

impl RecorderSnapshot {
    /// Rebuilds the still-in-flight queries (id order) for re-issue after
    /// a resume. Journaled scenarios are single-tenant, so the tenant tag
    /// is always 0.
    pub fn outstanding_queries(&self) -> Vec<Query> {
        self.outstanding
            .iter()
            .map(|e| Query {
                id: e.id,
                samples: self
                    .samples_of(e)
                    .map(|(sid, sindex)| crate::query::QuerySample {
                        id: sid,
                        index: sindex,
                    })
                    .collect(),
                scheduled_at: self.records[e.pos].scheduled_at,
                tenant: 0,
            })
            .collect()
    }

    fn samples_of<'a>(
        &self,
        e: &'a OutstandingEntry,
    ) -> impl Iterator<Item = (u64, SampleIndex)> + 'a {
        e.samples.iter().copied()
    }

    /// Appends the binary encoding (all integers big-endian, counts `u32`):
    ///
    /// ```text
    /// n u32, n× record:      id u64, scheduled_at u64, issued_at u64,
    ///                        completed u8 [+ completed_at u64],
    ///                        sample_count u64, skipped_intervals u32, error u8
    /// n u32, n× outstanding: id u64, pos u64, m u32, m× (sample_id u64, index u64)
    /// n u32, n× accuracy:    sample_id u64, sample_index u64, payload
    /// samples_completed u64, last_completion u64, errored u64
    /// ```
    ///
    /// `payload` is [`ResponsePayload::encode`], the wire's layout.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_count(self.records.len());
        for r in &self.records {
            w.put_u64(r.id);
            w.put_u64(r.scheduled_at.as_nanos());
            w.put_u64(r.issued_at.as_nanos());
            put_opt_nanos(w, r.completed_at);
            w.put_u64(r.sample_count as u64);
            w.put_u32(r.skipped_intervals);
            w.put_bool(r.error);
        }
        w.put_count(self.outstanding.len());
        for e in &self.outstanding {
            w.put_u64(e.id);
            w.put_u64(e.pos as u64);
            w.put_count(e.samples.len());
            for &(sid, sindex) in &e.samples {
                w.put_u64(sid);
                w.put_u64(sindex as u64);
            }
        }
        w.put_count(self.accuracy_log.len());
        for a in &self.accuracy_log {
            w.put_u64(a.sample_id);
            w.put_u64(a.sample_index as u64);
            a.payload.encode(w);
        }
        w.put_u64(self.samples_completed);
        w.put_u64(self.last_completion.as_nanos());
        w.put_u64(self.errored);
    }

    /// Reads one [`encode`](RecorderSnapshot::encode)d snapshot. Every
    /// count is checked against the bytes that remain before anything is
    /// allocated.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for cut or malformed bytes.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        // Smallest encodings: a record with no completion, an outstanding
        // entry with no samples, an accuracy entry with an empty payload.
        const RECORD_LEN: usize = 8 + 8 + 8 + 1 + 8 + 4 + 1;
        const OUTSTANDING_LEN: usize = 8 + 8 + 4;
        const ACCURACY_LEN: usize = 8 + 8 + 1;
        let n = r.get_count(RECORD_LEN)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(QueryRecord {
                id: r.get_u64()?,
                scheduled_at: Nanos::from_nanos(r.get_u64()?),
                issued_at: Nanos::from_nanos(r.get_u64()?),
                completed_at: get_opt_nanos(r)?,
                sample_count: r.get_u64()? as usize,
                skipped_intervals: r.get_u32()?,
                error: r.get_bool()?,
            });
        }
        let n = r.get_count(OUTSTANDING_LEN)?;
        let mut outstanding = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u64()?;
            let pos = r.get_u64()? as usize;
            let m = r.get_count(16)?;
            let mut samples = Vec::with_capacity(m);
            for _ in 0..m {
                samples.push((r.get_u64()?, r.get_u64()? as usize));
            }
            outstanding.push(OutstandingEntry { id, pos, samples });
        }
        let n = r.get_count(ACCURACY_LEN)?;
        let mut accuracy_log = Vec::with_capacity(n);
        for _ in 0..n {
            accuracy_log.push(LoggedResponse {
                sample_id: r.get_u64()?,
                sample_index: r.get_u64()? as usize,
                payload: ResponsePayload::decode(r)?,
            });
        }
        Ok(RecorderSnapshot {
            records,
            outstanding,
            accuracy_log,
            samples_completed: r.get_u64()?,
            last_completion: Nanos::from_nanos(r.get_u64()?),
            errored: r.get_u64()?,
        })
    }
}

/// Appends an optional timestamp: a presence flag, then the value.
pub(crate) fn put_opt_nanos(w: &mut ByteWriter, v: Option<Nanos>) {
    w.put_bool(v.is_some());
    if let Some(v) = v {
        w.put_u64(v.as_nanos());
    }
}

/// Reads a [`put_opt_nanos`] timestamp.
pub(crate) fn get_opt_nanos(r: &mut ByteReader<'_>) -> Result<Option<Nanos>, DecodeError> {
    Ok(if r.get_bool()? {
        Some(Nanos::from_nanos(r.get_u64()?))
    } else {
        None
    })
}

/// Records issues and completions, enforcing the SUT protocol.
#[derive(Debug, Default)]
pub struct Recorder {
    records: Vec<QueryRecord>,
    // query id -> (position in records, sample ids and indices in order)
    outstanding: HashMap<QueryId, (usize, Vec<(u64, SampleIndex)>)>,
    accuracy_log: Vec<LoggedResponse>,
    samples_completed: u64,
    last_completion: Nanos,
    errored: u64,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an issued query.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::SutProtocol`] on duplicate query ids.
    pub fn record_issue(&mut self, query: &Query, issued_at: Nanos) -> Result<(), LoadGenError> {
        if self.outstanding.contains_key(&query.id) {
            return Err(LoadGenError::SutProtocol(format!(
                "query {} issued twice",
                query.id
            )));
        }
        let pos = self.records.len();
        self.records.push(QueryRecord {
            id: query.id,
            scheduled_at: query.scheduled_at,
            issued_at,
            completed_at: None,
            sample_count: query.sample_count(),
            skipped_intervals: 0,
            error: false,
        });
        self.outstanding.insert(
            query.id,
            (pos, query.samples.iter().map(|s| (s.id, s.index)).collect()),
        );
        Ok(())
    }

    /// Registers a completion, optionally logging payloads, and returns the
    /// query's scheduled-to-finished latency.
    ///
    /// `log_payload` decides per sample whether the payload lands in the
    /// accuracy log (always in accuracy mode, sampled in performance mode).
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::SutProtocol`] if the query is unknown or
    /// already complete, finishes before issue, or the per-sample response
    /// ids do not exactly echo the issued sample ids.
    pub fn record_completion<F: FnMut(u64) -> bool>(
        &mut self,
        completion: &QueryCompletion,
        mut log_payload: F,
    ) -> Result<Nanos, LoadGenError> {
        let (pos, samples) = self
            .outstanding
            .remove(&completion.query_id)
            .ok_or_else(|| {
                LoadGenError::SutProtocol(format!(
                    "completion for unknown or already-completed query {}",
                    completion.query_id
                ))
            })?;
        let record = &mut self.records[pos];
        if completion.finished_at < record.issued_at {
            return Err(LoadGenError::SutProtocol(format!(
                "query {} completed at {} before issue at {}",
                completion.query_id, completion.finished_at, record.issued_at
            )));
        }
        if completion.samples.len() != samples.len() {
            return Err(LoadGenError::SutProtocol(format!(
                "query {} returned {} sample completions, expected {}",
                completion.query_id,
                completion.samples.len(),
                samples.len()
            )));
        }
        for (sc, (sid, sindex)) in completion.samples.iter().zip(&samples) {
            if sc.sample_id != *sid {
                return Err(LoadGenError::SutProtocol(format!(
                    "query {} response sample id {} does not echo issued id {}",
                    completion.query_id, sc.sample_id, sid
                )));
            }
            // Errored completions echo sample ids but carry no usable
            // payload, so they never land in the accuracy log.
            if !completion.error && log_payload(*sid) {
                self.accuracy_log.push(LoggedResponse {
                    sample_id: *sid,
                    sample_index: *sindex,
                    payload: sc.payload.clone(),
                });
            }
        }
        record.completed_at = Some(completion.finished_at);
        record.error = completion.error;
        if completion.error {
            self.errored += 1;
        } else {
            self.samples_completed += samples.len() as u64;
        }
        self.last_completion = self.last_completion.max(completion.finished_at);
        Ok(completion.finished_at.saturating_sub(record.scheduled_at))
    }

    /// Attributes skipped intervals to a (completed) multistream query.
    ///
    /// Multistream query ids are their issue order, so the lookup is O(1)
    /// by position (a linear scan here turns a 270K-query overrun run into
    /// O(n²)); falls back to a scan if ids were assigned differently.
    pub fn record_skips(&mut self, query_id: QueryId, skips: u32) {
        let pos = query_id as usize;
        if let Some(r) = self.records.get_mut(pos).filter(|r| r.id == query_id) {
            r.skipped_intervals = skips;
            return;
        }
        if let Some(r) = self.records.iter_mut().find(|r| r.id == query_id) {
            r.skipped_intervals = skips;
        }
    }

    /// All query records in issue order.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// The accuracy log accumulated so far.
    pub fn accuracy_log(&self) -> &[LoggedResponse] {
        &self.accuracy_log
    }

    /// Consumes the recorder, returning records and accuracy log.
    pub fn into_parts(self) -> (Vec<QueryRecord>, Vec<LoggedResponse>) {
        (self.records, self.accuracy_log)
    }

    /// Number of queries issued.
    pub fn issued(&self) -> u64 {
        self.records.len() as u64
    }

    /// Number of queries still outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Total samples completed successfully (errored queries excluded).
    pub fn samples_completed(&self) -> u64 {
        self.samples_completed
    }

    /// Number of queries that resolved as errors.
    pub fn errored(&self) -> u64 {
        self.errored
    }

    /// Latest completion timestamp seen.
    pub fn last_completion(&self) -> Nanos {
        self.last_completion
    }

    /// Captures the recorder's complete state for a checkpoint.
    pub fn snapshot(&self) -> RecorderSnapshot {
        self.snapshot_suffix(0, 0)
    }

    /// Captures the recorder's state past the given journal high-water
    /// marks: the same shape as [`snapshot`](Recorder::snapshot), but
    /// `records` starts at `records_from` and `accuracy_log` at
    /// `accuracy_from`, so a delta checkpoint clones only what the last
    /// frame has not already made durable. Outstanding entries keep their
    /// absolute positions. `records_from` must be a stable prefix — no
    /// outstanding entry below it — which is exactly what
    /// `RunJournal::flushed_marks` hands out.
    pub fn snapshot_suffix(&self, records_from: usize, accuracy_from: usize) -> RecorderSnapshot {
        let mut outstanding: Vec<OutstandingEntry> = self
            .outstanding
            .iter()
            .map(|(id, (pos, samples))| OutstandingEntry {
                id: *id,
                pos: *pos,
                samples: samples.clone(),
            })
            .collect();
        outstanding.sort_by_key(|e| e.id);
        RecorderSnapshot {
            records: self.records[records_from.min(self.records.len())..].to_vec(),
            outstanding,
            accuracy_log: self.accuracy_log[accuracy_from.min(self.accuracy_log.len())..].to_vec(),
            samples_completed: self.samples_completed,
            last_completion: self.last_completion,
            errored: self.errored,
        }
    }

    /// Rebuilds a recorder from a checkpoint snapshot. The result accepts
    /// completions for the snapshot's outstanding queries exactly as the
    /// original would have.
    pub fn restore(snapshot: RecorderSnapshot) -> Self {
        Self {
            records: snapshot.records,
            outstanding: snapshot
                .outstanding
                .into_iter()
                .map(|e| (e.id, (e.pos, e.samples)))
                .collect(),
            accuracy_log: snapshot.accuracy_log,
            samples_completed: snapshot.samples_completed,
            last_completion: snapshot.last_completion,
            errored: snapshot.errored,
        }
    }

    /// Completed-query latencies (scheduled → finished).
    pub fn latencies(&self) -> Vec<Nanos> {
        self.records
            .iter()
            .filter_map(QueryRecord::latency)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QuerySample, SampleCompletion};

    fn query(id: u64) -> Query {
        Query {
            id,
            samples: vec![QuerySample {
                id: id * 10,
                index: 3,
            }],
            scheduled_at: Nanos::from_micros(5),
            tenant: 0,
        }
    }

    fn completion(id: u64, at: Nanos) -> QueryCompletion {
        QueryCompletion::ok(
            id,
            at,
            vec![SampleCompletion {
                sample_id: id * 10,
                payload: ResponsePayload::Class(1),
            }],
        )
    }

    #[test]
    fn issue_complete_latency() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::from_micros(5)).unwrap();
        let latency = r
            .record_completion(&completion(1, Nanos::from_micros(25)), |_| false)
            .unwrap();
        assert_eq!(latency, Nanos::from_micros(20));
        assert_eq!(r.latencies(), vec![Nanos::from_micros(20)]);
        assert_eq!(r.samples_completed(), 1);
        assert_eq!(r.outstanding(), 0);
    }

    #[test]
    fn duplicate_issue_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        assert!(r.record_issue(&query(1), Nanos::ZERO).is_err());
    }

    #[test]
    fn unknown_completion_rejected() {
        let mut r = Recorder::new();
        assert!(r
            .record_completion(&completion(9, Nanos::SECOND), |_| false)
            .is_err());
    }

    #[test]
    fn double_completion_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        r.record_completion(&completion(1, Nanos::SECOND), |_| false)
            .unwrap();
        assert!(r
            .record_completion(&completion(1, Nanos::SECOND), |_| false)
            .is_err());
    }

    #[test]
    fn completion_before_issue_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::from_micros(100)).unwrap();
        assert!(r
            .record_completion(&completion(1, Nanos::from_micros(50)), |_| false)
            .is_err());
    }

    #[test]
    fn wrong_sample_id_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        let mut c = completion(1, Nanos::SECOND);
        c.samples[0].sample_id = 999;
        assert!(r.record_completion(&c, |_| false).is_err());
    }

    #[test]
    fn missing_samples_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        let mut c = completion(1, Nanos::SECOND);
        c.samples.clear();
        assert!(r.record_completion(&c, |_| false).is_err());
    }

    #[test]
    fn accuracy_log_respects_sampler() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        r.record_issue(&query(2), Nanos::ZERO).unwrap();
        r.record_completion(&completion(1, Nanos::SECOND), |_| true)
            .unwrap();
        r.record_completion(&completion(2, Nanos::SECOND), |_| false)
            .unwrap();
        assert_eq!(r.accuracy_log().len(), 1);
        assert_eq!(r.accuracy_log()[0].sample_index, 3);
        assert_eq!(r.accuracy_log()[0].payload, ResponsePayload::Class(1));
    }

    #[test]
    fn snapshot_restore_roundtrips_through_bytes() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::from_micros(5)).unwrap();
        r.record_issue(&query(2), Nanos::from_micros(7)).unwrap();
        r.record_issue(&query(3), Nanos::from_micros(9)).unwrap();
        r.record_completion(&completion(2, Nanos::from_micros(30)), |_| true)
            .unwrap();
        let snap = r.snapshot();
        assert_eq!(snap.outstanding.len(), 2);
        assert_eq!(snap.outstanding[0].id, 1);
        let mut w = ByteWriter::new();
        snap.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = RecorderSnapshot::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, snap);

        // The restored recorder behaves exactly like the original: known
        // outstanding queries complete, completed ones reject.
        let mut restored = Recorder::restore(back);
        assert_eq!(restored.issued(), 3);
        assert_eq!(restored.outstanding(), 2);
        assert_eq!(restored.samples_completed(), 1);
        assert!(restored
            .record_completion(&completion(2, Nanos::SECOND), |_| false)
            .is_err());
        restored
            .record_completion(&completion(1, Nanos::from_micros(40)), |_| false)
            .unwrap();
        assert_eq!(restored.outstanding(), 1);
    }

    #[test]
    fn snapshot_rebuilds_outstanding_queries() {
        let mut r = Recorder::new();
        r.record_issue(&query(4), Nanos::from_micros(5)).unwrap();
        let qs = r.snapshot().outstanding_queries();
        assert_eq!(qs.len(), 1);
        assert_eq!(qs[0].id, 4);
        assert_eq!(qs[0].scheduled_at, Nanos::from_micros(5));
        assert_eq!(qs[0].samples, query(4).samples);
    }

    #[test]
    fn skips_attributed() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        r.record_skips(1, 3);
        assert_eq!(r.records()[0].skipped_intervals, 3);
    }
}
