//! Queries, samples, and responses.

use crate::time::Nanos;
use mlperf_trace::codec::{ByteReader, ByteWriter, DecodeError};
use mlperf_trace::{FromJson, JsonError, JsonValue, ToJson};

/// Identifier of an issued query, unique within one run.
pub type QueryId = u64;

/// Index of a sample within the data set.
pub type SampleIndex = usize;

/// One sample reference inside a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuerySample {
    /// Response-tracking id, unique per sample per run.
    pub id: u64,
    /// Which data-set sample to run inference on.
    pub index: SampleIndex,
}

/// A query: "a request for inference on one or more samples" (Section IV-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The query id.
    pub id: QueryId,
    /// The samples composing the query. Contiguous in memory by rule for
    /// multistream/offline; here that is represented by the samples sharing
    /// one `Vec`.
    pub samples: Vec<QuerySample>,
    /// When the LoadGen scheduled the query (the latency reference point).
    pub scheduled_at: Nanos,
    /// Which model/stream this query belongs to — 0 for every standard
    /// scenario; the multitenancy extension (Section IV-B mentions it as a
    /// planned LoadGen mode) tags each tenant's queries.
    pub tenant: u32,
}

impl Query {
    /// Number of samples in the query.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }
}

/// Task-specific inference output carried back for accuracy checking.
///
/// The LoadGen does not interpret payloads; it logs them (always in accuracy
/// mode, randomly sampled in performance mode for the accuracy-verification
/// audit) and the task's accuracy script scores them.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ResponsePayload {
    /// No payload (performance mode default).
    #[default]
    Empty,
    /// Classification: predicted class index.
    Class(usize),
    /// Detection: `(class, score, [x1, y1, x2, y2])` per box.
    Boxes(Vec<(usize, f32, [f32; 4])>),
    /// Translation: output token ids.
    Tokens(Vec<u32>),
}

/// Encoded size of one detection box: class u64, score f32, 4× f32.
const BOX_LEN: usize = 8 + 4 + 16;

impl ResponsePayload {
    /// Whether the payload carries data.
    pub fn is_empty(&self) -> bool {
        matches!(self, ResponsePayload::Empty)
    }

    /// Appends the payload's one byte encoding, shared by wire completions
    /// and run-journal accuracy entries: a tag byte — 0 empty, 1 class
    /// (u64), 2 boxes (n u32, n× class u64 + score f32 + 4× f32), 3 tokens
    /// (n u32, n× u32).
    #[inline]
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            ResponsePayload::Empty => w.put_u8(0),
            ResponsePayload::Class(class) => {
                w.put_u8(1);
                w.put_u64(*class as u64);
            }
            ResponsePayload::Boxes(boxes) => {
                w.put_u8(2);
                w.put_count(boxes.len());
                for (class, score, rect) in boxes {
                    w.put_u64(*class as u64);
                    w.put_f32(*score);
                    for coord in rect {
                        w.put_f32(*coord);
                    }
                }
            }
            ResponsePayload::Tokens(tokens) => {
                w.put_u8(3);
                w.put_count(tokens.len());
                for t in tokens {
                    w.put_u32(*t);
                }
            }
        }
    }

    /// Reads one [`encode`](ResponsePayload::encode)d payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for a cut payload, a count larger than the
    /// bytes that remain, or an unknown tag.
    #[inline]
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(ResponsePayload::Empty),
            1 => Ok(ResponsePayload::Class(r.get_u64()? as usize)),
            2 => {
                let n = r.get_count(BOX_LEN)?;
                let mut boxes = Vec::with_capacity(n);
                for _ in 0..n {
                    let class = r.get_u64()? as usize;
                    let score = r.get_f32()?;
                    let mut rect = [0.0f32; 4];
                    for coord in &mut rect {
                        *coord = r.get_f32()?;
                    }
                    boxes.push((class, score, rect));
                }
                Ok(ResponsePayload::Boxes(boxes))
            }
            3 => {
                let n = r.get_count(4)?;
                let mut tokens = Vec::with_capacity(n);
                for _ in 0..n {
                    tokens.push(r.get_u32()?);
                }
                Ok(ResponsePayload::Tokens(tokens))
            }
            tag => Err(DecodeError::UnknownTag {
                field: "payload",
                tag,
            }),
        }
    }
}

/// Completion of one sample of a query, reported by the SUT.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCompletion {
    /// The sample's response id (must echo [`QuerySample::id`]).
    pub sample_id: u64,
    /// Inference output for accuracy checking.
    pub payload: ResponsePayload,
}

/// Completion of a whole query at a point in simulated/wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCompletion {
    /// The completed query.
    pub query_id: QueryId,
    /// When the SUT finished the query.
    pub finished_at: Nanos,
    /// Per-sample completions (must cover every sample of the query).
    pub samples: Vec<SampleCompletion>,
    /// The query resolved as an error/drop instead of an answer. Errored
    /// completions still echo every sample id (so the protocol checks hold
    /// and every scenario loop terminates), but their payloads are
    /// meaningless and validity scoring treats them as infinitely late.
    pub error: bool,
}

impl QueryCompletion {
    /// A successful completion echoing the query's samples with the given
    /// payloads.
    pub fn ok(query_id: QueryId, finished_at: Nanos, samples: Vec<SampleCompletion>) -> Self {
        QueryCompletion {
            query_id,
            finished_at,
            samples,
            error: false,
        }
    }

    /// An errored completion for `query`: echoes every sample id with an
    /// empty payload so the run can terminate, but marks the query failed.
    pub fn errored(query: &Query, finished_at: Nanos) -> Self {
        QueryCompletion {
            query_id: query.id,
            finished_at,
            samples: query
                .samples
                .iter()
                .map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: ResponsePayload::Empty,
                })
                .collect(),
            error: true,
        }
    }
}

impl ToJson for QuerySample {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", self.id.to_json_value()),
            ("index", self.index.to_json_value()),
        ])
    }
}

impl FromJson for QuerySample {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(QuerySample {
            id: value.field("id")?.as_u64()?,
            index: value.field("index")?.as_usize()?,
        })
    }
}

impl ToJson for Query {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", self.id.to_json_value()),
            ("samples", self.samples.to_json_value()),
            ("scheduled_at", self.scheduled_at.to_json_value()),
            ("tenant", self.tenant.to_json_value()),
        ])
    }
}

impl FromJson for Query {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(Query {
            id: value.field("id")?.as_u64()?,
            samples: Vec::from_json_value(value.field("samples")?)?,
            scheduled_at: Nanos::from_json_value(value.field("scheduled_at")?)?,
            // Logs written before the multitenancy extension lack the field.
            tenant: match value.get("tenant") {
                Some(v) => v.as_u32()?,
                None => 0,
            },
        })
    }
}

impl ToJson for ResponsePayload {
    fn to_json_value(&self) -> JsonValue {
        match self {
            ResponsePayload::Empty => JsonValue::Str("Empty".into()),
            ResponsePayload::Class(class) => {
                JsonValue::object(vec![("Class", class.to_json_value())])
            }
            ResponsePayload::Boxes(boxes) => {
                let items = boxes
                    .iter()
                    .map(|(class, score, rect)| {
                        JsonValue::Array(vec![
                            class.to_json_value(),
                            score.to_json_value(),
                            JsonValue::Array(rect.iter().map(|c| c.to_json_value()).collect()),
                        ])
                    })
                    .collect();
                JsonValue::object(vec![("Boxes", JsonValue::Array(items))])
            }
            ResponsePayload::Tokens(tokens) => {
                JsonValue::object(vec![("Tokens", tokens.to_json_value())])
            }
        }
    }
}

impl FromJson for ResponsePayload {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        if let Ok("Empty") = value.as_str() {
            return Ok(ResponsePayload::Empty);
        }
        let (name, payload) = value.as_variant()?;
        match name {
            "Class" => Ok(ResponsePayload::Class(payload.as_usize()?)),
            "Boxes" => {
                let mut boxes = Vec::new();
                for item in payload.as_array()? {
                    let parts = item.as_array()?;
                    if parts.len() != 3 {
                        return Err(JsonError::new("box must be [class, score, rect]"));
                    }
                    let rect_parts = parts[2].as_array()?;
                    if rect_parts.len() != 4 {
                        return Err(JsonError::new("box rect must have 4 coordinates"));
                    }
                    let mut rect = [0.0f32; 4];
                    for (slot, coord) in rect.iter_mut().zip(rect_parts) {
                        *slot = coord.as_f32()?;
                    }
                    boxes.push((parts[0].as_usize()?, parts[1].as_f32()?, rect));
                }
                Ok(ResponsePayload::Boxes(boxes))
            }
            "Tokens" => Ok(ResponsePayload::Tokens(Vec::from_json_value(payload)?)),
            other => Err(JsonError::new(format!("unknown payload variant {other:?}"))),
        }
    }
}

impl ToJson for SampleCompletion {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("sample_id", self.sample_id.to_json_value()),
            ("payload", self.payload.to_json_value()),
        ])
    }
}

impl FromJson for SampleCompletion {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(SampleCompletion {
            sample_id: value.field("sample_id")?.as_u64()?,
            payload: ResponsePayload::from_json_value(value.field("payload")?)?,
        })
    }
}

impl ToJson for QueryCompletion {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("query_id", self.query_id.to_json_value()),
            ("finished_at", self.finished_at.to_json_value()),
            ("samples", self.samples.to_json_value()),
            ("error", self.error.to_json_value()),
        ])
    }
}

impl FromJson for QueryCompletion {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(QueryCompletion {
            query_id: value.field("query_id")?.as_u64()?,
            finished_at: Nanos::from_json_value(value.field("finished_at")?)?,
            samples: Vec::from_json_value(value.field("samples")?)?,
            // Logs written before the fault-injection extension lack the
            // field; every completion then was a success.
            error: match value.get("error") {
                Some(v) => v.as_bool()?,
                None => false,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_sample_count() {
        let q = Query {
            id: 1,
            samples: vec![
                QuerySample { id: 10, index: 0 },
                QuerySample { id: 11, index: 5 },
            ],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        };
        assert_eq!(q.sample_count(), 2);
    }

    #[test]
    fn payload_emptiness() {
        assert!(ResponsePayload::Empty.is_empty());
        assert!(ResponsePayload::default().is_empty());
        assert!(!ResponsePayload::Class(3).is_empty());
        assert!(!ResponsePayload::Tokens(vec![1]).is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let c = QueryCompletion {
            query_id: 9,
            finished_at: Nanos::from_micros(77),
            samples: vec![SampleCompletion {
                sample_id: 1,
                payload: ResponsePayload::Boxes(vec![(2, 0.9, [0.0, 0.0, 4.0, 4.0])]),
            }],
            error: false,
        };
        let json = c.to_json_string();
        assert_eq!(QueryCompletion::from_json_str(&json).unwrap(), c);
        for payload in [
            ResponsePayload::Empty,
            ResponsePayload::Class(17),
            ResponsePayload::Tokens(vec![1, 2, 3]),
        ] {
            let json = payload.to_json_string();
            assert_eq!(ResponsePayload::from_json_str(&json).unwrap(), payload);
        }
    }

    #[test]
    fn completion_without_error_field_parses_as_success() {
        let json = r#"{"query_id":4,"finished_at":90,"samples":[]}"#;
        let c = QueryCompletion::from_json_str(json).unwrap();
        assert!(!c.error);
        assert_eq!(c.finished_at, Nanos::from_nanos(90));
    }

    #[test]
    fn errored_completion_echoes_every_sample() {
        let q = Query {
            id: 7,
            samples: vec![
                QuerySample { id: 70, index: 1 },
                QuerySample { id: 71, index: 2 },
            ],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        };
        let c = QueryCompletion::errored(&q, Nanos::from_micros(5));
        assert!(c.error);
        assert_eq!(c.samples.len(), 2);
        assert_eq!(c.samples[1].sample_id, 71);
        let json = c.to_json_string();
        assert_eq!(QueryCompletion::from_json_str(&json).unwrap(), c);
    }

    #[test]
    fn query_without_tenant_field_parses() {
        let json = r#"{"id":1,"samples":[{"id":2,"index":3}],"scheduled_at":50}"#;
        let q = Query::from_json_str(json).unwrap();
        assert_eq!(q.tenant, 0);
        assert_eq!(q.scheduled_at, Nanos::from_nanos(50));
    }
}
