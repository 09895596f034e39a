//! The per-cell result record the service journals, caches and streams.
//!
//! A [`CellRecord`] is deliberately free of wall-clock data: it carries
//! only what the deterministic simulator produced (status, makespan,
//! attempt/budget accounting) plus the cell's canonical spec. That is
//! what makes resumed sweeps byte-identical to uninterrupted ones — the
//! aggregate hash is computed over these serialized records, and a
//! cached replay must reproduce them bit for bit. Latency and cache-hit
//! telemetry live in the server's counters instead.

use crate::json::{self, Json, Layout, ObjectWriter};
use crate::spec::CellSpec;

/// Version stamp of the record wire format. Bump on breaking changes;
/// readers accept every version up to the current one (mirroring the
/// `Matrix::to_json` v2 precedent).
pub const RECORD_SCHEMA_VERSION: u64 = 1;

/// One completed (or poisoned) sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// The cell's spec, embedded so the journal is self-contained and
    /// the content hash can be re-verified on read-back.
    pub spec: CellSpec,
    /// The cell's content hash at write time (integrity check: loaders
    /// recompute `spec.content_hash()` and refuse a mismatch).
    pub hash: String,
    /// Terminal status: `ok`, `recovered`, `reconfigured`, `degraded`,
    /// `quarantined` (deadlock/timeout twice) or `violated` (dependence
    /// order broken — deterministic, never retried).
    pub status: String,
    /// Makespan in cycles (0 when the run never finished).
    pub makespan: u64,
    /// Attempts spent (1 on first-try success, 2 after a retry).
    pub attempts: u32,
    /// Cycle budget of the final attempt.
    pub budget: u64,
    /// Human-readable outcome detail (the robustness-matrix cell label).
    pub detail: String,
}

impl CellRecord {
    /// True for records the circuit breaker must skip instead of rerun.
    pub fn is_poisoned(&self) -> bool {
        matches!(self.status.as_str(), "quarantined" | "violated")
    }

    /// Serializes the record as a single JSON line (the journal payload
    /// and the streamed result body, byte for byte).
    pub fn to_json(&self) -> String {
        let spec = self.spec.canonical_json();
        let mut out = String::with_capacity(spec.len() + 160);
        let mut w = ObjectWriter::new(&mut out, Layout::Compact);
        w.num("schema_version", RECORD_SCHEMA_VERSION)
            .str("hash", &self.hash)
            .str("status", &self.status)
            .num("makespan", self.makespan)
            .num("attempts", self.attempts)
            .num("budget", self.budget)
            .str("detail", &self.detail)
            .raw("spec", &spec);
        w.end();
        out
    }

    /// Parses a record document. `schema_version` must be present and
    /// no newer than [`RECORD_SCHEMA_VERSION`]; fields added in later
    /// minor revisions default when absent, so today's reader accepts
    /// yesterday's journals.
    ///
    /// # Errors
    ///
    /// Reports version, type and spec problems; does **not** verify the
    /// hash — that is the loader's job ([`crate::store::RunStore`]).
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("record missing `schema_version`")?;
        if version > RECORD_SCHEMA_VERSION {
            return Err(format!(
                "record schema_version {version} is newer than supported {RECORD_SCHEMA_VERSION}"
            ));
        }
        let spec_doc = doc.get("spec").ok_or("record missing `spec`")?;
        let spec = CellSpec::from_json(spec_doc)?;
        let hash = doc
            .get("hash")
            .and_then(Json::as_str)
            .ok_or("record missing `hash`")?
            .to_string();
        let text = |key: &str, default: &str| {
            doc.get(key).and_then(Json::as_str).unwrap_or(default).to_string()
        };
        Ok(CellRecord {
            spec,
            hash,
            status: text("status", "ok"),
            makespan: json::int(doc, "makespan")?.unwrap_or(0),
            attempts: json::int(doc, "attempts")?.unwrap_or(1),
            budget: json::int(doc, "budget")?.unwrap_or(0),
            detail: text("detail", ""),
        })
    }

    /// Parses a record from raw JSON text.
    ///
    /// # Errors
    ///
    /// Reports parse and shape failures.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CellRecord {
        let spec = CellSpec { iterations: 8, seed: 42, ..CellSpec::default() };
        CellRecord {
            hash: spec.content_hash(),
            spec,
            status: "ok".into(),
            makespan: 1234,
            attempts: 1,
            budget: 1_000_000,
            detail: "ok".into(),
        }
    }

    #[test]
    fn record_json_round_trips_byte_exact() {
        let rec = sample();
        let doc = rec.to_json();
        assert!(!doc.contains('\n'), "journal payloads must be single lines");
        let back = CellRecord::parse(&doc).expect("parse own serialization");
        assert_eq!(back, rec);
        // Byte identity, not just structural equality: the aggregate
        // hash is computed over these bytes.
        assert_eq!(back.to_json(), doc);
    }

    #[test]
    fn older_minor_revisions_still_parse() {
        // A hypothetical v1.0 writer that predates `attempts`, `budget`
        // and `detail`: those fields default, nothing errors.
        let spec = CellSpec::default();
        let old = format!(
            "{{\"schema_version\":1,\"hash\":\"{}\",\"status\":\"ok\",\"makespan\":77,\"spec\":{}}}",
            spec.content_hash(),
            spec.canonical_json()
        );
        let rec = CellRecord::parse(&old).expect("older record must parse");
        assert_eq!(rec.makespan, 77);
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.budget, 0);
        assert_eq!(rec.detail, "");
    }

    #[test]
    fn newer_schema_versions_are_refused() {
        let doc = sample().to_json().replace("\"schema_version\":1", "\"schema_version\":2");
        let err = CellRecord::parse(&doc).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn missing_required_fields_are_refused() {
        assert!(CellRecord::parse("{}").is_err());
        let no_spec = "{\"schema_version\":1,\"hash\":\"deadbeefdeadbeef\"}";
        assert!(CellRecord::parse(no_spec).unwrap_err().contains("spec"));
        let no_hash =
            format!("{{\"schema_version\":1,\"spec\":{}}}", CellSpec::default().canonical_json());
        assert!(CellRecord::parse(&no_hash).unwrap_err().contains("hash"));
    }

    #[test]
    fn poison_statuses_are_recognized() {
        let mut rec = sample();
        for (status, poisoned) in [
            ("ok", false),
            ("recovered", false),
            ("reconfigured", false),
            ("degraded", false),
            ("quarantined", true),
            ("violated", true),
        ] {
            rec.status = status.into();
            assert_eq!(rec.is_poisoned(), poisoned, "{status}");
        }
    }
}
