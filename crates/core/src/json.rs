//! Minimal hand-rolled JSON emission — the offline tree has no serde,
//! and the service wire protocol, the CLI's `--json` mode, and the
//! bench bins must all speak **one schema** for a factorization /
//! solve report. Everything here writes strict JSON (RFC 8259): keys
//! and strings are escaped, non-finite floats become `null` (JSON has
//! no NaN/Inf), and `f64` values print in shortest round-trip form.
//!
//! [`JsonObj`] is a consuming builder:
//!
//! ```
//! use rlchol_core::json::JsonObj;
//! let s = JsonObj::new().str("op", "factor").u64("n", 100).finish();
//! assert_eq!(s, r#"{"op":"factor","n":100}"#);
//! ```
//!
//! [`factor_info_json`] and [`analyze_breakdown_json`] are the shared
//! report serializers.

use crate::registry::FactorInfo;

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite `f64` in shortest round-trip form; NaN/Inf become `null`
/// (JSON numbers cannot represent them).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON array from already-serialized element strings.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Consuming JSON object builder. Field order is insertion order;
/// values are emitted exactly once with no trailing separators, so the
/// output is always valid JSON.
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// An empty object (`{}` until fields are added).
    pub fn new() -> Self {
        JsonObj { buf: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
    }

    /// A field whose value is already-serialized JSON (nested object,
    /// array, or literal).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// A string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// An unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// A float field (`null` when non-finite).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&num(v));
        self
    }

    /// An optional float field (`null` when absent or non-finite).
    pub fn opt_f64(self, k: &str, v: Option<f64>) -> Self {
        match v {
            Some(v) => self.f64(k, v),
            None => self.raw(k, "null"),
        }
    }

    /// A boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Closes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// The uniform factorization report as JSON — one schema shared by the
/// CLI's `factor --json`, the service's response frames, and any script
/// consuming either. The operation trace is omitted (it is a replay
/// artifact, not a report).
pub fn factor_info_json(info: &FactorInfo) -> String {
    let gpu = match &info.gpu {
        Some(stats) => JsonObj::new()
            .u64("kernel_launches", stats.kernel_launches)
            .u64("transfer_bytes", stats.total_transfer_bytes())
            .u64("peak_bytes", stats.peak_bytes)
            .finish(),
        None => "null".to_string(),
    };
    let retire = match info.retire {
        Some(mode) => format!("\"{}\"", mode.name()),
        None => "null".to_string(),
    };
    let recovery = array(
        info.recovery
            .iter()
            .map(|event| format!("\"{}\"", escape(&event.to_string()))),
    );
    JsonObj::new()
        .f64("wall_ms", info.wall.as_secs_f64() * 1e3)
        .opt_f64("sim_seconds", info.sim_seconds)
        .u64("sn_on_gpu", info.sn_on_gpu as u64)
        .u64("streams_used", info.streams_used as u64)
        .raw("retire", &retire)
        .u64("lookahead", info.lookahead as u64)
        .u64("transfers_saved", info.transfers_saved)
        .raw("gpu", &gpu)
        .raw("recovery", &recovery)
        .finish()
}

/// The per-stage analyze breakdown
/// ([`AnalyzeBreakdown`](crate::AnalyzeBreakdown)) as JSON — one schema
/// shared by the CLI's `analyze --json` and the service's cache-miss
/// metrics.
pub fn analyze_breakdown_json(b: &crate::AnalyzeBreakdown) -> String {
    JsonObj::new()
        .u64("threads", b.threads as u64)
        .f64("ordering_ms", b.ordering.as_secs_f64() * 1e3)
        .f64("etree_ms", b.etree.as_secs_f64() * 1e3)
        .f64("colcount_ms", b.colcount.as_secs_f64() * 1e3)
        .f64("merge_ms", b.merge.as_secs_f64() * 1e3)
        .f64("relind_ms", b.relind.as_secs_f64() * 1e3)
        .f64("value_map_ms", b.value_map.as_secs_f64() * 1e3)
        .f64("total_ms", b.total().as_secs_f64() * 1e3)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.1), "0.1");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        let v: f64 = 0.1 + 0.2;
        assert_eq!(num(v).parse::<f64>().unwrap(), v, "shortest round-trip");
    }

    #[test]
    fn object_builder_emits_valid_field_sequences() {
        assert_eq!(JsonObj::new().finish(), "{}");
        let s = JsonObj::new()
            .str("a", "x\"y")
            .u64("b", 7)
            .bool("c", false)
            .opt_f64("d", None)
            .raw("e", "[1,2]")
            .finish();
        assert_eq!(s, r#"{"a":"x\"y","b":7,"c":false,"d":null,"e":[1,2]}"#);
        assert_eq!(array(vec!["1".into(), "2".into()]), "[1,2]");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn factor_info_serializes_cpu_and_recovery_shape() {
        let info = FactorInfo {
            wall: Duration::from_millis(2),
            ..FactorInfo::default()
        };
        let s = factor_info_json(&info);
        assert!(s.contains("\"wall_ms\":2"), "{s}");
        assert!(s.contains("\"sim_seconds\":null"), "{s}");
        assert!(s.contains("\"gpu\":null"), "{s}");
        assert!(s.contains("\"recovery\":[]"), "{s}");
        assert!(s.contains("\"retire\":null"), "{s}");
    }
}
