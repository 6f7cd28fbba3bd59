//! Exporters: human text table, JSON, and Prometheus text format for
//! [`Snapshot`]; Chrome trace-event JSON for [`Tracer`] span timelines
//! (loadable in `chrome://tracing` / Perfetto).
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::histogram::bucket_upper_bound;
use crate::metrics::{MetricId, Snapshot};
use crate::span::Tracer;

impl Snapshot {
    /// Fixed-width table for terminals — the `repro --metrics` rendering.
    pub fn to_text_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (id, v) in &self.counters {
            rows.push((id.to_string(), v.to_string()));
        }
        for (id, v) in &self.gauges {
            rows.push((id.to_string(), v.to_string()));
        }
        for (id, h) in &self.histograms {
            rows.push((
                id.to_string(),
                format!(
                    "count {} sum {} mean {:.1} p50 {} p99 {} max {}",
                    h.count(),
                    h.sum,
                    h.mean(),
                    h.quantile(0.5).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max().unwrap_or(0),
                ),
            ));
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        out
    }

    /// JSON document: `{"counters": [...], "gauges": [...],
    /// "histograms": [...]}` with per-metric name/labels/value objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        for (i, (id, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{{},\"value\":{v}}}", json_id(id));
        }
        out.push_str("],\"gauges\":[");
        for (i, (id, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{{},\"value\":{v}}}", json_id(id));
        }
        out.push_str("],\"histograms\":[");
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json_id(id),
                h.count(),
                h.sum,
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
            );
            // Only non-empty buckets, as [upper_bound, count] pairs.
            let mut first = true;
            for (b, &count) in h.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{},{count}]", bucket_upper_bound(b));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text exposition format (counters as `# TYPE counter`,
    /// histograms with cumulative `_bucket{le=...}` series). Names with a
    /// registered description ([`crate::Registry::describe`]) get a
    /// `# HELP` line before their first `# TYPE`; without descriptions the
    /// output is byte-identical to the pre-`describe` format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut helped: BTreeSet<String> = BTreeSet::new();
        for (id, v) in &self.counters {
            self.prometheus_help(&mut out, &mut helped, id.name());
            let _ = writeln!(out, "# TYPE {} counter", id.name());
            let _ = writeln!(out, "{} {v}", prometheus_series(id, &[], ""));
        }
        for (id, v) in &self.gauges {
            self.prometheus_help(&mut out, &mut helped, id.name());
            let _ = writeln!(out, "# TYPE {} gauge", id.name());
            let _ = writeln!(out, "{} {v}", prometheus_series(id, &[], ""));
        }
        for (id, h) in &self.histograms {
            self.prometheus_help(&mut out, &mut helped, id.name());
            let _ = writeln!(out, "# TYPE {} histogram", id.name());
            let mut cumulative = 0u64;
            for (b, &count) in h.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{} {cumulative}",
                    prometheus_series(id, &[("le", &bucket_upper_bound(b).to_string())], "_bucket")
                );
            }
            let _ = writeln!(
                out,
                "{} {cumulative}",
                prometheus_series(id, &[("le", "+Inf")], "_bucket")
            );
            let _ = writeln!(out, "{} {}", prometheus_series(id, &[], "_sum"), h.sum);
            let _ = writeln!(
                out,
                "{} {}",
                prometheus_series(id, &[], "_count"),
                h.count()
            );
        }
        out
    }

    /// Writes `# HELP name text` once per name, and only when a
    /// description was registered — absent descriptions add zero bytes.
    fn prometheus_help(&self, out: &mut String, helped: &mut BTreeSet<String>, name: &str) {
        if let Some(text) = self.help_for(name) {
            if helped.insert(name.to_string()) {
                let _ = writeln!(out, "# HELP {name} {}", prometheus_help_text(text));
            }
        }
    }
}

/// `"name":"...","labels":{...}` (no braces) for one metric id.
fn json_id(id: &MetricId) -> String {
    let mut out = format!("\"name\":{}", json_string(id.name()));
    out.push_str(",\"labels\":{");
    for (i, (k, v)) in id.labels().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(k), json_string(v));
    }
    out.push('}');
    out
}

fn prometheus_series(id: &MetricId, extra: &[(&str, &str)], suffix: &str) -> String {
    let mut labels: Vec<(String, String)> = id.labels().to_vec();
    for (k, v) in extra {
        labels.push((k.to_string(), v.to_string()));
    }
    let mut out = format!("{}{suffix}", id.name());
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", prometheus_label_value(v));
        }
        out.push('}');
    }
    out
}

/// Label-value escaping per the Prometheus text exposition format:
/// backslash, double-quote, and newline must be escaped inside the quoted
/// value; everything else passes through verbatim.
fn prometheus_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `# HELP` text escaping: the exposition format escapes backslash and
/// newline in help lines (quotes are legal verbatim there).
fn prometheus_help_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Tracer {
    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span.
    /// Load the file in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"depth\":{}}}}}",
                json_string(&span.name),
                span.start_us,
                span.dur_us,
                span.depth
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::ManualClock;
    use std::sync::Arc;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter_with("stage_items_total", &[("stage", "ingest")])
            .add(42);
        r.gauge("intern_names").set(7);
        let h = r.histogram("latency_us");
        h.record(3);
        h.record(100);
        r.snapshot()
    }

    #[test]
    fn text_table_lists_everything() {
        let text = sample().to_text_table();
        assert!(text.contains("stage_items_total{stage=\"ingest\"}  42"));
        assert!(text.contains("intern_names"));
        assert!(text.contains("count 2 sum 103"));
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert!(json.contains("\"name\":\"stage_items_total\""));
        assert!(json.contains("\"stage\":\"ingest\""));
        assert!(json.contains("\"count\":2"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let prom = sample().to_prometheus();
        assert!(prom.contains("# TYPE latency_us histogram"));
        assert!(prom.contains("latency_us_bucket{le=\"3\"} 1"));
        assert!(prom.contains("latency_us_bucket{le=\"127\"} 2"));
        assert!(prom.contains("latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("latency_us_sum 103"));
        assert!(prom.contains("latency_us_count 2"));
        assert!(prom.contains("stage_items_total{stage=\"ingest\"} 42"));
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let r = Registry::new();
        r.counter_with("lookups_total", &[("qname", "evil\"dom\\ain\ncom")])
            .inc();
        let prom = r.snapshot().to_prometheus();
        assert!(
            prom.contains(r#"lookups_total{qname="evil\"dom\\ain\ncom"} 1"#),
            "unescaped exposition: {prom}"
        );
        // A raw newline in a label value would split the series line in two.
        let series: Vec<&str> = prom.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(series.len(), 1, "series line split by raw newline: {prom}");
    }

    #[test]
    fn prometheus_help_lines_are_optional_and_byte_stable() {
        let r = Registry::new();
        r.counter_with("stage_items_total", &[("stage", "ingest")])
            .add(1);
        r.counter_with("stage_items_total", &[("stage", "scan")])
            .add(2);
        r.gauge("intern_names").set(7);
        let plain = r.snapshot().to_prometheus();
        assert!(
            !plain.contains("# HELP"),
            "undesired HELP without describe: {plain}"
        );

        r.describe(
            "stage_items_total",
            "Items processed per stage\nline2 \\ end",
        );
        let helped = r.snapshot().to_prometheus();
        assert_eq!(
            helped
                .matches("# HELP stage_items_total Items processed per stage\\nline2 \\\\ end")
                .count(),
            1,
            "HELP once per name, escaped: {helped}"
        );
        // The undescribed metric's section is untouched.
        assert!(!helped.contains("# HELP intern_names"));
        // Removing the HELP line recovers the describe-free exposition.
        let stripped: String = helped
            .lines()
            .filter(|l| !l.starts_with("# HELP"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, plain);
        // HELP precedes the first TYPE of its name.
        let help_at = helped.find("# HELP stage_items_total").unwrap();
        let type_at = helped.find("# TYPE stage_items_total").unwrap();
        assert!(help_at < type_at);
    }

    #[test]
    fn chrome_trace_shape() {
        let clock = Arc::new(ManualClock::new());
        let t = Tracer::new(clock.clone());
        {
            let _a = t.span("stage \"one\"");
            clock.advance_micros(9);
        }
        let trace = t.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"dur\":9"));
        assert!(trace.contains("stage \\\"one\\\""));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    }
}
