//! Prometheus text exposition (format version 0.0.4) over registry
//! snapshots.
//!
//! The registry's own snapshot formats (table/JSON/CSV) are for humans
//! and the regression tooling; this module is the wire format a live
//! scraper consumes from `uarch-serve`'s `GET /metrics`. It renders one
//! or more [`Snapshot`]s — each tagged with an instance label such as
//! `registry="runner"` — into one exposition document:
//!
//! * metric names are sanitized to the Prometheus grammar
//!   (`[a-zA-Z_:][a-zA-Z0-9_:]*`; the registry's dotted
//!   `runner.sims_run` convention becomes `runner_sims_run`),
//! * label values are escaped (`\\`, `\"`, `\n`),
//! * counters and gauges render as single samples with a `# TYPE` line
//!   per family,
//! * fixed-bucket histograms expand into *cumulative* `_bucket{le=...}`
//!   samples (the registry's buckets partition; Prometheus buckets
//!   accumulate) plus `_sum`/`_count`, and
//! * each histogram also derives approximate `_p50`/`_p95`/`_p99`
//!   gauge families via [`SnapshotValue::quantile`], so dashboards get
//!   latency summaries without server-side quantile streams.
//!
//! [`check`] is the matching minimal line-oriented validator: it
//! accepts exactly the grammar this renderer (and any conformant
//! exporter) emits, and the proptest suite pins render→check closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{Registry, Snapshot, SnapshotValue};

/// Quantiles derived per histogram family, as `(suffix, q)` pairs.
const DERIVED_QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// Sanitize a metric name to the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Every invalid byte (including the
/// registry convention's `.`) becomes `_`; a leading digit gets a `_`
/// prefix; an empty name renders as `_`.
pub fn sanitize_name(name: &str) -> String {
    sanitize(name, true)
}

/// Sanitize a label name to the *label* grammar
/// `[a-zA-Z_][a-zA-Z0-9_]*` — like [`sanitize_name`] except that `:`
/// is illegal in label names (it is reserved for recording-rule metric
/// names) and becomes `_`.
pub fn sanitize_label_name(name: &str) -> String {
    sanitize(name, false)
}

fn sanitize(name: &str, allow_colon: bool) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid = c.is_ascii_alphabetic()
            || c == '_'
            || (allow_colon && c == ':')
            || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value for the exposition format: backslash, double
/// quote, and newline must be escaped; everything else passes through.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render one `{k="v",...}` label block (empty string for no labels).
fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_name(k), escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// A `{k="v",...}` block with an extra label appended (for `le=`).
fn label_block_with(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut all = labels.to_vec();
    all.push((key.to_string(), value.to_string()));
    label_block(&all)
}

/// One metric family accumulated across instances before rendering.
struct Family {
    kind: &'static str,
    /// `(labels, value)` samples in registration order.
    samples: Vec<(Vec<(String, String)>, SnapshotValue)>,
}

/// An OpenMetrics exemplar: one recent observation, with identifying
/// labels (canonically a `trace_id`), attached to the histogram bucket
/// the observation fell into. Rendered as the
/// `name_bucket{le="..."} N # {trace_id="..."} value` suffix the
/// OpenMetrics text format defines; plain Prometheus scrapers ignore
/// everything after `#`.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Identifying labels, e.g. `[("trace_id", "00c0ffee00c0ffee")]`.
    pub labels: Vec<(String, String)>,
    /// The observed value, in the histogram's unit.
    pub value: f64,
}

impl Exemplar {
    /// Render the ` # {labels} value` suffix.
    fn suffix(&self) -> String {
        format!(" # {} {}", label_block(&self.labels), self.value)
    }
}

/// Collects snapshots (each under its own instance labels) and renders
/// them as one exposition document with a single `# TYPE` line per
/// family — the shape scrapers require even when several registries
/// contribute samples to the same family name.
#[derive(Default)]
pub struct Exposition {
    families: BTreeMap<String, Family>,
    /// Exemplars keyed by *sanitized* family name.
    exemplars: BTreeMap<String, Exemplar>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Add every metric of `snap` under `labels` (e.g.
    /// `[("registry", "runner")]`).
    pub fn add_snapshot(&mut self, snap: &Snapshot, labels: &[(&str, &str)]) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        for (name, value) in snap.entries() {
            let kind = match value {
                SnapshotValue::Counter(_) => "counter",
                SnapshotValue::Gauge(_) => "gauge",
                SnapshotValue::Histogram { .. } => "histogram",
            };
            self.push(sanitize_name(name), kind, labels.clone(), value.clone());
            // Derived quantile summaries ride along as gauge families.
            if let SnapshotValue::Histogram { .. } = value {
                for (suffix, q) in DERIVED_QUANTILES {
                    if let Some(est) = value.quantile(q) {
                        self.push(
                            format!("{}_{suffix}", sanitize_name(name)),
                            "gauge",
                            labels.clone(),
                            SnapshotValue::Gauge(est.round() as i64),
                        );
                    }
                }
            }
        }
    }

    fn push(
        &mut self,
        mut name: String,
        kind: &'static str,
        labels: Vec<(String, String)>,
        value: SnapshotValue,
    ) {
        // Two differently-typed metrics landing on one sanitized name
        // (e.g. `a.x` counter vs `a_x` gauge) must not share a family:
        // disambiguate by suffixing the kind.
        if let Some(existing) = self.families.get(&name) {
            if existing.kind != kind {
                name = format!("{name}_{kind}");
            }
        }
        self.families
            .entry(name)
            .or_insert_with(|| Family {
                kind,
                samples: Vec::new(),
            })
            .samples
            .push((labels, value));
    }

    /// Attach `exemplar` to the histogram family named `family` (the
    /// *sanitized* name, e.g. `serve_query_us`). At render time it
    /// decorates the bucket the observation falls into; attaching to a
    /// name that is not a rendered histogram is a silent no-op.
    pub fn attach_exemplar(&mut self, family: &str, exemplar: Exemplar) {
        self.exemplars.insert(family.to_string(), exemplar);
    }

    /// Render the exposition document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# TYPE {name} {}", family.kind);
            for (labels, value) in &family.samples {
                match value {
                    SnapshotValue::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", label_block(labels));
                    }
                    SnapshotValue::Gauge(v) => {
                        let _ = writeln!(out, "{name}{} {v}", label_block(labels));
                    }
                    SnapshotValue::Histogram {
                        bounds,
                        counts,
                        count,
                        sum,
                    } => {
                        let exemplar = self.exemplars.get(name);
                        let mut cumulative = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cumulative += c;
                            let le = match bounds.get(i) {
                                Some(b) => b.to_string(),
                                None => "+Inf".to_string(),
                            };
                            // The exemplar decorates the first bucket
                            // whose upper bound admits its value — the
                            // bucket the observation was counted in.
                            let in_bucket = exemplar.is_some_and(|ex| {
                                let below = i == 0
                                    || bounds.get(i - 1).is_none_or(|b| ex.value > *b as f64);
                                let within = bounds.get(i).is_none_or(|b| ex.value <= *b as f64);
                                below && within
                            });
                            let suffix = match (in_bucket, exemplar) {
                                (true, Some(ex)) => ex.suffix(),
                                _ => String::new(),
                            };
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}{suffix}",
                                label_block_with(labels, "le", &le)
                            );
                        }
                        let _ = writeln!(out, "{name}_sum{} {sum}", label_block(labels));
                        let _ = writeln!(out, "{name}_count{} {count}", label_block(labels));
                    }
                }
            }
        }
        out
    }
}

/// Render `registries` — each as `(instance-label, registry)` — into one
/// exposition document, tagging every sample with
/// `registry="<instance>"`.
pub fn render_registries(registries: &[(&str, &Registry)]) -> String {
    let mut exposition = Exposition::new();
    for (instance, registry) in registries {
        exposition.add_snapshot(&registry.snapshot(), &[("registry", instance)]);
    }
    exposition.render()
}

/// Whether `name` matches the metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` matches the label-name grammar
/// `[a-zA-Z_][a-zA-Z0-9_]*` (no `:`, unlike metric names).
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Validate one `{k="v",...}` label block; returns the byte length
/// consumed (including braces) or an error.
fn check_labels(s: &str) -> Result<usize, String> {
    let bytes = s.as_bytes();
    debug_assert_eq!(bytes.first(), Some(&b'{'));
    let mut i = 1;
    loop {
        if bytes.get(i) == Some(&b'}') {
            return Ok(i + 1);
        }
        // Label name.
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i == start || !valid_label_name(&s[start..i]) {
            return Err(format!("bad label name at byte {start} of {s:?}"));
        }
        if bytes.get(i) != Some(&b'=') || bytes.get(i + 1) != Some(&b'"') {
            return Err(format!("expected =\" after label name in {s:?}"));
        }
        i += 2;
        // Quoted value with \\, \", \n escapes; raw newlines illegal.
        loop {
            match bytes.get(i) {
                None => return Err(format!("unterminated label value in {s:?}")),
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\') | Some(b'"') | Some(b'n') => i += 2,
                    _ => return Err(format!("bad escape in label value of {s:?}")),
                },
                Some(b'\n') => return Err(format!("raw newline in label value of {s:?}")),
                Some(_) => i += 1,
            }
        }
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {}
            _ => return Err(format!("expected , or }} after label value in {s:?}")),
        }
    }
}

/// A minimal line-oriented checker for the exposition format: every
/// line must be empty, a `# HELP`/`# TYPE` comment (with a valid name
/// and, for `TYPE`, a known metric kind), or a
/// `name[{labels}] value` sample with a grammar-valid name, well-formed
/// escaped labels, and a parseable value. Returns the 1-based line
/// number with the first violation.
pub fn check(text: &str) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        check_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
    }
    Ok(())
}

fn check_line(line: &str) -> Result<(), String> {
    if line.is_empty() {
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix("# TYPE ") {
        let mut parts = rest.splitn(2, ' ');
        let name = parts.next().unwrap_or("");
        let kind = parts.next().unwrap_or("");
        if !valid_name(name) {
            return Err(format!("invalid TYPE metric name {name:?}"));
        }
        if !matches!(
            kind,
            "counter" | "gauge" | "histogram" | "summary" | "untyped"
        ) {
            return Err(format!("unknown TYPE kind {kind:?}"));
        }
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix("# HELP ") {
        let name = rest.split(' ').next().unwrap_or("");
        if !valid_name(name) {
            return Err(format!("invalid HELP metric name {name:?}"));
        }
        return Ok(());
    }
    if line.starts_with('#') {
        // Plain comment.
        return Ok(());
    }
    // Sample line: name[{labels}] value
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| format!("no value separator in {line:?}"))?;
    let name = &line[..name_end];
    if !valid_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut rest = &line[name_end..];
    if rest.starts_with('{') {
        let consumed = check_labels(rest)?;
        rest = &rest[consumed..];
    }
    let value = rest
        .strip_prefix(' ')
        .ok_or_else(|| format!("expected space before value in {line:?}"))?;
    // Value, optionally followed by an OpenMetrics exemplar
    // (` # {labels} value`) or a timestamp (we emit the former on
    // bucket lines, never the latter, but the formats allow both).
    let mut parts = value.splitn(2, ' ');
    let value = parts.next().unwrap_or("");
    check_value(value)?;
    match parts.next() {
        None => Ok(()),
        Some(rest) => check_exemplar_or_timestamp(rest),
    }
}

fn check_value(value: &str) -> Result<(), String> {
    match value {
        "+Inf" | "-Inf" | "NaN" => Ok(()),
        v => v
            .parse::<f64>()
            .map(|_| ())
            .map_err(|_| format!("unparseable sample value {v:?}")),
    }
}

/// Validate the tail of a sample line after its value: either an
/// OpenMetrics exemplar (`# {k="v",...} value`) or a bare timestamp.
fn check_exemplar_or_timestamp(rest: &str) -> Result<(), String> {
    let Some(exemplar) = rest.strip_prefix("# ") else {
        return check_value(rest)
            .map_err(|_| format!("expected exemplar or timestamp, got {rest:?}"));
    };
    if !exemplar.starts_with('{') {
        return Err(format!("exemplar must carry a label block in {rest:?}"));
    }
    let consumed = check_labels(exemplar)?;
    let value = exemplar[consumed..]
        .strip_prefix(' ')
        .ok_or_else(|| format!("expected space before exemplar value in {rest:?}"))?;
    check_value(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("runner.sims_run"), "runner_sims_run");
        assert_eq!(
            sanitize_name("sim.stall.load-mem fill"),
            "sim_stall_load_mem_fill"
        );
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("ok:name_1"), "ok:name_1");
        assert!(valid_name(&sanitize_name("né.à/7")));
        // ':' is metric-name-only; label names must map it away.
        assert_eq!(sanitize_label_name("ok:name_1"), "ok_name_1");
        assert_eq!(sanitize_label_name("9x"), "_9x");
        assert!(valid_label_name(&sanitize_label_name("a:b.c")));
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat.us", &[10, 100]);
        for v in [5, 50, 500] {
            h.record(v);
        }
        let text = render_registries(&[("runner", &r)]);
        assert!(text.contains("# TYPE lat_us histogram"), "{text}");
        assert!(text.contains("lat_us_bucket{registry=\"runner\",le=\"10\"} 1"));
        assert!(text.contains("lat_us_bucket{registry=\"runner\",le=\"100\"} 2"));
        assert!(text.contains("lat_us_bucket{registry=\"runner\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum{registry=\"runner\"} 555"));
        assert!(text.contains("lat_us_count{registry=\"runner\"} 3"));
        // Derived quantile gauges ride along.
        assert!(text.contains("# TYPE lat_us_p50 gauge"), "{text}");
        assert!(text.contains("# TYPE lat_us_p99 gauge"), "{text}");
        check(&text).expect("renderer output passes its own checker");
    }

    #[test]
    fn one_type_line_per_family_across_registries() {
        let a = Registry::new();
        a.counter("runner.sims_run").add(3);
        let b = Registry::new();
        b.counter("runner.sims_run").add(5);
        let text = render_registries(&[("a", &a), ("b", &b)]);
        assert_eq!(text.matches("# TYPE runner_sims_run counter").count(), 1);
        assert!(text.contains("runner_sims_run{registry=\"a\"} 3"));
        assert!(text.contains("runner_sims_run{registry=\"b\"} 5"));
        check(&text).expect("valid");
    }

    #[test]
    fn sanitization_collisions_do_not_merge_kinds() {
        let a = Registry::new();
        a.counter("a.x").add(1);
        let b = Registry::new();
        b.gauge("a_x").set(2);
        let text = render_registries(&[("a", &a), ("b", &b)]);
        assert!(text.contains("# TYPE a_x counter"));
        assert!(text.contains("# TYPE a_x_gauge gauge"), "{text}");
        check(&text).expect("valid");
    }

    #[test]
    fn exemplars_decorate_exactly_one_bucket() {
        let r = Registry::new();
        let h = r.histogram("serve.query_us", &[10, 100, 1000]);
        for v in [5, 50, 500] {
            h.record(v);
        }
        let mut exposition = Exposition::new();
        exposition.add_snapshot(&r.snapshot(), &[("registry", "serve")]);
        exposition.attach_exemplar(
            "serve_query_us",
            Exemplar {
                labels: vec![("trace_id".into(), "00c0ffee00c0ffee".into())],
                value: 50.0,
            },
        );
        let text = exposition.render();
        // The 50us observation lands in the (10, 100] bucket — and only
        // there.
        assert!(
            text.contains(
                "serve_query_us_bucket{registry=\"serve\",le=\"100\"} 2 # {trace_id=\"00c0ffee00c0ffee\"} 50"
            ),
            "{text}"
        );
        assert_eq!(text.matches("# {trace_id=").count(), 1, "{text}");
        check(&text).expect("exemplar output passes the checker");
    }

    #[test]
    fn checker_accepts_exemplars_and_rejects_junk_tails() {
        assert!(check("b{le=\"10\"} 2 # {trace_id=\"abc\"} 7\n").is_ok());
        assert!(check("b{le=\"+Inf\"} 2 # {t=\"x\"} 7.5\n").is_ok());
        assert!(check("ok 1 1700000000\n").is_ok(), "bare timestamp");
        assert!(check("b 2 # notlabels 7\n").is_err());
        assert!(check("b 2 # {t=\"x\"} notanumber\n").is_err());
        assert!(check("b 2 trailing junk\n").is_err());
    }

    #[test]
    fn checker_rejects_malformed_lines() {
        assert!(check("ok_name 1\n").is_ok());
        assert!(check("ok{a=\"b\"} 2.5\n").is_ok());
        assert!(check("ok{a=\"+Inf ok\"} +Inf\n").is_ok());
        assert!(check("9bad 1\n").is_err());
        assert!(check("ok{a=\"unterminated} 1\n").is_err());
        assert!(check("ok{a=\"bad\\escape\"} 1\n").is_err());
        assert!(check("ok{=\"v\"} 1\n").is_err());
        assert!(check("ok{a:b=\"v\"} 1\n").is_err());
        assert!(check("ok notanumber\n").is_err());
        assert!(check("# TYPE ok frobnicator\n").is_err());
        assert!(check("# TYPE ok counter\n").is_ok());
        let err = check("good 1\nbad value\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
