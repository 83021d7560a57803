//! Metrics registry: counters, gauges and log-bucketed histograms.
//!
//! The flight-recorder journal (see [`crate::journal`]) answers *what
//! happened*; this module answers *how often* and *how large*. A
//! [`MetricsRegistry`] holds three families of instruments keyed by
//! name — monotone counters, last-value gauges and [`Histogram`]s with
//! log-spaced buckets (cap-violation magnitude, actuation retry
//! latency, heartbeat jitter, wall-clock self-profiling spans) — and
//! renders them in two expositions: Prometheus text format for humans
//! and scrapers, and a JSON object that the experiment harness merges
//! into `BENCH_harness.json`.
//!
//! Names may carry Prometheus-style labels rendered inline by
//! [`prom_label`] (e.g. `events_total{kind="safe_mode"}`); the
//! exposition code splits the label block back off when grouping
//! `# TYPE` lines. The build is offline (no serialization crate), so
//! the JSON exposition is hand-rolled: [`MetricsRegistry::to_json`]
//! emits a stable document, written and never read back.

use std::collections::BTreeMap;

/// A histogram with precomputed, strictly increasing bucket boundaries.
///
/// Bucket `0` is the underflow bucket (`v < boundaries[0]`), bucket `i`
/// for `1 <= i < boundaries.len()` holds `boundaries[i-1] <= v <
/// boundaries[i]`, and the last bucket is the overflow
/// (`v >= boundaries.last()`). Every finite sample therefore lands in
/// exactly one bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    boundaries: Vec<f64>,
    buckets: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Builds a histogram whose `count` boundaries start at `lo` and
    /// grow geometrically by `growth` (`lo`, `lo*growth`,
    /// `lo*growth^2`, …). Boundaries are produced by iterated
    /// multiplication, not logarithms, so they are exact and the layout
    /// is bit-reproducible.
    ///
    /// # Panics
    ///
    /// When `lo <= 0`, `growth <= 1` or `count == 0` — a log-spaced
    /// layout needs a positive start and strictly increasing edges.
    pub fn log_bucketed(lo: f64, growth: f64, count: usize) -> Self {
        assert!(lo > 0.0, "log buckets need a positive start");
        assert!(growth > 1.0, "log buckets need growth > 1");
        assert!(count > 0, "a histogram needs at least one boundary");
        let mut boundaries = Vec::with_capacity(count);
        let mut edge = lo;
        for _ in 0..count {
            boundaries.push(edge);
            edge *= growth;
        }
        Self {
            buckets: vec![0; boundaries.len() + 1],
            boundaries,
            sum: 0.0,
            count: 0,
        }
    }

    /// The registry-wide default layout: 48 doubling buckets from
    /// `1e-6`, covering microseconds-to-days of latency and
    /// milliwatts-to-megawatts of violation magnitude in one shape.
    pub fn default_layout() -> Self {
        Self::log_bucketed(1e-6, 2.0, 48)
    }

    /// Index of the single bucket `v` falls into (see the type docs for
    /// the boundary convention).
    pub fn bucket_for(&self, v: f64) -> usize {
        self.boundaries.partition_point(|&b| b <= v)
    }

    /// Records one sample.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bucket_for(v);
        self.buckets[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// The strictly increasing bucket boundaries.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Per-bucket sample counts (`boundaries().len() + 1` entries:
    /// underflow, the inner buckets, overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the recorded samples, or `None` before the first one.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Counters, gauges and histograms keyed by (optionally labeled) name.
///
/// All maps are `BTreeMap`s so both expositions are deterministically
/// ordered — the Prometheus golden test and the smoke-digest CI check
/// rely on that.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter `name` by one, creating it at zero first.
    pub fn inc(&mut self, name: &str) {
        self.inc_by(name, 1);
    }

    /// Increments the counter `name` by `by`, creating it at zero first.
    /// Allocates the key only on first touch, keeping repeated
    /// increments allocation-free on the emission hot path.
    pub fn inc_by(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Current value of the counter `name` (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `v` (last write wins). Allocates the key
    /// only on first touch.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Current value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into the histogram `name`, creating it with the
    /// [`Histogram::default_layout`] on first use.
    pub fn observe(&mut self, name: &str, v: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::default_layout();
            h.observe(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Registers (or replaces) the histogram `name` with a custom
    /// layout; later [`Self::observe`] calls reuse it.
    pub fn register_histogram(&mut self, name: &str, histogram: Histogram) {
        self.histograms.insert(name.to_string(), histogram);
    }

    /// The histogram `name`, if any sample (or layout) was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates the counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates the gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates the histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when no instrument has ever been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value, histogram samples accumulate bucket-wise when the layouts
    /// match (mismatched layouts take `other`'s histogram whole).
    pub fn merge(&mut self, other: &Self) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) if mine.boundaries == h.boundaries => {
                    for (b, add) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *b += add;
                    }
                    mine.sum += h.sum;
                    mine.count += h.count;
                }
                _ => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// one `# TYPE` line per metric family (the name before any label
    /// block), then one sample line per instrument, everything in
    /// lexicographic name order. Histograms render cumulative
    /// `_bucket{le="…"}` lines plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (key, value) in &self.counters {
            let (family, labels) = split_labels(key);
            let family = sanitize_name(family);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} counter\n"));
                last_family = family.clone();
            }
            out.push_str(&format!("{family}{labels} {value}\n"));
        }
        last_family.clear();
        for (key, value) in &self.gauges {
            let (family, labels) = split_labels(key);
            let family = sanitize_name(family);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} gauge\n"));
                last_family = family.clone();
            }
            out.push_str(&format!("{family}{labels} {value}\n"));
        }
        last_family.clear();
        for (key, hist) in &self.histograms {
            let (family, labels) = split_labels(key);
            let family = sanitize_name(family);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} histogram\n"));
                last_family = family.clone();
            }
            let inner = labels
                .strip_prefix('{')
                .and_then(|l| l.strip_suffix('}'))
                .unwrap_or("");
            let mut cumulative = 0u64;
            for (edge, bucket) in hist.boundaries.iter().zip(&hist.buckets) {
                cumulative += bucket;
                out.push_str(&format!(
                    "{family}_bucket{} {cumulative}\n",
                    bucket_labels(inner, &format!("{edge}"))
                ));
            }
            out.push_str(&format!(
                "{family}_bucket{} {}\n",
                bucket_labels(inner, "+Inf"),
                hist.count
            ));
            out.push_str(&format!("{family}_sum{labels} {}\n", hist.sum));
            out.push_str(&format!("{family}_count{labels} {}\n", hist.count));
        }
        out
    }

    /// Renders the registry as a JSON object with `counters`, `gauges`
    /// and `histograms` sections, stable in name order. The output is
    /// shaped for direct use as a `BENCH_harness.json` section value.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n    \"counters\": {");
        push_json_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n    \"gauges\": {");
        push_json_map(&mut out, self.gauges.iter().map(|(k, v)| (k, json_num(*v))));
        out.push_str("},\n    \"histograms\": {");
        push_json_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                let bounds: Vec<String> = h.boundaries.iter().map(|b| json_num(*b)).collect();
                let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                let body = format!(
                    "{{\"boundaries\": [{}], \"buckets\": [{}], \"sum\": {}, \"count\": {}}}",
                    bounds.join(", "),
                    buckets.join(", "),
                    json_num(h.sum),
                    h.count
                );
                (k, body)
            }),
        );
        out.push_str("}\n  }");
        out
    }
}

/// Formats `name{k="v",…}` with Prometheus label-value escaping
/// (backslash, double quote and newline are escaped). With no labels
/// the bare name is returned.
pub fn prom_label(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for ch in value.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(ch),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits `name{labels}` into `(name, "{labels}")`; the label part is
/// empty when the key carries none.
fn split_labels(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(idx) => (&key[..idx], &key[idx..]),
        None => (key, ""),
    }
}

/// Maps a metric family name onto the Prometheus charset
/// (`[a-zA-Z0-9_:]`); anything else becomes `_`.
fn sanitize_name(family: &str) -> String {
    family
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Joins existing label content with the `le` bucket label.
fn bucket_labels(inner: &str, le: &str) -> String {
    if inner.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{{{inner},le=\"{le}\"}}")
    }
}

/// Renders an f64 as a JSON-compatible number via `Display` (Rust's
/// shortest round-tripping decimal form, never scientific notation).
fn json_num(v: f64) -> String {
    format!("{v}")
}

/// Appends `"key": value` pairs (values are raw JSON text) to `out`.
fn push_json_map<'a>(out: &mut String, pairs: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (key, value) in pairs {
        if first {
            out.push('\n');
            first = false;
        } else {
            out.push_str(",\n");
        }
        out.push_str(&format!("      \"{}\": {value}", json_escape(key)));
    }
    if !first {
        out.push_str("\n    ");
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_basic() {
        let mut m = MetricsRegistry::new();
        m.inc("polls_total");
        m.inc_by("polls_total", 2);
        m.set_gauge("cap_w", 80.0);
        m.set_gauge("cap_w", 75.0);
        assert_eq!(m.counter("polls_total"), 3);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("cap_w"), Some(75.0));
    }

    #[test]
    fn histogram_buckets_partition_the_line() {
        let h = Histogram::log_bucketed(1.0, 2.0, 4); // edges 1,2,4,8
        assert_eq!(h.bucket_for(0.5), 0, "underflow");
        assert_eq!(h.bucket_for(1.0), 1, "left edge is inclusive above");
        assert_eq!(h.bucket_for(1.9), 1);
        assert_eq!(h.bucket_for(2.0), 2);
        assert_eq!(h.bucket_for(7.9), 3);
        assert_eq!(h.bucket_for(8.0), 4, "overflow");
        assert_eq!(h.buckets().len(), h.boundaries().len() + 1);
    }

    #[test]
    fn histogram_observe_accumulates() {
        let mut h = Histogram::log_bucketed(1.0, 2.0, 3);
        for v in [0.5, 1.5, 1.6, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.6).abs() < 1e-9);
        assert_eq!(h.buckets(), &[1, 2, 1, 1]);
        assert!((h.mean().unwrap() - 21.32).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters_and_histogram_buckets() {
        let mut a = MetricsRegistry::new();
        a.inc("x");
        a.observe("h", 1.5);
        let mut b = MetricsRegistry::new();
        b.inc_by("x", 4);
        b.observe("h", 2.5);
        b.set_gauge("g", 7.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.gauge("g"), Some(7.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn prometheus_golden() {
        let mut m = MetricsRegistry::new();
        m.inc_by("events_total{kind=\"arrival\"}", 2);
        m.inc_by("events_total{kind=\"poll\"}", 7);
        m.inc("retries_total");
        m.set_gauge("cap_w", 80.0);
        m.register_histogram("lat_seconds", Histogram::log_bucketed(0.001, 10.0, 3));
        m.observe("lat_seconds", 0.0005);
        m.observe("lat_seconds", 0.02);
        let got = m.to_prometheus();
        let want = "\
# TYPE events_total counter
events_total{kind=\"arrival\"} 2
events_total{kind=\"poll\"} 7
# TYPE retries_total counter
retries_total 1
# TYPE cap_w gauge
cap_w 80
# TYPE lat_seconds histogram
lat_seconds_bucket{le=\"0.001\"} 1
lat_seconds_bucket{le=\"0.01\"} 1
lat_seconds_bucket{le=\"0.1\"} 2
lat_seconds_bucket{le=\"+Inf\"} 2
lat_seconds_sum 0.0205
lat_seconds_count 2
";
        assert_eq!(got, want);
    }

    #[test]
    fn prometheus_escapes_label_values_and_sanitizes_names() {
        let name = prom_label("odd.family", &[("what", "a\"b\\c\nd")]);
        let mut m = MetricsRegistry::new();
        m.inc(&name);
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE odd_family counter"), "{text}");
        assert!(
            text.contains("odd_family{what=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn labeled_histograms_merge_le_into_the_label_block() {
        let mut m = MetricsRegistry::new();
        m.register_histogram(
            &prom_label("span_seconds", &[("name", "plan")]),
            Histogram::log_bucketed(0.001, 10.0, 2),
        );
        m.observe(&prom_label("span_seconds", &[("name", "plan")]), 0.005);
        let text = m.to_prometheus();
        assert!(
            text.contains("span_seconds_bucket{name=\"plan\",le=\"0.01\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("span_seconds_sum{name=\"plan\"} 0.005"),
            "{text}"
        );
    }

    #[test]
    fn json_golden() {
        let mut m = MetricsRegistry::new();
        m.inc_by("events_total{kind=\"safe_mode\"}", 3);
        m.inc("knob_writes_total");
        m.set_gauge("journal_len", 128.0);
        m.set_gauge("frac", 0.123456789);
        m.register_histogram("lat_seconds", Histogram::log_bucketed(0.001, 10.0, 3));
        m.observe("lat_seconds", 0.0005);
        m.observe("lat_seconds", 0.02);
        let want = r#"{
    "counters": {
      "events_total{kind=\"safe_mode\"}": 3,
      "knob_writes_total": 1
    },
    "gauges": {
      "frac": 0.123456789,
      "journal_len": 128
    },
    "histograms": {
      "lat_seconds": {"boundaries": [0.001, 0.01, 0.1], "buckets": [1, 0, 1, 0], "sum": 0.0205, "count": 2}
    }
  }"#;
        assert_eq!(m.to_json(), want);
    }

    proptest::proptest! {
        /// Log-bucketed boundaries are strictly increasing for any
        /// legal layout.
        #[test]
        fn prop_boundaries_are_monotone(
            lo in 1e-9f64..1e3,
            growth in 1.01f64..16.0,
            count in 1usize..64,
        ) {
            let h = Histogram::log_bucketed(lo, growth, count);
            let b = h.boundaries();
            proptest::prop_assert_eq!(b.len(), count);
            for w in b.windows(2) {
                proptest::prop_assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
            }
        }

        /// Every finite sample lands in exactly one bucket: `bucket_for`
        /// agrees with a brute-force scan of the interval convention,
        /// and observing increments exactly that bucket.
        #[test]
        fn prop_every_sample_lands_in_exactly_one_bucket(
            lo in 1e-6f64..10.0,
            growth in 1.1f64..8.0,
            count in 1usize..32,
            sample in -1e9f64..1e9,
        ) {
            let mut h = Histogram::log_bucketed(lo, growth, count);
            let idx = h.bucket_for(sample);
            let b = h.boundaries().to_vec();
            let matches: Vec<usize> = (0..=b.len())
                .filter(|&i| {
                    let above_left = i == 0 || sample >= b[i - 1];
                    let below_right = i == b.len() || sample < b[i];
                    above_left && below_right
                })
                .collect();
            proptest::prop_assert_eq!(&matches, &vec![idx]);
            h.observe(sample);
            let mut want = vec![0u64; b.len() + 1];
            want[idx] = 1;
            proptest::prop_assert_eq!(h.buckets(), want.as_slice());
            proptest::prop_assert_eq!(h.count(), 1);
        }
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert_eq!(
            m.to_json(),
            "{\n    \"counters\": {},\n    \"gauges\": {},\n    \"histograms\": {}\n  }"
        );
        assert_eq!(m.to_prometheus(), "");
    }
}
