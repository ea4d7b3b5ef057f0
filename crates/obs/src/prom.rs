//! Prometheus text exposition (format version 0.0.4) over the registry.
//!
//! Counters render as `<name>_total`, gauges under their own name;
//! histograms render with cumulative
//! `_bucket{le="..."}` lines derived from the log-scale buckets via
//! [`bucket_upper_bound`], plus `_sum` and `_count`. Metric names are
//! sanitized to the Prometheus charset (`[a-zA-Z_:][a-zA-Z0-9_:]*`), so
//! the registry's dotted names (`serve.query.us`) become underscored
//! (`serve_query_us`).

use crate::metrics::{bucket_index, bucket_upper_bound, Registry};

/// Map a registry name onto the Prometheus metric-name charset.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Append one gauge (`# TYPE` line plus a sample) to `out`. Also used by
/// the exposition endpoint for point-in-time values (in-flight queries,
/// queue depth) it derives at scrape time.
pub fn push_gauge(out: &mut String, name: &str, value: u64) {
    let name = sanitize_metric_name(name);
    out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
}

/// Render every registry metric in Prometheus text format. Registry locks
/// are only held to clone the metric handles (see
/// [`Registry::counters_snapshot`]); all formatting happens outside them.
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, counter) in registry.counters_snapshot() {
        let mut name = sanitize_metric_name(&name);
        if !name.ends_with("_total") {
            name.push_str("_total");
        }
        out.push_str(&format!(
            "# TYPE {name} counter\n{name} {}\n",
            counter.get()
        ));
    }
    for (name, level) in registry.gauges_snapshot() {
        push_gauge(&mut out, &name, level);
    }
    for (name, histogram) in registry.histograms_snapshot() {
        let name = sanitize_metric_name(&name);
        let snap = histogram.snapshot();
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        // Emit buckets up to the one holding the observed max; everything
        // above is covered by +Inf (bucket 63's finite bound is u64::MAX,
        // so it is always folded into +Inf). An empty histogram gets just
        // +Inf.
        let top = if snap.count > 0 {
            bucket_index(snap.max)
        } else {
            0
        };
        for (i, bucket) in snap.buckets.iter().enumerate().take((top + 1).min(63)) {
            cumulative += bucket;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_upper_bound(i)
            ));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
        out.push_str(&format!("{name}_sum {}\n", snap.sum));
        out.push_str(&format!("{name}_count {}\n", snap.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    /// Minimal exposition-format parser for the shapes we emit: returns
    /// `(name, labels, value)` per sample line, failing on malformed ones.
    fn parse(text: &str) -> Vec<(String, Option<String>, f64)> {
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (head, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().expect("numeric sample value");
            let (name, labels) = match head.split_once('{') {
                Some((name, rest)) => {
                    let labels = rest.strip_suffix('}').expect("closed label set");
                    (name.to_string(), Some(labels.to_string()))
                }
                None => (head.to_string(), None),
            };
            assert!(
                name.chars().enumerate().all(|(i, c)| {
                    c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
                }),
                "invalid metric name {name:?}"
            );
            samples.push((name, labels, value));
        }
        samples
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_metric_name("serve.query.us"), "serve_query_us");
        assert_eq!(sanitize_metric_name("span.execute.ns"), "span_execute_ns");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name("a:b_c1"), "a:b_c1");
    }

    #[test]
    fn counters_and_histograms_parse() {
        let r = Registry::default();
        r.counter("serve.queries").add(3);
        r.gauge("serve.conns.open").inc();
        let h = r.histogram("serve.query.us");
        for v in [1u64, 5, 5, 100, 100_000] {
            h.record(v);
        }
        let text = prometheus_text(&r);
        let samples = parse(&text);
        assert!(samples
            .iter()
            .any(|(n, l, v)| n == "serve_queries_total" && l.is_none() && *v == 3.0));
        assert!(samples
            .iter()
            .any(|(n, l, v)| n == "serve_conns_open" && l.is_none() && *v == 1.0));
        assert!(text.contains("# TYPE serve_conns_open gauge\n"));
        assert!(samples
            .iter()
            .any(|(n, _, v)| n == "serve_query_us_sum" && *v == 100_111.0));
        assert!(samples
            .iter()
            .any(|(n, _, v)| n == "serve_query_us_count" && *v == 5.0));
        // TYPE lines precede their family's samples.
        let type_pos = text.find("# TYPE serve_query_us histogram").unwrap();
        let bucket_pos = text.find("serve_query_us_bucket").unwrap();
        assert!(type_pos < bucket_pos);
    }

    #[test]
    fn buckets_are_cumulative_and_monotone() {
        let r = Registry::default();
        let h = r.histogram("lat.us");
        for v in [1u64, 2, 4, 8, 1024, 1_000_000] {
            h.record(v);
        }
        let text = prometheus_text(&r);
        let buckets: Vec<(u64, f64)> = parse(&text)
            .into_iter()
            .filter(|(n, _, _)| n == "lat_us_bucket")
            .map(|(_, labels, v)| {
                let labels = labels.expect("bucket has le label");
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|r| r.strip_suffix('"'))
                    .expect("le label shape");
                let bound = if le == "+Inf" {
                    u64::MAX
                } else {
                    le.parse().unwrap()
                };
                (bound, v)
            })
            .collect();
        assert!(buckets.len() >= 2, "multiple bucket lines");
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "bounds increase");
            assert!(pair[0].1 <= pair[1].1, "cumulative counts are monotone");
        }
        let (last_bound, last_count) = *buckets.last().unwrap();
        assert_eq!(last_bound, u64::MAX, "+Inf terminates the series");
        assert_eq!(last_count, 6.0, "+Inf bucket equals count");
    }

    #[test]
    fn empty_histogram_still_emits_a_valid_family() {
        let r = Registry::default();
        r.histogram("idle.us");
        let text = prometheus_text(&r);
        let samples = parse(&text);
        assert!(samples.iter().any(|(n, l, v)| n == "idle_us_bucket"
            && l.as_deref() == Some("le=\"+Inf\"")
            && *v == 0.0));
        assert!(samples
            .iter()
            .any(|(n, _, v)| n == "idle_us_count" && *v == 0.0));
    }
}
