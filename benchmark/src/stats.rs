//! Measurement helpers: quantiles, the order-insensitive row digest, the
//! span recorder behind `--trace`, and peak resident memory.

use std::collections::BTreeMap;
use std::time::Instant;

use conquer_engine::{Rows, Value};
use conquer_obs::Json;

/// Quantile of a **sorted** sample with linear interpolation between the
/// two ranks a fractional index falls between (the "type 7" estimator of R
/// and numpy). NaN for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sort `values` and return `percentile(values, q)`.
pub fn quantile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, q)
}

pub fn median_of(values: &mut [f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// `num / den`, the form every overhead is reported in (the paper's
/// overhead + 1): a ratio near 1.1 repeats within a tenth where an overhead
/// near 0.1 cannot.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// |a − b| over their mean: the spread `--self-check` holds against a
/// metric's bound.
pub fn relative_spread(a: f64, b: f64) -> f64 {
    let mean = (a.abs() + b.abs()) / 2.0;
    if mean == 0.0 {
        0.0
    } else {
        (a - b).abs() / mean
    }
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a result set that ignores row order but not multiplicity,
/// column order, value type or a single float bit: each row hashes on its
/// own (FNV-1a over tagged values) and the row hashes are summed.
pub fn rows_digest(rows: &Rows) -> u64 {
    let mut sum = rows.rows.len() as u64;
    for row in &rows.rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in row {
            h = match v {
                Value::Null => fnv(h, &[0]),
                Value::Bool(b) => fnv(h, &[1, u8::from(*b)]),
                Value::Int(i) => fnv(fnv(h, &[2]), &i.to_le_bytes()),
                Value::Float(f) => fnv(fnv(h, &[3]), &f.to_bits().to_le_bytes()),
                Value::Str(s) => fnv(fnv(fnv(h, &[4]), s.as_bytes()), &[0xff]),
                Value::Date(d) => fnv(fnv(h, &[5]), &d.to_le_bytes()),
            };
        }
        sum = sum.wrapping_add(h);
    }
    sum
}

/// One recorded interval. `parent` indexes into the same span list;
/// spans of one operation share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder for the benchmark's own code: `enter` before a
/// public call, `exit` after it. Nesting follows call order on one thread;
/// each thread records into its own `Tracer` and the lists are merged.
/// With `record` off it still times the interval but keeps nothing, which
/// is how the end-to-end runs measure.
pub struct Tracer {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    /// Open intervals, innermost last: (span id, start).
    stack: Vec<(usize, u64)>,
}

impl Tracer {
    pub fn new(origin: Instant, record: bool) -> Tracer {
        Tracer {
            origin,
            record,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread to record
    /// into; [`Tracer::merge`] brings its spans back.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin, self.record)
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let id = if self.record {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().map(|(id, _)| *id),
                request,
            });
            self.spans.len() - 1
        } else {
            self.stack.len()
        };
        self.stack.push((id, start_ns));
        id
    }

    /// Close the innermost open interval, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let (top, start_ns) = self.stack.pop().expect("an open span");
        assert_eq!(top, id, "spans close innermost first");
        if self.record {
            self.spans[id].end_ns = now;
        }
        now - start_ns
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("request", Json::UInt(s.request)),
            ])
        }))
    }
}

/// Per span name: how many spans, their summed duration, and their summed
/// self time — duration minus the part their direct children cover.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total.saturating_sub(children);
    }
    out
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_engine::Schema;

    #[test]
    fn percentile_is_type_7() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[100.0, 300.0], 0.5), 200.0);
        assert_eq!(percentile(&[100.0, 300.0], 0.25), 150.0);
        let ten: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(percentile(&ten, 0.0), 10.0);
        assert_eq!(percentile(&ten, 1.0), 100.0);
        assert_eq!(percentile(&ten, 0.5), 55.0);
        assert_eq!(percentile(&ten, 0.75), 77.5);
        let mut shuffled = vec![30.0, 10.0, 20.0];
        assert_eq!(median_of(&mut shuffled), 20.0);
    }

    #[test]
    fn ratio_and_spread() {
        assert_eq!(ratio(30.0, 10.0), 3.0);
        assert!(ratio(1.0, 0.0).is_nan());
        assert_eq!(relative_spread(100.0, 100.0), 0.0);
        assert!((relative_spread(95.0, 105.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_spread(0.0, 0.0), 0.0);
    }

    fn rows(data: Vec<Vec<Value>>) -> Rows {
        Rows {
            schema: Schema::new(Vec::new()),
            rows: data,
        }
    }

    #[test]
    fn digest_ignores_order_only() {
        let a = rows(vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::Float(0.5)],
        ]);
        let b = rows(vec![
            vec![Value::Int(2), Value::Float(0.5)],
            vec![Value::Int(1), Value::str("x")],
        ]);
        assert_eq!(rows_digest(&a), rows_digest(&b));
        // Multiplicity, type and column order all count.
        let dup = rows(vec![
            a.rows[0].clone(),
            a.rows[0].clone(),
            a.rows[1].clone(),
        ]);
        assert_ne!(rows_digest(&a), rows_digest(&dup));
        let typed = rows(vec![
            vec![Value::Float(1.0), Value::str("x")],
            vec![Value::Int(2), Value::Float(0.5)],
        ]);
        assert_ne!(rows_digest(&a), rows_digest(&typed));
        let swapped = rows(vec![
            vec![Value::str("x"), Value::Int(1)],
            vec![Value::Int(2), Value::Float(0.5)],
        ]);
        assert_ne!(rows_digest(&a), rows_digest(&swapped));
        assert_ne!(rows_digest(&a), rows_digest(&rows(vec![])));
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        };
        let spans = vec![
            span("request", 0, 100, None),
            span("plan", 10, 40, Some(0)),
            span("exec", 40, 90, Some(0)),
            span("scan", 45, 60, Some(2)),
            span("request", 100, 130, None),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["request"],
            SelfTime {
                count: 2,
                total_ns: 130,
                self_ns: 20 + 30
            }
        );
        assert_eq!(t["plan"].self_ns, 30);
        assert_eq!(t["exec"].self_ns, 35);
        assert_eq!(t["scan"].self_ns, 15);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true);
        let outer = a.enter("outer", 7);
        let inner = a.enter("inner", 7);
        a.exit(inner);
        a.exit(outer);
        let mut b = Tracer::new(origin, true);
        let o = b.enter("outer", 8);
        let i = b.enter("inner", 8);
        b.exit(i);
        b.exit(o);
        a.merge(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Tracer::new(origin, false);
        let outer = off.enter("outer", 1);
        let inner = off.enter("inner", 1);
        off.exit(inner);
        off.exit(outer);
        assert!(off.spans().is_empty());
    }
}
