//! One renderer per report kind, so a measured number has one home, its
//! `BENCH_*.json`: `harness <command>` prints the render of the report it
//! wrote, and `harness report` ([`update`]) writes each tracked report's
//! render into its block of EXPERIMENTS.md.

use std::path::Path;
use std::time::Duration;

use conquer_obs::Json;

/// Every tracked report, `BENCH_<report>.json`, and the command line
/// `harness all` records it with (flags given to `all` are appended, so
/// they override these). Each has a block in [`DOCUMENT`].
pub const RECORDED: [(&str, &str); 13] = [
    ("fig10", "fig10"),
    ("fig11", "fig11 --sf 0.05 --runs 9 --threads 2"),
    ("fig12", "fig12 --sf 0.05 --runs 9 --threads 2"),
    ("fig13", "fig13 --sf 0.05 --runs 9 --threads 2"),
    ("fig14", "fig14 --sf 0.05 --runs 9 --threads 2"),
    ("baseline", "baseline"),
    (
        "plancost",
        "plancost --sf 0.05 --threads 1 --cost-threshold-file crates/bench/plan_cost_thresholds.txt",
    ),
    ("opbench", "opbench --sf 0.05 --runs 3 --threads 1"),
    ("opbench_t2", "opbench --sf 0.05 --runs 3 --threads 2"),
    ("idxbench", "idxbench --sf 0.05 --runs 3 --threads 1"),
    ("load", "load --sf 0.02 --runs 5 --threads 2"),
    ("recover", "recover --sf 0.05 --threads 2"),
    (
        "serve",
        "serve --sf 0.02 --threads 2 --concurrency 2 --connections 2,64 --rounds 20 --churn-ms 20",
    ),
];

/// The document whose blocks [`update`] renders.
pub const DOCUMENT: &str = "EXPERIMENTS.md";

/// The report `r`, written as `file`: a stamp line (file, commit, machine,
/// SF, threads, runs), then its table. `None` for no known kind.
pub fn render(file: &str, r: &Json) -> Option<String> {
    let kind = match r.get("figure") {
        Some(Json::Str(kind)) => kind.as_str(),
        _ => "",
    };
    let body = match kind {
        "fig10" => table(&list(r, "queries"), FIG10),
        "fig11" => table(&list(r, "queries"), &[&[QUERY], TIMED].concat()),
        "fig12" => table(&list(r, "series"), &[&[P], TIMED].concat()),
        "fig13" => table(&list(r, "series"), &[&[N], &TIMED[..3]].concat()),
        "fig14" => table(&list(r, "series"), FIG14),
        "baseline" => table(&list(r, "series"), BASELINE),
        "plancost" => table(&list(r, "queries"), PLANCOST),
        "opbench" => table(&list(r, "operators"), OPBENCH),
        "idxbench" => table(&nested(r, "scales", "ops"), IDXBENCH),
        "load" => table(&list(r, "scales"), LOAD),
        "recover" => table(std::slice::from_ref(r), RECOVER),
        "serve" => table(&nested(r, "trajectory", "strategies"), SERVE),
        _ if r.get("traceEvents").is_some() => trace(r),
        _ => return None,
    };
    let mut stamp = format!("`{file}`");
    for col in STAMP.iter().filter(|c| at(r, c.1).is_some()) {
        stamp.push_str(&format!(" · {} {}", col.0, cell(r, col)));
    }
    Some(format!("{stamp}\n\n{body}"))
}

/// What a report was recorded on and with, where it says.
const STAMP: &[Col] = &[
    ("commit", "commit", Text),
    ("on", "machine.cpu", Text),
    ("parallelism", "machine.available_parallelism", INT),
    ("SF", "sf", Text),
    ("threads", "threads", INT),
    ("runs", "runs", INT),
];

/// Write [`render_document`] over `dir`'s [`DOCUMENT`]; on an error the
/// document is left as it was.
pub fn update(dir: &Path) -> Result<(), String> {
    let rendered = render_document(dir)?;
    std::fs::write(dir.join(DOCUMENT), rendered).map_err(|e| format!("{DOCUMENT}: {e}"))
}

/// `dir`'s [`DOCUMENT`] with each block `<!-- BENCH_<name> -->` filled
/// from `dir`'s `BENCH_<name>.json` ([`splice`]); every [`RECORDED`]
/// report must have a block.
pub fn render_document(dir: &Path) -> Result<String, String> {
    let path = dir.join(DOCUMENT);
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tracked = RECORDED.map(|(name, _)| name);
    splice(&doc, &tracked, |name| {
        let file = format!("BENCH_{name}.json");
        let text = std::fs::read_to_string(dir.join(&file))
            .map_err(|e| format!("block BENCH_{name} names {file}: {e}"))?;
        let report = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        render(&file, &report).ok_or_else(|| format!("{file}: a report of no known kind"))
    })
}

/// `doc` with the inside of every block, `<!-- BENCH_<name> -->` to
/// `<!-- /BENCH_<name> -->`, replaced by `fill(name)` between blank lines,
/// and every byte outside the blocks kept. An unclosed, stray or repeated
/// marker, a failed `fill` and a `tracked` name with no block are errors.
fn splice(
    doc: &str,
    tracked: &[&str],
    mut fill: impl FnMut(&str) -> Result<String, String>,
) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let mut seen = Vec::new();
    let mut rest = doc;
    while let Some((_, end, name, closing)) = marker(rest) {
        if closing {
            return Err(format!("<!-- /BENCH_{name} --> closes no block"));
        }
        if seen.contains(&name) {
            return Err(format!("block BENCH_{name} appears twice"));
        }
        let close = marker(&rest[end..]).filter(|m| m.2 == name);
        let Some((close_start, close_end, _, true)) = close else {
            return Err(format!("block BENCH_{name} is not closed"));
        };
        out.push_str(&rest[..end]);
        out.push_str("\n\n");
        out.push_str(&fill(name)?);
        out.push('\n');
        out.push_str(&rest[end + close_start..end + close_end]);
        rest = &rest[end + close_end..];
        seen.push(name);
    }
    out.push_str(rest);
    match tracked.iter().find(|name| !seen.contains(name)) {
        Some(name) => Err(format!("BENCH_{name}.json has no block in {DOCUMENT}")),
        None => Ok(out),
    }
}

/// The first block marker in `s`: its byte range, its name and whether it
/// closes a block.
fn marker(s: &str) -> Option<(usize, usize, &str, bool)> {
    let found = [s.find("<!-- BENCH_"), s.find("<!-- /BENCH_")];
    let start = found.into_iter().flatten().min()?;
    let closing = s[start..].starts_with("<!-- /");
    let name = start + if closing { 12 } else { 11 };
    let end = name + s[name..].find(" -->")?;
    Some((start, end + 4, &s[name..end], closing))
}

/// How a column prints the value at its path.
#[derive(Clone, Copy)]
enum Fmt {
    /// A value as it is: a string, a flag, a number as short as it prints.
    Text,
    /// A number times a scale, with so many decimals.
    Num(f64, usize),
    /// A ratio with two decimals, suffixed `x`.
    Times,
    /// The overhead of the cell at the path over the row's `original` cell,
    /// from their `median_us` ([`crate::overhead`]).
    Overhead,
}

use Fmt::{Num, Overhead, Text, Times};

const INT: Fmt = Num(1.0, 0);
const MS: Fmt = Num(1e-3, 2);

/// A column: its header, the dotted path of its value in a row's object,
/// and how the value prints.
type Col = (&'static str, &'static str, Fmt);

/// Column `col` of `row`. A missing value prints as the status of the
/// object that should hold it, if not `ok`, or else as `-`.
fn cell(row: &Json, &(_, path, fmt): &Col) -> String {
    let shown = match (fmt, at(row, path)) {
        (Text, Some(Json::Str(s))) => Some(s.clone()),
        (Text, Some(Json::Bool(b))) => Some(b.to_string()),
        (Overhead, _) => {
            let t = |p: &str| at(row, &format!("{p}.median_us"))?.as_f64();
            let us = |us: f64| Duration::from_secs_f64(us / 1e6);
            let both = t("original").zip(t(path));
            both.map(|(o, c)| format!("{:.2}x", crate::overhead(us(o), us(c))))
        }
        (_, Some(v)) => v.as_f64().map(|x| match fmt {
            Num(scale, decimals) => format!("{:.*}", decimals, x * scale),
            Times => format!("{x:.2}x"),
            _ => x.to_string(),
        }),
        _ => None,
    };
    shown.unwrap_or_else(|| {
        let holder = path.rsplit_once('.').map_or(Some(row), |(p, _)| at(row, p));
        match holder.and_then(|h| h.get("status")) {
            Some(Json::Str(status)) if status != "ok" => status.clone(),
            _ => "-".into(),
        }
    })
}

fn at<'a>(r: &'a Json, dotted: &str) -> Option<&'a Json> {
    dotted.split('.').try_fold(r, |j, key| j.get(key))
}

fn list(r: &Json, key: &str) -> Vec<Json> {
    match r.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => Vec::new(),
    }
}

/// Each object of the array `inner` of each object of the array `outer`,
/// with the outer object's fields beside its own.
fn nested(r: &Json, outer: &str, inner: &str) -> Vec<Json> {
    let mut rows = Vec::new();
    for o in list(r, outer) {
        for i in list(&o, inner) {
            if let (Json::Obj(mut fields), Json::Obj(own)) = (o.clone(), i) {
                fields.extend(own);
                rows.push(Json::Obj(fields));
            }
        }
    }
    rows
}

/// A markdown table, a row per object and a column per spec.
fn table(rows: &[Json], cols: &[Col]) -> String {
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(cols.iter().map(|c| c.0.to_string()).collect());
    out.push_str(&format!("|---|{}\n", "---:|".repeat(cols.len() - 1)));
    for row in rows {
        out.push_str(&line(cols.iter().map(|c| cell(row, c)).collect()));
    }
    out
}

const QUERY: Col = ("Query", "query", Text);
const P: Col = ("p (%)", "p", Num(100.0, 0));
const N: Col = ("n", "n", INT);

/// The three strategies' cells and the two rewritings' overheads.
const TIMED: &[Col] = &[
    ("original (ms)", "original.median_us", MS),
    ("rewritten (ms)", "rewritten.median_us", MS),
    ("annotated (ms)", "annotated.median_us", MS),
    ("overhead rewritten", "rewritten", Overhead),
    ("overhead annotated", "annotated", Overhead),
];

const FIG10: &[Col] = &[
    QUERY,
    ("Relations", "relations", INT),
    ("Selectivity", "selectivity", Text),
    ("ProjAttrs", "proj_attrs", INT),
    ("AggrAttrs", "aggr_attrs", INT),
];

const FIG14: &[Col] = &[
    ("size (× SF)", "ratio", Text),
    ("p (%)", "p", Num(100.0, 1)),
    ("tuples", "tuples", INT),
    ("Q4 (ms)", "Q4.median_us", MS),
    ("Q6 (ms)", "Q6.median_us", MS),
    ("Q12 (ms)", "Q12.median_us", MS),
];

const BASELINE: &[Col] = &[
    ("conflicting keys", "conflicting_keys", INT),
    ("repairs", "repairs", INT),
    ("oracle (ms)", "oracle_us", MS),
    ("rewriting (ms)", "rewrite_us", MS),
];

const PLANCOST: &[Col] = &[
    QUERY,
    ("original cost", "cost_original", INT),
    ("rewritten cost", "cost_rewritten", INT),
    ("ratio", "ratio", Times),
    ("threshold", "threshold", Times),
    ("status", "status", Text),
    ("materialized", "ratio_materialized", Times),
];

const OPBENCH: &[Col] = &[
    ("Operator", "op", Text),
    ("driving rows", "driving_rows", INT),
    ("ms", "us", MS),
    ("operator ms", "op_us", MS),
    ("rows/s", "rows_per_sec", INT),
];

const IDXBENCH: &[Col] = &[
    ("SF", "sf", Text),
    ("orders rows", "orders_rows", INT),
    ("op", "op", Text),
    ("seqscan (ms)", "seqscan_us", MS),
    ("indexed (ms)", "indexed_us", MS),
    ("speedup", "speedup", Times),
    ("plan uses index", "indexed_plan_uses_index", Text),
];

const LOAD: &[Col] = &[
    ("SF", "sf", Text),
    ("tuples", "tuples", INT),
    ("generate (ms)", "generate_us", MS),
    ("inject (ms)", "inject_us", MS),
    ("annotate (ms)", "annotate_us", MS),
    ("stats (ms)", "stats_collect_us", MS),
    ("first pass (ms)", "first_pass_us", MS),
    ("index builds (ms)", "index_build_us", MS),
    ("tuples/s", "tuples_per_sec", INT),
    ("column B/tuple", "bytes_per_tuple", Num(1.0, 1)),
    ("index B/tuple", "index_bytes_per_tuple", Num(1.0, 1)),
    ("peak RSS (MiB)", "peak_rss_bytes", Num(1.0 / 1048576.0, 1)),
    ("load speed-up", "load_speedup", Times),
    ("first-pass speed-up", "first_pass_speedup", Times),
];

const RECOVER: &[Col] = &[
    ("rows", "rows", INT),
    ("load (ms)", "load_us", MS),
    ("WAL (B)", "wal_bytes", INT),
    ("WAL replay (ms)", "replay_wal_us", MS),
    ("of which storage", "store_replay_wal_us", MS),
    ("checkpoint (ms)", "checkpoint_us", MS),
    ("of which storage", "store_checkpoint_us", MS),
    ("segments (B)", "segment_bytes", INT),
    ("segment load (ms)", "replay_segments_us", MS),
    ("of which storage", "store_replay_segments_us", MS),
];

const SERVE: &[Col] = &[
    ("connections", "connections", INT),
    ("churn (ms)", "churn.interval_ms", INT),
    ("inserts", "churn.inserts", INT),
    ("strategy", "strategy", Text),
    ("p50 (ms)", "p50_us", MS),
    ("p95 (ms)", "p95_us", MS),
    ("server p50 (ms)", "server_p50_us", MS),
    ("q/s", "totals.throughput_qps", INT),
    ("hit rate", "cache.post_warmup_hit_rate", Num(1.0, 3)),
    ("ping p50 (µs)", "wire_floor.ping_p50_us", Num(1.0, 1)),
];

/// A `harness trace` document: what ran, then its spans by start time,
/// indented by depth.
fn trace(r: &Json) -> String {
    let what = r.get("otherData").cloned().unwrap_or(Json::Null);
    let mut out = table(&[what], TRACE) + "\n";
    let mut spans = list(r, "traceEvents");
    let start = |e: &Json| e.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
    spans.sort_by(|a, b| start(a).total_cmp(&start(b)));
    for e in &spans {
        let depth = at(e, "args.depth").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let [name, us, thread] = SPAN.map(|col| cell(e, &col));
        out.push_str(&format!(
            "{:1$}{name} {us} µs (thread {thread})\n",
            "",
            2 * depth
        ));
    }
    out
}

const TRACE: &[Col] = &[
    ("strategy", "strategy", Text),
    ("status", "status", Text),
    ("µs", "elapsed_us", INT),
    ("rows", "rows_out", INT),
    ("workers", "worker_spans", INT),
    ("SQL", "sql", Text),
];

const SPAN: [Col; 3] = [("", "name", Text), ("", "dur", INT), ("", "tid", INT)];

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "# Title\n\nProse.\n<!-- BENCH_a -->\nold a\n<!-- /BENCH_a -->\nmiddle <!-- a comment -->\n<!-- BENCH_b --><!-- /BENCH_b -->\ntail";

    fn fill(name: &str) -> Result<String, String> {
        Ok(format!("table {name}\n"))
    }

    #[test]
    fn blocks_are_filled_and_the_text_around_them_kept() {
        let out = splice(DOC, &["a", "b"], fill).unwrap();
        let expected = "# Title\n\nProse.\n<!-- BENCH_a -->\n\ntable a\n\n<!-- /BENCH_a -->\nmiddle <!-- a comment -->\n<!-- BENCH_b -->\n\ntable b\n\n<!-- /BENCH_b -->\ntail";
        assert_eq!(out, expected);
        assert_eq!(
            splice(&out, &["a", "b"], fill).unwrap(),
            out,
            "a second render changes nothing"
        );
    }

    #[test]
    fn a_faulty_document_is_an_error_naming_the_block() {
        let cases = [
            ("<!-- BENCH_a -->\nno end", "block BENCH_a is not closed"),
            (
                "<!-- BENCH_a -->\n<!-- BENCH_b --><!-- /BENCH_b --><!-- /BENCH_a -->",
                "block BENCH_a is not closed",
            ),
            (
                "<!-- BENCH_a --><!-- /BENCH_b -->",
                "block BENCH_a is not closed",
            ),
            ("x <!-- /BENCH_a -->", "<!-- /BENCH_a --> closes no block"),
            (
                "<!-- BENCH_a --><!-- /BENCH_a --><!-- BENCH_a --><!-- /BENCH_a -->",
                "block BENCH_a appears twice",
            ),
            (
                "<!-- BENCH_a --><!-- /BENCH_a -->",
                "BENCH_b.json has no block",
            ),
        ];
        for (doc, error) in cases {
            let got = splice(doc, &["a", "b"], fill).unwrap_err();
            assert!(got.contains(error), "{doc:?}: {got}");
        }
        let missing = splice(DOC, &[], |name| Err(format!("no file for {name}")));
        assert_eq!(missing.unwrap_err(), "no file for a");
    }

    #[test]
    fn update_leaves_a_document_it_cannot_render_as_it_was() {
        let dir = std::env::temp_dir().join(format!("conquer-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(DOCUMENT);
        for (doc, error) in [
            (
                "<!-- BENCH_fig10 -->\nold\n",
                "block BENCH_fig10 is not closed",
            ),
            (
                "<!-- BENCH_fig10 -->\nold\n<!-- /BENCH_fig10 -->\n",
                "block BENCH_fig10 names BENCH_fig10.json",
            ),
        ] {
            std::fs::write(&path, doc).unwrap();
            let got = update(&dir).unwrap_err();
            assert!(got.contains(error), "{got}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), doc);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_kind_renders_a_report_missing_its_fields() {
        let kinds = [
            "fig10", "fig11", "fig12", "fig13", "fig14", "baseline", "plancost", "opbench",
            "idxbench", "load", "recover", "serve",
        ];
        for kind in kinds {
            let out = render("BENCH_x.json", &Json::obj([("figure", Json::from(kind))])).unwrap();
            assert!(out.starts_with("`BENCH_x.json`\n\n| "), "{kind}: {out}");
        }
        let trace = Json::obj([("traceEvents", Json::arr([Json::Null]))]);
        assert!(render("BENCH_trace.json", &trace).is_some());
        assert!(render("x", &Json::obj([("figure", Json::from("fig99"))])).is_none());
        assert!(render("x", &Json::Null).is_none());
    }

    #[test]
    fn cells_show_the_status_a_failed_run_ended_with() {
        let ok = Json::obj([
            ("status", Json::from("ok")),
            ("median_us", Json::UInt(2500)),
        ]);
        let q = Json::obj([
            ("query", Json::from("Q1")),
            ("original", ok),
            ("rewritten", Json::obj([("status", Json::from("timeout"))])),
        ]);
        let r = Json::obj([("figure", Json::from("fig11")), ("queries", Json::arr([q]))]);
        let out = render("f", &r).unwrap();
        assert!(
            out.ends_with("| Q1 | 2.50 | timeout | - | - | - |\n"),
            "{out}"
        );
    }
}
