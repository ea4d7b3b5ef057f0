//! Plan pretty-printing: `EXPLAIN` and `EXPLAIN ANALYZE`.
//!
//! `EXPLAIN` renders the operator tree one indented line per node, each
//! with its estimated cardinality.
//! `EXPLAIN ANALYZE` runs the plan first (via
//! [`exec::execute_plan`](crate::exec::execute_plan)) and annotates
//! each line with the measured [`NodeStats`]: rows out, inclusive wall
//! time, and operator-specific counters. [`stats_json`] renders the same
//! tree as a JSON object for machine consumers (the bench harness).
//! CTEs run at plan time, so the body's tree shows only scans of their
//! results; [`explain_analyze_ctes`] / [`ctes_json`] put one block per
//! [`CteTrace`] above it.

use conquer_obs::Json;

use crate::plan::{CteTrace, JoinType, Plan};
use crate::stats::NodeStats;

/// Render a plan as an indented operator tree with the planner's
/// cardinality estimates (`est_rows=` per operator, from
/// [`crate::cost::annotate`]) but no runtime measurements — plain
/// `EXPLAIN`.
pub fn explain_estimated(plan: &Plan, stats: &NodeStats) -> String {
    let mut out = String::new();
    walk(plan, Some(stats), false, 0, &mut out);
    out
}

/// Render a plan annotated with the runtime stats collected by
/// [`execute_plan`](crate::exec::execute_plan). The stats tree must
/// mirror the plan's shape. When the stats carry planner estimates,
/// `est_rows=` prints next to the measured `rows=` so the estimation
/// error is visible per operator.
pub fn explain_analyze(plan: &Plan, stats: &NodeStats) -> String {
    let mut out = String::new();
    walk(plan, Some(stats), true, 0, &mut out);
    out
}

/// [`explain_analyze`] with the materialized CTEs listed first, in the
/// order they ran: a `CTE <name>  (rows=… wall=… est_cost=…)` line, then
/// the CTE's own annotated tree one level in.
pub fn explain_analyze_ctes(ctes: &[CteTrace], plan: &Plan, stats: &NodeStats) -> String {
    let mut out = String::new();
    for cte in ctes {
        out.push_str(&format!(
            "CTE {}  (rows={} wall={:.3}ms est_cost={:.0})\n",
            cte.name,
            cte.stats.rows_out,
            cte.stats.wall.as_secs_f64() * 1e3,
            cte.est_cost,
        ));
        walk(&cte.plan, Some(&cte.stats), true, 1, &mut out);
    }
    walk(plan, Some(stats), true, 0, &mut out);
    out
}

fn walk(plan: &Plan, stats: Option<&NodeStats>, analyze: bool, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&node_label(plan));
    if let Some(s) = stats {
        if analyze {
            out.push_str(&format!("  (rows={}", s.rows_out));
            if let Some(est) = s.est_rows {
                out.push_str(&format!(" est_rows={est}"));
            }
            out.push_str(&format!(" wall={:.3}ms", s.wall.as_secs_f64() * 1e3));
            if s.invocations > 1 {
                out.push_str(&format!(" runs={}", s.invocations));
            }
            if s.build_rows > 0 {
                out.push_str(&format!(" build={}", s.build_rows));
            }
            if s.probe_rows > 0 {
                out.push_str(&format!(" probe={}", s.probe_rows));
            }
            if s.comparisons > 0 {
                out.push_str(&format!(" cmp={}", s.comparisons));
            }
            if s.est_mem_bytes > 0 {
                out.push_str(&format!(" mem~{}", human_bytes(s.est_mem_bytes)));
            }
            if s.threads_used > 1 {
                out.push_str(&format!(" threads={}", s.threads_used));
            }
            if s.union_parts > 0 {
                out.push_str(&format!(" parts={}", s.union_parts));
            }
            out.push(')');
        } else if let Some(est) = s.est_rows {
            out.push_str(&format!("  (est_rows={est})"));
        }
    }
    out.push('\n');
    for (i, child) in plan.children().into_iter().enumerate() {
        walk(
            child,
            stats.and_then(|s| s.children.get(i)),
            analyze,
            depth + 1,
            out,
        );
    }
}

/// A structural one-line label for an operator. Expressions are summarized
/// by count, not printed (bound expressions carry column indices, not
/// source names).
pub fn node_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { cols, schema } => {
            let name = schema
                .columns
                .first()
                .and_then(|c| c.qualifier.as_deref())
                .unwrap_or("?");
            format!("Scan {name} [{} rows, {} cols]", cols.len(), schema.len())
        }
        Plan::IndexScan {
            cols,
            schema,
            index,
            access,
        } => {
            // A conflict scan's output carries the query's aliases, not the
            // table's binding.
            let name = schema
                .columns
                .first()
                .and_then(|c| c.qualifier.as_deref())
                .unwrap_or(index.table());
            format!(
                "Scan {name} [{} rows, {} cols] access=index({} {})",
                cols.len(),
                schema.len(),
                index.col_names().join(","),
                access.label(),
            )
        }
        Plan::Unit => "Unit".to_string(),
        Plan::Filter { .. } => "Filter".to_string(),
        Plan::Project { exprs, .. } => format!("Project [{} exprs]", exprs.len()),
        Plan::Rename { schema, .. } => {
            let name = schema
                .columns
                .first()
                .and_then(|c| c.qualifier.as_deref())
                .unwrap_or("?");
            format!("Rename -> {name}")
        }
        Plan::HashJoin {
            kind,
            left_keys,
            residual,
            build_index,
            ..
        } => {
            let access = match build_index {
                Some(idx) => format!(" access=index({})", idx.col_names().join(",")),
                None => String::new(),
            };
            format!(
                "HashJoin {} [{} keys{}]{access}",
                join_kind(*kind),
                left_keys.len(),
                if residual.is_some() { " +residual" } else { "" },
            )
        }
        Plan::NestedLoopJoin { kind, on, .. } => format!(
            "NestedLoopJoin {}{}",
            join_kind(*kind),
            if on.is_some() { " [on]" } else { " [cross]" },
        ),
        Plan::Aggregate {
            group_exprs, aggs, ..
        } => {
            format!(
                "Aggregate [{} group keys, {} aggs]",
                group_exprs.len(),
                aggs.len()
            )
        }
        Plan::Distinct { .. } => "Distinct".to_string(),
        Plan::UnionAll { .. } => "UnionAll".to_string(),
        Plan::Sort { keys, .. } => format!("Sort [{} keys]", keys.len()),
        Plan::Limit { n, .. } => format!("Limit {n}"),
    }
}

fn join_kind(kind: JoinType) -> &'static str {
    match kind {
        JoinType::Inner => "Inner",
        JoinType::LeftOuter => "LeftOuter",
        JoinType::Semi => "Semi",
        JoinType::Anti => "Anti",
    }
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1}KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes}B")
    }
}

/// The annotated plan as a JSON tree:
/// `{"op", "rows_out", "rows_in", "wall_us", ..., "children": [...]}`.
pub fn stats_json(plan: &Plan, stats: &NodeStats) -> Json {
    let mut obj = Json::obj([
        ("op", Json::from(node_label(plan))),
        ("rows_out", Json::UInt(stats.rows_out)),
        ("rows_in", Json::UInt(stats.rows_in())),
        ("wall_us", Json::UInt(stats.wall.as_micros() as u64)),
        ("self_us", Json::UInt(stats.self_wall().as_micros() as u64)),
        ("invocations", Json::UInt(stats.invocations)),
    ]);
    if let Some(est) = stats.est_rows {
        obj.push("est_rows", Json::UInt(est));
    }
    if stats.build_rows > 0 {
        obj.push("build_rows", Json::UInt(stats.build_rows));
    }
    if stats.probe_rows > 0 {
        obj.push("probe_rows", Json::UInt(stats.probe_rows));
    }
    if stats.comparisons > 0 {
        obj.push("comparisons", Json::UInt(stats.comparisons));
    }
    if stats.est_mem_bytes > 0 {
        obj.push("est_mem_bytes", Json::UInt(stats.est_mem_bytes));
    }
    if stats.threads_used > 1 {
        obj.push("threads", Json::UInt(stats.threads_used));
    }
    if stats.union_parts > 0 {
        obj.push("union_parts", Json::UInt(stats.union_parts));
    }
    let children: Vec<Json> = plan
        .children()
        .into_iter()
        .zip(&stats.children)
        .map(|(p, s)| stats_json(p, s))
        .collect();
    if !children.is_empty() {
        obj.push("children", Json::Arr(children));
    }
    obj
}

/// The traced CTEs as a JSON array, in the order they ran:
/// `[{"name", "rows_out", "wall_us", "est_cost", "plan": <stats_json>}]`.
pub fn ctes_json(ctes: &[CteTrace]) -> Json {
    let entries = ctes.iter().map(|cte| {
        Json::obj([
            ("name", Json::from(cte.name.clone())),
            ("rows_out", Json::UInt(cte.stats.rows_out)),
            ("wall_us", Json::UInt(cte.stats.wall.as_micros() as u64)),
            ("est_cost", Json::Float(cte.est_cost)),
            ("plan", stats_json(&cte.plan, &cte.stats)),
        ])
    });
    Json::Arr(entries.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn demo_db() -> Database {
        let db = Database::new();
        db.run_script(
            "create table emp (id integer, dept text, salary integer);
             insert into emp values (1, 'eng', 100), (2, 'eng', 120), (3, 'ops', 90);",
        )
        .unwrap();
        db
    }

    #[test]
    fn explain_renders_operator_tree() {
        let db = demo_db();
        let text = db
            .explain("select dept, count(*) from emp where salary > 95 group by dept")
            .unwrap();
        assert!(text.contains("Aggregate"), "missing aggregate in:\n{text}");
        assert!(text.contains("Filter"), "missing filter in:\n{text}");
        assert!(
            text.contains("Scan emp [3 rows"),
            "missing scan in:\n{text}"
        );
        // Indentation reflects the tree: the scan is the deepest line.
        let scan_line = text.lines().find(|l| l.contains("Scan")).unwrap();
        assert!(scan_line.starts_with("  "), "scan not indented in:\n{text}");
    }

    #[test]
    fn explain_analyze_reports_cardinalities() {
        let db = demo_db();
        let (rows, text) = db
            .explain_analyze("select dept, count(*) from emp where salary > 95 group by dept")
            .unwrap();
        assert_eq!(rows.rows.len(), 1); // only 'eng' survives the filter
        let root = text.lines().next().unwrap();
        assert!(
            root.contains("rows=1"),
            "root cardinality wrong in:\n{text}"
        );
        let filter = text
            .lines()
            .find(|l| l.trim_start().starts_with("Filter"))
            .unwrap();
        assert!(
            filter.contains("rows=2"),
            "filter cardinality wrong in:\n{text}"
        );
    }

    #[test]
    fn stats_json_tree_matches_plan_shape() {
        let db = demo_db();
        let query =
            conquer_sql::parse_query("select e.id from emp e, emp f where e.id = f.id").unwrap();
        let plan = db.plan(&query, &Default::default()).unwrap();
        let mut stats = NodeStats::for_plan(&plan);
        let rows = crate::exec::execute_plan(&plan, None, None, 1, Some(&mut stats)).unwrap();
        assert_eq!(rows.len(), 3);
        let json = stats_json(&plan, &stats);
        assert_eq!(json.get("rows_out"), Some(&Json::UInt(3)));
        let rendered = json.render();
        assert!(rendered.contains("\"op\""), "missing op labels: {rendered}");
        assert!(
            rendered.contains("HashJoin"),
            "missing join label: {rendered}"
        );
    }
}
