//! Pins where the rewritings of Q1 and Q6 still cross the row/column
//! boundary.
//!
//! `exec.pivot.to_rows` / `exec.pivot.to_cols` count the rows every
//! `ColBatch` pivot moves, and every build row a hash join reads out of its
//! build batch's columns for a candidate pair. Since GROUP BY, DISTINCT,
//! `UNION ALL` and the computed projections of `RewriteAgg` stay columnar,
//! the *first* run of rewritten or annotated Q1 or Q6 on a freshly built
//! database pivots in exactly two places: the hash join inside
//! `conq_qg_filter` (inner, served by `lineitem`'s key index — still a
//! row-path operator: its probe side is pivoted to rows, one build row is
//! read per candidate pair, its row-shaped output goes back to columns)
//! and the final result: Q1's ≤ 4 rows, Q6's one (a global aggregate is
//! the group-key kernel's one group, a column batch like any other
//! group's). Nothing needs warming: no base table is
//! ever pivoted whole. A change that makes any other operator of the
//! rewriting pivot again moves these counters, not just a timing.
//!
//! What that join probes is pinned too. Under either strategy the Filter
//! reads the candidates as they are: they are read off `conq_rest`, the
//! rows of violated keys alone — split off by the typed existence kernel
//! against the key index's conflict list (plain; like every `EXISTS` /
//! `NOT EXISTS` of the rewriting: key columns in, row ids out, nothing
//! pivoted) or by the `cons` flags (annotated) — so the join pivots at
//! most two rows per violated candidate key (the injected groups hold two
//! tuples), where it used to pivot every candidate (29 374).
//!
//! The join queries' Filters are held to the same: for rewritten and
//! annotated Q3, Q4, Q10 and Q12 the first join of `conq_qg_filter` —
//! candidates back to the root relation, the head of the last
//! `Key`-per-row chain of a rewriting — probes exactly the candidates of
//! `conq_rest`, the suspects, under half of `conq_base`'s rows, and both
//! strategies find as many (read off `EXPLAIN ANALYZE`'s per-CTE
//! stats, the planner's CTE hook).
//!
//! `harness opbench`'s two existence-join cells pivot nothing at all: the
//! typed kernel takes key columns in and hands row ids out. Which way every
//! hash join went is counted — `exec.join.kernel` (that kernel, every
//! semi/anti join's), `exec.join.built` (postings built for the query) or
//! `index.probe` (a key index's postings) — and pinned for opbench's join
//! cells, for joins over a CTE, and for existence joins with an expression
//! key or a row-shaped probe side.
//!
//! The same warm query then pins the morsel driver's counters:
//! `exec.morsel.fanouts` / `exec.morsel.workers_spawned` are bumped in the
//! one place the executor spawns threads, so `threads = 1` — every
//! operator body called once, inline — must leave both untouched, as must
//! any input under the parallel threshold whatever the thread count. A
//! fan-out spawns one thread fewer than its workers: the calling thread
//! runs the first share itself.
//!
//! Every figure rewriting's final aggregate over `conq_pass UNION ALL
//! conq_unfiltered UNION ALL conq_filtered` folds its branches one by one
//! and concatenates nothing (`exec.agg.union_parts` /
//! `exec.agg.union_concat`). Which plan the
//! group-key kernel took for each of Q1's grouping steps — one worker where
//! each candidate is its own group, merged partials where a few groups
//! remain — is pinned too (`exec.agg.one_worker` / `exec.agg.partials`).
//!
//! The originals are held to it too where a Filter is concerned: a Filter
//! never pivots its input, so the first run of Q4's original — its
//! column-against-column predicate interpreted over `lineitem`'s batch in
//! place — pivots only its hash join's probe side and build rows, and no
//! row copy of `lineitem` is left cached in the stored batch.
//!
//! Storing a table pivots nothing at all: statistics are collected column
//! by column and an `INSERT`'s WAL record is built from the appended rows,
//! so neither `register`, `CREATE TABLE`, `INSERT` nor recovery leaves a
//! row copy of the table cached inside the table the catalog keeps. Nor
//! does building a workload: the generator, the injector and the
//! annotation pass hand whole columns to the engine.
//!
//! The counters are process-wide, so the tests take turns.

use std::sync::{Mutex, MutexGuard};

use conquer::engine::{
    explain_analyze, stats_json, DataType, GroupPlan, NodeStats, Plan, Table, Value,
};
use conquer::sql::ast::Query;
use conquer::tpch::{build_workload, Workload, WorkloadConfig, Q1, Q10, Q12, Q3, Q4, Q6};
use conquer::{parse_query, rewrite, Database, DurabilityOptions, ExecOptions, RewriteOptions};

fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn storing_and_recovering_a_table_pivots_nothing() {
    let _turn = turn();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pivot_counters_store");
    let _ = std::fs::remove_dir_all(&dir);
    let to_rows = conquer_obs::registry().counter("exec.pivot.to_rows");
    let before = to_rows.get();
    let count = |db: &Database| db.table("t").expect("t").len() + db.table("u").expect("u").len();
    {
        let db = Database::open(&dir, DurabilityOptions::default()).expect("open");
        let mut t = Table::new("t", vec![("k", DataType::Integer), ("v", DataType::Text)]);
        for i in 0..100 {
            t.push(vec![Value::Int(i), Value::str("x")]).expect("push");
        }
        db.register(t).expect("register");
        db.run_script(
            "create table u (k int, v float);
             insert into u values (1, 0.5), (2, null);
             insert into t values (100, 'y'), (101, null);",
        )
        .expect("script");
        assert_eq!(count(&db), 104);
    }
    // Once from the WAL (snapshot, create and insert records), once from
    // the segments a checkpoint folds it into.
    let db = Database::open(&dir, DurabilityOptions::default()).expect("reopen from the WAL");
    assert_eq!(count(&db), 104);
    db.checkpoint().expect("checkpoint");
    drop(db);
    let db = Database::open(&dir, DurabilityOptions::default()).expect("reopen from segments");
    assert_eq!(count(&db), 104);
    assert_eq!(to_rows.get() - before, 0, "rows pivoted while storing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loading_a_workload_pivots_nothing() {
    let _turn = turn();
    let to_rows = conquer_obs::registry().counter("exec.pivot.to_rows");
    let before = to_rows.get();
    // Generate, inject, annotate, declare the key indexes: columns in,
    // columns out, at every step.
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.002,
        annotate: true,
        ..WorkloadConfig::default()
    });
    assert!(w.injection.iter().any(|s| s.inconsistent_tuples > 0));
    assert!(w.annotation.is_some());
    assert_eq!(to_rows.get() - before, 0, "rows pivoted while loading");
}

/// Probe-side input rows, candidate pairs and output rows of every hash
/// join in the plan.
#[derive(Debug, Default)]
struct JoinRows {
    probe: u64,
    pairs: u64,
    out: u64,
}

fn join_rows(plan: &Plan, stats: &NodeStats, rows: &mut JoinRows) {
    if matches!(plan, Plan::HashJoin { .. }) {
        rows.probe += stats.probe_rows;
        rows.pairs += stats.comparisons;
        rows.out += stats.rows_out;
    }
    for (child, child_stats) in plan.children().into_iter().zip(&stats.children) {
        join_rows(child, child_stats, rows);
    }
}

/// Probe rows of the innermost join on the plan's probe-side spine: the
/// first join of a left-deep chain.
fn first_join_probes(plan: &Plan, stats: &NodeStats) -> Option<u64> {
    let deeper = plan
        .children()
        .into_iter()
        .zip(&stats.children)
        .find_map(|(child, child_stats)| first_join_probes(child, child_stats));
    deeper.or_else(|| matches!(plan, Plan::HashJoin { .. }).then_some(stats.probe_rows))
}

#[test]
fn join_rewritings_filter_probes_only_the_suspects() {
    let _turn = turn();
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.005,
        annotate: true,
        ..WorkloadConfig::default()
    });
    for q in [Q3, Q4, Q10, Q12] {
        // The two sources of "violated" — the conflict CTEs, the `cons`
        // flags — split off the same rows.
        let suspects = [false, true].map(|annotated| {
            let what = format!("{} annotated={annotated}", q.name());
            let rewritten = rewrite(
                &parse_query(q.sql).unwrap(),
                &w.sigma,
                &RewriteOptions { annotated },
            )
            .unwrap();
            let (_, _, _, ctes) =
                w.db.execute_query_traced_with_ctes(&rewritten, &ExecOptions::default())
                    .unwrap();
            let cte = |name: &str| {
                ctes.iter()
                    .find(|c| c.name == name)
                    .unwrap_or_else(|| panic!("{what}: no CTE {name} was traced"))
            };
            let base = cte("conq_base").stats.rows_out;
            let suspects = cte("conq_qg_candidates").stats.rows_out;
            let filter = cte("conq_qg_filter");
            let probes = first_join_probes(&filter.plan, &filter.stats).expect("the Filter joins");
            assert_eq!(probes, suspects, "{what}: the Filter probes");
            assert!(
                0 < suspects && 2 * suspects < base,
                "{what}: {suspects} of {base} rows' candidates are suspects"
            );
            suspects
        });
        assert_eq!(suspects[0], suspects[1], "{}: plain vs annotated", q.name());
    }
}

/// `query` cut down to the body of its CTE `name`, over the CTEs before it.
fn cte_as_query(query: &Query, name: &str) -> Query {
    let at = query
        .ctes
        .iter()
        .position(|c| c.name == name)
        .expect("the rewriting has this CTE");
    let mut cut = query.ctes[at].query.clone();
    cut.ctes = query.ctes[..at].to_vec();
    cut
}

fn fresh_workload() -> Workload {
    build_workload(&WorkloadConfig {
        scale_factor: 0.005,
        annotate: true,
        ..WorkloadConfig::default()
    })
}

/// What the first execution of a rewriting on a freshly built workload
/// moved across the row/column boundary, beside the rows of its Filter.
#[derive(Debug)]
struct FirstPass {
    /// The hash joins of `conq_qg_filter`.
    join: JoinRows,
    /// What `conq_qg_filter` stored.
    filtered: u64,
    answer: u64,
    to_rows: u64,
    to_cols: u64,
}

/// Run `query`'s rewriting once on a freshly built workload — nothing is
/// warmed first — and check what its Filter join probes.
fn first_pass(query: &Query, annotated: bool) -> FirstPass {
    let w = fresh_workload();
    let options = ExecOptions::default();
    let registry = conquer_obs::registry();
    let pivots = || {
        (
            registry.counter("exec.pivot.to_rows").get(),
            registry.counter("exec.pivot.to_cols").get(),
        )
    };
    let rewritten = rewrite(query, &w.sigma, &RewriteOptions { annotated }).unwrap();
    let before = pivots();
    let (answer, _, _, ctes) =
        w.db.execute_query_traced_with_ctes(&rewritten, &options)
            .unwrap();
    let after = pivots();
    let filter = ctes
        .iter()
        .find(|c| c.name == "conq_qg_filter")
        .expect("the rewriting has a Filter");
    let mut join = JoinRows::default();
    join_rows(&filter.plan, &filter.stats, &mut join);
    assert!(join.probe > 0, "the filter join probes the candidates");
    assert!(answer.rows.len() <= 4);
    // What the Filter join probes, under either strategy: exactly the
    // candidates — the suspects, since only the violated keys' rows reach
    // them — at most two per violated candidate key, a small share of the
    // satisfying rows (`conq_base`).
    let rows_of = |cte: &str| {
        w.db.execute_query_with(&cte_as_query(&rewritten, cte), &options)
            .unwrap()
    };
    let candidates = rows_of("conq_qg_candidates");
    let key_width = candidates
        .schema
        .columns
        .iter()
        .filter(|c| c.name.starts_with("conq_k"))
        .count();
    let mut violated_keys: Vec<String> = candidates
        .rows
        .iter()
        .map(|r| format!("{:?}", &r[..key_width]))
        .collect();
    violated_keys.sort();
    violated_keys.dedup();
    assert_eq!(
        join.probe,
        candidates.rows.len() as u64,
        "the join probes the candidates"
    );
    assert!(
        join.probe <= 2 * violated_keys.len() as u64,
        "{} probes for {} violated candidate keys",
        join.probe,
        violated_keys.len()
    );
    let satisfying = rows_of("conq_base").rows.len() as u64;
    assert!(
        join.probe * 10 < satisfying,
        "{} of {satisfying} satisfying rows reach the Filter",
        join.probe
    );
    FirstPass {
        join,
        filtered: filter.stats.rows_out,
        answer: answer.rows.len() as u64,
        to_rows: after.0 - before.0,
        to_cols: after.1 - before.1,
    }
}

#[test]
fn rewritten_q1_pivots_only_the_filter_join_and_the_result() {
    let _turn = turn();
    let q1 = parse_query(Q1.sql).unwrap();
    for annotated in [false, true] {
        // The join's probe side and one build row per candidate pair
        // column -> row, its row-shaped output back to columns at the
        // `UNION ALL`, and the grouped answer.
        let pass = first_pass(&q1, annotated);
        let JoinRows { probe, pairs, out } = pass.join;
        assert_eq!(pass.to_rows, probe + pairs + pass.answer, "{pass:?}");
        assert_eq!(pass.to_cols, out, "{pass:?}");
    }

    let w = fresh_workload();
    let options = ExecOptions::default();
    let registry = conquer_obs::registry();
    let fanned_out = |query: &Query, threads: usize| {
        let counts = || {
            (
                registry.counter("exec.morsel.fanouts").get(),
                registry.counter("exec.morsel.workers_spawned").get(),
            )
        };
        let before = counts();
        w.db.execute_query_with(query, &options.clone().with_threads(threads))
            .unwrap();
        let after = counts();
        (after.0 - before.0, after.1 - before.1)
    };
    let rewritten = rewrite(&q1, &w.sigma, &RewriteOptions::default()).unwrap();
    assert_eq!(
        fanned_out(&rewritten, 1),
        (0, 0),
        "threads = 1 spawns nothing"
    );
    let (fanouts, spawned) = fanned_out(&rewritten, 4);
    assert!(
        fanouts > 0 && spawned >= fanouts && spawned <= 3 * fanouts,
        "threads = 4 fans out to 2 to 4 workers at a time, the calling thread one of them: \
         {fanouts} fan-outs, {spawned} threads spawned"
    );
    let small = parse_query("select n_regionkey, count(*) from nation group by n_regionkey");
    assert_eq!(
        fanned_out(&small.unwrap(), 8),
        (0, 0),
        "25 rows are under the parallel threshold"
    );
}

/// The grouping operators of `plan`, outermost first: whether each is a
/// DISTINCT, and its stats.
fn groupings<'s>(plan: &Plan, stats: &'s NodeStats, out: &mut Vec<(bool, &'s NodeStats)>) {
    match plan {
        Plan::Aggregate { .. } => out.push((false, stats)),
        Plan::Distinct { .. } => out.push((true, stats)),
        _ => {}
    }
    for (child, child_stats) in plan.children().into_iter().zip(&stats.children) {
        groupings(child, child_stats, out);
    }
}

/// The group-key kernel's plan for each grouping step of rewritten and
/// annotated Q1 at threads 4. Where every candidate is about its own group
/// — `conq_unfiltered`'s aggregate, the candidates' DISTINCT — one worker
/// folds them: only the violated keys' rows (`conq_rest`) reach those, a
/// small share of the satisfying rows, under the parallel threshold here.
/// Where a few groups remain — `conq_qg_cons` and the final GROUP BY, each
/// over the unviolated keys' rows (`conq_pass`) among others — morsel-local
/// partials are merged. `exec.agg.one_worker` / `exec.agg.partials` count
/// the two plans where the kernel fans out, and each operator's stats
/// record the way it took and its groups, which `EXPLAIN ANALYZE`
/// (`threads=`, `groups=`, `way=`) and the operator JSON print.
#[test]
fn q1_groups_each_candidate_on_one_worker_and_few_groups_in_partials() {
    let _turn = turn();
    let w = fresh_workload();
    let registry = conquer_obs::registry();
    let plans = || ["exec.agg.one_worker", "exec.agg.partials"].map(|c| registry.counter(c).get());
    let q1 = parse_query(Q1.sql).unwrap();
    let options = ExecOptions::default().with_threads(4);
    for annotated in [false, true] {
        let rewrite_options = RewriteOptions { annotated };
        let rewritten = rewrite(&q1, &w.sigma, &rewrite_options).unwrap();
        let before = plans();
        let (rows, plan, stats, ctes) =
            w.db.execute_query_traced_with_ctes(&rewritten, &options)
                .unwrap();
        let after = plans();
        // (a DISTINCT?, stats) of the CTE's outermost grouping step, or the
        // final aggregate's.
        let grouping = |name: &str| {
            let mut out = Vec::new();
            match ctes.iter().find(|c| c.name == name) {
                Some(cte) => groupings(&cte.plan, &cte.stats, &mut out),
                None => groupings(&plan, &stats, &mut out),
            }
            out[0]
        };
        let what = format!("annotated={annotated}");
        let satisfying = ctes
            .iter()
            .find(|c| c.name == "conq_base")
            .expect("conq_base")
            .stats
            .rows_out;
        for name in [
            "conq_qg_candidates",
            "conq_unfiltered",
            "conq_qg_cons",
            "final",
        ] {
            let (distinct, step) = grouping(name);
            let (rows, workers) = (step.build_rows, step.threads_used);
            let per_key = matches!(name, "conq_qg_candidates" | "conq_unfiltered");
            if per_key {
                assert!(rows * 10 < satisfying, "{what} {name}: {rows} rows");
            } else {
                assert!(rows > 4096, "{what} {name}: {rows} rows");
            }
            assert_eq!(workers <= 1, per_key, "{what} {name}: {workers} workers");
            let way = if per_key {
                GroupPlan::OneWorker
            } else {
                GroupPlan::Partials
            };
            assert_eq!(step.group_plan, Some(way), "{what} {name}");
            assert_eq!(step.groups, step.rows_out, "{what} {name}: a row per group");
            // A violated key holds two tuples or more.
            assert!(
                (step.groups * 2 >= rows) == per_key,
                "{what} {name}: {} groups of {rows} rows",
                step.groups
            );
            assert_eq!(distinct, name == "conq_qg_candidates");
        }
        let since = [after[0] - before[0], after[1] - before[1]];
        assert_eq!(since, [0, 2], "{what}: (one worker, partials)");

        let groups = rows.rows.len();
        let text = explain_analyze(&plan, &stats);
        let line = text.lines().find(|l| l.contains("Aggregate")).unwrap();
        assert!(
            line.contains(&format!(" groups={groups} way=partials")),
            "{what}: {line}"
        );
        let json = stats_json(&plan, &stats).render();
        assert!(
            json.contains(&format!("\"group_plan\":\"partials\",\"groups\":{groups}")),
            "{what}: {json}"
        );
    }
}

/// Every figure query's rewritings end in Fig. 8's shape: an aggregate over
/// `conq_unfiltered UNION ALL conq_filtered`, led by the rows that pass
/// straight through (`conq_pass`). That aggregate folds the branches one by one
/// (`exec.agg.union_parts`) and never concatenates them
/// (`exec.agg.union_concat`): their layouts differ — FLOAT bounds on one
/// side, the INTEGER `0` of `CASE … THEN 0` on the other — which a
/// concatenation would turn into `Any` columns folded value by value. A
/// grouped query's `conq_qg_cons`, the groups of `conq_pass` and
/// `conq_unfiltered`, is a second such aggregate: every figure query's but
/// Q6's global sum.
#[test]
fn figure_rewritings_fold_their_final_union_in_parts() {
    let _turn = turn();
    let w = fresh_workload();
    let registry = conquer_obs::registry();
    let counts = || {
        (
            registry.counter("exec.agg.union_parts").get(),
            registry.counter("exec.agg.union_concat").get(),
        )
    };
    for q in [Q1, Q3, Q4, Q6, Q10, Q12] {
        for annotated in [false, true] {
            let options = RewriteOptions { annotated };
            let rewritten = rewrite(&parse_query(q.sql).unwrap(), &w.sigma, &options).unwrap();
            let before = counts();
            w.db.execute_query_with(&rewritten, &ExecOptions::default())
                .unwrap();
            let after = counts();
            let what = format!("{} annotated={annotated}", q.name());
            let folds = if q.number == 6 { 1 } else { 2 };
            assert_eq!(after.0 - before.0, folds, "{what}: unions folded in parts");
            assert_eq!(after.1, before.1, "{what}: a union was concatenated");
        }
    }
}

/// `harness opbench`'s `semi_join` and `anti_join` cells, executed to a
/// batch: the typed existence kernel reads both sides' key columns and
/// gathers the surviving probe rows, so nothing crosses to rows anywhere in
/// either plan — the deterministic form of "the existence join kept its
/// kernel", which opbench's timings can only suggest.
#[test]
fn opbench_existence_joins_pivot_nothing() {
    let _turn = turn();
    let w = fresh_workload();
    let registry = conquer_obs::registry();
    let pivots = || {
        registry.counter("exec.pivot.to_rows").get() + registry.counter("exec.pivot.to_cols").get()
    };
    for sql in [
        "select o.o_orderkey from orders o where exists \
         (select l.l_orderkey from lineitem l where l.l_orderkey = o.o_orderkey)",
        "select l.l_orderkey from lineitem l where not exists \
         (select o.o_orderkey from orders o where o.o_orderkey = l.l_orderkey \
          and o.o_orderstatus = 'F')",
    ] {
        let options = ExecOptions::default();
        let plan = w.db.plan(&parse_query(sql).unwrap(), &options).unwrap();
        let (before, ways) = (pivots(), join_ways());
        let out =
            conquer::engine::exec::execute_plan(&plan, None, None, options.threads, None).unwrap();
        assert_eq!(pivots() - before, 0, "rows pivoted by: {sql}");
        assert!(out.cols().is_some() && !out.is_empty(), "{sql}");
        assert_eq!(since(ways), [1, 0, 0], "the kernel, once: {sql}");
    }
}

/// `exec.join.kernel`, `exec.join.built` and `index.probe`: how many hash
/// joins ran on the typed existence kernel, on postings built for the
/// query, and on a key index's postings.
fn join_ways() -> [u64; 3] {
    let registry = conquer_obs::registry();
    ["exec.join.kernel", "exec.join.built", "index.probe"].map(|c| registry.counter(c).get())
}

/// What [`join_ways`] counted since `before`.
fn since(before: [u64; 3]) -> [u64; 3] {
    let now = join_ways();
    [0, 1, 2].map(|i| now[i] - before[i])
}

/// Every hash join counts which way it went. A side that is a CTE carries
/// no index, so an inner join over one builds its postings; every existence
/// join runs the kernel — over a CTE, with an expression key, or with a
/// probe side that a projection the kernels do not compile left row-shaped
/// (a Filter keeps a columnar input columnar); a
/// CTE probing `orders` on its key borrows the key index's postings.
#[test]
fn each_hash_join_counts_the_way_it_went() {
    let _turn = turn();
    let w = fresh_workload();
    let cte = "with f as (select o_orderkey as k from orders where o_orderstatus = 'F') ";
    for (sql, way) in [
        // `harness opbench`'s `hash_build` (`lineitem`'s key index is on
        // two columns, the join on one) and `hash_probe` cells.
        (
            "select o.o_orderkey from orders o \
             left join lineitem l on o.o_orderkey = l.l_orderkey"
                .to_string(),
            [0, 1, 0],
        ),
        (
            "select l.l_orderkey from lineitem l \
             left join orders o on l.l_orderkey = o.o_orderkey"
                .to_string(),
            [0, 0, 1],
        ),
        (
            format!("{cte}select l.l_orderkey from lineitem l join f on f.k = l.l_orderkey"),
            [0, 1, 0],
        ),
        (
            format!(
                "{cte}select l.l_orderkey from lineitem l \
                 where exists (select f.k from f where f.k = l.l_orderkey)"
            ),
            [1, 0, 0],
        ),
        (
            format!(
                "{cte}select l.l_orderkey from lineitem l \
                 where exists (select f.k from f where f.k = l.l_orderkey + 0)"
            ),
            [1, 0, 0],
        ),
        (
            format!(
                "{cte}select l.l_orderkey from \
                 (select l_orderkey, l_quantity / 2 as q from lineitem) l \
                 where exists (select f.k from f where f.k = l.l_orderkey)"
            ),
            [1, 0, 0],
        ),
        (
            format!("{cte}select f.k from f join orders o on o.o_orderkey = f.k"),
            [0, 0, 1],
        ),
    ] {
        let query = parse_query(&sql).unwrap();
        let ways = join_ways();
        let rows = w.db.execute_query_with(&query, &ExecOptions::default());
        assert!(!rows.unwrap().rows.is_empty(), "{sql}");
        assert_eq!(since(ways), way, "(kernel, built, index): {sql}");
    }
}

#[test]
fn rewritten_q6_pivots_only_the_filter_join_and_the_result() {
    let _turn = turn();
    let q6 = parse_query(Q6.sql).unwrap();
    for annotated in [false, true] {
        // The join's probe side and one build row per candidate pair — the
        // build side is `lineitem` behind its key index, never pivoted
        // whole — column -> row; the row-path Filter's survivors back to
        // columns where the CTE stores them; and the global aggregate's
        // one-row answer, a column batch until the result is handed out.
        let pass = first_pass(&q6, annotated);
        let JoinRows { probe, pairs, .. } = pass.join;
        assert_eq!(pass.answer, 1, "{pass:?}");
        assert_eq!(pass.to_rows, probe + pairs + pass.answer, "{pass:?}");
        assert_eq!(pass.to_cols, pass.filtered, "{pass:?}");
        assert!(pairs <= 2 * probe, "{pass:?}");
    }
}

/// A Filter never pivots its input, even when its predicate does not
/// compile: Q4's `l_commitdate < l_receiptdate` compares two columns, so
/// its Filter over `lineitem` interprets the predicate, reading each row of
/// the stored batch in place. The first run of Q4's original on a freshly
/// built workload then crosses to rows only in its hash join — the probe
/// side, and one build row per candidate pair — and leaves no row copy of
/// `lineitem` cached in the stored batch. `EXPLAIN ANALYZE` says how each
/// Filter evaluated: Q4's `pred=interpreted`, Q6's (a conjunction of
/// column-against-literal ranges) `pred=kernel`, and so does the operator
/// JSON.
#[test]
fn q4_original_pivots_only_its_join() {
    let _turn = turn();
    let w = fresh_workload();
    let to_rows = conquer_obs::registry().counter("exec.pivot.to_rows");
    let options = ExecOptions::default();
    let before = to_rows.get();
    let (_, plan, stats) =
        w.db.execute_query_traced(&parse_query(Q4.sql).unwrap(), &options)
            .unwrap();
    let pivoted = to_rows.get() - before;
    let mut join = JoinRows::default();
    join_rows(&plan, &stats, &mut join);
    let lineitem = w.db.table("lineitem").unwrap().len() as u64;
    assert!(join.probe < lineitem, "{join:?} of {lineitem} rows");
    assert_eq!(pivoted, join.probe + join.pairs, "{join:?}");

    for (q, way) in [(Q4, "interpreted"), (Q6, "kernel")] {
        let (_, plan, stats) =
            w.db.execute_query_traced(&parse_query(q.sql).unwrap(), &options)
                .unwrap();
        let text = explain_analyze(&plan, &stats);
        let filters: Vec<&str> = text.lines().filter(|l| l.contains("Filter")).collect();
        assert_eq!(filters.len(), 1, "{}: {text}", q.name());
        assert!(
            filters[0].contains(&format!(" pred={way})")),
            "{}: {}",
            q.name(),
            filters[0]
        );
        let json = stats_json(&plan, &stats).render();
        assert!(
            json.contains(&format!("\"pred\":\"{way}\"")),
            "{}: {json}",
            q.name()
        );
    }
}

/// A cached plan of rewritten or annotated Q3 and Q10 — what a warm server
/// executes, every CTE already materialized — crosses to rows only for
/// the rows it answers: its LIMIT's 10 / 20. The final aggregate over
/// `conq_unfiltered UNION ALL conq_filtered` stays columnar, its Sort runs
/// as a top-N over the columns and gathers only the rows the LIMIT keeps,
/// and the answer is pivoted once when it is handed out.
#[test]
fn cached_join_rewritings_pivot_only_their_limit() {
    let _turn = turn();
    let w = fresh_workload();
    let options = ExecOptions::default();
    let to_rows = conquer_obs::registry().counter("exec.pivot.to_rows");
    for (q, limit) in [(Q3, 10), (Q10, 20)] {
        for annotated in [false, true] {
            let rewriting = RewriteOptions { annotated };
            let rewritten = rewrite(&parse_query(q.sql).unwrap(), &w.sigma, &rewriting).unwrap();
            let plan = w.db.plan(&rewritten, &options).unwrap();
            let what = format!("{} annotated={annotated}", q.name());
            for run in 0..2 {
                let before = to_rows.get();
                let answer = w.db.execute_plan_with(&plan, &options).unwrap();
                let pivoted = to_rows.get() - before;
                assert_eq!(answer.rows.len(), limit, "{what}: the LIMIT is full");
                assert_eq!(pivoted, limit as u64, "{what}, run {run}: rows pivoted");
            }
        }
    }
}
