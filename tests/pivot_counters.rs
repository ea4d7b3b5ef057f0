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
//! What that join probes is pinned too. The plain rewriting's Filter reads
//! `conq_suspects` — the candidates whose key is violated, found by the
//! typed existence kernel (like every `EXISTS` / `NOT EXISTS` of the
//! rewriting: key columns in, row ids out, nothing pivoted) with the key
//! index's conflict list as its build input — so the join
//! pivots at most two rows per violated candidate key (the injected groups
//! hold two tuples), where it used to pivot every candidate (29 374). The
//! annotated rewriting has no such CTE: its `conscand` guard does that job.
//!
//! The join queries' Filters are held to the same: for rewritten Q3, Q4,
//! Q10 and Q12 the first join of `conq_qg_filter` — candidates back to the
//! root relation, the head of the last `Key`-per-row chain of a rewriting —
//! probes exactly the suspects, and those are under half the candidates
//! (read off `EXPLAIN ANALYZE`'s per-CTE stats, the planner's CTE hook).
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
//! Every figure rewriting's final aggregate over `conq_unfiltered UNION ALL
//! conq_filtered` folds the two branches one by one and concatenates
//! nothing (`exec.agg.union_parts` / `exec.agg.union_concat`). Which plan
//! the group-key kernel took for each of Q1's grouping steps — one worker
//! where each candidate is its own group, merged partials where a few
//! groups remain — is pinned too (`exec.agg.one_worker` /
//! `exec.agg.partials`).
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

use conquer::engine::{DataType, NodeStats, Plan, Table, Value};
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
        let rewritten = rewrite(
            &parse_query(q.sql).unwrap(),
            &w.sigma,
            &RewriteOptions::default(),
        )
        .unwrap();
        let (_, _, _, ctes) =
            w.db.execute_query_traced_with_ctes(&rewritten, &ExecOptions::default())
                .unwrap();
        let cte = |name: &str| {
            ctes.iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("{}: no CTE {name} was traced", q.name()))
        };
        let candidates = cte("conq_qg_candidates").stats.rows_out;
        let suspects = cte("conq_suspects").stats.rows_out;
        let filter = cte("conq_qg_filter");
        let probes = first_join_probes(&filter.plan, &filter.stats).expect("the Filter joins");
        assert_eq!(probes, suspects, "{}: the Filter probes", q.name());
        assert!(
            0 < suspects && 2 * suspects < candidates,
            "{}: {suspects} of {candidates} candidates are suspects",
            q.name()
        );
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
    let rewritten = rewrite(
        query,
        &w.sigma,
        &RewriteOptions {
            annotated,
            ..RewriteOptions::default()
        },
    )
    .unwrap();
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
    // What the Filter join probes: the plain rewriting's suspects, at most
    // two per violated candidate key, a small share of the candidates.
    let has_suspects = rewritten.ctes.iter().any(|c| c.name == "conq_suspects");
    assert_eq!(has_suspects, !annotated);
    if has_suspects {
        let rows_of = |cte: &str| {
            w.db.execute_query_with(&cte_as_query(&rewritten, cte), &options)
                .unwrap()
                .rows
        };
        let suspects = rows_of("conq_suspects");
        let mut violated_keys = suspects.clone();
        violated_keys.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        violated_keys.dedup();
        assert_eq!(
            join.probe,
            suspects.len() as u64,
            "the join probes the suspects"
        );
        assert!(
            join.probe <= 2 * violated_keys.len() as u64,
            "{} probes for {} violated candidate keys",
            join.probe,
            violated_keys.len()
        );
        let candidates = rows_of("conq_qg_candidates").len() as u64;
        assert!(
            join.probe * 10 < candidates,
            "{} of {candidates} candidates reach the Filter",
            join.probe
        );
    }
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
/// DISTINCT, the rows it folded, and the workers it folded them on.
fn groupings(plan: &Plan, stats: &NodeStats, out: &mut Vec<(bool, u64, u64)>) {
    match plan {
        Plan::Aggregate { .. } => out.push((false, stats.build_rows, stats.threads_used)),
        Plan::Distinct { .. } => out.push((true, stats.build_rows, stats.threads_used)),
        _ => {}
    }
    for (child, child_stats) in plan.children().into_iter().zip(&stats.children) {
        groupings(child, child_stats, out);
    }
}

/// The group-key kernel's plan for each grouping step of rewritten and
/// annotated Q1 at threads 4. Where every candidate is about its own group
/// — `conq_unfiltered`'s aggregate, the candidates' DISTINCT (the annotated
/// rewriting's candidates, and its Filter, group per key too) — one worker
/// folds them; where a few groups remain — `conq_qg_cons`' DISTINCT and the
/// final GROUP BY's branch over `conq_unfiltered` — morsel-local partials
/// are merged. `exec.agg.one_worker` / `exec.agg.partials` count the two
/// plans, and `EXPLAIN ANALYZE`'s `threads=` shows which operator took
/// which.
#[test]
fn q1_groups_each_candidate_on_one_worker_and_few_groups_in_partials() {
    let _turn = turn();
    let w = fresh_workload();
    let registry = conquer_obs::registry();
    let plans = || ["exec.agg.one_worker", "exec.agg.partials"].map(|c| registry.counter(c).get());
    let q1 = parse_query(Q1.sql).unwrap();
    let options = ExecOptions::default().with_threads(4);
    for (annotated, counted) in [(false, [2, 2]), (true, [3, 2])] {
        let rewrite_options = RewriteOptions {
            annotated,
            ..RewriteOptions::default()
        };
        let rewritten = rewrite(&q1, &w.sigma, &rewrite_options).unwrap();
        let before = plans();
        let (_, plan, stats, ctes) =
            w.db.execute_query_traced_with_ctes(&rewritten, &options)
                .unwrap();
        let after = plans();
        // (a DISTINCT?, rows folded, workers) of the CTE's outermost grouping
        // step, or the final aggregate's.
        let grouping = |name: &str| {
            let mut out = Vec::new();
            match ctes.iter().find(|c| c.name == name) {
                Some(cte) => groupings(&cte.plan, &cte.stats, &mut out),
                None => groupings(&plan, &stats, &mut out),
            }
            out[0]
        };
        let what = format!("annotated={annotated}");
        for name in [
            "conq_qg_candidates",
            "conq_unfiltered",
            "conq_qg_cons",
            "final",
        ] {
            let (distinct, rows, workers) = grouping(name);
            let per_key = matches!(name, "conq_qg_candidates" | "conq_unfiltered");
            assert!(rows > 4096, "{what} {name}: {rows} rows");
            assert_eq!(workers <= 1, per_key, "{what} {name}: {workers} workers");
            assert_eq!(
                distinct,
                name == "conq_qg_cons" || name == "conq_qg_candidates" && !annotated
            );
        }
        let since = [after[0] - before[0], after[1] - before[1]];
        assert_eq!(since, counted, "{what}: (one worker, partials)");
    }
}

/// Every figure query's rewritings end in Fig. 8's shape: an aggregate over
/// `conq_unfiltered UNION ALL conq_filtered`. That aggregate folds the two
/// branches one by one (`exec.agg.union_parts`) and never concatenates them
/// (`exec.agg.union_concat`): their layouts differ — FLOAT bounds on one
/// side, the INTEGER `0` of `CASE … THEN 0` on the other — which a
/// concatenation would turn into `Any` columns folded value by value.
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
            let options = RewriteOptions {
                annotated,
                ..RewriteOptions::default()
            };
            let rewritten = rewrite(&parse_query(q.sql).unwrap(), &w.sigma, &options).unwrap();
            let before = counts();
            w.db.execute_query_with(&rewritten, &ExecOptions::default())
                .unwrap();
            let after = counts();
            let what = format!("{} annotated={annotated}", q.name());
            assert_eq!(after.0 - before.0, 1, "{what}: unions folded in parts");
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
/// probe side that a filter the kernels do not compile left row-shaped; a
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
                "{cte}select l.l_orderkey from lineitem l where l.l_quantity * 2 > 10 \
                 and exists (select f.k from f where f.k = l.l_orderkey)"
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
