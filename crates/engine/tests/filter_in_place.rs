//! Differential suite for the Filter over a columnar input whose predicate
//! the kernels do not compile — a column compared with a column,
//! arithmetic, a function, a correlated subquery. The interpreter reads
//! each row of the batch in place, one selection vector per morsel, and the
//! passing rows are gathered: the output stays columnar and the input batch
//! is never pivoted to rows.
//!
//! Queries run on the row-at-a-time reference evaluator
//! (`conquer-reference`, the oracle) and on the engine at
//! `threads ∈ {1, 2, 8}`; answers must agree value for value and in row
//! order, errors message for message, and threads 2 and 8 must give
//! threads 1's rows in its order. Each query also pins how its Filter
//! evaluated (`NodeStats::pred`, `EXPLAIN ANALYZE`'s `pred=`) and whether
//! its input was columnar. Covered: column against column on dates,
//! integers and text, with NULLs; an `OR` holding a correlated subquery,
//! which keeps the per-row path and reads the filtered row at depth 1; a
//! value-level error on some rows, where the first erroring row in row
//! order wins; a row-limit trip, which fires at the Filter; and a Filter
//! over a row-shaped input (a left join's output), which keeps the row
//! loop. Sizes straddle the executor's 4096-row parallel threshold.

use conquer_engine::exec::execute_plan;
use conquer_engine::{
    DataType, Database, EngineError, ExecOptions, NodeStats, Plan, PredEval, ResourceLimits, Rows,
    Table, Value,
};

const THREADS: [usize; 3] = [1, 2, 8];
/// The executor's `PAR_THRESHOLD` (4 morsels of 1024 rows).
const PAR_THRESHOLD: usize = 4096;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// `v`, or NULL one time in `one_in`.
    fn nullable(&mut self, one_in: u64, v: Value) -> Value {
        if self.next().is_multiple_of(one_in) {
            Value::Null
        } else {
            v
        }
    }

    /// An integer in `-5..15`, NULL one time in `one_in`.
    fn int(&mut self, one_in: u64) -> Value {
        let v = Value::Int(self.next() as i64 % 20 - 5);
        self.nullable(one_in, v)
    }

    /// One of 40 dates, NULL one time in `one_in`.
    fn date(&mut self, one_in: u64) -> Value {
        let v = Value::Date(9_000 + self.next() as i32 % 40);
        self.nullable(one_in, v)
    }

    /// One of [`WORDS`], NULL one time in `one_in`.
    fn word(&mut self, one_in: u64) -> Value {
        let v = Value::str(WORDS[self.next() as usize % WORDS.len()]);
        self.nullable(one_in, v)
    }
}

const WORDS: [&str; 5] = ["alpha", "bravo", "", "Ünïcode", "delta"];

/// `t(id, a, b, d1, d2, s1, s2, e, f)` with `n` seeded rows: `a`, `b`
/// integers, `d1`, `d2` dates and `s1`, `s2` text, each NULL one time in
/// seven; `e` and `f` are positive integers except that `e` is `i64::MIN`
/// at row `n / 3`, where `e - 1` overflows, and `f` is 0 at row `2n / 3`,
/// where `10 / f` divides by zero.
/// `u(x, y, s)`: 30 rows over the same domains.
fn fixture(n: usize) -> Database {
    let mut rng = Lcg(0xF117 + n as u64);
    let mut t = Table::new(
        "t",
        vec![
            ("id", DataType::Integer),
            ("a", DataType::Integer),
            ("b", DataType::Integer),
            ("d1", DataType::Date),
            ("d2", DataType::Date),
            ("s1", DataType::Text),
            ("s2", DataType::Text),
            ("e", DataType::Integer),
            ("f", DataType::Integer),
        ],
    );
    for i in 0..n {
        let (a, b) = (rng.int(7), rng.int(7));
        let (d1, d2) = (rng.date(7), rng.date(7));
        let (s1, s2) = (rng.word(7), rng.word(7));
        let e = if i == n / 3 { i64::MIN } else { 1 + i as i64 };
        let f = if i == 2 * n / 3 { 0 } else { 2 + i as i64 };
        let row = vec![
            Value::Int(i as i64),
            a,
            b,
            d1,
            d2,
            s1,
            s2,
            Value::Int(e),
            Value::Int(f),
        ];
        t.push(row).expect("fixture row fits its schema");
    }
    let mut u = Table::new(
        "u",
        vec![
            ("x", DataType::Integer),
            ("y", DataType::Integer),
            ("s", DataType::Text),
        ],
    );
    for _ in 0..30 {
        let (x, y, s) = (rng.int(9), rng.int(9), rng.word(9));
        u.push(vec![x, y, s]).expect("fixture row fits its schema");
    }
    let db = Database::new();
    db.register(t).unwrap();
    db.register(u).unwrap();
    db
}

/// The outermost Filter of `plan` and its stats.
fn filter<'p>(plan: &'p Plan, stats: &'p NodeStats) -> Option<(&'p Plan, &'p NodeStats)> {
    if matches!(plan, Plan::Filter { .. }) {
        return Some((plan, stats));
    }
    let mut children = plan.children().into_iter().zip(&stats.children);
    children.find_map(|(child, child_stats)| filter(child, child_stats))
}

/// The engine's rows, or its error message.
type Answer = Result<Rows, String>;

/// `sql` on the reference and on the engine at every thread count: its
/// Filter evaluated `way` over an input that is columnar when `columnar`
/// (and then its output is columnar too); answers in the reference's order
/// when `ordered`, as bags otherwise, and threads 2 and 8 in threads 1's
/// order.
fn check(db: &Database, sql: &str, way: PredEval, columnar: bool, ordered: bool) {
    let query = conquer_sql::parse_query(sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
    let reference = conquer_reference::evaluate(db, &query).map_err(|e| e.to_string());
    let mut serial: Option<Answer> = None;
    for threads in THREADS {
        let context = format!("threads={threads}: {sql}");
        let options = ExecOptions::default().with_threads(threads);
        let got = match db.execute_query_traced(&query, &options) {
            Ok((rows, plan, stats)) => {
                let (node, node_stats) = filter(&plan, &stats).expect("the plan filters");
                assert_eq!(node_stats.pred, Some(way), "{context}");
                let Plan::Filter { input, .. } = node else {
                    unreachable!("`filter` finds Filters")
                };
                let input = execute_plan(input, None, None, threads, None).unwrap();
                assert_eq!(input.cols().is_some(), columnar, "input: {context}");
                let output = execute_plan(node, None, None, threads, None).unwrap();
                assert_eq!(output.cols().is_some(), columnar, "output: {context}");
                Ok(rows)
            }
            Err(e) => Err(e.to_string()),
        };
        match (&reference, &got) {
            (Ok(expected), Ok(rows)) => {
                if let Some(diff) = conquer_reference::diff(expected, rows, ordered) {
                    panic!("{context}: {diff}");
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{context}"),
            (a, b) => panic!("reference {a:?} vs engine {b:?}: {context}"),
        }
        match (serial.get_or_insert_with(|| got.clone()), &got) {
            (Ok(a), Ok(b)) => {
                if let Some(diff) = conquer_reference::diff(a, b, true) {
                    panic!("against threads=1: {context}: {diff}");
                }
            }
            (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "{context}"),
        }
    }
}

/// Sizes on both sides of the parallel threshold.
const SIZES: [usize; 5] = [0, 1, 300, PAR_THRESHOLD + 17, 3 * PAR_THRESHOLD];

#[test]
fn column_against_column_reads_the_batch_in_place() {
    for n in SIZES {
        let db = fixture(n);
        for sql in [
            "select id, d1 from t where d1 < d2",
            "select id from t where a <= b",
            "select id, s1 from t where s1 <> s2",
            "select id from t where a < b or s1 = s2",
            "select id from t where not (d1 >= d2) and a is not null",
            "select * from t where a + 1 > b",
            // One conjunct compiles, so the whole predicate does not.
            "select id from t where a > 3 and d1 < d2",
            "select id from t where coalesce(s1, s2) like 'a%'",
        ] {
            check(&db, sql, PredEval::Interpreted, true, true);
        }
        check(
            &db,
            "select id from t where a > 3",
            PredEval::Kernel,
            true,
            true,
        );
    }
}

#[test]
fn a_correlated_subquery_in_an_or_reads_the_filtered_row_at_depth_one() {
    for n in [300, PAR_THRESHOLD + 17] {
        let db = fixture(n);
        for sql in [
            "select id from t where a < 0 or exists \
             (select * from u where u.x > t.a and u.s = t.s1)",
            "select id from t where b > (select count(*) from u where u.x < t.a) or d1 < d2",
            "select id from t where t.a in (select u.x from u where u.y <> t.b) or t.s1 is null",
            "select id from t where d1 < d2 or not exists \
             (select * from u where u.y >= t.b and u.x <= t.a)",
        ] {
            check(&db, sql, PredEval::Interpreted, true, true);
        }
    }
}

#[test]
fn the_first_erroring_row_in_row_order_wins() {
    for n in [300, PAR_THRESHOLD + 17, 3 * PAR_THRESHOLD] {
        let db = fixture(n);
        // `e - 1` fails at row n/3, `10 / f` at row 2n/3.
        for sql in [
            "select id from t where 10 / f > -1 and e - 1 < e",
            "select id from t where e - 1 < e and 10 / f > -1",
            "select id from t where 10 / f >= 0",
            // The row that would fail is never evaluated.
            &format!("select id from t where id < {} and 10 / f >= 0", n / 2),
        ] {
            check(&db, sql, PredEval::Interpreted, true, true);
        }
        let query = conquer_sql::parse_query("select id from t where 10 / f > -1 and e - 1 < e");
        for threads in THREADS {
            let options = ExecOptions::default().with_threads(threads);
            let err = db.execute_query_with(query.as_ref().unwrap(), &options);
            let message = err.expect_err("i64::MIN - 1 overflows").to_string();
            assert!(
                message.ends_with("integer overflow"),
                "threads={threads}: {message}"
            );
        }
    }
}

#[test]
fn a_row_limit_trips_at_the_filter() {
    let n = 3 * PAR_THRESHOLD;
    let db = fixture(n);
    // The scan commits its `n` rows, the Filter (about half of them pass)
    // crosses the budget.
    let limits = ResourceLimits::unlimited().with_max_rows((n + n / 8) as u64);
    for sql in [
        "select id from t where d1 < d2 or d1 is null",
        "select id from t where a > -100",
    ] {
        for threads in THREADS {
            let options = ExecOptions::default()
                .with_threads(threads)
                .with_limits(limits);
            match db.query_with(sql, &options) {
                Err(EngineError::RowLimitExceeded(trip)) => {
                    assert_eq!(trip.operator, "filter", "threads={threads}: {sql}")
                }
                other => panic!(
                    "threads={threads}: {sql}: {:?}",
                    other.map(|r| r.rows.len())
                ),
            }
        }
    }
}

#[test]
fn a_filter_over_row_shaped_input_keeps_the_row_loop() {
    for n in [300, PAR_THRESHOLD + 17] {
        let db = fixture(n);
        for sql in [
            "select t.id, u.x from t left join u on t.a = u.x where u.y is null or t.b < u.y",
            "select t.id, u.y from t left join u on t.a = u.x where t.d1 < t.d2 and u.s <> t.s1",
        ] {
            check(&db, sql, PredEval::Interpreted, false, false);
        }
    }
}
