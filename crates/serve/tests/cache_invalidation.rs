//! Per-table cache revalidation through the server. Cached plans embed
//! table snapshots (and materialized CTEs), so serving a stale plan after a
//! write would silently return old data — and rebuilding after a write to a
//! table the statement never read is the cost this design removes. These
//! tests drive the server over loopback, under all three strategies, and
//! check both directions: a statement stays cached across writes to other
//! tables, and is always rebuilt after a write, `CREATE INDEX` or
//! `DROP`/`CREATE` of a table it read — including tables it read only
//! inside a CTE body or an `EXISTS`, and including prepared statements and
//! other sessions.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use conquer_core::{annotate_database, ConstraintSet};
use conquer_engine::Database;
use conquer_obs::Json;
use conquer_serve::{serve, Client, QueryOutcome, ServerConfig, ServerHandle, Strategy};

const STRATEGIES: [Strategy; 3] = [Strategy::Original, Strategy::Rewritten, Strategy::Annotated];

/// `account` and `branch` carry key constraints (and, after the annotation
/// pass, a `cons` column); `scratch` is unconstrained and read by nobody.
/// Accounts a4 and a5 point at branches that do not exist yet.
const ACCOUNT_DDL: &str = "create table account (k text, br text, bal float, cons text)";
const ACCOUNT_ROWS: &str = "insert into account values
    ('a1', 'b1', 100, 'n'), ('a1', 'b1', 900, 'n'),
    ('a2', 'b2', 250, 'y'), ('a3', 'b1', 400, 'y'),
    ('a4', 'b3', 50, 'y'), ('a5', 'b4', 60, 'y')";

fn start() -> ServerHandle {
    let db = Database::new();
    db.run_script(
        "create table account (k text, br text, bal float);
         insert into account values
             ('a1', 'b1', 100), ('a1', 'b1', 900), ('a2', 'b2', 250), ('a3', 'b1', 400),
             ('a4', 'b3', 50), ('a5', 'b4', 60);
         create table branch (id text, city text);
         insert into branch values ('b1', 'x'), ('b2', 'y');
         create table scratch (note text);",
    )
    .expect("seed");
    let sigma = ConstraintSet::new()
        .with_key("account", ["k"])
        .with_key("branch", ["id"]);
    annotate_database(&db, &sigma).expect("annotate");
    serve(Arc::new(db), sigma, ServerConfig::default()).expect("bind")
}

/// Reads `account` only — under the rewritings, only inside CTE bodies.
const RICH: &str = "select k from account where bal > 300";
/// RICH with the same answer on this data but its own text, one per test
/// that looks its requests up in the shared flight recorder.
const RICH_UNRELATED: &str = "select k from account where bal > 301";
const RICH_CTE: &str = "select k from account where bal > 302";
const RICH_INDEX: &str = "select k from account where bal > 303";
/// Reads `branch` only.
const CITY_X: &str = "select id from branch where city = 'x'";
/// Reads both; a tree query, so every strategy accepts it.
const JOINED: &str = "select a.k from account a, branch b where a.br = b.id and b.city = 'x'";

fn keys(outcome: &QueryOutcome) -> Vec<String> {
    let mut keys: Vec<String> = outcome
        .rows
        .rows
        .iter()
        .map(|row| match &row[0] {
            conquer_engine::Value::Str(s) => s.to_string(),
            other => panic!("expected a text key, got {other:?}"),
        })
        .collect();
    keys.sort();
    keys
}

fn cache_stat(client: &mut Client, name: &str) -> Json {
    let stats = client.stats().expect("stats");
    stats
        .get("cache")
        .and_then(|c| c.get(name))
        .cloned()
        .unwrap_or_else(|| panic!("stats.cache.{name} missing"))
}

fn invalidations(client: &mut Client) -> u64 {
    cache_stat(client, "invalidations")
        .as_f64()
        .expect("a number") as u64
}

fn invalidated_by(client: &mut Client, table: &str) -> u64 {
    cache_stat(client, "invalidated_by")
        .get(table)
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

/// The `cache` field of the most recent flight-recorder entry for `sql`
/// from this session. The recorder is process-wide and every test's server
/// numbers its sessions from 1, so tests that read traces use SQL text no
/// other test in this binary sends.
fn last_trace_cache(client: &mut Client, sql: &str) -> String {
    let session = client.session() as f64;
    let traces = client.trace_recent(Some(1024)).expect("traces");
    let Some(Json::Arr(traces)) = traces.get("traces") else {
        panic!("trace_recent without a traces array");
    };
    let mine = traces // newest first
        .iter()
        .find(|t| {
            t.get("session").and_then(Json::as_f64) == Some(session)
                && t.get("sql") == Some(&Json::Str(sql.to_string()))
        })
        .expect("this session's trace");
    match mine.get("cache") {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("trace.cache is {other:?}"),
    }
}

#[test]
fn writes_to_unrelated_tables_leave_statements_cached() {
    let server = start();
    let mut reader = Client::connect(server.addr()).expect("connect reader");
    let mut writer = Client::connect(server.addr()).expect("connect writer");

    for strategy in STRATEGIES {
        let cold = reader
            .query_with(RICH_UNRELATED, Some(strategy))
            .expect("cold");
        assert!(!cold.cached);
        let stmt = reader
            .prepare(RICH_UNRELATED, Some(strategy))
            .expect("prepare");
        for i in 0..5 {
            // An unconstrained table nobody reads, and a constrained one
            // this statement does not read.
            writer
                .script(&format!(
                    "insert into scratch values ('n{i}');
                     insert into branch values ('u{i}', 'z', 'y')"
                ))
                .expect("unrelated insert");
            let warm = reader
                .query_with(RICH_UNRELATED, Some(strategy))
                .expect("warm");
            assert!(
                warm.cached,
                "{strategy:?}: an unrelated insert evicted the plan"
            );
            assert_eq!(last_trace_cache(&mut reader, RICH_UNRELATED), "hit");
            assert_eq!(keys(&warm), keys(&cold), "{strategy:?}");
            let bound = reader.execute(stmt).expect("execute");
            assert!(bound.cached, "{strategy:?}: prepared statement re-planned");
            assert_eq!(keys(&bound), keys(&cold), "{strategy:?}");
        }
    }
    assert_eq!(invalidations(&mut reader), 0);
    assert_eq!(cache_stat(&mut reader, "invalidated_by"), Json::Obj(vec![]));

    reader.quit().expect("quit");
    writer.quit().expect("quit");
    server.shutdown();
}

#[test]
fn writes_to_tables_read_only_in_cte_or_exists_invalidate() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");

    // Under `original` the statement runs as written, so the CTE body and
    // the EXISTS are spelled out; the rewritings read their base tables
    // from inside the Candidates/Filter CTEs and nowhere else. Each write
    // touches one table and adds exactly one row to the answer.
    let in_cte = "with rich as (select k from account where bal > 300) select k from rich";
    let in_exists = "select id from branch b where exists \
                     (select * from account a where a.br = b.id and a.bal > 300)";
    let to_account = |k: &str, br: &str| {
        (
            format!("insert into account values ('{k}', '{br}', 5000, 'y')"),
            "account",
        )
    };
    let to_branch = |id: &str| {
        (
            format!("insert into branch values ('{id}', 'x', 'y')"),
            "branch",
        )
    };
    let cases = [
        (Strategy::Original, in_cte, to_account("n1", "b1")),
        // b2 had no rich account; now it has one.
        (Strategy::Original, in_exists, to_account("n2", "b2")),
        (Strategy::Rewritten, RICH_CTE, to_account("n3", "b1")),
        (Strategy::Annotated, RICH_CTE, to_account("n4", "b1")),
        // a4's and a5's branches come into being, in city x.
        (Strategy::Rewritten, JOINED, to_branch("b3")),
        (Strategy::Annotated, JOINED, to_branch("b4")),
    ];
    for (strategy, sql, (write, table)) in cases {
        let cold = client.query_with(sql, Some(strategy)).expect("cold");
        let warm = client.query_with(sql, Some(strategy)).expect("warm");
        assert!(warm.cached, "{strategy:?} {sql}");
        let before = invalidated_by(&mut client, table);

        client.script(&write).expect("write");
        let fresh = client.query_with(sql, Some(strategy)).expect("fresh");
        assert!(!fresh.cached, "{strategy:?} {sql}: stale plan served");
        assert_eq!(
            last_trace_cache(&mut client, sql),
            format!("stale:{table}"),
            "{strategy:?} {sql}"
        );
        assert_eq!(
            fresh.rows.rows.len(),
            cold.rows.rows.len() + 1,
            "{strategy:?} {sql}: answer does not reflect `{write}`"
        );
        assert_eq!(invalidated_by(&mut client, table), before + 1);
    }

    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn dropped_and_recreated_table_never_serves_old_rows() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut other = Client::connect(server.addr()).expect("connect other");

    for strategy in STRATEGIES {
        let stmt = client.prepare(RICH, Some(strategy)).expect("prepare");
        let before = keys(&client.execute(stmt).expect("execute"));
        assert!(
            before.contains(&"a3".to_string()),
            "{strategy:?}: {before:?}"
        );

        // Same name, same schema, different rows — from another session.
        other
            .script(&format!(
                "drop table account; {ACCOUNT_DDL};
                 insert into account values ('z1', 'b1', 700, 'y')"
            ))
            .expect("recreate");
        let bound = client.execute(stmt).expect("re-execute");
        assert!(!bound.cached, "{strategy:?}: prepared plan survived a drop");
        assert_eq!(keys(&bound), vec!["z1"], "{strategy:?}");
        let queried = client.query_with(RICH, Some(strategy)).expect("query");
        assert_eq!(keys(&queried), vec!["z1"], "{strategy:?}");

        // While the table is gone the statement fails; it never falls back
        // to the rows it was planned against.
        other.script("drop table account").expect("drop");
        assert!(client.execute(stmt).is_err(), "{strategy:?}");
        assert!(client.query_with(RICH, Some(strategy)).is_err());
        other
            .script(&format!("{ACCOUNT_DDL}; {ACCOUNT_ROWS}"))
            .expect("restore");
        assert_eq!(keys(&client.execute(stmt).expect("execute")), before);
        client.close_statement(stmt).expect("close");
    }

    client.quit().expect("quit");
    other.quit().expect("quit");
    server.shutdown();
}

#[test]
fn create_index_invalidates_readers_of_that_table_only() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");

    for (i, strategy) in STRATEGIES.into_iter().enumerate() {
        for sql in [RICH_INDEX, CITY_X] {
            client.query_with(sql, Some(strategy)).expect("cold");
            assert!(client.query_with(sql, Some(strategy)).expect("warm").cached);
        }
        let before = invalidations(&mut client);
        // The key indexes were declared at start-up; each round declares a
        // new one so it is a real catalog change.
        let cols = ["bal", "br", "bal, br"][i];
        client
            .script(&format!("create index on account ({cols})"))
            .expect("create index");

        let on_branch = client.query_with(CITY_X, Some(strategy)).expect("branch");
        assert!(
            on_branch.cached,
            "{strategy:?}: index on account hit branch"
        );
        let on_account = client
            .query_with(RICH_INDEX, Some(strategy))
            .expect("account");
        assert!(
            !on_account.cached,
            "{strategy:?}: reader missed the new index"
        );
        assert_eq!(last_trace_cache(&mut client, RICH_INDEX), "stale:account");
        assert_eq!(invalidations(&mut client), before + 1);

        // Declaring the same index again changes nothing.
        client
            .script(&format!("create index on account ({cols})"))
            .expect("re-declare");
        assert!(
            client
                .query_with(RICH_INDEX, Some(strategy))
                .expect("again")
                .cached
        );
    }
    assert_eq!(invalidated_by(&mut client, "branch"), 0);

    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn reads_after_an_acknowledged_insert_always_see_it() {
    const INSERTS: usize = 40;
    let server = start();
    let addr = server.addr();

    for strategy in STRATEGIES {
        let mut setup = Client::connect(addr).expect("connect");
        let base = setup
            .query_with(RICH, Some(strategy))
            .expect("base")
            .rows
            .rows
            .len();
        let acked = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (acked, done) = (Arc::clone(&acked), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect reader");
                    let (mut last, mut reads) = (0usize, 0u64);
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let floor = base + acked.load(Ordering::Acquire);
                        let seen = client
                            .query_with(RICH, Some(strategy))
                            .expect("read")
                            .rows
                            .rows
                            .len();
                        assert!(
                            seen >= floor,
                            "{strategy:?}: read {seen} rows after {floor} were acknowledged"
                        );
                        assert!(seen >= last, "{strategy:?}: answer shrank {last} -> {seen}");
                        last = seen;
                        reads += 1;
                        if finished {
                            break;
                        }
                    }
                    client.quit().expect("quit");
                    (last, reads)
                })
            })
            .collect();

        // Each insert is a fresh consistent key above the threshold, so the
        // answer grows by one under every strategy.
        let tag = strategy.label();
        for i in 0..INSERTS {
            setup
                .script(&format!(
                    "insert into account values ('{tag}{i}', 'b1', 1000, 'y')"
                ))
                .expect("insert");
            acked.store(i + 1, Ordering::Release);
        }
        done.store(true, Ordering::Release);
        for reader in readers {
            let (last, reads) = reader.join().expect("reader");
            assert_eq!(last, base + INSERTS, "{strategy:?}: final read is behind");
            assert!(reads > 0);
        }
        setup.quit().expect("quit");
    }
    server.shutdown();
}

#[test]
fn invalidation_is_visible_across_sessions() {
    let server = start();
    let mut preparer = Client::connect(server.addr()).expect("connect preparer");
    let mut mutator = Client::connect(server.addr()).expect("connect mutator");

    let stmt = preparer
        .prepare(RICH, Some(Strategy::Rewritten))
        .expect("prepare");
    let before = keys(&preparer.execute(stmt).expect("execute"));

    // A *different* session makes a3 inconsistent: it stops being certain.
    mutator
        .script("insert into account values ('a3', 'b1', 10, 'n')")
        .expect("script");

    let after = keys(&preparer.execute(stmt).expect("re-execute"));
    assert!(before.contains(&"a3".to_string()));
    assert!(
        !after.contains(&"a3".to_string()),
        "another session's write must invalidate this session's statement, got {after:?}"
    );
    assert_eq!(invalidated_by(&mut preparer, "account"), 1);

    preparer.quit().expect("quit");
    mutator.quit().expect("quit");
    server.shutdown();
}
