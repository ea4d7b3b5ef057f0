//! Server restart recovery over real loopback sockets: mutations driven
//! over the wire survive a stop/start cycle on the same `--data-dir`, both
//! through pure WAL replay and through a checkpoint, and the `stats` op
//! reports the storage section.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use conquer_core::ConstraintSet;
use conquer_engine::{Database, DurabilityOptions, SyncPolicy};
use conquer_obs::Json;
use conquer_serve::{serve, Client, ServerConfig, ServerHandle};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "conquer-serve-recovery-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open_db(dir: &Path) -> Arc<Database> {
    Arc::new(
        Database::open(
            dir,
            DurabilityOptions {
                sync: SyncPolicy::Always,
                checkpoint_wal_bytes: 0,
            },
        )
        .expect("open durable database"),
    )
}

fn start(db: Arc<Database>) -> ServerHandle {
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    serve(
        db,
        sigma,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn lookup<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn wire_mutations_survive_server_restart() {
    let dir = temp_dir("restart");

    // Boot 1: create and populate over the wire, then stop WITHOUT a
    // graceful checkpoint — recovery must come from the WAL alone.
    {
        let db = open_db(&dir);
        let server = start(Arc::clone(&db));
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .script(
                "create table t (k text, v integer);
                 insert into t values ('a', 1), ('b', 2);",
            )
            .unwrap();
        client.script("insert into t values ('c', 3)").unwrap();
        let out = client.query("select count(*) from t").unwrap();
        assert_eq!(out.rows.rows[0][0].to_string(), "3");
        server.shutdown();
        server.wait();
    }

    // Boot 2: same data dir, fresh process-equivalent. The wire sees the
    // recovered rows; write more, then checkpoint via a graceful path.
    {
        let db = open_db(&dir);
        assert_eq!(db.table_names(), vec!["t".to_string()]);
        let server = start(Arc::clone(&db));
        let mut client = Client::connect(server.addr()).unwrap();
        let out = client.query("select k from t order by k").unwrap();
        let keys: Vec<String> = out.rows.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(keys, ["a", "b", "c"]);
        client.script("insert into t values ('d', 4)").unwrap();
        server.shutdown();
        server.wait();
        db.checkpoint().unwrap();
        db.flush().unwrap();
    }

    // Boot 3: recovery now comes from segments (plus an empty WAL).
    {
        let db = open_db(&dir);
        let status = db.storage_status().expect("durable");
        assert!(status.segments > 0, "boot 3 must load from segments");
        let server = start(Arc::clone(&db));
        let mut client = Client::connect(server.addr()).unwrap();
        let out = client.query("select count(*) from t").unwrap();
        assert_eq!(out.rows.rows[0][0].to_string(), "4");
        server.shutdown();
        server.wait();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovered_indexes_build_lazily_on_first_query() {
    let dir = temp_dir("lazy-index");
    {
        let db = open_db(&dir);
        db.run_script(
            "create table t (k text, v integer);
             insert into t values ('a', 1), ('a', 2), ('b', 3)",
        )
        .unwrap();
        db.create_index("t", &["k"]).unwrap();
        // Build the postings now, so the cold boot below demonstrably
        // starts over from the declaration alone.
        db.query("select v from t where k = 'a'").unwrap();
        assert!(db.index_status()[0].2, "warm instance built its index");
        db.flush().unwrap();
    }

    // Cold boot: the declaration recovers, the postings do not — recovery
    // must stay cheap (`harness recover` measures this boot), so the
    // rebuild is deferred to the first query that plans against the table.
    let db = open_db(&dir);
    assert_eq!(
        db.index_status(),
        vec![("t".to_string(), vec!["k".to_string()], false)],
        "recovery must not eagerly rebuild index postings"
    );
    let server = start(Arc::clone(&db));
    let mut client = Client::connect(server.addr()).unwrap();
    // The `stats` op reports what a built index holds and its conflict
    // set, and never builds one to report them.
    let index_field = |stats: &Json, field: &str| match lookup(stats, "indexes") {
        Some(Json::Arr(rows)) => lookup(&rows[0], field).cloned(),
        other => panic!("indexes section missing: {other:?}"),
    };
    let cold = client.stats().unwrap();
    for field in ["bytes", "distinct_keys", "conflicts"] {
        assert_eq!(index_field(&cold, field), Some(Json::Null), "{field}");
    }
    assert!(!db.index_status()[0].2, "stats must not build the index");
    let out = client.query("select v from t where k = 'a'").unwrap();
    assert_eq!(out.rows.rows.len(), 2);
    assert!(
        db.index_status()
            .iter()
            .any(|(t, _, built)| t == "t" && *built),
        "first query over the wire triggers the lazy rebuild"
    );
    let warm = client.stats().unwrap();
    let uint = |v: Option<Json>| match v {
        Some(Json::UInt(n)) => n,
        Some(Json::Int(n)) => u64::try_from(n).expect("non-negative"),
        other => panic!("missing or mistyped: {other:?}"),
    };
    // Two distinct keys, and the bytes the index itself counts.
    assert_eq!(uint(index_field(&warm, "distinct_keys")), 2);
    let built = db.built_index("t", &["k".to_string()]).expect("built");
    assert_eq!(uint(index_field(&warm, "bytes")), built.bytes());
    assert!(built.bytes() > 0);
    // Key 'a' is held by two of the three tuples.
    let conflicts = index_field(&warm, "conflicts").expect("conflicts entry");
    for (field, want) in [("violated_keys", 1), ("tuples_in_violated_groups", 2)] {
        match lookup(&conflicts, field) {
            Some(Json::UInt(n)) => assert_eq!(*n, want, "{field}"),
            Some(Json::Int(n)) => assert_eq!(*n, want as i64, "{field}"),
            other => panic!("{field} missing or mistyped: {other:?}"),
        }
    }
    server.shutdown();
    server.wait();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stats_op_reports_storage_section() {
    let dir = temp_dir("stats");
    let db = open_db(&dir);
    let server = start(Arc::clone(&db));
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .script("create table t (k text, v integer); insert into t values ('a', 1)")
        .unwrap();
    let stats = client.stats().unwrap();
    let storage = lookup(&stats, "storage").expect("stats has a storage section");
    assert_eq!(lookup(storage, "durable"), Some(&Json::Bool(true)));
    // Numbers come back as Int after the wire roundtrip.
    match lookup(storage, "wal_bytes") {
        Some(Json::UInt(n)) => assert!(*n > 8, "mutations must grow the WAL"),
        Some(Json::Int(n)) => assert!(*n > 8, "mutations must grow the WAL"),
        other => panic!("wal_bytes missing or mistyped: {other:?}"),
    }
    server.shutdown();
    server.wait();
    drop(db);

    // A plain in-memory server reports durable: false.
    let server = start(Arc::new(Database::new()));
    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    let storage = lookup(&stats, "storage").expect("storage section present");
    assert_eq!(lookup(storage, "durable"), Some(&Json::Bool(false)));
    server.shutdown();
    server.wait();
    let _ = fs::remove_dir_all(&dir);
}
