//! The durable side: loading a database into a data directory, the churn
//! insert, the storage counters, and crash recovery with its checks.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use conquer_engine::{Database, DurabilityOptions, Value};
use conquer_tpch::rng::StdRng;

use crate::workload::Tally;

/// The table the churn writer inserts into: read by no benchmark query, so
/// any effect of an insert on a read is the catalog epoch's doing.
pub const CHURN_DDL: &str = "create table churn_log (id integer, tag text, amount float)";

/// Rows one insert script appends.
pub const ROWS_PER_INSERT: u64 = 8;

/// The next churn script: eight rows with consecutive ids from `*next_id`
/// and amounts drawn from `rng`.
pub fn insert_sql(next_id: &mut u64, rng: &mut StdRng) -> String {
    let mut sql = String::from("insert into churn_log values ");
    for i in 0..ROWS_PER_INSERT {
        if i > 0 {
            sql.push_str(", ");
        }
        let cents: i64 = rng.gen_range(0..1_000_000i64);
        sql.push_str(&format!(
            "({}, 't{}', {}.{:02})",
            *next_id,
            cents % 7,
            cents / 100,
            cents % 100
        ));
        *next_id += 1;
    }
    sql
}

pub struct Loaded {
    pub db: Database,
    pub load_us: f64,
    pub checkpoint_us: f64,
}

/// Open a fresh data directory under the default durability options
/// (`SyncPolicy::Always`), register every table of `src` (and `churn_log`,
/// unless `src` has one), then checkpoint so the WAL restarts empty.
pub fn load(dir: &Path, src: &Database) -> Loaded {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let db = Database::open(dir, DurabilityOptions::default()).expect("open data directory");
    for name in src.table_names() {
        let table = src.table(&name).expect("listed table exists");
        db.register((*table).clone()).expect("register durably");
    }
    if db.table("churn_log").is_err() {
        db.run_script(CHURN_DDL).expect("create churn_log");
    }
    let load_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    db.checkpoint().expect("checkpoint");
    let checkpoint_us = t.elapsed().as_secs_f64() * 1e6;
    Loaded {
        db,
        load_us,
        checkpoint_us,
    }
}

/// `n` churn inserts, each handed to `run` and timed; latencies in
/// microseconds. A failed insert counts against `tally` and yields no
/// sample.
pub fn timed_inserts(
    n: usize,
    next_id: &mut u64,
    rng: &mut StdRng,
    tally: &mut Tally,
    mut run: impl FnMut(&str) -> Result<(), String>,
) -> Vec<f64> {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let sql = insert_sql(next_id, rng);
        let t = Instant::now();
        let result = run(&sql);
        let dt = t.elapsed().as_secs_f64() * 1e6;
        if tally.check(result.is_ok(), || format!("insert: {result:?}")) {
            us.push(dt);
        }
    }
    us
}

/// [`timed_inserts`] through `Database::run_script`.
pub fn insert_burst(
    db: &Database,
    n: usize,
    next_id: &mut u64,
    rng: &mut StdRng,
    tally: &mut Tally,
) -> Vec<f64> {
    timed_inserts(n, next_id, rng, tally, |sql| {
        db.run_script(sql).map(|_| ()).map_err(|e| e.to_string())
    })
}

/// The obs registry's storage counters; two snapshots bracket a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageCounters {
    pub appends: u64,
    pub append_bytes: u64,
    pub syncs: u64,
    pub fsync_sum_us: u64,
    pub fsync_count: u64,
    pub replay_sum_us: u64,
}

impl StorageCounters {
    pub fn read() -> StorageCounters {
        let registry = conquer_obs::registry();
        let fsync = registry.histogram("storage.wal.fsync.us").snapshot();
        StorageCounters {
            appends: registry.counter("storage.wal.appends").get(),
            append_bytes: registry.counter("storage.wal.append_bytes").get(),
            syncs: registry.counter("storage.wal.syncs").get(),
            fsync_sum_us: fsync.sum,
            fsync_count: fsync.count,
            replay_sum_us: registry
                .histogram("storage.recover.replay.us")
                .snapshot()
                .sum,
        }
    }

    pub fn since(self, before: StorageCounters) -> StorageCounters {
        StorageCounters {
            appends: self.appends - before.appends,
            append_bytes: self.append_bytes - before.append_bytes,
            syncs: self.syncs - before.syncs,
            fsync_sum_us: self.fsync_sum_us - before.fsync_sum_us,
            fsync_count: self.fsync_count - before.fsync_count,
            replay_sum_us: self.replay_sum_us - before.replay_sum_us,
        }
    }
}

pub fn table_counts(db: &Database) -> BTreeMap<String, usize> {
    db.table_names()
        .into_iter()
        .map(|name| {
            let len = db.table(&name).map_or(0, |t| t.len());
            (name, len)
        })
        .collect()
}

/// Bytes of user data in the catalog: 8 per number, 4 per date, 1 per
/// boolean, a string's length — the denominator of space amplification.
pub fn user_bytes(db: &Database) -> u64 {
    let mut bytes = 0u64;
    for name in db.table_names() {
        let Ok(table) = db.table(&name) else { continue };
        for row in table.rows() {
            for v in row {
                bytes += match v {
                    Value::Null => 0,
                    Value::Bool(_) => 1,
                    Value::Int(_) | Value::Float(_) => 8,
                    Value::Date(_) => 4,
                    Value::Str(s) => s.len() as u64,
                };
            }
        }
    }
    bytes
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub struct Recovered {
    /// All of `Database::open`.
    pub open_us: f64,
    /// The store's share of it: manifest, segments and WAL scan.
    pub replay_us: f64,
}

/// Reopen a data directory whose database was dropped without a checkpoint
/// and check it: every table holds exactly `expect` rows — for `churn_log`
/// that is eight per acknowledged insert, no more and no fewer.
pub fn recover(dir: &Path, expect: &BTreeMap<String, usize>, tally: &mut Tally) -> Recovered {
    let before = StorageCounters::read();
    let t = Instant::now();
    let opened = Database::open(dir, DurabilityOptions::default());
    let open_us = t.elapsed().as_secs_f64() * 1e6;
    let replay_us = StorageCounters::read().since(before).replay_sum_us as f64;
    if tally.check(opened.is_ok(), || {
        format!("reopen fails: {:?}", opened.as_ref().err())
    }) {
        let got = table_counts(&opened.expect("checked above"));
        tally.check(&got == expect, || {
            format!("recovered row counts {got:?}, acknowledged {expect:?}")
        });
    }
    Recovered { open_us, replay_us }
}
