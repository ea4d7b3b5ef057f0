//! Writes the `pre_columnar` fixture: a small durable data directory in
//! the row-shaped format (Snapshot records of kind 3 that carry
//! `TableStats`, segments under a manifest without a `segment_format`
//! key). It compiles only against a tree that still writes that format;
//! `make_pre_columnar.sh` runs it as an example of such a tree.
//!
//! The rows are formulas of the row number. The columnar format refuses
//! the directory (`tests/format_compat.rs`).

use conquer_engine::{DataType, Database, DurabilityOptions, SyncPolicy, Table, Value};

/// Row `i` of `typed`: a key, then one column of every other declared
/// type, each NULL on its own stride.
fn typed_row(i: i64) -> Vec<Value> {
    let null_every = |n: i64, v: Value| if i % n == 0 { Value::Null } else { v };
    vec![
        Value::Int(i),
        null_every(7, Value::Int(i * i - 50)),
        null_every(5, Value::Float(i as f64 * 0.25 - 3.0)),
        null_every(3, Value::str(format!("s{}", i % 4))),
        null_every(11, Value::Date(9000 + i as i32)),
        null_every(6, Value::Bool(i % 2 == 0)),
    ]
}

fn typed(rows: std::ops::Range<i64>) -> Table {
    let mut t = Table::new(
        "typed",
        vec![
            ("k", DataType::Integer),
            ("i", DataType::Integer),
            ("f", DataType::Float),
            ("s", DataType::Text),
            ("d", DataType::Date),
            ("b", DataType::Boolean),
        ],
    );
    for i in rows {
        t.push(typed_row(i)).expect("typed row");
    }
    t
}

/// `mixed`: a Float column that also holds Ints (its chunk demotes to
/// the tagged layout) and an `Any` column of every kind of value.
fn mixed() -> Table {
    let mut t = Table::new(
        "mixed",
        vec![
            ("k", DataType::Integer),
            ("x", DataType::Float),
            ("a", DataType::Any),
        ],
    );
    for i in 0..12i64 {
        let x = if i % 2 == 0 {
            Value::Int(i)
        } else {
            Value::Float(i as f64 + 0.5)
        };
        let a = match i % 4 {
            0 => Value::Null,
            1 => Value::str(format!("a{i}")),
            2 => Value::Date(i as i32),
            _ => Value::Bool(true),
        };
        t.push(vec![Value::Int(i), x, a]).expect("mixed row");
    }
    t
}

fn main() {
    let dir = std::path::PathBuf::from(std::env::args().nth(1).expect("usage: <data dir>"));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions {
        sync: SyncPolicy::Always,
        checkpoint_wal_bytes: 0,
    };
    let db = Database::open(&dir, options).expect("open");

    // Into the segments: three tables, each with an index declaration.
    db.register(typed(0..40)).expect("register typed");
    db.create_index("typed", &["k"]).expect("index typed");
    db.register(mixed()).expect("register mixed");
    db.run_script(
        "create table made (k integer, s text);
         insert into made values (1, 'a'), (2, null), (3, 'a');
         create index on made (k, s);",
    )
    .expect("made");
    assert!(db.checkpoint().expect("checkpoint"));

    // Into the WAL tail: a Snapshot replacing `typed` (it carries the
    // declaration on `k`), Insert records into two tables, a new index
    // declaration and a table created and filled after the checkpoint.
    db.register(typed(0..60)).expect("re-register typed");
    db.run_script(
        "insert into typed (k, s) values (100, 'tail');
         insert into made values (4, 'b'), (5, null);
         create index on mixed (k);
         create table late (k integer);
         insert into late values (7), (8);",
    )
    .expect("tail");
    println!("catalog_epoch {}", db.catalog_epoch());
}
