//! The bulk-load pipeline builds the same database it always built.
//!
//! Generate → inject → annotate at SF 0.002 for three (seed, p, n)
//! settings, and once at SF 0.01 where the orders span two generator
//! chunks; per table, the row count and a row-major FNV-1a digest of
//! every stored value (type tag + payload, floats by bit pattern, the
//! `cons` flags included). The numbers were recorded with the row-at-a-time
//! generator, injector and annotation pass this pipeline replaced, so a
//! change that moves a single value, a row's position or an RNG draw fails
//! here by table name.

use conquer_core::annotate_database;
use conquer_engine::{Database, Value};
use conquer_tpch::{benchmark_constraints, generate_database, inject_database, GenConfig, TABLES};

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(rows, digest)` of one table, rows in stored order.
fn digest(db: &Database, table: &str) -> (usize, u64) {
    let t = db.table(table).expect("table exists");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..t.len() {
        for v in t.row_at(i) {
            match v {
                Value::Null => fnv(&mut h, &[0]),
                Value::Bool(b) => fnv(&mut h, &[1, u8::from(b)]),
                Value::Int(x) => {
                    fnv(&mut h, &[2]);
                    fnv(&mut h, &x.to_le_bytes());
                }
                Value::Float(x) => {
                    fnv(&mut h, &[3]);
                    fnv(&mut h, &x.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    fnv(&mut h, &[4]);
                    fnv(&mut h, &(s.len() as u32).to_le_bytes());
                    fnv(&mut h, s.as_bytes());
                }
                Value::Date(d) => {
                    fnv(&mut h, &[5]);
                    fnv(&mut h, &d.to_le_bytes());
                }
            }
        }
    }
    (t.len(), h)
}

fn load(sf: f64, seed: u64, p: f64, n: usize, threads: usize) -> Vec<(&'static str, usize, u64)> {
    let db = generate_database(&GenConfig {
        scale_factor: sf,
        seed,
        threads,
    });
    let sigma = benchmark_constraints();
    inject_database(&db, &sigma, p, n, seed);
    annotate_database(&db, &sigma).expect("annotation succeeds");
    TABLES
        .iter()
        .map(|&t| {
            let (rows, h) = digest(&db, t);
            (t, rows, h)
        })
        .collect()
}

fn check(sf: f64, seed: u64, p: f64, n: usize, golden: &[(&str, usize, u64)]) {
    // The data must not depend on how many threads generated it.
    for threads in [1, 2, 4] {
        let got = load(sf, seed, p, n, threads);
        assert_eq!(got.len(), golden.len());
        for (got, want) in got.iter().zip(golden) {
            assert_eq!(
                got, want,
                "sf {sf}, seed {seed}, p {p}, n {n}, threads {threads}: (table, rows, digest) moved"
            );
        }
    }
}

#[test]
fn seed_7_p_5_percent_n_2() {
    check(
        0.002,
        7,
        0.05,
        2,
        &[
            ("region", 5, 0x1f8a9147fbcace93),
            ("nation", 25, 0xccad06a0ef677718),
            ("supplier", 20, 0x979b6a9c6cce85af),
            ("part", 400, 0x8fd7ab6a1b6b79e0),
            ("partsupp", 1600, 0xb2718af4d74eee0d),
            ("customer", 300, 0x03844e58c4a4c5c9),
            ("orders", 3000, 0xb8fc785327fb5e9d),
            ("lineitem", 11986, 0x9d591218b1dfa0be),
        ],
    );
}

#[test]
fn seed_42_p_50_percent_n_5() {
    check(
        0.002,
        42,
        0.50,
        5,
        &[
            ("region", 5, 0x1f8a9147fbcace93),
            ("nation", 25, 0xd990686431c6e4df),
            ("supplier", 20, 0x6492189ebdefe06c),
            ("part", 400, 0x57bc542372cb65e3),
            ("partsupp", 1600, 0x60ec2708dd18a5dc),
            ("customer", 300, 0x5d56781f8701e6a7),
            ("orders", 3000, 0xabf4e02de8309f9a),
            ("lineitem", 11993, 0x6453b0f2c396d008),
        ],
    );
}

#[test]
fn seed_7_consistent() {
    check(
        0.002,
        7,
        0.0,
        2,
        &[
            ("region", 5, 0x1f8a9147fbcace93),
            ("nation", 25, 0x756762eda5d48e75),
            ("supplier", 20, 0x979b6a9c6cce85af),
            ("part", 400, 0x8fd7ab6a1b6b79e0),
            ("partsupp", 1600, 0xb2718af4d74eee0d),
            ("customer", 300, 0x6d86df64541ab9f7),
            ("orders", 3000, 0x6ce1ce4a97a1a1b0),
            ("lineitem", 11986, 0x46095d9cf1960839),
        ],
    );
}

/// 15 000 orders: two generator chunks, so the chunk-order concatenation
/// of the order and lineitem column sets is under the digest too.
#[test]
fn two_order_chunks() {
    check(
        0.01,
        7,
        0.05,
        2,
        &[
            ("region", 5, 0x1f8a9147fbcace93),
            ("nation", 25, 0xccad06a0ef677718),
            ("supplier", 100, 0x9730515844da1788),
            ("part", 2000, 0x2f8b35e0413ed4f6),
            ("partsupp", 8000, 0xb980e7d1f0ae8f74),
            ("customer", 1500, 0xc696621ad4db6d15),
            ("orders", 15000, 0x2a2a37b51f9c036f),
            ("lineitem", 60085, 0x70606d84e5b4306a),
        ],
    );
}

/// Prints the table in the form the golden arrays take (run with
/// `--ignored --nocapture` when a change is *meant* to move the data).
#[test]
#[ignore]
fn print_digests() {
    let settings = [
        (0.002, 7, 0.05, 2),
        (0.002, 42, 0.50, 5),
        (0.002, 7, 0.0, 2),
        (0.01, 7, 0.05, 2),
    ];
    for (sf, seed, p, n) in settings {
        println!("// sf {sf}, seed {seed}, p {p}, n {n}");
        for (t, rows, h) in load(sf, seed, p, n, 2) {
            println!("    (\"{t}\", {rows}, {h:#018x}),");
        }
    }
}
