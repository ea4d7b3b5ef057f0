//! The inconsistency generator of Section 6.1 of the paper.
//!
//! The TPC-H generator produces key-consistent data, so the paper uses a
//! small program to make databases inconsistent, parameterized by
//!
//! * **p** — the fraction of tuples that violate the key constraints, and
//! * **n** — the number of tuples sharing each violated key value.
//!
//! Following the paper's protocol, the total table size stays constant: to
//! reach `K = p·T / n` conflicting keys, `K·(n-1)` randomly chosen
//! untouched tuples are *removed* (the paper starts from a smaller
//! consistent base) and `K·(n-1)` conflicting tuples are *added* — each
//! with the key attributes of a randomly chosen victim tuple and the
//! non-key attributes of another randomly chosen donor tuple ("one of the
//! sets is used to draw the key values of the conflicting tuples ...; the
//! other set is used to obtain non-key values").
//!
//! The new table is two selection vectors over the old one — per output
//! tuple, the tuple its key attributes come from and the tuple the rest
//! comes from (the same tuple for the kept ones) — and one
//! [`gather`](conquer_engine::ColumnChunk::gather) per column through
//! whichever of the two the column reads. No tuple is materialized, and a
//! column keeps its layout (a text column its dictionary).

use crate::rng::{SliceRandom, StdRng};

use conquer_core::ConstraintSet;
use conquer_engine::{Database, Table};

/// Per-table report of an injection pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionStats {
    pub relation: String,
    pub total_tuples: usize,
    /// `K`: distinct key values in conflict.
    pub conflicting_keys: usize,
    /// `K·n`: tuples violating the key constraint.
    pub inconsistent_tuples: usize,
}

/// Make one table inconsistent in place. `p` is the tuple fraction in
/// violation (0.0–1.0) and `n >= 2` the tuples per violated key.
pub fn inject_table(
    db: &Database,
    relation: &str,
    key: &[String],
    p: f64,
    n: usize,
    seed: u64,
) -> InjectionStats {
    assert!((0.0..=1.0).contains(&p), "p must be a fraction, got {p}");
    assert!(n >= 2 || p == 0.0, "n must be at least 2");

    let table = db.table(relation).expect("relation exists");
    let total = table.len();
    let k = if p == 0.0 {
        0
    } else {
        ((p * total as f64) / n as f64).round() as usize
    };
    if k == 0 {
        return InjectionStats {
            relation: relation.to_string(),
            total_tuples: total,
            conflicting_keys: 0,
            inconsistent_tuples: 0,
        };
    }
    let extra = k * (n - 1);
    assert!(
        k + extra <= total,
        "p={p}, n={n} needs {k} victims plus {extra} removals but the table has only {total} rows"
    );

    let key_idx: Vec<usize> = key
        .iter()
        .map(|a| table.column_index(a).expect("key attribute exists"))
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x1213c7);
    let total_u32 = u32::try_from(total).expect("row ids fit the engine's u32 selection vectors");
    let mut indices: Vec<u32> = (0..total_u32).collect();
    indices.shuffle(&mut rng);
    // indices[k..k + extra] are the removed tuples (selected by nothing).
    indices.drain(k..k + extra);
    let (victims, kept) = (&indices[..k], indices.len());

    // Victims and survivors stay as they are; then n-1 conflicting tuples
    // per victim: the victim's key, a kept tuple's non-keys.
    let mut key_from = indices.clone();
    let mut rest_from = indices.clone();
    for &v in victims {
        for _ in 0..n - 1 {
            key_from.push(v);
            rest_from.push(indices[rng.gen_range(0..kept)]);
        }
    }
    let columns = table
        .schema()
        .columns
        .iter()
        .zip(table.cols().cols())
        .enumerate()
        .map(|(i, (c, chunk))| {
            let from = if key_idx.contains(&i) {
                &key_from
            } else {
                &rest_from
            };
            (c.name.as_str(), c.ty, chunk.gather(from))
        })
        .collect();
    let new_table =
        Table::from_columns(relation, columns).expect("gathered columns keep their layouts");
    db.register(new_table).expect("register in-memory table");

    InjectionStats {
        relation: relation.to_string(),
        total_tuples: total,
        conflicting_keys: k,
        inconsistent_tuples: k * n,
    }
}

/// Inject the same inconsistency level into every constrained relation of
/// the database ("we created the databases in such a way that every
/// relation has the same value of p as the entire database", Section 6.1).
pub fn inject_database(
    db: &Database,
    sigma: &ConstraintSet,
    p: f64,
    n: usize,
    seed: u64,
) -> Vec<InjectionStats> {
    let mut stats = Vec::new();
    for (i, constraint) in sigma.iter().enumerate() {
        if db.table(&constraint.relation).is_err() {
            continue;
        }
        stats.push(inject_table(
            db,
            &constraint.relation,
            &constraint.key,
            p,
            n,
            seed.wrapping_add(i as u64),
        ));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_core::annotate_database;
    use std::collections::HashMap;

    fn fresh_table(rows: usize) -> Database {
        let db = Database::new();
        let mut script = String::from("create table t (k integer, v integer);\n");
        if rows > 0 {
            script.push_str("insert into t values ");
            let vals: Vec<String> = (0..rows).map(|i| format!("({i}, {})", i * 10)).collect();
            script.push_str(&vals.join(", "));
        }
        db.run_script(&script).unwrap();
        db
    }

    fn key_histogram(db: &Database) -> HashMap<String, usize> {
        let mut h = HashMap::new();
        for row in db.table("t").unwrap().rows() {
            *h.entry(row[0].to_string()).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn injection_preserves_total_size() {
        let db = fresh_table(1000);
        let stats = inject_table(&db, "t", &["k".to_string()], 0.10, 2, 7);
        assert_eq!(db.table("t").unwrap().len(), 1000);
        assert_eq!(stats.conflicting_keys, 50);
        assert_eq!(stats.inconsistent_tuples, 100);
    }

    #[test]
    fn injection_hits_target_p_and_n() {
        let db = fresh_table(1000);
        inject_table(&db, "t", &["k".to_string()], 0.20, 4, 7);
        let hist = key_histogram(&db);
        let inconsistent: usize = hist.values().filter(|c| **c > 1).copied().sum();
        assert_eq!(inconsistent, 200); // p·T
        assert!(hist.values().all(|c| *c == 1 || *c == 4)); // exactly n per conflict
    }

    #[test]
    fn p_zero_is_a_no_op() {
        let db = fresh_table(100);
        let before = db.table("t").unwrap().rows().to_vec();
        let stats = inject_table(&db, "t", &["k".to_string()], 0.0, 2, 7);
        assert_eq!(stats.inconsistent_tuples, 0);
        assert_eq!(db.table("t").unwrap().rows(), &before[..]);
    }

    #[test]
    fn injection_matches_annotation_counts() {
        // The annotation pass must agree with the injector's bookkeeping.
        let db = fresh_table(500);
        let sigma = ConstraintSet::new().with_key("t", ["k"]);
        let inj = inject_database(&db, &sigma, 0.10, 2, 11);
        let ann = annotate_database(&db, &sigma).unwrap();
        assert_eq!(inj[0].inconsistent_tuples, ann[0].inconsistent_tuples);
        assert_eq!(inj[0].conflicting_keys, ann[0].violated_keys);
    }

    #[test]
    fn injection_is_deterministic() {
        let a = fresh_table(300);
        let b = fresh_table(300);
        inject_table(&a, "t", &["k".to_string()], 0.2, 2, 99);
        inject_table(&b, "t", &["k".to_string()], 0.2, 2, 99);
        assert_eq!(a.table("t").unwrap().rows(), b.table("t").unwrap().rows());
    }

    #[test]
    fn text_key_injection_keeps_the_bookkeeping() {
        // A text key, a text payload and a column with NULLs: every layout
        // the gather goes through.
        let db = Database::new();
        let mut script =
            String::from("create table t (k text, v text, x float);\ninsert into t values ");
        let vals: Vec<String> = (0..600)
            .map(|i| {
                let x = if i % 5 == 0 {
                    "null".to_string()
                } else {
                    format!("{i}.5")
                };
                format!("('k{i}', 'v{}', {x})", i % 9)
            })
            .collect();
        script.push_str(&vals.join(", "));
        db.run_script(&script).unwrap();
        let before = db.table("t").unwrap();

        let stats = inject_table(&db, "t", &["k".to_string()], 0.15, 3, 21);
        assert_eq!(
            stats,
            InjectionStats {
                relation: "t".into(),
                total_tuples: 600,
                conflicting_keys: 30,
                inconsistent_tuples: 90,
            }
        );
        let after = db.table("t").unwrap();
        assert_eq!(after.len(), 600);
        let hist = key_histogram(&db);
        assert_eq!(hist.values().filter(|c| **c == 3).count(), 30);
        assert!(hist.values().all(|c| *c == 1 || *c == 3));
        // Every tuple pairs a key of the old table with the non-key
        // attributes of one of its tuples.
        let payloads: Vec<&[conquer_engine::Value]> =
            before.rows().iter().map(|r| &r[1..]).collect();
        for row in after.rows() {
            assert!(hist.contains_key(&row[0].to_string()));
            assert!(payloads.contains(&&row[1..]), "{row:?}");
        }
        let sigma = ConstraintSet::new().with_key("t", ["k"]);
        let ann = annotate_database(&db, &sigma).unwrap();
        assert_eq!((ann[0].violated_keys, ann[0].inconsistent_tuples), (30, 90));
    }

    #[test]
    fn composite_key_injection() {
        let db = Database::new();
        let mut script = String::from(
            "create table li (ok integer, ln integer, q integer);\ninsert into li values ",
        );
        let vals: Vec<String> = (0..200)
            .map(|i| format!("({}, {}, {})", i / 4, i % 4, i))
            .collect();
        script.push_str(&vals.join(", "));
        db.run_script(&script).unwrap();
        let stats = inject_table(&db, "li", &["ok".to_string(), "ln".to_string()], 0.10, 2, 3);
        assert_eq!(stats.inconsistent_tuples, 20);
        let mut h: HashMap<(String, String), usize> = HashMap::new();
        for row in db.table("li").unwrap().rows() {
            *h.entry((row[0].to_string(), row[1].to_string()))
                .or_insert(0) += 1;
        }
        let inconsistent: usize = h.values().filter(|c| **c > 1).copied().sum();
        assert_eq!(inconsistent, 20);
        assert_eq!((stats.total_tuples, stats.conflicting_keys), (200, 10));
        assert_eq!(db.table("li").unwrap().len(), 200);
        assert!(h.values().all(|c| *c == 1 || *c == 2));
    }
}
