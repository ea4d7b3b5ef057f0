//! On a consistent instance every repair is the database itself, so a
//! rewriting must answer exactly what the original query answers: each plain
//! column the original's value, under the original's name, and each
//! aggregate `x` a range `min_x = max_x = x`, bit for bit. Float SUM/AVG are
//! exact sums in this engine, so no association of the terms may show in
//! the last bit. (Every key is unviolated here, so every row passes the
//! per-key work: a per-group partial sum of the passed rows would be the
//! whole exact sum and show nothing. `oracle_equivalence`'s
//! `single_relation_split_matches_every_oracle` holds the passed rows to
//! reaching the final SUM one by one.)

use conquer::tpch::{all_queries, build_workload, WorkloadConfig};
use conquer::{consistent_answers, consistent_answers_annotated, Rows, Value};

/// A value as its variant and bits: `Int(2)` is not `Float(2.0)`, and two
/// floats are equal only when their bits are.
fn exact(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// How many values of the rewriting's rows, read in the original's column
/// layout (plain columns by name, `min_x` and `max_x` both as `x`) and
/// paired with the original's rows after sorting both, differ from them.
fn mismatches(original: &Rows, rewritten: &Rows) -> usize {
    let at = |name: &str| rewritten.schema.columns.iter().position(|c| c.name == name);
    // Per original column, the rewriting's columns that must hold its value.
    let sources: Vec<Vec<usize>> = original
        .schema
        .columns
        .iter()
        .map(|c| match at(&c.name) {
            Some(i) => vec![i],
            None => {
                let range = [format!("min_{}", c.name), format!("max_{}", c.name)];
                range
                    .iter()
                    .map(|n| at(n).unwrap_or_else(|| panic!("no column {n}")))
                    .collect()
            }
        })
        .collect();
    let width: usize = sources.iter().map(Vec::len).sum();
    assert_eq!(width, rewritten.schema.columns.len(), "every column mapped");
    let sorted = |rows: Vec<Vec<String>>| {
        let mut rows = rows;
        rows.sort();
        rows
    };
    let want = sorted(
        original
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .zip(&sources)
                    .flat_map(|(v, s)| s.iter().map(move |_| exact(v)))
                    .collect()
            })
            .collect(),
    );
    let got = sorted(
        rewritten
            .rows
            .iter()
            .map(|r| sources.iter().flatten().map(|&i| exact(&r[i])).collect())
            .collect(),
    );
    assert_eq!(want.len(), got.len(), "row counts");
    want.iter()
        .zip(&got)
        .map(|(w, g)| w.iter().zip(g).filter(|(a, b)| a != b).count())
        .sum()
}

#[test]
fn rewritings_answer_the_original_on_a_consistent_instance() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.005,
        p: 0.0,
        n: 2,
        seed: 7,
        threads: 2,
        annotate: true,
    });
    let mut wrong = Vec::new();
    for q in all_queries() {
        let original = w.db.query(q.sql).unwrap();
        assert!(
            !original.rows.is_empty(),
            "{}: an empty answer shows nothing",
            q.name()
        );
        let rewritten = consistent_answers(&w.db, q.sql, &w.sigma).unwrap();
        let annotated = consistent_answers_annotated(&w.db, q.sql, &w.sigma).unwrap();
        for (strategy, rows) in [("rewritten", &rewritten), ("annotated", &annotated)] {
            let n = mismatches(&original, rows);
            if n > 0 {
                wrong.push(format!("{} {strategy}: {n} values", q.name()));
            }
        }
    }
    assert!(wrong.is_empty(), "differ from the original: {wrong:?}");
}
