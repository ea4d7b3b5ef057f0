//! Interactive inconsistency exploration (Section 1 of the paper): use the
//! *difference* between the original query and its rewriting to locate data
//! worth cleaning, without committing to any cleaning strategy.
//!
//! Run with `cargo run -p conquer --example inconsistency_report`.

use std::collections::BTreeSet;

use conquer::{
    annotate_database, consistent_answers, declare_key_indexes, possible_answers, ConstraintSet,
    Database,
};

fn main() {
    let db = Database::new();
    db.run_script(
        "create table orders (orderkey text, clerk text, custfk text);
         insert into orders values
           ('o1', 'ali', 'c1'), ('o2', 'jo', 'c2'), ('o2', 'ali', 'c3'),
           ('o3', 'ali', 'c4'), ('o3', 'pat', 'c2'), ('o4', 'ali', 'c2'),
           ('o4', 'ali', 'c3'), ('o5', 'ali', 'c2');
         create table customer (custkey text, acctbal float);
         insert into customer values
           ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
    )
    .expect("setup");
    let sigma = ConstraintSet::new()
        .with_key("orders", ["orderkey"])
        .with_key("customer", ["custkey"]);

    // 1. Where is the database inconsistent at all? The annotation pass
    //    doubles as a profiler — and so does the key index every rewriting
    //    runs on: its conflict list holds the same numbers online, kept
    //    current by INSERT, plus the group sizes (the paper's n).
    let stats = annotate_database(&db, &sigma).expect("annotate");
    declare_key_indexes(&db, &sigma);
    println!("Constraint-violation profile:");
    for s in &stats {
        let conflicts = db.conflict_summary(&s.relation).expect("key index");
        assert_eq!(conflicts.violated_keys, s.violated_keys as u64);
        assert_eq!(
            conflicts.tuples_in_violated_groups,
            s.inconsistent_tuples as u64
        );
        let sizes: Vec<String> = conflicts
            .group_sizes
            .iter()
            .map(|(size, groups)| format!("{groups} of {size}"))
            .collect();
        println!(
            "  {:<9} {} of {} tuples inconsistent across {} keys (groups: {})",
            s.relation,
            s.inconsistent_tuples,
            s.total_tuples,
            s.violated_keys,
            sizes.join(", ")
        );
    }

    // 2. Which query answers are affected? Anything possible but not
    //    consistent depends on how conflicts are resolved.
    let q = "select o.orderkey from customer c, orders o
             where c.acctbal > 1000 and o.custfk = c.custkey";
    let possible: BTreeSet<String> = possible_answers(&db, q)
        .expect("query")
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    let consistent: BTreeSet<String> = consistent_answers(&db, q, &sigma)
        .expect("cqa")
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    let suspicious: BTreeSet<String> = possible.difference(&consistent).cloned().collect();

    println!("\nQuery: orders placed by customers with balance over 1000");
    println!("  certain answers:          {}", join(&consistent));
    println!("  answers needing cleaning: {}", join(&suspicious));
    println!(
        "\nOrders {} satisfy the query under some conflict resolution but not\n\
         all — their customer or order tuples are the ones to clean first.",
        join(&suspicious)
    );
}

fn join(set: &BTreeSet<String>) -> String {
    set.iter().cloned().collect::<Vec<_>>().join(", ")
}
