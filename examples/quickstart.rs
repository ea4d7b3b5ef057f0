//! Quickstart: the paper's running example (Figure 1) from end to end.
//!
//! Run with `cargo run -p conquer --example quickstart`.

use conquer::{
    consistent_answers, possible_answers, rewrite_sql, ConstraintSet, Database, RewriteOptions,
};

fn main() {
    // An inconsistent customer relation: the key `custkey` is violated for
    // c1 and c3, perhaps because the data was integrated from several
    // operational sources.
    let db = Database::new();
    db.run_script(
        "create table customer (custkey text, acctbal float);
         insert into customer values
           ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
    )
    .expect("setup");

    // The user postulates the key at query time — the database itself does
    // not (and cannot) enforce it.
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let q1 = "select custkey from customer where acctbal > 1000";

    println!("Query q1:\n  {q1}\n");

    // Running q1 directly returns the *possible* answers — everything that
    // holds in at least one repair — including the dubious c1 and a
    // duplicated c3.
    let possible = possible_answers(&db, q1).expect("query");
    println!("Possible answers (original query):");
    print!("{}", indent(&possible.to_text()));

    // ConQuer rewrites q1 into plain SQL that any engine can run…
    let rewritten = rewrite_sql(q1, &sigma, &RewriteOptions::default()).expect("rewrite");
    println!("\nConQuer's rewriting of q1:\n  {rewritten}\n");

    // …whose answers are exactly the consistent ones: tuples returned in
    // *every* repair of the database.
    let consistent = consistent_answers(&db, q1, &sigma).expect("consistent answers");
    println!("Consistent answers (rewritten query):");
    print!("{}", indent(&consistent.to_text()));

    println!(
        "\nc1 disappears (one of its tuples has balance 100) and c3 appears \
         exactly once (both of its tuples satisfy the query)."
    );
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("  {l}\n")).collect()
}
