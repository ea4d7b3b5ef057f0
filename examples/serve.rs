//! Start a conquer-serve server in-process, talk to it over loopback, and
//! show the session features: strategies, SET, prepared statements, the
//! plan cache, and its per-table invalidation.
//!
//! ```sh
//! cargo run --example serve
//! ```

use std::sync::Arc;

use conquer_core::ConstraintSet;
use conquer_engine::Database;
use conquer_obs::Json;
use conquer_serve::{serve, Client, ServerConfig, Strategy};

fn main() {
    // The running example from the paper: customer accounts where custkey
    // should be a key but is not (c1 appears twice).
    let db = Arc::new(Database::new());
    db.run_script(
        "create table customer (custkey text, acctbal float);
         insert into customer values
             ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 1200);",
    )
    .expect("seed script");
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);

    let server = serve(db, sigma, ServerConfig::default()).expect("bind loopback");
    println!("serving on {}", server.addr());

    let mut client = Client::connect(server.addr()).expect("connect");
    println!("session {} established", client.session());

    let sql = "select custkey from customer where acctbal > 1000";

    // Plain execution sees both c1 and the others...
    let original = client
        .query_with(sql, Some(Strategy::Original))
        .expect("original query");
    println!("original answers:\n{}", original.rows.to_text());

    // ...the ConQuer rewriting keeps only the *certain* answers.
    client
        .set("strategy", Json::Str("rewritten".to_string()))
        .expect("set strategy");
    let consistent = client.query(sql).expect("rewritten query");
    println!("consistent answers:\n{}", consistent.rows.to_text());

    // Re-running hits the rewrite/plan cache.
    let again = client.query(sql).expect("cached query");
    println!(
        "second run cached={} ({} us)",
        again.cached, again.elapsed_us
    );

    // Prepared statements skip even the cache lookup's rebuild path.
    let stmt = client.prepare(sql, None).expect("prepare");
    let executed = client.execute(stmt).expect("execute");
    println!(
        "prepared statement {stmt}: {} rows",
        executed.rows.rows.len()
    );

    // A write to a table the statement read bumps that table's version;
    // the statement transparently replans, so the new row shows up
    // instead of a stale cached answer.
    client
        .script("insert into customer values ('c9', 9000)")
        .expect("script");
    let refreshed = client.execute(stmt).expect("re-execute");
    println!(
        "after insert: {} rows (cached={})",
        refreshed.rows.rows.len(),
        refreshed.cached
    );

    let stats = client.stats().expect("stats");
    if let Some(cache) = stats.get("cache") {
        println!("cache stats: {}", cache.render());
    }

    client.quit().expect("quit");
    server.shutdown();
}
