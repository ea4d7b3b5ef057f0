//! Fuzz smoke test: ~1k seeded random mutations and truncations of valid
//! SQL, each driven through the full parse → rewrite → plan pipeline.
//! Every outcome must be `Ok` or a structured `Err` — never a panic — and
//! the pipeline must keep working afterwards.
//!
//! The generator is a deterministic xorshift64* (no property-testing
//! framework; the workspace builds offline), so any failure reproduces
//! exactly from the printed iteration seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use conquer_core::{rewrite, ConstraintSet, RewriteOptions};
use conquer_engine::{Database, ExecOptions};
use conquer_sql::parse_query;

const ITERATIONS: u64 = 1_000;

/// Minimal deterministic RNG (xorshift64*), local to this test.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        Rng(z.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Seed corpus: the query shapes the stack actually handles, over the
/// fixture tables below.
const CORPUS: &[&str] = &[
    "select custkey from customer where acctbal > 1000",
    "select c.custkey, o.orderkey from customer c join orders o on c.custkey = o.custfk",
    "select custfk, count(*), sum(total) from orders group by custfk having count(*) > 1",
    "select distinct custkey from customer order by custkey limit 5",
    "with cand as (select custkey from customer where acctbal > 0) \
     select cand.custkey from cand, orders o where cand.custkey = o.custfk",
    "select o.orderkey from orders o where exists \
     (select 1 from customer c where c.custkey = o.custfk and c.acctbal > 500)",
    "select custkey from customer union all select custfk from orders",
    "select case when acctbal > 0 then 'pos' else 'neg' end from customer",
    "select orderkey from orders where odate >= date '1995-01-01'",
    "select -acctbal, abs(acctbal), acctbal / 2, acctbal % 3 from customer",
    "select custfk, abs(total), coalesce(custfk, 'none') from orders group by custfk, total",
    "with rich as (select custkey from customer where acctbal > 0) \
     select o.orderkey from orders o join customer c on o.custfk = c.custkey \
     and exists (select 1 from rich r where r.custkey = c.custkey)",
    "with t as (select custfk, total from orders) \
     select custkey from customer order by (select count(*) from t where t.custfk = custkey), custkey",
];

/// Bytes spliced into mutants: SQL punctuation, quotes, digits, NULs,
/// and multi-byte UTF-8 fragments (both whole and split scalars).
const NOISE: &[u8] = b"'\"();,.*%-+/<>= \t\n0x9\xc3\xa9\xf0\x9f\x92\x96\xff\x00se";

/// Produce one mutant: start from a corpus entry (or raw noise) and apply
/// a few byte-level edits, then re-validate UTF-8 lossily so truncations
/// can split multi-byte scalars without producing an invalid `&str`.
fn mutant(rng: &mut Rng) -> String {
    let mut bytes: Vec<u8> = if rng.below(12) == 0 {
        (0..rng.below(64))
            .map(|_| NOISE[rng.below(NOISE.len())])
            .collect()
    } else {
        CORPUS[rng.below(CORPUS.len())].as_bytes().to_vec()
    };
    for _ in 0..rng.below(6) {
        match rng.below(4) {
            // Truncate at an arbitrary byte offset.
            0 => bytes.truncate(rng.below(bytes.len() + 1)),
            // Overwrite one byte with noise.
            1 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] = NOISE[rng.below(NOISE.len())];
            }
            // Insert a noise byte.
            2 => {
                let at = rng.below(bytes.len() + 1);
                bytes.insert(at, NOISE[rng.below(NOISE.len())]);
            }
            // Duplicate a random slice (token stutter).
            _ if !bytes.is_empty() => {
                let a = rng.below(bytes.len());
                let b = (a + rng.below(8) + 1).min(bytes.len());
                let slice: Vec<u8> = bytes[a..b].to_vec();
                let at = rng.below(bytes.len() + 1);
                for (k, byte) in slice.into_iter().enumerate() {
                    bytes.insert(at + k, byte);
                }
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn fixture() -> Database {
    let db = Database::new();
    db.run_script(
        "create table customer (custkey text, acctbal float);
         create table orders (orderkey integer, custfk text, total float, odate date);
         insert into customer values ('c1', 100.0), ('c2', -5.0);
         insert into orders values (1, 'c1', 10.0, date '1995-06-01');",
    )
    .expect("fixture");
    db
}

#[test]
fn mutated_sql_never_panics_through_parse_rewrite_plan() {
    let db = fixture();
    let sigma = ConstraintSet::new()
        .with_key("customer", ["custkey"])
        .with_key("orders", ["orderkey"]);
    let options = ExecOptions::default();

    let mut rng = Rng::new(0xC0F_FEE);
    let mut parsed_ok = 0u64;
    for i in 0..ITERATIONS {
        let sql = mutant(&mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(query) = parse_query(&sql) else {
                return false; // structured parse error: fine
            };
            // Both downstream stages must also be panic-free; their
            // structured errors are all acceptable outcomes.
            let _ = rewrite(&query, &sigma, &RewriteOptions::default());
            let _ = db.plan(&query, &options);
            true
        }));
        match outcome {
            Ok(parsed) => parsed_ok += u64::from(parsed),
            Err(_) => panic!("iteration {i} panicked on input: {sql:?}"),
        }
    }
    // The mutator keeps most corpus-derived inputs lightly damaged, so a
    // healthy fraction should still parse — proves the pipeline stages
    // after parsing are actually exercised.
    assert!(
        parsed_ok > ITERATIONS / 20,
        "only {parsed_ok}/{ITERATIONS} mutants parsed; generator too destructive"
    );

    // And the stack still works after the storm.
    let q = parse_query(CORPUS[0]).expect("corpus parses");
    assert!(db.plan(&q, &options).is_ok());
}

/// Rows as sorted strings: join reordering and build-side swaps may
/// legitimately permute unordered output, so compare as multisets.
fn sorted_rows(rows: &conquer_engine::Rows) -> Vec<Vec<String>> {
    let mut v: Vec<Vec<String>> = rows
        .rows
        .iter()
        .map(|r| r.iter().map(ToString::to_string).collect())
        .collect();
    v.sort();
    v
}

/// Differential: every fuzz case that parses must produce the same result
/// with the optimizer on and off (`ExecOptions::optimize`). This is the
/// repair-oracle pattern from `tests/oracle_equivalence.rs` applied to the
/// optimizer: the plan as written is the oracle, everything the optimizer
/// does (join reordering, filter pushdown to either side, build-side
/// swaps, access paths) is under test.
#[test]
fn fuzz_cases_agree_with_and_without_cost_based_planning() {
    let db = fixture();
    let optimizing = ExecOptions::default().with_threads(1);
    let mut as_written = optimizing.clone();
    as_written.optimize = false;

    let mut rng = Rng::new(0x5EED_CAFE);
    let mut compared = 0u64;
    // The full corpus verbatim, then the mutant storm on top.
    let cases = CORPUS
        .iter()
        .map(|s| (*s).to_string())
        .chain((0..ITERATIONS).map(|_| mutant(&mut rng)));
    for (i, sql) in cases.enumerate() {
        let Ok(query) = parse_query(&sql) else {
            continue;
        };
        let on = db.query_with(&sql, &optimizing);
        let off = db.query_with(&sql, &as_written);
        match (on, off) {
            (Ok(a), Ok(b)) => {
                if query.limit.is_some() {
                    // LIMIT without a total order may keep different rows
                    // under a different join order; the count is invariant.
                    assert_eq!(
                        a.rows.len(),
                        b.rows.len(),
                        "case {i}: row count diverged under LIMIT: {sql:?}"
                    );
                } else {
                    assert_eq!(
                        sorted_rows(&a),
                        sorted_rows(&b),
                        "case {i}: optimized vs as-written diverged: {sql:?}"
                    );
                }
                compared += 1;
            }
            (Err(_), Err(_)) => {}
            (on, off) => panic!(
                "case {i}: planners disagree on success (optimized ok={}, as-written ok={}): {sql:?}",
                on.is_ok(),
                off.is_ok()
            ),
        }
    }
    assert!(
        compared >= CORPUS.len() as u64,
        "only {compared} cases executed on both planners; differential too weak"
    );
}

#[test]
fn truncations_of_every_corpus_entry_never_panic() {
    let db = fixture();
    let options = ExecOptions::default();
    for sql in CORPUS {
        let bytes = sql.as_bytes();
        for cut in 0..bytes.len() {
            let s = String::from_utf8_lossy(&bytes[..cut]);
            if let Ok(q) = parse_query(&s) {
                let _ = db.plan(&q, &options);
            }
        }
    }
}
