//! The five workloads, their set-up, and the correctness gate every run
//! passes through.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use conquer_core::{
    annotate_database, consistent_answers, consistent_answers_annotated,
    consistent_answers_annotated_with, consistent_answers_with, declare_key_indexes, ConstraintSet,
    RewriteError,
};
use conquer_engine::{Database, ExecOptions, Rows};
use conquer_repair::consistent_answers_oracle;
use conquer_tpch::{
    benchmark_constraints, generate_database, inject_database, BenchmarkQuery, GenConfig, Q1, Q10,
    Q12, Q3, Q4, Q6,
};

use crate::durable;
use crate::stats::rows_digest;
use crate::wire::Wire;

/// Section 6.1's injection: 5 % of the tuples violate their key, two
/// tuples per violated key.
pub const P: f64 = 0.05;
pub const N: usize = 2;

/// The three ways the evaluation answers a query, in the order a pass
/// interleaves them. The wire protocol's enum serves in process too.
pub use conquer_serve::Strategy as Strat;

pub const STRATS: [Strat; 3] = [Strat::Original, Strat::Rewritten, Strat::Annotated];

/// The caller-visible entry point of each strategy, in process.
pub fn direct(
    db: &Database,
    sigma: &ConstraintSet,
    sql: &str,
    strat: Strat,
    options: &ExecOptions,
) -> Result<Rows, RewriteError> {
    match strat {
        Strat::Original => db.query_with(sql, options).map_err(RewriteError::from),
        Strat::Rewritten => consistent_answers_with(db, sql, sigma, options),
        Strat::Annotated => consistent_answers_annotated_with(db, sql, sigma, options),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One caller thread calling the library.
    InProc,
    /// `readers` closed-loop reader connections against an in-process
    /// server; with `churn`, one more connection inserts beside them and
    /// the database is durable.
    Wire { readers: usize, churn: bool },
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub sf: f64,
    pub queries: &'static [BenchmarkQuery],
    pub mode: Mode,
}

static Q1_ONLY: [BenchmarkQuery; 1] = [Q1];
static Q6_ONLY: [BenchmarkQuery; 1] = [Q6];
static JOINS: [BenchmarkQuery; 4] = [Q3, Q4, Q10, Q12];
static SERVED: [BenchmarkQuery; 5] = [Q3, Q4, Q6, Q10, Q12];

/// Scale factors are sized so set-up (run three times) plus the timed
/// window stays near 20 s on two cores; see README.md for what each
/// workload stresses and what it bypasses.
pub static SPECS: [Spec; 5] = [
    Spec {
        name: "inproc-q1",
        why: "Q1 alone: ungrouped candidates into a grouped 8-aggregate CASE sum, so grouped aggregation and RewriteAgg's shape do all the work",
        sf: 0.005,
        queries: &Q1_ONLY,
        mode: Mode::InProc,
    },
    Spec {
        name: "inproc-q6",
        why: "Q6 alone: one selective scan whose rewriting self-joins lineitem on its key, so access path and filter kernels dominate and other joins do nothing",
        sf: 0.02,
        queries: &Q6_ONLY,
        mode: Mode::InProc,
    },
    Spec {
        name: "inproc-joins",
        why: "Q3, Q4, Q10, Q12: hash build/probe, semi/anti and left-outer joins dominate; scans and aggregation are minor",
        sf: 0.02,
        queries: &JOINS,
        mode: Mode::InProc,
    },
    Spec {
        name: "serve-warm",
        why: "two wire readers over 15 cached statements: frame codec, cache lookup, admission and the event loop are most of a request; in-process runs bypass them",
        sf: 0.02,
        queries: &SERVED,
        mode: Mode::Wire {
            readers: 2,
            churn: false,
        },
    },
    Spec {
        name: "serve-churn",
        why: "one wire reader beside a writer inserting into an unrelated table of a durable database: every insert bumps the epoch, so reads rebuild plans and share the machine with fsyncs",
        sf: 0.01,
        queries: &SERVED,
        mode: Mode::Wire {
            readers: 1,
            churn: true,
        },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// How long a timed window runs: the contract's `--seconds`, or the smoke
/// test's fixed `--passes`.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    Passes(usize),
}

/// A time-bounded window still runs this many passes, so a median exists.
pub const MIN_PASSES: usize = 3;

impl Limit {
    pub fn done(self, passes: usize, started: Instant) -> bool {
        match self {
            Limit::Passes(n) => passes >= n,
            Limit::Seconds(s) => passes >= MIN_PASSES && started.elapsed().as_secs_f64() >= s,
        }
    }
}

/// Operations attempted and failed. A refused, errored or wrong-answer
/// operation is a failure; so is every broken correctness check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: FAILED {}", what());
        }
        ok
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Wall time of each set-up step, microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_us: f64,
    pub inject_us: f64,
    pub annotate_us: f64,
    pub durable_load_us: f64,
    pub checkpoint_us: f64,
    pub engine_warmup_us: f64,
    pub serve_warmup_us: f64,
    pub total_s: f64,
}

/// A workload ready for its first timed operation.
pub struct Env {
    pub spec: &'static Spec,
    pub db: Arc<Database>,
    pub sigma: ConstraintSet,
    /// In-process answers per query and strategy on this database: what
    /// every later pass, in process or over the wire, must reproduce.
    pub reference: Vec<[Rows; 3]>,
    pub digests: Vec<[u64; 3]>,
    /// Where the durable database lives (`serve-churn` only).
    pub durable_dir: Option<PathBuf>,
    pub wire: Option<Wire>,
    pub times: SetupTimes,
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Generate, inject, annotate (then load durably, start the server and
/// warm up, as the workload's mode asks).
pub fn setup(
    spec: &'static Spec,
    sf_scale: f64,
    seed: u64,
    scratch: &Path,
    tally: &mut Tally,
) -> Env {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let options = ExecOptions::default();

    let t = Instant::now();
    let mem = generate_database(&GenConfig {
        scale_factor: spec.sf * sf_scale,
        seed,
        threads: options.threads,
    });
    times.generate_us = us(t);
    let sigma = benchmark_constraints();
    let t = Instant::now();
    inject_database(&mem, &sigma, P, N, seed);
    times.inject_us = us(t);
    let t = Instant::now();
    annotate_database(&mem, &sigma).expect("annotation succeeds on generated data");
    times.annotate_us = us(t);

    let churn = matches!(spec.mode, Mode::Wire { churn: true, .. });
    let (db, durable_dir) = if churn {
        let dir = scratch.join("durable");
        let loaded = durable::load(&dir, &mem);
        times.durable_load_us = loaded.load_us;
        times.checkpoint_us = loaded.checkpoint_us;
        (loaded.db, Some(dir))
    } else {
        mem.run_script(durable::CHURN_DDL)
            .expect("create churn_log");
        (mem, None)
    };
    // The access path the rewritings' key self-joins probe, declared (not
    // built) exactly as `build_workload` and `serve` declare it.
    declare_key_indexes(&db, &sigma);
    let db = Arc::new(db);

    // First in-process pass: fills the scan cache, builds the lazy indexes,
    // and yields the reference answers.
    let t = Instant::now();
    let mut reference = Vec::new();
    let mut digests = Vec::new();
    for q in spec.queries {
        let rows = STRATS.map(|s| {
            direct(&db, &sigma, q.sql, s, &options)
                .unwrap_or_else(|e| panic!("Q{} {} fails in set-up: {e}", q.number, s.label()))
        });
        let d = [0, 1, 2].map(|i| rows_digest(&rows[i]));
        tally.check(d[1] == d[2], || {
            format!("Q{}: rewritten rows differ from annotated rows", q.number)
        });
        reference.push(rows);
        digests.push(d);
    }
    times.engine_warmup_us = us(t);

    let mut env = Env {
        spec,
        db,
        sigma,
        reference,
        digests,
        durable_dir,
        wire: None,
        times,
    };
    if let Mode::Wire { readers, churn } = spec.mode {
        let wire = Wire::start(&env, readers + usize::from(churn), tally);
        env.times.serve_warmup_us = wire.warmup_us;
        env.wire = Some(wire);
    }
    env.times.total_s = started.elapsed().as_secs_f64();
    env
}

impl Env {
    /// Count one read operation: it succeeded, and its rows have the digest
    /// of the set-up pass's in-process answer.
    pub fn check_answer<E: std::fmt::Display>(
        &self,
        tally: &mut Tally,
        qi: usize,
        si: usize,
        how: &str,
        answer: Result<&Rows, &E>,
    ) {
        let ok = answer.is_ok_and(|rows| rows_digest(rows) == self.digests[qi][si]);
        tally.check(ok, || {
            format!(
                "Q{} {} {how}: {}",
                self.spec.queries[qi].number,
                STRATS[si].label(),
                match answer {
                    Ok(_) => "rows differ from the set-up pass's".to_string(),
                    Err(e) => e.to_string(),
                }
            )
        });
    }

    /// Stop the server (when there is one) and drop the database without a
    /// checkpoint. Returns the durable directory, whose WAL tail now holds
    /// everything since set-up's checkpoint.
    pub fn teardown(mut self) -> Option<PathBuf> {
        if let Some(wire) = self.wire.take() {
            wire.stop();
        }
        assert_eq!(
            Arc::strong_count(&self.db),
            1,
            "the server released its database handle"
        );
        self.durable_dir.take()
    }
}

/// The definition-level gate: on a fixture small enough to enumerate all
/// 16 repairs, both rewritings return exactly the tuples every repair
/// returns.
pub fn oracle_fixture(tally: &mut Tally) {
    let db = Database::new();
    db.run_script(
        "create table customer (custkey text, acctbal float);
         create table orders (orderkey text, custkey text, total float);
         insert into customer values
           ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500), ('c4', 50);
         insert into orders values
           ('o1', 'c1', 10), ('o1', 'c2', 20), ('o2', 'c2', 30), ('o3', 'c3', 40),
           ('o3', 'c3', 5), ('o4', 'c4', 60), ('o5', 'c3', 70);",
    )
    .expect("fixture script");
    let sigma = ConstraintSet::new()
        .with_key("customer", ["custkey"])
        .with_key("orders", ["orderkey"]);
    let repairs = conquer_repair::RepairEnumerator::new(&db, &sigma, 1 << 20)
        .expect("fixture enumerates")
        .repair_count();
    tally.check(repairs == 16, || {
        format!("fixture has {repairs} repairs, not 16")
    });
    let queries = [
        "select c.custkey from customer c where c.acctbal > 1000",
        "select o.orderkey from orders o, customer c \
         where o.custkey = c.custkey and c.acctbal > 1000 and o.total > 8",
    ];
    for sql in queries {
        let oracle = consistent_answers_oracle(&db, sql, &sigma).expect("oracle runs");
        let rewritten = consistent_answers(&db, sql, &sigma).expect("rewriting runs");
        tally.check(rows_digest(&oracle) == rows_digest(&rewritten), || {
            format!("rewriting disagrees with the repair oracle on `{sql}`")
        });
    }
    annotate_database(&db, &sigma).expect("fixture annotates");
    for sql in queries {
        let annotated = consistent_answers_annotated(&db, sql, &sigma).expect("annotated runs");
        let rewritten = consistent_answers(&db, sql, &sigma).expect("rewriting runs");
        tally.check(rows_digest(&annotated) == rows_digest(&rewritten), || {
            format!("annotated rewriting disagrees with the plain one on `{sql}`")
        });
    }
}
