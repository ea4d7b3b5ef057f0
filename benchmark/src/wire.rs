//! Over-the-wire passes: an in-process `conquer_serve::serve`, closed-loop
//! reader connections, the churn writer, and the codec and plan-build
//! timings taken by calling the serve crate's public functions directly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conquer_engine::ExecOptions;
use conquer_obs::Json;
use conquer_serve::cache::build_statement;
use conquer_serve::protocol::{encode_frame, rows_from_json, rows_to_json};
use conquer_serve::{
    serve, Client, ClientError, FrameBuf, QueryOutcome, ServerConfig, ServerHandle,
};
use conquer_tpch::rng::StdRng;

use crate::durable::timed_inserts;
use crate::inproc::Window;
use crate::stats::{median_of, rows_digest, Tracer};
use crate::workload::{Env, Limit, Tally, STRATS};

/// The writer's pause between acknowledged inserts.
const THINK_TIME: Duration = Duration::from_millis(20);

/// A `busy` answer is a failed operation; the request is then retried this
/// many times before the reader gives up on it.
const BUSY_RETRIES: usize = 10;

pub struct Wire {
    server: ServerHandle,
    pub clients: Vec<Client>,
    pub warmup_us: f64,
}

impl Wire {
    /// Serve `env.db` under `ServerConfig::default()`, open `connections`
    /// client connections, and run every statement once on each: the
    /// statement cache fills, and the rows that come back over the wire
    /// must be the in-process rows.
    pub fn start(env: &Env, connections: usize, tally: &mut Tally) -> Wire {
        let server = serve(
            Arc::clone(&env.db),
            env.sigma.clone(),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let mut clients: Vec<Client> = (0..connections)
            .map(|_| Client::connect(server.addr()).expect("connect"))
            .collect();
        let t = Instant::now();
        for client in &mut clients {
            let off = Tracer::new(t, false);
            tally.add(reader(client, env, Limit::Passes(1), off, 0).w.window.tally);
        }
        Wire {
            server,
            clients,
            warmup_us: t.elapsed().as_secs_f64() * 1e6,
        }
    }

    /// Say goodbye on every connection, stop the server and wait until its
    /// threads are joined.
    pub fn stop(self) {
        for client in self.clients {
            let _ = client.quit();
        }
        self.server.shutdown();
        self.server.wait();
    }
}

/// Server-side counters read through `Client::stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    pub hits: f64,
    pub misses: f64,
    pub admitted: f64,
    pub rejected: f64,
}

impl ServerCounters {
    fn read(client: &mut Client) -> ServerCounters {
        let stats = client.stats().expect("stats");
        let field = |section: &str, name: &str| {
            stats
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        ServerCounters {
            hits: field("cache", "hits"),
            misses: field("cache", "misses"),
            admitted: field("admission", "admitted"),
            rejected: field("admission", "rejected"),
        }
    }

    fn since(self, before: ServerCounters) -> ServerCounters {
        ServerCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            admitted: self.admitted - before.admitted,
            rejected: self.rejected - before.rejected,
        }
    }
}

/// A wire window: the read passes, and what only a wire run can see.
#[derive(Default)]
pub struct WireWindow {
    pub window: Window,
    pub ping_us: Vec<f64>,
    /// Client round trip minus the server's own `elapsed_us`, per request.
    pub wire_us: Vec<f64>,
    pub server_us: Vec<f64>,
    /// Read answers that came back with `cached == false`.
    pub uncached: u64,
    pub busy: u64,
    /// Client latency of each acknowledged insert script, microseconds.
    pub insert_us: Vec<f64>,
    pub counters: ServerCounters,
}

struct ReaderOut {
    w: WireWindow,
    tracer: Tracer,
}

fn query_retrying(
    client: &mut Client,
    sql: &str,
    strategy: conquer_serve::Strategy,
    busy: &mut u64,
    tally: &mut Tally,
) -> Result<QueryOutcome, ClientError> {
    let mut tries = 0;
    loop {
        match client.query_with(sql, Some(strategy)) {
            Err(e) if e.is_busy() && tries < BUSY_RETRIES => {
                tries += 1;
                *busy += 1;
                tally.check(false, || format!("server busy: {e}"));
            }
            other => return other,
        }
    }
}

fn reader(client: &mut Client, env: &Env, limit: Limit, mut tracer: Tracer, id: u64) -> ReaderOut {
    let mut out = WireWindow::default();
    let mut request = id << 32;
    let started = Instant::now();
    while !limit.done(out.window.passes.len(), started) {
        request += 1;
        let span = tracer.enter("serve.ping", request);
        let pinged = client.ping();
        out.ping_us.push(tracer.exit(span) as f64 / 1e3);
        out.window
            .tally
            .check(pinged.is_ok(), || format!("ping: {pinged:?}"));
        let mut pass = [0.0; 3];
        for (qi, q) in env.spec.queries.iter().enumerate() {
            for (si, s) in STRATS.into_iter().enumerate() {
                request += 1;
                let span = tracer.enter("serve.request", request);
                let result = query_retrying(client, q.sql, s, &mut out.busy, &mut out.window.tally);
                let rtt_us = tracer.exit(span) as f64 / 1e3;
                pass[si] += rtt_us / 1e3;
                out.window.req_ms.push(rtt_us / 1e3);
                if let Ok(outcome) = &result {
                    out.server_us.push(outcome.elapsed_us as f64);
                    out.wire_us.push(rtt_us - outcome.elapsed_us as f64);
                    out.uncached += u64::from(!outcome.cached);
                }
                env.check_answer(
                    &mut out.window.tally,
                    qi,
                    si,
                    "over the wire",
                    result.as_ref().map(|o| &o.rows),
                );
            }
        }
        out.window.passes.push(pass);
    }
    out.window.wall_s = started.elapsed().as_secs_f64();
    ReaderOut { w: out, tracer }
}

/// Insert through `Client::script` with [`THINK_TIME`] between
/// acknowledgements until `stop`; returns each acknowledged latency.
fn writer(
    client: &mut Client,
    seed: u64,
    next_id: &mut u64,
    stop: &AtomicBool,
) -> (Vec<f64>, Tally) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut us = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        us.extend(timed_inserts(1, next_id, &mut rng, &mut tally, |sql| {
            client.script(sql).map_err(|e| e.to_string())
        }));
        std::thread::sleep(THINK_TIME);
    }
    (us, tally)
}

/// Run the workload's connections until `limit`: `readers` closed-loop
/// readers, each pass one `ping` and every statement under every strategy,
/// and with `churn` a writer on the last connection. Each reader records
/// into a tracer of its own, merged into `tracer` at the end.
pub fn run(
    env: &mut Env,
    readers: usize,
    churn: bool,
    limit: Limit,
    seed: u64,
    next_id: &mut u64,
    tracer: &mut Tracer,
) -> WireWindow {
    let mut wire = env.wire.take().expect("a wire workload has a server");
    let before = ServerCounters::read(&mut wire.clients[0]);
    let stop = AtomicBool::new(false);
    let (reader_clients, writer_clients) = wire.clients.split_at_mut(readers);
    let env_ref: &Env = env;
    let (outs, written) = std::thread::scope(|scope| {
        let written = churn.then(|| {
            let client = &mut writer_clients[0];
            let (stop, next_id) = (&stop, &mut *next_id);
            scope.spawn(move || writer(client, seed, next_id, stop))
        });
        let handles: Vec<_> = reader_clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let own = tracer.fork();
                scope.spawn(move || reader(client, env_ref, limit, own, i as u64 + 1))
            })
            .collect();
        let outs: Vec<ReaderOut> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (outs, written.map(|h| h.join().expect("writer thread")))
    });
    let counters = ServerCounters::read(&mut wire.clients[0]).since(before);
    env.wire = Some(wire);

    let mut all = WireWindow {
        counters,
        ..WireWindow::default()
    };
    for ReaderOut { w, tracer: t } in outs {
        all.window.passes.extend(w.window.passes);
        all.window.req_ms.extend(w.window.req_ms);
        all.window.wall_s = all.window.wall_s.max(w.window.wall_s);
        all.window.tally.add(w.window.tally);
        all.ping_us.extend(w.ping_us);
        all.wire_us.extend(w.wire_us);
        all.server_us.extend(w.server_us);
        all.uncached += w.uncached;
        all.busy += w.busy;
        tracer.merge(t);
    }
    if let Some((insert_us, tally)) = written {
        all.insert_us = insert_us;
        all.window.tally.add(tally);
    }
    // `cached` on the answers and the server's own miss counter describe
    // the same lookups.
    let (uncached, misses) = (all.uncached, all.counters.misses);
    all.window.tally.check(uncached as f64 == misses, || {
        format!("{uncached} answers were uncached but the server counted {misses} misses")
    });
    all
}

/// `n` inserts through `Client::script` on the first connection, for the
/// workloads whose window has no writer.
pub fn insert_probe(
    env: &mut Env,
    n: usize,
    next_id: &mut u64,
    rng: &mut StdRng,
    tally: &mut Tally,
) -> Vec<f64> {
    let client = &mut env.wire.as_mut().expect("server running").clients[0];
    timed_inserts(n, next_id, rng, tally, |sql| {
        client.script(sql).map_err(|e| e.to_string())
    })
}

pub struct Codec {
    pub encode_us: f64,
    pub decode_us: f64,
    /// Frame bytes of one pass's answers; a count, so it repeats exactly.
    pub resp_bytes: u64,
}

/// Encode and decode one pass's reference answers with the protocol's own
/// functions; medians over `reps` passes.
pub fn codec_probe(env: &Env, reps: usize, tally: &mut Tally) -> Codec {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..reps {
        let (mut e, mut d) = (0.0, 0.0);
        bytes = 0;
        for (rows3, digests) in env.reference.iter().zip(&env.digests) {
            for (rows, digest) in rows3.iter().zip(digests) {
                let t = Instant::now();
                let frame = encode_frame(&rows_to_json(rows)).expect("answer fits a frame");
                e += t.elapsed().as_secs_f64() * 1e6;
                bytes += frame.len() as u64;
                let t = Instant::now();
                let mut buf = FrameBuf::new();
                buf.extend(&frame);
                let back = buf
                    .next_frame()
                    .ok()
                    .flatten()
                    .and_then(|json| rows_from_json(&json).ok());
                d += t.elapsed().as_secs_f64() * 1e6;
                tally.check(back.is_some_and(|r| rows_digest(&r) == *digest), || {
                    "answer does not survive the frame codec".to_string()
                });
            }
        }
        enc.push(e);
        dec.push(d);
    }
    Codec {
        encode_us: median_of(&mut enc),
        decode_us: median_of(&mut dec),
        resp_bytes: bytes,
    }
}

/// The cache-miss path called directly: `build_statement` for every
/// statement of a pass; median over `reps` passes, microseconds.
pub fn build_probe(env: &Env, reps: usize) -> f64 {
    let options = ExecOptions::default();
    let mut per_pass = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        for q in env.spec.queries {
            for s in STRATS {
                build_statement(&env.db, &env.sigma, q.sql, s, &options)
                    .expect("benchmark statement builds");
            }
        }
        per_pass.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median_of(&mut per_pass)
}
