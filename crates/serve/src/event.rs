//! The multiplexed serving core: a readiness-polled event loop over
//! nonblocking sockets, std-only.
//!
//! Thread-per-connection (PR 4) spends one OS thread — stack, scheduler
//! slot, watchdog sibling — per client, which caps realistic connection
//! counts orders of magnitude below the ROADMAP's target. This module
//! replaces it with a fixed topology, independent of connection count:
//!
//! * **IO drivers** (`io_threads`, named `conquer-io-N`): each owns a
//!   disjoint set of connections and sweeps them level-triggered — flush
//!   pending output, drain readable bytes into an incremental
//!   [`FrameBuf`], dispatch complete requests. `std` exposes no
//!   `epoll`/`poll`, so readiness is discovered by the sweep itself
//!   (nonblocking reads that return `WouldBlock` when idle) with a short
//!   condvar nap between sweeps; accepts and query completions cut the
//!   nap short via [`Waker`].
//! * **Query workers** (`workers`, named `conquer-worker-N`): pull
//!   admission-gated jobs from the shared [`RunQueue`] and run them via
//!   [`crate::state::run_heavy`] — the same code the fallback mode runs
//!   on session threads, so responses are wire-identical across modes.
//!
//! Session state is an explicit per-connection struct ([`SessionState`]
//! inside [`ConnState`]), not thread-stack state. The protocol is strictly
//! request/response, so each connection has at most one request in flight;
//! parsed-but-undispatched requests wait in a per-connection FIFO, which
//! keeps responses in order without any reordering machinery.
//!
//! **Disconnect detection** is structural here rather than bolted on: the
//! driver actually *drains* the socket, so a FIN is seen as `read() == 0`
//! even when pipelined frames precede it — the exact case the fallback
//! watchdog's `peek` could never see (its `Ok(n)` arm can't distinguish
//! "bytes then more bytes" from "bytes then FIN"). EOF or a hard socket
//! error cancels the in-flight query's [`CancellationToken`], bumps
//! `serve.disconnect_cancel`, discards undispatched pipelined requests,
//! and tears the connection down.
//!
//! **Overload** keeps the PR-4 queue-wait → `busy` contract from both
//! directions: a worker that picks a job up passes the job's *enqueue*
//! time to [`Admission::try_admit_from`], so run-queue wait counts against
//! the same deadline as semaphore wait; and when every worker is wedged
//! behind slow queries, the drivers' sweep expires over-deadline jobs
//! straight out of the run queue so the client still gets its `busy`
//! within the deadline instead of whenever a worker frees up.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use conquer_engine::CancellationToken;

use crate::error::ServeError;
use crate::protocol::{encode_frame, ErrorCode, FrameBuf, Request, Response};
use crate::server::Shared;
use crate::state::{
    classify, error_response, handle_control, run_heavy, HeavyOp, RequestClass, SessionState,
    SERVER_VERSION,
};

/// Upper bound on a driver's nap between sweeps. Readiness is discovered
/// by the sweep (no `epoll` in std), so this bounds added request latency;
/// wakeups from accepts and query completions usually cut it short.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Per-connection cap on parsed-but-undispatched requests. Past this the
/// driver stops reading the socket (TCP backpressure does the rest), which
/// bounds the memory a hostile pipeliner can pin server-side.
const PENDING_CAP: usize = 64;

/// Read granularity of the driver sweep.
const READ_CHUNK: usize = 16 * 1024;

/// How long a closing connection (after `quit`/`shutdown`/a protocol
/// error) gets to drain its final response to a slow-reading peer before
/// the driver closes the socket regardless.
const FLUSH_GRACE: Duration = Duration::from_secs(2);

/// Wakeup latch for one driver: `wake` is sticky, so a notification that
/// arrives while the driver is mid-sweep is consumed by the next `wait`
/// instead of being lost.
pub(crate) struct Waker {
    flag: Mutex<bool>,
    cond: Condvar,
}

impl Waker {
    pub(crate) fn new() -> Waker {
        Waker {
            flag: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    pub(crate) fn wake(&self) {
        let mut flag = self.flag.lock().unwrap_or_else(|e| e.into_inner());
        *flag = true;
        drop(flag);
        self.cond.notify_all();
    }

    fn wait(&self, timeout: Duration) {
        let mut flag = self.flag.lock().unwrap_or_else(|e| e.into_inner());
        if !*flag {
            let (guard, _) = self
                .cond
                .wait_timeout(flag, timeout)
                .unwrap_or_else(|e| e.into_inner());
            flag = guard;
        }
        *flag = false;
    }
}

/// Hand-off slot from the accept loop to one driver.
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
}

struct InboxState {
    arrivals: Vec<(TcpStream, u64)>,
    closed: bool,
}

impl Inbox {
    pub(crate) fn new() -> Inbox {
        Inbox {
            state: Mutex::new(InboxState {
                arrivals: Vec::new(),
                closed: false,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue an accepted connection for the driver. `Err` returns the
    /// stream when the driver has already shut down — the accept loop then
    /// unwinds the session bookkeeping itself.
    pub(crate) fn push(&self, stream: TcpStream, id: u64) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.closed {
            return Err(stream);
        }
        state.arrivals.push((stream, id));
        Ok(())
    }

    fn drain(&self) -> Vec<(TcpStream, u64)> {
        std::mem::take(&mut self.lock().arrivals)
    }

    fn close_and_drain(&self) -> Vec<(TcpStream, u64)> {
        let mut state = self.lock();
        state.closed = true;
        std::mem::take(&mut state.arrivals)
    }
}

/// Everything one connection remembers, owned by its driver and touched by
/// at most one other thread (the worker running its single in-flight job,
/// or a driver expiring that job) under this mutex.
struct ConnState {
    /// Absent exactly while a heavy op is in flight — the job owns the
    /// session state for the duration, which is safe because the pending
    /// FIFO dispatches at most one request at a time.
    session: Option<SessionState>,
    frames: FrameBuf,
    /// Parsed requests (or their parse errors, which must be answered in
    /// arrival order) waiting for dispatch.
    pending: VecDeque<Result<Request, String>>,
    /// Bytes owed to the client; `out_pos` marks the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// The in-flight query's cancellation token; EOF/error on the socket
    /// fires it, which is the whole disconnect-detection story.
    in_flight: Option<CancellationToken>,
    /// Poisoned: discard any late worker completion, tear down on sight.
    dead: bool,
    /// Stop reading, flush `out`, then close (quit/shutdown/protocol
    /// error). `flush_deadline` bounds how long a non-reading peer can
    /// hold the socket open in this state.
    close_after_flush: bool,
    shutdown_after_flush: bool,
    flush_deadline: Option<Instant>,
    /// Teardown ran (session count decremented, socket closed) — guards
    /// against double-teardown from racing paths.
    torn_down: bool,
}

pub(crate) struct Conn {
    stream: TcpStream,
    /// The owning driver's waker, so workers can nudge it on completion.
    driver: Arc<Waker>,
    state: Mutex<ConnState>,
}

impl Conn {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One admission-gated request traveling to a query worker. Owns the
/// connection's session state for the duration (see [`ConnState::session`]).
struct Job {
    conn: Arc<Conn>,
    op: HeavyOp,
    session: SessionState,
    token: CancellationToken,
    queued_at: Instant,
    /// `queued_at + queue_wait`: past this, drivers expire the job to a
    /// `busy` response without waiting for a worker.
    deadline: Instant,
}

/// The bounded run queue feeding the query workers. Structurally bounded:
/// each connection contributes at most one job (single in-flight per
/// connection), so depth ≤ live connections ≤ `max_sessions`.
pub(crate) struct RunQueue {
    state: Mutex<RunQueueState>,
    cond: Condvar,
}

struct RunQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl RunQueue {
    pub(crate) fn new() -> Arc<RunQueue> {
        Arc::new(RunQueue {
            state: Mutex::new(RunQueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, RunQueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue a job; a closed queue hands it back (boxed: only the
    /// shutdown path pays, and `Result` stays small on the hot one).
    fn push(&self, job: Job) -> Result<(), Box<Job>> {
        let mut state = self.lock();
        if state.closed {
            return Err(Box::new(job));
        }
        state.jobs.push_back(job);
        drop(state);
        self.cond.notify_one();
        Ok(())
    }

    /// Block for the next job; `None` once closed and drained (worker
    /// exit). Jobs left at close are still handed out — their connections
    /// are dead by then and the worker discards them cheaply.
    fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Remove every queued job whose queue-wait deadline has passed. All
    /// jobs share one `queue_wait` offset so deadlines are push-ordered;
    /// the expired set is always a prefix.
    fn expire(&self, now: Instant) -> Vec<Job> {
        let mut state = self.lock();
        let mut expired = Vec::new();
        while state.jobs.front().is_some_and(|job| now >= job.deadline) {
            expired.push(state.jobs.pop_front().expect("front checked"));
        }
        expired
    }

    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    pub(crate) fn depth(&self) -> usize {
        self.lock().jobs.len()
    }
}

/// Per-driver handles the accept loop and `request_shutdown` need.
pub(crate) struct DriverShared {
    pub(crate) waker: Arc<Waker>,
    pub(crate) inbox: Arc<Inbox>,
}

/// The event-mode plumbing hung off [`Shared`] once at startup.
pub(crate) struct EventCore {
    pub(crate) run_queue: Arc<RunQueue>,
    pub(crate) drivers: Vec<DriverShared>,
}

/// What a sweep decided about one connection.
enum Outcome {
    Alive,
    /// Close without disconnect semantics (quit, shutdown, flush-deadline,
    /// internal error).
    Close,
    /// Close because the peer vanished (EOF / socket error) — in-flight
    /// cancellation was already fired under the lock.
    Disconnect,
    /// Close, then initiate server shutdown (client `shutdown` acked and
    /// flushed — the response is in the kernel buffer before any socket
    /// gets torn down, which the CLI's clean-exit path depends on).
    CloseAndShutdown,
}

/// Body of one `conquer-io-N` thread.
pub(crate) fn driver_loop(
    shared: Arc<Shared>,
    queue: Arc<RunQueue>,
    inbox: Arc<Inbox>,
    waker: Arc<Waker>,
) {
    let mut conns: Vec<Arc<Conn>> = Vec::new();
    loop {
        for (stream, id) in inbox.drain() {
            match adopt(&shared, stream, id, &waker) {
                Some(conn) => conns.push(conn),
                None => shared.session_closed(),
            }
        }
        if shared.is_shutting_down() {
            // Bounce anything racing in, then tear down owned connections:
            // cancel in-flight work, close sockets, drain the counts.
            for (stream, _id) in inbox.close_and_drain() {
                drop(stream);
                shared.session_closed();
            }
            for conn in conns.drain(..) {
                teardown(&shared, &conn, false);
            }
            return;
        }
        conns.retain(|conn| match sweep(&shared, &queue, conn) {
            Outcome::Alive => true,
            Outcome::Close => {
                teardown(&shared, conn, false);
                false
            }
            Outcome::Disconnect => {
                teardown(&shared, conn, true);
                false
            }
            Outcome::CloseAndShutdown => {
                teardown(&shared, conn, false);
                shared.request_shutdown();
                false
            }
        });
        for job in queue.expire(Instant::now()) {
            expire_job(&shared, job);
        }
        waker.wait(POLL_INTERVAL);
    }
}

/// Body of one `conquer-worker-N` thread.
pub(crate) fn worker_loop(shared: Arc<Shared>, queue: Arc<RunQueue>) {
    while let Some(mut job) = queue.pop() {
        if job.conn.lock().dead {
            continue;
        }
        let response = run_heavy(
            &shared,
            &mut job.session,
            &job.op,
            &job.token,
            job.queued_at,
        );
        let mut state = job.conn.lock();
        if state.dead {
            continue;
        }
        state.session = Some(job.session);
        state.in_flight = None;
        push_frame(&mut state, &response);
        drop(state);
        job.conn.driver.wake();
    }
}

/// Take ownership of a freshly accepted connection: nonblocking mode plus
/// the `Hello` greeting queued on the (nonblocking) output buffer, so a
/// connected-but-never-reading peer can't wedge anything.
fn adopt(
    shared: &Arc<Shared>,
    stream: TcpStream,
    id: u64,
    waker: &Arc<Waker>,
) -> Option<Arc<Conn>> {
    stream.set_nonblocking(true).ok()?;
    let mut state = ConnState {
        session: Some(SessionState::new(shared, id)),
        frames: FrameBuf::new(),
        pending: VecDeque::new(),
        out: Vec::new(),
        out_pos: 0,
        in_flight: None,
        dead: false,
        close_after_flush: false,
        shutdown_after_flush: false,
        flush_deadline: None,
        torn_down: false,
    };
    let hello = Response::Hello {
        session: id,
        version: SERVER_VERSION.to_string(),
    };
    state
        .out
        .extend_from_slice(&encode_frame(&hello.to_json()).ok()?);
    Some(Arc::new(Conn {
        stream,
        driver: Arc::clone(waker),
        state: Mutex::new(state),
    }))
}

/// Final teardown: cancel in-flight work, close the socket, release the
/// session slot. Idempotent via `torn_down`. `disconnect` selects the
/// disconnect-cancel accounting (only meaningful when a query was in
/// flight).
fn teardown(shared: &Shared, conn: &Conn, disconnect: bool) {
    let mut state = conn.lock();
    if state.torn_down {
        return;
    }
    state.torn_down = true;
    state.dead = true;
    let cancelled = match state.in_flight.take() {
        Some(token) => {
            token.cancel();
            true
        }
        None => false,
    };
    drop(state);
    if disconnect && cancelled {
        conquer_obs::registry()
            .counter("serve.disconnect_cancel")
            .inc();
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
    shared.session_closed();
}

/// One level-triggered pass over a connection: flush, read, dispatch,
/// flush again.
fn sweep(shared: &Arc<Shared>, queue: &Arc<RunQueue>, conn: &Arc<Conn>) -> Outcome {
    let mut state = conn.lock();
    if state.dead {
        return Outcome::Close;
    }
    if !flush(conn, &mut state) {
        return Outcome::Disconnect;
    }
    if state.close_after_flush {
        return resolve_closing(&mut state);
    }
    match fill(conn, &mut state) {
        ReadStatus::Open => {}
        ReadStatus::Eof => {
            // The structural disconnect fix: a FIN is seen here even when
            // pipelined frames arrived ahead of it, because the driver
            // drains the socket instead of peeking past queued bytes.
            // In-flight work is cancelled; undispatched pipelined requests
            // are discarded — the client is gone.
            if let Some(token) = state.in_flight.take() {
                token.cancel();
                drop(state);
                conquer_obs::registry()
                    .counter("serve.disconnect_cancel")
                    .inc();
                return Outcome::Close; // cancellation already accounted
            }
            return Outcome::Close;
        }
        ReadStatus::Error => return Outcome::Disconnect,
    }
    dispatch(shared, queue, conn, &mut state);
    if state.dead {
        return Outcome::Close;
    }
    if !flush(conn, &mut state) {
        return Outcome::Disconnect;
    }
    if state.close_after_flush {
        return resolve_closing(&mut state);
    }
    Outcome::Alive
}

/// A connection in the flush-then-close state: close once the final bytes
/// are out (or the grace deadline passes with a non-reading peer).
fn resolve_closing(state: &mut ConnState) -> Outcome {
    let flushed = state.out_pos == state.out.len();
    let expired = state
        .flush_deadline
        .is_some_and(|deadline| Instant::now() >= deadline);
    if flushed || expired {
        if state.shutdown_after_flush {
            Outcome::CloseAndShutdown
        } else {
            Outcome::Close
        }
    } else {
        Outcome::Alive
    }
}

/// Write as much of `out` as the socket will take. `false` = hard error.
fn flush(conn: &Conn, state: &mut ConnState) -> bool {
    while state.out_pos < state.out.len() {
        match (&conn.stream).write(&state.out[state.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => state.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if state.out_pos == state.out.len() && state.out_pos > 0 {
        state.out.clear();
        state.out_pos = 0;
    }
    true
}

enum ReadStatus {
    Open,
    Eof,
    Error,
}

/// Drain readable bytes into the frame buffer and parse complete frames
/// into the pending FIFO. Stops at `WouldBlock` (level-triggered: the next
/// sweep resumes), the pending cap (backpressure), EOF, or an error.
fn fill(conn: &Conn, state: &mut ConnState) -> ReadStatus {
    let mut chunk = [0u8; READ_CHUNK];
    while state.pending.len() < PENDING_CAP && !state.close_after_flush {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => return ReadStatus::Eof,
            Ok(n) => {
                state.frames.extend(&chunk[..n]);
                loop {
                    match state.frames.next_frame() {
                        Ok(Some(json)) => {
                            state.pending.push_back(Request::from_json(&json));
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Framing is lost; report once and close —
                            // the same contract as the blocking path.
                            let resp = Response::Error {
                                code: ErrorCode::Protocol,
                                message: "malformed frame".to_string(),
                            };
                            push_frame(state, &resp);
                            state.close_after_flush = true;
                            state.flush_deadline = Some(Instant::now() + FLUSH_GRACE);
                            return ReadStatus::Open;
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadStatus::Error,
        }
    }
    ReadStatus::Open
}

/// Answer control requests inline and hand at most one heavy request to
/// the run queue. Responses stay in request order because nothing past an
/// in-flight heavy request is dispatched until its completion clears
/// `in_flight`.
fn dispatch(shared: &Arc<Shared>, queue: &Arc<RunQueue>, conn: &Arc<Conn>, state: &mut ConnState) {
    while state.in_flight.is_none() && !state.close_after_flush && !state.dead {
        let Some(entry) = state.pending.pop_front() else {
            break;
        };
        let request = match entry {
            Ok(request) => request,
            Err(message) => {
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message,
                };
                push_frame(state, &resp);
                continue;
            }
        };
        let session = state
            .session
            .as_mut()
            .expect("session present whenever nothing is in flight");
        match classify(request, session) {
            RequestClass::Control(request) => {
                let response = handle_control(shared, session, &request);
                push_frame(state, &response);
                match request {
                    Request::Quit => {
                        state.close_after_flush = true;
                        state.flush_deadline = Some(Instant::now() + FLUSH_GRACE);
                    }
                    Request::Shutdown => {
                        state.close_after_flush = true;
                        state.shutdown_after_flush = true;
                        state.flush_deadline = Some(Instant::now() + FLUSH_GRACE);
                    }
                    _ => {}
                }
            }
            RequestClass::Heavy(op) => {
                let queued_at = Instant::now();
                let token = CancellationToken::new();
                state.in_flight = Some(token.clone());
                let session = state.session.take().expect("checked above");
                let job = Job {
                    conn: Arc::clone(conn),
                    op,
                    session,
                    token,
                    queued_at,
                    deadline: queued_at + shared.admission.queue_wait(),
                };
                if let Err(job) = queue.push(job) {
                    // Queue closed: the server is shutting down and this
                    // driver will tear the connection down on its next
                    // pass — just restore the session state.
                    state.session = Some(job.session);
                    state.in_flight = None;
                    break;
                }
            }
        }
    }
}

/// A job whose queue-wait deadline passed while every worker was busy:
/// answer `busy` now, from the driver, with the same accounting a
/// semaphore timeout gets — timely overload behavior must not depend on a
/// worker freeing up.
fn expire_job(shared: &Shared, job: Job) {
    shared
        .admission
        .record_queue_rejection(job.queued_at.elapsed());
    let stats = shared.admission.stats();
    let response = error_response(&ServeError::Busy(format!(
        "{} queries in flight (max {}), queue wait exceeded; retry later",
        stats.in_flight, stats.max_concurrent
    )));
    let mut state = job.conn.lock();
    if state.dead {
        return;
    }
    state.session = Some(job.session);
    state.in_flight = None;
    push_frame(&mut state, &response);
    drop(state);
    job.conn.driver.wake();
}

/// Queue one response frame on the connection's output buffer. An encode
/// failure (only possible for a >64 MiB payload) poisons the connection —
/// the client would otherwise wait forever for a frame that cannot exist.
fn push_frame(state: &mut ConnState, response: &Response) {
    match encode_frame(&response.to_json()) {
        Ok(bytes) => state.out.extend_from_slice(&bytes),
        Err(_) => state.dead = true,
    }
}
