//! The serving core: an event loop that blocks in `poll(2)` over
//! nonblocking sockets, std plus one FFI declaration ([`crate::poll`]).
//!
//! One OS thread per client — stack, scheduler slot — would cap realistic
//! connection counts orders of magnitude below the ROADMAP's target, so the
//! topology is fixed, independent of connection count:
//!
//! * **IO drivers** (`io_threads`, named `conquer-io-N`): each owns a
//!   disjoint set of connections and blocks in `poll` until one of them —
//!   or its waker, or a deadline — needs it. It then touches only the
//!   connections that were reported ready or flagged by a completion:
//!   flush pending output, drain readable bytes into an incremental
//!   [`FrameBuf`], dispatch complete requests. An idle server makes no
//!   system calls at all.
//! * **Query workers** (`max_concurrent` of them, named
//!   `conquer-worker-N`): pull heavy jobs from the shared [`RunQueue`] and
//!   run them via [`crate::state::run_heavy`]. A worker writes its
//!   response to the socket itself and involves the driver only when
//!   something is left over.
//!
//! **Interest set.** A connection polls for `POLLIN` while the driver may
//! read from it (fewer than [`PENDING_CAP`] undispatched requests, not
//! closing) and for `POLLOUT` only while a flush attempt left bytes in
//! `out`; the driver recomputes both whenever it services the connection,
//! under the lock it already holds. `POLLHUP`/`POLLERR` arrive unasked and
//! mean the peer is gone. The waker's read end is always in the set.
//!
//! **Timeout.** The nearest real deadline: the run queue's front job
//! (`queued_at + queue_wait`, so a client still gets its `busy` on time
//! when every worker is wedged) or a closing connection's `flush_deadline`
//! (so a peer that stopped reading is dropped after [`FLUSH_GRACE`]).
//! With neither pending the driver waits indefinitely.
//!
//! **Who wakes whom.** A byte on the driver's [`Waker`] is written by the
//! accept loop (a connection in the mailbox), by a worker or an expiring
//! driver whose completion left bytes unflushed, pipelined requests
//! undispatched or a close unresolved (the connection's slot in the
//! mailbox), and by shutdown. Posting to a mailbox that already holds
//! something skips the byte — the driver empties the mailbox whole.
//!
//! Session state is an explicit per-connection struct ([`SessionState`]
//! inside [`ConnState`]), not thread-stack state. The protocol is strictly
//! request/response, so each connection has at most one request in flight;
//! parsed-but-undispatched requests wait in a per-connection FIFO, which
//! keeps responses in order without any reordering machinery.
//!
//! **Disconnect detection** is structural: the driver actually *drains*
//! the socket, so a FIN is seen as `read() == 0` even when pipelined
//! frames precede it (a `peek` would see only the queued bytes and never
//! the FIN behind them). EOF or a hard socket error cancels the in-flight
//! query's [`CancellationToken`], bumps
//! `serve.disconnect_cancel`, discards undispatched pipelined requests,
//! and tears the connection down.
//!
//! **Admission** is the run queue. The worker pool bounds how many jobs
//! run at once, so a job is admitted when a worker pops it; when every
//! worker is wedged behind slow queries, the drivers expire jobs whose
//! queue-wait deadline passed straight out of the queue, so the client
//! gets its `busy` within the deadline instead of whenever a worker frees
//! up. [`Intake`] counts both outcomes for `stats`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use conquer_engine::{CancellationToken, ExecOptions};
use conquer_obs::{Counter, Gauge, Histogram, Json};

use crate::error::ServeError;
use crate::poll::{self, PollFd, Waker, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::protocol::{encode_frame, ErrorCode, FrameBuf, Request, Response};
use crate::server::Shared;
use crate::state::{
    classify, error_response, handle_control, run_heavy, HeavyOp, RequestClass, SessionState,
    SERVER_VERSION,
};

/// Per-connection cap on parsed-but-undispatched requests. Past this the
/// driver stops reading the socket (TCP backpressure does the rest), which
/// bounds the memory a hostile pipeliner can pin server-side.
const PENDING_CAP: usize = 64;

/// Read granularity of a driver; one buffer of this size per driver.
const READ_CHUNK: usize = 16 * 1024;

/// How long a closing connection (after `quit`/`shutdown`/a protocol
/// error) gets to drain its final response to a slow-reading peer before
/// the driver closes the socket regardless.
const FLUSH_GRACE: Duration = Duration::from_secs(2);

/// The event loop's registry metrics, resolved once: each is bumped where
/// its event happens, on paths too hot for a by-name lookup.
struct LoopMetrics {
    /// Returns from `poll`, whatever the reason.
    polls: Arc<Counter>,
    /// Connections a `poll` reported readable (or hung up).
    wake_readable: Arc<Counter>,
    /// Connections a `poll` reported writable.
    wake_writable: Arc<Counter>,
    /// Connections a completion flagged for their driver.
    wake_completion: Arc<Counter>,
    /// Connections adopted from the accept loop.
    wake_accept: Arc<Counter>,
    /// `poll`s that ran into their timeout.
    wake_deadline: Arc<Counter>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// Times a connection reached [`PENDING_CAP`] and reading paused.
    pending_cap: Arc<Counter>,
    conns_open: Arc<Gauge>,
    run_queue_depth: Arc<Gauge>,
    /// Jobs a worker started, and jobs a driver expired to `busy`.
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    /// How long a job waited in the run queue, to pick-up or to expiry.
    admission_wait_us: Arc<Histogram>,
    /// The run queue's depth as each job found it on arrival.
    admission_queue_depth: Arc<Histogram>,
}

fn metrics() -> &'static LoopMetrics {
    static METRICS: OnceLock<LoopMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = conquer_obs::registry();
        LoopMetrics {
            polls: registry.counter("serve.loop.polls"),
            wake_readable: registry.counter("serve.loop.wake.readable"),
            wake_writable: registry.counter("serve.loop.wake.writable"),
            wake_completion: registry.counter("serve.loop.wake.completion"),
            wake_accept: registry.counter("serve.loop.wake.accept"),
            wake_deadline: registry.counter("serve.loop.wake.deadline"),
            frames_in: registry.counter("serve.frames.in"),
            frames_out: registry.counter("serve.frames.out"),
            bytes_in: registry.counter("serve.bytes.in"),
            bytes_out: registry.counter("serve.bytes.out"),
            pending_cap: registry.counter("serve.backpressure.pending_cap"),
            conns_open: registry.gauge("serve.conns.open"),
            run_queue_depth: registry.gauge("serve.run_queue.depth"),
            admitted: registry.counter("serve.admission.admitted"),
            rejected: registry.counter("serve.admission.rejected"),
            admission_wait_us: registry.histogram("serve.admission.wait.us"),
            admission_queue_depth: registry.histogram("serve.admission.queue_depth"),
        }
    })
}

/// What other threads leave for one driver: its waker and its mailbox.
pub(crate) struct DriverShared {
    waker: Waker,
    mail: Mutex<Mail>,
}

#[derive(Default)]
struct Mail {
    /// Accepted connections waiting for adoption.
    arrivals: Vec<(TcpStream, u64)>,
    /// Slots of connections whose completion left the driver work to do.
    flagged: Vec<usize>,
    /// The driver has exited; arrivals bounce back to the accept loop.
    closed: bool,
}

impl DriverShared {
    fn lock(&self) -> MutexGuard<'_, Mail> {
        self.mail.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Post to the mailbox and wake the driver — unless the mailbox already
    /// held something: whoever put that there wakes (or woke) the driver,
    /// and the driver takes the whole mailbox after draining its waker.
    fn post(&self, mut mail: MutexGuard<'_, Mail>, put: impl FnOnce(&mut Mail)) {
        let first = mail.arrivals.is_empty() && mail.flagged.is_empty();
        put(&mut mail);
        drop(mail);
        if first {
            self.waker.wake();
        }
    }

    /// Queue an accepted connection for the driver. `Err` returns the
    /// stream when the driver has already shut down — the accept loop then
    /// unwinds the session bookkeeping itself.
    fn hand_off(&self, stream: TcpStream, id: u64) -> Result<(), TcpStream> {
        let mail = self.lock();
        if mail.closed {
            return Err(stream);
        }
        self.post(mail, |mail| mail.arrivals.push((stream, id)));
        Ok(())
    }

    /// Ask the driver to service the connection in `slot`.
    fn flag(&self, slot: usize) {
        self.post(self.lock(), |mail| mail.flagged.push(slot));
    }

    fn take(&self) -> (Vec<(TcpStream, u64)>, Vec<usize>) {
        let mut mail = self.lock();
        (
            std::mem::take(&mut mail.arrivals),
            std::mem::take(&mut mail.flagged),
        )
    }

    fn close_and_drain(&self) -> Vec<(TcpStream, u64)> {
        let mut mail = self.lock();
        mail.closed = true;
        std::mem::take(&mut mail.arrivals)
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

impl ConnState {
    fn may_read(&self) -> bool {
        self.pending.len() < PENDING_CAP && !self.close_after_flush
    }

    /// Stop reading and close once `out` is flushed or the grace runs out.
    fn close_after_flush(&mut self) {
        self.close_after_flush = true;
        self.flush_deadline = Some(Instant::now() + FLUSH_GRACE);
    }
}

pub(crate) struct Conn {
    stream: TcpStream,
    /// The owning driver, so completions can flag this connection for it.
    driver: Arc<DriverShared>,
    /// This connection's index in its driver's tables, for its lifetime.
    slot: usize,
    state: Mutex<ConnState>,
}

impl Conn {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One heavy request traveling to a query worker. Owns the connection's
/// session state for the duration (see [`ConnState::session`]).
struct Job {
    conn: Arc<Conn>,
    op: HeavyOp,
    session: SessionState,
    token: CancellationToken,
    /// Past `queued_at + queue_wait`, drivers expire the job to a `busy`
    /// response without waiting for a worker.
    queued_at: Instant,
}

/// The bounded run queue feeding the query workers, and the server's
/// admission. Structurally bounded: each connection contributes at most
/// one job (single in-flight per connection), so depth ≤ live connections
/// ≤ `max_sessions`.
pub(crate) struct RunQueue {
    state: Mutex<RunQueueState>,
    cond: Condvar,
    intake: Intake,
}

struct RunQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// What `stats` reports about admission, counted for this server alone:
/// the process registry behind `/metrics` is shared by every server a
/// process starts.
struct Intake {
    /// The worker pool's size: how many jobs run at once.
    max_concurrent: usize,
    /// How long a job may wait for a worker before a driver answers `busy`.
    queue_wait: Duration,
    /// Workers between popping a job and completing it.
    in_flight: AtomicU64,
    /// Jobs a worker started.
    admitted: AtomicU64,
    /// Jobs a driver expired.
    rejected: AtomicU64,
}

/// A worker's place in [`Intake::in_flight`], given back on drop — by an
/// unwinding worker too.
struct InFlight<'a>(&'a AtomicU64);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl RunQueue {
    fn new(max_concurrent: usize, queue_wait: Duration) -> Arc<RunQueue> {
        Arc::new(RunQueue {
            state: Mutex::new(RunQueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            intake: Intake {
                max_concurrent,
                queue_wait,
                in_flight: AtomicU64::new(0),
                admitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
            },
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
        let found = state.jobs.len();
        state.jobs.push_back(job);
        drop(state);
        let m = metrics();
        m.run_queue_depth.inc();
        m.admission_queue_depth.record(found as u64);
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
                metrics().run_queue_depth.dec();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Admit a popped job: count it, and hold its place in `in_flight`
    /// until the returned guard drops.
    fn admit(&self, queued_at: Instant) -> InFlight<'_> {
        let intake = &self.intake;
        intake.in_flight.fetch_add(1, Ordering::Relaxed);
        intake.admitted.fetch_add(1, Ordering::Relaxed);
        let m = metrics();
        m.admitted.inc();
        m.admission_wait_us
            .record(queued_at.elapsed().as_micros() as u64);
        InFlight(&intake.in_flight)
    }

    /// Remove every queued job whose queue-wait deadline has passed,
    /// counting each as rejected. All jobs share one `queue_wait` offset so
    /// deadlines are push-ordered; the expired set is always a prefix.
    fn expire(&self, now: Instant) -> Vec<Job> {
        let mut state = self.lock();
        let mut expired = Vec::new();
        while state
            .jobs
            .front()
            .is_some_and(|job| now >= job.queued_at + self.intake.queue_wait)
        {
            expired.push(state.jobs.pop_front().expect("front checked"));
        }
        drop(state);
        let m = metrics();
        for job in &expired {
            self.intake.rejected.fetch_add(1, Ordering::Relaxed);
            m.run_queue_depth.dec();
            m.rejected.inc();
            m.admission_wait_us
                .record(job.queued_at.elapsed().as_micros() as u64);
        }
        expired
    }

    /// When the next [`expire`](RunQueue::expire) will have work.
    fn front_deadline(&self) -> Option<Instant> {
        let front = self.lock().jobs.front().map(|job| job.queued_at);
        front.map(|queued_at| queued_at + self.intake.queue_wait)
    }

    /// The `busy` answer for a job that outwaited the queue wait.
    fn busy(&self) -> ServeError {
        ServeError::Busy(format!(
            "{} queries in flight (max {}), queue wait exceeded; retry later",
            self.intake.in_flight.load(Ordering::Relaxed),
            self.intake.max_concurrent
        ))
    }

    fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    fn depth(&self) -> usize {
        self.lock().jobs.len()
    }
}

/// What the rest of the server reaches the event loop through: the run
/// queue and each driver's mailbox and waker. Part of [`Shared`].
pub(crate) struct EventCore {
    run_queue: Arc<RunQueue>,
    drivers: Vec<Arc<DriverShared>>,
}

impl EventCore {
    /// A fresh run queue for `max_concurrent` workers and the mailboxes of
    /// `io_threads` drivers; no thread runs until [`spawn`](EventCore::spawn).
    pub(crate) fn new(
        io_threads: usize,
        max_concurrent: usize,
        queue_wait: Duration,
    ) -> io::Result<EventCore> {
        metrics(); // every loop metric is exposed from the start, at zero
        let drivers = (0..io_threads)
            .map(|_| {
                Ok(Arc::new(DriverShared {
                    waker: Waker::new()?,
                    mail: Mutex::new(Mail::default()),
                }))
            })
            .collect::<io::Result<_>>()?;
        Ok(EventCore {
            run_queue: RunQueue::new(max_concurrent, queue_wait),
            drivers,
        })
    }

    /// Spawn one driver per mailbox and `max_concurrent` query workers, all
    /// over `shared` (which owns this core); the workers build cache
    /// entries under `build`. The handles are the caller's to join.
    pub(crate) fn spawn(
        &self,
        shared: &Arc<Shared>,
        build: &ExecOptions,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        let mut pool = Vec::new();
        for (i, me) in self.drivers.iter().enumerate() {
            let driver = Driver::new(
                Arc::clone(shared),
                Arc::clone(&self.run_queue),
                Arc::clone(me),
            );
            pool.push(
                std::thread::Builder::new()
                    .name(format!("conquer-io-{i}"))
                    .spawn(move || driver.run())?,
            );
        }
        for i in 0..self.run_queue.intake.max_concurrent {
            let shared = Arc::clone(shared);
            let queue = Arc::clone(&self.run_queue);
            let build = build.clone();
            pool.push(
                std::thread::Builder::new()
                    .name(format!("conquer-worker-{i}"))
                    .spawn(move || worker_loop(shared, queue, build))?,
            );
        }
        Ok(pool)
    }

    /// Hand an accepted connection to a driver, round-robin by session id.
    /// `Err` returns the stream when that driver has already shut down.
    pub(crate) fn hand_off(&self, stream: TcpStream, id: u64) -> Result<(), TcpStream> {
        self.drivers[id as usize % self.drivers.len()].hand_off(stream, id)
    }

    /// Stop handing out jobs and wake every driver to see the shutdown flag.
    pub(crate) fn shutdown(&self) {
        self.run_queue.close();
        for driver in &self.drivers {
            driver.waker.wake();
        }
    }

    pub(crate) fn run_queue_depth(&self) -> usize {
        self.run_queue.depth()
    }

    /// Query workers between popping a job and completing it.
    pub(crate) fn in_flight(&self) -> u64 {
        self.run_queue.intake.in_flight.load(Ordering::Relaxed)
    }

    /// `stats`' admission section.
    pub(crate) fn admission_json(&self) -> Json {
        let intake = &self.run_queue.intake;
        let count = |n: &AtomicU64| Json::UInt(n.load(Ordering::Relaxed));
        Json::obj([
            ("in_flight", count(&intake.in_flight)),
            ("queue_depth", Json::UInt(self.run_queue_depth() as u64)),
            ("max_concurrent", Json::UInt(intake.max_concurrent as u64)),
            ("admitted", count(&intake.admitted)),
            ("rejected", count(&intake.rejected)),
        ])
    }
}

/// What servicing a connection decided about it.
enum Outcome {
    /// Keep it, polling for `events`; `flush_deadline` is set while it is
    /// closing with output still owed.
    Alive {
        events: i16,
        flush_deadline: Option<Instant>,
    },
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

/// One `conquer-io-N` thread's state.
struct Driver {
    shared: Arc<Shared>,
    queue: Arc<RunQueue>,
    me: Arc<DriverShared>,
    /// Owned connections by slot; a slot is reused once its connection is
    /// gone, so a stale flag can at worst service a stranger for nothing.
    conns: Vec<Option<Arc<Conn>>>,
    free: Vec<usize>,
    /// The interest set: the waker, then slot `i` at `fds[i + 1]` (vacant
    /// while the slot is free).
    fds: Vec<PollFd>,
    /// Closing connections with output still owed, and when to give up.
    closing: Vec<(usize, Instant)>,
    /// The read buffer every connection of this driver fills through.
    buf: Vec<u8>,
}

impl Driver {
    fn new(shared: Arc<Shared>, queue: Arc<RunQueue>, me: Arc<DriverShared>) -> Driver {
        let fds = vec![PollFd::new(&me.waker, POLLIN)];
        Driver {
            shared,
            queue,
            me,
            conns: Vec::new(),
            free: Vec::new(),
            fds,
            closing: Vec::new(),
            buf: vec![0; READ_CHUNK],
        }
    }

    /// Body of the thread.
    fn run(mut self) {
        let m = metrics();
        while !self.shared.is_shutting_down() {
            let timeout = self
                .next_deadline()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            let mut ready = match poll::wait(&mut self.fds, timeout) {
                Ok(ready) => ready,
                Err(_) => {
                    // Nothing a retry would fix (the interest set itself
                    // was refused); a driver that cannot wait cannot serve.
                    conquer_obs::registry()
                        .counter("serve.loop.poll_failed")
                        .inc();
                    self.shared.request_shutdown();
                    break;
                }
            };
            m.polls.inc();
            if ready == 0 {
                m.wake_deadline.inc();
            }
            if self.fds[0].revents() != 0 {
                self.me.waker.drain();
                ready -= 1;
            }
            let (arrivals, flagged) = self.me.take();
            for (stream, id) in arrivals {
                m.wake_accept.inc();
                self.adopt(stream, id);
            }
            for slot in flagged {
                m.wake_completion.inc();
                self.service(slot, false);
            }
            let mut index = 1;
            while ready > 0 && index < self.fds.len() {
                let revents = self.fds[index].revents();
                if revents != 0 {
                    ready -= 1;
                    if revents & POLLOUT != 0 {
                        m.wake_writable.inc();
                    }
                    if revents & !POLLOUT != 0 {
                        m.wake_readable.inc();
                    }
                    self.service(index - 1, revents & (POLLERR | POLLHUP | POLLNVAL) != 0);
                }
                index += 1;
            }
            let now = Instant::now();
            // Every worker is busy past these jobs' deadlines: answer
            // `busy` now, from the driver, rather than whenever one frees.
            for job in self.queue.expire(now) {
                let busy = error_response(&self.queue.busy());
                complete(&job.conn, job.session, &busy);
            }
            let overdue: Vec<usize> = self
                .closing
                .iter()
                .filter(|(_, deadline)| *deadline <= now)
                .map(|(slot, _)| *slot)
                .collect();
            for slot in overdue {
                self.service(slot, false);
            }
        }
        // Bounce anything racing in, then tear down owned connections:
        // cancel in-flight work, close sockets, drain the counts.
        for (stream, _id) in self.me.close_and_drain() {
            drop(stream);
            self.shared.session_closed();
        }
        for conn in self.conns.drain(..).flatten() {
            teardown(&self.shared, &conn, false);
        }
    }

    /// The nearest instant at which this driver has work no descriptor
    /// will announce.
    fn next_deadline(&self) -> Option<Instant> {
        let closing = self.closing.iter().map(|(_, deadline)| *deadline).min();
        match (self.queue.front_deadline(), closing) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Take ownership of a freshly accepted connection: nonblocking mode
    /// plus the `Hello` greeting queued on the (nonblocking) output buffer,
    /// so a connected-but-never-reading peer can't wedge anything.
    fn adopt(&mut self, stream: TcpStream, id: u64) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.session_closed();
            return;
        }
        let mut state = ConnState {
            session: Some(SessionState::new(&self.shared, id)),
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
        push_frame(&mut state, &hello);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.fds.push(PollFd::vacant());
            self.conns.len() - 1
        });
        self.fds[slot + 1] = PollFd::new(&stream, POLLIN);
        self.conns[slot] = Some(Arc::new(Conn {
            stream,
            driver: Arc::clone(&self.me),
            slot,
            state: Mutex::new(state),
        }));
        metrics().conns_open.inc();
        self.service(slot, false);
    }

    /// Service the connection in `slot` and act on the outcome: update its
    /// interest, or tear it down and free the slot.
    fn service(&mut self, slot: usize, hangup: bool) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        let outcome = sweep(&self.shared, &self.queue, conn, &mut self.buf, hangup);
        if let Outcome::Alive {
            events,
            flush_deadline,
        } = outcome
        {
            self.fds[slot + 1].set_events(events);
            if let Some(deadline) = flush_deadline {
                if !self.closing.iter().any(|(closing, _)| *closing == slot) {
                    self.closing.push((slot, deadline));
                }
            }
            return;
        }
        teardown(&self.shared, conn, matches!(outcome, Outcome::Disconnect));
        self.conns[slot] = None;
        self.fds[slot + 1] = PollFd::vacant();
        self.closing.retain(|(closing, _)| *closing != slot);
        self.free.push(slot);
        if matches!(outcome, Outcome::CloseAndShutdown) {
            self.shared.request_shutdown();
        }
    }
}

/// Body of one `conquer-worker-N` thread. `build` is what cache entries
/// are built under (see [`run_heavy`]).
fn worker_loop(shared: Arc<Shared>, queue: Arc<RunQueue>, build: ExecOptions) {
    while let Some(mut job) = queue.pop() {
        if job.conn.lock().dead {
            continue;
        }
        let in_flight = queue.admit(job.queued_at);
        let response = run_heavy(
            &shared,
            &mut job.session,
            &job.op,
            &job.token,
            job.queued_at,
            &build,
        );
        drop(in_flight);
        complete(&job.conn, job.session, &response);
    }
}

/// Hand a job's session state and response back to its connection and try
/// to put the response on the wire from this thread. The driver is flagged
/// only for what this thread cannot finish: bytes the socket would not
/// take, pipelined requests to dispatch, a close to resolve.
fn complete(conn: &Conn, session: SessionState, response: &Response) {
    let mut state = conn.lock();
    if state.dead {
        return;
    }
    state.session = Some(session);
    state.in_flight = None;
    push_frame(&mut state, response);
    let settled = flush(conn, &mut state)
        && state.out.is_empty()
        && state.pending.is_empty()
        && !state.close_after_flush
        && !state.dead;
    drop(state);
    if !settled {
        conn.driver.flag(conn.slot);
    }
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
    metrics().conns_open.dec();
    shared.session_closed();
}

/// One level-triggered pass over a connection: flush, read, dispatch,
/// flush again. `hangup` says `poll` reported the peer gone, so a read
/// that finds nothing wrong must not leave the connection open (its
/// `POLLHUP` would be reported again at once, forever).
fn sweep(
    shared: &Arc<Shared>,
    queue: &Arc<RunQueue>,
    conn: &Arc<Conn>,
    buf: &mut [u8],
    hangup: bool,
) -> Outcome {
    let mut state = conn.lock();
    if state.dead {
        return Outcome::Close;
    }
    if !flush(conn, &mut state) {
        return Outcome::Disconnect;
    }
    if let Some(outcome) = resolve_closing(&state) {
        return outcome;
    }
    let status = if state.may_read() {
        fill(conn, &mut state, buf)
    } else {
        ReadStatus::Open
    };
    match status {
        ReadStatus::Open if !hangup => {}
        ReadStatus::Open | ReadStatus::Error => return Outcome::Disconnect,
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
            }
            return Outcome::Close; // any cancellation is already accounted
        }
    }
    dispatch(shared, queue, conn, &mut state);
    if state.dead {
        return Outcome::Close;
    }
    if !flush(conn, &mut state) {
        return Outcome::Disconnect;
    }
    if let Some(outcome) = resolve_closing(&state) {
        return outcome;
    }
    let mut events = 0;
    if state.may_read() {
        events |= POLLIN;
    }
    if !state.out.is_empty() {
        events |= POLLOUT;
    }
    Outcome::Alive {
        events,
        flush_deadline: state.flush_deadline,
    }
}

/// A connection in the flush-then-close state closes once the final bytes
/// are out (or the grace deadline passes with a non-reading peer); `None`
/// while it is not closing or still has time to flush.
fn resolve_closing(state: &ConnState) -> Option<Outcome> {
    if !state.close_after_flush {
        return None;
    }
    let expired = state
        .flush_deadline
        .is_some_and(|deadline| Instant::now() >= deadline);
    if !state.out.is_empty() && !expired {
        return None;
    }
    Some(if state.shutdown_after_flush {
        Outcome::CloseAndShutdown
    } else {
        Outcome::Close
    })
}

/// Write as much of `out` as the socket will take; `out` is empty
/// afterwards exactly when nothing is owed. `false` = hard error.
fn flush(conn: &Conn, state: &mut ConnState) -> bool {
    let start = state.out_pos;
    let ok = loop {
        if state.out_pos == state.out.len() {
            break true;
        }
        match (&conn.stream).write(&state.out[state.out_pos..]) {
            Ok(0) => break false,
            Ok(n) => state.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    if state.out_pos > start {
        metrics().bytes_out.add((state.out_pos - start) as u64);
    }
    if state.out_pos == state.out.len() {
        state.out.clear();
        state.out_pos = 0;
    }
    ok
}

enum ReadStatus {
    Open,
    Eof,
    Error,
}

/// Drain readable bytes through `buf` into the frame buffer and parse
/// complete frames into the pending FIFO. Stops at `WouldBlock`
/// (level-triggered: the next `POLLIN` resumes), the pending cap
/// (backpressure), EOF, or an error.
fn fill(conn: &Conn, state: &mut ConnState, buf: &mut [u8]) -> ReadStatus {
    let m = metrics();
    while state.may_read() {
        match (&conn.stream).read(buf) {
            Ok(0) => return ReadStatus::Eof,
            Ok(n) => {
                m.bytes_in.add(n as u64);
                state.frames.extend(&buf[..n]);
                loop {
                    match state.frames.next_frame() {
                        Ok(Some(json)) => {
                            m.frames_in.inc();
                            state.pending.push_back(Request::from_json(&json));
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Framing is lost; report once and close.
                            let resp = Response::Error {
                                code: ErrorCode::Protocol,
                                message: "malformed frame".to_string(),
                            };
                            push_frame(state, &resp);
                            state.close_after_flush();
                            return ReadStatus::Open;
                        }
                    }
                }
                if state.pending.len() >= PENDING_CAP {
                    m.pending_cap.inc();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
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
                    Request::Quit => state.close_after_flush(),
                    Request::Shutdown => {
                        state.close_after_flush();
                        state.shutdown_after_flush = true;
                    }
                    _ => {}
                }
            }
            RequestClass::Heavy(op) => {
                let token = CancellationToken::new();
                state.in_flight = Some(token.clone());
                let session = state.session.take().expect("checked above");
                let job = Job {
                    conn: Arc::clone(conn),
                    op,
                    session,
                    token,
                    queued_at: Instant::now(),
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

/// Queue one response frame on the connection's output buffer. An encode
/// failure (only possible for a >64 MiB payload) poisons the connection —
/// the client would otherwise wait forever for a frame that cannot exist.
fn push_frame(state: &mut ConnState, response: &Response) {
    match encode_frame(&response.to_json()) {
        Ok(bytes) => {
            metrics().frames_out.inc();
            state.out.extend_from_slice(&bytes);
        }
        Err(_) => state.dead = true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that panics mid-job must not leave its place in
    /// `in_flight` behind, or `stats` would report a job nobody runs.
    #[test]
    fn in_flight_is_given_back_by_a_panicking_worker() {
        let queue = RunQueue::new(1, Duration::from_millis(10));
        let in_flight = || queue.intake.in_flight.load(Ordering::Relaxed);
        let result = std::panic::catch_unwind(|| {
            let _in_flight = queue.admit(Instant::now());
            assert_eq!(in_flight(), 1);
            panic!("query worker died mid-flight");
        });
        assert!(result.is_err(), "the body must have panicked");
        assert_eq!(in_flight(), 0, "the unwind kept its place in in_flight");
        assert_eq!(queue.intake.admitted.load(Ordering::Relaxed), 1);
    }
}
