//! The server proper: listener, accept loop, event-loop wiring, shutdown.
//!
//! One [`Shared`] struct carries everything request handling touches — the
//! `Arc<Database>` (read-mostly: queries never lock, scripts copy-on-write
//! behind the catalog mutex, see DESIGN.md §4), the constraint set, the
//! statement cache, the admission semaphore and the event loop's handles.
//!
//! Accepted connections are handed round-robin to a fixed pool of IO
//! drivers that wait for them in `poll(2)`, with heavy work on a fixed pool
//! of query workers, one per admission slot (`crate::event`). Total thread
//! count is `io_threads + max_concurrent + 2` (accept + metrics),
//! independent of connection count.
//!
//! The connection count is capped (`max_sessions`) and connections past
//! the cap are greeted with a `busy` error frame (under a write timeout —
//! a never-reading peer must not wedge the accept loop) and closed.
//!
//! Shutdown (either [`ServerHandle::shutdown`] or a client `shutdown`
//! request) sets a flag, wakes the accept loop with a loopback connect,
//! closes the run queue and wakes every driver, then waits for the
//! live-session count to drain — a condvar signaled by the last connection
//! teardown, not a bounded sleep-spin, so [`ServerHandle::wait`] returning
//! means the server is actually quiescent.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use conquer_core::ConstraintSet;
use conquer_engine::{CancellationToken, Database, ExecOptions};

use crate::admission::Admission;
use crate::cache::StatementCache;
#[cfg(unix)]
use crate::event::EventCore;
use crate::protocol::{write_frame, ErrorCode, Response};

/// Write timeout for the over-capacity `busy` greeting, the one frame the
/// accept thread writes itself: a peer that connects and never reads gets
/// its socket dropped instead of wedging the accept path once the kernel
/// buffer fills.
const GREETING_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Tunables for [`serve`]. The defaults suit tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Connection cap; further connects get a `busy` greeting and a close.
    pub max_sessions: usize,
    /// Queries allowed to run at once: the admission semaphore's width and
    /// the size of the query-worker pool.
    pub max_concurrent: usize,
    /// How long a query may queue for admission before `busy`.
    pub queue_wait: Duration,
    /// Rewrite/plan cache capacity (entries).
    pub cache_capacity: usize,
    /// Options cached statements are *built* under (plan time, including
    /// CTE materialization). Cache entries are shared across sessions, so
    /// builds run under this fixed server-level policy rather than the
    /// requesting session's `SET` limits — otherwise a plan materialized
    /// under one session's (lack of) limits would be served to sessions
    /// whose limits differ. Per-session options still govern execution.
    pub build_options: ExecOptions,
    /// Bind address for the HTTP metrics endpoint (`/metrics`,
    /// `/metrics.json`, `/traces`); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Default slow-query threshold in microseconds: queries slower than
    /// this — plus every tripped or errored query — are written as JSON
    /// lines to the slow-query sink. `0` disables the log. Sessions can
    /// override their own threshold with `SET slow_query_us`.
    pub slow_query_us: u64,
    /// IO driver threads multiplexing the connections (at least one).
    pub io_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            max_concurrent: 4,
            queue_wait: Duration::from_millis(500),
            cache_capacity: 256,
            build_options: ExecOptions::default(),
            metrics_addr: None,
            slow_query_us: 0,
            io_threads: 2,
        }
    }
}

/// State shared by the accept loop and every connection.
pub struct Shared {
    pub db: Arc<Database>,
    pub sigma: ConstraintSet,
    pub cache: StatementCache,
    pub admission: Arc<Admission>,
    pub max_sessions: usize,
    /// Server-level policy for cache builds (see
    /// [`ServerConfig::build_options`]).
    build_options: ExecOptions,
    /// Server-default slow-query threshold, copied into new sessions.
    pub slow_query_us: u64,
    addr: SocketAddr,
    /// Where the HTTP metrics endpoint is bound, when enabled.
    metrics_addr: Option<SocketAddr>,
    /// Live-session count, authoritative copy under the mutex so the drain
    /// condvar can't miss the last decrement; `active` mirrors it for
    /// lock-free reads on the stats path.
    sessions: Mutex<usize>,
    sessions_cond: Condvar,
    active: AtomicUsize,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    /// The event loop's run queue and per-driver mailboxes/wakers.
    event: EventCore,
}

impl Shared {
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Options for building a cache entry on behalf of a query: the
    /// server-level build policy, plus the requesting query's cancellation
    /// token when it has one (a disconnect still cancels the build; a
    /// token never shapes the plan, so sharing the entry stays sound).
    pub fn build_options(&self, cancellation: Option<&CancellationToken>) -> ExecOptions {
        let mut options = self.build_options.clone();
        options.cancellation = cancellation.cloned();
        options
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests currently waiting in the run queue for a free query worker.
    pub fn run_queue_depth(&self) -> usize {
        self.event.run_queue_depth()
    }

    /// Account one accepted connection.
    pub(crate) fn session_opened(&self) {
        let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        *sessions += 1;
        drop(sessions);
        self.active.fetch_add(1, Ordering::AcqRel);
        conquer_obs::registry()
            .counter("serve.sessions.opened")
            .inc();
    }

    /// Account one connection teardown and signal the drain condvar — this
    /// notify is what makes [`ServerHandle::wait`] returning mean actual
    /// quiescence rather than "slept long enough".
    pub(crate) fn session_closed(&self) {
        let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        *sessions = sessions.saturating_sub(1);
        drop(sessions);
        self.active.fetch_sub(1, Ordering::AcqRel);
        conquer_obs::registry()
            .counter("serve.sessions.closed")
            .inc();
        self.sessions_cond.notify_all();
    }

    /// Block until every live session has torn down, or `deadline` passes
    /// (`None` waits indefinitely).
    fn drain_sessions(&self, deadline: Option<Instant>) {
        let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        while *sessions > 0 {
            match deadline {
                None => {
                    sessions = self
                        .sessions_cond
                        .wait(sessions)
                        .unwrap_or_else(|e| e.into_inner());
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return;
                    }
                    let (guard, _) = self
                        .sessions_cond
                        .wait_timeout(sessions, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    sessions = guard;
                }
            }
        }
    }

    /// Initiate shutdown from any thread: flag, wake the accept loop, stop
    /// the run queue and wake the drivers (which tear their connections
    /// down on seeing the flag).
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return; // already underway
        }
        // Wake the accept loop (it re-checks the flag per connection).
        let _ = TcpStream::connect(self.addr);
        // Same for the metrics accept loop, when one is running.
        if let Some(metrics_addr) = self.metrics_addr {
            let _ = TcpStream::connect(metrics_addr);
        }
        self.event.shutdown();
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    metrics: Option<JoinHandle<()>>,
    /// IO drivers and query workers.
    pool: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Where the HTTP metrics endpoint is listening, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// The shared state, for in-process inspection (tests, the binary).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Ask the server to stop: no new connections, live sockets closed.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until the accept loop exits, every session drains, and every
    /// pool thread is joined. Returns without forcing shutdown first —
    /// callers wanting to *stop* the server call
    /// [`shutdown`](ServerHandle::shutdown) (or a client sends the
    /// `shutdown` request); this is what the binary parks on. When this
    /// returns, the server is quiescent: zero live sessions and zero
    /// server threads.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics.take() {
            let _ = metrics.join();
        }
        // The accept loop only exits on shutdown; by now the drivers are
        // tearing connections down. Wait on the drain condvar (signaled by
        // the last teardown), then collect the pools.
        self.shared.drain_sessions(None);
        for thread in self.pool.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics.take() {
            let _ = metrics.join();
        }
        // Generous but bounded: `Drop` must not hang forever on a wedged
        // session, but in-flight queries get cancelled at teardown and the
        // governor unwinds them within its check interval.
        self.shared
            .drain_sessions(Some(Instant::now() + Duration::from_secs(30)));
        for thread in self.pool.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Bind and start serving `db` under constraints `sigma`. Returns once the
/// listener is bound and accepting.
#[cfg(unix)]
pub fn serve(
    db: Arc<Database>,
    sigma: ConstraintSet,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let metrics_listener = match &config.metrics_addr {
        Some(metrics_addr) => Some(TcpListener::bind(metrics_addr)?),
        None => None,
    };
    let metrics_addr = match &metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    // Declare key-column indexes up front: the columns the rewritings
    // self-join on. Declarations only — the first query against each table
    // triggers the lazy build, so startup (and crash recovery before it)
    // stays fast.
    conquer_core::declare_key_indexes(&db, &sigma);
    let shared = Arc::new(Shared {
        db,
        sigma,
        cache: StatementCache::new(config.cache_capacity),
        admission: Admission::new(config.max_concurrent, config.queue_wait),
        max_sessions: config.max_sessions.max(1),
        build_options: config.build_options,
        slow_query_us: config.slow_query_us,
        addr,
        metrics_addr,
        sessions: Mutex::new(0),
        sessions_cond: Condvar::new(),
        active: AtomicUsize::new(0),
        next_session: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
        event: EventCore::new(config.io_threads.max(1))?,
    });
    // One worker per admission slot: more would idle behind the semaphore,
    // fewer would leave admitted slots unused.
    let pool = shared.event.spawn(&shared, config.max_concurrent.max(1))?;
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("conquer-accept".to_string())
            .spawn(move || accept_loop(listener, shared))?
    };
    let metrics = match metrics_listener {
        Some(listener) => {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("conquer-metrics".to_string())
                    .spawn(move || crate::metrics_http::metrics_loop(listener, shared))?,
            )
        }
        None => None,
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        metrics,
        pool,
    })
}

/// No `poll(2)`, no server: nothing is bound and no [`Shared`] is built.
#[cfg(not(unix))]
pub fn serve(
    _db: Arc<Database>,
    _sigma: ConstraintSet,
    _config: ServerConfig,
) -> io::Result<ServerHandle> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "conquer-serve needs poll(2): serving is unix-only",
    ))
}

/// What [`Shared`] holds where the event loop does not exist: a type with
/// no values, so the code around it type-checks and none of it can run.
#[cfg(not(unix))]
enum EventCore {}

#[cfg(not(unix))]
impl EventCore {
    fn hand_off(&self, _stream: TcpStream, _id: u64) -> Result<(), TcpStream> {
        match *self {}
    }

    fn shutdown(&self) {
        match *self {}
    }

    fn run_queue_depth(&self) -> usize {
        match *self {}
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.is_shutting_down() {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_nodelay(true);
        if shared.active_sessions() >= shared.max_sessions {
            reject_session(stream);
            continue;
        }
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        // Hand the socket to a driver round-robin. The driver writes the
        // Hello greeting from its nonblocking flusher, so no write timeout
        // is needed here.
        shared.session_opened();
        if let Err(stream) = shared.event.hand_off(stream, id) {
            // Driver already shut down (shutdown race): undo.
            drop(stream);
            shared.session_closed();
        }
    }
}

/// Greet an over-capacity connection with a structured `busy` error so the
/// client can distinguish "server full" from a network failure. The write
/// runs under a timeout: this is the accept thread, and a peer that never
/// reads must not be able to wedge it.
fn reject_session(mut stream: TcpStream) {
    conquer_obs::registry()
        .counter("serve.sessions.rejected")
        .inc();
    let _ = stream.set_write_timeout(Some(GREETING_WRITE_TIMEOUT));
    let resp = Response::Error {
        code: ErrorCode::Busy,
        message: "session limit reached; retry later".to_string(),
    };
    let _ = write_frame(&mut stream, &resp.to_json());
}
