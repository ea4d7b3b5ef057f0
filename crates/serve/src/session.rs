//! The thread-per-connection fallback (`io_threads: 0`): one blocking
//! request loop per connection plus the disconnect watchdog. This was the
//! only serving mode through PR 4; the event loop ([`crate::event`]) is
//! the default now, and this path is kept for one release as the
//! differential oracle the soak test compares wire output against. All
//! request semantics live in [`crate::state`], shared with the event
//! loop — this module only supplies the blocking transport and the
//! watchdog-based disconnect detection.
//!
//! ## The disconnect watchdog
//!
//! The protocol is strictly request/response, so while a query executes the
//! session thread is *not* reading the socket — a client that gives up and
//! disconnects would otherwise leave its query burning CPU until the next
//! write fails. Each session therefore runs one long-lived watchdog thread
//! over a `try_clone` of the stream. While a query is in flight the
//! watchdog `peek`s the socket on a short read timeout; `Ok(0)` (EOF) or a
//! hard error cancels the query's [`CancellationToken`], and the engine
//! unwinds with `EngineError::Cancelled` at the next cooperative check.
//!
//! **Known limitation (the reason this design is being retired):** when a
//! client pipelines a frame and then disconnects, the queued bytes make
//! `peek` return `Ok(n)` forever — the FIN behind them is invisible, so
//! the in-flight query is never cancelled. The event loop detects EOF by
//! actually draining the socket and does not have this bug; the
//! `pipelined_disconnect` regression test demonstrates the difference.
//!
//! `try_clone` duplicates the fd onto the *same* file description, so the
//! watchdog's read timeout is visible to the session's own reads. Both the
//! timeout install (watchdog) and the restore (session, after the query)
//! happen under the watch-state mutex, so the session never blocks on a
//! frame read with a stale poll timeout installed; a belt-and-braces retry
//! on `WouldBlock` in the read loop covers the remaining impossible cases.
//!
//! Each armed query carries a *generation* number. A pipelined client can
//! finish query N and start query N+1 within one poll cycle, so the
//! watchdog may never observe the intervening `Idle` — it compares
//! generations on every poll and, on a change, re-clones the current token
//! and re-installs the poll timeout (the session restored the socket to
//! blocking reads when query N finished). Without this the watchdog would
//! block forever holding query N's already-finished token, and a later
//! disconnect would cancel nothing.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use conquer_engine::CancellationToken;
use conquer_obs::Json;

use crate::protocol::{read_frame, write_frame, ErrorCode, Request, Response};
use crate::server::Shared;
use crate::state::{
    classify, handle_control, run_heavy, RequestClass, SessionState, SERVER_VERSION,
};

/// Poll interval of the disconnect watchdog; bounds how long a dropped
/// connection's query keeps running past the governor's cooperative check.
const WATCHDOG_POLL: Duration = Duration::from_millis(20);

enum WatchState {
    /// No query in flight; the watchdog sleeps on the condvar.
    Idle,
    /// A query is executing under this token; the watchdog polls the
    /// socket. `gen` distinguishes consecutive queries: the watchdog may
    /// see `Watching` → `Watching` without an intervening `Idle` (see
    /// module docs) and must refresh its token and poll timeout.
    Watching { token: CancellationToken, gen: u64 },
    /// The session is over; the watchdog exits.
    Closed,
}

struct WatchSlot {
    state: Mutex<WatchState>,
    cond: Condvar,
    /// Source of `Watching::gen` values; bumped per armed query.
    next_gen: AtomicU64,
}

impl WatchSlot {
    fn lock(&self) -> std::sync::MutexGuard<'_, WatchState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Serve one connection to completion. Returns `true` when the client asked
/// for a server shutdown.
pub(crate) fn run_session(shared: Arc<Shared>, mut stream: TcpStream, id: u64) -> bool {
    let watch = Arc::new(WatchSlot {
        state: Mutex::new(WatchState::Idle),
        cond: Condvar::new(),
        next_gen: AtomicU64::new(0),
    });
    let mut state = SessionState::new(&shared, id);
    let watch_stream = stream.try_clone().ok();

    let shutdown_requested = std::thread::scope(|scope| {
        let watcher = watch_stream.map(|ws| {
            let watch = Arc::clone(&watch);
            scope.spawn(move || watchdog(ws, &watch))
        });
        let wants_shutdown = request_loop(&shared, &mut state, &watch, &mut stream);
        {
            let mut ws = watch.lock();
            *ws = WatchState::Closed;
        }
        watch.cond.notify_all();
        // Unblock a watchdog mid-`peek` so the scope can join promptly.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        if let Some(w) = watcher {
            let _ = w.join();
        }
        wants_shutdown
    });
    shutdown_requested
}

fn watchdog(stream: TcpStream, watch: &WatchSlot) {
    let mut buf = [0u8; 1];
    loop {
        // Sleep until a query starts; install the poll timeout under the
        // same lock that observes `Watching` (see module docs).
        let (mut token, mut gen) = {
            let mut state = watch.lock();
            loop {
                match &*state {
                    WatchState::Idle => {
                        state = watch.cond.wait(state).unwrap_or_else(|e| e.into_inner());
                    }
                    WatchState::Watching { token, gen } => {
                        let armed = (token.clone(), *gen);
                        let _ = stream.set_read_timeout(Some(WATCHDOG_POLL));
                        break armed;
                    }
                    WatchState::Closed => return,
                }
            }
        };
        loop {
            {
                let state = watch.lock();
                match &*state {
                    WatchState::Watching {
                        token: current,
                        gen: current_gen,
                    } => {
                        // A new query was armed without an observed Idle:
                        // the session restored blocking reads in between,
                        // so re-install the poll timeout (under the lock,
                        // like the initial install) and track the new
                        // query's token instead of the finished one's.
                        if *current_gen != gen {
                            gen = *current_gen;
                            token = current.clone();
                            let _ = stream.set_read_timeout(Some(WATCHDOG_POLL));
                        }
                    }
                    WatchState::Idle => break,
                    WatchState::Closed => return,
                }
            }
            match stream.peek(&mut buf) {
                // EOF: the client hung up mid-query.
                Ok(0) => {
                    token.cancel();
                    conquer_obs::registry()
                        .counter("serve.disconnect_cancel")
                        .inc();
                    return;
                }
                // Bytes queued (a pipelined frame): the peer is alive — as
                // far as `peek` can tell. This is the blind spot: a FIN
                // behind these bytes is invisible, so a pipelining client
                // that disconnects mid-query is never noticed here.
                Ok(_) => std::thread::sleep(WATCHDOG_POLL),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                // Reset / aborted: treat like a disconnect.
                Err(_) => {
                    token.cancel();
                    conquer_obs::registry()
                        .counter("serve.disconnect_cancel")
                        .inc();
                    return;
                }
            }
        }
    }
}

/// Read/dispatch/respond until EOF, `quit`, `shutdown`, or an
/// unrecoverable frame error. Returns `true` on `shutdown`.
fn request_loop(
    shared: &Arc<Shared>,
    state: &mut SessionState,
    watch: &WatchSlot,
    stream: &mut TcpStream,
) -> bool {
    let hello = Response::Hello {
        session: state.id,
        version: SERVER_VERSION.to_string(),
    };
    // The accept loop installed a write timeout so a connected-but-never-
    // reading peer can't wedge this greeting; drop back to untimed writes
    // for the request loop proper once the client proves it reads.
    if write_frame(stream, &hello.to_json()).is_err() {
        return false;
    }
    let _ = stream.set_write_timeout(None);
    loop {
        let json = match read_request(stream) {
            Ok(Some(json)) => json,
            Ok(None) => return false,
            Err(_) => {
                // Framing is lost; report once and close.
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: "malformed frame".to_string(),
                };
                let _ = write_frame(stream, &resp.to_json());
                return false;
            }
        };
        let request = match Request::from_json(&json) {
            Ok(req) => req,
            Err(message) => {
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message,
                };
                if write_frame(stream, &resp.to_json()).is_err() {
                    return false;
                }
                continue;
            }
        };
        match classify(request, state) {
            RequestClass::Control(request) => {
                let response = handle_control(shared, state, &request);
                if write_frame(stream, &response.to_json()).is_err() {
                    return false;
                }
                match request {
                    Request::Quit => return false,
                    Request::Shutdown => return true,
                    _ => {}
                }
            }
            RequestClass::Heavy(op) => {
                let queued_at = Instant::now();
                let token = CancellationToken::new();
                let response = with_watch(watch, stream, &token, || {
                    run_heavy(shared, state, &op, &token, queued_at)
                });
                if write_frame(stream, &response.to_json()).is_err() {
                    return false;
                }
            }
        }
    }
}

/// Run `f` (plan/execute work) with the disconnect watchdog armed on
/// `token`. Restores the socket to blocking reads afterwards.
fn with_watch<T>(
    watch: &WatchSlot,
    stream: &TcpStream,
    token: &CancellationToken,
    f: impl FnOnce() -> T,
) -> T {
    {
        let mut state = watch.lock();
        *state = WatchState::Watching {
            token: token.clone(),
            gen: watch.next_gen.fetch_add(1, Ordering::Relaxed),
        };
    }
    watch.cond.notify_all();
    let result = f();
    {
        let mut state = watch.lock();
        if !matches!(&*state, WatchState::Closed) {
            *state = WatchState::Idle;
        }
        // Under the same lock as the watchdog's install: after this,
        // the session socket is guaranteed back to blocking reads.
        let _ = stream.set_read_timeout(None);
    }
    result
}

/// [`read_frame`] with a retry on spurious `WouldBlock`/`TimedOut` — a
/// safety net for the (lock-ordered, see module docs) watchdog timeout
/// races; never expected to loop in practice.
fn read_request(stream: &mut TcpStream) -> io::Result<Option<Json>> {
    loop {
        match read_frame(stream) {
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            other => return other,
        }
    }
}
