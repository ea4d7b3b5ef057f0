//! Admission control: a bounded run queue in front of the engine.
//!
//! A classic condvar semaphore with a twist: waiters give up after a
//! configurable queue-wait deadline and the request maps to a structured
//! `busy` error instead of piling up behind slow queries. That keeps an
//! overloaded server responsive — clients get a fast, retryable rejection
//! rather than a hang — and bounds the memory held by in-flight work.
//!
//! Permits are RAII ([`Permit`] releases on drop, including on panic and
//! on the early-return paths of the session loop), so a slot can never
//! leak.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Counters the stats endpoint reports (see [`Admission::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries currently holding a permit.
    pub in_flight: usize,
    /// Waiters currently queued for a permit.
    pub queue_depth: usize,
    pub max_concurrent: usize,
    pub admitted: u64,
    pub rejected: u64,
}

struct State {
    in_flight: usize,
    waiting: usize,
}

/// Semaphore with a queue-wait deadline. Shared by all sessions of one
/// server.
pub struct Admission {
    state: Mutex<State>,
    cond: Condvar,
    max_concurrent: usize,
    queue_wait: Duration,
    admitted: AtomicU64,
    rejected: AtomicU64,
    /// Mirror of `state.waiting` readable without the mutex (stats path).
    waiting_gauge: AtomicUsize,
}

/// RAII admission slot; dropping it releases the slot and wakes one waiter.
pub struct Permit {
    admission: Arc<Admission>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut state = self.admission.lock();
        state.in_flight -= 1;
        drop(state);
        self.admission.cond.notify_one();
    }
}

impl Admission {
    pub fn new(max_concurrent: usize, queue_wait: Duration) -> Arc<Admission> {
        Arc::new(Admission {
            state: Mutex::new(State {
                in_flight: 0,
                waiting: 0,
            }),
            cond: Condvar::new(),
            max_concurrent: max_concurrent.max(1),
            queue_wait,
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            waiting_gauge: AtomicUsize::new(0),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured queue-wait deadline (the event loop stamps it onto
    /// run-queue entries so drivers can expire them to `busy` in time).
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// Wait up to the queue-wait deadline for a slot. `None` means the
    /// deadline passed with the server still at capacity — the caller maps
    /// that to a `busy` response.
    pub fn try_admit(self: &Arc<Admission>) -> Option<Permit> {
        self.try_admit_from(Instant::now())
    }

    /// [`try_admit`](Admission::try_admit) with the queue-wait measured
    /// from `entered` instead of now. The event loop uses this so time a
    /// request already spent waiting in the run queue for a free worker
    /// counts against the same deadline as time spent waiting on the
    /// semaphore — queueing anywhere is queueing. A request whose deadline
    /// has already passed still admits immediately when a slot is free
    /// (the deadline bounds *waiting*, matching the PR-4 semantics).
    pub fn try_admit_from(self: &Arc<Admission>, entered: Instant) -> Option<Permit> {
        let deadline = entered + self.queue_wait;
        let mut state = self.lock();
        // Queue depth as this request observed it (before it queued
        // itself), so the histogram reflects what admissions contend with.
        conquer_obs::registry()
            .histogram("serve.admission.queue_depth")
            .record(state.waiting as u64);
        if state.in_flight >= self.max_concurrent {
            state.waiting += 1;
            self.waiting_gauge.fetch_add(1, Ordering::Relaxed);
            while state.in_flight >= self.max_concurrent {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, _timed_out) = self
                    .cond
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = next;
            }
            state.waiting -= 1;
            self.waiting_gauge.fetch_sub(1, Ordering::Relaxed);
            if state.in_flight >= self.max_concurrent {
                drop(state);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                let registry = conquer_obs::registry();
                registry.counter("serve.admission.rejected").inc();
                registry
                    .histogram("serve.admission.wait.us")
                    .record(entered.elapsed().as_micros() as u64);
                return None;
            }
        }
        state.in_flight += 1;
        drop(state);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let registry = conquer_obs::registry();
        registry.counter("serve.admission.admitted").inc();
        registry
            .histogram("serve.admission.wait.us")
            .record(entered.elapsed().as_micros() as u64);
        Some(Permit {
            admission: Arc::clone(self),
        })
    }

    /// Record a rejection decided *outside* the semaphore: the event
    /// loop's run queue expires a request whose deadline passed before any
    /// worker could even attempt admission, and that rejection must feed
    /// the same counters/histograms as a semaphore timeout so `stats` and
    /// `/metrics` stay consistent across serving modes.
    pub fn record_queue_rejection(&self, waited: Duration) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        let registry = conquer_obs::registry();
        registry.counter("serve.admission.rejected").inc();
        registry
            .histogram("serve.admission.wait.us")
            .record(waited.as_micros() as u64);
    }

    pub fn stats(&self) -> AdmissionStats {
        let state = self.lock();
        AdmissionStats {
            in_flight: state.in_flight,
            queue_depth: state.waiting,
            max_concurrent: self.max_concurrent,
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn admits_up_to_capacity_then_rejects() {
        let admission = Admission::new(2, Duration::from_millis(10));
        let a = admission.try_admit().expect("slot 1");
        let b = admission.try_admit().expect("slot 2");
        assert!(admission.try_admit().is_none(), "third must time out");
        let stats = admission.stats();
        assert_eq!(stats.in_flight, 2);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected, 1);
        drop(a);
        let c = admission.try_admit().expect("slot freed by drop");
        drop(b);
        drop(c);
        assert_eq!(admission.stats().in_flight, 0);
    }

    #[test]
    fn waiter_is_woken_by_release() {
        let admission = Admission::new(1, Duration::from_secs(5));
        let permit = admission.try_admit().expect("slot");
        let admitted = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let waiter = {
                let admission = Arc::clone(&admission);
                let admitted = Arc::clone(&admitted);
                scope.spawn(move || {
                    let p = admission.try_admit();
                    admitted.store(p.is_some(), Ordering::SeqCst);
                })
            };
            // Give the waiter time to queue, then release.
            while admission.stats().queue_depth == 0 {
                std::thread::yield_now();
            }
            drop(permit);
            waiter.join().expect("waiter thread");
        });
        assert!(
            admitted.load(Ordering::SeqCst),
            "waiter should get the slot"
        );
    }

    #[test]
    fn expired_entry_still_admits_when_a_slot_is_free() {
        let admission = Admission::new(1, Duration::from_millis(1));
        // Deadline long past, but nothing in flight: the deadline bounds
        // waiting, not admission, so this must succeed immediately.
        let entered = Instant::now() - Duration::from_secs(5);
        let permit = admission.try_admit_from(entered).expect("free slot admits");
        drop(permit);
        // With the slot held, the already-expired deadline rejects at once.
        let _held = admission.try_admit().expect("slot");
        let started = Instant::now();
        assert!(admission.try_admit_from(entered).is_none());
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "expired deadline must not wait"
        );
    }

    #[test]
    fn timeout_vs_release_stress_never_leaks_or_overcommits() {
        // Hammer a width-2 semaphore with waiters whose deadlines race the
        // holders' releases, from several threads at once. Whatever the
        // interleaving, every attempt resolves as exactly one of
        // admitted/rejected, in-flight never exceeds the width, and the
        // final state is fully drained.
        let admission = Admission::new(2, Duration::from_millis(3));
        let attempts = Arc::new(AtomicU64::new(0));
        let over_width = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..6 {
                let admission = Arc::clone(&admission);
                let attempts = Arc::clone(&attempts);
                let over_width = Arc::clone(&over_width);
                scope.spawn(move || {
                    for i in 0..40u64 {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        if let Some(permit) = admission.try_admit() {
                            if admission.stats().in_flight > 2 {
                                over_width.store(true, Ordering::Relaxed);
                            }
                            // Hold times straddling the queue-wait deadline
                            // so timeouts and releases genuinely interleave.
                            std::thread::sleep(Duration::from_micros(
                                (t as u64 * 137 + i * 41) % 4000,
                            ));
                            drop(permit);
                        }
                    }
                });
            }
        });
        assert!(
            !over_width.load(Ordering::Relaxed),
            "semaphore overcommitted"
        );
        let stats = admission.stats();
        assert_eq!(stats.in_flight, 0, "every permit must be released");
        assert_eq!(stats.queue_depth, 0, "no waiter may be left registered");
        assert_eq!(
            stats.admitted + stats.rejected,
            attempts.load(Ordering::Relaxed),
            "every attempt resolves exactly once"
        );
        // The drained semaphore must still admit at full width.
        let a = admission.try_admit().expect("slot 1 after stress");
        let b = admission.try_admit().expect("slot 2 after stress");
        drop(a);
        drop(b);
    }

    #[test]
    fn permit_released_on_panic() {
        let admission = Admission::new(1, Duration::from_millis(50));
        let result = std::thread::scope(|scope| {
            let admission = Arc::clone(&admission);
            scope
                .spawn(move || {
                    let _permit = admission.try_admit().expect("slot");
                    panic!("query worker died mid-flight");
                })
                .join()
        });
        assert!(result.is_err(), "the worker must have panicked");
        assert_eq!(
            admission.stats().in_flight,
            0,
            "panic unwound without releasing the permit"
        );
        let permit = admission
            .try_admit()
            .expect("slot must be reusable after a panicked holder");
        drop(permit);
    }

    #[test]
    fn external_rejection_feeds_the_same_counters() {
        let admission = Admission::new(1, Duration::from_millis(10));
        let before = admission.stats().rejected;
        admission.record_queue_rejection(Duration::from_millis(12));
        assert_eq!(admission.stats().rejected, before + 1);
        assert_eq!(admission.stats().in_flight, 0);
    }
}
