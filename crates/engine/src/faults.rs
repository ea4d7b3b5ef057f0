//! Deterministic fault injection for executor robustness tests.
//!
//! Named fault points sit at the allocation/build/probe/materialize sites
//! of every physical operator. With the `fault-injection` cargo feature
//! disabled (the default), [`trip`] is a no-op that compiles away. With the
//! feature enabled, a thread-local schedule can arm individual points
//! ([`arm`]) or a seeded pseudo-random schedule over all points
//! ([`arm_seeded`]), so tests can prove that every operator propagates an
//! injected failure as a structured `Err` — never a panic — and that the
//! `Database` stays usable afterwards.
//!
//! The schedule is thread-local and fully deterministic (a xorshift64*
//! generator for the seeded mode), so failures reproduce exactly.

use crate::error::Result;

/// Every named fault point, in the order operators appear in the executor.
/// Tests iterate this list to prove exhaustive coverage.
pub const POINTS: &[&str] = &[
    "scan",
    "filter",
    "project",
    "rename",
    "join.build",
    "join.probe",
    "nested_loop",
    "aggregate.group",
    "distinct",
    "union",
    "sort",
    "limit",
    "cte.materialize",
    // Secondary-index construction (`Index::build`). Unlike the operator
    // points above, an armed failure here does not surface as a query
    // error: the planner falls back to a SeqScan access path and the query
    // still answers correctly.
    "index_build_fail",
    // WAL/checkpoint layer (tripped inside `conquer-storage` via the
    // process-global hook installed on the first durable open).
    "wal_append_io",
    "wal_sync_fail",
    "wal_truncate_fail",
    "segment_write_torn",
    "manifest_rename_fail",
];

#[cfg(not(feature = "fault-injection"))]
mod imp {
    use super::Result;

    /// Fault point (disabled build): always succeeds, compiles to nothing.
    #[inline(always)]
    pub fn trip(_point: &'static str) -> Result<()> {
        Ok(())
    }
}

#[cfg(feature = "fault-injection")]
mod imp {
    use std::cell::RefCell;
    use std::collections::HashMap;

    use super::Result;
    use crate::error::EngineError;

    #[derive(Default)]
    struct Schedule {
        /// point -> remaining hits before it fires (0 = fire on next hit).
        armed: HashMap<&'static str, u64>,
        /// Points that fire on *every* hit until disarmed — for degradation
        /// points that are retried within one operation (lazy index builds
        /// are attempted once per estimator construction, so a one-shot
        /// arming can be consumed before the plan is final).
        every: std::collections::HashSet<&'static str>,
        /// Seeded mode: xorshift64* state and the 1-in-N firing rate.
        seeded: Option<(u64, u64)>,
        /// Total times each point was reached (armed or not).
        hits: HashMap<&'static str, u64>,
    }

    thread_local! {
        static SCHEDULE: RefCell<Schedule> = RefCell::new(Schedule::default());
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Arm one fault point on this thread: it fires (returns `Err`) on the
    /// `(after + 1)`-th time it is reached, then disarms itself.
    pub fn arm(point: &'static str, after: u64) {
        SCHEDULE.with(|s| {
            s.borrow_mut().armed.insert(point, after);
        });
    }

    /// Arm one fault point to fire on *every* hit until [`disarm_all`].
    pub fn arm_every(point: &'static str) {
        SCHEDULE.with(|s| {
            s.borrow_mut().every.insert(point);
        });
    }

    /// Arm a seeded pseudo-random schedule over *all* points: each hit
    /// fires with probability 1-in-`one_in`, deterministically per seed.
    pub fn arm_seeded(seed: u64, one_in: u64) {
        SCHEDULE.with(|s| {
            s.borrow_mut().seeded = Some((seed.max(1), one_in.max(1)));
        });
    }

    /// Clear every armed point and the seeded schedule; hit counters reset
    /// too.
    pub fn disarm_all() {
        SCHEDULE.with(|s| {
            *s.borrow_mut() = Schedule::default();
        });
    }

    /// How many times `point` has been reached since the last
    /// [`disarm_all`].
    pub fn hits(point: &str) -> u64 {
        SCHEDULE.with(|s| s.borrow().hits.get(point).copied().unwrap_or(0))
    }

    fn injected(point: &'static str) -> EngineError {
        EngineError::Execution(format!("injected fault at `{point}`"))
    }

    /// Fault point (enabled build): records the hit and fires when the
    /// schedule says so.
    pub fn trip(point: &'static str) -> Result<()> {
        SCHEDULE.with(|s| {
            let mut s = s.borrow_mut();
            *s.hits.entry(point).or_insert(0) += 1;
            if s.every.contains(point) {
                return Err(injected(point));
            }
            if let Some(remaining) = s.armed.get_mut(point) {
                if *remaining == 0 {
                    s.armed.remove(point);
                    return Err(injected(point));
                }
                *remaining -= 1;
            }
            if let Some((state, one_in)) = &mut s.seeded {
                if xorshift(state) % *one_in == 0 {
                    return Err(injected(point));
                }
            }
            Ok(())
        })
    }
}

pub use imp::trip;

#[cfg(feature = "fault-injection")]
pub use imp::{arm, arm_every, arm_seeded, disarm_all, hits};

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn armed_point_fires_once_then_disarms() {
        disarm_all();
        arm("scan", 1);
        assert!(trip("scan").is_ok()); // 1st hit: countdown
        assert!(trip("scan").is_err()); // 2nd hit: fires
        assert!(trip("scan").is_ok()); // disarmed again
        assert_eq!(hits("scan"), 3);
        disarm_all();
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        disarm_all();
        arm_seeded(42, 3);
        let a: Vec<bool> = (0..32).map(|_| trip("filter").is_err()).collect();
        disarm_all();
        arm_seeded(42, 3);
        let b: Vec<bool> = (0..32).map(|_| trip("filter").is_err()).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|f| *f), "1-in-3 over 32 hits should fire");
        disarm_all();
    }
}
