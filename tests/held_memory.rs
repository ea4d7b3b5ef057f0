//! Pins what the join originals leave live on the heap once their answers
//! are dropped.
//!
//! A stored table's batch caches a row copy of itself the first time
//! anything pivots it, and keeps it until the table version dies; no
//! governor budget charges that copy. A Filter never pivots its input, so
//! Q4's original — whose `l_commitdate < l_receiptdate` is a Filter the
//! kernels do not compile — leaves no copy of `lineitem` behind. The hash
//! joins that still read their probe side as rows (Q12's `orders`, Q10's
//! `customer`) keep theirs, but only once: a second pass of the four join
//! originals leaves nothing more live than the first.
//!
//! Live bytes are counted by this test binary's own global allocator, a
//! std-only wrapper over `System`. It holds a single test, so nothing else
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use conquer::tpch::{build_workload, WorkloadConfig, Q10, Q12, Q3, Q4};
use conquer::ExecOptions;

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged, so `System`'s
// allocations keep its guarantees; the wrapper only adds up the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for this call are passed on
        // unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for this call are passed on
        // unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for this call are passed on
        // unchanged.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for this call are passed on
        // unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const MIB: f64 = 1024.0 * 1024.0;

#[test]
fn join_originals_leave_no_row_copy_of_a_filtered_table() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.005,
        p: 0.05,
        n: 2,
        ..WorkloadConfig::default()
    });
    // What the first query would otherwise build and keep: every table's
    // statistics, and its key index where one is declared.
    for table in w.db.table_names() {
        w.db.table_stats(&table).expect("a stored table");
        let _ = w.db.conflict_summary(&table);
    }
    let options = ExecOptions::default();
    let run = |sql: &str| {
        let rows =
            w.db.query_with(sql, &options)
                .expect("the original answers");
        assert!(!rows.rows.is_empty());
    };

    let before = live();
    run(Q4.sql);
    let held = (live() - before) as f64 / MIB;
    assert!(held < 0.5, "Q4's original left {held:.1} MiB live");

    let pass = || {
        let before = live();
        for q in [Q3, Q4, Q10, Q12] {
            run(q.sql);
        }
        live() - before
    };
    let first = pass();
    let second = pass();
    assert!(
        second <= 0,
        "a second pass left {second} more bytes live (the first {first})"
    );
}
