//! The steady-state event loop does not touch the heap.
//!
//! A counting global allocator wraps `System`; each scheme's 24 h
//! paper-default day must make fewer than one allocation per hundred
//! delivered events. World construction, the per-run set-up (gateways,
//! DSLAM, series buffers, the home → clients index) and the amortized
//! growth of long-lived buffers (queue slab, load windows, completion
//! samples) stay well under that bar; a per-event `Vec` — a cloned id list,
//! a rebuilt per-gateway list, a per-sample card count — lands far above
//! it.
//!
//! This file is its own test binary, so the allocator counts only this
//! test's work.

use insomnia::core::{build_world, run_single, ScenarioConfig, SchemeSpec};
use insomnia::simcore::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, plus a count of every allocation and reallocation.
struct Counting;

/// A statistic that publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees become `System`'s and `System`'s results are returned
// as they are; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn event_loop_is_allocation_free() {
    let cfg = ScenarioConfig::default();
    let (trace, topo) = build_world(&cfg);
    let schemes = [
        ("no-sleep", SchemeSpec::no_sleep()),
        ("soi", SchemeSpec::soi()),
        ("bh2", SchemeSpec::bh2_k_switch()),
        ("multi-doze", SchemeSpec::multi_doze()),
        ("adaptive-soi", SchemeSpec::adaptive_soi()),
    ];
    let mut report = Vec::with_capacity(schemes.len());
    for (name, spec) in schemes {
        let before = ALLOCS.load(Ordering::Relaxed);
        let run = run_single(&cfg, spec, &trace, &topo, SimRng::new(2011));
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let events = run.counters.delivered();
        assert!(events > 100_000, "{name}: a paper day delivers many events, got {events}");
        report.push((name, allocs, events, allocs as f64 / events as f64));
    }
    eprintln!("(scheme, allocations, delivered events, per event): {report:?}");
    for &(name, allocs, events, per_event) in &report {
        assert!(
            per_event < 0.01,
            "{name}: {allocs} allocations over {events} delivered events \
             ({per_event:.4} per event); all runs: {report:?}"
        );
    }
}
