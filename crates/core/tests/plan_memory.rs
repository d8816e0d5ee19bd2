//! Heap budget of one cold scale-mode plan. A counting global allocator
//! tracks live heap bytes, so this file holds a single test: no other test
//! in the process can allocate while it measures.

use ccs_core::prelude::*;
use ccs_wrsn::scenario::scale_preset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting only touches atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` guarantees pass through to `System`.
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`, as the caller guarantees.
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, with the caller's `new_size` guarantees.
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A cold n = 2,000 plan in the documented scale mode (groups of at most
/// 8, four neighbour candidates, two rounds, no stability audit, one
/// worker) stays under 8 MiB of heap above what the scenario itself holds.
/// Per-problem state that grows with `n·m` or `n²` (a 2,000-device
/// distance matrix alone is 32 MB) does not fit.
#[test]
fn cold_scale_mode_plan_stays_within_its_heap_budget() {
    const BUDGET: usize = 8 << 20;
    ccs_par::set_threads(1);
    let scenario = scale_preset(7, 2_000).generate();
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);

    let problem = CcsProblem::with_params(
        scenario,
        CostParams {
            max_group_size: Some(8),
            ..CostParams::default()
        },
    );
    let outcome = ccsga(
        &problem,
        &EqualShare,
        CcsgaOptions {
            neighbor_cap: 4,
            max_rounds: 2,
            check_stability: false,
            ..CcsgaOptions::default()
        },
    );
    outcome.schedule.validate(&problem).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - start;
    drop((outcome, problem));

    assert!(
        peak < BUDGET,
        "a cold plan peaked at {:.1} MiB of heap, over the {} MiB budget",
        peak as f64 / (1 << 20) as f64,
        BUDGET >> 20
    );
}
