//! What a PUT stream costs the heap: one payload buffer per wire frame,
//! however many operations the frame carries.
//!
//! A windowed stream of PUTs from node 0 to node 1, counted by this
//! binary's own global allocator over the steady state (after a warm-up
//! that grows every buffer the path reuses). Every frame the source
//! sends costs its operations' slice and the one buffer their payload
//! bytes share, and nothing else on the path allocates, so the count
//! is at most two per frame, whatever the scheduling packs into a frame.
//! Run with `--nocapture` to see allocations per PUT at each size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mproxy_obs::Ctr;
use mproxy_rt::{FlagId, RtClusterBuilder};
use mproxy_tests::rt::{finish, node_counter, WAIT};

/// The system allocator, counting allocations (reallocations included).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose implementation meets `GlobalAlloc`'s contract; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as every
        // allocation here does.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller's guarantees for
        // `new_size` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a run may make beside its frames' (one-off growth of a
/// buffer the warm-up did not reach).
const SLACK: u64 = 8;

/// PUTs a stream keeps in flight.
const WINDOW: u64 = 256;

/// Streams `puts` PUTs of `size` bytes from node 0 to node 1, at most
/// [`WINDOW`] unacknowledged, and returns (allocations, PUTs, frames
/// node 0 sent) over the last `puts - warm` of them.
fn stream(size: u32, warm: u64, puts: u64) -> (u64, u64, u64) {
    let mut b = RtClusterBuilder::new(2);
    b.add_process(0, 1 << 16);
    let sink = b.add_process(1, 1 << 16);
    let (cluster, mut eps) = b.start();
    let src = &mut eps[0];
    src.seg().write(0, &vec![7; size as usize]);
    let hub = cluster.obs_handle();
    let mut window = |from: u64, to: u64| {
        for sent in from + 1..=to {
            src.put(0, sink, 0, size, Some(FlagId(0)), None);
            if sent - src.flag(FlagId(0)) > WINDOW {
                src.wait_flag_timeout(FlagId(0), sent - WINDOW, WAIT)
                    .expect("the window moves");
            }
        }
        src.wait_flag_timeout(FlagId(0), to, WAIT)
            .expect("every PUT acknowledged");
    };
    window(0, warm);
    let frames_before = node_counter(&hub.snapshot("warm"), 0, Ctr::FramesOut);
    let before = ALLOCS.load(Ordering::Relaxed);
    window(warm, puts);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let frames = node_counter(&hub.snapshot("end"), 0, Ctr::FramesOut) - frames_before;
    drop(eps);
    finish(cluster);
    (allocs, puts - warm, frames)
}

#[test]
fn a_put_stream_allocates_one_payload_buffer_per_frame() {
    let runs = [8, 32, 4096].map(|size| (size, stream(size, 4096, 4096 + 16384)));
    for &(size, (allocs, puts, frames)) in &runs {
        println!(
            "{size} B: {allocs} allocations over {puts} PUTs in {frames} frames: \
             {:.3} per PUT, {:.2} per frame",
            allocs as f64 / puts as f64,
            allocs as f64 / frames as f64
        );
    }
    for (size, (allocs, puts, frames)) in runs {
        assert!(
            allocs <= 2 * frames + SLACK,
            "{size} B: {allocs} allocations for {frames} frames of {puts} PUTs"
        );
    }
}
