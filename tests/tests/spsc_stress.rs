//! Randomized cross-thread stress for the runtime's lock-free queues:
//! the full/empty-flag SPSC command ring (`mproxy_rt::spsc`) and the
//! bounded sequence-counter ring (`mproxy_rt::ring::Ring`) in SPSC and
//! MPSC configurations.
//!
//! The schedules are randomized (burst sizes, injected yields) but
//! **seeded**: every run prints nothing and reproduces from its constant
//! seed, so a CI failure is replayable. Capacities are tiny so the rings
//! wrap thousands of times and spend much of the run full — the
//! full-queue edge and the wraparound arithmetic are the point, not the
//! happy path.
//!
//! `MPROXY_STRESS_ITERS` scales the per-test operation count (CI runs a
//! seeded high-iteration loop on stable, and the same tests under
//! ThreadSanitizer on nightly, where the defaults already take long
//! enough).

use std::sync::Arc;

use mproxy_rt::ring::Ring;
use mproxy_rt::spsc::{self, Entry};
use mproxy_tests::rt::stress_iters as iters;

/// Tiny deterministic PRNG (xorshift64*); no external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn spsc_randomized_two_thread_stress() {
    let n = iters(50_000);
    // Capacity 8: the producer finds the queue full constantly and the
    // ring wraps every 8 entries.
    let (mut tx, mut rx) = spsc::channel(8);
    let producer = std::thread::spawn(move || {
        let mut rng = Rng::new(0xfeed_0001);
        let mut sent = 0u64;
        while sent < n {
            // Random burst of sends, then maybe a yield to shake up the
            // interleaving.
            let burst = 1 + rng.below(12);
            for _ in 0..burst {
                if sent == n {
                    break;
                }
                tx.send(Entry {
                    op: sent as u32,
                    args: [sent, sent.wrapping_mul(0x9e37), !sent, 0],
                    ..Entry::default()
                });
                sent += 1;
            }
            if rng.below(4) == 0 {
                std::thread::yield_now();
            }
        }
    });
    let mut rng = Rng::new(0xfeed_0002);
    let mut out = Vec::new();
    let mut expected = 0u64;
    while expected < n {
        // Alternate single pops and randomized bursts.
        let burst = 1 + rng.below(16) as usize;
        out.clear();
        if rx.pop_burst(&mut out, burst) == 0 {
            std::thread::yield_now();
            continue;
        }
        for e in &out {
            assert_eq!(u64::from(e.op), expected & 0xffff_ffff);
            assert_eq!(e.args[0], expected, "payload word 0 out of sequence");
            assert_eq!(e.args[1], expected.wrapping_mul(0x9e37));
            assert_eq!(e.args[2], !expected, "payload word 2 torn");
            expected += 1;
        }
    }
    assert!(rx.try_recv().is_none(), "queue must end empty");
    producer.join().unwrap();
}

#[test]
fn ring_spsc_randomized_full_queue_wraparound() {
    let n = iters(50_000);
    let ring = Arc::new(Ring::<u64>::new(4));
    let r2 = Arc::clone(&ring);
    let producer = std::thread::spawn(move || {
        let mut rng = Rng::new(0xabcd_0001);
        for i in 0..n {
            let mut v = i;
            // try_push must hand the exact value back on full.
            loop {
                match r2.try_push(v) {
                    Ok(()) => break,
                    Err(back) => {
                        assert_eq!(back, i, "full ring must return the rejected value");
                        v = back;
                        std::thread::yield_now();
                    }
                }
            }
            if rng.below(8) == 0 {
                std::thread::yield_now();
            }
        }
    });
    let mut rng = Rng::new(0xabcd_0002);
    let mut expected = 0u64;
    while expected < n {
        match ring.try_pop() {
            Some(v) => {
                assert_eq!(v, expected, "FIFO order broken across wraparound");
                expected += 1;
                if rng.below(16) == 0 {
                    std::thread::yield_now();
                }
            }
            None => std::thread::yield_now(),
        }
    }
    assert!(ring.try_pop().is_none());
    assert!(ring.is_empty());
    producer.join().unwrap();
}

#[test]
fn ring_mpsc_randomized_multi_producer_stress() {
    const PRODUCERS: usize = 3;
    let per_producer = iters(60_000) / PRODUCERS as u64;
    // Capacity 8 with 3 producers: constant CAS races on the head
    // counter plus the full-ring path on every lap.
    let ring = Arc::new(Ring::<(u8, u64)>::new(8));
    let producers: Vec<_> = (0..PRODUCERS as u8)
        .map(|id| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut rng = Rng::new(0x5eed_0000 + u64::from(id));
                for i in 0..per_producer {
                    let mut v = (id, i);
                    loop {
                        match ring.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                    if rng.below(8) == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    let mut next = [0u64; PRODUCERS];
    let mut got = 0u64;
    while got < per_producer * PRODUCERS as u64 {
        match ring.try_pop() {
            Some((id, i)) => {
                assert_eq!(
                    i, next[id as usize],
                    "per-producer FIFO broken for producer {id}"
                );
                next[id as usize] += 1;
                got += 1;
            }
            None => std::thread::yield_now(),
        }
    }
    for p in producers {
        p.join().unwrap();
    }
    assert!(ring.is_empty(), "all entries accounted for");
    assert_eq!(next, [per_producer; PRODUCERS]);
}
