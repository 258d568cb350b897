//! Standalone probes of single layers: each times calls into one module's
//! public functions, from outside, for a few tens of milliseconds. They run
//! in a traced invocation only, after the workload, and are the same on
//! every workload. README.md says which end-to-end metric each should move.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mproxy::micro::run_micro;
use mproxy_des::{Channel, Dur, Simulation};
use mproxy_model::fate::{PacketFates, SplitMix64};
use mproxy_model::{paper_table4, HW1, MP1, SW1};
use mproxy_obs::{EventKind, HistId, ObsHub, DEFAULT_RING_CAP};
use mproxy_rt::idle::{Backoff, Parker};
use mproxy_rt::ring::Ring;
use mproxy_rt::spsc::{self, Entry};
use mproxy_rt::{Segment, CMDQ_DEPTH, WIRE_DEPTH};

use crate::stats;

/// Nanoseconds per call of `f` over `iters` calls.
fn per_call_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs every probe; `scale` shrinks the iteration counts for the smoke test.
pub fn run_all(scale: u64) -> Vec<(&'static str, f64)> {
    let n = |full: u64| (full / scale).max(8);
    let mut out = Vec::new();
    spsc_probes(n(1_000_000), &mut out);
    ring_probes(n(1_000_000), &mut out);
    idle_probes(n(200), &mut out);
    copy_probes(n(200_000), &mut out);
    obs_probes(n(1_000_000), &mut out);
    des_probes(n(200_000), &mut out);
    core_probes(&mut out);
    out
}

fn spsc_probes(iters: u64, out: &mut Vec<(&'static str, f64)>) {
    let (mut tx, mut rx) = spsc::channel(CMDQ_DEPTH);
    let entry = |i: u64| Entry {
        op: 1,
        args: [i, i + 1, i + 2, i + 3],
        t_ns: 0,
    };
    let pair = per_call_ns(iters, |i| {
        black_box(tx.try_send(black_box(entry(i))));
        black_box(rx.try_recv());
    });
    out.push(("spsc.send_recv_ns", pair));

    const BURST: usize = 64;
    let mut drained = Vec::with_capacity(BURST);
    let mut in_pop = Duration::ZERO;
    let bursts = (iters / BURST as u64).max(1);
    for b in 0..bursts {
        for i in 0..BURST as u64 {
            tx.try_send(entry(b + i));
        }
        drained.clear();
        let t0 = Instant::now();
        let taken = rx.pop_burst(&mut drained, BURST);
        in_pop += t0.elapsed();
        assert_eq!(
            black_box(taken),
            BURST,
            "a burst of {BURST} fits the command queue"
        );
    }
    out.push((
        "spsc.pop_burst_ns_per_entry",
        in_pop.as_nanos() as f64 / (bursts * BURST as u64) as f64,
    ));
}

fn ring_probes(iters: u64, out: &mut Vec<(&'static str, f64)>) {
    let ring: Ring<u64> = Ring::new(WIRE_DEPTH);
    let pair = per_call_ns(iters, |i| {
        black_box(ring.try_push(black_box(i)).is_ok());
        black_box(ring.try_pop());
    });
    out.push(("ring.push_pop_ns", pair));

    // Two producers against one consumer, the shape of a fan-in sink's
    // wire ring. Wall time per message delivered.
    const PRODUCERS: u64 = 2;
    let per_producer = iters / 2;
    let ring: Ring<u64> = Ring::new(WIRE_DEPTH);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..PRODUCERS {
            s.spawn(|| {
                let mut backoff = Backoff::new();
                for i in 0..per_producer {
                    while ring.try_push(i).is_err() {
                        backoff.snooze();
                    }
                    backoff.reset();
                }
            });
        }
        let mut popped = 0;
        let mut backoff = Backoff::new();
        while popped < PRODUCERS * per_producer {
            match ring.try_pop() {
                Some(v) => {
                    black_box(v);
                    popped += 1;
                    backoff.reset();
                }
                None => backoff.snooze(),
            }
        }
    });
    let total = (PRODUCERS * per_producer) as f64;
    out.push(("ring.mpsc_push_ns", t0.elapsed().as_nanos() as f64 / total));
}

fn idle_probes(handoffs: u64, out: &mut Vec<(&'static str, f64)>) {
    // A consumer parks; the producer stamps the clock, publishes, wakes.
    // The sample is the time from the stamp to the consumer running again.
    let parker = Arc::new(Parker::new());
    let posted = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let epoch = Instant::now();
    let consumer = {
        let (parker, posted, stop) = (Arc::clone(&parker), Arc::clone(&posted), Arc::clone(&stop));
        std::thread::spawn(move || {
            parker.register();
            let mut samples = Vec::new();
            loop {
                parker.prepare_park();
                let stamp = posted.swap(0, Ordering::SeqCst);
                if stamp != 0 {
                    parker.cancel();
                    samples.push((epoch.elapsed().as_nanos() as u64).saturating_sub(stamp));
                    continue;
                }
                if stop.load(Ordering::SeqCst) {
                    parker.cancel();
                    return samples;
                }
                parker.park(Duration::from_millis(50));
            }
        })
    };
    for _ in 0..handoffs {
        // Long enough for the consumer to be parked again.
        std::thread::sleep(Duration::from_micros(200));
        posted.store((epoch.elapsed().as_nanos() as u64).max(1), Ordering::SeqCst);
        parker.wake();
    }
    std::thread::sleep(Duration::from_micros(500));
    stop.store(true, Ordering::SeqCst);
    parker.wake();
    let mut samples = consumer.join().expect("parked consumer");
    samples.sort_unstable();
    out.push((
        "idle.wake_latency_us",
        stats::percentile(&samples, 500) as f64 / 1e3,
    ));

    const STEPS: u64 = 64;
    let rounds = (handoffs / 4).max(2);
    let t0 = Instant::now();
    for _ in 0..rounds {
        let mut backoff = Backoff::new();
        for _ in 0..STEPS {
            backoff.snooze();
        }
    }
    out.push((
        "idle.snooze_ns",
        t0.elapsed().as_nanos() as f64 / (rounds * STEPS) as f64,
    ));
}

fn copy_probes(iters: u64, out: &mut Vec<(&'static str, f64)>) {
    const BULK: usize = 4096;
    let seg = Segment::new(1 << 16);
    let word = 0x0123_4567_89ab_cdefu64.to_le_bytes();
    let copy8 = per_call_ns(iters * 4, |i| {
        let at = (i % 1024) * 8;
        seg.write(at, black_box(&word));
        black_box(seg.read(at, 8));
    });
    out.push(("mem.copy8_ns", copy8));

    let block = vec![0xA5u8; BULK];
    let copy4k = per_call_ns(iters / 4, |i| {
        let at = (i % 8) * BULK as u64;
        seg.write(at, black_box(&block));
        black_box(seg.read(at, BULK));
    });
    // One write and one read of 4 KiB per call.
    out.push(("mem.copy4k_mb_per_s", 2.0 * BULK as f64 / copy4k * 1e3));

    let bytes4k = per_call_ns(iters / 4, |_| {
        let b = Bytes::copy_from_slice(black_box(&block));
        black_box(b.slice(8..BULK - 8));
    });
    out.push(("bytes.copy4k_ns", bytes4k));

    let fates = PacketFates {
        drop_p: 0.01,
        ..PacketFates::NONE
    };
    let mut rng = SplitMix64::new(1997);
    let judge = per_call_ns(iters * 4, |_| {
        black_box(fates.judge(&mut rng));
    });
    out.push(("fault.judge_ns", judge));
}

fn obs_probes(iters: u64, out: &mut Vec<(&'static str, f64)>) {
    let hub = ObsHub::new(true);
    let scope = hub.register("probe", DEFAULT_RING_CAP);
    out.push((
        "obs.counter_inc_ns",
        per_call_ns(iters, |_| scope.inc(mproxy_obs::Ctr::MsgsIn)),
    ));
    out.push((
        "obs.hist_record_ns",
        per_call_ns(iters, |i| {
            scope.record(HistId::LsyncRttNs, black_box(4_000 + (i & 1023)))
        }),
    ));
    out.push((
        "obs.trace_event_ns",
        per_call_ns(iters / 4, |i| scope.trace(EventKind::Enqueue, 1, i as u32)),
    ));
    // A hub the size of the fan-in cluster's: three node scopes.
    hub.register("probe1", DEFAULT_RING_CAP);
    hub.register("probe2", DEFAULT_RING_CAP);
    let snapshots = (iters / 10_000).max(2);
    let per = per_call_ns(snapshots, |_| {
        black_box(hub.snapshot("probe"));
    });
    out.push(("obs.snapshot_ms", per / 1e6));
}

fn des_probes(steps: u64, out: &mut Vec<(&'static str, f64)>) {
    let per_s = |t0: Instant| steps as f64 / t0.elapsed().as_secs_f64();

    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        for _ in 0..steps {
            ctx.delay(Dur::from_us(1.0)).await;
        }
    });
    let t0 = Instant::now();
    let report = sim.run();
    out.push(("des.delay_chain_events_per_s", per_s(t0)));
    assert!(report.completed_cleanly() && report.events >= steps);

    let sim = Simulation::new();
    let (ping, pong) = (Channel::<u64>::bounded(1), Channel::<u64>::bounded(1));
    {
        let (ping, pong) = (ping.clone(), pong.clone());
        sim.spawn(async move {
            for i in 0..steps {
                ping.send(i).await;
                black_box(pong.recv().await);
            }
        });
    }
    sim.spawn(async move {
        for _ in 0..steps {
            let v = ping.recv().await;
            pong.send(v.unwrap_or(0)).await;
        }
    });
    let t0 = Instant::now();
    let report = sim.run();
    out.push(("des.channel_roundtrips_per_s", per_s(t0)));
    assert!(report.completed_cleanly());

    // What an acknowledged packet does to its retransmit timer: arm, then
    // cancel before the deadline.
    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        for _ in 0..steps {
            let timer = ctx.timer(Dur::from_us(100.0));
            let handle = timer.handle();
            let canceller = ctx.clone();
            ctx.spawn(async move {
                canceller.delay(Dur::from_us(1.0)).await;
                handle.cancel();
            });
            black_box(timer.await);
        }
    });
    let t0 = Instant::now();
    let report = sim.run();
    out.push(("des.timer_cancel_per_s", per_s(t0)));
    assert!(report.completed_cleanly() && report.timers_cancelled == steps);
}

fn core_probes(out: &mut Vec<(&'static str, f64)>) {
    let mut max_err = 0.0f64;
    for (name, design) in [
        ("core.micro_wall_ms.HW1", HW1),
        ("core.micro_wall_ms.MP1", MP1),
        ("core.micro_wall_ms.SW1", SW1),
    ] {
        const RUNS: usize = 5;
        let mut walls = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let t0 = Instant::now();
            let sim = black_box(run_micro(design));
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
            // Simulated time against the paper's Table 4: an accuracy
            // guard, which a change of host speed must leave identical.
            let paper = paper_table4(design.name).expect("Table 4 lists the design");
            for (got, want) in [
                (sim.put_rt_us, paper.put_rt_us),
                (sim.get_us, paper.get_us),
                (sim.overhead_us, paper.overhead_us),
                (sim.peak_bw_mbs, paper.peak_bw_mbs),
            ] {
                max_err = max_err.max((got - want).abs() / want * 100.0);
            }
        }
        out.push((name, stats::median(&walls)));
    }
    out.push(("core.table4_max_err_pct", max_err));

    let eval = per_call_ns(200_000, |_| {
        black_box(mproxy_model::get_latency());
        black_box(mproxy_model::put_roundtrip_latency());
    });
    out.push(("model.latency_eval_ns", eval));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    #[test]
    fn every_probe_reports_a_listed_metric_once() {
        let values = run_all(1_000);
        let mut names: Vec<&str> = values.iter().map(|v| v.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a probe name repeats");
        for (name, value) in values {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not in spec::PER_LAYER"
            );
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
        }
    }
}
