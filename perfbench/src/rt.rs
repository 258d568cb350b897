//! The four workloads on the native runtime. One generator thread drives
//! every endpoint, closed loop; the runtime adds one proxy thread per node,
//! which is the program under test, not the load. Default builder
//! configuration throughout: one shard, telemetry as shipped.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use mproxy_model::fate::SplitMix64;
use mproxy_obs::{Ctr, HistId};
use mproxy_rt::{Endpoint, FlagId, RqId, RtCluster, RtClusterBuilder, RtFaultPlan};

use crate::rep::Rep;
use crate::span::{Name, Recorder, NO_PARENT};
use crate::spec::Workload;

/// Give-up bound of every wait: a wedged data plane fails the op and the
/// rep instead of hanging the benchmark.
const WAIT: Duration = Duration::from_secs(20);
/// How many submissions pass between looks at the clock in the
/// throughput loops.
const CLOCK_EVERY: u64 = 64;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A workload set up and about to run: the started cluster, its endpoints
/// in declaration order, and the generated inputs.
struct Ready<I> {
    cluster: RtCluster,
    eps: Vec<Endpoint>,
    inputs: I,
    /// When `start()` was entered and left.
    started: (Instant, Instant),
    /// Seconds the whole set-up took.
    setup_s: f64,
}

/// Sets a workload up: `build` declares the cluster, `fill` generates the
/// inputs and writes them into the segments. The three steps together are
/// one `setup_s` sample; the start alone is the `cluster.start` span.
fn ready<I>(
    build: impl FnOnce() -> RtClusterBuilder,
    fill: impl FnOnce(&[Endpoint]) -> I,
) -> Ready<I> {
    let t_setup = Instant::now();
    let b = build();
    let t0 = Instant::now();
    let (cluster, eps) = b.start();
    let t1 = Instant::now();
    let inputs = fill(&eps);
    Ready {
        cluster,
        eps,
        inputs,
        started: (t0, t1),
        setup_s: secs(t_setup.elapsed()),
    }
}

impl<I> Ready<I> {
    /// Books the set-up in the rep and hands over the parts.
    fn into_rep(
        self,
        rep: &mut Rep,
        tracer: &mut Option<&mut Recorder>,
    ) -> (RtCluster, Vec<Endpoint>, I) {
        let (t0, t1) = self.started;
        rep.setup_s.push(self.setup_s);
        rep.layer("cluster.start_ms", secs(t1 - t0) * 1e3);
        if let Some(rec) = tracer {
            rec.record(Name::ClusterStart, 0, NO_PARENT, t0, t1);
        }
        (self.cluster, self.eps, self.inputs)
    }

    /// For the set-up probe: the time it took, after stopping the cluster.
    fn discard(self) -> f64 {
        drop(self.eps);
        self.cluster.shutdown();
        self.setup_s
    }
}

/// Sets `workload` up once, stops it again and returns the seconds the
/// set-up took; `None` for a workload that is not on the runtime.
pub fn set_up_only(workload: Workload, seed: u64) -> Option<f64> {
    match workload {
        Workload::RtLatency => Some(latency_ready(seed).discard()),
        Workload::RtFaninSmall => Some(stream_ready(seed, 2, false).discard()),
        Workload::RtLossy => Some(stream_ready(seed, 1, true).discard()),
        Workload::RtBulkBidir => Some(bulk_ready(seed).discard()),
        Workload::SimFaultyLink | Workload::SimApps => None,
    }
}

/// Stops the cluster and turns what it counted into per-layer values and
/// output checks. `sink` is the node the traffic converges on; `op_bytes`
/// is the payload one operation of the rep moves.
fn finish(
    cluster: RtCluster,
    eps: &[&Endpoint],
    sink: usize,
    lossy: bool,
    op_bytes: u64,
    rep: &mut Rep,
    tracer: &mut Option<&mut Recorder>,
) {
    rep.layer("cluster.utilization_sink", cluster.utilization(sink));
    let restarts = cluster.restarts_total();
    let injected = cluster.fault_counts();
    let hub = cluster.obs_handle();
    let t0 = Instant::now();
    let report = cluster.shutdown();
    let t1 = Instant::now();
    if let Some(rec) = tracer {
        rec.record(Name::ClusterShutdown, 0, NO_PARENT, t0, t1);
    }
    rep.layer("cluster.shutdown_ms", secs(t1 - t0) * 1e3);
    // Every proxy has exited: the counters are exact from here on.
    let snap = hub.snapshot("perfbench");
    if tracer.is_some() {
        rep.obs_json = Some(snap.to_json());
    }
    let total = |c: Ctr| snap.total(c) as f64;
    let per_k = |n: f64, d: f64| if d > 0.0 { n / d * 1e3 } else { 0.0 };
    let sink_scope = snap.scopes.iter().find(|s| s.name == format!("node{sink}"));
    if let Some(s) = sink_scope {
        let msgs_in = s.counter(Ctr::MsgsIn) as f64;
        let acks = if msgs_in > 0.0 {
            s.counter(Ctr::AcksOut) as f64 / msgs_in
        } else {
            0.0
        };
        rep.layer("cluster.acks_per_msg", acks);
        rep.layer(
            "cluster.sink_busy_permille_p50",
            s.hist(HistId::BusyPermille).quantile(0.5) as f64,
        );
    }
    rep.layer(
        "cluster.credit_stalls_per_kop",
        per_k(total(Ctr::CreditStalls), total(Ctr::OpsSubmitted)),
    );
    rep.layer(
        "cluster.retransmits_per_kmsg",
        per_k(total(Ctr::Retransmits), total(Ctr::MsgsOut)),
    );
    rep.layer(
        "cluster.dedup_drops_per_kmsg",
        per_k(total(Ctr::DedupDrops), total(Ctr::MsgsOut)),
    );
    for (name, id) in [
        ("cluster.cmd_wait_ns_p50", HistId::CmdWaitNs),
        ("cluster.wire_rtt_ns_p50", HistId::WireRttNs),
        ("cluster.lsync_rtt_ns_p50", HistId::LsyncRttNs),
    ] {
        rep.layer(name, snap.merged_hist(id).quantile(0.5) as f64);
    }
    rep.layer(
        "cluster.payload_mb_per_s",
        rep.ops_per_s() * op_bytes as f64 / 1e6,
    );
    let counts = injected.unwrap_or_default();
    let share = if counts.packets > 0 {
        counts.dropped as f64 / counts.packets as f64
    } else {
        0.0
    };
    rep.layer("fault.drop_share", share);

    for e in eps {
        let (asid, faults, timeouts) = (e.asid(), e.faults(), e.timeouts());
        rep.check(faults == 0, || {
            format!("process {asid}: {faults} protection faults")
        });
        rep.check(timeouts == 0, || {
            format!("process {asid}: {timeouts} waits expired")
        });
    }
    rep.check(report.clean(), || {
        format!("shutdown was not clean: {}", report.to_json())
    });
    rep.check(restarts == 0, || format!("{restarts} proxy restarts"));
    if lossy {
        let retransmits = snap.total(Ctr::Retransmits);
        rep.check(counts.dropped > 0, || {
            "the fault plan dropped no packet".into()
        });
        rep.check(retransmits > 0, || {
            "packets were dropped but none was retransmitted".into()
        });
        // Every data frame a receiver popped is applied, or dropped as a
        // duplicate, as damaged, or shed.
        for s in &snap.scopes {
            let accounted = s.counter(Ctr::OpsApplied)
                + s.counter(Ctr::DedupDrops)
                + s.counter(Ctr::DamagedDrops)
                + s.counter(Ctr::Sheds);
            let msgs_in = s.counter(Ctr::MsgsIn);
            rep.check(msgs_in == accounted, || {
                format!(
                    "{}: msgs_in {msgs_in} != applied+dedup+damaged+shed {accounted}",
                    s.name
                )
            });
        }
    } else {
        rep.check(counts.packets == 0, || {
            "packets were judged without a fault plan".into()
        });
    }
}

const F_PUT: FlagId = FlagId(0);
const F_ENQ: FlagId = FlagId(1);
const F_GET: FlagId = FlagId(2);
/// Raised at the target by every delivered PUT of the throughput workloads.
const F_DELIVERED: FlagId = FlagId(3);

/// Per-layer names of one kind of operation's p50 and p99 round trip.
const PUT_RTT: [&str; 2] = ["cluster.put_rtt_p50_us", "cluster.put_rtt_p99_us"];
const GET_RTT: [&str; 2] = ["cluster.get_rtt_p50_us", "cluster.get_rtt_p99_us"];
const ENQ_RTT: [&str; 2] = ["cluster.enq_rtt_p50_us", "cluster.enq_rtt_p99_us"];

/// Sorts one kind's round-trip samples and reports their p50 and p99.
fn rtt_layers(rep: &mut Rep, [p50_name, p99_name]: [&'static str; 2], samples_ns: &mut [u64]) {
    let (p50, p99) = crate::stats::p50_and_tail_us(samples_ns, 990);
    rep.layer(p50_name, p50);
    rep.layer(p99_name, p99);
}

const LAT_SEG: u64 = 1 << 16;
const LAT_SLOTS: usize = 1024;

fn latency_ready(seed: u64) -> Ready<(Vec<u64>, u64)> {
    let build = || {
        let mut b = RtClusterBuilder::new(2);
        b.add_process(0, LAT_SEG as usize);
        b.add_process(1, LAT_SEG as usize);
        b
    };
    let fill = |_: &[Endpoint]| {
        // Word offsets the operations touch, clear of the two source words.
        let mut rng = SplitMix64::new(seed);
        let offsets: Vec<u64> = (0..LAT_SLOTS)
            .map(|_| 64 + 8 * (rng.next_u64() % ((LAT_SEG - 64) / 8)))
            .collect();
        (offsets, rng.next_u64() | 1)
    };
    ready(build, fill)
}

/// `rt_latency`: one process on node 0 issues, strictly one at a time, a
/// one-word PUT awaited on its lsync, a one-word GET awaited on its flag and
/// a one-word ENQ awaited on its lsync, to a passive process on node 1.
pub fn latency(seed: u64, budget: Duration, mut tracer: Option<&mut Recorder>) -> Rep {
    const SLOTS: usize = LAT_SLOTS;
    const SRC_PUT: u64 = 0;
    const SRC_ENQ: u64 = 8;
    let mut rep = Rep::default();
    let (cluster, mut eps, (offsets, salt)) = latency_ready(seed).into_rep(&mut rep, &mut tracer);
    let e1 = eps.pop().expect("endpoint of the passive process");
    let mut e0 = eps.pop().expect("endpoint of the active process");
    let a1 = e1.asid();

    let mut kinds: [Vec<u64>; 3] = Default::default();
    let t_begin = Instant::now();
    let deadline = t_begin + budget;
    let mut t_end = t_begin;
    let mut round = 0u64;
    'rounds: while t_end < deadline {
        let slot = offsets[round as usize % SLOTS];
        let far = offsets[(round as usize + SLOTS / 2) % SLOTS];
        let word = (round + 1).wrapping_mul(salt);
        let mut rtt = [0u64; 3];
        let mut wrong = false;
        rep.attempted += 1;
        for kind in 0..3 {
            // Inputs go in before the clock starts, checks come after it stops.
            let value = word ^ kind as u64;
            let t_in = tracer.is_some().then(Instant::now);
            match kind {
                0 => e0.seg().write_u64(SRC_PUT, value),
                1 => e1.seg().write_u64(far, value),
                _ => e0.seg().write_u64(SRC_ENQ, value),
            }
            let t0 = Instant::now();
            let flag = [F_PUT, F_GET, F_ENQ][kind];
            match kind {
                0 => e0.put(SRC_PUT, a1, slot, 8, Some(flag), None),
                1 => e0.get(slot, a1, far, 8, Some(flag)),
                _ => e0.enq(SRC_ENQ, a1, RqId(0), 8, Some(flag), None),
            }
            let t_mid = tracer.is_some().then(Instant::now);
            let waited = e0.wait_flag_timeout(flag, round + 1, WAIT);
            let t1 = Instant::now();
            t_end = t1;
            if let Err(e) = waited {
                rep.failed += 1;
                rep.error(format!("round {round}, op {kind}: {e}"));
                break 'rounds;
            }
            rtt[kind] = ns(t1 - t0);
            let got = match kind {
                0 => e1.seg().read_u64(slot),
                1 => e0.seg().read_u64(slot),
                _ => match e1.rq_try_recv(RqId(0)) {
                    Some(b) if b.len() == 8 => {
                        u64::from_le_bytes(b[..].try_into().expect("8 bytes"))
                    }
                    _ => !value,
                },
            };
            if got != value {
                wrong = true;
                rep.error(format!(
                    "round {round}, op {kind}: read {got:#x}, expected {value:#x}"
                ));
            }
            if let (Some(rec), Some(t_in), Some(t_mid)) = (tracer.as_deref_mut(), t_in, t_mid) {
                let t_out = Instant::now();
                let op = round * 3 + kind as u64;
                let parent = rec.open(Name::Op, op, t_in);
                rec.record(Name::SegWrite, op, parent, t_in, t0);
                let call = [Name::EndpointPut, Name::EndpointGet, Name::EndpointEnq][kind];
                rec.record(call, op, parent, t0, t_mid);
                rec.record(Name::EndpointWait, op, parent, t_mid, t1);
                rec.record(Name::SegRead, op, parent, t1, t_out);
                rec.finish(parent, Name::Op, t_in, t_out);
            }
        }
        if wrong {
            rep.failed += 1;
        } else {
            rep.lat_ns.push(rtt.iter().sum());
            for (samples, v) in kinds.iter_mut().zip(rtt) {
                samples.push(v);
            }
        }
        round += 1;
    }
    rep.wall_s = secs(t_end - t_begin);

    for (samples, names) in kinds.iter_mut().zip([PUT_RTT, GET_RTT, ENQ_RTT]) {
        rtt_layers(&mut rep, names, samples);
    }
    rep.check(e1.rq_try_recv(RqId(0)).is_none(), || {
        "an ENQ payload was delivered twice".into()
    });
    finish(cluster, &[&e0, &e1], 1, false, 24, &mut rep, &mut tracer);
    rep
}

/// A windowed stream of acknowledged operations on one completion flag,
/// with every `sample_every`-th operation timed from submission to the
/// first look at the flag that shows it complete.
struct Window {
    flag: FlagId,
    depth: u64,
    sample_every: u64,
    sent: u64,
    pending: VecDeque<(u64, Instant)>,
    lat_ns: Vec<u64>,
}

impl Window {
    fn new(flag: FlagId, depth: u64, sample_every: u64) -> Window {
        Window {
            flag,
            depth,
            sample_every,
            sent: 0,
            pending: VecDeque::new(),
            lat_ns: Vec::new(),
        }
    }

    /// True when the next operation is one whose latency is sampled.
    fn samples_next(&self) -> bool {
        self.sent.is_multiple_of(self.sample_every)
    }

    /// Books an operation just submitted through `call`: its inputs were
    /// written from `t_in`, the call began at `t0` (both taken only when
    /// tracing; `t0` also when `sampled`). Then throttles. A traced
    /// operation gets its `op` span with the write, the call and any wait
    /// as children.
    fn submitted(
        &mut self,
        ep: &Endpoint,
        call: Name,
        op: u64,
        sampled: bool,
        (t_in, t0): (Option<Instant>, Option<Instant>),
        tracer: &mut Option<&mut Recorder>,
    ) -> Result<(), String> {
        let mut parent = NO_PARENT;
        if let (Some(rec), Some(t_in), Some(t0)) = (tracer.as_deref_mut(), t_in, t0) {
            parent = rec.open(Name::Op, op, t_in);
            rec.record(Name::SegWrite, op, parent, t_in, t0);
            rec.record(call, op, parent, t0, Instant::now());
        }
        self.sent += 1;
        if let (true, Some(t0)) = (sampled, t0) {
            self.pending.push_back((self.sent, t0));
        }
        let throttled = self.throttle(ep, op, parent, tracer);
        if let (Some(rec), Some(t_in)) = (tracer.as_deref_mut(), t_in) {
            rec.finish(parent, Name::Op, t_in, Instant::now());
        }
        throttled
    }

    /// Closes the samples that `done` completions cover.
    fn observe(&mut self, done: u64) {
        if self.pending.front().is_some_and(|&(n, _)| n <= done) {
            let now = Instant::now();
            while let Some(&(n, t0)) = self.pending.front() {
                if n > done {
                    break;
                }
                self.lat_ns.push(ns(now - t0));
                self.pending.pop_front();
            }
        }
    }

    /// Waits while more than `depth` operations are outstanding, then closes
    /// the samples now complete. The wait is the traced `endpoint.wait` span.
    fn throttle(
        &mut self,
        ep: &Endpoint,
        op: u64,
        parent: u32,
        tracer: &mut Option<&mut Recorder>,
    ) -> Result<(), String> {
        let mut done = ep.flag(self.flag);
        if self.sent - done > self.depth {
            let t0 = tracer.is_some().then(Instant::now);
            ep.wait_flag_timeout(self.flag, self.sent - self.depth, WAIT)
                .map_err(|e| format!("window wait after {} operations: {e}", self.sent))?;
            if let (Some(rec), Some(t0)) = (tracer.as_deref_mut(), t0) {
                rec.record(Name::EndpointWait, op, parent, t0, Instant::now());
            }
            done = ep.flag(self.flag);
        }
        self.observe(done);
        Ok(())
    }

    /// Waits for every operation sent; returns how many never completed.
    fn drain(&mut self, ep: &Endpoint) -> u64 {
        let _ = ep.wait_flag_timeout(self.flag, self.sent, WAIT);
        let done = ep.flag(self.flag).min(self.sent);
        self.observe(done);
        self.sent - done
    }
}

/// Geometry of the small-message stream: 32-byte PUTs, each source keeping
/// `WINDOW` in flight and rotating over twice as many slots, so that a slot
/// is never rewritten while its last PUT is outstanding.
const SMALL: u32 = 32;
const SMALL_WINDOW: u64 = 256;
const SMALL_SLOTS: u64 = 2 * SMALL_WINDOW;
const SMALL_REGION: u64 = SMALL_SLOTS * SMALL as u64;
const SMALL_SAMPLE_EVERY: u64 = 32;

/// The four payload words of message `seq` (1-based) of source `src`.
fn small_payload(seq: u64, src: u64, salt: u64) -> [u64; 4] {
    [seq, src, seq ^ salt, !seq]
}

fn stream_ready(seed: u64, sources: usize, lossy: bool) -> Ready<u64> {
    let build = || {
        let mut b = RtClusterBuilder::new(sources + 1);
        if lossy {
            b.fault_plan(RtFaultPlan::new(seed).drop(0.01));
        }
        b.add_process(0, (SMALL_REGION as usize) * sources);
        for node in 1..=sources {
            b.add_process(node, SMALL_REGION as usize);
        }
        b
    };
    ready(build, |_| SplitMix64::new(seed).next_u64())
}

/// `rt_fanin_small` (`sources` = 2, lossless) and `rt_lossy` (`sources` = 1,
/// 1% of data frames dropped): the generator drives the source endpoints
/// alternately, each PUT raising the source's lsync flag when acknowledged
/// and the sink's rsync flag when delivered.
pub fn small_stream(
    seed: u64,
    budget: Duration,
    sources: usize,
    lossy: bool,
    mut tracer: Option<&mut Recorder>,
) -> Rep {
    let mut rep = Rep::default();
    let (cluster, mut eps, salt) =
        stream_ready(seed, sources, lossy).into_rep(&mut rep, &mut tracer);
    let mut srcs = eps.split_off(1);
    let sink = eps.pop().expect("sink endpoint");
    let sink_asid = sink.asid();
    let mut windows: Vec<Window> = (0..sources)
        .map(|_| Window::new(F_PUT, SMALL_WINDOW, SMALL_SAMPLE_EVERY))
        .collect();

    let t_begin = Instant::now();
    let deadline = t_begin + budget;
    let mut stuck = None;
    'stream: loop {
        for _ in 0..CLOCK_EVERY {
            for (s, (ep, win)) in srcs.iter_mut().zip(&mut windows).enumerate() {
                let slot = win.sent % SMALL_SLOTS;
                let laddr = slot * u64::from(SMALL);
                let raddr = s as u64 * SMALL_REGION + laddr;
                let sampled = win.samples_next();
                let t_in = tracer.is_some().then(Instant::now);
                for (i, w) in small_payload(win.sent + 1, s as u64, salt)
                    .into_iter()
                    .enumerate()
                {
                    ep.seg().write_u64(laddr + 8 * i as u64, w);
                }
                let t0 = (sampled || tracer.is_some()).then(Instant::now);
                ep.put(
                    laddr,
                    sink_asid,
                    raddr,
                    SMALL,
                    Some(F_PUT),
                    Some(F_DELIVERED),
                );
                let op = win.sent * sources as u64 + s as u64;
                let throttled =
                    win.submitted(ep, Name::EndpointPut, op, sampled, (t_in, t0), &mut tracer);
                if let Err(e) = throttled {
                    stuck = Some(e);
                    break 'stream;
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    // The window closes when every PUT is acknowledged and delivered.
    let mut lost = 0;
    for (ep, win) in srcs.iter().zip(&mut windows) {
        lost += win.drain(ep);
    }
    let total: u64 = windows.iter().map(|w| w.sent).sum();
    let _ = sink.wait_flag_timeout(F_DELIVERED, total - lost, WAIT);
    rep.wall_s = secs(t_begin.elapsed());
    rep.attempted = total;
    rep.failed = lost;
    if let Some(e) = stuck {
        rep.error(e);
    }
    rep.check(lost == 0, || {
        format!("{lost} of {total} PUTs were never acknowledged")
    });

    let mut put_ns: Vec<u64> = Vec::new();
    for win in &mut windows {
        put_ns.append(&mut win.lat_ns);
    }
    rtt_layers(&mut rep, PUT_RTT, &mut put_ns);
    rep.lat_ns = put_ns;

    let mut eps_all: Vec<&Endpoint> = vec![&sink];
    eps_all.extend(srcs.iter());
    let small = u64::from(SMALL);
    finish(cluster, &eps_all, 0, lossy, small, &mut rep, &mut tracer);

    // Exactly once: the sink's flag counts every PUT once, and each slot
    // holds the words of the last PUT aimed at it.
    let delivered = sink.flag(F_DELIVERED);
    rep.check(delivered == total, || {
        format!("sink saw {delivered} deliveries of {total} PUTs")
    });
    for (s, win) in windows.iter().enumerate() {
        for slot in 0..win.sent.min(SMALL_SLOTS) {
            let last = (win.sent - 1 - slot) / SMALL_SLOTS * SMALL_SLOTS + slot + 1;
            let want = small_payload(last, s as u64, salt);
            let base = s as u64 * SMALL_REGION + slot * u64::from(SMALL);
            let got: Vec<u64> = (0..4).map(|i| sink.seg().read_u64(base + 8 * i)).collect();
            if got != want {
                rep.failed += 1;
                rep.error(format!(
                    "source {s} slot {slot}: sink holds {got:x?}, expected {want:x?}"
                ));
            }
        }
    }
    rep
}

const BULK: u32 = 4096;
const BULK_WINDOW: u64 = 32;
const BULK_SLOTS: u64 = 2 * BULK_WINDOW;
const BULK_REGION: u64 = BULK_SLOTS * BULK as u64;
const BULK_SAMPLE_EVERY: u64 = 8;
/// Offset of a slot's last word; the first and the last word carry tags.
const BULK_LAST: u64 = BULK as u64 - 8;

/// A: PUT sources, then GET landing slots. B: PUT targets, then GET sources.
const BULK_SECOND: u64 = BULK_REGION;

fn bulk_ready(seed: u64) -> Ready<Vec<u8>> {
    let build = || {
        let mut b = RtClusterBuilder::new(2);
        b.add_process(0, 2 * BULK_REGION as usize);
        b.add_process(1, 2 * BULK_REGION as usize);
        b
    };
    let fill = |eps: &[Endpoint]| {
        let mut rng = SplitMix64::new(seed);
        let mut pattern = || -> Vec<u8> {
            (0..BULK_REGION / 8)
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .collect()
        };
        let (out_bytes, back_bytes) = (pattern(), pattern());
        eps[0].seg().write(0, &out_bytes);
        eps[1].seg().write(BULK_SECOND, &back_bytes);
        back_bytes
    };
    ready(build, fill)
}

/// `rt_bulk_bidir`: process A on node 0 alternates a 4 KiB PUT into B's
/// segment and a 4 KiB GET out of it, 32 of each in flight, over rotating
/// slots. B, on node 1, is passive: both directions run through the same
/// two proxies.
pub fn bulk_bidir(seed: u64, budget: Duration, mut tracer: Option<&mut Recorder>) -> Rep {
    const SECOND: u64 = BULK_SECOND;
    let mut rep = Rep::default();
    let (cluster, mut eps, back_bytes) = bulk_ready(seed).into_rep(&mut rep, &mut tracer);
    let eb = eps.pop().expect("endpoint B");
    let mut ea = eps.pop().expect("endpoint A");
    let far = eb.asid();
    let back_tag = |slot: u64| {
        let at = (slot * u64::from(BULK)) as usize;
        let word =
            |o: usize| u64::from_le_bytes(back_bytes[at + o..at + o + 8].try_into().expect("word"));
        (word(0), word(BULK_LAST as usize))
    };

    let mut puts = Window::new(F_PUT, BULK_WINDOW, BULK_SAMPLE_EVERY);
    let mut gets = Window::new(F_GET, BULK_WINDOW, BULK_SAMPLE_EVERY);
    let t_begin = Instant::now();
    let deadline = t_begin + budget;
    let mut stuck = None;
    'stream: loop {
        for _ in 0..CLOCK_EVERY / 8 {
            for is_get in [false, true] {
                let win = if is_get { &mut gets } else { &mut puts };
                let slot = win.sent % BULK_SLOTS;
                let at = slot * u64::from(BULK);
                let sampled = win.samples_next();
                let reused = win.sent >= BULK_SLOTS;
                let t_in = tracer.is_some().then(Instant::now);
                // The operation that last used this slot completed a window
                // ago: check what it moved, then prepare the slot again.
                if is_get {
                    if reused {
                        let got = (
                            ea.seg().read_u64(SECOND + at),
                            ea.seg().read_u64(SECOND + at + BULK_LAST),
                        );
                        if got != back_tag(slot) {
                            rep.failed += 1;
                            rep.error(format!("GET into slot {slot} landed {got:x?}"));
                        }
                    }
                    ea.seg().write_u64(SECOND + at, 0);
                    ea.seg().write_u64(SECOND + at + BULK_LAST, 0);
                } else {
                    if reused {
                        let seq = win.sent - BULK_SLOTS + 1;
                        let got = (eb.seg().read_u64(at), eb.seg().read_u64(at + BULK_LAST));
                        if got != (seq, !seq) {
                            rep.failed += 1;
                            rep.error(format!("PUT {seq} into slot {slot} left {got:x?}"));
                        }
                    }
                    ea.seg().write_u64(at, win.sent + 1);
                    ea.seg().write_u64(at + BULK_LAST, !(win.sent + 1));
                }
                let t0 = (sampled || tracer.is_some()).then(Instant::now);
                if is_get {
                    ea.get(SECOND + at, far, SECOND + at, BULK, Some(F_GET));
                } else {
                    ea.put(at, far, at, BULK, Some(F_PUT), None);
                }
                let op = win.sent * 2 + u64::from(is_get);
                let call = if is_get {
                    Name::EndpointGet
                } else {
                    Name::EndpointPut
                };
                let throttled = win.submitted(&ea, call, op, sampled, (t_in, t0), &mut tracer);
                if let Err(e) = throttled {
                    stuck = Some(e);
                    break 'stream;
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let lost = puts.drain(&ea) + gets.drain(&ea);
    rep.wall_s = secs(t_begin.elapsed());
    rep.attempted = puts.sent + gets.sent;
    rep.failed += lost;
    if let Some(e) = stuck {
        rep.error(e);
    }
    rep.check(lost == 0, || {
        format!("{lost} bulk operations never completed")
    });

    for (win, names) in [(&mut puts, PUT_RTT), (&mut gets, GET_RTT)] {
        rtt_layers(&mut rep, names, &mut win.lat_ns);
        rep.lat_ns.append(&mut win.lat_ns);
    }
    let bulk = u64::from(BULK);
    finish(cluster, &[&ea, &eb], 1, false, bulk, &mut rep, &mut tracer);

    // Final state, byte for byte: B holds what A's PUT slots hold, and A's
    // landing slots hold B's GET sources, as far as operations reached.
    let put_span = (puts.sent.min(BULK_SLOTS) * u64::from(BULK)) as usize;
    let get_span = (gets.sent.min(BULK_SLOTS) * u64::from(BULK)) as usize;
    rep.check(
        eb.seg().read(0, put_span) == ea.seg().read(0, put_span),
        || "B's PUT targets differ from A's PUT sources".into(),
    );
    rep.check(
        ea.seg().read(SECOND, get_span)[..] == back_bytes[..get_span],
        || "A's GET landing slots differ from B's GET sources".into(),
    );
    rep
}
