//! The benchmark's contract in one place: workload names, metric names and
//! units. `BENCHMARK.json` repeats them; a unit test holds the two equal.

/// The six workloads. README.md says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RtLatency,
    RtFaninSmall,
    RtBulkBidir,
    RtLossy,
    SimFaultyLink,
    SimApps,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::RtLatency,
        Workload::RtFaninSmall,
        Workload::RtBulkBidir,
        Workload::RtLossy,
        Workload::SimFaultyLink,
        Workload::SimApps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RtLatency => "rt_latency",
            Workload::RtFaninSmall => "rt_fanin_small",
            Workload::RtBulkBidir => "rt_bulk_bidir",
            Workload::RtLossy => "rt_lossy",
            Workload::SimFaultyLink => "sim_faulty_link",
            Workload::SimApps => "sim_apps",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `attempted`, `ops_per_s` and the `op_*_us` latencies count.
    pub fn op(self) -> &'static str {
        match self {
            Workload::RtLatency => "round of one-word PUT + GET + ENQ, each awaited",
            Workload::RtFaninSmall | Workload::RtLossy => "32-byte PUT, acked and delivered",
            Workload::RtBulkBidir => "4 KiB PUT or GET, completed",
            Workload::SimFaultyLink => "unit: verified ping-pong + Sample at 1% drop",
            Workload::SimApps => "simulated run of one application at one design point",
        }
    }

    /// True for the simulator workloads: one thread, nothing to wait for.
    /// Their reps take turns on the host's processors (`main::run`).
    pub fn single_threaded(self) -> bool {
        matches!(self, Workload::SimFaultyLink | Workload::SimApps)
    }

    /// The percentile (permille) `op.tail_us` reports on this workload: the
    /// highest of `stats::LADDER` that a rep leaves ten samples beyond (a
    /// unit test checks this against `nominal_samples`), fixed so that a
    /// faster or slower host never changes what the metric means.
    pub fn tail_permille(self) -> usize {
        match self {
            Workload::RtLatency
            | Workload::RtFaninSmall
            | Workload::RtBulkBidir
            | Workload::RtLossy => 990,
            Workload::SimFaultyLink | Workload::SimApps => 900,
        }
    }

    /// Latency samples a rep yields at the least, at the run length
    /// `BENCHMARK.json` records, on a host half as fast as the one this was
    /// written on (`sim_apps`: pooled over seven cycles).
    #[cfg(test)]
    pub fn nominal_samples(self) -> usize {
        match self {
            Workload::RtLatency => 7_500,
            Workload::RtFaninSmall | Workload::RtLossy => 7_500,
            Workload::RtBulkBidir => 8_000,
            Workload::SimFaultyLink => 128,
            Workload::SimApps => 210,
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// True when a larger value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees. Every workload reports every one. The
/// operations' tail latency is not among them but a per-layer metric
/// (`op.tail_us`): an end-to-end metric carries a bound that later changes
/// are rejected by, and the tail of three or four threads on two shared
/// processors moved by 23% between two sets of ten runs of one binary.
pub const END_TO_END: [MetricSpec; 4] = [
    higher("ops_per_s", "1/s"),
    lower("op_p50_us", "us"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, named `<module>.<metric>`. A traced run reports every
/// one; a layer the workload never enters reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // Standalone probes of the runtime's building blocks.
    lower("spsc.send_recv_ns", "ns"),
    lower("spsc.pop_burst_ns_per_entry", "ns"),
    lower("ring.push_pop_ns", "ns"),
    lower("ring.mpsc_push_ns", "ns"),
    lower("idle.wake_latency_us", "us"),
    lower("idle.snooze_ns", "ns"),
    lower("mem.copy8_ns", "ns"),
    higher("mem.copy4k_mb_per_s", "MB/s"),
    lower("bytes.copy4k_ns", "ns"),
    lower("fault.judge_ns", "ns"),
    lower("obs.counter_inc_ns", "ns"),
    lower("obs.hist_record_ns", "ns"),
    lower("obs.trace_event_ns", "ns"),
    lower("obs.snapshot_ms", "ms"),
    // The runtime as the workload drove it.
    lower("cluster.submit_ns", "ns"),
    lower("cluster.wait_ns", "ns"),
    lower("cluster.put_rtt_p50_us", "us"),
    lower("cluster.put_rtt_p99_us", "us"),
    lower("cluster.get_rtt_p50_us", "us"),
    lower("cluster.get_rtt_p99_us", "us"),
    lower("cluster.enq_rtt_p50_us", "us"),
    lower("cluster.enq_rtt_p99_us", "us"),
    lower("cluster.cmd_wait_ns_p50", "ns"),
    lower("cluster.wire_rtt_ns_p50", "ns"),
    lower("cluster.lsync_rtt_ns_p50", "ns"),
    lower("cluster.sink_busy_permille_p50", "permille"),
    lower("cluster.utilization_sink", "ratio"),
    lower("cluster.acks_per_msg", "ratio"),
    lower("cluster.credit_stalls_per_kop", "1/kop"),
    lower("cluster.retransmits_per_kmsg", "1/kmsg"),
    lower("cluster.dedup_drops_per_kmsg", "1/kmsg"),
    higher("cluster.payload_mb_per_s", "MB/s"),
    lower("cluster.copy_share_pct", "%"),
    lower("cluster.start_ms", "ms"),
    lower("cluster.shutdown_ms", "ms"),
    lower("fault.drop_share", "ratio"),
    // Standalone probes of the simulator's building blocks.
    higher("des.delay_chain_events_per_s", "1/s"),
    higher("des.channel_roundtrips_per_s", "1/s"),
    higher("des.timer_cancel_per_s", "1/s"),
    lower("core.micro_wall_ms.HW1", "ms"),
    lower("core.micro_wall_ms.MP1", "ms"),
    lower("core.micro_wall_ms.SW1", "ms"),
    lower("core.table4_max_err_pct", "%"),
    lower("model.latency_eval_ns", "ns"),
    // The simulator as the workload drove it (exact counts per op).
    lower("des.events", "count"),
    lower("des.timers_armed", "count"),
    lower("des.timers_cancelled", "count"),
    lower("des.timers_fired", "count"),
    lower("des.calendar_peak", "count"),
    higher("des.events_per_s", "1/s"),
    lower("core.link_retransmits", "count"),
    lower("core.link_timeouts", "count"),
    lower("apps.wall_s.Moldy", "s"),
    lower("apps.wall_s.LU", "s"),
    lower("apps.wall_s.Barnes-Hut", "s"),
    lower("apps.wall_s.Water", "s"),
    lower("apps.wall_s.MM", "s"),
    lower("apps.wall_s.FFT", "s"),
    lower("apps.wall_s.Sample", "s"),
    lower("apps.wall_s.Sampleb", "s"),
    lower("apps.wall_s.P-Ray", "s"),
    lower("apps.wall_s.Wator", "s"),
    lower("crl.wall_s", "s"),
    lower("splitc.wall_s", "s"),
    lower("am.wall_s", "s"),
    // The operation as the generator saw it, beside `op_p50_us`.
    lower("op.tail_us", "us"),
    // The benchmark's own tracing.
    lower("trace.overhead_pct", "%"),
    lower("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::stats::pick_tail;

    fn well_formed(name: &str, max: usize, alphabet: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || alphabet.contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name:?}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name:?}"
            );
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                well_formed(m.unit, 16, "_/%.-"),
                "bad unit {:?} of {}",
                m.unit,
                m.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
    }

    #[test]
    fn tail_percentiles_leave_ten_samples_beyond() {
        for w in Workload::ALL {
            assert_eq!(
                w.tail_permille(),
                pick_tail(w.nominal_samples()),
                "{}",
                w.name()
            );
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
    }

    /// `BENCHMARK.json` sits beside this package in the repository.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let items = doc.get(key).and_then(json::Value::as_arr).expect(key);
            items
                .iter()
                .map(|v| v.get("name").and_then(|n| n.as_str()).unwrap().into())
                .collect()
        };
        let listed: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), listed);
        for (key, specs) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let items = doc.get(key).and_then(json::Value::as_arr).expect(key);
            assert_eq!(items.len(), specs.len(), "{key}");
            for (item, spec) in items.iter().zip(specs) {
                let field = |f: &str| item.get(f).and_then(|v| v.as_str()).unwrap_or("");
                assert_eq!(field("name"), spec.name);
                assert_eq!(field("unit"), spec.unit, "{}", spec.name);
                let better = if spec.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field("better"), better, "{}", spec.name);
            }
        }
        for item in doc.get("end_to_end").and_then(json::Value::as_arr).unwrap() {
            let bound = item
                .get("bound")
                .and_then(json::Value::as_f64)
                .expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let secs = doc
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
