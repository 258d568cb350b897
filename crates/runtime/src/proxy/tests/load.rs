// Timed readings of the one clock and the timed faults: the load
// sampler, the overload warning, the edges of a stall window and a kill
// across a respawn.

#[test]
fn load_sampler_charges_busy_passes_up_to_the_next_reading_and_samples_each_period() {
    let shared = quiesced();
    let bits = &shared.util_bits[SRC];
    let util = || f64::from_bits(bits.load(Ordering::Relaxed));
    let unsampled = f64::to_bits(-1.0);
    bits.store(unsampled, Ordering::Relaxed);
    let mut load = LoadSampler::new(0);
    // A busy pass at 0, an idle one at 100 µs, a busy one at 900 µs.
    load.tick(&shared, SRC, 0);
    load.charge(0);
    load.tick(&shared, SRC, 100_000);
    load.tick(&shared, SRC, 900_000);
    load.charge(900_000);
    load.tick(&shared, SRC, SAMPLE_PERIOD_NS - 1);
    assert_eq!(util(), -1.0, "the window is not a period old yet");
    load.tick(&shared, SRC, SAMPLE_PERIOD_NS);
    // Charged: [0, 100 µs) and [900 µs, period − 1 ns); the idle pass
    // between them, nothing.
    assert_eq!(util(), 199_999.0 / SAMPLE_PERIOD_NS as f64);
    // The next window starts at the sample and holds nothing busy.
    bits.store(unsampled, Ordering::Relaxed);
    load.tick(&shared, SRC, 2 * SAMPLE_PERIOD_NS - 1);
    assert_eq!(util(), -1.0);
    load.tick(&shared, SRC, 2 * SAMPLE_PERIOD_NS);
    assert_eq!(util(), 0.0);
}

#[test]
fn overload_warning_names_the_signal_that_tripped_and_is_printed_once() {
    let said = |load: &LoadSampler, what| load.warned.is_some_and(|w| w.starts_with(what));
    // Busy for the whole period: utilisation crossed the bound.
    let shared = quiesced();
    let mut load = LoadSampler::new(0);
    load.charge(0);
    load.tick(&shared, SRC, SAMPLE_PERIOD_NS);
    assert!(load.saturated);
    assert!(said(&load, "overloaded"), "{:?}", load.warned);
    // Idle for the whole period while its input ring fills: stalled.
    let shared = quiesced();
    for upto in 0..200 {
        let ack = WireMsg::AckUpto { from: DST, upto };
        assert!(shared.wires[SRC].try_push(ack).is_ok());
    }
    let mut load = LoadSampler::new(0);
    load.tick(&shared, SRC, SAMPLE_PERIOD_NS);
    assert!(load.saturated);
    assert!(said(&load, "not draining"), "{:?}", load.warned);
    // Once per proxy: re-entering saturation, now overloaded, keeps the
    // first warning.
    while shared.wires[SRC].try_pop().is_some() {}
    load.tick(&shared, SRC, 2 * SAMPLE_PERIOD_NS);
    assert!(!load.saturated);
    load.charge(2 * SAMPLE_PERIOD_NS);
    load.tick(&shared, SRC, 3 * SAMPLE_PERIOD_NS);
    assert!(load.saturated);
    assert!(said(&load, "not draining"), "{:?}", load.warned);
}

#[test]
fn stall_fires_from_its_windows_first_ns_and_not_at_its_end() {
    const MS: u64 = 1_000_000;
    let plan = RtFaultPlan::new(0)
        .stall(SRC, Duration::from_millis(10), Duration::from_millis(20))
        .wedge(DST, Duration::from_millis(10), Duration::from_millis(20));
    // The proxy's clock only moves forward, so each reading probes a
    // node's injector as `start` made it.
    let fresh = |node| plan.split(2).swap_remove(node);
    assert_eq!(fresh(SRC).stall_due(10 * MS - 1), None);
    assert_eq!(fresh(SRC).stall_due(30 * MS), None, "the end is outside");
    let first = fresh(SRC).stall_due(10 * MS).expect("first ns inside");
    assert_eq!(first.0, Duration::from_millis(20), "the whole window");
    assert_eq!(fresh(DST).stall_due(30 * MS), None);
    let (remaining, interruptible) = fresh(DST).stall_due(30 * MS - 1).expect("last ns inside");
    assert_eq!(remaining, Duration::from_nanos(1));
    assert!(!interruptible);
    // The proxy's phase serves each window once, counted on its node.
    let shared = quiesced();
    for node in [SRC, DST] {
        let mut st = node_state_under(&plan, node);
        assert!(timed_faults(&shared, &mut st, node, 30 * MS - 1));
        assert!(!timed_faults(&shared, &mut st, node, 30 * MS - 1));
        assert_eq!(shared.obs[node].get(Ctr::Stalls), 1, "node {node}");
    }
}

#[test]
fn a_kill_fires_once_on_the_state_its_respawn_reenters() {
    // A respawned loop re-enters the `NodeState` the panic left: the
    // kill that fired is behind its cursor, and the next one fires at
    // its own threshold.
    let shared = quiesced();
    let plan = RtFaultPlan::new(0).kill(SRC, 10).kill(SRC, 20);
    let mut st = node_state_under(&plan, SRC);
    let mut pass_at = |ops: u64| {
        shared.ops_serviced[SRC].store(ops, Ordering::Relaxed);
        let pass = || timed_faults(&shared, &mut st, SRC, T0);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(pass))
            .err()
            .map(|reason| *reason.downcast::<String>().expect("a message"))
    };
    assert_eq!(pass_at(9), None);
    let first = pass_at(10).expect("the first kill");
    assert!(first.ends_with("after 10 ops"), "{first}");
    assert_eq!(pass_at(10), None, "the respawn is not killed again");
    assert_eq!(pass_at(19), None);
    let second = pass_at(20).expect("the second kill");
    assert!(second.ends_with("after 20 ops"), "{second}");
    assert_eq!(pass_at(u64::MAX), None, "each fires once");
}
