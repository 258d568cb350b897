//! Regression gates for the benchmark reports and the simulator's
//! timer and polling machinery.
//!
//! The checked-in `results/*.txt` files are the ground truth for the
//! paper reproduction: every engine change must reproduce them byte for
//! byte, whether the report is generated serially, a second time in the
//! same process, or through the parallel sweep driver.

use mproxy::micro::pingpong_verified;
use mproxy::FaultPlan;
use mproxy_apps::{run_app, run_app_faulty, run_app_flat, AppId, AppSize};
use mproxy_bench::reports;
use mproxy_model::{HW1, MP1, SW1};

const FIG7_EXPECTED: &str = include_str!("../../results/fig7.txt");
const FAULT_SWEEP_EXPECTED: &str = include_str!("../../results/fault_sweep.txt");
const CRASH_SWEEP_EXPECTED: &str = include_str!("../../results/crash_sweep.txt");

#[test]
fn fault_sweep_report_matches_checked_in_results() {
    let first = reports::fault_sweep_report();
    assert!(
        first == FAULT_SWEEP_EXPECTED,
        "fault sweep drifted from results/fault_sweep.txt"
    );
    let second = reports::fault_sweep_report();
    assert!(first == second, "fault sweep not repeatable in-process");
}

#[test]
fn crash_sweep_report_matches_checked_in_results() {
    // The report itself asserts zero-loss recovery, EpochReset fail-stop
    // and run-to-run determinism; the byte comparison pins epochs,
    // sequence watermarks and recovery statistics across engine changes.
    let first = reports::crash_sweep_report();
    assert!(
        first == CRASH_SWEEP_EXPECTED,
        "crash sweep drifted from results/crash_sweep.txt"
    );
    let second = reports::crash_sweep_report();
    assert!(first == second, "crash sweep not repeatable in-process");
}

#[test]
fn parallel_crash_sweep_is_byte_identical_to_serial() {
    let parallel = reports::crash_sweep_report_parallel(2);
    assert!(
        parallel == CRASH_SWEEP_EXPECTED,
        "parallel crash sweep drifted from results/crash_sweep.txt"
    );
}

#[test]
fn fig7_report_matches_checked_in_results() {
    let first = reports::fig7_report();
    assert!(
        first == FIG7_EXPECTED,
        "fig7 drifted from results/fig7.txt"
    );
    let second = reports::fig7_report();
    assert!(first == second, "fig7 not repeatable in-process");
}

#[test]
fn parallel_fig7_is_byte_identical_to_serial() {
    // Two workers on the twelve (protocol, design-point) sections: the
    // driver must reassemble them in submission order regardless of
    // which thread finishes first.
    let parallel = reports::fig7_report_parallel(2);
    assert!(
        parallel == FIG7_EXPECTED,
        "parallel fig7 drifted from results/fig7.txt"
    );
}

#[test]
fn fault_sweep_arms_far_more_timers_than_it_fires() {
    // Retransmit timers are armed for every reliable send but almost
    // every ACK lands first and cancels its timer — only genuinely
    // dropped packets let one fire. The cancellation-aware calendar is
    // what makes this cheap; the counters prove it is exercised.
    let pp = pingpong_verified(MP1, 64, 64, Some(reports::sweep_plan(0.01)));
    assert!(pp.data_ok, "workload lost data");
    let t = &pp.sim;
    assert!(
        t.timers_armed > 100,
        "expected a timer per reliable send, got {} armed",
        t.timers_armed
    );
    assert!(
        t.timers_cancelled > 0,
        "no timer was ever cancelled — ACKs are not disarming retransmits"
    );
    assert!(
        t.timers_fired * 10 <= t.timers_armed,
        "{} of {} timers fired; cancellation is not suppressing retransmits",
        t.timers_fired,
        t.timers_armed
    );
    assert!(
        t.timers_fired + t.timers_cancelled <= t.timers_armed,
        "timer accounting broken: {} fired + {} cancelled > {} armed",
        t.timers_fired,
        t.timers_cancelled,
        t.timers_armed
    );
}

#[test]
fn elided_polls_leave_application_runs_bit_identical() {
    // Recorded with one calendar event per empty poll: the event count
    // that loop ran, and its simulated time and answer to the bit. The
    // executor now skips the polls that could only miss, so the events
    // it runs plus the polls it elided must come to the same count. Each
    // path that wakes a polling process from another task is here: engine
    // deliveries and flag sets (all), shared-memory PUT and ENQ into a
    // co-located process (FFT, 4×2), interrupts that queue for a polling
    // process's processor (LU on SW1, 4×2), and retransmission and
    // poisoning under faults (Water).
    let cases = [
        (
            "LU on HW1",
            run_app_flat(AppId::Lu, HW1, 8, AppSize::Tiny),
            296_055,
            0x40a2_3d28_f5c2_8f5c_u64,
            0x40a0_3f7d_0000_0000_u64,
        ),
        (
            "Barnes-Hut on SW1",
            run_app_flat(AppId::Barnes, SW1, 8, AppSize::Tiny),
            823_963,
            0x40c8_6514_7ae1_47ae,
            0x40a9_e195_0000_0000,
        ),
        (
            "Wator on MP1",
            run_app_flat(AppId::Wator, MP1, 8, AppSize::Tiny),
            339_605,
            0x40aa_5a21_47ae_147b,
            0x408a_03e4_0000_0000,
        ),
        (
            "FFT on MP1, 4x2",
            run_app(AppId::Fft, MP1, 4, 2, AppSize::Tiny),
            209_242,
            0x4094_f22e_147a_e148,
            0x405c_0000_0000_0000,
        ),
        (
            "LU on SW1, 4x2",
            run_app(AppId::Lu, SW1, 4, 2, AppSize::Tiny),
            480_067,
            0x40b3_0039_5810_624e,
            0x40a0_3f7d_0000_0000,
        ),
        (
            "Water on MP1, faulty",
            run_app_faulty(
                AppId::Water,
                MP1,
                4,
                1,
                AppSize::Tiny,
                FaultPlan::new(4).drop(0.01).stall(1, 50.0, 400.0),
            ),
            113_736,
            0x40a1_884a_3d70_a3d7,
            0x405c_7b40_0000_0000,
        ),
    ];
    for (at, run, events, elapsed_us, checksum) in cases {
        assert!(run.sim.completed_cleanly(), "{at}");
        assert_eq!(
            run.sim.events + run.sim.polls_elided,
            events,
            "{at}: events"
        );
        assert!(run.sim.polls_elided > run.sim.events, "{at}: polls elided");
        assert_eq!(run.elapsed_us.to_bits(), elapsed_us, "{at}: elapsed");
        assert_eq!(run.checksum.to_bits(), checksum, "{at}: checksum");
    }
}
