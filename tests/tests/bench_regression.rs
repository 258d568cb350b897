//! Regression gates for the benchmark reports and the simulator's
//! timer machinery.
//!
//! The checked-in `results/*.txt` files are the ground truth for the
//! paper reproduction: every report in `reports::ALL` must come back byte
//! for byte. One test per report compares it with its file; the reports
//! too slow in a debug build for one test (`reports::Sliced`) get one
//! test per application, each against its slice of the file. Cargo runs
//! these tests on parallel threads, so they also show that simulations
//! running side by side share no state.

use std::fs;
use std::path::{Path, PathBuf};

use mproxy::micro::pingpong_verified;
use mproxy_apps::AppId;
use mproxy_bench::reports::{self, Sliced};
use mproxy_model::MP1;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results")
}

fn checked_in(name: &str) -> String {
    let path = results_dir().join(format!("{name}.txt"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts that `got` is `results/<name>.txt` byte for byte.
fn check(name: &str, got: &str) {
    assert!(
        got == checked_in(name),
        "{name} drifted from results/{name}.txt"
    );
}

/// Asserts that `app`'s slice of `report` is its lines of
/// `results/<name>.txt`, and that the file is the report's head, one slice
/// of that many lines per application, and its tail.
fn check_slice(name: &str, report: &Sliced, app: AppId) {
    let file = checked_in(name);
    let lines: Vec<&str> = file.split_inclusive('\n').collect();
    let (head, tail) = ((report.head)(), (report.tail)());
    assert!(file.starts_with(&head), "{name}: head drifted");
    assert!(file.ends_with(&tail), "{name}: tail drifted");
    let got = (report.slice)(app);
    let count = |s: &str| s.split_inclusive('\n').count();
    let (h, k) = (count(&head), count(&got));
    assert_eq!(
        lines.len(),
        h + report.apps.len() * k + count(&tail),
        "{name}: not one {k}-line slice per application"
    );
    let i = report
        .apps
        .iter()
        .position(|&a| a == app)
        .expect("app has a slice");
    assert!(
        lines[h + i * k..h + (i + 1) * k].concat() == got,
        "{name}: {}'s slice drifted",
        app.name()
    );
}

#[test]
fn every_report_has_a_file_and_every_file_a_report() {
    let mut files: Vec<String> = fs::read_dir(results_dir())
        .expect("results/ is readable")
        .map(|e| {
            e.expect("results/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    files.sort();
    let mut names: Vec<String> = reports::ALL
        .iter()
        .map(|(n, _)| format!("{n}.txt"))
        .collect();
    names.sort();
    assert_eq!(
        names, files,
        "reports::ALL and results/ list different reports"
    );
}

#[test]
fn table2_report_matches_checked_in_results() {
    check("table2", &reports::table2());
}

#[test]
fn table3_report_matches_checked_in_results() {
    check("table3", &reports::table3());
}

#[test]
fn table4_report_matches_checked_in_results() {
    check("table4", &reports::table4());
}

#[test]
fn fig7_report_matches_checked_in_results() {
    let first = reports::fig7();
    check("fig7", &first);
    assert!(first == reports::fig7(), "fig7 not repeatable in-process");
}

#[test]
fn sec54_report_matches_checked_in_results() {
    check("sec54", &reports::sec54());
}

#[test]
fn overload_report_matches_checked_in_results() {
    // The report fails on its own if the stable points stray from the
    // M/M/1 curve, a queue outgrows its credit bound, or the most loaded
    // point waits no longer than the least.
    check("overload", &mproxy_bench::overload::report());
}

#[test]
fn ablation_report_matches_checked_in_results() {
    check("ablation", &reports::ablation());
}

#[test]
fn fault_sweep_report_matches_checked_in_results() {
    let first = reports::fault_sweep();
    check("fault_sweep", &first);
    assert!(
        first == reports::fault_sweep(),
        "fault sweep not repeatable in-process"
    );
}

#[test]
fn crash_sweep_report_matches_checked_in_results() {
    // The report itself asserts exactly-once recovery through every crash
    // and run-to-run determinism; the byte comparison pins sequence
    // watermarks and recovery statistics across engine changes.
    let first = reports::crash_sweep();
    check("crash_sweep", &first);
    assert!(
        first == reports::crash_sweep(),
        "crash sweep not repeatable in-process"
    );
}

/// One test per application of a [`Sliced`] report.
macro_rules! slice_tests {
    ($name:literal, $report:ident: $($test:ident => $app:ident),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check_slice($name, &reports::$report, AppId::$app);
            }
        )*
    };
}

slice_tests!("fig8", FIG8:
    fig8_moldy => Moldy, fig8_lu => Lu, fig8_barnes => Barnes, fig8_water => Water,
    fig8_mm => Mm, fig8_fft => Fft, fig8_sample => Sample, fig8_sampleb => Sampleb,
    fig8_pray => PRay, fig8_wator => Wator,
);

slice_tests!("table6", TABLE6:
    table6_moldy => Moldy, table6_lu => Lu, table6_barnes => Barnes, table6_water => Water,
    table6_mm => Mm, table6_fft => Fft, table6_sample => Sample, table6_sampleb => Sampleb,
    table6_pray => PRay, table6_wator => Wator,
);

slice_tests!("fig9", FIG9:
    fig9_lu => Lu, fig9_barnes => Barnes, fig9_water => Water, fig9_sample => Sample,
    fig9_wator => Wator,
);

// The identity matrix. Its rows include the six runs once pinned here
// one by one, each a path that wakes a polling process from another
// task: engine deliveries and flag sets (LU on HW1, Barnes-Hut on SW1,
// Wator on MP1, all 8x1), shared-memory PUT and ENQ into a co-located
// process (FFT on MP1, 4x2), interrupts that queue for a polling
// process's processor (LU on SW1, 4x2), and retransmission and poisoning
// under faults (Water on MP1, 4x1, under the stall plan). The report
// asserts that every run completes cleanly and elides more polls than it
// runs events.
slice_tests!("apps", APPS:
    apps_moldy => Moldy, apps_lu => Lu, apps_barnes => Barnes, apps_water => Water,
    apps_mm => Mm, apps_fft => Fft, apps_sample => Sample, apps_sampleb => Sampleb,
    apps_pray => PRay, apps_wator => Wator,
);

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
