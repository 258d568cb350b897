//! Report generators for the figure/table reproductions.
//!
//! The `fig7_pingpong` and `fault_sweep` binaries are thin wrappers
//! around these functions, which return the full report as a `String`
//! so that tests can assert byte-identity against the checked-in
//! `results/` files and the parallel sweep driver can compose reports
//! from independently computed sections.

use std::fmt::Write as _;

use mproxy::micro::{pingpong_put, pingpong_verified, VerifiedPingPong};
use mproxy::{FaultPlan, LinkSnapshot};
use mproxy_am::micro::pingpong_am_store;
use mproxy_apps::{run_app_flat, run_app_flat_faulty, AppId, AppRun, AppSize};
use mproxy_model::{DesignPoint, ALL_DESIGN_POINTS, MP1};

use crate::sweep::{run_parallel, Job};

/// Message sizes swept by the Figure 7 reproduction.
pub const FIG7_SIZES: [u32; 8] = [8, 32, 128, 512, 2048, 8192, 65536, 262144];

/// Round trips averaged per Figure 7 measurement.
pub const FIG7_REPS: u64 = 4;

/// The two ping-pong protocols of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig7Protocol {
    /// Remote PUT with a completion flag.
    Put,
    /// Active-message bulk store.
    AmStore,
}

impl Fig7Protocol {
    fn title(self) -> &'static str {
        match self {
            Fig7Protocol::Put => "PUT ping-pong",
            Fig7Protocol::AmStore => "AM store ping-pong",
        }
    }
}

fn fig7_header(proto: Fig7Protocol) -> String {
    format!(
        "# Figure 7: {}\n{:<8} {:>9} {:>13} {:>15}\n",
        proto.title(),
        "point",
        "bytes",
        "latency_us",
        "bandwidth_MB/s"
    )
}

/// One independent slice of the Figure 7 sweep: every message size for
/// one protocol at one design point. Sections are self-contained, so
/// the sweep driver can compute them on separate threads and the
/// concatenation is byte-identical to the serial report.
#[must_use]
pub fn fig7_section(proto: Fig7Protocol, design: DesignPoint) -> String {
    let mut s = String::new();
    match proto {
        Fig7Protocol::Put => {
            for pt in pingpong_put(design, &FIG7_SIZES, FIG7_REPS) {
                let _ = writeln!(
                    s,
                    "{:<8} {:>9} {:>13.2} {:>15.2}",
                    design.name, pt.bytes, pt.latency_us, pt.bandwidth_mbs
                );
            }
        }
        Fig7Protocol::AmStore => {
            for pt in pingpong_am_store(design, &FIG7_SIZES, FIG7_REPS) {
                let _ = writeln!(
                    s,
                    "{:<8} {:>9} {:>13.2} {:>15.2}",
                    design.name, pt.bytes, pt.latency_us, pt.bandwidth_mbs
                );
            }
        }
    }
    s
}

fn fig7_compose(sections: &[String]) -> String {
    let mut s = fig7_header(Fig7Protocol::Put);
    for sec in &sections[..ALL_DESIGN_POINTS.len()] {
        s.push_str(sec);
    }
    s.push('\n');
    s.push_str(&fig7_header(Fig7Protocol::AmStore));
    for sec in &sections[ALL_DESIGN_POINTS.len()..] {
        s.push_str(sec);
    }
    s
}

/// The full Figure 7 report (`results/fig7.txt`), computed serially.
#[must_use]
pub fn fig7_report() -> String {
    let mut sections = Vec::with_capacity(2 * ALL_DESIGN_POINTS.len());
    for proto in [Fig7Protocol::Put, Fig7Protocol::AmStore] {
        for d in ALL_DESIGN_POINTS {
            sections.push(fig7_section(proto, d));
        }
    }
    fig7_compose(&sections)
}

/// The full Figure 7 report computed by fanning the 12 independent
/// (protocol × design point) sections out across `threads` OS threads.
/// Byte-identical to [`fig7_report`].
#[must_use]
pub fn fig7_report_parallel(threads: usize) -> String {
    let mut jobs: Vec<Job> = Vec::with_capacity(2 * ALL_DESIGN_POINTS.len());
    for proto in [Fig7Protocol::Put, Fig7Protocol::AmStore] {
        for d in ALL_DESIGN_POINTS {
            jobs.push(Box::new(move || fig7_section(proto, d)));
        }
    }
    fig7_compose(&run_parallel(jobs, threads))
}

/// Seed for the fault-sweep plans (`results/fault_sweep.txt`).
pub const SWEEP_SEED: u64 = 1997;

/// Drop rates swept by the fault-sweep reproduction.
pub const SWEEP_DROP_RATES: [f64; 3] = [0.001, 0.01, 0.05];

/// A sweep plan at `drop` probability: duplicates at half the drop rate,
/// reorders at the drop rate, corrupts at a quarter of it.
#[must_use]
pub fn sweep_plan(drop: f64) -> FaultPlan {
    FaultPlan::new(SWEEP_SEED)
        .drop(drop)
        .duplicate(drop / 2.0)
        .reorder(drop, 30.0)
        .corrupt(drop / 4.0)
}

fn sweep_pp_row(s: &mut String, label: &str, r: &VerifiedPingPong) {
    let _ = writeln!(
        s,
        "{:<10} {:>8} {:>10.2} {:>8} {:>9} {:>8} {:>7} {:>7}",
        label,
        r.rounds,
        r.rt_us,
        if r.data_ok && r.error.is_none() {
            "yes"
        } else {
            "NO"
        },
        r.report.injected.packets,
        r.report.injected.dropped,
        r.report.link.retransmits,
        r.report.link.dups_discarded,
    );
}

fn sweep_app_row(s: &mut String, label: &str, r: &AppRun) {
    let _ = writeln!(
        s,
        "{:<10} {:>12.1} {:>14.6} {:>9} {:>8} {:>7} {:>7}",
        label,
        r.elapsed_us,
        r.checksum,
        r.faults.injected.packets,
        r.faults.injected.dropped,
        r.faults.link.retransmits,
        r.faults.link.unreachable,
    );
}

/// The full fault-sweep report (`results/fault_sweep.txt`): the MP1
/// verified ping-pong and the Sample application on increasingly lossy
/// networks.
///
/// # Panics
///
/// Panics if any faulty run produces a different checksum than the
/// fault-free one — the reliable link layer must hide faults.
#[must_use]
pub fn fault_sweep_report() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# Fault sweep on MP1 (seed {SWEEP_SEED})");
    let _ = writeln!(s, "# dup = drop/2, reorder = drop (30us), corrupt = drop/4\n");

    let _ = writeln!(s, "## Verified PUT ping-pong, 64 B x 64 reps");
    let _ = writeln!(
        s,
        "{:<10} {:>8} {:>10} {:>8} {:>9} {:>8} {:>7} {:>7}",
        "drop_rate", "rounds", "rt_us", "ok", "injected", "dropped", "retx", "dups"
    );
    let base = pingpong_verified(MP1, 64, 64, None);
    sweep_pp_row(&mut s, "none", &base);
    let benign = pingpong_verified(MP1, 64, 64, Some(FaultPlan::new(SWEEP_SEED)));
    sweep_pp_row(&mut s, "0 (rel.)", &benign);
    for &rate in &SWEEP_DROP_RATES {
        let r = pingpong_verified(MP1, 64, 64, Some(sweep_plan(rate)));
        sweep_pp_row(&mut s, &format!("{rate}"), &r);
    }

    let _ = writeln!(s, "\n## Sample application (Tiny, 2 procs)");
    let _ = writeln!(
        s,
        "{:<10} {:>12} {:>14} {:>9} {:>8} {:>7} {:>7}",
        "drop_rate", "elapsed_us", "checksum", "injected", "dropped", "retx", "unreach"
    );
    let base = run_app_flat(AppId::Sample, MP1, 2, AppSize::Tiny);
    sweep_app_row(&mut s, "none", &base);
    let benign = run_app_flat_faulty(
        AppId::Sample,
        MP1,
        2,
        AppSize::Tiny,
        FaultPlan::new(SWEEP_SEED),
    );
    sweep_app_row(&mut s, "0 (rel.)", &benign);
    assert_eq!(base.checksum, benign.checksum);
    for &rate in &SWEEP_DROP_RATES {
        let r = run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, sweep_plan(rate));
        assert_eq!(base.checksum, r.checksum, "faults must never change answers");
        sweep_app_row(&mut s, &format!("{rate}"), &r);
    }
    let _ = writeln!(s, "\n# all checksums identical to the fault-free run");
    s
}

// ---------------------------------------------------------------------
// Crash-recovery sweep (`results/crash_sweep.txt`)

/// Drop rate active during the crash-recovery sweep.
pub const CRASH_DROP: f64 = 0.01;

/// Node whose proxy crashes in the sweep.
pub const CRASH_NODE: usize = 1;

/// Downtime between crash and restart, µs (well inside the senders'
/// retransmission budget, so survivors keep retrying across the outage).
pub const CRASH_DOWNTIME_US: f64 = 250.0;

/// Crash instant for the ping-pong recovery row: node 1 is caught
/// between rounds, with no un-ACKed work of its own, so the epoch
/// handshake restores the connection and all 64 rounds complete.
pub const PP_CRASH_AT_US: f64 = 120.0;

/// Crash instant for the ping-pong fail-stop row: node 1 is caught with
/// its reply still un-ACKed, so recovery is impossible and the owner is
/// failed with `EpochReset` instead of risking silent duplication.
pub const PP_MIDFLIGHT_AT_US: f64 = 152.0;

/// Crash instant for the Sample-application row (inside a compute
/// phase; the run completes with the fault-free checksum).
pub const APP_CRASH_AT_US: f64 = 600.0;

/// The standard sweep fault mix plus a crash window.
#[must_use]
pub fn crash_sweep_plan(drop: f64, node: usize, at_us: f64, downtime_us: f64) -> FaultPlan {
    sweep_plan(drop).crash(node, at_us, downtime_us)
}

/// Compact rendering of the per-node link snapshots: node, epoch, then
/// per-peer `peer:last_sent/next_expected`.
fn epoch_digest(epochs: &[LinkSnapshot]) -> String {
    let mut s = String::new();
    for (node, (epoch, peers)) in epochs.iter().enumerate() {
        if node > 0 {
            s.push(' ');
        }
        let _ = write!(s, "n{node}:e{epoch}[");
        for (i, (peer, last, expected)) in peers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{peer}:{last}/{expected}");
        }
        s.push(']');
    }
    s
}

fn crash_pp_row(s: &mut String, label: &str, r: &VerifiedPingPong) {
    let outcome = match &r.error {
        None if r.data_ok => "ok",
        None => "corrupt",
        Some(mproxy::CommError::EpochReset { .. }) => "EpochReset",
        Some(mproxy::CommError::Unreachable { .. }) => "Unreachable",
        Some(_) => "error",
    };
    let _ = writeln!(
        s,
        "{:<15} {:>6} {:>11} {:>5} {:>6} {:>6} {:>7} {:>8}  {}",
        label,
        r.rounds,
        outcome,
        r.report.link.retransmits,
        r.report.link.replayed,
        r.report.link.hellos_sent,
        r.report.link.epoch_resyncs,
        r.report.link.stale_discarded,
        epoch_digest(&r.epochs),
    );
}

/// Crash-recovery sweep, ping-pong section: one recovery row (run twice
/// and asserted byte-identical — crash recovery must be deterministic)
/// and one fail-stop row where the crash eats un-ACKed work.
///
/// # Panics
///
/// Panics if the recovery run loses or duplicates data, if its repeat
/// differs in any observable (delivery order, epochs, statistics), or if
/// the fail-stop run does not surface `EpochReset`.
#[must_use]
pub fn crash_pp_section() -> String {
    let mut s = String::new();
    let base = pingpong_verified(MP1, 64, 64, Some(sweep_plan(CRASH_DROP)));
    crash_pp_row(&mut s, "no-crash", &base);

    let plan = || crash_sweep_plan(CRASH_DROP, CRASH_NODE, PP_CRASH_AT_US, CRASH_DOWNTIME_US);
    let crash = pingpong_verified(MP1, 64, 64, Some(plan()));
    assert!(
        crash.rounds == base.rounds && crash.data_ok && crash.error.is_none(),
        "mid-run proxy crash lost data: {crash:?}"
    );
    assert!(
        crash.report.link.epoch_resyncs >= 1,
        "crash run never resynced an epoch"
    );
    crash_pp_row(&mut s, &format!("crash@{PP_CRASH_AT_US}"), &crash);

    let again = pingpong_verified(MP1, 64, 64, Some(plan()));
    let mut repeat = String::new();
    crash_pp_row(&mut repeat, &format!("crash@{PP_CRASH_AT_US}"), &again);
    let mut first = String::new();
    crash_pp_row(&mut first, &format!("crash@{PP_CRASH_AT_US}"), &crash);
    assert_eq!(
        first,
        repeat,
        "crash recovery must be deterministic run-to-run"
    );
    assert!(
        (crash.rt_us - again.rt_us).abs() < f64::EPSILON,
        "crash recovery timing diverged between identical runs"
    );

    let failstop = pingpong_verified(
        MP1,
        64,
        64,
        Some(crash_sweep_plan(
            CRASH_DROP,
            CRASH_NODE,
            PP_MIDFLIGHT_AT_US,
            CRASH_DOWNTIME_US,
        )),
    );
    assert!(
        matches!(failstop.error, Some(mproxy::CommError::EpochReset { .. })),
        "mid-flight crash must surface EpochReset, got {:?}",
        failstop.error
    );
    crash_pp_row(&mut s, &format!("midflight@{PP_MIDFLIGHT_AT_US}"), &failstop);
    s
}

fn crash_app_row(s: &mut String, label: &str, r: &AppRun) {
    let _ = writeln!(
        s,
        "{:<15} {:>12.1} {:>14.6} {:>5} {:>6} {:>6} {:>7}",
        label,
        r.elapsed_us,
        r.checksum,
        r.faults.link.retransmits,
        r.faults.link.replayed,
        r.faults.link.hellos_sent,
        r.faults.link.epoch_resyncs,
    );
}

/// Crash-recovery sweep, application section: the Sample app completes
/// with the fault-free checksum despite a mid-run proxy crash, twice,
/// identically.
///
/// # Panics
///
/// Panics if the crashed run changes the answer or the repeat run
/// diverges.
#[must_use]
pub fn crash_app_section() -> String {
    let mut s = String::new();
    let base = run_app_flat_faulty(
        AppId::Sample,
        MP1,
        2,
        AppSize::Tiny,
        sweep_plan(CRASH_DROP),
    );
    crash_app_row(&mut s, "no-crash", &base);
    let plan = || crash_sweep_plan(CRASH_DROP, CRASH_NODE, APP_CRASH_AT_US, CRASH_DOWNTIME_US);
    let crash = run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, plan());
    assert_eq!(
        base.checksum, crash.checksum,
        "proxy crash changed the application answer"
    );
    assert!(
        crash.faults.link.epoch_resyncs >= 1,
        "app crash run never resynced an epoch"
    );
    crash_app_row(&mut s, &format!("crash@{APP_CRASH_AT_US}"), &crash);
    let again = run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, plan());
    assert!(
        again.checksum == crash.checksum
            && (again.elapsed_us - crash.elapsed_us).abs() < f64::EPSILON
            && again.faults == crash.faults,
        "app crash recovery must be deterministic run-to-run"
    );
    s
}

fn crash_compose(sections: &[String]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Crash-recovery sweep on MP1 (seed {SWEEP_SEED}, drop {CRASH_DROP})"
    );
    let _ = writeln!(
        s,
        "# crash: node {CRASH_NODE}'s proxy dies (volatile link state lost), restarts \
         {CRASH_DOWNTIME_US}us later\n"
    );
    let _ = writeln!(s, "## Verified PUT ping-pong, 64 B x 64 reps");
    let _ = writeln!(
        s,
        "{:<15} {:>6} {:>11} {:>5} {:>6} {:>6} {:>7} {:>8}  epochs",
        "label", "rounds", "outcome", "retx", "replay", "hello", "resync", "stale"
    );
    s.push_str(&sections[0]);
    let _ = writeln!(s, "\n## Sample application (Tiny, 2 procs)");
    let _ = writeln!(
        s,
        "{:<15} {:>12} {:>14} {:>5} {:>6} {:>6} {:>7}",
        "label", "elapsed_us", "checksum", "retx", "replay", "hello", "resync"
    );
    s.push_str(&sections[1]);
    let _ = writeln!(
        s,
        "\n# recovery rows re-ran byte-identically; checksums match the crash-free run"
    );
    s
}

/// The full crash-recovery report (`results/crash_sweep.txt`), computed
/// serially.
#[must_use]
pub fn crash_sweep_report() -> String {
    crash_compose(&[crash_pp_section(), crash_app_section()])
}

/// The crash-recovery report with its two sections computed on separate
/// OS threads. Byte-identical to [`crash_sweep_report`].
#[must_use]
pub fn crash_sweep_report_parallel(threads: usize) -> String {
    let jobs: Vec<Job> = vec![
        Box::new(crash_pp_section),
        Box::new(crash_app_section),
    ];
    crash_compose(&run_parallel(jobs, threads))
}
