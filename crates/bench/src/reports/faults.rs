//! The reliable link layer under faults: the fault sweep (loss,
//! duplication, reordering, corruption) and the crash-recovery sweep, on
//! the MP1 verified ping-pong and the Sample application.

use std::fmt::Write as _;

use mproxy::micro::{pingpong_verified, VerifiedPingPong};
use mproxy::{CommError, FaultPlan, LinkSnapshot};
use mproxy_apps::{run_app_flat, run_app_flat_faulty, AppId, AppRun, AppSize};
use mproxy_model::MP1;

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

/// The fault sweep's plans after the fault-free run: the reliable link
/// layer on a perfect network, then each of [`SWEEP_DROP_RATES`].
fn sweep_plans() -> Vec<(String, FaultPlan)> {
    let rates = SWEEP_DROP_RATES.map(|rate| (format!("{rate}"), sweep_plan(rate)));
    let mut plans = vec![("0 (rel.)".to_string(), FaultPlan::new(SWEEP_SEED))];
    plans.extend(rates);
    plans
}

fn sweep_pp_row(s: &mut String, label: &str, r: &VerifiedPingPong) {
    let ok = if r.data_ok && r.error.is_none() {
        "yes"
    } else {
        "NO"
    };
    let (i, l) = (&r.report.injected, &r.report.link);
    let _ = writeln!(
        s,
        "{label:<10} {:>8} {:>10.2} {ok:>8} {:>9} {:>8} {:>7} {:>7}",
        r.rounds, r.rt_us, i.packets, i.dropped, l.retransmits, l.dups_discarded,
    );
}

fn sweep_app_row(s: &mut String, label: &str, r: &AppRun) {
    let (i, l) = (&r.faults.injected, &r.faults.link);
    let _ = writeln!(
        s,
        "{label:<10} {:>12.1} {:>14.6} {:>9} {:>8} {:>7} {:>7}",
        r.elapsed_us, r.checksum, i.packets, i.dropped, l.retransmits, l.unreachable,
    );
}

/// The fault-sweep report (`results/fault_sweep.txt`): the MP1 verified
/// ping-pong and the Sample application on increasingly lossy networks.
///
/// # Panics
///
/// Panics if any faulty run produces a different checksum than the
/// fault-free one — the reliable link layer must hide faults.
#[must_use]
pub fn fault_sweep() -> String {
    let mut s = format!(
        "# Fault sweep on MP1 (seed {SWEEP_SEED})\n\
         # dup = drop/2, reorder = drop (30us), corrupt = drop/4\n\n\
         ## Verified PUT ping-pong, 64 B x 64 reps\n\
         drop_rate    rounds      rt_us       ok  injected  dropped    retx    dups\n"
    );
    sweep_pp_row(&mut s, "none", &pingpong_verified(MP1, 64, 64, None));
    for (label, plan) in sweep_plans() {
        sweep_pp_row(&mut s, &label, &pingpong_verified(MP1, 64, 64, Some(plan)));
    }
    s.push_str(
        "\n## Sample application (Tiny, 2 procs)\n\
         drop_rate    elapsed_us       checksum  injected  dropped    retx unreach\n",
    );
    let base = run_app_flat(AppId::Sample, MP1, 2, AppSize::Tiny);
    sweep_app_row(&mut s, "none", &base);
    for (label, plan) in sweep_plans() {
        let r = run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, plan);
        assert_eq!(
            base.checksum, r.checksum,
            "faults must never change answers"
        );
        sweep_app_row(&mut s, &label, &r);
    }
    s.push_str("\n# all checksums identical to the fault-free run\n");
    s
}

// ---------------------------------------------------------------------
// Crash-recovery sweep (`results/crash_sweep.txt`)

/// Drop rate active during the crash-recovery sweep.
pub const CRASH_DROP: f64 = 0.01;

/// Node whose proxy crashes in the sweep.
pub const CRASH_NODE: usize = 1;

/// Downtime between crash and restart, µs (well inside the senders'
/// retransmission budget, so peers keep retrying across the pause).
pub const CRASH_DOWNTIME_US: f64 = 250.0;

/// Crash instant for the ping-pong row that catches node 1 between
/// rounds, with no packet queued in its input.
pub const PP_CRASH_AT_US: f64 = 120.0;

/// Crash instant for the ping-pong row that catches node 1 mid-flight,
/// with its reply un-ACKed: its retention survives the pause, and all 64
/// rounds complete. (No instant of this ping-pong finds a packet queued
/// behind a busy agent, so no ping-pong crash discards one.)
pub const PP_MIDFLIGHT_AT_US: f64 = 152.0;

/// Crash instant for the Sample-application row: inside the key
/// exchange, where packets wait in node 1's input and the crash discards
/// them; the run completes with the fault-free checksum.
pub const APP_CRASH_AT_US: f64 = 1200.0;

/// The standard sweep fault mix plus a crash window.
#[must_use]
pub fn crash_sweep_plan(drop: f64, node: usize, at_us: f64, downtime_us: f64) -> FaultPlan {
    sweep_plan(drop).crash(node, at_us, downtime_us)
}

/// Compact rendering of the per-node link snapshots: per node, per-peer
/// `peer:last_sent/next_expected`.
fn link_digest(links: &[LinkSnapshot]) -> String {
    let nodes = links.iter().enumerate().map(|(node, peers)| {
        let peers: Vec<String> = peers
            .iter()
            .map(|(peer, last, expected)| format!("{peer}:{last}/{expected}"))
            .collect();
        format!("n{node}[{}]", peers.join(","))
    });
    nodes.collect::<Vec<_>>().join(" ")
}

fn crash_pp_row(label: &str, r: &VerifiedPingPong) -> String {
    let outcome = match &r.error {
        None if r.data_ok => "ok",
        None => "corrupt",
        Some(CommError::Unreachable { .. }) => "Unreachable",
        Some(_) => "error",
    };
    let l = &r.report.link;
    format!(
        "{label:<15} {:>6} {outcome:>11} {:>5} {:>6}  {}\n",
        r.rounds,
        l.retransmits,
        l.crash_dropped,
        link_digest(&r.links),
    )
}

fn crash_app_row(label: &str, r: &AppRun) -> String {
    let l = &r.faults.link;
    format!(
        "{label:<15} {:>12.1} {:>14.6} {:>5} {:>6}\n",
        r.elapsed_us, r.checksum, l.retransmits, l.crash_dropped,
    )
}

/// The crash-recovery sweep (`results/crash_sweep.txt`): the MP1
/// verified ping-pong and the Sample application with a mid-run proxy
/// crash on a lossy network. A crash pauses the node's agent and drops
/// the packets queued in its input; every message must still arrive
/// exactly once, and each crash case runs twice and must come back
/// identical.
///
/// # Panics
///
/// Panics if a crash run loses or duplicates data, fails a process or
/// changes the application's answer, or if a repeat differs in any
/// observable (delivery order, timing, statistics, link tables).
#[must_use]
pub fn crash_sweep() -> String {
    let crash_at = |at_us| crash_sweep_plan(CRASH_DROP, CRASH_NODE, at_us, CRASH_DOWNTIME_US);
    let mut s = format!(
        "# Crash-recovery sweep on MP1 (seed {SWEEP_SEED}, drop {CRASH_DROP})\n\
         # crash: node {CRASH_NODE}'s proxy pauses for {CRASH_DOWNTIME_US}us and loses \
         the packets queued in its input (cdrop)\n\n\
         ## Verified PUT ping-pong, 64 B x 64 reps\n\
         label           rounds     outcome  retx  cdrop  links\n"
    );

    let base = pingpong_verified(MP1, 64, 64, Some(sweep_plan(CRASH_DROP)));
    s.push_str(&crash_pp_row("no-crash", &base));
    for (name, at_us) in [("crash", PP_CRASH_AT_US), ("midflight", PP_MIDFLIGHT_AT_US)] {
        let label = format!("{name}@{at_us}");
        let crash = pingpong_verified(MP1, 64, 64, Some(crash_at(at_us)));
        assert!(
            crash.rounds == base.rounds && crash.data_ok && crash.error.is_none(),
            "{label}: proxy crash lost data: {crash:?}"
        );
        let again = pingpong_verified(MP1, 64, 64, Some(crash_at(at_us)));
        assert!(
            crash_pp_row(&label, &crash) == crash_pp_row(&label, &again)
                && crash.rt_us.to_bits() == again.rt_us.to_bits(),
            "{label}: crash recovery must be deterministic run-to-run"
        );
        s.push_str(&crash_pp_row(&label, &crash));
    }

    // The Sample app completes with the crash-free checksum despite a
    // mid-run proxy crash, twice, identically.
    s.push_str(
        "\n## Sample application (Tiny, 2 procs)\n\
         label             elapsed_us       checksum  retx  cdrop\n",
    );
    let sample = |plan| run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, plan);
    let base = sample(sweep_plan(CRASH_DROP));
    s.push_str(&crash_app_row("no-crash", &base));
    let crash = sample(crash_at(APP_CRASH_AT_US));
    assert_eq!(
        base.checksum, crash.checksum,
        "proxy crash changed the application answer"
    );
    s.push_str(&crash_app_row(&format!("crash@{APP_CRASH_AT_US}"), &crash));
    let again = sample(crash_at(APP_CRASH_AT_US));
    assert!(
        again.checksum == crash.checksum
            && again.elapsed_us.to_bits() == crash.elapsed_us.to_bits()
            && again.faults == crash.faults,
        "app crash recovery must be deterministic run-to-run"
    );
    s.push_str("\n# crash rows re-ran byte-identically; checksums match the crash-free run\n");
    s
}
