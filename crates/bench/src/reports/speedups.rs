//! The application reports: Figure 8's speedups, Table 6's traffic,
//! Figure 9's contention, the §5.4 analysis and the §4.1 ablation, all
//! on the `Small` inputs.

use std::fmt::Write as _;

use mproxy::micro::run_micro;
use mproxy_apps::{run_app, run_app_flat, AppId, AppSize};
use mproxy_model::contention::{
    max_supported_procs, mm1_wait_us, ProxyTradeoff, STABLE_UTILIZATION,
};
use mproxy_model::{DesignPoint, ALL_DESIGN_POINTS, HW1, MP1, MP2, SW1};

use super::Sliced;

/// Processor counts of Figure 8.
const FIG8_PROCS: [usize; 5] = [1, 2, 4, 8, 16];

/// The five communication-intensive applications of Figure 9 and of
/// §5.4's compute-or-communicate rule.
const COMM_APPS: [AppId; 5] = [
    AppId::Lu,
    AppId::Barnes,
    AppId::Water,
    AppId::Sample,
    AppId::Wator,
];

/// The time of `app` on one HW1 processor, the baseline of every speedup.
fn t1_us(app: AppId) -> f64 {
    run_app_flat(app, HW1, 1, AppSize::Small).elapsed_us
}

/// Figure 8 (`results/fig8.txt`): self-relative speedups of the ten
/// applications on 1–16 processors (one compute processor per node) at
/// all six design points, relative to one HW1 processor as the paper
/// plots them. Each block is headed by the application's name and
/// programming style (Table 5).
pub const FIG8: Sliced = Sliced {
    head: String::new,
    apps: &AppId::ALL,
    slice: fig8_block,
    tail: String::new,
};

/// [`FIG8`]'s text.
#[must_use]
pub fn fig8() -> String {
    FIG8.render()
}

fn fig8_block(app: AppId) -> String {
    let t1 = t1_us(app);
    let mut s = format!(
        "\n{} ({}), T(1) on HW1 = {t1:.0} us — speedups:\n\
         procs      HW0     HW1     MP0     MP1     MP2     SW1\n",
        app.name(),
        app.style(),
    );
    for procs in FIG8_PROCS {
        let _ = write!(s, "{procs:<6}");
        for d in ALL_DESIGN_POINTS {
            let t = run_app_flat(app, d, procs, AppSize::Small).elapsed_us;
            let _ = write!(s, " {:>7.2}", t1 / t);
        }
        s.push('\n');
    }
    s
}

/// Table 6 (`results/table6.txt`): average application message sizes,
/// per-processor message rates, and communication-interface utilisation
/// on 16 processors, for HW1 (adapter logic) and MP1 (message proxy),
/// with SW1's rate beside them.
pub const TABLE6: Sliced = Sliced {
    head: || {
        let rule = "-".repeat(100);
        format!(
            "app           bytes | HW1 op/ms HW1 util%          | MP1 op/ms MP1 util%          \
             | SW1 op/ms\n{rule}\n"
        )
    },
    apps: &AppId::ALL,
    slice: table6_row,
    tail: || {
        "\npaper reference points: Moldy 6456 B @ 0.43 op/ms (2.0%/4.1%),\n\
         P-Ray 29 B @ 0.88 op/ms (1.9%), Wator 40 B @ 19.0/14.5 op/ms (5.5%/25.7%)\n"
            .to_string()
    },
};

/// [`TABLE6`]'s text.
#[must_use]
pub fn table6() -> String {
    TABLE6.render()
}

fn table6_row(app: AppId) -> String {
    let hw = run_app_flat(app, HW1, 16, AppSize::Small);
    let mp = run_app_flat(app, MP1, 16, AppSize::Small);
    let sw = run_app_flat(app, SW1, 16, AppSize::Small);
    format!(
        "{:<12} {:>6.0} | {:>9.2} {:>9.1}          | {:>9.2} {:>9.1}          | {:>9.2}\n",
        app.name(),
        mp.traffic.avg_msg_bytes,
        hw.traffic.msg_rate_per_ms,
        hw.traffic.interface_utilization * 100.0,
        mp.traffic.msg_rate_per_ms,
        mp.traffic.interface_utilization * 100.0,
        sw.traffic.msg_rate_per_ms,
    )
}

/// Figure 9 (`results/fig9.txt`): speedups of the five
/// communication-intensive applications on 4 SMP nodes with 4 compute
/// processors each, where one message proxy per node serves four
/// processors (§5.4's contention regime), beside the flat 16-node MP1
/// run of Figure 8.
pub const FIG9: Sliced = Sliced {
    head: || {
        "4 SMP nodes x 4 compute processors (16 total); speedup vs T(1) on HW1\n\n\
         app              HW0     HW1     MP0     MP1     MP2     SW1  | flat-16 MP1\n"
            .to_string()
    },
    apps: &COMM_APPS,
    slice: fig9_row,
    tail: || {
        "\nExpected shape: the HW1-MP1 gap widens vs Figure 8 (proxy serves 4\n\
         procs), intra-node traffic cushions the loss, and MP2 recovers it.\n"
            .to_string()
    },
};

/// [`FIG9`]'s text.
#[must_use]
pub fn fig9() -> String {
    FIG9.render()
}

fn fig9_row(app: AppId) -> String {
    let t1 = t1_us(app);
    let mut s = format!("{:<12}", app.name());
    let mut mp1_util = 0.0;
    for d in ALL_DESIGN_POINTS {
        let r = run_app(app, d, 4, 4, AppSize::Small);
        if d.name == "MP1" {
            mp1_util = r.traffic.interface_utilization;
        }
        let _ = write!(s, " {:>7.2}", t1 / r.elapsed_us);
    }
    let flat = t1 / run_app_flat(app, MP1, 16, AppSize::Small).elapsed_us;
    let util = mp1_util * 100.0;
    let _ = writeln!(s, "  | {flat:>7.2}   (MP1 proxy util {util:.0}%)");
    s
}

/// The §5.4 analysis (`results/sec54.txt`): how many compute processors
/// one message proxy supports (stability requires utilisation < 50 %),
/// from the per-processor proxy load measured on MP1; the M/M/1 delay
/// curve; and the P/(P−1) compute-or-communicate rule.
#[must_use]
pub fn sec54() -> String {
    let rule = "-".repeat(52);
    let mut s = format!(
        "Per-proxy load measured at 16 procs (1/node) on MP1:\n\
         app          util/proc%    max procs   stable at 4?\n{rule}\n"
    );
    for app in AppId::ALL {
        // One proxy per node serves exactly one compute processor here, so
        // the measured utilisation is the per-processor load.
        let per_proc = run_app_flat(app, MP1, 16, AppSize::Small)
            .traffic
            .interface_utilization;
        let max = match max_supported_procs(per_proc) {
            n if n > 64 => ">64".to_string(),
            n => n.to_string(),
        };
        let stable = if per_proc * 4.0 < STABLE_UTILIZATION {
            "yes"
        } else {
            "no"
        };
        let _ = writeln!(
            s,
            "{:<12} {:>10.1} {max:>12} {stable:>14}",
            app.name(),
            per_proc * 100.0
        );
    }
    s.push_str("\nM/M/1 queueing delay at a proxy with 15 us service time:\n");
    for rho in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let wait = mm1_wait_us(15.0, rho);
        let _ = writeln!(s, "  rho = {rho:.1}: extra wait {wait:>7.1} us");
    }
    s.push_str("\nCompute-or-communicate (5-processor nodes, break-even P/(P-1) = 1.25):\n");
    for app in COMM_APPS {
        // MP2 with 4 compute procs (1 dedicated to the proxy) vs SW1 with
        // all 5 computing — approximated by 4x4 vs 4x4 runs at equal node
        // count (the paper's Figure 9 discussion).
        let mp = run_app(app, MP2, 4, 4, AppSize::Small).elapsed_us;
        let sw = run_app(app, SW1, 4, 4, AppSize::Small).elapsed_us * 4.0 / 5.0;
        let wins = ProxyTradeoff {
            smp_procs: 5,
            syscall_time: sw,
            proxy_time: mp,
        }
        .proxy_wins();
        let _ = writeln!(
            s,
            "  {:<12} MP2 {mp:>9.0} us vs SW1(5 procs est.) {sw:>9.0} us -> use proxy: {wins}",
            app.name()
        );
    }
    s
}

/// MP1 with any of the §4.1 optimisation proposals applied:
///
/// * **64-bit address spaces** — "a 64-bit implementation of the PowerPC
///   architecture can avoid this overhead by permanently attaching to the
///   address spaces of all communicating user processes": V = 0.
/// * **Bit-vector polling** — "the communicating processes and the
///   message proxy can cooperatively maintain a shared bit vector ... the
///   message proxy can detect the state of a number of command queues in
///   a single probe": the scan cost collapses to one probe
///   (`poll_instr` → 0.2 µs, one miss).
/// * **Cache update** (= the paper's MP2): C' = 0.25 µs.
fn ablation_variant(v64: bool, bitvec: bool, update: bool) -> DesignPoint {
    let mut d = DesignPoint {
        name: "ablate",
        ..MP1
    };
    if v64 {
        d.machine.vm_att_us = 0.0001;
    }
    if bitvec {
        d.machine.poll_instr_us = 0.2;
        d.machine.poll_miss_factor = 1.0;
    }
    if update {
        d.shared_miss_us = 0.25;
    }
    d
}

/// The ablation study (`results/ablation.txt`): one-word GET latency and
/// a communication-intensive application's time for every combination of
/// the §4.1 optimisation proposals on MP1.
#[must_use]
pub fn ablation() -> String {
    let rule = "-".repeat(64);
    let mut s =
        format!("variant (on MP1)                GET us    Sample us      vs base\n{rule}\n");
    let base = run_app_flat(AppId::Sample, MP1, 8, AppSize::Small).elapsed_us;
    for (label, v64, bv, cu) in [
        ("baseline (MP1)", false, false, false),
        ("+64-bit (V=0)", true, false, false),
        ("+bit-vector poll", false, true, false),
        ("+cache update (MP2)", false, false, true),
        ("64-bit + bit-vector", true, true, false),
        ("all three", true, true, true),
    ] {
        let d = ablation_variant(v64, bv, cu);
        let get = run_micro(d).get_us;
        let t = run_app_flat(AppId::Sample, d, 8, AppSize::Small).elapsed_us;
        let vs_base = 100.0 * (t - base) / base;
        let _ = writeln!(s, "{label:<28} {get:>9.2} {t:>12.0} {vs_base:>11.1}%");
    }
    s
}
