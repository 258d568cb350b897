//! The application identity matrix (`results/apps.txt`): every
//! application over the design points, shapes, sizes and fault plans,
//! one line per run, each number to the bit. The reports of the paper
//! round to two digits and run few shapes; this one is what shows that
//! a change to the simulator's executor or engines moved nothing.

use std::fmt::Write as _;

use mproxy::{FaultPlan, FaultReport};
use mproxy_apps::{run_app, run_app_faulty, AppId, AppSize};
use mproxy_model::{DesignPoint, ALL_DESIGN_POINTS, HW1, MP1, MP2, SW1};

use super::{sweep_plan, Sliced};

/// The cluster shapes of the matrix, `(nodes, compute processors per
/// node)`.
const SHAPES: [(usize, usize); 3] = [(4, 1), (8, 1), (4, 2)];

/// The design points the matrix runs on the `Small` inputs.
const SMALL_POINTS: [DesignPoint; 4] = [HW1, MP1, MP2, SW1];

/// The fault plans the matrix runs on MP1, 4×1, `Tiny`: one per fault
/// kind, a node stall under loss, and the fault sweep's mix.
fn plans() -> [(&'static str, FaultPlan); 6] {
    [
        ("drop", FaultPlan::new(4).drop(0.02)),
        ("dup", FaultPlan::new(4).duplicate(0.02)),
        ("reorder", FaultPlan::new(4).reorder(0.02, 30.0)),
        ("corrupt", FaultPlan::new(4).corrupt(0.02)),
        ("stall", FaultPlan::new(4).drop(0.01).stall(1, 50.0, 400.0)),
        ("mix", sweep_plan(0.01)),
    ]
}

/// The identity matrix: per application, every design point × shape on
/// `Tiny`, then HW1, MP1, MP2 and SW1 × shape on `Small`, then MP1 4×1
/// `Tiny` under each fault plan and MP1 8×1 `Small` under loss.
///
/// Each row is one run: its elapsed time and checksum as `f64` bits, the
/// events it ran plus the polls the executor elided (the count a
/// per-poll executor would have run), its traffic, and on a faulty
/// network what was injected and what the link layer did.
///
/// # Panics
///
/// Panics if a run does not complete cleanly, if a `Tiny` run elides no
/// more polls than it runs events, or if a run reports faults on a
/// fault-free network.
pub const APPS: Sliced = Sliced {
    head: || {
        "# Application identity matrix: one run per line, every number exact\n\
         # elapsed, checksum: f64 bits; events: calendar events + elided polls\n\
         # traffic: ops/bytes/elapsed_ns/utilisation bits\n\
         # injected: packets/dropped/duplicated/reordered/corrupted\n\
         # link: retx/acks/nacks/dups/held/unreach/peak/backlog\n"
            .to_string()
    },
    apps: &AppId::ALL,
    slice: app_rows,
    tail: String::new,
};

/// [`APPS`]'s text.
#[must_use]
pub fn apps() -> String {
    APPS.render()
}

/// One run of the matrix: design point, `(nodes, processors per node)`,
/// inputs, and the fault plan with its label.
type Run = (
    DesignPoint,
    (usize, usize),
    AppSize,
    Option<(&'static str, FaultPlan)>,
);

fn app_rows(app: AppId) -> String {
    let mut runs: Vec<Run> = Vec::new();
    for (size, points) in [
        (AppSize::Tiny, &ALL_DESIGN_POINTS[..]),
        (AppSize::Small, &SMALL_POINTS[..]),
    ] {
        for &d in points {
            runs.extend(SHAPES.map(|shape| (d, shape, size, None)));
        }
    }
    runs.extend(plans().map(|plan| (MP1, (4, 1), AppSize::Tiny, Some(plan))));
    let drop = ("drop", FaultPlan::new(4).drop(0.01));
    runs.push((MP1, (8, 1), AppSize::Small, Some(drop)));
    runs.into_iter().map(|run| app_row(app, run)).collect()
}

fn app_row(app: AppId, (d, (nodes, ppn), size, plan): Run) -> String {
    let label = plan.as_ref().map_or("-", |(label, _)| label);
    let size_name = format!("{size:?}");
    let at = format!(
        "{} {} {nodes}x{ppn} {size_name} {label}",
        app.name(),
        d.name
    );
    let faulty = plan.is_some();
    let r = match plan {
        Some((_, plan)) => run_app_faulty(app, d, nodes, ppn, size, plan),
        None => run_app(app, d, nodes, ppn, size),
    };
    assert!(r.sim.completed_cleanly(), "{at}: did not complete");
    // Polls outnumber everything else in a Tiny run; a Small Moldy run
    // computes long enough between them that they need not.
    assert!(
        size != AppSize::Tiny || r.sim.polls_elided > r.sim.events,
        "{at}: too few polls elided"
    );
    let t = &r.traffic;
    let mut s = format!(
        "{:<10} {:<3} {nodes}x{ppn} {size_name:<5} {label:<7} elapsed={:016x} \
         checksum={:016x} events={} traffic={}/{}/{}/{:016x}",
        app.name(),
        d.name,
        r.elapsed_us.to_bits(),
        r.checksum.to_bits(),
        r.sim.events + r.sim.polls_elided,
        t.total_ops,
        t.total_bytes,
        t.elapsed.as_ns(),
        t.interface_utilization.to_bits(),
    );
    if faulty {
        let (i, l) = (&r.faults.injected, &r.faults.link);
        let _ = write!(
            s,
            " injected={}/{}/{}/{}/{} link={}/{}/{}/{}/{}/{}/{}/{}",
            i.packets,
            i.dropped,
            i.duplicated,
            i.reordered,
            i.corrupted,
            l.retransmits,
            l.acks_sent,
            l.nacks_sent,
            l.dups_discarded,
            l.held_out_of_order,
            l.unreachable,
            l.peak_pending,
            l.backlogged,
        );
    } else {
        assert!(
            r.faults == FaultReport::default(),
            "{at}: faults without a plan"
        );
    }
    s.push('\n');
    s
}
