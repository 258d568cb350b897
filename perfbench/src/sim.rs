//! The two workloads on the simulator. Everything timed here is host time;
//! simulated results are inputs to the output checks only, and must repeat
//! bit for bit.

use std::time::{Duration, Instant};

use mproxy::micro::{pingpong_verified, VerifiedPingPong};
use mproxy::FaultPlan;
use mproxy_apps::{run_app_flat, run_app_flat_faulty, AppId, AppRun, AppSize};
use mproxy_des::RunReport;
use mproxy_model::fate::SplitMix64;
use mproxy_model::{DesignPoint, HW1, MP1, SW1};

use crate::rep::Rep;
use crate::span::{Name, Recorder, NO_PARENT};
use crate::spec::Workload;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The numbers of a `RunReport`, for bit-for-bit comparison across reps.
fn report_words(r: &RunReport) -> [u64; 9] {
    [
        r.end.as_us().to_bits(),
        r.spawned,
        r.completed,
        r.pending,
        r.events,
        r.timers_armed,
        r.timers_cancelled,
        r.timers_fired,
        r.calendar_peak,
    ]
}

/// Exact counts of the DES layer over `reports`, divided by `per` (the
/// units the reports cover), and events per second of `wall_s` host time.
fn des_layers(rep: &mut Rep, reports: &[&RunReport], per: f64, wall_s: f64) {
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let events = sum(|r| r.events);
    rep.layer("des.events", events / per);
    rep.layer("des.timers_armed", sum(|r| r.timers_armed) / per);
    rep.layer("des.timers_cancelled", sum(|r| r.timers_cancelled) / per);
    rep.layer("des.timers_fired", sum(|r| r.timers_fired) / per);
    let peak = reports.iter().map(|r| r.calendar_peak).max().unwrap_or(0);
    rep.layer("des.calendar_peak", peak as f64);
    if wall_s > 0.0 {
        rep.layer("des.events_per_s", events / wall_s);
    }
}

const PP_BYTES: u32 = 64;
const PP_ROUNDS: u64 = 64;
const DROP: f64 = 0.01;
/// Fault plans a rep cycles through. A unit loses about a hundred packets,
/// give or take a tenth from one plan to the next; over 32 plans the work
/// per pass differs by a hundredth from one seed to the next.
const PLANS: usize = 32;
/// Inputs of `sim_faulty_link`: the fault plans, and the fault-free results
/// the checks compare against.
struct FaultyInputs {
    plans: Vec<FaultPlan>,
    clean_pp: VerifiedPingPong,
    clean_app: AppRun,
    setup_s: f64,
}

fn faulty_ready(seed: u64) -> FaultyInputs {
    let t0 = Instant::now();
    let mut rng = SplitMix64::new(seed);
    let plans = (0..PLANS)
        .map(|_| FaultPlan::new(rng.next_u64()).drop(DROP))
        .collect();
    let clean_pp = pingpong_verified(MP1, PP_BYTES, PP_ROUNDS, None);
    let clean_app = run_app_flat(AppId::Sample, MP1, 2, AppSize::Tiny);
    FaultyInputs {
        plans,
        clean_pp,
        clean_app,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Sets `workload` up once and returns the seconds it took; `None` for a
/// workload that is not on the simulator.
pub fn set_up_only(workload: Workload, seed: u64) -> Option<f64> {
    match workload {
        Workload::SimFaultyLink => Some(faulty_ready(seed).setup_s),
        Workload::SimApps => Some(apps_ready(seed).setup_s),
        _ => None,
    }
}

/// Units in a rep of `sim_faulty_link`: four passes over the plans, so that
/// p90 has ten samples beyond it, in 0.4 s. Its smoke test makes a quarter
/// of a pass.
pub const UNITS: u64 = 4 * PLANS as u64;
pub const UNITS_QUICK: u64 = PLANS as u64 / 4;

/// `sim_faulty_link`: units of an MP1 verified ping-pong plus the Sample
/// application on two nodes, every link dropping 1% of its packets. A rep
/// makes `units` units, cycling over the plans, and takes no time budget:
/// the plans differ in the work they cause by a tenth, and reps are
/// compared with each other.
pub fn faulty_link(seed: u64, units: u64, mut tracer: Option<&mut Recorder>) -> Rep {
    let mut rep = Rep::default();
    let FaultyInputs {
        plans,
        clean_pp,
        clean_app,
        setup_s,
    } = faulty_ready(seed);
    rep.setup_s.push(setup_s);
    rep.check(
        clean_pp.data_ok && clean_pp.report == Default::default(),
        || "the fault-free ping-pong saw faults".into(),
    );

    let t_begin = Instant::now();
    let mut t_end = t_begin;
    // The first pass over the plans; later passes must repeat it bit for bit.
    let mut first: Vec<(VerifiedPingPong, AppRun)> = Vec::with_capacity(PLANS);
    let mut app_s = Vec::new();
    while rep.attempted < units {
        let which = rep.attempted as usize % PLANS;
        let t0 = Instant::now();
        let pp = pingpong_verified(MP1, PP_BYTES, PP_ROUNDS, Some(plans[which].clone()));
        let t1 = Instant::now();
        let app = run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, plans[which].clone());
        t_end = Instant::now();
        if let Some(rec) = tracer.as_deref_mut() {
            let parent = rec.open(Name::Op, rep.attempted, t0);
            rec.record(Name::SimPingpongVerified, rep.attempted, parent, t0, t1);
            rec.record(Name::SimRunApp, rep.attempted, parent, t1, t_end);
            rec.finish(parent, Name::Op, t0, t_end);
        }
        rep.attempted += 1;
        let sound = pp.data_ok
            && pp.error.is_none()
            && pp.rounds == PP_ROUNDS
            && pp.sim.completed_cleanly()
            && app.sim.completed_cleanly()
            && app.checksum.to_bits() == clean_app.checksum.to_bits()
            // Loss must cost the ping-pong simulated time: it is strictly
            // sequential. Not so Sample: retransmission reorders its messages,
            // and one plan in a few hundred ends a little earlier for it.
            && pp.rt_us >= clean_pp.rt_us
            && app.elapsed_us > 0.0;
        let same = first.get(which).is_none_or(|(p, a)| {
            (p.sim, p.rt_us.to_bits(), p.report) == (pp.sim, pp.rt_us.to_bits(), pp.report)
                && (a.sim, a.elapsed_us.to_bits(), a.faults)
                    == (app.sim, app.elapsed_us.to_bits(), app.faults)
        });
        if sound && same {
            rep.lat_ns.push(ns(t_end - t0));
            app_s.push((t_end - t1).as_secs_f64());
        } else {
            rep.failed += 1;
            rep.error(format!(
                "unit {}: data_ok {} error {:?} rounds {} checksum {} vs {} repeatable {same}, \
                 clean exits {} {}, ping-pong {} us vs {} fault-free, Sample {} us vs {}",
                rep.attempted,
                pp.data_ok,
                pp.error,
                pp.rounds,
                app.checksum,
                clean_app.checksum,
                pp.sim.completed_cleanly(),
                app.sim.completed_cleanly(),
                pp.rt_us,
                clean_pp.rt_us,
                app.elapsed_us,
                clean_app.elapsed_us
            ));
        }
        if first.len() == which {
            first.push((pp, app));
        }
    }
    rep.wall_s = (t_end - t_begin).as_secs_f64();

    let sum = |f: fn(&(VerifiedPingPong, AppRun)) -> u64| first.iter().map(f).sum::<u64>();
    let dropped = sum(|(p, a)| p.report.injected.dropped + a.faults.injected.dropped);
    let retransmits = sum(|(p, a)| p.report.link.retransmits + a.faults.link.retransmits);
    let unreachable = sum(|(p, a)| p.report.link.unreachable + a.faults.link.unreachable);
    rep.check(dropped > 0 && retransmits > 0, || {
        format!("the lossy links dropped {dropped} packets and retransmitted {retransmits}")
    });
    // Layer counts are per unit, averaged over the plans of the first pass:
    // exact, and the same in every rep that got through a whole pass.
    let units = first.len() as f64;
    let unit_s = crate::stats::median(
        &rep.lat_ns
            .iter()
            .map(|&n| n as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let reports: Vec<&RunReport> = first.iter().flat_map(|(p, a)| [&p.sim, &a.sim]).collect();
    des_layers(&mut rep, &reports, units, unit_s * units);
    rep.layer("core.link_retransmits", retransmits as f64 / units);
    rep.layer("core.link_timeouts", unreachable as f64 / units);
    rep.layer("apps.wall_s.Sample", crate::stats::median(&app_s));
    for (pp, app) in &first {
        rep.fingerprint.extend(report_words(&pp.sim));
        rep.fingerprint.extend(report_words(&app.sim));
        rep.fingerprint.extend([
            pp.rt_us.to_bits(),
            app.elapsed_us.to_bits(),
            app.checksum.to_bits(),
        ]);
    }
    rep
}

pub const DESIGNS: [DesignPoint; 3] = [HW1, MP1, SW1];

/// Nodes of the `sim_apps` cluster, and of its smoke test.
pub const APP_NODES: usize = 8;
pub const APP_NODES_QUICK: usize = 2;
/// `Tiny`, not the `Small` of the recorded Figure 8: a `Small` cycle takes
/// 3.5 s, so a run held three, and the median of three did not survive the
/// host's slow spells (`ops_per_s` spread over ten invocations: 33%). A
/// `Tiny` cycle on eight nodes takes 0.8 s, runs the same code of every
/// application and engine, and gives a run fourteen reps.
const APP_SIZE: AppSize = AppSize::Tiny;

/// Inputs of `sim_apps`: the order of the runs, and what Figure 8 divides
/// by, the single-processor run of each application on HW1.
struct AppsInputs {
    order: Vec<(AppId, DesignPoint)>,
    serial: Vec<AppRun>,
    setup_s: f64,
}

fn apps_ready(seed: u64) -> AppsInputs {
    let t_setup = Instant::now();
    let mut order: Vec<(AppId, DesignPoint)> = AppId::ALL
        .into_iter()
        .flat_map(|a| DESIGNS.map(|d| (a, d)))
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let serial = AppId::ALL
        .into_iter()
        .map(|a| run_app_flat(a, HW1, 1, APP_SIZE))
        .collect();
    AppsInputs {
        order,
        serial,
        setup_s: t_setup.elapsed().as_secs_f64(),
    }
}

/// `sim_apps`: one cycle of the ten Table 5 applications at three design
/// points on `nodes` single-processor nodes, fault-free, in an order the
/// seed picks. A cycle is never cut short, so it takes no time budget.
pub fn apps_cycle(seed: u64, nodes: usize, mut tracer: Option<&mut Recorder>) -> Rep {
    let mut rep = Rep::default();
    let AppsInputs {
        order,
        serial,
        setup_s,
    } = apps_ready(seed);
    rep.setup_s.push(setup_s);

    let mut checksums: [Option<f64>; AppId::ALL.len()] = Default::default();
    let mut app_wall = [0.0f64; AppId::ALL.len()];
    let mut reports: Vec<RunReport> = Vec::with_capacity(order.len());
    let t_begin = Instant::now();
    for (i, &(app, design)) in order.iter().enumerate() {
        let which = AppId::ALL
            .iter()
            .position(|&a| a == app)
            .expect("listed app");
        let t0 = Instant::now();
        let run = run_app_flat(app, design, nodes, APP_SIZE);
        let t1 = Instant::now();
        if let Some(rec) = tracer.as_deref_mut() {
            rec.record(Name::SimRunApp, i as u64, NO_PARENT, t0, t1);
        }
        rep.attempted += 1;
        app_wall[which] += (t1 - t0).as_secs_f64();
        // The architecture changes timing, never answers.
        let reference = *checksums[which].get_or_insert(run.checksum);
        let speedup = serial[which].elapsed_us / run.elapsed_us;
        let sound = run.sim.completed_cleanly()
            && run.checksum.to_bits() == reference.to_bits()
            && run.faults == Default::default()
            && speedup.is_finite()
            && speedup > 0.0;
        // One sample per run, in run order, sound or not: the cycles' samples
        // are combined by position (`rep::end_to_end`), and a failed run
        // fails the whole invocation anyway.
        rep.lat_ns.push(ns(t1 - t0));
        if !sound {
            rep.failed += 1;
            rep.error(format!(
                "{} on {}: checksum {} vs {reference}, speedup {speedup}, faults {:?}",
                app.name(),
                design.name,
                run.checksum,
                run.faults
            ));
        }
        rep.fingerprint.extend(report_words(&run.sim));
        rep.fingerprint.extend([
            which as u64,
            run.elapsed_us.to_bits(),
            run.checksum.to_bits(),
        ]);
        reports.push(run.sim);
    }
    rep.wall_s = t_begin.elapsed().as_secs_f64();

    let refs: Vec<&RunReport> = reports.iter().collect();
    let cycle_s = rep.wall_s;
    des_layers(&mut rep, &refs, 1.0, cycle_s);
    rep.layer("core.link_retransmits", 0.0);
    rep.layer("core.link_timeouts", 0.0);
    let mut by_style = [0.0f64; 3];
    for (app, wall) in AppId::ALL.into_iter().zip(app_wall) {
        rep.layer(app_layer(app), wall);
        match app.style() {
            "CRL" => by_style[0] += wall,
            "Split-C" => by_style[1] += wall,
            _ => {}
        }
        // Sample is the one application built on per-key active messages.
        if app == AppId::Sample {
            by_style[2] += wall;
        }
    }
    rep.layer("crl.wall_s", by_style[0]);
    rep.layer("splitc.wall_s", by_style[1]);
    rep.layer("am.wall_s", by_style[2]);
    rep
}

fn app_layer(app: AppId) -> &'static str {
    match app {
        AppId::Moldy => "apps.wall_s.Moldy",
        AppId::Lu => "apps.wall_s.LU",
        AppId::Barnes => "apps.wall_s.Barnes-Hut",
        AppId::Water => "apps.wall_s.Water",
        AppId::Mm => "apps.wall_s.MM",
        AppId::Fft => "apps.wall_s.FFT",
        AppId::Sample => "apps.wall_s.Sample",
        AppId::Sampleb => "apps.wall_s.Sampleb",
        AppId::PRay => "apps.wall_s.P-Ray",
        AppId::Wator => "apps.wall_s.Wator",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_follow_the_paper_names() {
        for app in AppId::ALL {
            assert_eq!(app_layer(app), format!("apps.wall_s.{}", app.name()));
        }
    }
}
