//! What one rep of a workload yields, and how reps become metrics.

use std::collections::BTreeMap;

use crate::spec::Workload;
use crate::stats::{self, Summary};

/// One rep: a fresh cluster or simulation, driven for its budget.
#[derive(Debug, Default)]
pub struct Rep {
    /// Seconds each set-up in this rep took (build, start, generate inputs).
    pub setup_s: Vec<f64>,
    /// Seconds the measured window lasted.
    pub wall_s: f64,
    /// Operations submitted in the window, and those that failed: timed
    /// out, hit a dead proxy, carried wrong data, or deadlocked the sim.
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples of successful operations, ns. Emptied by
    /// [`Rep::close`], which leaves their count, median and tail instead.
    pub lat_ns: Vec<u64>,
    pub samples: usize,
    pub p50_us: f64,
    pub tail_us: f64,
    /// Per-layer values seen in this rep.
    pub layers: Vec<(&'static str, f64)>,
    /// Output checks that failed, in words.
    pub errors: Vec<String>,
    /// Simulated results that must repeat bit for bit in every rep.
    pub fingerprint: Vec<u64>,
    /// The runtime's telemetry snapshot after shutdown, for the trace file.
    pub obs_json: Option<String>,
}

impl Rep {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn error(&mut self, what: impl Into<String>) {
        let what = what.into();
        // One line per kind of failure is enough to act on.
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.error(what());
        }
    }

    /// Reduces the latency samples to their median and the workload's tail
    /// percentile and frees them: twenty reps' samples kept alive change
    /// where the allocator puts the next rep's segments, and with that what
    /// a set-up costs. `sim_apps` keeps its thirty per cycle, in run order,
    /// for [`end_to_end`] to combine across cycles.
    pub fn close(&mut self, w: Workload) {
        self.samples = self.lat_ns.len();
        if w != Workload::SimApps {
            (self.p50_us, self.tail_us) =
                stats::p50_and_tail_us(&mut self.lat_ns, w.tail_permille());
            self.lat_ns = Vec::new();
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            (self.attempted - self.failed) as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// One figure of a set of timed reps: the value reported, and the median,
/// quartiles and count of the per-rep values it was taken from.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    pub value: f64,
    pub over: Summary,
}

impl Figure {
    /// The median of `values`.
    pub fn median_of(values: &[f64]) -> Figure {
        let over = stats::summarize(values);
        Figure {
            value: over.median,
            over,
        }
    }

    /// The better-quarter mean of per-rep `values`
    /// (`stats::better_quarter_mean` says why not their median).
    pub fn across_reps(values: &[f64], higher_is_better: bool) -> Figure {
        Figure {
            value: stats::better_quarter_mean(values, higher_is_better),
            over: stats::summarize(values),
        }
    }
}

/// The end-to-end figures of a set of timed reps.
pub struct EndToEnd {
    pub ops_per_s: Figure,
    pub op_p50_us: Figure,
    pub op_tail_us: Figure,
    pub setup_s: Figure,
    /// Latency samples in the smallest rep (`sim_apps`: in all cycles).
    pub min_samples: usize,
}

/// Takes reps that are closed ([`Rep::close`]).
pub fn end_to_end(w: Workload, reps: &[Rep]) -> EndToEnd {
    let rates: Vec<f64> = reps.iter().map(Rep::ops_per_s).collect();
    let setups: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    if w == Workload::SimApps {
        return sim_apps_end_to_end(w, reps, &rates, &setups);
    }
    let p50s: Vec<f64> = reps.iter().map(|r| r.p50_us).collect();
    let tails: Vec<f64> = reps.iter().map(|r| r.tail_us).collect();
    EndToEnd {
        ops_per_s: Figure::across_reps(&rates, true),
        op_p50_us: Figure::across_reps(&p50s, false),
        op_tail_us: Figure::across_reps(&tails, false),
        setup_s: Figure::across_reps(&setups, false),
        min_samples: reps.iter().map(|r| r.samples).min().unwrap_or(0),
    }
}

/// A cycle has 30 runs, too few for any percentile but the median, and
/// takes most of a second, longer than many of the host's quiet spells. But
/// every cycle makes the same runs in the same order: a run's time is its
/// better-quarter mean over the cycles, the rate is what a cycle of such
/// runs would reach, and the percentiles are over the runs.
fn sim_apps_end_to_end(w: Workload, reps: &[Rep], rates: &[f64], setups: &[f64]) -> EndToEnd {
    let runs = reps.iter().map(|r| r.lat_ns.len()).min().unwrap_or(0);
    let mut per_run: Vec<u64> = (0..runs)
        .map(|i| {
            let over_cycles: Vec<f64> = reps.iter().map(|r| r.lat_ns[i] as f64).collect();
            stats::better_quarter_mean(&over_cycles, false) as u64
        })
        .collect();
    let cycle_s = per_run.iter().sum::<u64>() as f64 / 1e9;
    let (p50, tail) = stats::p50_and_tail_us(&mut per_run, w.tail_permille());
    let mut ops_per_s = Figure::median_of(rates);
    if cycle_s > 0.0 {
        ops_per_s.value = runs as f64 / cycle_s;
    }
    EndToEnd {
        ops_per_s,
        op_p50_us: Figure::median_of(&[p50]),
        op_tail_us: Figure::median_of(&[tail]),
        setup_s: Figure::across_reps(setups, false),
        min_samples: runs * reps.len(),
    }
}

/// Per-layer values over reps: the median of the reps that reported each.
pub fn layer_medians(reps: &[Rep]) -> BTreeMap<&'static str, Summary> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, value) in reps.iter().flat_map(|r| r.layers.iter()) {
        by_name.entry(name).or_default().push(*value);
    }
    by_name
        .into_iter()
        .map(|(k, v)| (k, stats::summarize(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(w: Workload, ops: u64, wall_s: f64, lat_us: std::ops::Range<u64>) -> Rep {
        let mut rep = Rep {
            setup_s: vec![wall_s / 100.0],
            wall_s,
            attempted: ops,
            lat_ns: lat_us.map(|us| us * 1000).collect(),
            ..Rep::default()
        };
        rep.close(w);
        rep
    }

    #[test]
    fn metrics_are_better_quarter_means_of_per_rep_values() {
        let w = Workload::RtLatency;
        // Eight reps, the host slow in all but the last two.
        let mut reps: Vec<Rep> = (0..8)
            .map(|i| {
                let slow = if i < 6 { 2 } else { 1 };
                rep(w, 100, slow as f64, slow..slow * 101)
            })
            .collect();
        reps[7].failed = 50;
        reps[0].layer("x.y", 1.0);
        reps[2].layer("x.y", 3.0);
        assert!(reps[0].lat_ns.is_empty() && reps[0].samples == 200);
        let e = end_to_end(w, &reps);
        assert_eq!((e.ops_per_s.over.n, e.ops_per_s.over.median), (8, 50.0));
        assert_eq!(
            e.ops_per_s.value, 75.0,
            "100/s and, half of it failed, 50/s"
        );
        assert_eq!((e.op_p50_us.value, e.op_p50_us.over.median), (50.0, 101.0));
        assert_eq!(e.op_tail_us.value, 99.0, "p99 of 1..101 us");
        assert_eq!((e.setup_s.value, e.setup_s.over.median), (0.01, 0.02));
        assert_eq!(e.min_samples, 100);
        assert_eq!(layer_medians(&reps)["x.y"].median, 2.0);
    }

    #[test]
    fn sim_apps_takes_each_runs_better_quarter_over_the_cycles() {
        let w = Workload::SimApps;
        // The second cycle hit a slow spell, the third a slower one.
        let mut reps = vec![
            rep(w, 30, 2.0, 1..31),
            rep(w, 30, 2.0, 2..32),
            rep(w, 30, 2.0, 9..39),
        ];
        reps[0].lat_ns.reverse();
        reps[1].lat_ns.reverse();
        reps[2].lat_ns.reverse();
        let e = end_to_end(w, &reps);
        assert_eq!((e.op_p50_us.over.n, e.min_samples), (1, 90));
        assert_eq!(e.op_p50_us.value, 15.0, "p50 of the first cycle's 1..=30");
        assert_eq!(e.op_tail_us.value, 27.0, "p90 of the first cycle's 1..=30");
        assert_eq!(e.ops_per_s.value, 30.0 / 465e-6, "1 + 2 + ... + 30 us");
        assert_eq!(e.ops_per_s.over.median, 15.0, "of the cycles as they ran");
    }
}
