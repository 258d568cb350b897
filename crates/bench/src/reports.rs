//! The reports: one function per table and figure of the paper, each
//! returning the text archived as `results/<name>.txt`.
//!
//! [`ALL`] lists every report once. The crate's binary writes each one to
//! its file, and `tests/tests/bench_regression.rs` compares each with its
//! file byte for byte. The simulator is bit-deterministic, so a change that
//! is not meant to move a number leaves every file as it is.

use mproxy_apps::AppId;

mod analytic;
mod faults;
mod identity;
mod micro;
mod speedups;

pub use analytic::{table2, table3};
pub use faults::{
    crash_sweep, crash_sweep_plan, fault_sweep, sweep_plan, APP_CRASH_AT_US, CRASH_DOWNTIME_US,
    CRASH_DROP, CRASH_NODE, PP_CRASH_AT_US, PP_MIDFLIGHT_AT_US, SWEEP_DROP_RATES, SWEEP_SEED,
};
pub use identity::{apps, APPS};
pub use micro::{fig7, table4, FIG7_REPS, FIG7_SIZES};
pub use speedups::{ablation, fig8, fig9, sec54, table6, FIG8, FIG9, TABLE6};

/// A report: its whole text.
pub type Report = fn() -> String;

/// Every report, by the name of its file under `results/`, in the order
/// of the paper.
pub const ALL: [(&str, Report); 13] = [
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig7", fig7),
    ("fig8", fig8),
    ("table6", table6),
    ("fig9", fig9),
    ("sec54", sec54),
    ("overload", crate::overload::report),
    ("ablation", ablation),
    ("fault_sweep", fault_sweep),
    ("crash_sweep", crash_sweep),
    ("apps", apps),
];

/// A report with a block of lines per application: `head`, then one
/// slice per application of `apps`, each the same number of lines, then
/// `tail`. The reports too slow in a debug build to test in one piece
/// are built this way, so that each application's slice is tested on
/// its own.
#[derive(Debug, Clone, Copy)]
pub struct Sliced {
    /// The lines before the first slice; runs no simulation.
    pub head: fn() -> String,
    /// The applications, one slice each, in order.
    pub apps: &'static [AppId],
    /// One application's lines.
    pub slice: fn(AppId) -> String,
    /// The lines after the last slice; runs no simulation.
    pub tail: fn() -> String,
}

impl Sliced {
    /// The whole report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = (self.head)();
        for &app in self.apps {
            s.push_str(&(self.slice)(app));
        }
        s.push_str(&(self.tail)());
        s
    }
}
