//! The micro-benchmark reports: Table 4's raw machine performance and
//! Figure 7's ping-pong curves, at the six design points.

use std::fmt::Write as _;

use mproxy::micro::{pingpong_put, run_micro, MicroResult};
use mproxy_am::micro::{am_roundtrip_us, pingpong_am_store};
use mproxy_model::{paper_table4, DesignPoint, Table4Row, ALL_DESIGN_POINTS};

use crate::row;

/// Table 4 (`results/table4.txt`): micro-benchmark measurements of raw
/// machine performance for the six design points, beside the paper's.
///
/// # Panics
///
/// Panics if a design point has no paper row.
#[must_use]
pub fn table4() -> String {
    let mut s = format!(
        "Table 4 (simulated | paper). Latencies in us, bandwidth in MB/s.\n\n\
         {0:13}HW0            HW1            MP0            MP1            MP2            SW1\n\
         {0:13}{1}\n",
        "",
        "   sim    paper".repeat(6)
    );
    let sims: Vec<_> = ALL_DESIGN_POINTS
        .iter()
        .map(|&d| (run_micro(d), am_roundtrip_us(d, 16)))
        .collect();
    let paper: Vec<_> = ALL_DESIGN_POINTS
        .iter()
        .map(|d| paper_table4(d.name).expect("paper row"))
        .collect();
    type Sim = fn(&(MicroResult, f64)) -> f64;
    type Paper = fn(&Table4Row) -> f64;
    let rows: [(&str, Sim, Paper); 5] = [
        ("PUT latency*", |m| m.0.put_rt_us, |p| p.put_rt_us),
        ("GET latency", |m| m.0.get_us, |p| p.get_us),
        ("PUT+sync ovh", |m| m.0.overhead_us, |p| p.overhead_us),
        ("AM latency*", |m| m.1, |p| p.am_rt_us),
        ("Peak BW", |m| m.0.peak_bw_mbs, |p| p.peak_bw_mbs),
    ];
    for (name, sim, pap) in rows {
        let cells: Vec<f64> = (0..6)
            .flat_map(|i| [sim(&sims[i]), pap(&paper[i])])
            .collect();
        let _ = writeln!(s, "{}", row(name, &cells));
    }
    let _ = writeln!(s, "\n* round-trip");
    s
}

/// Message sizes swept by the Figure 7 reproduction.
pub const FIG7_SIZES: [u32; 8] = [8, 32, 128, 512, 2048, 8192, 65536, 262144];

/// Round trips averaged per Figure 7 measurement.
pub const FIG7_REPS: u64 = 4;

/// `(bytes, one-way latency µs, bandwidth MB/s)` at each Figure 7 size.
type Curve = fn(DesignPoint) -> Vec<(u32, f64, f64)>;

/// Figure 7 (`results/fig7.txt`): ping-pong latency and bandwidth versus
/// message size, for PUT transfers and active-message bulk stores, at all
/// six design points — a tidy table, ready for a log-log plot.
#[must_use]
pub fn fig7() -> String {
    let protocols: [(&str, Curve); 2] = [
        ("PUT ping-pong", |d| {
            pingpong_put(d, &FIG7_SIZES, FIG7_REPS)
                .iter()
                .map(|p| (p.bytes, p.latency_us, p.bandwidth_mbs))
                .collect()
        }),
        ("AM store ping-pong", |d| {
            pingpong_am_store(d, &FIG7_SIZES, FIG7_REPS)
                .iter()
                .map(|p| (p.bytes, p.latency_us, p.bandwidth_mbs))
                .collect()
        }),
    ];
    let mut s = String::new();
    for (i, (title, curve)) in protocols.into_iter().enumerate() {
        if i > 0 {
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "# Figure 7: {title}\npoint        bytes    latency_us  bandwidth_MB/s"
        );
        for d in ALL_DESIGN_POINTS {
            for (bytes, us, mbs) in curve(d) {
                let _ = writeln!(s, "{:<8} {bytes:>9} {us:>13.2} {mbs:>15.2}", d.name);
            }
        }
    }
    s
}
