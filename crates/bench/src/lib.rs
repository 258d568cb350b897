//! # mproxy-bench — the paper's reports
//!
//! One function per table and figure of the paper, listed once in
//! [`reports::ALL`]; each returns a deterministic text report archived as
//! `results/<name>.txt`. The crate's one binary, which takes no flags,
//! rewrites every file (`cargo run --release -p mproxy-bench`), and
//! `cargo test` compares each report with its file byte for byte:
//!
//! | file | report |
//! |---|---|
//! | `table2` | Tables 1–2: primitives and the GET/PUT critical path |
//! | `table3` | Table 3: the six design-point parameter sets |
//! | `table4` | Table 4: micro-benchmarks vs the paper's values |
//! | `fig7` | Figure 7: latency/bandwidth vs message size |
//! | `fig8` | Figure 8: application speedups, 1–16 processors |
//! | `table6` | Table 6: message sizes, rates, interface utilisation |
//! | `fig9` | Figure 9: 4 nodes × 4 compute processors |
//! | `sec54` | §5.4: proxy-contention queueing analysis |
//! | `overload` | §5.4 measured: command-queue delay vs the M/M/1 curve |
//! | `ablation` | §4.1's three optimisation proposals, stacked on MP1 |
//! | `fault_sweep`, `crash_sweep` | reliable link layer under loss and crashes |
//! | `apps` | every application run to the bit: the identity matrix |
//!
//! How fast any of it runs is measured by `perfbench/`, not here; the
//! threaded runtime's fault scenarios are tests of the `mproxy-tests`
//! package (`tests/tests/chaos.rs` and its neighbours).

pub mod overload;
pub mod reports;

/// Formats one results row: name then aligned float columns.
#[must_use]
pub fn row(name: &str, values: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{name:<12}");
    for v in values {
        let _ = if *v >= 100.0 {
            write!(s, " {v:>8.1}")
        } else {
            write!(s, " {v:>8.2}")
        };
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn row_formats_aligned() {
        let s = super::row("GET", &[9.5, 150.0]);
        assert!(s.starts_with("GET"));
        assert!(s.contains("9.50"));
        assert!(s.contains("150.0"));
    }
}
