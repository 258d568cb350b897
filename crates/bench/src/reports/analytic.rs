//! The reports the analytic model prints without a simulation: the G30
//! primitives and critical paths (Tables 1–2) and the design points
//! (Table 3).

use std::fmt::Write as _;

use mproxy_model::{
    format_trace, get_latency, get_trace, protection_cost_get, protection_cost_put,
    put_oneway_latency, put_trace, DesignPoint, MachineParams, ALL_DESIGN_POINTS,
};

/// Tables 1 and 2 (`results/table2.txt`): the primitive costs and the
/// critical-path trace of one-word GET and PUT operations on the G30
/// message-proxy implementation (§4.1).
#[must_use]
pub fn table2() -> String {
    let m = MachineParams::G30;
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: primitive operations on the IBM Model G30");
    let _ = writeln!(s, "{:<42} {:>8}", "primitive", "us");
    let _ = writeln!(s, "{}", "-".repeat(52));
    for (name, us) in [
        ("C   time to service a cache miss", m.cache_miss_us),
        ("U   uncached (adapter FIFO) access", m.uncached_us),
        ("V   vm_att cross-memory attach", m.vm_att_us),
        ("P   polling delay", m.polling_delay_us()),
        ("S   processor speed (x 75 MHz)", m.speed),
        ("L   network transit latency", m.net_latency_us),
    ] {
        let _ = writeln!(s, "{name:<42} {us:>8.2}");
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "Table 2: critical path of a one-word GET");
    let _ = writeln!(s, "{}", format_trace(&get_trace(), &m));
    let _ = writeln!(s, "Critical path of a one-word PUT (one-way)");
    let _ = writeln!(s, "{}", format_trace(&put_trace(), &m));
    let _ = writeln!(
        s,
        "GET  = 10C + 6U + 3V + 3.6/S + 3P + 2L = {:.2} us  (paper: 27.5 + 2L)",
        get_latency().eval_uniform(&m)
    );
    let _ = writeln!(
        s,
        "PUT  =  7C + 4U + 2V + 2.2/S + 2P +  L = {:.2} us  (paper: 18.5 + L)",
        put_oneway_latency().eval_uniform(&m)
    );
    let _ = writeln!(
        s,
        "protection cost: GET 3C+3V+3P = {:.2} us (paper ~14), PUT 3C+2V+2P = {:.2} us (paper 10.3)",
        protection_cost_get().eval_uniform(&m),
        protection_cost_put().eval_uniform(&m)
    );
    s
}

/// Table 3 (`results/table3.txt`): the simulation parameters of the six
/// design points (several cells reconstructed from Table 4 identities;
/// see DESIGN.md).
#[must_use]
pub fn table3() -> String {
    type Cell = fn(&DesignPoint) -> f64;
    let rows: [(&str, Cell); 13] = [
        ("Cache miss latency (us)", |d| d.machine.cache_miss_us),
        ("Proxy<->compute miss (us)", |d| d.shared_miss_us),
        ("Uncached access U (us)", |d| d.machine.uncached_us),
        ("vm_att V (us)", |d| d.machine.vm_att_us),
        ("Polling delay P (us)", |d| d.polling_us()),
        ("Processor speed S (x75MHz)", |d| d.machine.speed),
        ("Adapter overhead (us)", |d| d.adapter_ovh_us),
        ("Syscall / interrupt (us)", |d| d.syscall_us),
        ("Compute proc overhead (us)", |d| d.predicted_overhead_us()),
        ("DMA bandwidth (MB/s)", |d| d.dma_bw_mbs),
        ("Network latency (us)", |d| d.machine.net_latency_us),
        ("Network bandwidth (MB/s)", |d| d.net_bw_mbs),
        ("Pin + unpin per page (us)", |d| d.pin_us + d.unpin_us),
    ];
    let rule = "-".repeat(86);
    let mut s = format!(
        "Parameter                              HW0     HW1     MP0     MP1     MP2     SW1\n{rule}\n"
    );
    for (name, f) in rows {
        let _ = write!(s, "{name:<34}");
        for d in &ALL_DESIGN_POINTS {
            let _ = write!(s, " {:>7.2}", f(d));
        }
        let _ = writeln!(s);
    }
    s
}
