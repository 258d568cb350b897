//! The critical-path trace of message-proxy communication — Table 2.
//!
//! The paper instruments a one-word GET on a quiescent pair of G30 SMPs and
//! lists every primitive operation on the critical path, per agent. The
//! printed table is partially illegible in the archival scan, so this module
//! *reconstructs* it under two hard constraints: (i) each step uses only
//! operations named in the paper, and (ii) the per-primitive totals sum
//! exactly to the §4.1 closed-form equations
//! (GET = 10C + 6U + 3V + 3.6/S + 3P + 2L,
//! PUT = 7C + 4U + 2V + 2.2/S + 2P + L), which are fully legible.
//! The test suite enforces (ii).

use crate::cost::Cost;

/// Which agent executes a trace step (column 1 of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agent {
    /// The user process on a compute processor.
    User,
    /// The message proxy on the originating node.
    LocalProxy,
    /// The interconnect.
    Network,
    /// The message proxy on the remote node.
    RemoteProxy,
}

impl Agent {
    /// Display label matching the paper's table.
    #[must_use]
    fn label(&self) -> &'static str {
        match self {
            Agent::User => "User",
            Agent::LocalProxy => "Message Proxy (local)",
            Agent::Network => "Network",
            Agent::RemoteProxy => "Message Proxy (remote)",
        }
    }
}

/// One row of the critical-path trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceStep {
    /// Executing agent.
    pub agent: Agent,
    /// Operation description.
    pub operation: &'static str,
    /// Symbolic cost of the step.
    pub cost: Cost,
}

impl TraceStep {
    const fn new(agent: Agent, operation: &'static str, cost: Cost) -> Self {
        TraceStep {
            agent,
            operation,
            cost,
        }
    }
}

/// The Table 2 trace of a one-word GET.
///
/// # Examples
///
/// ```
/// use mproxy_model::{get_trace, MachineParams};
///
/// let total: mproxy_model::Cost = get_trace().iter().map(|s| s.cost).sum();
/// // GET = 27.5 µs + 2L on the G30 (paper §4.1).
/// let no_net = total.eval_uniform(&MachineParams::G30)
///     - 2.0 * MachineParams::G30.net_latency_us;
/// assert!((no_net - 27.5).abs() < 0.1);
/// ```
#[must_use]
pub fn get_trace() -> Vec<TraceStep> {
    use Agent::*;
    let c = Cost::C_SHARED;
    let ca = Cost::C_OTHER;
    let u = Cost::U;
    let v = Cost::V;
    let p = Cost::P;
    let l = Cost::L;
    vec![
        TraceStep::new(
            User,
            "enq command, (read miss, write miss)",
            Cost {
                c_shared: 2.0,
                ..Cost::ZERO
            },
        ),
        TraceStep::new(LocalProxy, "polling delay", p),
        TraceStep::new(LocalProxy, "vm_att to FIFO queue", v),
        TraceStep::new(LocalProxy, "dequeue entry, (read miss)", c),
        TraceStep::new(LocalProxy, "decode command, allocate CCB", Cost::instr(0.5)),
        TraceStep::new(LocalProxy, "dispatch to send routine", Cost::instr(0.1)),
        TraceStep::new(
            LocalProxy,
            "set up network packet header",
            u + Cost::instr(0.6),
        ),
        TraceStep::new(LocalProxy, "launch packet", u),
        TraceStep::new(Network, "transit time", l),
        TraceStep::new(RemoteProxy, "polling delay", p),
        TraceStep::new(RemoteProxy, "read input packet header, (read miss)", ca),
        TraceStep::new(
            RemoteProxy,
            "decode packet, dispatch to handler",
            Cost::instr(0.4),
        ),
        TraceStep::new(
            RemoteProxy,
            "compute remote address, check validity",
            Cost::instr(0.1),
        ),
        TraceStep::new(RemoteProxy, "vm_att to remote address space", v),
        TraceStep::new(
            RemoteProxy,
            "address and packet size check",
            Cost::instr(0.3),
        ),
        TraceStep::new(
            RemoteProxy,
            "set up network packet header",
            u + Cost::instr(0.7),
        ),
        TraceStep::new(RemoteProxy, "fill in data, (read miss)", c + u),
        TraceStep::new(RemoteProxy, "set remote sync. register, (write miss)", c),
        TraceStep::new(RemoteProxy, "launch packet", u),
        TraceStep::new(Network, "transit time", l),
        TraceStep::new(LocalProxy, "polling delay", p),
        TraceStep::new(LocalProxy, "read input packet header, (read miss)", ca),
        TraceStep::new(
            LocalProxy,
            "decode packet, dispatch to handler",
            Cost::instr(0.4),
        ),
        TraceStep::new(LocalProxy, "vm_att to local address space", v),
        TraceStep::new(
            LocalProxy,
            "find local addr in CCB, check validity",
            Cost::instr(0.5),
        ),
        TraceStep::new(LocalProxy, "read packet data, (uncached)", u),
        TraceStep::new(LocalProxy, "copy data to destination, (write miss)", c),
        TraceStep::new(LocalProxy, "set local sync. register, (write miss)", c),
        TraceStep::new(User, "read local sync. register, (read miss)", c),
    ]
}

/// The critical-path trace of a one-word, one-way PUT (same methodology as
/// Table 2; the paper notes a PUT "is similar, except it involves a one-way
/// communication instead of a round trip").
#[must_use]
pub fn put_trace() -> Vec<TraceStep> {
    use Agent::*;
    let c = Cost::C_SHARED;
    let ca = Cost::C_OTHER;
    let u = Cost::U;
    let v = Cost::V;
    let p = Cost::P;
    let l = Cost::L;
    vec![
        TraceStep::new(
            User,
            "enq command, (read miss, write miss)",
            Cost {
                c_shared: 2.0,
                ..Cost::ZERO
            },
        ),
        TraceStep::new(LocalProxy, "polling delay", p),
        TraceStep::new(LocalProxy, "vm_att to FIFO queue", v),
        TraceStep::new(LocalProxy, "dequeue entry, (read miss)", c),
        TraceStep::new(LocalProxy, "decode command, allocate CCB", Cost::instr(0.5)),
        TraceStep::new(LocalProxy, "dispatch to send routine", Cost::instr(0.1)),
        TraceStep::new(
            LocalProxy,
            "set up network packet header",
            u + Cost::instr(0.6),
        ),
        TraceStep::new(LocalProxy, "fill in data, (read miss)", c + u),
        TraceStep::new(LocalProxy, "launch packet", u),
        TraceStep::new(Network, "transit time", l),
        TraceStep::new(RemoteProxy, "polling delay", p),
        TraceStep::new(RemoteProxy, "read input packet header, (read miss)", ca),
        TraceStep::new(
            RemoteProxy,
            "decode packet, dispatch to handler",
            Cost::instr(0.4),
        ),
        TraceStep::new(
            RemoteProxy,
            "compute remote address, check validity",
            Cost::instr(0.3),
        ),
        TraceStep::new(RemoteProxy, "vm_att to remote address space", v),
        TraceStep::new(
            RemoteProxy,
            "address and packet size check",
            Cost::instr(0.3),
        ),
        TraceStep::new(RemoteProxy, "read packet data, (uncached)", u),
        TraceStep::new(RemoteProxy, "store data to destination, (write miss)", c),
        TraceStep::new(RemoteProxy, "set remote sync. register, (write miss)", c),
    ]
}

/// Renders a trace in the layout of the paper's Table 2, evaluated on `m`.
#[must_use]
pub fn format_trace(steps: &[TraceStep], m: &crate::MachineParams) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut last_agent: Option<Agent> = None;
    let mut total = Cost::ZERO;
    let _ = writeln!(out, "{:<24} {:<48} {:>9}", "Agent", "Operation", "us");
    let _ = writeln!(out, "{}", "-".repeat(84));
    for s in steps {
        let label = if last_agent == Some(s.agent) {
            ""
        } else {
            s.agent.label()
        };
        last_agent = Some(s.agent);
        let _ = writeln!(
            out,
            "{:<24} {:<48} {:>9.3}",
            label,
            s.operation,
            s.cost.eval_uniform(m)
        );
        total += s.cost;
    }
    let _ = writeln!(out, "{}", "-".repeat(84));
    let _ = writeln!(
        out,
        "{:<24} {:<48} {:>9.3}",
        "Total",
        "",
        total.eval_uniform(m)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineParams;

    fn total(steps: &[TraceStep]) -> Cost {
        steps.iter().map(|s| s.cost).sum()
    }

    #[test]
    fn get_trace_sums_to_section41_equation() {
        // GET = 10C + 6U + 3V + 3.6/S + 3P + 2L.
        let t = total(&get_trace());
        assert_eq!(t.c_shared + t.c_other, 10.0);
        assert_eq!(t.u, 6.0);
        assert_eq!(t.v, 3.0);
        assert!((t.instr - 3.6).abs() < 1e-12);
        assert_eq!(t.p, 3.0);
        assert_eq!(t.l, 2.0);
        assert_eq!(t.fixed_us, 0.0);
    }

    #[test]
    fn put_trace_sums_to_section41_equation() {
        // PUT = 7C + 4U + 2V + 2.2/S + 2P + L.
        let t = total(&put_trace());
        assert_eq!(t.c_shared + t.c_other, 7.0);
        assert_eq!(t.u, 4.0);
        assert_eq!(t.v, 2.0);
        assert!((t.instr - 2.2).abs() < 1e-12);
        assert_eq!(t.p, 2.0);
        assert_eq!(t.l, 1.0);
    }

    #[test]
    fn measured_g30_latencies_recovered() {
        // Paper: PUT one-way = 18.5 + L µs, GET = 27.5 µs + network.
        let m = MachineParams::G30;
        let put = total(&put_trace()).eval_uniform(&m) - m.net_latency_us;
        assert!((put - 18.5).abs() < 1e-9, "put={put}");
        let get = total(&get_trace()).eval_uniform(&m) - 2.0 * m.net_latency_us;
        assert!((get - 27.5).abs() < 0.1, "get={get}");
    }

    #[test]
    fn user_overhead_is_three_cache_misses() {
        // §4.1: "user overhead amounts to only three cache misses to submit
        // the command" — 2 to enqueue plus 1 to read the sync flag; all are
        // shared-memory misses (accelerated by cache update in MP2).
        let user: Cost = get_trace()
            .iter()
            .filter(|s| s.agent == Agent::User)
            .map(|s| s.cost)
            .sum();
        assert_eq!(user.c_shared, 3.0);
        assert_eq!(user.c_other, 0.0);
        assert_eq!(user.u + user.v + user.p + user.l, 0.0);
    }

    #[test]
    fn trace_spans_three_polling_delays_and_two_transits() {
        let get = total(&get_trace());
        assert_eq!((get.p, get.l), (3.0, 2.0));
        let put = total(&put_trace());
        assert_eq!((put.p, put.l), (2.0, 1.0));
    }

    #[test]
    fn formatting_includes_totals_and_agents() {
        let s = format_trace(&get_trace(), &MachineParams::G30);
        assert!(s.contains("Message Proxy (remote)"));
        assert!(s.contains("Total"));
        assert!(s.contains("29.550"));
    }
}
