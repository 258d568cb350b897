//! Step-cost tables: what each protocol step costs at a design point.
//!
//! Section 2 / Figure 2 of the paper contrast message proxies, custom
//! hardware and system calls as the *same* RMA + RQ protocol that differs
//! in where protocol work runs and what each step costs; §4.1 / Table 2
//! write the step costs down as sums of the Table 1 primitives. A
//! [`StepCosts`] is that table for one [`DesignPoint`]: one named entry
//! per step, built once at `Cluster::new`, read by the one protocol
//! implementation in [`super::protocol`] and by the user-side charges in
//! `process.rs`.
//!
//! A step an architecture does not perform is **absent** (`None`), never
//! zero: an absent step charges nothing and schedules no event, so the
//! simulated event stream of a hardware adapter contains no trace of the
//! proxy's `vm_att`.
//!
//! * **Message proxy** (Sections 2 and 4): a trusted proxy on a dedicated
//!   processor runs the Figure 5 polling loop. Every Table 2 row is
//!   priced: `C'` for proxy↔compute misses (0.25 µs under MP2's cache
//!   update), `C` for adapter-data misses, `U` per uncached FIFO access,
//!   `V` per `vm_att`, `P` per polling scan, instruction work scaled by
//!   `1/S`.
//! * **Custom hardware** (SHRIMP / Memory Channel style): protection comes
//!   from virtual-memory mapping, and a hardware state machine consumes
//!   the input FIFO. One `adapter_ovh_us` pass per command or packet plus
//!   one coherent bus transaction (`C`) per line, pointer or flag it
//!   touches. Buffers are pinned at setup, so receive DMA streams for
//!   free — the bias in the paper's own methodology ("the models and
//!   parameters favor the custom hardware ... design points").
//! * **System call**: a kernel crossing (`syscall_us` out, `interrupt_us`
//!   in) plus `kernel_proto_us` of in-kernel protocol per crossing, on the
//!   *compute* processor. Locking costs a real SMP kernel needs are not
//!   charged, matching the paper's favourable-to-SW1 bias.
//!
//! [`DesignPoint`]: mproxy_model::DesignPoint

use mproxy_model::{Arch, DesignPoint};

/// Library-call instructions (µs at `S = 1`) a user process spends around
/// a command submission and around a completing flag read. Table 2 lists
/// only the cache misses of those two user steps.
const USER_LIB_INSTR_US: f64 = 0.25;

/// The price of one step: `units · per_line + fixed` microseconds. The
/// unit is a 64-byte cache line, except for [`StepCosts::rx_dma_pin`],
/// which counts pages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct StepCost {
    pub(crate) per_line: f64,
    pub(crate) fixed: f64,
}

impl StepCost {
    /// Microseconds for a step touching `units` lines (0 for a step that
    /// moves no data).
    pub(crate) fn us(&self, units: u32) -> f64 {
        f64::from(units) * self.per_line + self.fixed
    }
}

fn fixed(us: f64) -> StepCost {
    StepCost {
        per_line: 0.0,
        fixed: us,
    }
}

fn per_line(us: f64) -> StepCost {
    StepCost {
        per_line: us,
        fixed: 0.0,
    }
}

/// One design point's step costs. Entries every architecture performs are
/// plain [`StepCost`]s; the rest are `Option`s, `None` where the
/// architecture has no such step. Quoted names are Table 2 rows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct StepCosts {
    // ----- charged on the user's compute processor -----
    /// Writing a command into the agent's queue ("enq command": two `C'`
    /// plus the library call; one store to a hardware adapter). Absent
    /// under system calls, where the caller traps and runs
    /// [`Self::cmd_dispatch`] onwards itself.
    pub(crate) user_submit: Option<StepCost>,
    /// The completing read of a synchronisation flag.
    pub(crate) flag_read: StepCost,
    /// Taking an item from one's own queue: head pointer + payload head.
    pub(crate) rq_take: StepCost,
    /// A same-node operation through shared memory: `fixed` is the
    /// submission, `per_line` the copy (a read and a write miss).
    pub(crate) intra_node: StepCost,

    // ----- sending side -----
    /// Picking a command up: polling delay, `vm_att` to the queue,
    /// dequeue, decode + CCB, dispatch (one adapter pass; kernel entry +
    /// protocol).
    pub(crate) cmd_dispatch: StepCost,
    /// "Set up network packet header" of a PUT or ENQ.
    pub(crate) header: Option<StepCost>,
    /// "Fill in data", per line moved into the output FIFO by PIO.
    pub(crate) data_out: StepCost,
    /// "Launch packet".
    pub(crate) launch: Option<StepCost>,
    /// Header + launch of a data-less GET/DEQ request, before its CCB is
    /// filed.
    pub(crate) request_build: Option<StepCost>,
    /// The launching FIFO store of a GET/DEQ request, after its CCB is
    /// filed.
    pub(crate) request_launch: Option<StepCost>,

    // ----- receiving side -----
    /// Picking a packet up: polling delay, header read miss, decode (one
    /// adapter pass; interrupt entry + protocol).
    pub(crate) pkt_dispatch: StepCost,
    /// "Compute remote address, check validity" + `vm_att` to the target
    /// space + "address and packet size check".
    pub(crate) check_attach: Option<StepCost>,
    /// "Read packet data" + "store to destination", per line by PIO.
    pub(crate) data_in: StepCost,
    /// Dynamic pin + unpin, per **page**, around a receive-side DMA (the
    /// engine streams concurrently with the wire, so this is all the
    /// agent pays). Absent where buffers are pinned at setup.
    pub(crate) rx_dma_pin: Option<StepCost>,
    /// "Set sync. register" (write miss).
    pub(crate) flag_set: StepCost,
    /// Building and launching the acknowledgement of a PUT/ENQ that asked
    /// for an `lsync`.
    pub(crate) ack_build: Option<StepCost>,
    /// "Set up network packet header" of a GET/DEQ reply.
    pub(crate) reply_header: Option<StepCost>,
    /// `vm_att` to the local space + "find local addr in CCB" on a reply.
    pub(crate) ccb_lookup: Option<StepCost>,
    /// CCB lookup for an acknowledgement (no address space to attach).
    pub(crate) ack_lookup: Option<StepCost>,

    // ----- remote queues -----
    /// Storing an ENQ payload: [`Self::data_in`], plus the queue-pointer
    /// update where the architecture folds it into the same pass.
    pub(crate) enq_in: StepCost,
    /// Queue-pointer update as a step of its own.
    pub(crate) queue_update: Option<StepCost>,
    /// Filling a DEQ reply: [`Self::data_out`], plus the pointer update
    /// where folded in.
    pub(crate) deq_out: StepCost,
    /// Header + launch of the reply to a DEQ that found the queue empty.
    pub(crate) deq_empty_reply: Option<StepCost>,
    /// Rebuilding and launching a DEQ request after an empty reply.
    pub(crate) deq_reprobe: StepCost,
}

impl StepCosts {
    /// The table for `d`. This and the driver choice in `Cluster::new` /
    /// `Proc::dispatch` are the only places that look at [`Arch`].
    pub(crate) fn new(d: &DesignPoint) -> StepCosts {
        match d.arch {
            Arch::MessageProxy => StepCosts::message_proxy(d),
            Arch::CustomHardware => StepCosts::custom_hardware(d),
            Arch::SystemCall => StepCosts::system_call(d),
        }
    }

    fn message_proxy(d: &DesignPoint) -> StepCosts {
        let cq = d.shared_miss_us; // C': proxy <-> compute miss
        let c = d.machine.cache_miss_us; // C: adapter-data miss
        let u = d.machine.uncached_us;
        let v = d.machine.vm_att_us;
        let p = d.polling_us();
        let s = d.machine.speed;
        let instr = |us: f64| us / s;
        let submit = 2.0 * cq + USER_LIB_INSTR_US / s;
        StepCosts {
            user_submit: Some(fixed(submit)),
            flag_read: fixed(cq + USER_LIB_INSTR_US / s),
            rq_take: fixed(2.0 * cq),
            intra_node: StepCost {
                per_line: 2.0 * cq,
                fixed: submit,
            },
            cmd_dispatch: fixed(p + v + cq + instr(0.5) + instr(0.1)),
            header: Some(fixed(u + instr(0.6))),
            data_out: per_line(cq + u),
            launch: Some(fixed(u)),
            request_build: Some(fixed(u + instr(0.6) + u)),
            request_launch: None,
            pkt_dispatch: fixed(p + c + instr(0.4)),
            check_attach: Some(fixed(instr(0.1) + v + instr(0.3))),
            data_in: per_line(u + cq),
            rx_dma_pin: Some(per_line(d.pin_us + d.unpin_us)),
            flag_set: fixed(cq),
            ack_build: Some(fixed(u + instr(0.6) + u)),
            reply_header: Some(fixed(u + instr(0.7))),
            ccb_lookup: Some(fixed(v + instr(0.5))),
            ack_lookup: Some(fixed(instr(0.5))),
            enq_in: per_line(u + cq),
            queue_update: Some(fixed(cq + instr(0.2))),
            deq_out: per_line(cq + u),
            deq_empty_reply: Some(fixed(u + instr(0.3) + u)),
            deq_reprobe: fixed(instr(0.2) + u + u),
        }
    }

    fn custom_hardware(d: &DesignPoint) -> StepCosts {
        let a = d.adapter_ovh_us; // one pass of the adapter's protocol logic
        let c = d.machine.cache_miss_us; // coherent bus transaction
        StepCosts {
            user_submit: Some(fixed(d.hw_submit_us)),
            flag_read: fixed(c),
            rq_take: fixed(2.0 * c),
            intra_node: StepCost {
                per_line: 2.0 * c,
                fixed: d.hw_submit_us,
            },
            cmd_dispatch: fixed(a),
            data_out: per_line(c),
            pkt_dispatch: fixed(a),
            data_in: per_line(c),
            flag_set: fixed(c),
            enq_in: per_line(c),
            queue_update: Some(fixed(c)),
            deq_out: per_line(c),
            deq_reprobe: fixed(a),
            // No header, launch, vm_att, CCB lookup, ack build or pinning:
            // the adapter pass covers the protocol, mapping covers
            // protection, and buffers are pinned at setup.
            ..StepCosts::default()
        }
    }

    fn system_call(d: &DesignPoint) -> StepCosts {
        let kp = d.kernel_proto_us; // in-kernel protocol work per crossing
        let c = d.machine.cache_miss_us;
        let u = d.machine.uncached_us;
        StepCosts {
            flag_read: fixed(c),
            rq_take: fixed(2.0 * c),
            intra_node: StepCost {
                per_line: 2.0 * c,
                fixed: d.syscall_us + kp,
            },
            cmd_dispatch: fixed(d.syscall_us + kp),
            data_out: per_line(c + u),
            request_launch: Some(fixed(u)),
            pkt_dispatch: fixed(d.interrupt_us + kp),
            data_in: per_line(u + c),
            rx_dma_pin: Some(per_line(d.pin_us + d.unpin_us)),
            flag_set: fixed(c),
            ack_build: Some(fixed(u)),
            // The kernel updates the queue pointer in the pass that moves
            // the data.
            enq_in: StepCost {
                per_line: u + c,
                fixed: c,
            },
            deq_out: StepCost {
                per_line: c + u,
                fixed: c,
            },
            deq_reprobe: fixed(kp),
            // No user_submit (the caller traps instead), and the kernel
            // path pays no polling, vm_att, header or launch.
            ..StepCosts::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy_model::{
        get_trace, put_trace, Cost, TraceStep, ALL_DESIGN_POINTS, HW0, HW1, MP0, MP1, MP2, SW1,
    };

    /// Sums table steps along a critical path (`units` lines each).
    fn path_us(steps: &[(Option<StepCost>, u32)]) -> f64 {
        steps
            .iter()
            .map(|(c, units)| {
                c.expect("a message proxy prices every Table 2 row")
                    .us(*units)
            })
            .sum()
    }

    fn trace_total(steps: &[TraceStep]) -> Cost {
        steps.iter().map(|s| s.cost).sum()
    }

    /// The message-proxy table, summed along the one-word GET and PUT
    /// critical paths, is the analytic Table 2 trace — on the G30 with
    /// plain and with cache-update shared misses — up to two residuals the
    /// simulator has always carried, named here so they cannot drift.
    #[test]
    fn message_proxy_table_is_table_2() {
        for shared_miss_us in [MP1.shared_miss_us, MP2.shared_miss_us] {
            // MP0 is the measured G30.
            let d = DesignPoint {
                shared_miss_us,
                ..MP0
            };
            let m = &d.machine;
            let t = StepCosts::new(&d);
            let s = Some;
            let transit = m.net_latency_us;

            let get = path_us(&[
                (t.user_submit, 0),
                (s(t.cmd_dispatch), 0),
                (t.request_build, 0), // header + launch
                (s(t.pkt_dispatch), 0),
                (t.check_attach, 0),
                (t.reply_header, 0),
                (s(t.data_out), 1),
                (s(t.flag_set), 0), // rsync
                (t.launch, 0),
                (s(t.pkt_dispatch), 0),
                (t.ccb_lookup, 0),
                (s(t.data_in), 1),
                (s(t.flag_set), 0), // lsync
                (s(t.flag_read), 0),
            ]) + 2.0 * transit;
            // Residual: the library call around the submit and around the
            // flag read; Table 2 lists those two user steps as misses only.
            let lib = Cost::instr(2.0 * USER_LIB_INSTR_US);
            let want = (trace_total(&get_trace()) + lib).eval(m, shared_miss_us);
            assert!((get - want).abs() < 1e-9, "GET {get} vs trace {want}");

            let put = path_us(&[
                (t.user_submit, 0),
                (s(t.cmd_dispatch), 0),
                (t.header, 0),
                (s(t.data_out), 1),
                (t.launch, 0),
                (s(t.pkt_dispatch), 0),
                (t.check_attach, 0),
                (s(t.data_in), 1),
                (s(t.flag_set), 0), // rsync
            ]) + transit;
            // Residuals: the submit's library call, and "compute remote
            // address, check validity", which the reconstructed PUT trace
            // prices at 0.3/S and the simulator (one `check_attach` for
            // every request) at GET's 0.1/S.
            let residual = Cost::instr(USER_LIB_INSTR_US - 0.2);
            let want = (trace_total(&put_trace()) + residual).eval(m, shared_miss_us);
            assert!((put - want).abs() < 1e-9, "PUT {put} vs trace {want}");
        }
    }

    /// Custom hardware and system calls have *no* entry for the
    /// proxy-only steps, so a later edit cannot turn an absent step into a
    /// zero-delay event; and their dispatch entries contain no polling.
    #[test]
    fn adapter_and_kernel_tables_lack_the_proxy_only_steps() {
        for d in [HW0, HW1, SW1] {
            let t = StepCosts::new(&d);
            let proxy_only = [
                ("header", t.header),
                ("launch", t.launch),
                ("request_build", t.request_build),
                ("check_attach (vm_att)", t.check_attach),
                ("reply_header", t.reply_header),
                ("ccb_lookup (vm_att)", t.ccb_lookup),
                ("ack_lookup", t.ack_lookup),
                ("deq_empty_reply", t.deq_empty_reply),
            ];
            for (name, step) in proxy_only {
                assert_eq!(step, None, "{}: {name}", d.name);
            }
        }
        for d in [HW0, HW1] {
            let t = StepCosts::new(&d);
            assert_eq!(t.cmd_dispatch, fixed(d.adapter_ovh_us));
            assert_eq!(t.pkt_dispatch, fixed(d.adapter_ovh_us));
            assert_eq!(
                (t.request_launch, t.ack_build, t.rx_dma_pin),
                (None, None, None)
            );
        }
        let t = StepCosts::new(&SW1);
        assert_eq!(t.cmd_dispatch, fixed(SW1.syscall_us + SW1.kernel_proto_us));
        assert_eq!(
            t.pkt_dispatch,
            fixed(SW1.interrupt_us + SW1.kernel_proto_us)
        );
        assert_eq!((t.user_submit, t.queue_update), (None, None));
    }

    /// The hardware and system-call constructors fill the rest of the
    /// table from `Default`; every step all three architectures perform
    /// must still have been priced.
    #[test]
    fn shared_steps_are_priced_at_every_design_point() {
        for d in ALL_DESIGN_POINTS {
            let t = StepCosts::new(&d);
            let shared = [
                t.flag_read,
                t.rq_take,
                t.intra_node,
                t.cmd_dispatch,
                t.data_out,
                t.pkt_dispatch,
                t.data_in,
                t.flag_set,
                t.enq_in,
                t.deq_out,
                t.deq_reprobe,
            ];
            for (i, step) in shared.iter().enumerate() {
                assert!(step.us(1) > 0.0, "{}: shared step #{i} unpriced", d.name);
            }
        }
    }
}
