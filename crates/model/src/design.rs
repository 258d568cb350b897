//! The six design points of the comparative evaluation — Table 3.
//!
//! | point | architecture      | technology  | distinguishing features |
//! |-------|-------------------|-------------|-------------------------|
//! | HW0   | custom hardware   | 1997        | uniprocessor nodes (SHRIMP-like), C = 0.5 µs, DMA 25 MB/s |
//! | HW1   | custom hardware   | next-gen    | SMP nodes, C = 1.0 µs, DMA 150 MB/s |
//! | MP0   | message proxy     | 1997        | the measured G30 system |
//! | MP1   | message proxy     | next-gen    | 2× proxy processor, DMA 150 MB/s |
//! | MP2   | message proxy     | next-gen    | MP1 + cache-update primitive (C' = 0.25 µs) |
//! | SW1   | system calls      | next-gen    | 6.5 µs syscalls and interrupts (aggressive) |
//!
//! Several Table 3 cells are illegible in the archival scan; the values here
//! are fixed by the paper's *legible* Table 4 results (see `DESIGN.md`):
//! e.g. DMA bandwidths of 25 / 150 MB/s and 10 µs pin + 10 µs unpin per
//! 4 KiB page reproduce the measured peak bandwidths 22.3 and 86.7 MB/s
//! exactly.

use crate::cost::Cost;
use crate::latency;
use crate::params::MachineParams;

/// The three architectures for protected communication (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Protection implemented in the network adapter (SHRIMP, Memory
    /// Channel): virtual-memory-mapped communication, pre-pinned buffers.
    CustomHardware,
    /// A trusted kernel process on a dedicated SMP processor mediates all
    /// communication through per-user shared-memory command queues.
    MessageProxy,
    /// The OS user/kernel boundary: system calls out, interrupts in.
    SystemCall,
}

/// A complete parameterisation of one column of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Name used in the paper ("HW0", ..., "SW1").
    pub name: &'static str,
    /// Which protected-communication architecture this point uses.
    pub arch: Arch,
    /// Primitive machine costs (C, U, V, S, L and the polling model).
    pub machine: MachineParams,
    /// Cache-miss latency between compute processors and the proxy
    /// (equals `machine.cache_miss_us` except under cache update — MP2).
    pub shared_miss_us: f64,
    /// Per-operation overhead of the hardware adapter's protocol logic
    /// (custom-hardware points only).
    pub adapter_ovh_us: f64,
    /// Cost of the user's store that submits a command to a hardware
    /// adapter (custom-hardware points only).
    pub hw_submit_us: f64,
    /// System-call overhead (system-call points only).
    pub syscall_us: f64,
    /// Interrupt overhead (system-call points only).
    pub interrupt_us: f64,
    /// In-kernel protocol execution per kernel crossing (system-call only).
    pub kernel_proto_us: f64,
    /// Peak DMA engine bandwidth, MB/s.
    pub dma_bw_mbs: f64,
    /// Network link bandwidth, MB/s.
    pub net_bw_mbs: f64,
    /// Cost to dynamically pin one page before DMA (zero when pre-pinned).
    pub pin_us: f64,
    /// Cost to unpin one page after DMA (zero when pre-pinned).
    pub unpin_us: f64,
    /// Page size for pinning granularity.
    pub page_bytes: u32,
    /// Transfers at or below this size use programmed I/O; larger ones use
    /// pinned DMA (Section 2: "we use PIO to transfer small blocks and
    /// pinned DMA to transfer large blocks").
    pub pio_threshold_bytes: u32,
}

/// HW0: today's custom hardware on uniprocessor nodes (SHRIMP-like).
pub const HW0: DesignPoint = DesignPoint {
    name: "HW0",
    arch: Arch::CustomHardware,
    machine: MachineParams {
        cache_miss_us: 0.5,
        uncached_us: 0.5,
        vm_att_us: 0.65,
        speed: 1.0,
        net_latency_us: 1.0,
        poll_instr_us: 1.5,
        poll_miss_factor: 1.5,
    },
    shared_miss_us: 0.5,
    adapter_ovh_us: 1.65,
    hw_submit_us: 0.5,
    syscall_us: 0.0,
    interrupt_us: 0.0,
    kernel_proto_us: 0.0,
    dma_bw_mbs: 25.0,
    net_bw_mbs: 175.0,
    pin_us: 0.0,
    unpin_us: 0.0,
    page_bytes: 4096,
    pio_threshold_bytes: 512,
};

/// HW1: next-generation custom hardware on SMP nodes.
pub const HW1: DesignPoint = DesignPoint {
    name: "HW1",
    arch: Arch::CustomHardware,
    machine: MachineParams {
        cache_miss_us: 1.0,
        uncached_us: 0.5,
        vm_att_us: 0.65,
        speed: 2.0,
        net_latency_us: 1.0,
        poll_instr_us: 1.5,
        poll_miss_factor: 1.5,
    },
    shared_miss_us: 1.0,
    adapter_ovh_us: 1.0,
    hw_submit_us: 0.5,
    syscall_us: 0.0,
    interrupt_us: 0.0,
    kernel_proto_us: 0.0,
    dma_bw_mbs: 150.0,
    net_bw_mbs: 250.0,
    pin_us: 0.0,
    unpin_us: 0.0,
    page_bytes: 4096,
    pio_threshold_bytes: 512,
};

/// MP0: the measured IBM G30 message-proxy system of Section 4.
pub const MP0: DesignPoint = DesignPoint {
    name: "MP0",
    arch: Arch::MessageProxy,
    machine: MachineParams::G30,
    shared_miss_us: 1.0,
    adapter_ovh_us: 0.0,
    hw_submit_us: 0.0,
    syscall_us: 0.0,
    interrupt_us: 0.0,
    kernel_proto_us: 0.0,
    dma_bw_mbs: 25.0,
    net_bw_mbs: 175.0,
    pin_us: 10.0,
    unpin_us: 10.0,
    page_bytes: 4096,
    pio_threshold_bytes: 512,
};

/// MP1: next-generation message proxy (2× processor speed, 150 MB/s DMA).
pub const MP1: DesignPoint = DesignPoint {
    name: "MP1",
    arch: Arch::MessageProxy,
    machine: MachineParams {
        speed: 2.0,
        ..MachineParams::G30
    },
    shared_miss_us: 1.0,
    adapter_ovh_us: 0.0,
    hw_submit_us: 0.0,
    syscall_us: 0.0,
    interrupt_us: 0.0,
    kernel_proto_us: 0.0,
    dma_bw_mbs: 150.0,
    net_bw_mbs: 250.0,
    pin_us: 10.0,
    unpin_us: 10.0,
    page_bytes: 4096,
    pio_threshold_bytes: 512,
};

/// MP2: MP1 plus the cache-update primitive — 0.25 µs proxy↔compute misses.
pub const MP2: DesignPoint = DesignPoint {
    name: "MP2",
    arch: Arch::MessageProxy,
    machine: MachineParams {
        speed: 2.0,
        ..MachineParams::G30
    },
    shared_miss_us: 0.25,
    adapter_ovh_us: 0.0,
    hw_submit_us: 0.0,
    syscall_us: 0.0,
    interrupt_us: 0.0,
    kernel_proto_us: 0.0,
    dma_bw_mbs: 150.0,
    net_bw_mbs: 250.0,
    pin_us: 10.0,
    unpin_us: 10.0,
    page_bytes: 4096,
    pio_threshold_bytes: 512,
};

/// SW1: next-generation system-call communication with very aggressive
/// 6.5 µs syscall and interrupt overheads.
pub const SW1: DesignPoint = DesignPoint {
    name: "SW1",
    arch: Arch::SystemCall,
    machine: MachineParams {
        speed: 2.0,
        ..MachineParams::G30
    },
    shared_miss_us: 1.0,
    adapter_ovh_us: 0.0,
    hw_submit_us: 0.0,
    syscall_us: 6.5,
    interrupt_us: 6.5,
    kernel_proto_us: 2.5,
    dma_bw_mbs: 150.0,
    net_bw_mbs: 250.0,
    pin_us: 10.0,
    unpin_us: 10.0,
    page_bytes: 4096,
    pio_threshold_bytes: 512,
};

/// All six design points in the paper's column order.
pub const ALL_DESIGN_POINTS: [DesignPoint; 6] = [HW0, HW1, MP0, MP1, MP2, SW1];

impl DesignPoint {
    /// The effective polling delay `P` for this point (shared-memory scan
    /// probes benefit from cache update).
    #[must_use]
    pub fn polling_us(&self) -> f64 {
        self.machine.polling_delay_us(self.shared_miss_us)
    }

    fn eval(&self, cost: Cost) -> f64 {
        cost.eval(&self.machine, self.shared_miss_us)
    }

    /// Analytic prediction of the one-word GET latency (Table 4 row 2).
    #[must_use]
    pub fn predicted_get_us(&self) -> f64 {
        let m = &self.machine;
        let c = m.cache_miss_us;
        let l = m.net_latency_us;
        match self.arch {
            Arch::MessageProxy => self.eval(latency::get_latency()),
            Arch::CustomHardware => {
                // Submit store, three adapter passes, two transits, and four
                // coherent bus interactions (remote fetch, local deliver,
                // set lsync, read lsync).
                self.hw_submit_us + 3.0 * self.adapter_ovh_us + 2.0 * l + 4.0 * c
            }
            Arch::SystemCall => {
                // Syscall out, interrupt at the remote, interrupt for the
                // reply, kernel protocol at each crossing, five misses.
                3.0 * (self.syscall_us + self.kernel_proto_us) + 2.0 * l + 5.0 * c
            }
        }
    }

    /// Analytic prediction of the PUT latency until the local sync flag is
    /// observed set (Table 4 row 1).
    #[must_use]
    pub fn predicted_put_rt_us(&self) -> f64 {
        let c = self.machine.cache_miss_us;
        match self.arch {
            Arch::MessageProxy => self.eval(latency::put_roundtrip_latency()),
            Arch::CustomHardware => self.predicted_get_us() + c,
            Arch::SystemCall => {
                3.0 * (self.syscall_us + self.kernel_proto_us)
                    + 2.0 * self.machine.net_latency_us
                    + 4.0 * c
            }
        }
    }

    /// Analytic prediction of the compute-processor overhead of a PUT with
    /// completion detection (Table 4 row 3).
    #[must_use]
    pub fn predicted_overhead_us(&self) -> f64 {
        match self.arch {
            Arch::MessageProxy => self.eval(latency::rma_overhead()),
            Arch::CustomHardware => self.hw_submit_us + self.machine.cache_miss_us,
            Arch::SystemCall => 2.0 * self.syscall_us + self.kernel_proto_us,
        }
    }
}

/// The paper's measured Table 4 values, used as calibration targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Row {
    /// PUT latency to local-sync completion, µs.
    pub put_rt_us: f64,
    /// GET latency, µs.
    pub get_us: f64,
    /// PUT + sync compute-processor overhead, µs.
    pub overhead_us: f64,
    /// Active-message request/reply round trip, µs.
    pub am_rt_us: f64,
    /// Peak PUT bandwidth, MB/s.
    pub peak_bw_mbs: f64,
}

/// Table 4 of the paper, in design-point order (HW0, HW1, MP0, MP1, MP2,
/// SW1).
pub const PAPER_TABLE4: [(&str, Table4Row); 6] = [
    (
        "HW0",
        Table4Row {
            put_rt_us: 10.0,
            get_us: 9.5,
            overhead_us: 1.0,
            am_rt_us: 28.2,
            peak_bw_mbs: 25.0,
        },
    ),
    (
        "HW1",
        Table4Row {
            put_rt_us: 10.6,
            get_us: 9.6,
            overhead_us: 1.5,
            am_rt_us: 30.2,
            peak_bw_mbs: 150.0,
        },
    ),
    (
        "MP0",
        Table4Row {
            put_rt_us: 30.0,
            get_us: 28.0,
            overhead_us: 3.5,
            am_rt_us: 63.5,
            peak_bw_mbs: 22.3,
        },
    ),
    (
        "MP1",
        Table4Row {
            put_rt_us: 26.6,
            get_us: 24.7,
            overhead_us: 3.0,
            am_rt_us: 58.0,
            peak_bw_mbs: 86.7,
        },
    ),
    (
        "MP2",
        Table4Row {
            put_rt_us: 16.9,
            get_us: 16.4,
            overhead_us: 0.75,
            am_rt_us: 41.1,
            peak_bw_mbs: 86.7,
        },
    ),
    (
        "SW1",
        Table4Row {
            put_rt_us: 36.1,
            get_us: 34.1,
            overhead_us: 15.0,
            am_rt_us: 107.8,
            peak_bw_mbs: 86.7,
        },
    ),
];

/// Paper target for a design point, if it appears in Table 4.
#[must_use]
pub fn paper_table4(name: &str) -> Option<Table4Row> {
    PAPER_TABLE4
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, row)| *row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / b
    }

    #[test]
    fn all_points_validate() {
        for d in ALL_DESIGN_POINTS {
            d.machine.validate().unwrap();
            assert!(d.shared_miss_us > 0.0);
            assert!(d.dma_bw_mbs > 0.0 && d.net_bw_mbs > 0.0);
        }
    }

    #[test]
    fn only_mp2_has_cache_update() {
        for d in ALL_DESIGN_POINTS {
            let cache_update = d.shared_miss_us < d.machine.cache_miss_us;
            assert_eq!(cache_update, d.name == "MP2", "{}", d.name);
        }
    }

    #[test]
    fn predicted_latencies_within_ten_percent_of_table4() {
        for d in ALL_DESIGN_POINTS {
            let t = paper_table4(d.name).unwrap();
            assert!(
                rel_err(d.predicted_get_us(), t.get_us) < 0.10,
                "{} GET: predicted {:.2} vs paper {:.2}",
                d.name,
                d.predicted_get_us(),
                t.get_us
            );
            assert!(
                rel_err(d.predicted_put_rt_us(), t.put_rt_us) < 0.10,
                "{} PUT*: predicted {:.2} vs paper {:.2}",
                d.name,
                d.predicted_put_rt_us(),
                t.put_rt_us
            );
        }
    }

    #[test]
    fn predicted_overheads_close_to_table4() {
        for d in ALL_DESIGN_POINTS {
            let t = paper_table4(d.name).unwrap();
            let diff = (d.predicted_overhead_us() - t.overhead_us).abs();
            assert!(
                diff < 0.6,
                "{} overhead: predicted {:.2} vs paper {:.2}",
                d.name,
                d.predicted_overhead_us(),
                t.overhead_us
            );
        }
    }

    #[test]
    fn peak_bandwidth_identities_are_exact() {
        // The pin/DMA parameters were *derived* from the Table 4 peak
        // bandwidth cells: a page streams at the slower of DMA and wire,
        // plus pin + unpin per page. Check the round trip.
        for d in ALL_DESIGN_POINTS {
            let wire = d.dma_bw_mbs.min(d.net_bw_mbs);
            let page = f64::from(d.page_bytes);
            let peak = page / (page / wire + d.pin_us + d.unpin_us);
            let paper = paper_table4(d.name).unwrap().peak_bw_mbs;
            assert!(
                rel_err(peak, paper) < 0.005,
                "{}: {peak:.2} vs {paper}",
                d.name
            );
        }
        assert_eq!(HW0.dma_bw_mbs.min(HW0.net_bw_mbs), 25.0);
        assert_eq!(HW1.dma_bw_mbs.min(HW1.net_bw_mbs), 150.0);
    }

    #[test]
    fn proxy_latency_about_2_5x_custom_hardware() {
        // §5.2: "Message proxy latency is about 2.5 times longer than
        // custom hardware" (MP0/MP1 vs HW0/HW1).
        let ratio = MP1.predicted_get_us() / HW1.predicted_get_us();
        assert!((2.0..=3.2).contains(&ratio), "ratio = {ratio:.2}");
    }

    #[test]
    fn mp2_recovers_most_of_the_overhead_gap() {
        // §5.2: "a cache-update primitive removes most of that overhead".
        let gap_mp1 = MP1.predicted_overhead_us() - HW1.predicted_overhead_us();
        let gap_mp2 = MP2.predicted_overhead_us() - HW1.predicted_overhead_us();
        assert!(gap_mp2 < 0.0, "MP2 overhead should drop below HW1");
        assert!(gap_mp1 > 1.0);
    }

    #[test]
    fn sw1_overhead_is_an_order_worse() {
        assert!(SW1.predicted_overhead_us() > 4.0 * MP1.predicted_overhead_us());
    }

    #[test]
    fn polling_delays_ordered_mp0_mp1_mp2() {
        assert!(MP0.polling_us() > MP1.polling_us());
        assert!(MP1.polling_us() > MP2.polling_us());
        assert_eq!(MP0.polling_us(), 3.0);
    }
}
