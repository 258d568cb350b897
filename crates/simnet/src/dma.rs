//! The per-node DMA engine.
//!
//! "Since pinning is expensive, we use programmed I/O to transfer small
//! blocks and pinned DMA to transfer large blocks of data" (Section 2).
//! Custom hardware pre-pins buffers at setup time and streams at full
//! engine bandwidth; the software approaches (message proxy, system call)
//! dynamically pin and unpin each page around its transfer, which caps
//! their peak bandwidth at `page / (page/bw + pin + unpin)` — exactly the
//! 22.3 and 86.7 MB/s of Table 4.

use mproxy_des::{Dur, Resource, SimCtx};

use crate::wire_us;

/// DMA engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaParams {
    /// Peak engine bandwidth, MB/s.
    pub bandwidth_mbs: f64,
    /// Cost to pin a page before transfer (0 when pre-pinned).
    pub pin_us: f64,
    /// Cost to unpin a page after transfer (0 when pre-pinned).
    pub unpin_us: f64,
    /// Pinning granularity in bytes.
    pub page_bytes: u32,
}

impl DmaParams {
    /// Creates parameters, validating them.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth or page size is non-positive, or pin costs
    /// are negative.
    #[must_use]
    pub fn new(bandwidth_mbs: f64, pin_us: f64, unpin_us: f64, page_bytes: u32) -> Self {
        assert!(bandwidth_mbs > 0.0, "bandwidth must be > 0");
        assert!(page_bytes > 0, "page size must be > 0");
        assert!(pin_us >= 0.0 && unpin_us >= 0.0, "pin costs must be >= 0");
        DmaParams {
            bandwidth_mbs,
            pin_us,
            unpin_us,
            page_bytes,
        }
    }

    /// Total engine time to move `nbytes`, including per-page pin/unpin.
    #[must_use]
    fn transfer_time(&self, nbytes: u32) -> Dur {
        if nbytes == 0 {
            return Dur::ZERO;
        }
        let xfer = wire_us(nbytes, self.bandwidth_mbs);
        let pages = nbytes.div_ceil(self.page_bytes);
        Dur::from_us(xfer + f64::from(pages) * (self.pin_us + self.unpin_us))
    }
}

/// A node's DMA engine: a single-server resource charging each transfer
/// its bytes at engine bandwidth plus pin and unpin for every page.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    params: DmaParams,
    engine: Resource,
}

impl DmaEngine {
    /// Creates a DMA engine.
    #[must_use]
    pub fn new(ctx: &SimCtx, params: DmaParams) -> Self {
        DmaEngine {
            params,
            engine: Resource::new(ctx, 1),
        }
    }

    /// Streams `nbytes` through the engine, contending FIFO with other
    /// transfers on the same node.
    pub async fn transfer(&self, nbytes: u32) {
        if nbytes == 0 {
            return;
        }
        self.engine.hold(self.params.transfer_time(nbytes)).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy_des::Simulation;
    use mproxy_model::{paper_table4, DesignPoint, ALL_DESIGN_POINTS};

    /// Streaming bandwidth of page-sized transfers at a design point's
    /// DMA parameters, MB/s: what the simulator charges for a page.
    fn page_bandwidth_mbs(d: &DesignPoint) -> f64 {
        let p = DmaParams::new(d.dma_bw_mbs, d.pin_us, d.unpin_us, d.page_bytes);
        f64::from(p.page_bytes) / p.transfer_time(p.page_bytes).as_us()
    }

    fn assert_table4_peak(d: &DesignPoint) {
        let paper = paper_table4(d.name).unwrap().peak_bw_mbs;
        let got = page_bandwidth_mbs(d);
        let rel = (got - paper).abs() / paper;
        assert!(rel < 0.005, "{}: {got:.2} vs paper {paper}", d.name);
    }

    #[test]
    fn prepinned_streams_at_engine_bandwidth() {
        // HW0 and HW1 pre-pin: 25.0 and 150.0 MB/s, the engine's own speed
        // up to the nanosecond rounding of the transfer time.
        for d in ALL_DESIGN_POINTS
            .iter()
            .filter(|d| d.pin_us + d.unpin_us == 0.0)
        {
            let rel = (page_bandwidth_mbs(d) - d.dma_bw_mbs).abs() / d.dma_bw_mbs;
            assert!(rel < 1e-4, "{}", d.name);
            assert_table4_peak(d);
        }
    }

    #[test]
    fn pinning_caps_bandwidth_to_table4_values() {
        // The software points pin and unpin each page for 10 + 10 µs:
        // MP0 (25 MB/s engine) → 22.3 MB/s; MP1, MP2, SW1 (150) → 86.7.
        for d in ALL_DESIGN_POINTS
            .iter()
            .filter(|d| d.pin_us + d.unpin_us > 0.0)
        {
            assert_table4_peak(d);
        }
    }

    #[test]
    fn transfer_time_rounds_pages_up() {
        let p = DmaParams::new(100.0, 5.0, 5.0, 4096);
        // 4097 bytes = 2 pages: 40.97 µs wire + 20 µs pinning.
        let t = p.transfer_time(4097);
        assert!((t.as_us() - 60.97).abs() < 0.01);
        assert_eq!(p.transfer_time(0), Dur::ZERO);
    }

    #[test]
    fn engine_contention_serializes() {
        let sim = Simulation::new();
        let ctx = sim.ctx();
        let dma = DmaEngine::new(&ctx, DmaParams::new(100.0, 0.0, 0.0, 4096));
        for _ in 0..2 {
            let dma = dma.clone();
            sim.spawn(async move { dma.transfer(1000).await });
        }
        let r = sim.run();
        // Two 10 µs transfers back to back.
        assert_eq!(r.end.as_us(), 20.0);
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        let sim = Simulation::new();
        let dma = DmaEngine::new(&sim.ctx(), DmaParams::new(100.0, 10.0, 10.0, 4096));
        sim.spawn(async move { dma.transfer(0).await });
        let r = sim.run();
        assert_eq!(r.end.as_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn invalid_bandwidth_rejected() {
        let _ = DmaParams::new(0.0, 1.0, 1.0, 4096);
    }
}
