//! Network adapters and the switch.
//!
//! Each node's adapter presents "an input and output FIFO interface to the
//! network" (Section 4). The output port is a FIFO-fair [`Resource`] that
//! serialises packets at link bandwidth; the switch adds a fixed transit
//! latency and delivers into the destination node's input FIFO channel.
//! Per-link ordering is preserved: serialisation completes in FIFO order
//! and every packet sees the same transit latency.

use std::rc::Rc;

use mproxy_des::{Channel, Dur, Resource, SimCtx};

use crate::fault::FaultState;
use crate::{wire_us, FaultPlan, HEADER_BYTES};

/// Index of a node (an SMP chassis) in the cluster.
pub type NodeId = usize;

/// Latency and bandwidth of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way transit latency, µs.
    pub latency_us: f64,
    /// Link bandwidth, MB/s.
    pub bandwidth_mbs: f64,
}

impl LinkParams {
    /// Creates link parameters.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive or non-finite.
    #[must_use]
    pub fn new(latency_us: f64, bandwidth_mbs: f64) -> Self {
        assert!(
            latency_us.is_finite() && latency_us >= 0.0,
            "latency must be finite and >= 0"
        );
        assert!(
            bandwidth_mbs.is_finite() && bandwidth_mbs > 0.0,
            "bandwidth must be finite and > 0"
        );
        LinkParams {
            latency_us,
            bandwidth_mbs,
        }
    }

    /// Serialisation time of a packet with `payload` bytes (header added).
    #[must_use]
    pub fn serialize_time(&self, payload_bytes: u32) -> Dur {
        Dur::from_us(wire_us(payload_bytes + HEADER_BYTES, self.bandwidth_mbs))
    }

    /// Transit latency as a duration.
    #[must_use]
    pub fn transit(&self) -> Dur {
        Dur::from_us(self.latency_us)
    }
}

/// A packet in flight: a typed message plus accounting metadata.
#[derive(Debug, Clone)]
pub struct Packet<M> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Protocol message (defined by the layer above).
    pub message: M,
    /// Payload size in bytes, used for serialisation timing and statistics
    /// (headers are accounted separately).
    pub payload_bytes: u32,
    /// Link-layer sequence number stamped by [`NetPort::send_tagged`]
    /// (0 = unsequenced; plain [`NetPort::send`] always stamps 0).
    pub seq: u64,
    /// Sender-computed payload checksum (0 for unsequenced traffic unless
    /// the sender chose otherwise).
    pub checksum: u64,
    /// Set by fault injection when the payload was damaged in flight. The
    /// message content itself is left intact so the simulation stays
    /// deterministic; receivers treat this flag as a checksum mismatch.
    pub corrupted: bool,
}

struct AdapterShared<M> {
    node: NodeId,
    tx_port: Resource,
    rx_fifo: Channel<Packet<M>>,
    link: LinkParams,
    ctx: SimCtx,
    faults: Option<Rc<FaultState>>,
}

/// One node's network adapter: a serialising output port plus an input
/// FIFO.
///
/// Cloneable; all clones refer to the same adapter.
pub struct Adapter<M> {
    shared: std::rc::Rc<AdapterShared<M>>,
}

impl<M> Clone for Adapter<M> {
    fn clone(&self) -> Self {
        Adapter {
            shared: std::rc::Rc::clone(&self.shared),
        }
    }
}

impl<M: 'static> Adapter<M> {
    /// Receives the next packet from this node's input FIFO.
    pub async fn recv(&self) -> Option<Packet<M>> {
        self.shared.rx_fifo.recv().await
    }

    /// Non-blocking poll of the input FIFO.
    pub fn try_recv(&self) -> Option<Packet<M>> {
        self.shared.rx_fifo.try_recv()
    }

    /// The input FIFO channel itself (for proxies that multiplex it with
    /// command queues).
    #[must_use]
    pub fn rx_fifo(&self) -> Channel<Packet<M>> {
        self.shared.rx_fifo.clone()
    }

    /// Utilisation of the output port since simulation start.
    #[must_use]
    pub fn tx_utilization(&self) -> f64 {
        self.shared.tx_port.utilization(self.shared.ctx.now())
    }

    /// Number of packets transmitted.
    #[must_use]
    pub fn packets_sent(&self) -> u64 {
        self.shared.tx_port.acquisitions()
    }

    /// This adapter's node id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// Link parameters of the attached network.
    #[must_use]
    pub fn link(&self) -> LinkParams {
        self.shared.link
    }
}

impl<M> std::fmt::Debug for Adapter<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adapter")
            .field("node", &self.shared.node)
            .finish()
    }
}

/// The cluster interconnect: one adapter per node plus a latency-only
/// switch.
pub struct Network<M> {
    adapters: Vec<Adapter<M>>,
    link: LinkParams,
    faults: Option<Rc<FaultState>>,
}

impl<M: 'static> Network<M> {
    /// Builds a network of `nodes` adapters joined by a switch with the
    /// given link parameters.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(ctx: &SimCtx, nodes: usize, link: LinkParams) -> Self {
        Self::build(ctx, nodes, link, None)
    }

    /// Builds a network whose packet deliveries are subjected to `plan`'s
    /// seeded faults. The plan's stall windows are *not* enforced here
    /// (the network keeps delivering into input FIFOs); the protocol layer
    /// queries [`Network::fault_state`] to freeze its agents.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn with_faults(ctx: &SimCtx, nodes: usize, link: LinkParams, plan: FaultPlan) -> Self {
        Self::build(ctx, nodes, link, Some(FaultState::new(plan)))
    }

    fn build(
        ctx: &SimCtx,
        nodes: usize,
        link: LinkParams,
        faults: Option<Rc<FaultState>>,
    ) -> Self {
        assert!(nodes > 0, "network needs at least one node");
        let adapters = (0..nodes)
            .map(|node| Adapter {
                shared: std::rc::Rc::new(AdapterShared {
                    node,
                    tx_port: Resource::new(ctx, 1),
                    rx_fifo: Channel::unbounded(),
                    link,
                    ctx: ctx.clone(),
                    faults: faults.clone(),
                }),
            })
            .collect();
        Network {
            adapters,
            link,
            faults,
        }
    }

    /// The shared fault state, if this network was built with faults.
    #[must_use]
    pub fn fault_state(&self) -> Option<Rc<FaultState>> {
        self.faults.clone()
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.adapters.len()
    }

    /// True if the network has no nodes (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adapters.is_empty()
    }

    /// Link parameters.
    #[must_use]
    pub fn link(&self) -> LinkParams {
        self.link
    }

    /// A handle to node `node`'s adapter.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn adapter(&self, node: NodeId) -> NetPort<M> {
        assert!(node < self.adapters.len(), "node {node} out of range");
        NetPort {
            local: self.adapters[node].clone(),
            peers: self.adapters.clone(),
        }
    }
}

impl<M> std::fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.adapters.len())
            .field("link", &self.link)
            .finish()
    }
}

/// A node's view of the network: its own adapter plus switch routes to
/// every peer.
pub struct NetPort<M> {
    local: Adapter<M>,
    peers: Vec<Adapter<M>>,
}

impl<M> Clone for NetPort<M> {
    fn clone(&self) -> Self {
        NetPort {
            local: self.local.clone(),
            peers: self.peers.clone(),
        }
    }
}

impl<M: Clone + 'static> NetPort<M> {
    /// Sends `message` to node `dst`: serialise on the local output port,
    /// transit the switch, deliver into `dst`'s input FIFO.
    ///
    /// Returns once the packet has left the local output port.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub async fn send(&self, dst: NodeId, message: M, payload_bytes: u32) {
        self.send_tagged(dst, message, payload_bytes, 0, 0).await;
    }

    /// Like [`NetPort::send`] but stamps a link-layer sequence number and
    /// checksum onto the packet. On a faulty network this is also where
    /// the packet's fate (drop/duplicate/reorder/corrupt) is decided —
    /// after serialisation, so lost packets still consumed wire time.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub async fn send_tagged(
        &self,
        dst: NodeId,
        message: M,
        payload_bytes: u32,
        seq: u64,
        checksum: u64,
    ) {
        assert!(
            dst < self.peers.len(),
            "destination node {dst} out of range"
        );
        let s = &self.local.shared;
        s.tx_port.hold(s.link.serialize_time(payload_bytes)).await;
        let fate = match &s.faults {
            Some(f) => f.judge(),
            None => crate::Fate::default(),
        };
        if fate.drop {
            return;
        }
        let mk = |message: M, corrupted: bool| Packet {
            src: s.node,
            dst,
            message,
            payload_bytes,
            seq,
            checksum,
            corrupted,
        };
        let rx = self.peers[dst].shared.rx_fifo.clone();
        let transit = s.link.transit();
        if fate.duplicate {
            let dup = mk(message.clone(), false);
            let rx = rx.clone();
            let delay = transit + Dur::from_us(fate.dup_extra_us);
            s.ctx.call_after(delay, move || {
                let _ = rx.try_send(dup);
            });
        }
        let pkt = mk(message, fate.corrupt);
        let delay = transit + Dur::from_us(fate.extra_us);
        s.ctx.call_after(delay, move || {
            let _ = rx.try_send(pkt);
        });
    }

    /// Receives the next packet addressed to this node.
    pub async fn recv(&self) -> Option<Packet<M>> {
        self.local.recv().await
    }

    /// Non-blocking poll of this node's input FIFO.
    pub fn try_recv(&self) -> Option<Packet<M>> {
        self.local.try_recv()
    }

    /// The local input FIFO (for multiplexed polling loops).
    #[must_use]
    pub fn rx_fifo(&self) -> Channel<Packet<M>> {
        self.local.rx_fifo()
    }

    /// The local node id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.local.node()
    }

    /// Number of nodes reachable.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.peers.len()
    }

    /// Link parameters.
    #[must_use]
    pub fn link(&self) -> LinkParams {
        self.local.link()
    }

    /// Utilisation of the local output port.
    #[must_use]
    pub fn tx_utilization(&self) -> f64 {
        self.local.tx_utilization()
    }

    /// Packets sent from this node.
    #[must_use]
    pub fn packets_sent(&self) -> u64 {
        self.local.packets_sent()
    }
}

impl<M> std::fmt::Debug for NetPort<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetPort")
            .field("node", &self.local.shared.node)
            .field("nodes", &self.peers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy_des::Simulation;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn two_node_net(sim: &Simulation) -> Network<u32> {
        Network::new(&sim.ctx(), 2, LinkParams::new(1.0, 100.0))
    }

    #[test]
    fn delivery_includes_serialization_and_latency() {
        let sim = Simulation::new();
        let ctx = sim.ctx();
        let net = two_node_net(&sim);
        let (a, b) = (net.adapter(0), net.adapter(1));
        let arrive = Rc::new(RefCell::new(0.0));
        let probe = Rc::clone(&arrive);
        sim.spawn(async move { a.send(1, 7, 84).await });
        sim.spawn(async move {
            let pkt = b.recv().await.unwrap();
            assert_eq!(pkt.message, 7);
            assert_eq!(pkt.src, 0);
            *probe.borrow_mut() = ctx.now().as_us();
        });
        sim.run();
        // (84 + 16) bytes / 100 MB/s = 1.0 µs serialise + 1.0 µs transit.
        assert_eq!(*arrive.borrow(), 2.0);
    }

    #[test]
    fn output_port_serializes_concurrent_sends() {
        let sim = Simulation::new();
        let net = two_node_net(&sim);
        let a = net.adapter(0);
        let b = net.adapter(1);
        let times = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let a = a.clone();
            sim.spawn(async move { a.send(1, i, 184).await });
        }
        {
            let times = Rc::clone(&times);
            let ctx = sim.ctx();
            sim.spawn(async move {
                for _ in 0..3 {
                    let pkt = b.recv().await.unwrap();
                    times.borrow_mut().push((pkt.message, ctx.now().as_us()));
                }
            });
        }
        sim.run();
        // Each packet is 200 bytes → 2 µs on the wire; port serialises, so
        // arrivals at 3, 5, 7 µs, in FIFO order.
        assert_eq!(*times.borrow(), vec![(0, 3.0), (1, 5.0), (2, 7.0)]);
        assert_eq!(a.packets_sent(), 3);
    }

    #[test]
    fn per_destination_ordering_preserved() {
        let sim = Simulation::new();
        let net = two_node_net(&sim);
        let a = net.adapter(0);
        let b = net.adapter(1);
        let got = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&got);
        sim.spawn(async move {
            for i in 0..10u32 {
                a.send(1, i, (i % 3) * 400).await;
            }
        });
        sim.spawn(async move {
            for _ in 0..10 {
                let msg = b.recv().await.unwrap().message;
                probe.borrow_mut().push(msg);
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn tx_utilization_reflects_wire_time() {
        let sim = Simulation::new();
        let ctx = sim.ctx();
        let net = two_node_net(&sim);
        let a = net.adapter(0);
        let b = net.adapter(1);
        sim.spawn({
            let a = a.clone();
            async move { a.send(1, 0, 984).await } // 10 µs on the wire
        });
        sim.spawn(async move {
            b.recv().await.unwrap();
        });
        sim.run();
        // 10 µs busy out of 11 µs total (10 serialise + 1 transit).
        let u = a.tx_utilization();
        assert!((u - 10.0 / 11.0).abs() < 1e-9, "u = {u}");
        let _ = ctx;
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_unknown_node_panics() {
        let sim = Simulation::new();
        let net = two_node_net(&sim);
        let a = net.adapter(0);
        sim.spawn(async move { a.send(7, 0, 0).await });
        sim.run();
    }

    #[test]
    fn link_params_validation() {
        let l = LinkParams::new(0.0, 50.0);
        assert_eq!(l.transit(), mproxy_des::Dur::ZERO);
        assert_eq!(l.serialize_time(84).as_us(), 2.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = LinkParams::new(1.0, 0.0);
    }

    #[test]
    fn plain_send_stamps_unsequenced_clean_packets() {
        let sim = Simulation::new();
        let net = two_node_net(&sim);
        let (a, b) = (net.adapter(0), net.adapter(1));
        sim.spawn(async move { a.send(1, 9, 8).await });
        let got = Rc::new(RefCell::new(None));
        let probe = Rc::clone(&got);
        sim.spawn(async move {
            let pkt = b.recv().await.unwrap();
            *probe.borrow_mut() = Some((pkt.seq, pkt.checksum, pkt.corrupted));
        });
        sim.run();
        assert_eq!(*got.borrow(), Some((0, 0, false)));
        assert!(net.fault_state().is_none());
    }

    #[test]
    fn dropped_packets_never_arrive_and_are_counted() {
        let sim = Simulation::new();
        let net: Network<u32> = Network::with_faults(
            &sim.ctx(),
            2,
            LinkParams::new(1.0, 100.0),
            FaultPlan::new(3).drop(1.0),
        );
        let a = net.adapter(0);
        let b = net.adapter(1);
        sim.spawn(async move {
            for i in 0..5u32 {
                a.send(1, i, 8).await;
            }
        });
        sim.run();
        assert!(b.try_recv().is_none());
        let c = net.fault_state().unwrap().counts();
        assert_eq!((c.packets, c.dropped), (5, 5));
    }

    #[test]
    fn duplicated_packet_arrives_twice_with_tag_intact() {
        let sim = Simulation::new();
        let net: Network<u32> = Network::with_faults(
            &sim.ctx(),
            2,
            LinkParams::new(1.0, 100.0),
            FaultPlan::new(3).duplicate(1.0),
        );
        let a = net.adapter(0);
        let b = net.adapter(1);
        sim.spawn(async move { a.send_tagged(1, 7, 8, 42, 0xfeed).await });
        let got = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&got);
        sim.spawn(async move {
            for _ in 0..2 {
                let pkt = b.recv().await.unwrap();
                probe.borrow_mut().push((pkt.message, pkt.seq, pkt.checksum));
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![(7, 42, 0xfeed), (7, 42, 0xfeed)]);
        assert_eq!(net.fault_state().unwrap().counts().duplicated, 1);
    }

    #[test]
    fn corruption_flags_payload_without_mutating_it() {
        let sim = Simulation::new();
        let net: Network<u32> = Network::with_faults(
            &sim.ctx(),
            2,
            LinkParams::new(1.0, 100.0),
            FaultPlan::new(3).corrupt(1.0),
        );
        let a = net.adapter(0);
        let b = net.adapter(1);
        sim.spawn(async move { a.send(1, 5, 8).await });
        let got = Rc::new(RefCell::new(None));
        let probe = Rc::clone(&got);
        sim.spawn(async move {
            let pkt = b.recv().await.unwrap();
            *probe.borrow_mut() = Some((pkt.message, pkt.corrupted));
        });
        sim.run();
        assert_eq!(*got.borrow(), Some((5, true)));
    }
}
