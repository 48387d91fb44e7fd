//! Packet-level discrete-event simulator with virtual cut-through
//! switching.
//!
//! Flows are segmented into packets; every directed link channel and every
//! source network interface (NI) is a FIFO resource. A packet occupies
//! each channel on its path for its serialization time; the header
//! advances one hop per `router_pipeline + wire` delay and the payload
//! streams behind it (cut-through). Contention appears as busy channels
//! that delay the header.
//!
//! A header reserves its channel the moment it arrives, at the later of
//! its arrival and the end of the channel's last reservation. Headers
//! arrive in `(time, seq, hop)` order, so that grant is exact: a
//! contended channel serves strictly in arrival order, with no wait
//! queue and no release event. Every packet enters its source NI at cycle
//! 0 in seq order and no fault window covers an NI, so the NI grants are
//! reserved up front.
//!
//! A granted header's arrival at its next channel joins the departure
//! FIFO of the channel it was granted. Grants on a channel strictly
//! increase and every header leaving it takes that channel's own delay,
//! so each FIFO stays in time order and only its head sits on the binary
//! min-heap; a popped head's successor takes its place in one sift. A
//! header that meets a fault window re-enters the heap alone, at the
//! window end. Keys pack `(time, seq, hop)` into one `u128`
//! ([`header_key`]), and a packet has one pending header, so the dequeue
//! order is a strict total order. Delivery needs no event: a packet's
//! tail drains one serialization window after its header crosses the
//! last link, recorded when that link is granted.
//! [`SimReport::heap_events`] counts the events of that model (a header
//! per traversal, a delivery per packet, a wake per contended grant),
//! including those computed without the heap.
//!
//! All simulator state is arena-backed SoA held in a reusable
//! [`SimScratch`]: hop records are stored once per flow, in flat vectors
//! sliced by a per-flow offset table, each packet names its flow, and the
//! FIFOs are chained through per-packet links — no per-packet heap
//! allocation, and a warm scratch runs the whole simulation without
//! allocating at all.
//!
//! Flows that share no channel never interact. [`split_components_into`]
//! splits a flow set into channel-disjoint components; running each one
//! alone delivers every packet at the cycle the whole run delivers it,
//! so a caller that meets the same component again can reuse its result.
//! In a component where no link channel carries two flows no header ever
//! waits, and [`link_free_totals`] gives its run's totals in closed form.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use serde::Serialize;
use topology::{HwParams, LinkId, NodeId, Topology};

use crate::flow::Flow;
use crate::routing::RouteTable;

/// Simulator knobs.
#[derive(Copy, Clone, Debug, PartialEq, Serialize)]
pub struct SimConfig {
    /// Maximum packet payload in bytes; flows are segmented into packets
    /// of this size.
    pub packet_bytes: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { packet_bytes: 1024 }
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SimReport {
    /// Cycle at which the last packet was delivered.
    pub makespan_cycles: u64,
    /// Mean packet latency (injection queueing included), cycles:
    /// [`SimReport::total_packet_latency_cycles`] over
    /// [`SimReport::packets`].
    pub mean_packet_latency_cycles: f64,
    /// Packet latencies summed over every packet, cycles. Every packet
    /// enters at cycle 0, so this is the sum of the delivery cycles. It
    /// is the exact integer behind the mean: the runs of a flow set's
    /// channel-disjoint components ([`split_components_into`]) add up to
    /// it, so their mean over the summed packets is bit-identical to the
    /// mean of one run over the whole set.
    pub total_packet_latency_cycles: u64,
    /// 95th-percentile packet latency (nearest-rank), cycles.
    pub p95_packet_latency_cycles: u64,
    /// Packets delivered.
    pub packets: u64,
    /// Total flits moved across links.
    pub flit_hops: u64,
    /// Interconnect energy, pJ (path-based, identical accounting to the
    /// analytical model).
    pub total_energy_pj: f64,
    /// Mean header latency per channel traversal (wait + pipeline +
    /// wire), cycles.
    pub mean_hop_header_latency_cycles: f64,
    /// Worst single-traversal header latency observed, cycles.
    pub max_hop_header_latency_cycles: u64,
    /// Cycles headers waited for busy channels, summed over all
    /// traversals (pure contention; zero on an idle network).
    pub total_channel_wait_cycles: u64,
    /// Modelled scheduler events, not heap operations: one header event
    /// per channel traversal (the source NI included), one delivery event
    /// per packet, one wake per contended channel grant (NI queueing
    /// included) and one re-arrival per fault deferral. NI grants, wakes
    /// and deliveries are computed without the heap but counted here all
    /// the same.
    pub heap_events: u64,
    /// Cycles headers spent stalled at transiently faulted channels,
    /// summed over all deferrals (zero on a healthy network).
    pub total_fault_wait_cycles: u64,
    /// Header arrivals deferred by a channel fault window.
    pub faulted_traversals: u64,
}

impl SimReport {
    /// The fields that merge exactly across the runs of a flow set's
    /// channel-disjoint components.
    pub fn totals(&self) -> DesTotals {
        DesTotals {
            makespan_cycles: self.makespan_cycles,
            total_packet_latency_cycles: self.total_packet_latency_cycles,
            packets: self.packets,
        }
    }
}

/// The makespan, the integer latency sum and the packet count of a run:
/// what the runs of a flow set's channel-disjoint components
/// ([`split_components_into`]) merge into exactly, by maximum and sums,
/// and what [`link_free_totals`] computes in closed form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DesTotals {
    /// [`SimReport::makespan_cycles`].
    pub makespan_cycles: u64,
    /// [`SimReport::total_packet_latency_cycles`].
    pub total_packet_latency_cycles: u64,
    /// [`SimReport::packets`].
    pub packets: u64,
}

impl DesTotals {
    /// Folds in the totals of another channel-disjoint component.
    pub fn merge(&mut self, part: DesTotals) {
        self.makespan_cycles = self.makespan_cycles.max(part.makespan_cycles);
        self.total_packet_latency_cycles += part.total_packet_latency_cycles;
        self.packets += part.packets;
    }
}

/// Transient channel fault windows for one simulation run: a header
/// arriving at a faulted channel defers (one re-scheduled event) to the
/// window end, accumulating [`SimReport::total_fault_wait_cycles`].
/// Windows gate header *arrivals*; a header that reserved the channel
/// before the fault strikes is granted normally, modelling a link that
/// drops its handshake but preserves buffered flits.
#[derive(Clone, Debug, Default)]
pub struct LinkFaults {
    /// `windows[channel]` holds ascending, non-overlapping `[start, end)`
    /// fault intervals in cycles.
    windows: Vec<Vec<(u64, u64)>>,
}

impl LinkFaults {
    /// A fault set with no windows (the healthy network).
    pub fn none() -> LinkFaults {
        LinkFaults::default()
    }

    /// Builds the per-channel window set from undirected link faults:
    /// each `(link, start, end)` blackout covers both directed channels
    /// of the link. Windows are sorted and merged per channel. Only the
    /// `2 × link_count` link channels get slots: an NI channel is never
    /// faulted, which the simulator's injection pass relies on.
    pub fn from_link_windows(topo: &Topology, faults: &[(LinkId, u64, u64)]) -> LinkFaults {
        let n_links = topo.link_count();
        let mut windows = vec![Vec::new(); 2 * n_links];
        for &(lid, start, end) in faults {
            if end <= start {
                continue;
            }
            windows[lid.0 as usize].push((start, end));
            windows[lid.0 as usize + n_links].push((start, end));
        }
        for w in &mut windows {
            w.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(w.len());
            for &(s, e) in w.iter() {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            *w = merged;
        }
        LinkFaults { windows }
    }

    /// True when no channel has a fault window.
    pub fn is_empty(&self) -> bool {
        self.windows.iter().all(Vec::is_empty)
    }

    /// The end of the fault window covering channel `ch` at time `t`,
    /// or `None` when the channel is healthy at `t` (always for an NI
    /// channel).
    fn blocked_until(&self, ch: usize, t: u64) -> Option<u64> {
        let w = self.windows.get(ch)?;
        // Last window starting at or before t; windows are disjoint.
        let idx = w.partition_point(|&(s, _)| s <= t);
        let &(_, end) = w.get(idx.checked_sub(1)?)?;
        (t < end).then_some(end)
    }
}

/// The tag in the lowest bit of a heap key that marks a fault deferral's
/// re-arrival, which sits on the heap outside any departure FIFO.
const DEFERRED: u128 = 1;

/// The heap key of a header reaching hop `hop` of packet `seq` at `time`:
/// `time << 64 | seq << 17 | hop << 1`, whose integer order is the
/// `(time, seq, hop)` order. The lowest bit is free for [`DEFERRED`];
/// a packet has one pending header, so no two pending keys share
/// `(time, seq, hop)` and the tag never decides the order.
fn header_key(time: u64, seq: u32, hop: u16) -> u128 {
    (u128::from(time) << 64) | (u128::from(seq) << 17) | (u128::from(hop) << 1)
}

/// Inverse of [`header_key`], ignoring the [`DEFERRED`] tag.
fn unpack_key(key: u128) -> (u64, u32, u16) {
    // pim-lint: allow(truncating-cast) -- unpacking the 32-bit seq field of header_key
    let seq = (key >> 17) as u32;
    // pim-lint: allow(truncating-cast) -- unpacking the 16-bit hop field of header_key
    let hop = (key >> 1) as u16;
    ((key >> 64) as u64, seq, hop)
}

/// Sentinel for "no header" in the departure FIFOs: the key of hop 0,
/// which no FIFO holds (a queued header's next hop is a link).
const EMPTY: u128 = 0;

/// Sentinel for "no component label yet" in [`split_components_into`].
const NIL: u32 = u32::MAX;

/// Arena-backed SoA packet storage. Every packet of a flow follows the
/// flow's route, so the hop records (`channels`, `hop_delay`) are stored
/// once per flow, sliced by the `flow_offsets` table; a packet keeps only
/// its flow index, serialization time and delivery cycle. Segmenting a
/// flow into packets appends three scalars per packet and one route per
/// flow, and hop `h` of packet `s` is record `flow_offsets[flow[s]] + h`.
// pim-lint: scratch
#[derive(Default)]
struct PacketArena {
    /// `flow_offsets[f]..flow_offsets[f + 1]` bounds flow `f`'s hop
    /// records; always one longer than the stored flow count.
    flow_offsets: Vec<u32>,
    /// Channel id of each traversal: the source NI, then directed links
    /// (at least one: flows with `src == dst` produce no packets).
    channels: Vec<u32>,
    /// Header delay of each traversal.
    hop_delay: Vec<u64>,
    /// Per packet: the index of its flow in `flow_offsets`.
    flow: Vec<u32>,
    ser_cycles: Vec<u64>,
    /// Delivery cycle of each packet; 0 until its last channel is granted.
    delivered_at: Vec<u64>,
}

impl PacketArena {
    fn clear(&mut self) {
        self.flow_offsets.clear();
        self.flow_offsets.push(0);
        self.channels.clear();
        self.hop_delay.clear();
        self.flow.clear();
        self.ser_cycles.clear();
        self.delivered_at.clear();
    }

    fn len(&self) -> usize {
        self.ser_cycles.len()
    }

    /// First hop-record index of packet `seq`.
    fn start(&self, seq: usize) -> usize {
        self.flow_offsets[self.flow[seq] as usize] as usize
    }

    /// Hop-record indices of packet `seq`: its flow's records, one per
    /// channel traversal.
    fn records(&self, seq: usize) -> std::ops::Range<usize> {
        let f = self.flow[seq] as usize;
        self.flow_offsets[f] as usize..self.flow_offsets[f + 1] as usize
    }
}

/// Aggregate per-hop scheduler statistics of one event-loop run.
#[derive(Default)]
struct LoopStats {
    hop_traversals: u64,
    hop_latency_total: u64,
    hop_latency_max: u64,
    wait_total: u64,
    heap_events: u64,
    fault_wait_total: u64,
    faulted_traversals: u64,
    delivered: usize,
}

impl LoopStats {
    /// Records one channel traversal: granted at `now` to a header that
    /// arrived at `arrived`, whose next hop starts at `header_arrives`.
    fn traverse(&mut self, arrived: u64, now: u64, header_arrives: u64) {
        let hop_latency = header_arrives - arrived;
        self.hop_traversals += 1;
        self.hop_latency_total += hop_latency;
        self.hop_latency_max = self.hop_latency_max.max(hop_latency);
        self.wait_total += now - arrived;
    }
}

/// Reusable simulator state: the packet arena, the scheduler (busy
/// times, departure FIFOs, event heap), the report buffers and the
/// component split's union-find. Construct one per worker and pass it to
/// [`simulate_with_scratch`] run after run — every buffer is cleared with
/// capacity kept, so a warm scratch makes the whole simulation
/// allocation-free.
pub struct SimScratch {
    arena: PacketArena,
    /// Per channel: the cycle its last reservation ends.
    busy_until: Vec<u64>,
    /// Per channel: the key of the last header in its departure FIFO;
    /// [`EMPTY`] while the FIFO is empty.
    fifo_tail: Vec<u128>,
    /// Per packet: the key of the header behind its queued one in the
    /// same departure FIFO; [`EMPTY`] at the tail.
    fifo_next: Vec<u128>,
    /// The head of every non-empty departure FIFO and every deferred
    /// header, as [`header_key`]s, earliest first.
    queue: BinaryHeap<Reverse<u128>>,
    stats: LoopStats,
    path: Vec<LinkId>,
    /// Per-traversal energies of one packet of the flow being built (the
    /// destination router's last), summed once per packet.
    hop_energy: Vec<f64>,
    /// Per channel: the union-find parent while
    /// [`split_components_into`] joins channels into components.
    component_parent: Vec<u32>,
    /// Per channel: whether a union-find root's component has a link
    /// channel that carries two flows.
    component_shared: Vec<bool>,
    /// Per channel: the component index of a union-find root; `NIL`
    /// until the root's first flow is labelled.
    component_label: Vec<u32>,
}

impl Default for SimScratch {
    fn default() -> Self {
        SimScratch::new()
    }
}

impl std::fmt::Debug for SimScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimScratch").finish_non_exhaustive()
    }
}

impl SimScratch {
    /// An empty scratch; every buffer grows on first use and stays warm.
    pub fn new() -> Self {
        SimScratch {
            arena: PacketArena::default(),
            busy_until: Vec::new(),
            fifo_tail: Vec::new(),
            fifo_next: Vec::new(),
            queue: BinaryHeap::new(),
            stats: LoopStats::default(),
            path: Vec::new(),
            hop_energy: Vec::new(),
            component_parent: Vec::new(),
            component_shared: Vec::new(),
            component_label: Vec::new(),
        }
    }

    /// Clears every buffer (capacity kept), returning the scratch to the
    /// state a fresh [`SimScratch::new`] would observe. The simulator
    /// entry points re-clear internally before each run; this is the
    /// invariant-documenting form the `scratch-reset` lint checks.
    pub fn reset(&mut self) {
        self.arena.clear();
        self.path.clear();
        self.hop_energy.clear();
        self.component_parent.clear();
        self.component_shared.clear();
        self.component_label.clear();
        self.reset_engine(0);
    }

    fn reset_engine(&mut self, n_channels: usize) {
        self.busy_until.clear();
        self.busy_until.resize(n_channels, 0);
        self.fifo_tail.clear();
        self.fifo_tail.resize(n_channels, EMPTY);
        self.fifo_next.clear();
        self.fifo_next.resize(self.arena.len(), EMPTY);
        self.queue.clear();
        self.stats = LoopStats::default();
    }

    /// Grants packet `seq` its `hop`-th channel for a header arriving at
    /// `arrived`: at the later of the arrival and the end of the channel's
    /// last reservation. Queues the next hop's arrival in the channel's
    /// departure FIFO, or records the delivery after the last channel.
    fn reserve(&mut self, seq: u32, hop: u16, arrived: u64) {
        let s = seq as usize;
        let records = self.arena.records(s);
        let rec = records.start + hop as usize;
        let ch = self.arena.channels[rec] as usize;
        let ser = self.arena.ser_cycles[s];
        let granted = arrived.max(self.busy_until[ch]);
        self.busy_until[ch] = granted + ser;
        let header_arrives = granted + self.arena.hop_delay[rec];
        self.stats.traverse(arrived, granted, header_arrives);
        if granted > arrived {
            // The wake that grants a queued header when the channel frees.
            self.stats.heap_events += 1;
        }
        if rec + 1 < records.end {
            let key = header_key(header_arrives, seq, hop + 1);
            self.fifo_next[s] = EMPTY;
            match self.fifo_tail[ch] {
                EMPTY => self.queue.push(Reverse(key)),
                tail => {
                    let (tail_departs, tail_seq, _) = unpack_key(tail);
                    debug_assert!(
                        tail_departs < header_arrives,
                        "channel {ch}: departure {header_arrives} queued behind {tail_departs}"
                    );
                    self.fifo_next[tail_seq as usize] = key;
                }
            }
            self.fifo_tail[ch] = key;
        } else {
            // The tail drains one serialization window after the header
            // lands; this stands in for the delivery event.
            assert_eq!(
                self.arena.delivered_at[s], 0,
                "packet {seq} was delivered twice"
            );
            self.arena.delivered_at[s] = header_arrives + ser;
            self.stats.heap_events += 1;
            self.stats.delivered += 1;
        }
    }

    /// Pops the earliest pending header and lets it arrive at its next
    /// channel: it defers off a faulted channel, else reserves it.
    /// Returns false once the heap is empty. A popped FIFO head's
    /// successor replaces it in place; a deferred header belongs to no
    /// FIFO.
    fn step(&mut self, faults: &LinkFaults) -> bool {
        let (time, seq, hop) = {
            let Some(mut top) = self.queue.peek_mut() else {
                return false;
            };
            let key = top.0;
            let (time, seq, hop) = unpack_key(key);
            let next = self.fifo_next[seq as usize];
            if key & DEFERRED != 0 {
                PeekMut::pop(top);
            } else if next == EMPTY {
                PeekMut::pop(top);
                let from = self.arena.start(seq as usize) + hop as usize - 1;
                self.fifo_tail[self.arena.channels[from] as usize] = EMPTY;
            } else {
                top.0 = next;
            }
            (time, seq, hop)
        };
        self.stats.heap_events += 1;
        let ch = self.arena.channels[self.arena.start(seq as usize) + hop as usize] as usize;
        if let Some(end) = faults.blocked_until(ch, time) {
            // The channel is mid-blackout: defer the header to the window
            // end with a single re-arrival (re-checked then, so
            // back-to-back windows chain naturally).
            self.stats.fault_wait_total += end - time;
            self.stats.faulted_traversals += 1;
            self.queue
                .push(Reverse(header_key(end, seq, hop) | DEFERRED));
        } else {
            self.reserve(seq, hop, time);
        }
        true
    }
}

/// Runs the simulator on `flows` over `topo`.
///
/// All packets are created at cycle 0 (one inference burst); injection
/// serialization at the source NI provides natural pacing. Returns
/// aggregate latency/energy statistics.
///
/// # Panics
///
/// Panics if a flow references a node outside the topology.
pub fn simulate(topo: &Topology, hw: &HwParams, flows: &[Flow], cfg: &SimConfig) -> SimReport {
    let rt = RouteTable::build(topo, hw);
    simulate_with_table(topo, hw, flows, cfg, &rt)
}

/// Panics, instead of letting a header key wrap, unless a packet routed
/// over `links` links fits the key's 16-bit hop field: its hop count (the
/// source NI plus each link) must fit a `u16`, so no hop index and no
/// `hop + 1` can wrap.
fn assert_hop_field_fits(links: usize) {
    topology::narrow::u16_idx(links + 1);
}

/// False for a flow with `src == dst` or zero bytes: it produces no
/// packets (and no energy) and joins no component.
fn carries_traffic(f: &Flow) -> bool {
    f.src != f.dst && f.bytes > 0
}

/// The channel of directed link `lid` left from node `from`: link `l`
/// is channel `l` from its `a` end and `l + link_count` from its `b` end.
fn link_channel(topo: &Topology, lid: LinkId, from: NodeId) -> u32 {
    if topo.link(lid).a == from {
        lid.0
    } else {
        lid.0 + topology::narrow::u32_idx(topo.link_count())
    }
}

/// The source-NI channel of node `n`, after the `2 × link_count` link
/// channels.
fn ni_channel(topo: &Topology, n: NodeId) -> u32 {
    topology::narrow::u32_idx(2 * topo.link_count()) + n.0
}

/// Every channel the simulator numbers: the directed links, then the
/// source NIs.
fn channel_count(topo: &Topology) -> usize {
    2 * topo.link_count() + topo.node_count()
}

/// Segments `flows` into packets in the scratch's arena: each flow's
/// route is walked once into per-hop channel ids and delays, then one
/// packet per `packet_bytes` slice names the flow. Flows with
/// `src == dst` or zero bytes carry no traffic and produce no packets
/// (and contribute no energy).
fn build_packets_into(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    cfg: &SimConfig,
    rt: &RouteTable,
    scratch: &mut SimScratch,
) -> (f64, u64) {
    let SimScratch {
        arena,
        path,
        hop_energy,
        ..
    } = scratch;
    // Per-traversal energies of one `bits`-bit packet along `path`, in
    // the order the energy total adds them: each link hop, then the
    // destination router.
    let energies_into = |f: &Flow, path: &[LinkId], bits: u64, out: &mut Vec<f64>| {
        out.clear();
        let mut at = f.src;
        for lid in path {
            let link = topo.link(*lid);
            out.push(hw.hop_energy_pj(bits, topo.ports(at), link.length_hops));
            at = link.opposite(at);
        }
        out.push(bits as f64 * hw.router_energy_pj_per_bit(topo.ports(f.dst)));
    };

    arena.clear();
    let mut energy_pj = 0.0f64;
    let mut flit_hops = 0u64;
    let packet_bytes = cfg.packet_bytes as u64;
    for f in flows.iter().filter(|f| carries_traffic(f)) {
        // `path_into` clears and refills the scratch buffer per flow, so
        // routing never allocates once the buffer is warm.
        rt.path_into(topo, f.src, f.dst, path);
        assert_hop_field_fits(path.len());
        let flow = topology::narrow::u32_idx(arena.flow_offsets.len() - 1);
        // NI injection: router pipeline to enter the network.
        arena.channels.push(ni_channel(topo, f.src));
        arena.hop_delay.push(hw.router_pipeline_cycles as u64);
        let mut at = f.src;
        for lid in path.iter() {
            let link = topo.link(*lid);
            arena.channels.push(link_channel(topo, *lid, at));
            arena.hop_delay.push(hw.hop_cycles(link.length_hops));
            at = link.opposite(at);
        }
        arena
            .flow_offsets
            .push(topology::narrow::u32_idx(arena.channels.len()));

        // Full packets first, then the partial tail (if any); each size
        // gets its own energies, summed per packet in traversal order so
        // the total is bit-identical to a per-hop accumulation.
        let (full, tail) = (f.bytes / packet_bytes, f.bytes % packet_bytes);
        for (size, count) in [(packet_bytes, full), (tail, u64::from(tail > 0))] {
            if count == 0 {
                continue;
            }
            let flits = size.div_ceil(hw.flit_bytes as u64).max(1);
            energies_into(f, path, size * 8, hop_energy);
            for _ in 0..count {
                for &e in hop_energy.iter() {
                    energy_pj += e;
                }
                flit_hops += flits * path.len() as u64;
                arena.flow.push(flow);
                arena.ser_cycles.push(flits);
                arena.delivered_at.push(0);
            }
        }
    }
    (energy_pj, flit_hops)
}

/// Splits `flows` into channel-disjoint components: the units that
/// [`simulate_with_scratch`] can run one at a time without moving a
/// single delivery cycle.
///
/// Two flows join one component when they share a source-NI channel or a
/// directed link channel on their routes, in the simulator's own channel
/// numbering; components are the transitive closure of that. `out`
/// receives the flows that carry traffic, grouped by component:
/// components in order of their first flow, flows in input order within
/// each. `ends[c]` is `(end, link_free)` for component `c`: its end in
/// `out`, which it starts at `ends[c - 1].0` (0 for the first), and
/// whether no directed link channel carries two of its flows, so that
/// [`link_free_totals`] costs it exactly. Flows with `src == dst` or zero
/// bytes are dropped, as the simulator drops them.
///
/// # Why a component run is exact
///
/// Components share no channel, so no event of one reads or writes the
/// busy time or departure FIFO of another. Run alone, a component's
/// packets are renumbered `0..n` in their old relative order, which
/// keeps the relative `(time, seq, hop)` order of its header events. So
/// each component pops its events in the order the whole run pops them,
/// and every packet is delivered at the same cycle. The whole run's
/// `makespan_cycles` and `max_hop_header_latency_cycles` are then the
/// maxima over the component runs, and its `packets`,
/// `total_packet_latency_cycles`, `flit_hops`, `total_channel_wait_cycles`
/// and `heap_events` their sums. The p95 and the float fields (energy,
/// mean hop latency) do not merge bit for bit from component reports.
///
/// The union-find buffers live in `scratch`, so a warm scratch and warm
/// output buffers split without allocating.
///
/// # Panics
///
/// Panics if a flow references a node outside the topology.
pub fn split_components_into(
    topo: &Topology,
    flows: &[Flow],
    rt: &RouteTable,
    scratch: &mut SimScratch,
    out: &mut Vec<Flow>,
    ends: &mut Vec<(usize, bool)>,
) {
    let SimScratch {
        path,
        component_parent: parent,
        component_shared: shared,
        component_label: label,
        ..
    } = scratch;
    let n_channels = channel_count(topo);
    parent.clear();
    parent.extend((0..n_channels).map(topology::narrow::u32_idx));
    shared.clear();
    shared.resize(n_channels, false);
    label.clear();
    label.resize(n_channels, NIL);
    // Join every link channel of a flow's route under its source NI's
    // root. Roots are NI channels, so a link channel has a parent once
    // it carries a flow, and meeting it again shares it. Two components
    // only ever join at such a shared link, so the flag needs no merge.
    for f in flows.iter().filter(|f| carries_traffic(f)) {
        let ni = ni_channel(topo, f.src);
        rt.path_into(topo, f.src, f.dst, path);
        let mut at = f.src;
        for &lid in path.iter() {
            let ch = link_channel(topo, lid, at);
            let carried = parent[ch as usize] != ch;
            let (a, b) = (find_root(parent, ni), find_root(parent, ch));
            parent[b as usize] = a;
            shared[a as usize] |= carried;
            at = topo.link(lid).opposite(at);
        }
    }
    // Label components in order of their first flow and count their
    // flows, then place the flows by a counting sort: `ends[c].0` holds
    // component `c`'s start and advances past each flow placed.
    ends.clear();
    for f in flows.iter().filter(|f| carries_traffic(f)) {
        let root = find_root(parent, ni_channel(topo, f.src)) as usize;
        if label[root] == NIL {
            label[root] = topology::narrow::u32_idx(ends.len());
            ends.push((0, !shared[root]));
        }
        ends[label[root] as usize].0 += 1;
    }
    let mut start = 0;
    for (e, _) in ends.iter_mut() {
        start += std::mem::replace(e, start);
    }
    out.clear();
    out.resize(start, Flow::new(NodeId(0), NodeId(0), 0));
    for f in flows.iter().filter(|f| carries_traffic(f)) {
        let root = find_root(parent, ni_channel(topo, f.src)) as usize;
        let at = &mut ends[label[root] as usize].0;
        out[*at] = *f;
        *at += 1;
    }
}

/// The union-find root of channel `ch`, halving the path on the way.
fn find_root(parent: &mut [u32], mut ch: u32) -> u32 {
    while parent[ch as usize] != ch {
        let grand = parent[parent[ch as usize] as usize];
        parent[ch as usize] = grand;
        ch = grand;
    }
    ch
}

/// The [`DesTotals`] of `flows` in closed form, without the event loop.
///
/// Every packet enters its source NI at cycle 0 in seq order, so its NI
/// grant is the sum of its source's earlier serialization times. It is
/// delivered at that grant plus the router pipeline, its route's hop
/// delays and its own serialization time, plus whatever its header
/// waits at busy links. A flow's packets of one size follow each other
/// one serialization time apart, so their deliveries are an arithmetic
/// series, summed per flow.
///
/// Without the waits, every delivery is a lower bound on the DES's. It
/// is exact when no directed link channel carries two of the flows, as
/// in a component [`split_components_into`] flags link-free: each packet
/// then reaches every link at the cycle its predecessor frees it.
///
/// # Panics
///
/// Panics if a flow references a node outside the topology.
pub fn link_free_totals(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    cfg: &SimConfig,
    rt: &RouteTable,
    scratch: &mut SimScratch,
) -> DesTotals {
    assert!(cfg.packet_bytes > 0, "packet size must be positive");
    let (ni_free, path) = (&mut scratch.busy_until, &mut scratch.path);
    ni_free.clear();
    ni_free.resize(channel_count(topo), 0);
    let packet_bytes = u64::from(cfg.packet_bytes);
    let flits = |bytes: u64| bytes.div_ceil(u64::from(hw.flit_bytes)).max(1);
    let mut totals = DesTotals::default();
    for f in flows.iter().filter(|f| carries_traffic(f)) {
        rt.path_into(topo, f.src, f.dst, path);
        let hops = path
            .iter()
            .map(|&l| hw.hop_cycles(topo.link(l).length_hops));
        let route = u64::from(hw.router_pipeline_cycles) + hops.sum::<u64>();
        let ni = &mut ni_free[ni_channel(topo, f.src) as usize];
        let (full, tail) = (f.bytes / packet_bytes, f.bytes % packet_bytes);
        let sizes = [
            (flits(packet_bytes), full),
            (flits(tail), u64::from(tail > 0)),
        ];
        for (ser, count) in sizes {
            if count == 0 {
                continue;
            }
            // The k-th of these packets is delivered at `first + k * ser`.
            let first = *ni + route + ser;
            totals.merge(DesTotals {
                makespan_cycles: first + (count - 1) * ser,
                total_packet_latency_cycles: count * first + ser * (count * (count - 1) / 2),
                packets: count,
            });
            *ni += count * ser;
        }
    }
    totals
}

/// The event loop: every packet's time-0 header reserves its source NI,
/// in seq order; then headers arrive at their links in `(time, seq, hop)`
/// order until the heap drains, which must leave every packet delivered.
fn run_event_loop(st: &mut SimScratch, n_channels: usize, faults: &LinkFaults) {
    st.reset_engine(n_channels);
    for seq in 0..st.arena.len() {
        st.stats.heap_events += 1;
        st.reserve(topology::narrow::u32_idx(seq), 0, 0);
    }
    while st.step(faults) {}
    let (delivered, n) = (st.stats.delivered, st.arena.len());
    assert_eq!(
        delivered, n,
        "the event loop delivered {delivered} of {n} packets"
    );
}

/// Nearest-rank percentile: the smallest sample with at least `pct`% of
/// the samples at or below it. Reorders `samples` (a linear-time
/// selection, no sort).
fn percentile_nearest_rank(samples: &mut [u64], pct: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = (samples.len() as u64 * pct).div_ceil(100).max(1) as usize;
    *samples.select_nth_unstable(rank - 1).1
}

/// [`simulate`] with a prebuilt routing table.
pub fn simulate_with_table(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    cfg: &SimConfig,
    rt: &RouteTable,
) -> SimReport {
    simulate_with_scratch(topo, hw, flows, cfg, rt, &mut SimScratch::new())
}

/// [`simulate_with_table`] against caller-owned [`SimScratch`]. The
/// report is identical whatever state the scratch is in; reusing one
/// scratch across runs skips all steady-state allocation.
pub fn simulate_with_scratch(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    cfg: &SimConfig,
    rt: &RouteTable,
    scratch: &mut SimScratch,
) -> SimReport {
    simulate_faulty_with_scratch(topo, hw, flows, cfg, rt, &LinkFaults::none(), scratch)
}

/// [`simulate_with_scratch`] under transient channel fault windows: a
/// header arriving at a blacked-out channel stalls (one rescheduled
/// event) until the window ends, and the report carries the stall total
/// in [`SimReport::total_fault_wait_cycles`]. With an empty
/// [`LinkFaults`] the run is bit-identical to the healthy simulator.
pub fn simulate_faulty_with_scratch(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    cfg: &SimConfig,
    rt: &RouteTable,
    faults: &LinkFaults,
    scratch: &mut SimScratch,
) -> SimReport {
    assert!(cfg.packet_bytes > 0, "packet size must be positive");
    let (energy_pj, flit_hops) = build_packets_into(topo, hw, flows, cfg, rt, scratch);
    run_event_loop(scratch, channel_count(topo), faults);

    let delivered_at = &mut scratch.arena.delivered_at;
    let packets = delivered_at.len() as u64;
    let makespan = delivered_at.iter().copied().max().unwrap_or(0);
    let total_latency: u64 = delivered_at.iter().sum();
    let mean = if packets == 0 {
        0.0
    } else {
        total_latency as f64 / packets as f64
    };
    // Selection reorders `delivered_at`, so it runs after every other
    // read of it.
    let p95 = percentile_nearest_rank(delivered_at, 95);
    let stats = &scratch.stats;
    SimReport {
        makespan_cycles: makespan,
        mean_packet_latency_cycles: mean,
        total_packet_latency_cycles: total_latency,
        p95_packet_latency_cycles: p95,
        packets,
        flit_hops,
        total_energy_pj: energy_pj,
        mean_hop_header_latency_cycles: if stats.hop_traversals == 0 {
            0.0
        } else {
            stats.hop_latency_total as f64 / stats.hop_traversals as f64
        },
        max_hop_header_latency_cycles: stats.hop_latency_max,
        total_channel_wait_cycles: stats.wait_total,
        heap_events: stats.heap_events,
        total_fault_wait_cycles: stats.fault_wait_total,
        faulted_traversals: stats.faulted_traversals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::analyze;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use topology::{mesh2d, Coord};

    fn mesh5() -> Topology {
        mesh2d(5, 5).unwrap()
    }

    /// AoS packet mirror of the arena, for the reference loops.
    struct Packet {
        channels: Vec<u32>,
        hop_delay: Vec<u64>,
        ser_cycles: u64,
        delivered_at: u64,
    }

    fn build_packets(
        topo: &Topology,
        hw: &HwParams,
        flows: &[Flow],
        cfg: &SimConfig,
        rt: &RouteTable,
    ) -> (PacketArena, f64, u64) {
        let mut st = SimScratch::new();
        let (energy, flits) = build_packets_into(topo, hw, flows, cfg, rt, &mut st);
        (st.arena, energy, flits)
    }

    /// Expands the per-flow hop records into one owned copy per packet.
    fn arena_to_aos(arena: &PacketArena) -> Vec<Packet> {
        (0..arena.len())
            .map(|s| {
                let records = arena.records(s);
                Packet {
                    channels: arena.channels[records.clone()].to_vec(),
                    hop_delay: arena.hop_delay[records].to_vec(),
                    ser_cycles: arena.ser_cycles[s],
                    delivered_at: arena.delivered_at[s],
                }
            })
            .collect()
    }

    fn run_arena(arena: PacketArena, n_channels: usize) -> SimScratch {
        let mut st = SimScratch::new();
        st.arena = arena;
        run_event_loop(&mut st, n_channels, &LinkFaults::none());
        st
    }

    /// The seed's retry-polling event loop, kept verbatim as a reference:
    /// busy channels re-push the same header event until the channel
    /// frees, and ties at the release cycle are broken by packet `seq`
    /// (not arrival order). Returns the per-packet delivery times and the
    /// number of heap events processed.
    fn retry_polling_reference(packets: &mut [Packet], n_channels: usize) -> (Vec<u64>, u64) {
        #[derive(PartialEq, Eq)]
        struct Ev {
            time: u64,
            seq: u32,
            hop: u16,
        }
        impl Ord for Ev {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .time
                    .cmp(&self.time)
                    .then_with(|| other.seq.cmp(&self.seq))
                    .then_with(|| other.hop.cmp(&self.hop))
            }
        }
        impl PartialOrd for Ev {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut busy_until = vec![0u64; n_channels];
        let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
        let mut heap_events = 0u64;
        for seq in 0..packets.len() {
            heap.push(Ev {
                time: 0,
                seq: topology::narrow::u32_idx(seq),
                hop: 0,
            });
        }
        while let Some(ev) = heap.pop() {
            heap_events += 1;
            let p = &mut packets[ev.seq as usize];
            let hop = ev.hop as usize;
            if hop >= p.channels.len() {
                p.delivered_at = ev.time + p.ser_cycles;
                continue;
            }
            let ch = p.channels[hop] as usize;
            if busy_until[ch] > ev.time {
                heap.push(Ev {
                    time: busy_until[ch],
                    seq: ev.seq,
                    hop: ev.hop,
                });
                continue;
            }
            busy_until[ch] = ev.time + p.ser_cycles;
            heap.push(Ev {
                time: ev.time + p.hop_delay[hop],
                seq: ev.seq,
                hop: ev.hop + 1,
            });
        }
        (
            packets.iter().map(|p| p.delivered_at).collect(),
            heap_events,
        )
    }

    fn contention_burst() -> Vec<Flow> {
        // Many sources funneling into one sink: heavy FIFO contention.
        (0..24)
            .map(|i| Flow::new(NodeId(i), NodeId(24), 4096))
            .collect()
    }

    #[test]
    fn single_packet_matches_hand_count() {
        let topo = mesh5();
        let hw = HwParams::default();
        let src = topo.node_at(Coord::new2(0, 0)).unwrap();
        let dst = topo.node_at(Coord::new2(2, 0)).unwrap();
        let rep = simulate(
            &topo,
            &hw,
            &[Flow::new(src, dst, 64)],
            &SimConfig::default(),
        );
        // NI (4 cycles) + 2 hops x 5 cycles + 2 flits tail.
        assert_eq!(rep.makespan_cycles, 4 + 10 + 2);
        assert_eq!(rep.packets, 1);
        // Three uncontended traversals: NI (4) + two link hops (5 each).
        assert_eq!(rep.total_channel_wait_cycles, 0);
        assert_eq!(rep.max_hop_header_latency_cycles, 5);
        assert!((rep.mean_hop_header_latency_cycles - 14.0 / 3.0).abs() < 1e-12);
        // One scheduler event per hop plus the delivery, no contention.
        assert_eq!(rep.heap_events, 4);
    }

    #[test]
    fn contention_delays_packets() {
        let topo = mesh5();
        let hw = HwParams::default();
        let src = topo.node_at(Coord::new2(0, 0)).unwrap();
        let dst = topo.node_at(Coord::new2(4, 4)).unwrap();
        let one = simulate(
            &topo,
            &hw,
            &[Flow::new(src, dst, 1024)],
            &SimConfig::default(),
        );
        let flows: Vec<Flow> = (0..8).map(|_| Flow::new(src, dst, 1024)).collect();
        let many = simulate(&topo, &hw, &flows, &SimConfig::default());
        assert!(many.makespan_cycles > one.makespan_cycles);
        assert!(many.mean_packet_latency_cycles > one.mean_packet_latency_cycles);
        assert_eq!(one.total_channel_wait_cycles, 0);
        assert!(many.total_channel_wait_cycles > 0, "contention must queue");
    }

    #[test]
    fn simulation_is_deterministic() {
        let topo = mesh5();
        let hw = HwParams::default();
        let flows: Vec<Flow> = (0..20)
            .map(|i| {
                Flow::new(
                    NodeId(i % 25),
                    NodeId((i * 7 + 3) % 25),
                    500 + i as u64 * 37,
                )
            })
            .collect();
        let a = simulate(&topo, &hw, &flows, &SimConfig::default());
        let b = simulate(&topo, &hw, &flows, &SimConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch reused across different workloads must reproduce
        // fresh-scratch reports exactly, whatever it ran before.
        let topo = mesh5();
        let hw = HwParams::default();
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let burst = contention_burst();
        let sparse: Vec<Flow> = (0..5)
            .map(|i| Flow::new(NodeId(i * 5), NodeId(i * 5 + 4), 512))
            .collect();

        let mut scratch = SimScratch::new();
        let first = simulate_with_scratch(&topo, &hw, &burst, &cfg, &rt, &mut scratch);
        let dirty = simulate_with_scratch(&topo, &hw, &sparse, &cfg, &rt, &mut scratch);
        let rerun = simulate_with_scratch(&topo, &hw, &burst, &cfg, &rt, &mut scratch);

        assert_eq!(first, simulate_with_table(&topo, &hw, &burst, &cfg, &rt));
        assert_eq!(dirty, simulate_with_table(&topo, &hw, &sparse, &cfg, &rt));
        assert_eq!(first, rerun);
    }

    #[test]
    fn multi_packet_flow_stores_hop_records_once() {
        // A 5-packet flow (four full packets and a partial tail) and a
        // 1-packet flow over 2-link paths: one NI + 2 link records per
        // flow, however many packets share them.
        let topo = mesh5();
        let hw = HwParams::default();
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let src = topo.node_at(Coord::new2(0, 0)).unwrap();
        let dst = topo.node_at(Coord::new2(2, 0)).unwrap();
        let flows = [Flow::new(src, dst, 5000), Flow::new(dst, src, 64)];
        let (arena, energy, flit_hops) = build_packets(&topo, &hw, &flows, &cfg, &rt);
        assert_eq!(arena.len(), 6);
        assert_eq!(arena.channels.len(), 2 * 3, "hop records per flow");
        assert_eq!(arena.hop_delay.len(), 2 * 3, "hop records per flow");
        let packets = arena_to_aos(&arena);
        for p in &packets[1..5] {
            assert_eq!(p.channels, packets[0].channels);
            assert_eq!(p.hop_delay, packets[0].hop_delay);
        }
        assert_ne!(packets[5].channels, packets[0].channels);
        let sers: Vec<u64> = packets.iter().map(|p| p.ser_cycles).collect();
        assert_eq!(sers, [32, 32, 32, 32, 29, 2]);
        assert_eq!(flit_hops, 2 * (4 * 32 + 29 + 2));

        // The energy total equals a per-packet, per-hop accumulation in
        // traversal order, bit for bit (the tail packet included).
        let mut expected = 0.0f64;
        for (f, sizes) in [
            (&flows[0], &[1024, 1024, 1024, 1024, 904][..]),
            (&flows[1], &[64]),
        ] {
            let mut path = Vec::new();
            rt.path_into(&topo, f.src, f.dst, &mut path);
            for &size in sizes {
                let bits = size * 8;
                let mut at = f.src;
                for lid in &path {
                    let link = topo.link(*lid);
                    expected += hw.hop_energy_pj(bits, topo.ports(at), link.length_hops);
                    at = link.opposite(at);
                }
                expected += bits as f64 * hw.router_energy_pj_per_bit(topo.ports(f.dst));
            }
        }
        assert_eq!(energy.to_bits(), expected.to_bits());
    }

    #[test]
    fn zero_ni_delay_burst_matches_retry_polling_reference() {
        // router_pipeline_cycles = 0 puts every source's first first-link
        // header at cycle 0, the instant of the injection burst. The
        // burst must still order exactly like the reference retry-polling
        // loop on a contention-free pattern.
        let topo = mesh5();
        let hw = HwParams {
            router_pipeline_cycles: 0,
            ..HwParams::default()
        };
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let flows: Vec<Flow> = (0..5)
            .map(|i| Flow::new(NodeId(i * 5), NodeId(i * 5 + 4), 512))
            .collect();
        let (arena, _, _) = build_packets(&topo, &hw, &flows, &cfg, &rt);
        assert!(arena.hop_delay[arena.start(0)] == 0, "zero NI delay");
        let n_channels = 2 * topo.link_count() + topo.node_count();
        let mut legacy = arena_to_aos(&arena);
        let st = run_arena(arena, n_channels);
        let (old, _) = retry_polling_reference(&mut legacy, n_channels);
        assert_eq!(st.arena.delivered_at, old);
    }

    #[test]
    fn des_energy_matches_analytical() {
        // Both models use identical path-energy accounting.
        let topo = mesh5();
        let hw = HwParams::default();
        let flows: Vec<Flow> = (0..10)
            .map(|i| Flow::new(NodeId(i), NodeId(24 - i), 2048))
            .collect();
        let des = simulate(&topo, &hw, &flows, &SimConfig::default());
        let ana = analyze(&topo, &hw, &flows);
        assert!((des.total_energy_pj - ana.total_energy_pj).abs() / ana.total_energy_pj < 1e-9);
    }

    #[test]
    fn des_never_beats_analytical_bound() {
        let topo = mesh5();
        let hw = HwParams::default();
        let flows: Vec<Flow> = (0..30)
            .map(|i| Flow::new(NodeId((i * 3) % 25), NodeId((i * 11 + 5) % 25), 4096))
            .collect();
        let des = simulate(&topo, &hw, &flows, &SimConfig::default());
        let ana = analyze(&topo, &hw, &flows);
        assert!(
            des.makespan_cycles >= ana.makespan_cycles,
            "DES {} cannot beat the analytical lower bound {}",
            des.makespan_cycles,
            ana.makespan_cycles
        );
    }

    #[test]
    fn packet_segmentation() {
        let topo = mesh5();
        let hw = HwParams::default();
        let rep = simulate(
            &topo,
            &hw,
            &[Flow::new(NodeId(0), NodeId(1), 5000)],
            &SimConfig { packet_bytes: 1024 },
        );
        assert_eq!(rep.packets, 5);
    }

    #[test]
    fn empty_flows_ok() {
        let topo = mesh5();
        let rep = simulate(&topo, &HwParams::default(), &[], &SimConfig::default());
        assert_eq!(rep.makespan_cycles, 0);
        assert_eq!(rep.packets, 0);
        assert_eq!(rep.heap_events, 0);
    }

    #[test]
    fn degenerate_flows_carry_no_traffic() {
        // `src == dst` and zero-byte flows are skipped during packet
        // building: no packets, no flits, no energy.
        let topo = mesh5();
        let hw = HwParams::default();
        let degenerate = [
            Flow::new(NodeId(3), NodeId(3), 4096),
            Flow::new(NodeId(0), NodeId(24), 0),
            Flow::new(NodeId(7), NodeId(7), 0),
        ];
        let rep = simulate(&topo, &hw, &degenerate, &SimConfig::default());
        assert_eq!(rep.packets, 0);
        assert_eq!(rep.flit_hops, 0);
        assert_eq!(rep.total_energy_pj, 0.0);
        assert_eq!(rep.makespan_cycles, 0);

        // Mixed with one real flow, only the real flow is simulated.
        let mut mixed = degenerate.to_vec();
        mixed.push(Flow::new(NodeId(0), NodeId(1), 64));
        let mixed_rep = simulate(&topo, &hw, &mixed, &SimConfig::default());
        let alone = simulate(
            &topo,
            &hw,
            &[Flow::new(NodeId(0), NodeId(1), 64)],
            &SimConfig::default(),
        );
        assert_eq!(mixed_rep, alone);
        assert_eq!(mixed_rep.packets, 1);
    }

    #[test]
    fn p95_nearest_rank_boundaries() {
        // n = 1: the only sample is every percentile.
        assert_eq!(percentile_nearest_rank(&mut [42], 95), 42);
        // n = 20: rank ceil(0.95 * 20) = 19 -> the 19th smallest.
        let mut v20: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile_nearest_rank(&mut v20, 95), 19);
        // n = 100: rank ceil(0.95 * 100) = 95 -> the 95th smallest.
        let mut v100: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&mut v100, 95), 95);
        // n = 10: rank ceil(9.5) = 10 -> the max. The seed's floor
        // truncation under-reported this as the 9th sample.
        let mut v10: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        assert_eq!(percentile_nearest_rank(&mut v10, 95), 1000);
        // Empty input stays 0.
        assert_eq!(percentile_nearest_rank(&mut [], 95), 0);
        // Unsorted input selects the same rank.
        let mut shuffled: Vec<u64> = (1..=20).map(|i| (i * 7) % 20 + 1).collect();
        assert_eq!(percentile_nearest_rank(&mut shuffled, 95), 19);
    }

    #[test]
    fn p95_reported_for_single_packet() {
        let topo = mesh5();
        let hw = HwParams::default();
        let rep = simulate(
            &topo,
            &hw,
            &[Flow::new(NodeId(0), NodeId(2), 64)],
            &SimConfig::default(),
        );
        // With one packet, p95 must equal the makespan, not under-report.
        assert_eq!(rep.p95_packet_latency_cycles, rep.makespan_cycles);
    }

    /// Regression for the seed's unfair tie-break: a late-arriving packet
    /// with a lower `seq` must NOT jump ahead of an earlier-arrived
    /// packet waiting on the same busy channel.
    #[test]
    fn busy_channel_serves_in_arrival_order() {
        let topo = mesh5();
        let hw = HwParams::default();
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let n = |x, y| topo.node_at(Coord::new2(x, y)).unwrap();
        // seq 0 occupies the (2,0)->(3,0) channel for a long window;
        // seq 1 (low seq) reaches that channel LATE (3 hops away);
        // seq 2 (high seq) reaches it EARLY (1 hop closer).
        let flows = [
            Flow::new(n(2, 0), n(3, 0), 1024),
            Flow::new(n(0, 0), n(4, 0), 64),
            Flow::new(n(1, 0), n(4, 0), 64),
        ];
        let (arena, _, _) = build_packets(&topo, &hw, &flows, &cfg, &rt);
        assert_eq!(arena.len(), 3);
        let n_channels = 2 * topo.link_count() + topo.node_count();

        let mut legacy = arena_to_aos(&arena);
        let st = run_arena(arena, n_channels);
        assert!(
            st.arena.delivered_at[2] < st.arena.delivered_at[1],
            "FIFO: the earlier-arrived seq 2 ({}) must finish before the \
             late low-seq packet ({})",
            st.arena.delivered_at[2],
            st.arena.delivered_at[1]
        );

        // The retry-polling seed loop got this backwards: at the release
        // cycle its tie-break by `seq` let packet 1 jump the queue.
        let (delivered, _) = retry_polling_reference(&mut legacy, n_channels);
        assert!(
            delivered[1] < delivered[2],
            "reference seed loop should exhibit the seq queue-jump"
        );
    }

    /// The reservation scheduler must model at most half the events of
    /// the seed's retry-polling loop under heavy contention (a ≥2×
    /// scheduler-efficiency bar).
    #[test]
    fn reservation_halves_retry_polling_events_under_contention() {
        let topo = mesh5();
        let hw = HwParams::default();
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let flows = contention_burst();
        let n_channels = 2 * topo.link_count() + topo.node_count();

        let (arena, _, _) = build_packets(&topo, &hw, &flows, &cfg, &rt);
        let mut legacy = arena_to_aos(&arena);
        let st = run_arena(arena, n_channels);
        let (_, legacy_events) = retry_polling_reference(&mut legacy, n_channels);

        assert!(
            legacy_events >= 2 * st.stats.heap_events,
            "retry polling {legacy_events} vs reservations {} heap events",
            st.stats.heap_events
        );
        // Both loops agree on the aggregate timeline under this funnel
        // pattern's unambiguous FIFO order.
        assert!(st.stats.heap_events > 0);
    }

    #[test]
    fn empty_fault_set_is_bit_identical_to_healthy_run() {
        let topo = mesh5();
        let hw = HwParams::default();
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let flows = contention_burst();
        let healthy = simulate_with_table(&topo, &hw, &flows, &cfg, &rt);
        let faulty = simulate_faulty_with_scratch(
            &topo,
            &hw,
            &flows,
            &cfg,
            &rt,
            &LinkFaults::none(),
            &mut SimScratch::new(),
        );
        assert_eq!(healthy, faulty);
        assert_eq!(faulty.total_fault_wait_cycles, 0);
        assert_eq!(faulty.faulted_traversals, 0);
    }

    #[test]
    fn faulted_channel_defers_headers_and_counts_the_stall() {
        let topo = mesh5();
        let hw = HwParams::default();
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let src = topo.node_at(Coord::new2(0, 0)).unwrap();
        let dst = topo.node_at(Coord::new2(2, 0)).unwrap();
        let flows = [Flow::new(src, dst, 64)];
        let healthy = simulate_with_table(&topo, &hw, &flows, &cfg, &rt);

        // Black out every link for a long window starting at cycle 0:
        // the packet's first link hop must stall until the window ends.
        let windows: Vec<(LinkId, u64, u64)> = (0..topo.link_count())
            .map(|l| (LinkId(topology::narrow::u32_idx(l)), 0, 1_000))
            .collect();
        let faults = LinkFaults::from_link_windows(&topo, &windows);
        assert!(!faults.is_empty());
        let faulty = simulate_faulty_with_scratch(
            &topo,
            &hw,
            &flows,
            &cfg,
            &rt,
            &faults,
            &mut SimScratch::new(),
        );
        assert!(faulty.faulted_traversals > 0);
        assert!(faulty.total_fault_wait_cycles > 0);
        assert!(
            faulty.makespan_cycles > healthy.makespan_cycles,
            "blackout {} must delay the healthy makespan {}",
            faulty.makespan_cycles,
            healthy.makespan_cycles
        );
        // The NI channel is never faulted, so the stall starts when the
        // header reaches the first *link* channel and ends at cycle 1000.
        assert_eq!(
            faulty.makespan_cycles,
            1_000 + healthy.makespan_cycles - u64::from(hw.router_pipeline_cycles)
        );
    }

    #[test]
    fn a_deferred_header_keeps_its_order_at_the_window_end() {
        // A (seq 0, 2 flits) reaches link (1,0)->(2,0) at cycle 4, inside
        // a blackout that ends at 9; B (seq 1, 4 flits) reaches the same
        // link from (0,0) at exactly cycle 9. By `(time, seq, hop)` the
        // deferred A goes first, so only B waits, for A's 2 flits.
        let topo = mesh5();
        let hw = HwParams::default();
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let n = |x, y| topo.node_at(Coord::new2(x, y)).unwrap();
        let flows = [
            Flow::new(n(1, 0), n(3, 0), 64),
            Flow::new(n(0, 0), n(3, 0), 128),
        ];
        let link = rt.path(&topo, n(1, 0), n(3, 0))[0];
        let faults = LinkFaults::from_link_windows(&topo, &[(link, 0, 9)]);
        let rep = simulate_faulty_with_scratch(
            &topo,
            &hw,
            &flows,
            &cfg,
            &rt,
            &faults,
            &mut SimScratch::new(),
        );
        assert_eq!(
            (rep.faulted_traversals, rep.total_fault_wait_cycles),
            (1, 5)
        );
        assert_eq!(rep.total_channel_wait_cycles, 2);
        assert_eq!(rep.makespan_cycles, 25);
    }

    #[test]
    fn ni_channels_are_never_faulted() {
        // Every link blacked out from cycle 0: no window slot exists for
        // an NI channel, so none of them is ever blocked.
        let topo = mesh5();
        let n_links = topo.link_count();
        let windows: Vec<(LinkId, u64, u64)> = (0..n_links)
            .map(|l| (LinkId(topology::narrow::u32_idx(l)), 0, u64::MAX))
            .collect();
        let faults = LinkFaults::from_link_windows(&topo, &windows);
        for ch in 0..2 * n_links {
            assert_eq!(faults.blocked_until(ch, 0), Some(u64::MAX));
        }
        for ch in 2 * n_links..2 * n_links + topo.node_count() {
            assert_eq!(faults.blocked_until(ch, 0), None, "NI channel {ch}");
            assert_eq!(faults.blocked_until(ch, 1 << 40), None, "NI channel {ch}");
        }
    }

    #[test]
    fn hop_field_fits_its_largest_packet() {
        // 65,534 links plus the source NI: 65,535 traversals, the most
        // the 16-bit hop field holds.
        assert_hop_field_fits(65_534);
    }

    #[test]
    fn header_keys_round_trip_at_their_field_limits() {
        for (time, seq, hop) in [
            (0, 0, 0),
            (u64::MAX, u32::MAX, u16::MAX),
            (1, u32::MAX, 0),
            (u64::MAX, 0, u16::MAX),
        ] {
            let key = header_key(time, seq, hop);
            assert_eq!(key & DEFERRED, 0);
            assert_eq!(unpack_key(key), (time, seq, hop));
            assert_eq!(unpack_key(key | DEFERRED), (time, seq, hop));
        }
        // Integer order is (time, seq, hop) order, whatever the tag.
        let ordered = [
            header_key(5, u32::MAX, u16::MAX) | DEFERRED,
            header_key(6, 0, 0),
            header_key(6, 0, 1) | DEFERRED,
            header_key(6, 1, 0),
        ];
        assert!(ordered.windows(2).all(|w| w[0] < w[1]));
    }

    /// Runs `flows` one heap pop at a time under `faults`, checking before
    /// each pop that the heap holds exactly the head of every non-empty
    /// departure FIFO, one per channel, plus the deferred headers.
    /// Returns the longest heap and the most deferred headers seen.
    fn heap_holds_only_fifo_heads(flows: &[Flow], faults: &LinkFaults) -> (usize, usize) {
        let topo = mesh5();
        let hw = HwParams::default();
        let rt = RouteTable::build(&topo, &hw);
        let (arena, _, _) = build_packets(&topo, &hw, flows, &SimConfig::default(), &rt);
        let mut st = SimScratch::new();
        st.arena = arena;
        st.reset_engine(channel_count(&topo));
        for seq in 0..st.arena.len() {
            st.reserve(topology::narrow::u32_idx(seq), 0, 0);
        }
        let (mut longest, mut most_deferred) = (0, 0);
        loop {
            let mut heads = std::collections::BTreeSet::new();
            let mut deferred = 0;
            for &Reverse(key) in st.queue.iter() {
                let (_, seq, hop) = unpack_key(key);
                if key & DEFERRED != 0 {
                    deferred += 1;
                } else {
                    let from = st.arena.channels[st.arena.start(seq as usize) + hop as usize - 1];
                    assert!(heads.insert(from), "two heads of channel {from}");
                }
            }
            let pending = st.fifo_tail.iter().filter(|&&t| t != EMPTY).count();
            assert_eq!(heads.len(), pending, "a non-empty FIFO without its head");
            assert_eq!(st.queue.len(), pending + deferred);
            longest = longest.max(st.queue.len());
            most_deferred = most_deferred.max(deferred);
            if !st.step(faults) {
                break;
            }
        }
        assert_eq!(st.stats.delivered, st.arena.len());
        (longest, most_deferred)
    }

    #[test]
    fn heap_holds_one_entry_per_busy_fifo_plus_deferrals() {
        // 24 sources funnel 96 packets into one sink; the heap holds one
        // header per channel with departures pending, far fewer than the
        // packets in flight.
        let burst = contention_burst();
        let (longest, deferred) = heap_holds_only_fifo_heads(&burst, &LinkFaults::none());
        assert!((24..96).contains(&longest), "{longest}");
        assert_eq!(deferred, 0);

        // Blackouts on every fifth link, staggered, defer headers that
        // then sit on the heap outside any FIFO.
        let topo = mesh5();
        let windows: Vec<(LinkId, u64, u64)> = (0..topo.link_count())
            .step_by(5)
            .map(|l| {
                let start = 20 * l as u64;
                (LinkId(topology::narrow::u32_idx(l)), start, start + 150)
            })
            .collect();
        let faults = LinkFaults::from_link_windows(&topo, &windows);
        let (_, deferred) = heap_holds_only_fifo_heads(&burst, &faults);
        assert!(deferred > 0, "the blackouts must defer some headers");
    }

    #[test]
    #[should_panic(expected = "exceeds the u16")]
    fn hop_field_overflow_panics() {
        assert_hop_field_fits(65_535);
    }

    #[test]
    fn fault_window_merging_and_lookup() {
        let topo = mesh5();
        let faults = LinkFaults::from_link_windows(
            &topo,
            &[
                (LinkId(0), 10, 20),
                (LinkId(0), 15, 30), // overlaps -> merges to [10, 30)
                (LinkId(0), 40, 40), // degenerate -> dropped
                (LinkId(1), 5, 8),
            ],
        );
        assert_eq!(faults.blocked_until(0, 9), None);
        assert_eq!(faults.blocked_until(0, 10), Some(30));
        assert_eq!(faults.blocked_until(0, 29), Some(30));
        assert_eq!(faults.blocked_until(0, 30), None);
        assert_eq!(faults.blocked_until(0, 40), None);
        // The reverse directed channel of LinkId(1) shares the window.
        let rev = 1 + topo.link_count();
        assert_eq!(faults.blocked_until(rev, 6), Some(8));
    }

    #[test]
    fn matches_retry_polling_reference_without_contention() {
        // On a contention-free run, the scheduler must be observationally
        // identical to the seed loop.
        let topo = mesh5();
        let hw = HwParams::default();
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let flows: Vec<Flow> = (0..5)
            .map(|i| Flow::new(NodeId(i * 5), NodeId(i * 5 + 4), 512))
            .collect();
        let (arena, _, _) = build_packets(&topo, &hw, &flows, &cfg, &rt);
        let n_channels = 2 * topo.link_count() + topo.node_count();
        let mut legacy = arena_to_aos(&arena);
        let st = run_arena(arena, n_channels);
        let (old, _) = retry_polling_reference(&mut legacy, n_channels);
        assert_eq!(st.arena.delivered_at, old);
    }
}
