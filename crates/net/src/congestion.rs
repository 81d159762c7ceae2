//! Congestion-aware packet engine: window-based senders over drop-tail
//! FIFO links with retransmission and ECN-style marking.
//!
//! The one packet-level simulator of `leo-net`. A [`WindowedFlow`] keeps
//! a congestion window, paces packets at `cwnd / srtt`, retransmits on
//! triple-duplicate-ACK or timeout, and shrinks its window under either
//! TCP-Reno-style AIMD or DCTCP-style proportional ECN response
//! ([`CcAlgorithm`]). Links are drop-tail FIFO
//! queues that set a congestion-experienced mark on packets enqueued while
//! the queue occupancy is at or above a configurable threshold
//! ([`CongestionLink::with_ecn`]).
//!
//! Background traffic that does *not* react to congestion — Earth-observation
//! bulk downlinks, aggregated user load — is modelled by open-loop
//! [`CbrFlow`]s, which emit at a fixed rate no matter what the network does
//! and share the queues with windowed senders. On their own they time the
//! §3.3 downlink-contention footnote (`examples/downlink_contention.rs`):
//! per-flow delivery ratio and mean latency ([`CbrStats`]).
//!
//! # Model and simplifications
//!
//! * Data packets are fixed-size (`packet_bits`); a transfer of `packets`
//!   distinct packets completes when the **receiver** has seen every
//!   distinct sequence number at least once ([`WindowedStats::completion_s`]).
//! * ACKs are per-data-packet, carry the cumulative next-expected sequence
//!   number plus the triggering packet's sequence and CE mark, and return
//!   over an idealized reverse path: a pure delay equal to the sum of the
//!   forward route's propagation delays (no reverse-path queueing or
//!   serialization).
//! * The retransmission timeout is a fixed per-flow duration (no adaptive
//!   Jacobson/Karels RTO); the smoothed RTT is still tracked for pacing.
//! * Senders pace at `cwnd · packet_bits / srtt` rather than dumping whole
//!   windows back-to-back, so an uncontended transfer with a window at or
//!   above the path's bandwidth-delay product runs at line rate without
//!   overflowing the first queue.
//!
//! # Event core
//!
//! The engine is a single sequential event loop that pops events in
//! `(time, kind rank, insertion seq)` order: ties in time go to transmit
//! completions, then ACKs, timeouts, pacing, emissions and enqueues, and
//! then to the earlier-scheduled event. Two runs of the same configuration
//! produce identical results, independent of thread count or observability
//! level.
//!
//! Pending events do not share one heap. Each (object, kind) pair owns a
//! FIFO lane, and every lane is sorted by construction:
//!
//! * a link's `TxDone`, a flow's pacer and a CBR flow's next emission are
//!   singletons — at most one is ever pending;
//! * a link's forwards to the next hop (`Enqueue`, at `now + prop_delay`),
//!   a flow's ACKs (at the final hop's `now + prop_delay + ack_delay`) and
//!   its retransmission timers (at `now + rto`) are each `now` plus a
//!   per-object constant, and `now` never decreases.
//!
//! A small binary heap holds only the head of each non-empty lane, at most
//! `2 · links + 3 · flows + CBR flows` entries. Popping the minimum head
//! and re-keying its lane with the lane's next event is a k-way merge of
//! sorted runs, so it yields exactly the order one heap of every event
//! would, exact-time ties included. Scheduling an event before its lane's
//! tail would break that, and panics. A lane its pop empties (a singleton,
//! typically) keeps its stale head parked at the top of the heap while the
//! handler runs, so the usual refill costs one in-place re-key rather than
//! a pop and a push. [`CongestionNetwork::events`] counts
//! the events processed; each run call adds its count to the
//! `net.pkt.events` counter once.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Identifier of a link in a [`CongestionNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CLinkId(pub usize);

/// Identifier of a windowed (congestion-controlled) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SenderId(pub usize);

/// Identifier of an open-loop CBR cross-traffic flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CbrId(pub usize);

/// A directed link: transmission rate, propagation delay, a drop-tail FIFO
/// queue, and an optional ECN marking threshold.
#[derive(Debug, Clone, Copy)]
pub struct CongestionLink {
    /// Transmission rate, bits per second.
    pub rate_bps: f64,
    /// Propagation delay, seconds.
    pub prop_delay_s: f64,
    /// Queue capacity in packets (excluding the packet in service).
    pub queue_packets: usize,
    /// Packets enqueued while the queue already holds at least this many
    /// packets are marked congestion-experienced. `None` disables marking.
    pub ecn_threshold: Option<usize>,
}

impl CongestionLink {
    /// Creates a link with marking disabled.
    pub fn new(rate_bps: f64, prop_delay_s: f64, queue_packets: usize) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "link rate must be positive and finite, got {rate_bps}"
        );
        assert!(
            prop_delay_s.is_finite() && prop_delay_s >= 0.0,
            "propagation delay must be non-negative and finite, got {prop_delay_s}"
        );
        Self {
            rate_bps,
            prop_delay_s,
            queue_packets,
            ecn_threshold: None,
        }
    }

    /// Enables ECN-style marking at the given queue-occupancy threshold.
    pub fn with_ecn(mut self, threshold: usize) -> Self {
        assert!(
            threshold <= self.queue_packets,
            "ECN threshold {threshold} exceeds queue capacity {}",
            self.queue_packets
        );
        self.ecn_threshold = Some(threshold);
        self
    }
}

/// Congestion-control algorithm for a [`WindowedFlow`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CcAlgorithm {
    /// TCP-Reno-style AIMD: slow start below `ssthresh`, additive increase
    /// above it, multiplicative decrease on loss, and a half-window cut at
    /// most once per RTT when an ECN echo arrives.
    Aimd,
    /// DCTCP: per-window marked-ACK fraction feeds an EWMA `alpha` with the
    /// given gain, and the window scales by `1 - alpha/2` once per window
    /// that saw any mark. Loss is still handled Reno-style.
    Dctcp {
        /// EWMA gain `g` for the marked fraction (DCTCP paper uses 1/16).
        gain: f64,
    },
}

/// A window-based, congestion-controlled transfer of `packets` fixed-size
/// packets over a multi-hop route.
#[derive(Debug, Clone)]
pub struct WindowedFlow {
    /// Links traversed in order.
    pub route: Vec<CLinkId>,
    /// Size of every data packet, bits.
    pub packet_bits: f64,
    /// Number of distinct packets to deliver.
    pub packets: u64,
    /// Time the sender starts, seconds.
    pub start_s: f64,
    /// Initial congestion window, packets.
    pub init_cwnd: f64,
    /// Upper bound on the congestion window, packets.
    pub max_cwnd: f64,
    /// Congestion-control algorithm.
    pub algorithm: CcAlgorithm,
    /// Fixed retransmission timeout, seconds. `None` derives
    /// `max(4 × base RTT, 10 ms)` from the route at add time.
    pub rto_s: Option<f64>,
    /// Initial smoothed-RTT estimate used for pacing before the first RTT
    /// sample. `None` derives the route's uncontended packet RTT.
    pub base_rtt_s: Option<f64>,
    /// Initial slow-start threshold, packets. `None` starts in slow start
    /// (`ssthresh = ∞`). A sender that already knows its path's
    /// bandwidth-delay product should set this to `init_cwnd`: starting a
    /// full window in slow start doubles straight past 2× the BDP inside
    /// one RTT, overflowing the bottleneck queue it was sized for.
    pub init_ssthresh: Option<f64>,
}

impl WindowedFlow {
    /// Creates a flow with default tuning (initial window 10 packets,
    /// unbounded maximum window, derived RTO and base RTT).
    pub fn new(
        route: Vec<CLinkId>,
        packet_bits: f64,
        packets: u64,
        start_s: f64,
        algorithm: CcAlgorithm,
    ) -> Self {
        Self {
            route,
            packet_bits,
            packets,
            start_s,
            init_cwnd: 10.0,
            max_cwnd: f64::MAX,
            algorithm,
            rto_s: None,
            base_rtt_s: None,
            init_ssthresh: None,
        }
    }
}

/// An open-loop constant-bit-rate cross-traffic flow (EO bulk downlink,
/// aggregated user traffic). Emits regardless of congestion; lost packets
/// are not retransmitted.
#[derive(Debug, Clone)]
pub struct CbrFlow {
    /// Links traversed in order.
    pub route: Vec<CLinkId>,
    /// Size of every packet, bits.
    pub packet_bits: f64,
    /// Inter-packet emission interval, seconds.
    pub interval_s: f64,
    /// Time of the first emission, seconds.
    pub start_s: f64,
    /// Total packets to emit.
    pub packets: u64,
}

impl CbrFlow {
    /// A CBR flow offering `load_bps` starting at `start_s` for
    /// `duration_s` seconds.
    pub fn with_load(
        route: Vec<CLinkId>,
        packet_bits: f64,
        load_bps: f64,
        start_s: f64,
        duration_s: f64,
    ) -> Self {
        assert!(
            load_bps.is_finite() && load_bps > 0.0,
            "CBR load must be positive and finite, got {load_bps}"
        );
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "CBR duration must be positive and finite, got {duration_s}"
        );
        let interval_s = packet_bits / load_bps;
        let packets = (duration_s / interval_s).ceil().max(1.0) as u64;
        Self {
            route,
            packet_bits,
            interval_s,
            start_s,
            packets,
        }
    }
}

/// Outcome of a windowed flow, valid once the enclosing run has advanced
/// past the events that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedStats {
    /// Packet transmissions, including retransmissions.
    pub transmissions: u64,
    /// Retransmissions only (second and later transmissions of a sequence).
    pub retransmissions: u64,
    /// Packet arrivals at the receiver, including duplicates.
    pub arrivals: u64,
    /// Distinct packets delivered.
    pub delivered: u64,
    /// Transmissions lost to full queues.
    pub dropped: u64,
    /// Arrivals carrying a congestion-experienced mark.
    pub ecn_marked: u64,
    /// Receiver-side completion time: when the last distinct packet
    /// arrived. `None` while the transfer is incomplete.
    pub completion_s: Option<f64>,
    /// Congestion window at observation time, packets.
    pub final_cwnd: f64,
    /// Smoothed RTT at observation time, seconds.
    pub srtt_s: f64,
}

/// Outcome of a CBR cross-traffic flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbrStats {
    /// Packets emitted so far.
    pub emitted: u64,
    /// Packets delivered to the receiver.
    pub delivered: u64,
    /// Packets lost to full queues.
    pub dropped: u64,
    /// Delivered packets carrying a congestion-experienced mark.
    pub ecn_marked: u64,
    /// Sum of the end-to-end latencies of delivered packets, seconds,
    /// each measured from the packet's nominal emission instant
    /// `start_s + k · interval_s`.
    pub latency_sum_s: f64,
}

impl CbrStats {
    /// Fraction of the packets that left the network delivered:
    /// `delivered / (delivered + dropped)`. Packets still in flight are in
    /// neither count, so after a drained run this is the fraction of
    /// emitted packets delivered. A flow that has lost and delivered
    /// nothing has a vacuous ratio of `1.0`, not `0.0`.
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }

    /// Mean end-to-end latency of delivered packets, seconds; `None`
    /// before the first delivery.
    pub fn mean_latency_s(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.latency_sum_s / self.delivered as f64)
    }
}

/// Analytic completion time of an uncontended *packetized* transfer: the
/// first packet store-and-forwards across every hop, and the remaining
/// `n − 1` packets pipeline behind the slowest hop.
///
/// This is the packet-level analogue of [`crate::des::uncontended_transfer_s`],
/// which times the transfer as one indivisible message. The two agree
/// exactly on single-hop routes; on multi-hop routes the packetized bound
/// is smaller because hops overlap (cut-through pipelining), which is what
/// a windowed sender actually achieves.
pub fn uncontended_packet_transfer_s(
    packet_bits: f64,
    packets: u64,
    links: &[CongestionLink],
) -> f64 {
    assert!(!links.is_empty(), "route must have at least one link");
    let first: f64 = links
        .iter()
        .map(|l| packet_bits / l.rate_bps + l.prop_delay_s)
        .sum();
    let bottleneck = links
        .iter()
        .map(|l| packet_bits / l.rate_bps)
        .fold(0.0_f64, f64::max);
    first + (packets.saturating_sub(1)) as f64 * bottleneck
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Win(usize),
    Cbr(usize),
}

#[derive(Debug, Clone, Copy)]
struct Pkt {
    src: Src,
    seq: u64,
    hop: usize,
    marked: bool,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A link finished serializing its in-service packet.
    TxDone { link: usize },
    /// An ACK reached the sender.
    Ack {
        flow: usize,
        seq: u64,
        cum: u64,
        marked: bool,
    },
    /// Retransmission timer for transmission number `txn` of `seq`.
    Timeout { flow: usize, seq: u64, txn: u32 },
    /// The pacer releases the sender's next packet.
    Pace { flow: usize },
    /// A CBR source emits packet `k`.
    Emit { cbr: usize, k: u64 },
    /// A packet arrives at a link's queue (inter-hop forwarding).
    Enqueue { link: usize, pkt: Pkt },
}

impl Ev {
    /// Tie-break rank for events at the same timestamp. Transmit
    /// completions free links before anything else looks at them (the
    /// boundary pinned by `tests::coincident_txdone_and_enqueue_frees_the_link_first`);
    /// ACKs update windows before pacers fire; enqueues observe final link
    /// state.
    fn rank(&self) -> u8 {
        match self {
            Ev::TxDone { .. } => 0,
            Ev::Ack { .. } => 1,
            Ev::Timeout { .. } => 2,
            Ev::Pace { .. } => 3,
            Ev::Emit { .. } => 4,
            Ev::Enqueue { .. } => 5,
        }
    }
}

/// A scheduled event, queued in its lane.
#[derive(Debug)]
struct Event {
    time_s: f64,
    seq: u64,
    kind: Ev,
}

/// The head of a non-empty lane in the merge heap, ordered so the
/// max-heap pops the earliest `(time, rank, seq)` first. `seq` is unique,
/// so `lane` never takes part in the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    /// `time_s` as an integer with the order of [`f64::total_cmp`].
    time_key: i64,
    /// Event-kind rank in the top byte, insertion sequence below it.
    rank_seq: u64,
    lane: u32,
}

impl Head {
    fn of(ev: &Event, lane: u32) -> Self {
        let bits = ev.time_s.to_bits() as i64;
        debug_assert!(ev.seq < 1 << 56, "event sequence overflows its key");
        Self {
            // The bit trick `f64::total_cmp` compares with.
            time_key: bits ^ (((bits >> 63) as u64) >> 1) as i64,
            rank_seq: (ev.kind.rank() as u64) << 56 | ev.seq,
            lane,
        }
    }
}

impl Ord for Head {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time_key
            .cmp(&self.time_key)
            .then_with(|| other.rank_seq.cmp(&self.rank_seq))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct LinkState {
    cfg: CongestionLink,
    busy: Option<Pkt>,
    queue: VecDeque<Pkt>,
    /// Lane of this link's `TxDone` (at most one pending).
    tx_lane: u32,
    /// Lane of the `Enqueue`s this link forwards to the next hop, each
    /// at `now + prop_delay`.
    fwd_lane: u32,
}

struct WinState {
    cfg: WindowedFlow,
    /// Pure-delay reverse path for ACKs: sum of forward propagation delays.
    ack_delay_s: f64,
    rto_s: f64,
    /// Lane of the ACKs, each at final-hop `now + prop + ack_delay`.
    ack_lane: u32,
    /// Lane of the retransmission timers, each at `now + rto`.
    timeout_lane: u32,
    /// Lane of the pacer (at most one pending).
    pace_lane: u32,
    // --- sender ---
    cwnd: f64,
    ssthresh: f64,
    srtt_s: f64,
    snd_una: u64,
    next_seq: u64,
    inflight: u64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    done: bool,
    pace_scheduled: bool,
    next_release_s: f64,
    rtx_queue: VecDeque<u64>,
    rtx_pending: Vec<bool>,
    sacked: Vec<bool>,
    outstanding: Vec<bool>,
    tx_count: Vec<u32>,
    sent_at: Vec<f64>,
    // DCTCP state.
    alpha: f64,
    window_end: u64,
    acks_in_window: u64,
    marked_in_window: u64,
    /// Last multiplicative decrease (loss or AIMD ECN cut).
    last_cut_s: f64,
    // --- receiver ---
    received: Vec<bool>,
    received_count: u64,
    rcv_cum: u64,
    // --- stats ---
    transmissions: u64,
    retransmissions: u64,
    arrivals: u64,
    dropped: u64,
    ecn_marked: u64,
    completion_s: Option<f64>,
}

impl WinState {
    fn window(&self) -> u64 {
        self.cwnd.floor().max(1.0) as u64
    }

    fn has_work(&self) -> bool {
        !self.rtx_queue.is_empty() || self.next_seq < self.cfg.packets
    }
}

struct CbrState {
    cfg: CbrFlow,
    /// Lane of the next emission (at most one pending).
    emit_lane: u32,
    emitted: u64,
    delivered: u64,
    dropped: u64,
    ecn_marked: u64,
    latency_sum_s: f64,
}

/// A schedule or a pop, as the test-only differential oracle replays it:
/// `(time, rank, seq)` of the event.
#[cfg(test)]
#[derive(Debug)]
enum Logged {
    Schedule(f64, u8, u64),
    Pop(f64, u8, u64),
}

/// The congestion-aware packet network: drop-tail ECN-marking links shared
/// by windowed senders and open-loop CBR cross-traffic.
#[derive(Default)]
pub struct CongestionNetwork {
    links: Vec<LinkState>,
    wins: Vec<WinState>,
    cbrs: Vec<CbrState>,
    /// Pending events, one time-sorted FIFO per (object, event kind).
    lanes: Vec<VecDeque<Event>>,
    /// The head of every non-empty lane, plus the parked lane's stale
    /// head at the top.
    heads: BinaryHeap<Head>,
    /// A lane its last pop emptied whose stale head is still the heap's
    /// top (see [`schedule`](Self::schedule)).
    parked: Option<u32>,
    now_s: f64,
    event_seq: u64,
    events: u64,
    incomplete_wins: usize,
    /// Every schedule and pop, when a test switches logging on.
    #[cfg(test)]
    log: Option<Vec<Logged>>,
}

impl CongestionNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a link.
    pub fn add_link(&mut self, link: CongestionLink) -> CLinkId {
        // Route CongestionLink construction through `new` so hand-built
        // structs get the same validation.
        let validated = CongestionLink::new(link.rate_bps, link.prop_delay_s, link.queue_packets);
        let validated = match link.ecn_threshold {
            Some(t) => validated.with_ecn(t),
            None => validated,
        };
        let (tx_lane, fwd_lane) = (self.new_lane(), self.new_lane());
        self.links.push(LinkState {
            cfg: validated,
            busy: None,
            queue: VecDeque::new(),
            tx_lane,
            fwd_lane,
        });
        CLinkId(self.links.len() - 1)
    }

    fn validate_route(&self, route: &[CLinkId], packet_bits: f64, start_s: f64) {
        assert!(!route.is_empty(), "flow route must have at least one link");
        for l in route {
            assert!(l.0 < self.links.len(), "route names unknown link {}", l.0);
        }
        assert!(
            packet_bits.is_finite() && packet_bits > 0.0,
            "packet size must be positive and finite, got {packet_bits}"
        );
        assert!(
            start_s.is_finite() && start_s >= self.now_s,
            "flow start must be finite and not in the simulated past, got {start_s} at t={}",
            self.now_s
        );
    }

    /// Adds a windowed flow; it starts pacing at `start_s`.
    pub fn add_windowed(&mut self, flow: WindowedFlow) -> SenderId {
        self.validate_route(&flow.route, flow.packet_bits, flow.start_s);
        assert!(
            flow.packets > 0,
            "windowed flow must carry at least one packet"
        );
        assert!(
            flow.init_cwnd.is_finite() && flow.init_cwnd >= 1.0,
            "initial window must be at least one packet, got {}",
            flow.init_cwnd
        );
        assert!(
            flow.max_cwnd >= flow.init_cwnd,
            "maximum window {} below initial window {}",
            flow.max_cwnd,
            flow.init_cwnd
        );
        if let CcAlgorithm::Dctcp { gain } = flow.algorithm {
            assert!(
                gain.is_finite() && gain > 0.0 && gain <= 1.0,
                "DCTCP gain must be in (0, 1], got {gain}"
            );
        }
        let base_rtt_s = flow.base_rtt_s.unwrap_or_else(|| {
            flow.route
                .iter()
                .map(|l| {
                    let cfg = &self.links[l.0].cfg;
                    flow.packet_bits / cfg.rate_bps + 2.0 * cfg.prop_delay_s
                })
                .sum()
        });
        assert!(
            base_rtt_s.is_finite() && base_rtt_s > 0.0,
            "base RTT must be positive and finite, got {base_rtt_s}"
        );
        let rto_s = flow.rto_s.unwrap_or_else(|| (4.0 * base_rtt_s).max(0.01));
        assert!(
            rto_s.is_finite() && rto_s > 0.0,
            "retransmission timeout must be positive and finite, got {rto_s}"
        );
        let ssthresh = flow.init_ssthresh.unwrap_or(f64::MAX);
        assert!(
            !ssthresh.is_nan() && ssthresh >= 1.0,
            "initial ssthresh must be at least one packet, got {ssthresh}"
        );
        let n = flow.packets as usize;
        let ack_delay_s = flow
            .route
            .iter()
            .map(|l| self.links[l.0].cfg.prop_delay_s)
            .sum();
        let start_s = flow.start_s;
        let init_cwnd = flow.init_cwnd;
        let id = self.wins.len();
        let (ack_lane, timeout_lane, pace_lane) =
            (self.new_lane(), self.new_lane(), self.new_lane());
        self.wins.push(WinState {
            ack_delay_s,
            rto_s,
            ack_lane,
            timeout_lane,
            pace_lane,
            cwnd: init_cwnd,
            ssthresh,
            srtt_s: base_rtt_s,
            snd_una: 0,
            next_seq: 0,
            inflight: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            done: false,
            pace_scheduled: true,
            next_release_s: start_s,
            rtx_queue: VecDeque::new(),
            rtx_pending: vec![false; n],
            sacked: vec![false; n],
            outstanding: vec![false; n],
            tx_count: vec![0; n],
            sent_at: vec![0.0; n],
            alpha: 1.0,
            window_end: 0,
            acks_in_window: 0,
            marked_in_window: 0,
            last_cut_s: f64::NEG_INFINITY,
            received: vec![false; n],
            received_count: 0,
            rcv_cum: 0,
            transmissions: 0,
            retransmissions: 0,
            arrivals: 0,
            dropped: 0,
            ecn_marked: 0,
            completion_s: None,
            cfg: flow,
        });
        self.incomplete_wins += 1;
        self.schedule(pace_lane, start_s, Ev::Pace { flow: id });
        SenderId(id)
    }

    /// Adds an open-loop CBR cross-traffic flow.
    pub fn add_cbr(&mut self, flow: CbrFlow) -> CbrId {
        self.validate_route(&flow.route, flow.packet_bits, flow.start_s);
        assert!(flow.packets > 0, "CBR flow must emit at least one packet");
        assert!(
            flow.interval_s.is_finite() && flow.interval_s > 0.0,
            "CBR emission interval must be positive and finite, got {}",
            flow.interval_s
        );
        let id = self.cbrs.len();
        let start_s = flow.start_s;
        let emit_lane = self.new_lane();
        self.cbrs.push(CbrState {
            cfg: flow,
            emit_lane,
            emitted: 0,
            delivered: 0,
            dropped: 0,
            ecn_marked: 0,
            latency_sum_s: 0.0,
        });
        self.schedule(emit_lane, start_s, Ev::Emit { cbr: id, k: 0 });
        CbrId(id)
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        self.run_until(f64::INFINITY);
    }

    /// Processes every event with timestamp `<= horizon_s`, then advances
    /// the clock to the horizon. Returns `true` if every windowed flow has
    /// completed.
    pub fn run_until(&mut self, horizon_s: f64) -> bool {
        assert!(!horizon_s.is_nan(), "horizon must not be NaN");
        self.drive(horizon_s, false)
    }

    /// Like [`run_until`](Self::run_until), but stops as soon as the last
    /// windowed flow completes, leaving cross-traffic events unprocessed.
    /// Use this to time transfers without paying for background traffic
    /// that outlives them.
    pub fn run_while_incomplete(&mut self, horizon_s: f64) -> bool {
        assert!(!horizon_s.is_nan(), "horizon must not be NaN");
        self.drive(horizon_s, true)
    }

    fn drive(&mut self, horizon_s: f64, stop_on_complete: bool) -> bool {
        let first_event = self.events;
        let stopped = loop {
            if stop_on_complete && self.incomplete_wins == 0 {
                break true;
            }
            let Some(ev) = self.pop_due(horizon_s) else {
                break false;
            };
            #[cfg(test)]
            if let Some(log) = &mut self.log {
                log.push(Logged::Pop(ev.time_s, ev.kind.rank(), ev.seq));
            }
            self.now_s = ev.time_s;
            self.events += 1;
            match ev.kind {
                Ev::TxDone { link } => self.on_tx_done(link),
                Ev::Ack {
                    flow,
                    seq,
                    cum,
                    marked,
                } => self.on_ack(flow, seq, cum, marked),
                Ev::Timeout { flow, seq, txn } => self.on_timeout(flow, seq, txn),
                Ev::Pace { flow } => self.on_pace(flow),
                Ev::Emit { cbr, k } => self.on_emit(cbr, k),
                Ev::Enqueue { link, pkt } => self.enqueue(link, pkt),
            }
        };
        leo_obs::counter!("net.pkt.events").add(self.events - first_event);
        if stopped {
            return true;
        }
        if horizon_s.is_finite() && horizon_s > self.now_s {
            self.now_s = horizon_s;
        }
        self.incomplete_wins == 0
    }

    /// Pops the earliest pending event if it is due by `horizon_s`: the
    /// minimum lane head, whose lane is then re-keyed in place by its next
    /// event (one sift). A lane the pop empties is parked instead of
    /// retired (see [`schedule`](Self::schedule)).
    fn pop_due(&mut self, horizon_s: f64) -> Option<Event> {
        if self.parked.take().is_some() {
            self.heads.pop();
        }
        let mut head = self.heads.peek_mut()?;
        let lane = &mut self.lanes[head.lane as usize];
        if lane.front().expect("heads name non-empty lanes").time_s > horizon_s {
            return None;
        }
        let ev = lane.pop_front();
        match lane.front() {
            Some(next) => *head = Head::of(next, head.lane),
            None => self.parked = Some(head.lane),
        }
        ev
    }

    /// Current simulated time.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Events processed so far, over every run call.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// True once every windowed flow has delivered all its packets.
    pub fn all_complete(&self) -> bool {
        self.incomplete_wins == 0
    }

    /// Stats for a windowed flow at the current simulated time.
    pub fn windowed_stats(&self, id: SenderId) -> WindowedStats {
        let w = &self.wins[id.0];
        WindowedStats {
            transmissions: w.transmissions,
            retransmissions: w.retransmissions,
            arrivals: w.arrivals,
            delivered: w.received_count,
            dropped: w.dropped,
            ecn_marked: w.ecn_marked,
            completion_s: w.completion_s,
            final_cwnd: w.cwnd,
            srtt_s: w.srtt_s,
        }
    }

    /// Stats for a CBR flow at the current simulated time.
    pub fn cbr_stats(&self, id: CbrId) -> CbrStats {
        let c = &self.cbrs[id.0];
        CbrStats {
            emitted: c.emitted,
            delivered: c.delivered,
            dropped: c.dropped,
            ecn_marked: c.ecn_marked,
            latency_sum_s: c.latency_sum_s,
        }
    }

    fn new_lane(&mut self) -> u32 {
        self.lanes.push(VecDeque::new());
        u32::try_from(self.lanes.len() - 1).expect("too many event lanes")
    }

    /// Appends an event to `lane`. A lane is a FIFO, so every event must
    /// come at or after the lane's last one; the merge over lane heads
    /// then pops in exactly the global `(time, rank, seq)` order.
    ///
    /// Singleton lanes (a link's transmit completion, a pacer, a CBR
    /// emission) are emptied by every pop and mostly refilled by the
    /// handler that runs next. So the popped lane's stale head stays at
    /// the top of the heap, parked, while its handler runs: a refill
    /// re-keys it in place instead of a pop plus a push. It is still the
    /// top when the refill comes, because no event is scheduled before
    /// `now`; one that sorts ahead of it (same instant, lower rank)
    /// retires it first, and the next pop retires it if no refill came.
    fn schedule(&mut self, lane: u32, time_s: f64, kind: Ev) {
        debug_assert!(time_s.is_finite());
        let seq = self.event_seq;
        self.event_seq += 1;
        #[cfg(test)]
        if let Some(log) = &mut self.log {
            log.push(Logged::Schedule(time_s, kind.rank(), seq));
        }
        let ev = Event { time_s, seq, kind };
        let queue = &mut self.lanes[lane as usize];
        if let Some(back) = queue.back() {
            assert!(
                back.time_s.total_cmp(&time_s).is_le(),
                "event lane {lane} is a FIFO: {kind:?} at t={time_s} scheduled behind t={}",
                back.time_s
            );
        } else {
            let head = Head::of(&ev, lane);
            match self.parked {
                Some(parked) if parked == lane => {
                    self.parked = None;
                    *self.heads.peek_mut().expect("a parked head") = head;
                }
                Some(_) if head > *self.heads.peek().expect("a parked head") => {
                    self.parked = None;
                    self.heads.pop();
                    self.heads.push(head);
                }
                _ => self.heads.push(head),
            }
        }
        queue.push_back(ev);
    }

    fn packet_bits(&self, src: Src) -> f64 {
        match src {
            Src::Win(i) => self.wins[i].cfg.packet_bits,
            Src::Cbr(i) => self.cbrs[i].cfg.packet_bits,
        }
    }

    fn route_len(&self, src: Src) -> usize {
        match src {
            Src::Win(i) => self.wins[i].cfg.route.len(),
            Src::Cbr(i) => self.cbrs[i].cfg.route.len(),
        }
    }

    fn enqueue(&mut self, link: usize, mut pkt: Pkt) {
        let now = self.now_s;
        let bits = self.packet_bits(pkt.src);
        let l = &mut self.links[link];
        if l.busy.is_none() {
            l.busy = Some(pkt);
            let tx = bits / l.cfg.rate_bps;
            let lane = l.tx_lane;
            self.schedule(lane, now + tx, Ev::TxDone { link });
        } else if l.queue.len() < l.cfg.queue_packets {
            if let Some(th) = l.cfg.ecn_threshold {
                if l.queue.len() >= th {
                    pkt.marked = true;
                }
            }
            l.queue.push_back(pkt);
        } else {
            match pkt.src {
                Src::Win(i) => self.wins[i].dropped += 1,
                Src::Cbr(i) => self.cbrs[i].dropped += 1,
            }
        }
    }

    fn on_tx_done(&mut self, link: usize) {
        let l = &mut self.links[link];
        let pkt = l.busy.take().expect("TxDone on idle link");
        let prop = l.cfg.prop_delay_s;
        let (tx_lane, fwd_lane) = (l.tx_lane, l.fwd_lane);
        if let Some(next) = l.queue.pop_front() {
            let bits = self.packet_bits(next.src);
            let l = &mut self.links[link];
            l.busy = Some(next);
            let tx = bits / l.cfg.rate_bps;
            let now = self.now_s;
            self.schedule(tx_lane, now + tx, Ev::TxDone { link });
        }
        let arrival = self.now_s + prop;
        if pkt.hop + 1 < self.route_len(pkt.src) {
            let next_link = match pkt.src {
                Src::Win(i) => self.wins[i].cfg.route[pkt.hop + 1].0,
                Src::Cbr(i) => self.cbrs[i].cfg.route[pkt.hop + 1].0,
            };
            self.schedule(
                fwd_lane,
                arrival,
                Ev::Enqueue {
                    link: next_link,
                    pkt: Pkt {
                        hop: pkt.hop + 1,
                        ..pkt
                    },
                },
            );
        } else {
            self.deliver(pkt, arrival);
        }
    }

    /// Receiver-side delivery. Processed while handling the final hop's
    /// `TxDone`, with the arrival timestamp carried explicitly; this is
    /// safe because receiver state is only ever read here and the ACK it
    /// produces is scheduled at `arrival + ack_delay >= arrival`.
    fn deliver(&mut self, pkt: Pkt, arrival_s: f64) {
        match pkt.src {
            Src::Cbr(i) => {
                let c = &mut self.cbrs[i];
                c.delivered += 1;
                c.latency_sum_s += arrival_s - (c.cfg.start_s + pkt.seq as f64 * c.cfg.interval_s);
                if pkt.marked {
                    c.ecn_marked += 1;
                }
            }
            Src::Win(i) => {
                let w = &mut self.wins[i];
                w.arrivals += 1;
                if pkt.marked {
                    w.ecn_marked += 1;
                }
                let seq = pkt.seq as usize;
                if !w.received[seq] {
                    w.received[seq] = true;
                    w.received_count += 1;
                    while w.rcv_cum < w.cfg.packets && w.received[w.rcv_cum as usize] {
                        w.rcv_cum += 1;
                    }
                    if w.received_count == w.cfg.packets {
                        w.completion_s = Some(arrival_s);
                        self.incomplete_wins -= 1;
                    }
                }
                let cum = w.rcv_cum;
                let (lane, ack_delay) = (w.ack_lane, w.ack_delay_s);
                self.schedule(
                    lane,
                    arrival_s + ack_delay,
                    Ev::Ack {
                        flow: i,
                        seq: pkt.seq,
                        cum,
                        marked: pkt.marked,
                    },
                );
            }
        }
    }

    fn on_ack(&mut self, flow: usize, seq: u64, cum: u64, marked: bool) {
        let now = self.now_s;
        let w = &mut self.wins[flow];
        if w.done {
            return;
        }
        let s = seq as usize;
        // Selective bookkeeping: the ACK names the exact packet that
        // arrived, so its transmission is no longer in flight.
        if !w.sacked[s] {
            w.sacked[s] = true;
            if w.outstanding[s] {
                w.outstanding[s] = false;
                w.inflight = w.inflight.saturating_sub(1);
            }
            // Karn's rule: only never-retransmitted packets give RTT samples.
            if w.tx_count[s] == 1 {
                let sample = now - w.sent_at[s];
                w.srtt_s = 0.875 * w.srtt_s + 0.125 * sample;
            }
        }
        w.acks_in_window += 1;
        if marked {
            w.marked_in_window += 1;
        }
        let old_una = w.snd_una;
        if cum > old_una {
            for q in old_una..cum {
                let q = q as usize;
                if w.outstanding[q] {
                    w.outstanding[q] = false;
                    w.inflight = w.inflight.saturating_sub(1);
                }
                w.sacked[q] = true;
            }
            w.snd_una = cum;
            w.dup_acks = 0;
            if w.in_recovery && cum >= w.recover {
                w.in_recovery = false;
            }
            if !w.in_recovery {
                let n = (cum - old_una) as f64;
                if w.cwnd < w.ssthresh {
                    w.cwnd = (w.cwnd + n).min(w.cfg.max_cwnd);
                } else {
                    w.cwnd = (w.cwnd + n / w.cwnd).min(w.cfg.max_cwnd);
                }
            }
        } else {
            w.dup_acks += 1;
            if w.dup_acks == 3 && !w.in_recovery {
                // Fast retransmit of the first missing packet.
                w.in_recovery = true;
                w.recover = w.next_seq;
                w.ssthresh = (w.cwnd / 2.0).max(2.0);
                w.cwnd = w.ssthresh;
                w.last_cut_s = now;
                let missing = w.snd_una as usize;
                if !w.sacked[missing] {
                    if w.outstanding[missing] {
                        w.outstanding[missing] = false;
                        w.inflight = w.inflight.saturating_sub(1);
                    }
                    if !w.rtx_pending[missing] {
                        w.rtx_pending[missing] = true;
                        w.rtx_queue.push_back(w.snd_una);
                    }
                }
            }
        }
        // ECN response.
        match w.cfg.algorithm {
            CcAlgorithm::Aimd => {
                if marked && now - w.last_cut_s >= w.srtt_s {
                    w.ssthresh = (w.cwnd / 2.0).max(2.0);
                    w.cwnd = w.ssthresh;
                    w.last_cut_s = now;
                }
            }
            CcAlgorithm::Dctcp { gain } => {
                if w.snd_una >= w.window_end {
                    let frac = if w.acks_in_window == 0 {
                        0.0
                    } else {
                        w.marked_in_window as f64 / w.acks_in_window as f64
                    };
                    w.alpha = (1.0 - gain) * w.alpha + gain * frac;
                    if w.marked_in_window > 0 {
                        w.cwnd = (w.cwnd * (1.0 - w.alpha / 2.0)).max(1.0);
                        w.ssthresh = w.cwnd;
                        w.last_cut_s = now;
                    }
                    w.acks_in_window = 0;
                    w.marked_in_window = 0;
                    w.window_end = w.next_seq.max(w.snd_una + 1);
                }
            }
        }
        if w.snd_una >= w.cfg.packets {
            w.done = true;
            w.rtx_queue.clear();
            return;
        }
        self.arm_pacer(flow);
    }

    fn on_timeout(&mut self, flow: usize, seq: u64, txn: u32) {
        let w = &mut self.wins[flow];
        let s = seq as usize;
        if w.done || seq < w.snd_una || w.sacked[s] || w.tx_count[s] != txn {
            return; // Stale timer: the packet has since been acknowledged
                    // or retransmitted.
        }
        if w.outstanding[s] {
            w.outstanding[s] = false;
            w.inflight = w.inflight.saturating_sub(1);
        }
        if !w.rtx_pending[s] {
            w.rtx_pending[s] = true;
            w.rtx_queue.push_back(seq);
        }
        // RTO: collapse to one packet and slow-start again.
        w.ssthresh = (w.cwnd / 2.0).max(2.0);
        w.cwnd = 1.0;
        w.in_recovery = false;
        w.dup_acks = 0;
        w.last_cut_s = self.now_s;
        self.arm_pacer(flow);
    }

    fn arm_pacer(&mut self, flow: usize) {
        let w = &mut self.wins[flow];
        if w.pace_scheduled || w.done || !w.has_work() || w.inflight >= w.window() {
            return;
        }
        w.pace_scheduled = true;
        let at = w.next_release_s.max(self.now_s);
        let lane = w.pace_lane;
        self.schedule(lane, at, Ev::Pace { flow });
    }

    fn on_pace(&mut self, flow: usize) {
        let now = self.now_s;
        let w = &mut self.wins[flow];
        w.pace_scheduled = false;
        if w.done || w.inflight >= w.window() {
            return; // An ACK will re-arm the pacer when the window opens.
        }
        // Pick the next sequence: retransmissions first.
        let seq = loop {
            match w.rtx_queue.pop_front() {
                Some(q) => {
                    w.rtx_pending[q as usize] = false;
                    if !w.sacked[q as usize] && q >= w.snd_una {
                        break Some(q);
                    }
                }
                None => {
                    if w.next_seq < w.cfg.packets {
                        let q = w.next_seq;
                        w.next_seq += 1;
                        break Some(q);
                    }
                    break None;
                }
            }
        };
        let Some(seq) = seq else { return };
        let s = seq as usize;
        w.tx_count[s] += 1;
        w.sent_at[s] = now;
        w.outstanding[s] = true;
        w.inflight += 1;
        w.transmissions += 1;
        if w.tx_count[s] > 1 {
            w.retransmissions += 1;
        }
        let txn = w.tx_count[s];
        let first_link = w.cfg.route[0].0;
        let (rto, timeout_lane) = (w.rto_s, w.timeout_lane);
        // Pace at cwnd per srtt.
        let interval = w.srtt_s.max(1e-9) / w.cwnd.max(1.0);
        w.next_release_s = now + interval;
        let pkt = Pkt {
            src: Src::Win(flow),
            seq,
            hop: 0,
            marked: false,
        };
        self.enqueue(first_link, pkt);
        self.schedule(timeout_lane, now + rto, Ev::Timeout { flow, seq, txn });
        self.arm_pacer(flow);
    }

    fn on_emit(&mut self, cbr: usize, k: u64) {
        let now = self.now_s;
        let c = &mut self.cbrs[cbr];
        c.emitted += 1;
        let first_link = c.cfg.route[0].0;
        let (interval, emit_lane) = (c.cfg.interval_s, c.emit_lane);
        let more = k + 1 < c.cfg.packets;
        let pkt = Pkt {
            src: Src::Cbr(cbr),
            seq: k,
            hop: 0,
            marked: false,
        };
        self.enqueue(first_link, pkt);
        if more {
            self.schedule(emit_lane, now + interval, Ev::Emit { cbr, k: k + 1 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn one_link_net(rate_bps: f64, prop_s: f64, queue: usize) -> (CongestionNetwork, CLinkId) {
        let mut net = CongestionNetwork::new();
        let l = net.add_link(CongestionLink::new(rate_bps, prop_s, queue));
        (net, l)
    }

    #[test]
    fn uncontended_transfer_matches_packet_analytic_bound() {
        // 100 Mbit/s, 5 ms prop, plenty of queue; 500 × 10 kbit packets.
        let (mut net, l) = one_link_net(100e6, 5e-3, 256);
        let mut f = WindowedFlow::new(vec![l], 10e3, 500, 0.0, CcAlgorithm::Aimd);
        // Window at the path BDP so pacing runs at line rate immediately.
        f.init_cwnd = 128.0;
        let id = net.add_windowed(f);
        net.run();
        let stats = net.windowed_stats(id);
        assert_eq!(stats.delivered, 500);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.retransmissions, 0);
        let bound =
            uncontended_packet_transfer_s(10e3, 500, &[CongestionLink::new(100e6, 5e-3, 256)]);
        let t = stats.completion_s.expect("transfer completed");
        assert!(
            t >= bound - 1e-9 && t <= bound * 1.05,
            "uncontended completion {t} vs analytic bound {bound}"
        );
    }

    #[test]
    fn single_hop_packet_bound_equals_message_bound_minus_pipelining() {
        // On one hop the packetized bound equals the message-level bound:
        // serialization of all bits plus one propagation delay.
        let links = [CongestionLink::new(50e6, 2e-3, 64)];
        let packets = 400_u64;
        let pkt_bits = 8e3;
        let packetized = uncontended_packet_transfer_s(pkt_bits, packets, &links);
        let message = crate::des::uncontended_transfer_s(
            pkt_bits * packets as f64,
            &[crate::des::Link::new(50e6, 2e-3)],
        );
        assert!((packetized - message).abs() < 1e-9);
    }

    #[test]
    fn multi_hop_packet_bound_beats_message_bound() {
        let links = [
            CongestionLink::new(50e6, 2e-3, 64),
            CongestionLink::new(50e6, 3e-3, 64),
            CongestionLink::new(50e6, 1e-3, 64),
        ];
        let des_links: Vec<_> = links
            .iter()
            .map(|l| crate::des::Link::new(l.rate_bps, l.prop_delay_s))
            .collect();
        let packetized = uncontended_packet_transfer_s(8e3, 400, &links);
        let message = crate::des::uncontended_transfer_s(8e3 * 400.0, &des_links);
        assert!(
            packetized < message,
            "pipelining should beat store-and-forward: {packetized} vs {message}"
        );
    }

    #[test]
    fn slow_start_doubles_the_window_each_round_trip() {
        // Long-propagation link: the first window drains long before ACKs
        // return, so growth is driven purely by slow start.
        let (mut net, l) = one_link_net(1e9, 50e-3, 4096);
        let mut f = WindowedFlow::new(vec![l], 10e3, 4000, 0.0, CcAlgorithm::Aimd);
        f.init_cwnd = 2.0;
        let id = net.add_windowed(f);
        // After ~2 RTTs (ack of the first window arrives at ~100 ms + eps),
        // the window should have grown well past the initial 2.
        net.run_until(0.35);
        let stats = net.windowed_stats(id);
        assert!(
            stats.final_cwnd >= 8.0,
            "window should compound in slow start, got {}",
            stats.final_cwnd
        );
        net.run();
        assert_eq!(net.windowed_stats(id).delivered, 4000);
    }

    #[test]
    fn drop_tail_loss_triggers_retransmission_and_window_cut() {
        // Tiny queue + heavy CBR cross-traffic: the windowed flow must see
        // drops, recover all packets, and end with a reduced window.
        let (mut net, l) = one_link_net(10e6, 2e-3, 4);
        let cross = CbrFlow::with_load(vec![l], 10e3, 9e6, 0.0, 10.0);
        net.add_cbr(cross);
        let mut f = WindowedFlow::new(vec![l], 10e3, 300, 0.0, CcAlgorithm::Aimd);
        f.init_cwnd = 64.0;
        let id = net.add_windowed(f);
        net.run_while_incomplete(60.0);
        let stats = net.windowed_stats(id);
        assert_eq!(stats.delivered, 300, "all packets eventually delivered");
        assert!(stats.dropped > 0, "expected drop-tail losses");
        assert!(
            stats.retransmissions >= stats.dropped.min(1),
            "losses must be repaired by retransmission"
        );
        assert!(
            stats.final_cwnd < 64.0,
            "window should have been cut from its initial value, got {}",
            stats.final_cwnd
        );
    }

    #[test]
    fn ecn_marks_arrive_and_dctcp_keeps_losses_low() {
        // ECN threshold well below the queue limit: DCTCP should see marks
        // and back off before overflowing the queue.
        let mut net = CongestionNetwork::new();
        let l = net.add_link(CongestionLink::new(10e6, 2e-3, 64).with_ecn(8));
        let cross = CbrFlow::with_load(vec![l], 10e3, 4e6, 0.0, 30.0);
        net.add_cbr(cross);
        let mut f = WindowedFlow::new(vec![l], 10e3, 500, 0.0, CcAlgorithm::Dctcp { gain: 0.0625 });
        f.init_cwnd = 16.0;
        let id = net.add_windowed(f);
        net.run_while_incomplete(120.0);
        let stats = net.windowed_stats(id);
        assert_eq!(stats.delivered, 500);
        assert!(stats.ecn_marked > 0, "expected ECN marks under load");
    }

    #[test]
    fn contended_transfer_is_slower_than_uncontended() {
        let run = |load_bps: Option<f64>| {
            let (mut net, l) = one_link_net(20e6, 3e-3, 32);
            if let Some(bps) = load_bps {
                net.add_cbr(CbrFlow::with_load(vec![l], 10e3, bps, 0.0, 60.0));
            }
            let mut f = WindowedFlow::new(vec![l], 10e3, 400, 0.0, CcAlgorithm::Aimd);
            f.init_cwnd = 16.0;
            let id = net.add_windowed(f);
            net.run_while_incomplete(120.0);
            net.windowed_stats(id).completion_s.expect("completed")
        };
        let clear = run(None);
        let loaded = run(Some(15e6));
        assert!(
            loaded > clear * 1.5,
            "cross-traffic should slow the transfer: {loaded} vs {clear}"
        );
    }

    #[test]
    fn engine_is_deterministic_across_runs() {
        let run = || {
            let mut net = CongestionNetwork::new();
            let a = net.add_link(CongestionLink::new(10e6, 2e-3, 8).with_ecn(4));
            let b = net.add_link(CongestionLink::new(5e6, 4e-3, 8));
            net.add_cbr(CbrFlow::with_load(vec![a, b], 8e3, 3e6, 0.0, 20.0));
            net.add_cbr(CbrFlow::with_load(vec![b], 8e3, 1e6, 0.5, 20.0));
            let f = WindowedFlow::new(
                vec![a, b],
                8e3,
                250,
                0.1,
                CcAlgorithm::Dctcp { gain: 0.0625 },
            );
            let id = net.add_windowed(f);
            net.run();
            net.windowed_stats(id)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn completion_is_receiver_side_even_when_acks_lag() {
        // Completion is the arrival of the last distinct packet, not the
        // return of its ACK: with a huge propagation delay the difference
        // is visible.
        let (mut net, l) = one_link_net(1e6, 0.2, 64);
        let mut f = WindowedFlow::new(vec![l], 1e3, 5, 0.0, CcAlgorithm::Aimd);
        f.init_cwnd = 8.0;
        let id = net.add_windowed(f);
        net.run();
        let t = net.windowed_stats(id).completion_s.unwrap();
        // The pacer releases the 5 packets over 4 × (401 ms / 8) ≈ 200 ms,
        // so the last arrival is ≈ 402 ms — but its ACK only returns at
        // ≈ 602 ms. Completion must record the arrival, not the ACK.
        assert!(t < 0.5, "completion should not wait for ACKs, got {t}");
    }

    #[test]
    #[should_panic(expected = "route names unknown link")]
    fn unknown_links_are_rejected() {
        let mut net = CongestionNetwork::new();
        net.add_windowed(WindowedFlow::new(
            vec![CLinkId(7)],
            1e3,
            1,
            0.0,
            CcAlgorithm::Aimd,
        ));
    }

    #[test]
    #[should_panic(expected = "packet size must be positive and finite")]
    fn non_finite_packet_sizes_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 1e-3, 8);
        net.add_windowed(WindowedFlow::new(
            vec![l],
            f64::INFINITY,
            1,
            0.0,
            CcAlgorithm::Aimd,
        ));
    }

    #[test]
    #[should_panic(expected = "flow start must be finite")]
    fn nan_start_times_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 1e-3, 8);
        net.add_windowed(WindowedFlow::new(
            vec![l],
            1e3,
            1,
            f64::NAN,
            CcAlgorithm::Aimd,
        ));
    }

    #[test]
    #[should_panic(expected = "ECN threshold")]
    fn ecn_threshold_above_queue_capacity_is_rejected() {
        CongestionLink::new(1e6, 1e-3, 8).with_ecn(9);
    }

    /// A CBR flow offering `rate_bps` in `packets` packets of
    /// `packet_bits`, starting at time zero.
    fn cbr(route: Vec<CLinkId>, rate_bps: f64, packet_bits: f64, packets: u64) -> CbrFlow {
        CbrFlow {
            route,
            packet_bits,
            interval_s: packet_bits / rate_bps,
            start_s: 0.0,
            packets,
        }
    }

    /// Runs `flows` over a fresh network of `links` to completion and
    /// returns each flow's stats.
    fn run_cbr(links: &[CongestionLink], flows: &[(&[usize], f64, f64, u64)]) -> Vec<CbrStats> {
        let mut net = CongestionNetwork::new();
        let ids: Vec<CLinkId> = links.iter().map(|&l| net.add_link(l)).collect();
        let flows: Vec<CbrId> = flows
            .iter()
            .map(|&(route, rate, bits, n)| {
                net.add_cbr(cbr(route.iter().map(|&i| ids[i]).collect(), rate, bits, n))
            })
            .collect();
        net.run();
        flows.iter().map(|&f| net.cbr_stats(f)).collect()
    }

    /// One CBR flow alone on one link.
    fn lone_cbr(link: CongestionLink, rate_bps: f64, packet_bits: f64, packets: u64) -> CbrStats {
        run_cbr(&[link], &[(&[0], rate_bps, packet_bits, packets)])[0]
    }

    #[test]
    fn lone_cbr_flow_below_capacity_delivers_everything() {
        let s = lone_cbr(CongestionLink::new(1e9, 0.002, 16), 0.5e9, 1e4, 100);
        assert_eq!((s.emitted, s.delivered, s.dropped), (100, 100, 0));
        // Latency = serialization + propagation for every packet.
        let expect = 1e4 / 1e9 + 0.002;
        assert!((s.mean_latency_s().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn overload_drops_the_excess() {
        // Offered 2 Mbps into a 1 Mbps link: ~half must drop once the
        // queue fills.
        let s = lone_cbr(CongestionLink::new(1e6, 0.0, 4), 2e6, 1e4, 500);
        assert!(s.dropped > 150, "dropped {}", s.dropped);
        assert_eq!(s.delivered + s.dropped, 500);
        let ratio = s.delivery_ratio();
        assert!((0.4..0.7).contains(&ratio), "delivery {ratio}");
    }

    #[test]
    fn queueing_latency_grows_with_load() {
        let run_at = |offered: f64| {
            lone_cbr(CongestionLink::new(1e9, 0.001, 64), offered, 1e4, 1000)
                .mean_latency_s()
                .unwrap()
        };
        let light = run_at(0.3e9);
        let heavy = run_at(0.99e9);
        assert!(heavy >= light, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn two_cbr_flows_share_a_link_at_equal_rates() {
        let flow: (&[usize], f64, f64, u64) = (&[0], 0.4e9, 1e4, 400);
        let s = run_cbr(&[CongestionLink::new(1e9, 0.0, 1024)], &[flow, flow]);
        assert_eq!((s[0].delivered, s[1].delivered), (400, 400));
    }

    #[test]
    fn bulk_flow_inflates_interactive_queueing_on_a_shared_downlink() {
        // The §3.3 footnote scenario: EO bulk download + user traffic on
        // one 10 Gbps downlink. Compare *queueing* delay (latency above
        // the serialization+propagation floor).
        let floor = 1.2e4 / 10e9 + 0.002;
        let link = [CongestionLink::new(10e9, 0.002, 256)];
        let user: (&[usize], f64, f64, u64) = (&[0], 0.1e9, 1.2e4, 500);
        let alone = run_cbr(&link, &[user])[0].mean_latency_s().unwrap() - floor;
        // EO bulk slightly oversubscribing the link.
        let shared = run_cbr(&link, &[user, (&[0], 9.98e9, 1.2e5, 20_000)])[0]
            .mean_latency_s()
            .unwrap()
            - floor;
        assert!(alone < 1e-9, "uncontended queueing {alone}");
        assert!(
            shared > 1e-6,
            "bulk sharing should add microseconds-scale queueing, got {shared}"
        );
    }

    #[test]
    fn multi_hop_cbr_packets_traverse_every_link() {
        let links = [
            CongestionLink::new(1e9, 0.001, 8),
            CongestionLink::new(1e9, 0.003, 8),
        ];
        let s = run_cbr(&links, &[(&[0, 1], 0.1e9, 1e4, 10)])[0];
        assert_eq!(s.delivered, 10);
        let expect = 2.0 * (1e4 / 1e9) + 0.001 + 0.003;
        assert!((s.mean_latency_s().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_queue_link_is_pure_blocking() {
        // Two packets arrive 0.5 s apart on a link that needs 1 s to
        // serialize one; the second finds the server busy and no queue.
        let s = lone_cbr(CongestionLink::new(1e6, 0.0, 0), 2e6, 1e6, 2);
        assert_eq!((s.delivered, s.dropped), (1, 1));
    }

    /// An emission landing at the exact instant of a transmit completion
    /// must see the freed link: with the interval equal to the
    /// serialization time, every arrival coincides with the previous
    /// packet's `TxDone`.
    #[test]
    fn coincident_txdone_and_enqueue_frees_the_link_first() {
        let s = lone_cbr(CongestionLink::new(1e6, 0.0, 0), 1e6, 1e6, 4);
        assert_eq!(s.delivered, 4, "coincident arrivals must be served");
        assert_eq!(s.dropped, 0);
        // With a queue, the coincident arrival starts service at once
        // instead of sitting one full serialization behind.
        let s = lone_cbr(CongestionLink::new(1e6, 0.0, 8), 1e6, 1e6, 4);
        assert!((s.mean_latency_s().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "flow route must have at least one link")]
    fn empty_cbr_routes_are_rejected() {
        let mut net = CongestionNetwork::new();
        net.add_cbr(cbr(vec![], 1e6, 1e4, 1));
    }

    #[test]
    #[should_panic(expected = "CBR emission interval must be positive and finite")]
    fn nan_interval_cbr_flows_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        net.add_cbr(CbrFlow {
            interval_s: f64::NAN,
            ..cbr(vec![l], 1e6, 1e4, 1)
        });
    }

    #[test]
    #[should_panic(expected = "flow start must be finite")]
    fn non_finite_start_cbr_flows_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        net.add_cbr(CbrFlow {
            start_s: f64::INFINITY,
            ..cbr(vec![l], 1e6, 1e4, 1)
        });
    }

    #[test]
    #[should_panic(expected = "packet size must be positive and finite")]
    fn infinite_packet_size_cbr_flows_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        net.add_cbr(CbrFlow {
            packet_bits: f64::INFINITY,
            ..cbr(vec![l], 1e6, 1e4, 1)
        });
    }

    #[test]
    #[should_panic(expected = "link rate must be positive and finite")]
    fn non_finite_link_rates_are_rejected() {
        CongestionLink::new(f64::NAN, 0.0, 4);
    }

    #[test]
    fn zero_packet_delivery_ratio_is_vacuously_one() {
        // Nothing delivered or lost yet: the ratio is 1.0, not a silent
        // 0.0, and there is no mean latency.
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        let f = net.add_cbr(CbrFlow {
            start_s: 10.0,
            ..cbr(vec![l], 1e6, 1e4, 1)
        });
        net.run_until(1.0);
        let s = net.cbr_stats(f);
        assert_eq!((s.emitted, s.delivered, s.dropped), (0, 0, 0));
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.mean_latency_s(), None);
    }

    /// Every field of `WindowedStats`, floats as raw bits, so golden
    /// comparisons are exact.
    fn windowed_bits(s: &WindowedStats) -> [u64; 9] {
        [
            s.transmissions,
            s.retransmissions,
            s.arrivals,
            s.delivered,
            s.dropped,
            s.ecn_marked,
            s.completion_s.map_or(u64::MAX, f64::to_bits),
            s.final_cwnd.to_bits(),
            s.srtt_s.to_bits(),
        ]
    }

    /// Every field of `CbrStats`, the latency sum as raw bits.
    fn cbr_bits(s: &CbrStats) -> [u64; 5] {
        [
            s.emitted,
            s.delivered,
            s.dropped,
            s.ecn_marked,
            s.latency_sum_s.to_bits(),
        ]
    }

    /// Golden pin: a 3-hop DCTCP transfer against 0.9 CBR load on every
    /// hop, with queues small enough to force drops and retransmissions.
    /// The numbers were recorded on the all-events heap that preceded
    /// the lane merge; any change to the event order moves them.
    #[test]
    fn contended_three_hop_dctcp_transfer_is_pinned() {
        let mut net = CongestionNetwork::new();
        let route: Vec<CLinkId> = [2e-3, 1e-3, 3e-3]
            .iter()
            .map(|&prop| net.add_link(CongestionLink::new(100e6, prop, 12).with_ecn(4)))
            .collect();
        let cross: Vec<CbrId> = route
            .iter()
            .map(|&l| net.add_cbr(CbrFlow::with_load(vec![l], 12e3, 0.9 * 100e6, 0.0, 1.0)))
            .collect();
        let mut f = WindowedFlow::new(route, 12e3, 600, 0.0, CcAlgorithm::Dctcp { gain: 0.0625 });
        f.init_cwnd = 32.0;
        let id = net.add_windowed(f);
        net.run();
        let w = net.windowed_stats(id);
        assert!(w.dropped > 0 && w.retransmissions > 0, "{w:?}");
        let got_w = windowed_bits(&w);
        let got_c: Vec<[u64; 5]> = cross.iter().map(|&c| cbr_bits(&net.cbr_stats(c))).collect();
        assert_eq!(got_w, GOLDEN_WINDOWED, "{w:?}");
        assert_eq!(got_c, GOLDEN_CBR);
    }

    /// Completion 0.8353066666666191 s, final window 13.812493491427826,
    /// srtt 0.012986600506755675 s.
    const GOLDEN_WINDOWED: [u64; 9] = [
        620,
        20,
        600,
        600,
        20,
        207,
        4605698993130756170,
        4623965360622389870,
        4578639887279041837,
    ];
    const GOLDEN_CBR: [[u64; 5]; 3] = [
        [7500, 7477, 23, 1627, 4625640333465164282],
        [7500, 7483, 17, 1415, 4621815582263185790],
        [7500, 7486, 14, 1238, 4627694558698796197],
    ];

    /// Golden pin of the downlink-contention example's oversubscribed
    /// row (11 Gbps EO bulk next to 100 Mbps of user traffic). Its CBR
    /// flows are phase-locked, so the row depends on how exact-time ties
    /// between emissions and transmit completions resolve.
    #[test]
    fn phase_locked_downlink_row_is_pinned() {
        let mut net = CongestionNetwork::new();
        let downlink = net.add_link(CongestionLink::new(10e9, 0.002, 256));
        let user = net.add_cbr(CbrFlow {
            route: vec![downlink],
            packet_bits: 12_000.0,
            interval_s: 12_000.0 / 0.1e9,
            start_s: 0.0,
            packets: 2_000,
        });
        let bulk = net.add_cbr(CbrFlow {
            route: vec![downlink],
            packet_bits: 120_000.0,
            interval_s: 120_000.0 / 11e9,
            start_s: 0.0,
            packets: (11e9 / 120_000.0 * 0.25) as u64,
        });
        net.run();
        let got = [
            cbr_bits(&net.cbr_stats(user)),
            cbr_bits(&net.cbr_stats(bulk)),
        ];
        assert_eq!(got, GOLDEN_DOWNLINK);
    }

    /// The user flow delivers 233 of 2,000 packets (11.7 %).
    const GOLDEN_DOWNLINK: [[u64; 5]; 2] = [
        [2000, 233, 1767, 0, 4605598855893282753],
        [22916, 21065, 1851, 0, 4636948522040086362],
    ];

    /// A `(time, rank, seq)` key in the order of the all-events heap the
    /// lane merge replaced.
    #[derive(Debug, PartialEq)]
    struct PlainKey(f64, u8, u64);

    impl Eq for PlainKey {}

    impl Ord for PlainKey {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0
                .total_cmp(&other.0)
                .then(self.1.cmp(&other.1))
                .then(self.2.cmp(&other.2))
        }
    }

    impl PartialOrd for PlainKey {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Differential oracle: replays a run's schedule/pop log through a
    /// plain min-heap of every pending event and checks that each pop the
    /// lane merge made is the plain heap's minimum. Returns the number of
    /// pops.
    fn replay_through_a_plain_heap(log: &[Logged]) -> Result<usize, String> {
        let mut heap = BinaryHeap::new();
        let mut pops = 0;
        for (i, entry) in log.iter().enumerate() {
            match *entry {
                Logged::Schedule(t, rank, seq) => {
                    heap.push(std::cmp::Reverse(PlainKey(t, rank, seq)))
                }
                Logged::Pop(t, rank, seq) => {
                    let want = heap.pop().map(|k| k.0);
                    if want.as_ref() != Some(&PlainKey(t, rank, seq)) {
                        return Err(format!(
                            "entry {i}: lanes popped {:?}, the plain heap {want:?}",
                            (t, rank, seq)
                        ));
                    }
                    pops += 1;
                }
            }
        }
        Ok(pops)
    }

    /// Builds a logged network for the oracle: `links` as (rate index,
    /// propagation index, queue), windowed flows as (first link, hops,
    /// packets, start index, DCTCP?) over consecutive links, CBR flows as
    /// (first link, hops, interval multiple, packets). Rates are 1, 2 and
    /// 4 Mbps, propagation index 0 is zero propagation, and every
    /// start and CBR interval is a multiple of an 8 kbit packet's
    /// serialization time at 1 Mbps, so emissions, transmit completions
    /// and forwards land on the same instants.
    fn oracle_net(
        links: &[(usize, usize, usize)],
        wins: &[(usize, usize, u64, usize, bool)],
        cbrs: &[(usize, usize, u64, u64)],
    ) -> (CongestionNetwork, Vec<SenderId>) {
        const BITS: f64 = 8e3;
        let tick = BITS / 1e6;
        let mut net = CongestionNetwork::new();
        net.log = Some(Vec::new());
        let ids: Vec<CLinkId> = links
            .iter()
            .map(|&(rate, prop, queue)| {
                let l =
                    CongestionLink::new([1e6, 2e6, 4e6][rate], [0.0, tick, 2.5e-3][prop], queue);
                net.add_link(if queue > 1 { l.with_ecn(1) } else { l })
            })
            .collect();
        let route = |first: usize, hops: usize| -> Vec<CLinkId> {
            (0..hops.min(ids.len()))
                .map(|h| ids[(first + h) % ids.len()])
                .collect()
        };
        for &(first, hops, interval, packets) in cbrs {
            net.add_cbr(CbrFlow {
                route: route(first, hops),
                packet_bits: BITS,
                interval_s: interval as f64 * tick,
                start_s: 0.0,
                packets,
            });
        }
        let senders = wins
            .iter()
            .map(|&(first, hops, packets, start, dctcp)| {
                let algorithm = if dctcp {
                    CcAlgorithm::Dctcp { gain: 0.0625 }
                } else {
                    CcAlgorithm::Aimd
                };
                let mut f = WindowedFlow::new(
                    route(first, hops),
                    BITS,
                    packets,
                    start as f64 * tick,
                    algorithm,
                );
                f.init_cwnd = 8.0;
                net.add_windowed(f)
            })
            .collect();
        (net, senders)
    }

    /// The oracle on one fixed network that is known to hit every hard
    /// case: exact-time ties between lanes, drop-tail losses and fired
    /// retransmission timers, across a horizon stop and a resumed run.
    #[test]
    fn lane_merge_matches_a_plain_heap_through_ties_drops_and_timeouts() {
        let (mut net, senders) = oracle_net(
            &[(0, 0, 1), (1, 1, 0), (0, 2, 3)],
            &[(0, 3, 40, 0, true), (1, 2, 30, 2, false)],
            &[(0, 1, 1, 150), (1, 2, 2, 100)],
        );
        net.run_until(0.2);
        net.run();
        let log = net.log.take().expect("logging on");
        let pops = replay_through_a_plain_heap(&log).unwrap();
        assert_eq!(pops as u64, net.events());
        let popped: Vec<(f64, u8)> = log
            .iter()
            .filter_map(|e| match *e {
                Logged::Pop(t, rank, _) => Some((t, rank)),
                Logged::Schedule(..) => None,
            })
            .collect();
        let ties = popped.windows(2).filter(|w| w[0].0 == w[1].0).count();
        let timeouts = popped.iter().filter(|p| p.1 == 2).count();
        let dropped: u64 = senders.iter().map(|&s| net.windowed_stats(s).dropped).sum();
        assert!(
            ties > 0 && timeouts > 0 && dropped > 0,
            "ties {ties}, timeouts {timeouts}, drops {dropped}"
        );
        assert!(net.all_complete());
    }

    /// Far from t = 0 a short serialization rounds away (`now + tx ==
    /// now`), so an emission schedules its packet's transmit completion
    /// at the current instant with a lower rank than its own: an event
    /// that sorts ahead of the one being processed. The merge must still
    /// pop in plain-heap order.
    #[test]
    fn same_instant_lower_rank_events_keep_the_plain_heap_order() {
        let mut net = CongestionNetwork::new();
        net.log = Some(Vec::new());
        let l = net.add_link(CongestionLink::new(1e9, 0.0, 4));
        let start_s = 1e15;
        for _ in 0..2 {
            net.add_cbr(CbrFlow {
                route: vec![l],
                packet_bits: 1e3,
                interval_s: 1.0,
                start_s,
                packets: 3,
            });
        }
        net.run();
        assert_eq!(
            start_s + 1e3 / 1e9,
            start_s,
            "serialization must round away"
        );
        let pops = replay_through_a_plain_heap(&net.log.take().expect("logging on")).unwrap();
        assert_eq!(pops as u64, net.events());
        assert_eq!(net.events(), 12, "6 emissions and 6 transmit completions");
    }

    #[test]
    #[should_panic(expected = "is a FIFO")]
    fn scheduling_behind_a_lane_tail_is_rejected() {
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        let lane = net.links[l.0].tx_lane;
        net.schedule(lane, 2.0, Ev::TxDone { link: l.0 });
        net.schedule(lane, 1.0, Ev::TxDone { link: l.0 });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lane merge pops exactly the order of a plain heap of every
        /// event, on random networks: 1–4 windowed flows on 1–6 hops with
        /// CBR cross-traffic, queues of 0–4 packets (drops and timeouts),
        /// zero-propagation links and phase-locked CBR intervals (ties).
        #[test]
        fn prop_lane_merge_matches_a_plain_heap(
            links in proptest::collection::vec((0_usize..3, 0_usize..3, 0_usize..5), 1..7),
            wins in proptest::collection::vec((0_usize..6, 1_usize..7, 1_u64..40, 0_usize..4, (0_u8..2).prop_map(|x| x == 1)), 1..5),
            cbrs in proptest::collection::vec((0_usize..6, 1_usize..4, 1_u64..4, 1_u64..120), 0..4),
            stop_tick in 1_u64..400,
        ) {
            let (mut net, _) = oracle_net(&links, &wins, &cbrs);
            net.run_while_incomplete(stop_tick as f64 * 8e-3);
            net.run();
            let log = net.log.take().expect("logging on");
            let pops = replay_through_a_plain_heap(&log);
            prop_assert!(pops.is_ok(), "{}", pops.unwrap_err());
            prop_assert_eq!(pops.unwrap() as u64, net.events());
            prop_assert!(net.all_complete());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Retransmission conservation for the congestion sender: after a
        /// full run every transmission is either delivered to the receiver
        /// or dropped at a queue, every distinct packet is delivered
        /// exactly once, and transmissions split exactly into first
        /// transmissions plus retransmissions.
        #[test]
        fn prop_retransmission_conservation(
            rate_mbps in 1.0_f64..50.0,
            queue in 2_usize..24,
            ecn_raw in 0_usize..32,
            cross_frac in 0.0_f64..1.4,
            packets in 20_u64..300,
            dctcp_raw in 0_u8..2,
        ) {
            let rate = rate_mbps * 1e6;
            let dctcp = dctcp_raw == 1;
            let mut net = CongestionNetwork::new();
            // Upper half of the raw range disables marking.
            let ecn = if ecn_raw < 16 { Some(ecn_raw) } else { None };
            let ecn = ecn.filter(|t| *t <= queue);
            let mut link = CongestionLink::new(rate, 1e-3, queue);
            if let Some(t) = ecn {
                link = link.with_ecn(t);
            }
            let l = net.add_link(link);
            if cross_frac > 0.05 {
                net.add_cbr(CbrFlow::with_load(vec![l], 8e3, cross_frac * rate, 0.0, 240.0));
            }
            let algo = if dctcp {
                CcAlgorithm::Dctcp { gain: 0.0625 }
            } else {
                CcAlgorithm::Aimd
            };
            let mut f = WindowedFlow::new(vec![l], 8e3, packets, 0.0, algo);
            f.init_cwnd = 10.0;
            let id = net.add_windowed(f);
            // Full drain: every in-flight packet resolves to an arrival or
            // a drop, so the conservation identity is exact.
            net.run();
            let s = net.windowed_stats(id);
            prop_assert_eq!(s.delivered, packets, "all distinct packets delivered");
            prop_assert!(s.completion_s.is_some());
            prop_assert_eq!(
                s.transmissions, s.arrivals + s.dropped,
                "each transmission must end delivered or dropped"
            );
            prop_assert_eq!(
                s.transmissions, packets + s.retransmissions,
                "transmissions = first transmissions + retransmissions"
            );
            prop_assert!(s.arrivals >= s.delivered);
        }

        /// Multi-hop: conservation holds per-hop with an interior
        /// bottleneck, and CBR cross-traffic accounting is exact.
        #[test]
        fn prop_multi_hop_retransmission_conservation(
            q_mid in 1_usize..8,
            cross_frac in 0.0_f64..1.2,
            packets in 20_u64..160,
        ) {
            let mut net = CongestionNetwork::new();
            let entry = net.add_link(CongestionLink::new(20e6, 1e-3, 64));
            let mid = net.add_link(CongestionLink::new(4e6, 2e-3, q_mid));
            let exit = net.add_link(CongestionLink::new(20e6, 1e-3, 64));
            let cross = if cross_frac > 0.05 {
                Some(net.add_cbr(CbrFlow::with_load(
                    vec![mid], 8e3, cross_frac * 4e6, 0.0, 600.0,
                )))
            } else {
                None
            };
            let f = WindowedFlow::new(
                vec![entry, mid, exit], 8e3, packets, 0.0, CcAlgorithm::Aimd,
            );
            let id = net.add_windowed(f);
            net.run();
            let s = net.windowed_stats(id);
            prop_assert_eq!(s.delivered, packets);
            prop_assert_eq!(s.transmissions, s.arrivals + s.dropped);
            prop_assert_eq!(s.transmissions, packets + s.retransmissions);
            if let Some(c) = cross {
                let cs = net.cbr_stats(c);
                prop_assert_eq!(cs.emitted, cs.delivered + cs.dropped);
            }
        }

        /// Conservation: every emitted CBR packet is either delivered or
        /// dropped, never both, never lost.
        #[test]
        fn prop_cbr_packet_conservation(
            n1 in 1_u64..200,
            n2 in 1_u64..200,
            rate in 1e6..1e9f64,
            queue in 0_usize..64,
        ) {
            let s = run_cbr(
                &[CongestionLink::new(rate, 0.001, queue)],
                &[(&[0], rate * 0.8, 1e4, n1), (&[0], rate * 0.8, 1e4, n2)],
            );
            prop_assert_eq!(s[0].delivered + s[0].dropped, n1);
            prop_assert_eq!(s[1].delivered + s[1].dropped, n2);
        }

        /// Conservation over multi-hop routes with unequal per-link
        /// queues and a guaranteed interior bottleneck: the entry link is
        /// generously buffered and under-subscribed, so every drop happens
        /// at an interior hop — and each emitted packet is still delivered
        /// or dropped exactly once.
        #[test]
        fn prop_cbr_packet_conservation_multi_hop(
            n1 in 1_u64..200,
            n2 in 1_u64..200,
            rate in 1e6..1e9f64,
            q_mid in 0_usize..8,
            q_out in 0_usize..64,
            delay in 0.0..0.01f64,
        ) {
            let links = [
                // Entry: ample queue, jointly under-subscribed (0.8 load).
                CongestionLink::new(rate, delay, 1024),
                // Interior: 4x over-subscribed with a small unequal queue.
                CongestionLink::new(rate * 0.2, 0.002, q_mid),
                CongestionLink::new(rate, 0.001, q_out),
            ];
            let s = run_cbr(
                &links,
                &[(&[0, 1, 2], rate * 0.4, 1e4, n1), (&[0, 1], rate * 0.4, 1e4, n2)],
            );
            prop_assert_eq!(s[0].delivered + s[0].dropped, n1);
            prop_assert_eq!(s[1].delivered + s[1].dropped, n2);
            // The interior bottleneck must actually bite once the emission
            // run is longer than everything its queue can hide.
            if n1 + n2 > 60 {
                prop_assert!(s[0].dropped + s[1].dropped > 0, "no interior drops");
            }
        }

        /// Mean latency is bounded below by serialization + propagation
        /// and above by the full-queue worst case.
        #[test]
        fn prop_cbr_latency_bounds(load in 0.1..1.5f64, queue in 1_usize..32) {
            let (rate, bits) = (1e8, 1e4);
            let s = lone_cbr(CongestionLink::new(rate, 0.002, queue), rate * load, bits, 200);
            let floor = bits / rate + 0.002;
            let ceiling = floor + (queue as f64 + 1.0) * bits / rate;
            let mean = s.mean_latency_s().unwrap();
            prop_assert!(mean >= floor - 1e-12);
            prop_assert!(mean <= ceiling + 1e-9);
        }
    }
}
