//! The network interface controller (Figure 4).
//!
//! The NIC sits between a cache controller (or memory controller) and the
//! two networks. On the send path it packetises coherence messages, steers
//! each ordered request onto its address's main-network plane, counts
//! pending notifications per plane (blocking new ordered requests past the
//! limit, Table 1: max 4) and announces them at time-window boundaries. On
//! the receive path it consumes unordered responses freely, but releases
//! ordered requests to the controller only in the per-plane global order
//! determined by the notification trackers — including the NIC's *own*
//! requests, which self-deliver through per-plane loopback queues rather
//! than traversing the mesh. Because the steering function assigns every
//! address to exactly one plane, the per-plane orders compose into a
//! per-address total order, which is all snoopy coherence requires.

use crate::tracker::NotificationTracker;
use scorpio_noc::{Endpoint, MultiNetwork, Packet, Payload, Sid, SteerKey, VnetId};
use scorpio_notify::NotifyNetwork;
use scorpio_sim::stats::{Accumulator, Counter};
use scorpio_sim::{Cycle, Fifo};
use std::collections::HashMap;

/// NIC configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicConfig {
    /// Maximum notifications awaiting announcement (per plane) before the
    /// NIC blocks new ordered requests onto that plane (Table 1: 4).
    pub max_pending_notifications: u8,
    /// Notification tracker queue depth (windows).
    pub tracker_depth: usize,
    /// Pipelined receive path (Figure 10's "PL" configuration). When
    /// false, each consumed flit occupies the NIC for [`NicConfig::latency`]
    /// cycles.
    pub pipelined: bool,
    /// Processing occupancy per consumed flit when not pipelined.
    pub latency: u64,
    /// Depth of the ordered-delivery queue toward the cache controller.
    pub ordered_queue_depth: usize,
    /// Depth of the unordered packet-delivery queue.
    pub packet_queue_depth: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            max_pending_notifications: 4,
            tracker_depth: 8,
            pipelined: true,
            latency: 2,
            ordered_queue_depth: 4,
            packet_queue_depth: 8,
        }
    }
}

/// Whether this NIC enforces SCORPIO global ordering or passes every packet
/// through unordered (the baseline protocols).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicMode {
    /// SCORPIO: GO-REQ deliveries gated by the per-plane ESID streams.
    Ordered,
    /// Baselines: every packet delivered as it arrives.
    Unordered,
}

/// An ordered coherence request released to the cache controller.
#[derive(Debug, Clone, Copy)]
pub struct OrderedDelivery<T> {
    /// The global-order source of the request.
    pub sid: Sid,
    /// The coherence message.
    pub payload: T,
    /// True when this is the NIC's own request (loopback self-delivery).
    pub own: bool,
    /// Cycle the request entered its source NIC.
    pub inject_cycle: Cycle,
    /// Cycle this NIC could first have seen it (arrival at the ejection
    /// buffers; equals delivery cycle for loopback).
    pub first_seen: Cycle,
}

/// Error returned when the NIC cannot accept an ordered request this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The pending-notification counter is at its limit.
    NotificationLimit,
    /// The injection queue into the main network is full.
    NetworkFull,
    /// This NIC cannot send ordered requests (no SID / unordered mode).
    NotACore,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SendError::NotificationLimit => "pending notification limit reached",
            SendError::NetworkFull => "network injection queue full",
            SendError::NotACore => "this NIC cannot send ordered requests",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SendError {}

/// NIC statistics.
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// Ordered requests injected.
    pub requests_sent: Counter,
    /// Unordered packets injected.
    pub responses_sent: Counter,
    /// Ordered requests delivered to the controller.
    pub ordered_delivered: Counter,
    /// Unordered packets delivered to the controller.
    pub packets_delivered: Counter,
    /// Cycles an ordered request waited at this NIC for its turn.
    pub ordering_wait: Accumulator,
    /// End-to-end latency of delivered ordered requests (inject → deliver).
    pub ordered_latency: Accumulator,
    /// Plane word groups ignored because someone asserted stop.
    pub stop_windows: Counter,
    /// Announcements that had to be re-sent after a stop window.
    pub notif_resends: Counter,
}

/// The network interface controller for one endpoint.
///
/// Every per-plane structure below is a `Vec` indexed by plane; with one
/// plane (the chip configuration) each collapses to the single-network
/// NIC, byte-for-byte.
pub struct Nic<T> {
    ep: Endpoint,
    sid: Option<Sid>,
    mode: NicMode,
    cfg: NicConfig,
    planes: usize,
    /// One tracker per plane, each expanding its own plane's word group.
    tracker: Vec<NotificationTracker>,
    /// Requests injected but not yet announced, per plane.
    unsent: Vec<u8>,
    /// Requests announced in the window currently in flight, per plane.
    announced: Vec<u8>,
    last_window: Option<u64>,
    /// Loopback self-delivery queues, per plane.
    own_queue: Vec<Fifo<(T, Cycle, u64)>>,
    ordered_out: Fifo<OrderedDelivery<T>>,
    packet_out: Fifo<Packet<T>>,
    /// Reassembly progress per (plane, vnet, vc): flits received of the
    /// current packet.
    partial: HashMap<(u8, u8, u8), u8>,
    /// Per-plane, per-source count of ordered requests this NIC has
    /// delivered; the expected instance on plane `p` is always
    /// (ESID, delivered[p][ESID]).
    delivered_seq: Vec<Vec<u16>>,
    /// Per-plane count of own requests sent (assigns sid_seq).
    sent_seq: Vec<u16>,
    published_esid: Vec<Option<(Sid, u16)>>,
    published_any: Vec<bool>,
    busy_until: Cycle,
    /// Per-plane first-seen cycles, keyed by that plane's packet uid.
    first_seen: Vec<HashMap<u64, Cycle>>,
    /// Public statistics.
    pub stats: NicStats,
}

impl<T: Payload + SteerKey> Nic<T> {
    /// Creates a NIC for endpoint `ep` attached to a `planes`-plane main
    /// network.
    ///
    /// `sid` is `Some` for tile NICs that issue ordered requests and `None`
    /// for memory-controller NICs (which observe the order but never
    /// inject into it). `cores` sizes the notification trackers.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is zero.
    pub fn new(
        ep: Endpoint,
        sid: Option<Sid>,
        mode: NicMode,
        cores: usize,
        planes: usize,
        cfg: NicConfig,
    ) -> Self {
        assert!(planes > 0, "a NIC needs at least one plane");
        Nic {
            ep,
            sid,
            mode,
            planes,
            tracker: (0..planes)
                .map(|p| NotificationTracker::for_plane(cores, cfg.tracker_depth, p))
                .collect(),
            unsent: vec![0; planes],
            announced: vec![0; planes],
            last_window: None,
            own_queue: (0..planes).map(|_| Fifo::bounded(64)).collect(),
            delivered_seq: vec![vec![0; cores]; planes],
            sent_seq: vec![0; planes],
            ordered_out: Fifo::bounded(cfg.ordered_queue_depth),
            packet_out: Fifo::bounded(cfg.packet_queue_depth),
            partial: HashMap::new(),
            published_esid: vec![None; planes],
            published_any: vec![false; planes],
            busy_until: Cycle::ZERO,
            first_seen: (0..planes).map(|_| HashMap::new()).collect(),
            cfg,
            stats: NicStats::default(),
        }
    }

    /// The endpoint this NIC serves.
    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    /// This NIC's source id, if it is a request-issuing tile.
    pub fn sid(&self) -> Option<Sid> {
        self.sid
    }

    /// Number of main-network planes this NIC serves.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// The SID currently expected in plane 0's global order (the
    /// single-plane network's "the" expected SID).
    pub fn current_esid(&self) -> Option<Sid> {
        self.tracker[0].current_esid()
    }

    /// The SID currently expected in plane `p`'s global order.
    pub fn current_esid_plane(&self, p: usize) -> Option<Sid> {
        self.tracker[p].current_esid()
    }

    /// Ordered requests (current + queued windows, all planes) still to be
    /// delivered.
    pub fn ordering_backlog(&self) -> usize {
        self.tracker.iter().map(NotificationTracker::backlog).sum()
    }

    /// Internal counters for diagnostics: summed (unsent, announced) over
    /// planes, and the last window processed.
    #[doc(hidden)]
    pub fn debug_counters(&self) -> (u32, u32, Option<u64>) {
        (
            self.unsent.iter().map(|&u| u as u32).sum(),
            self.announced.iter().map(|&a| a as u32).sum(),
            self.last_window,
        )
    }

    /// Whether ticking this NIC is a no-op until something external
    /// happens: nothing awaiting announcement or re-announcement on any
    /// plane, no loopback self-delivery pending, empty delivery queues
    /// toward the controller, and no stop bit that must be asserted at the
    /// next window start. A NIC that merely *expects* ordered requests
    /// (tracker backlog > 0) may still sleep: its published ESIDs are
    /// already current, and the expected flit's arrival at the endpoint —
    /// or the next non-empty/stop notification window — is exactly what
    /// wakes the tile. Empty windows observed late are harmless: they
    /// carry nothing and announcing is only required when `unsent > 0` or
    /// a stop bit is due, both of which keep the NIC awake.
    ///
    /// An *outstanding announcement* (`announced > 0`, waiting for its
    /// window to publish) does not keep the NIC awake either: the window
    /// carrying it is non-empty by construction, and a non-empty window's
    /// publication wakes every endpoint — so `process_completed_window`
    /// runs at exactly the cycle it would have run had the NIC stayed
    /// awake, and no tick in between would have done anything (`unsent` is
    /// zero, so mid-window announce calls are no-ops). This is what lets
    /// the system clock leap through live windows.
    pub fn can_sleep(&self) -> bool {
        self.unsent.iter().all(|&u| u == 0)
            && self.own_queue.iter().all(Fifo::is_empty)
            && self.ordered_out.is_empty()
            && self.packet_out.is_empty()
            && !self.tracker.iter().any(NotificationTracker::should_stop)
    }

    /// Whether an ordered request for the line keyed `key` would currently
    /// be accepted (its plane's pending-notification budget has room).
    pub fn can_send_request(&self, net: &MultiNetwork<T>, key: u64) -> bool {
        let plane = net.plane_of(key);
        self.sid.is_some()
            && self.mode == NicMode::Ordered
            && self.unsent[plane] + self.announced[plane] < self.cfg.max_pending_notifications
            && !self.own_queue[plane].is_full()
    }

    /// Injects an ordered coherence request (broadcast + later
    /// notification) onto the plane its payload's [`SteerKey`] selects.
    ///
    /// # Errors
    ///
    /// [`SendError::NotACore`] if this NIC has no SID or is unordered;
    /// [`SendError::NotificationLimit`] when the plane's pending counter is
    /// at its limit; [`SendError::NetworkFull`] when the plane's injection
    /// queue is full.
    pub fn try_send_request(
        &mut self,
        payload: T,
        now: Cycle,
        net: &mut MultiNetwork<T>,
    ) -> Result<(), SendError> {
        let sid = match (self.mode, self.sid) {
            (NicMode::Ordered, Some(sid)) => sid,
            _ => return Err(SendError::NotACore),
        };
        let plane = net.plane_of(payload.steer_key());
        if self.unsent[plane] + self.announced[plane] >= self.cfg.max_pending_notifications
            || self.own_queue[plane].is_full()
        {
            return Err(SendError::NotificationLimit);
        }
        let seq = self.sent_seq[plane];
        let (steered, uid) = net
            .try_inject(self.ep, Packet::request(self.ep, sid, seq, payload))
            .map_err(|_| SendError::NetworkFull)?;
        debug_assert_eq!(steered, plane, "steering function disagreed with itself");
        self.sent_seq[plane] = self.sent_seq[plane].wrapping_add(1);
        self.own_queue[plane]
            .push((payload, now, uid))
            .expect("own queue capacity checked above");
        self.unsent[plane] += 1;
        self.stats.requests_sent.incr();
        Ok(())
    }

    /// Injects a unicast packet (response, directory request/forward, ...)
    /// on the plane its payload's address selects.
    ///
    /// # Errors
    ///
    /// [`SendError::NetworkFull`] when the per-vnet injection queue is full.
    pub fn try_send_unicast(
        &mut self,
        vnet: VnetId,
        dest: Endpoint,
        len_flits: u8,
        payload: T,
        net: &mut MultiNetwork<T>,
    ) -> Result<(), SendError> {
        net.try_inject(
            self.ep,
            Packet::unicast(vnet, self.ep, dest, len_flits, payload),
        )
        .map_err(|_| SendError::NetworkFull)?;
        self.stats.responses_sent.incr();
        Ok(())
    }

    /// Injects an unordered broadcast (TokenB / INSO baselines) on the
    /// plane its payload's address selects.
    ///
    /// # Errors
    ///
    /// [`SendError::NetworkFull`] when the injection queue is full.
    pub fn try_send_broadcast(
        &mut self,
        vnet: VnetId,
        payload: T,
        net: &mut MultiNetwork<T>,
    ) -> Result<(), SendError> {
        net.try_inject(self.ep, Packet::broadcast_unordered(vnet, self.ep, payload))
            .map_err(|_| SendError::NetworkFull)?;
        self.stats.responses_sent.incr();
        Ok(())
    }

    /// Takes the next globally ordered request, if one is ready.
    pub fn pop_ordered(&mut self) -> Option<OrderedDelivery<T>> {
        self.ordered_out.pop()
    }

    /// Peeks the next ordered request without consuming it.
    pub fn peek_ordered(&self) -> Option<&OrderedDelivery<T>> {
        self.ordered_out.front()
    }

    /// Takes the next fully reassembled unordered packet, if any.
    pub fn pop_packet(&mut self) -> Option<Packet<T>> {
        self.packet_out.pop()
    }

    /// One cycle. Call before the networks tick, every cycle, passing the
    /// notification network only for ordered-mode NICs.
    pub fn tick(
        &mut self,
        now: Cycle,
        net: &mut MultiNetwork<T>,
        notify: Option<&mut NotifyNetwork>,
    ) {
        if self.mode == NicMode::Ordered {
            if let Some(notify) = notify {
                self.process_completed_window(notify);
                self.announce(now, notify);
            }
        }
        self.receive(now, net);
        self.publish_esid(net);
    }

    /// Handles the merged message of a window that just completed: each
    /// plane's word group is processed independently, so one plane's stop
    /// bit never stalls the others.
    fn process_completed_window(&mut self, notify: &NotifyNetwork) {
        let Some((w, msg)) = notify.latest() else {
            return;
        };
        if self.last_window == Some(w) {
            return;
        }
        self.last_window = Some(w);
        for p in 0..self.planes {
            if msg.stop_in(p) {
                // Everyone ignores this plane's word group; our
                // announcement (if any) must be re-sent.
                self.stats.stop_windows.incr();
                if self.announced[p] > 0 {
                    self.stats.notif_resends.incr();
                    self.unsent[p] += self.announced[p];
                }
                self.announced[p] = 0;
                continue;
            }
            self.announced[p] = 0;
            if msg.total_in(p) > 0 {
                self.tracker[p].push_window(msg.clone());
            }
        }
    }

    /// At window starts, announce pending requests per plane (and the stop
    /// bit when a plane's tracker is near-full).
    fn announce(&mut self, now: Cycle, notify: &mut NotifyNetwork) {
        if !notify.is_window_start(now) {
            return;
        }
        let Some(sid) = self.sid else {
            // MC NICs observe but never announce.
            return;
        };
        let max = (1u16 << notify.config().bits_per_core) as u8 - 1;
        for p in 0..self.planes {
            let stop = self.tracker[p].should_stop();
            let count = self.unsent[p].min(max);
            if count > 0 || stop {
                notify.stage_injection_in(p, sid.index(), count, stop);
                self.unsent[p] -= count;
                self.announced[p] = count;
            }
        }
    }

    /// Receive path: per plane, one ordered consume plus one unordered
    /// flit per cycle — each plane has its own ejection port, so receive
    /// bandwidth scales with the plane count exactly as the replicated
    /// hardware's would.
    fn receive(&mut self, now: Cycle, net: &mut MultiNetwork<T>) {
        if !self.cfg.pipelined && now < self.busy_until {
            return;
        }
        let mut consumed = false;
        match self.mode {
            NicMode::Ordered => {
                // One ordered consume + one unordered flit per plane per
                // cycle (separate ACE channels toward the L2).
                for p in 0..self.planes {
                    consumed |= self.receive_ordered(p, now, net);
                }
                for p in 0..self.planes {
                    consumed |= self.receive_any_class(p, net, false);
                }
            }
            NicMode::Unordered => {
                // Same aggregate bandwidth: two flits from any class per
                // plane.
                for p in 0..self.planes {
                    consumed |= self.receive_any_class(p, net, true);
                    consumed |= self.receive_any_class(p, net, true);
                }
            }
        }
        if consumed && !self.cfg.pipelined {
            self.busy_until = now + self.cfg.latency;
        }
    }

    /// Consumes plane `plane`'s expected ordered request if present
    /// (network or loopback). Returns whether something was consumed.
    fn receive_ordered(&mut self, plane: usize, now: Cycle, net: &mut MultiNetwork<T>) -> bool {
        let Some(esid) = self.tracker[plane].current_esid() else {
            return false;
        };
        if self.ordered_out.is_full() {
            return false;
        }
        if Some(esid) == self.sid {
            // Own request: self-delivery through the loopback path — but
            // only once the broadcast copy has left the injection queue.
            // Consuming earlier would advance our ESID past our own SID
            // while the flit is not yet in the network, breaking the
            // reserved-VC deadlock-freedom invariant.
            let &(_, _, uid) = self.own_queue[plane]
                .front()
                .expect("own request announced but missing from loopback queue");
            if net.inject_pending(plane, self.ep, uid) {
                return false;
            }
            let (payload, inject_cycle, _) = self.own_queue[plane].pop().expect("checked above");
            self.delivered_seq[plane][esid.index()] =
                self.delivered_seq[plane][esid.index()].wrapping_add(1);
            self.deliver_ordered(OrderedDelivery {
                sid: esid,
                payload,
                own: true,
                inject_cycle,
                first_seen: now,
            });
            self.tracker[plane].advance();
            return true;
        }
        // Find the expected request among the plane's ordered-class
        // ejection VCs.
        let mut hit = None;
        for (slot, flit) in net.eject_heads_plane(plane, self.ep) {
            if !net.config().vnets[slot.vnet.index()].ordered {
                continue;
            }
            let uid = flit.packet.uid;
            self.first_seen[plane].entry(uid).or_insert(now);
            if flit.packet.sid == Some(esid) && hit.is_none() {
                hit = Some(slot);
            }
        }
        let Some(slot) = hit else {
            return false;
        };
        let flit = net
            .eject_take_plane(plane, self.ep, slot)
            .expect("head flit vanished");
        debug_assert_eq!(
            flit.packet.sid_seq,
            self.delivered_seq[plane][esid.index()],
            "point-to-point ordering violated: wrong request instance"
        );
        self.delivered_seq[plane][esid.index()] =
            self.delivered_seq[plane][esid.index()].wrapping_add(1);
        let first_seen = self.first_seen[plane]
            .remove(&flit.packet.uid)
            .unwrap_or(now);
        self.stats.ordering_wait.record(now - first_seen);
        self.deliver_ordered(OrderedDelivery {
            sid: esid,
            payload: flit.packet.payload,
            own: false,
            inject_cycle: flit.packet.inject_cycle,
            first_seen,
        });
        self.tracker[plane].advance();
        true
    }

    fn deliver_ordered(&mut self, d: OrderedDelivery<T>) {
        let lat = d.first_seen.max(d.inject_cycle) - d.inject_cycle;
        self.stats.ordered_latency.record(lat);
        self.stats.ordered_delivered.incr();
        self.ordered_out
            .push(d)
            .expect("ordered_out fullness checked by caller");
    }

    /// Consumes one flit from plane `plane` into the packet queue. Ordered
    /// vnets are included only when `include_ordered` is set (baseline
    /// mode, where no global ordering applies).
    fn receive_any_class(
        &mut self,
        plane: usize,
        net: &mut MultiNetwork<T>,
        include_ordered: bool,
    ) -> bool {
        if self.packet_out.is_full() {
            return false;
        }
        let mut pick = None;
        for (slot, _flit) in net.eject_heads_plane(plane, self.ep) {
            let is_ordered = net.config().vnets[slot.vnet.index()].ordered;
            if is_ordered && !include_ordered {
                continue;
            }
            pick = Some(slot);
            break;
        }
        let Some(slot) = pick else {
            return false;
        };
        let flit = net
            .eject_take_plane(plane, self.ep, slot)
            .expect("head flit vanished");
        let key = (plane as u8, slot.vnet.0, slot.vc);
        let got = self.partial.entry(key).or_insert(0);
        debug_assert_eq!(*got, flit.idx, "flit reassembly out of order");
        *got += 1;
        if flit.is_tail() {
            self.partial.remove(&key);
            self.stats.packets_delivered.incr();
            self.packet_out
                .push(flit.packet)
                .expect("packet_out fullness checked above");
        }
        true
    }

    /// Publishes each plane's expected request instance (SID + per-source
    /// sequence number) to that plane for rVC policing.
    fn publish_esid(&mut self, net: &mut MultiNetwork<T>) {
        for p in 0..self.planes {
            let esid = match self.mode {
                NicMode::Ordered => self.tracker[p]
                    .current_esid()
                    .map(|sid| (sid, self.delivered_seq[p][sid.index()])),
                NicMode::Unordered => None,
            };
            if !self.published_any[p] || esid != self.published_esid[p] {
                net.set_esid(p, self.ep, esid);
                self.published_esid[p] = esid;
                self.published_any[p] = true;
            }
        }
    }
}

impl<T: Payload> std::fmt::Debug for Nic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("ep", &self.ep)
            .field("sid", &self.sid)
            .field("mode", &self.mode)
            .field("planes", &self.planes)
            .field("esid", &self.tracker[0].current_esid())
            .field("unsent", &self.unsent)
            .finish()
    }
}
