//! The in-memory star network.
//!
//! Cameras are leaves, the controller is the hub. Sending charges the
//! sender's battery through its link and device models and records
//! delivery statistics; delivered messages land in the controller's inbox
//! in send order.
//!
//! Two send paths exist:
//!
//! * [`Network::send`] — the raw physical-layer primitive: one attempt,
//!   no faults, no acknowledgement. Kept for components that account
//!   energy for an idealized transmission.
//! * [`Network::send_reliable`] — the transport the simulation uses: the
//!   configured [`FaultPlan`] may drop, delay, duplicate or reorder each
//!   attempt, and a stop-and-wait ARQ ([`RetryPolicy`]) retries
//!   unacknowledged messages with exponential backoff. Every attempt —
//!   successful or not — drains the sender's battery.
//!
//! The controller's downlink ([`Network::send_downlink`]) and the
//! camera-to-camera path ([`Network::send_peer`]) run the same ARQ — one
//! private loop keyed by direction. The downlink charges no camera
//! battery: the controller is mains-powered and receive energy is not
//! modeled (matching the uplink, where the controller's receive side is
//! also free).
//!
//! Time advances in simulation rounds via [`Network::advance_round`],
//! which matures delayed deliveries into the inbox.

use crate::fault::{
    Endpoint, FaultPlan, TAG_ACK, TAG_CORRUPT, TAG_DATA, TAG_DUP, TAG_JITTER, TAG_REORDER,
};
use crate::message::{decode_frame, encode_frame, Message, WireSize};
use crate::reliable::{Delivery, RetryPolicy};
use crate::{NetError, Result};
use eecs_energy::budget::BatteryState;
use eecs_energy::comm::LinkModel;
use eecs_energy::meter::{EnergyCategory, PowerMeter};
use eecs_energy::model::DeviceEnergyModel;
use eecs_energy::EnergyError;

/// Per-node delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportStats {
    /// Messages delivered and acknowledged end-to-end.
    pub messages: u64,
    /// Bytes put on the wire, failed attempts included.
    pub bytes: u64,
    /// Radio energy spent (J), failed attempts included.
    pub energy_j: f64,
    /// Cumulative air time (s), failed attempts included.
    pub airtime_s: f64,
    /// Transmission attempts, including drops and retries.
    pub attempts: u64,
    /// Attempts whose data was lost in transit.
    pub drops: u64,
    /// Re-attempts made after a missing acknowledgement.
    pub retries: u64,
    /// Sends that exhausted the retry cap without an acknowledgement
    /// (plus sends refused outright because the sender was crashed).
    pub timeouts: u64,
    /// Duplicate copies suppressed at the controller inbox.
    pub duplicates: u64,
    /// Attempts whose frame was bit-corrupted in flight (the
    /// [`crate::CorruptionPlan`] fired on a delivered attempt).
    pub corrupted: u64,
    /// Frames the receiver rejected on checksum verification. Equals
    /// `corrupted` as long as every corruption is detected — which the
    /// ≤ 3-bit flip cap guarantees (see [`crate::checksum`]).
    pub rejected: u64,
    /// Total backoff time spent waiting between retries (s).
    pub backoff_s: f64,
}

impl TransportStats {
    /// Adds `other` into `self`, field by field.
    pub fn merge(&mut self, other: &TransportStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.energy_j += other.energy_j;
        self.airtime_s += other.airtime_s;
        self.attempts += other.attempts;
        self.drops += other.drops;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.duplicates += other.duplicates;
        self.corrupted += other.corrupted;
        self.rejected += other.rejected;
        self.backoff_s += other.backoff_s;
    }

    /// The integer fields with stable names, in declaration order — the
    /// shape a metrics registry scrapes into counters.
    ///
    /// The corruption counters appear only when nonzero: runs without a
    /// corruption plan scrape (and serialize) exactly the pre-corruption
    /// field set, keeping their golden masters byte-identical.
    pub fn counter_fields(&self) -> Vec<(&'static str, u64)> {
        let mut fields = vec![
            ("messages", self.messages),
            ("bytes", self.bytes),
            ("attempts", self.attempts),
            ("drops", self.drops),
            ("retries", self.retries),
            ("timeouts", self.timeouts),
            ("duplicates", self.duplicates),
        ];
        if self.corrupted > 0 {
            fields.push(("corrupted", self.corrupted));
        }
        if self.rejected > 0 {
            fields.push(("rejected", self.rejected));
        }
        fields
    }

    /// The float fields (Joules, seconds) with stable names, in
    /// declaration order — the shape a metrics registry scrapes into
    /// gauges.
    pub fn gauge_fields(&self) -> [(&'static str, f64); 3] {
        [
            ("energy_j", self.energy_j),
            ("airtime_s", self.airtime_s),
            ("backoff_s", self.backoff_s),
        ]
    }
}

/// One camera's attachment point.
#[derive(Debug, Clone)]
struct Node {
    link: LinkModel,
    device: DeviceEnergyModel,
    stats: TransportStats,
    /// Whether the camera is currently attached to the network. A
    /// detached node (a camera that left the fleet) behaves exactly
    /// like a crashed one — no sends, no receives, no energy — but its
    /// identity (stats, sequence numbers) survives for a later rejoin.
    attached: bool,
    /// Next uplink sequence number this camera will use.
    next_seq: u64,
}

impl Node {
    fn new(link: LinkModel, device: DeviceEnergyModel) -> Node {
        Node {
            link,
            device,
            stats: TransportStats::default(),
            attached: true,
            next_seq: 0,
        }
    }

    /// Charges one transmission of `bytes` to `battery` and this node's
    /// statistics. A battery that cannot cover it charges nothing.
    fn charge(
        &mut self,
        bytes: u64,
        battery: &mut BatteryState,
        meter: &mut PowerMeter,
    ) -> Result<()> {
        let energy = self.link.transmit_energy(bytes, &self.device);
        battery.drain(energy).map_err(send_failed)?;
        meter.record(EnergyCategory::Communication, energy);
        self.stats.attempts += 1;
        self.stats.bytes += bytes;
        self.stats.energy_j += energy;
        self.stats.airtime_s += self.link.transfer_time(bytes);
        Ok(())
    }
}

/// The direction of one reliable send. Faults, rolls and corruption are
/// keyed on the camera end: the sender on `Up` and `Peer`, the receiver
/// on `Down`.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Camera `from` to its controller seat (the hub or an acting camera).
    Up { from: usize, seat: Endpoint },
    /// Controller to camera `to`; mains-powered, so no battery is charged.
    Down { to: usize },
    /// Camera `from` to camera `to` (failover announcements).
    Peer { from: usize, to: usize },
}

impl Route {
    /// The camera whose link faults, rolls and battery govern the send.
    fn camera(self) -> usize {
        match self {
            Route::Up { from, .. } | Route::Peer { from, .. } => from,
            Route::Down { to } => to,
        }
    }

    /// The sending and receiving endpoints.
    fn ends(self) -> (Endpoint, Endpoint) {
        match self {
            Route::Up { from, seat } => (Endpoint::Camera(from), seat),
            Route::Down { to } => (Endpoint::Hub, Endpoint::Camera(to)),
            Route::Peer { from, to } => (Endpoint::Camera(from), Endpoint::Camera(to)),
        }
    }
}

/// A delivery held back by link delay/jitter until its round comes up.
#[derive(Debug, Clone)]
struct PendingDelivery {
    due_round: usize,
    from: usize,
    message: Message,
}

/// The star network: `n` camera nodes and a controller inbox.
#[derive(Debug, Clone)]
pub struct Network {
    nodes: Vec<Node>,
    plan: FaultPlan,
    retry: RetryPolicy,
    /// Current simulation round (drives outage/crash windows and delays).
    round: usize,
    /// Whether the controller (hub) is currently dead: uplinks get no
    /// ack (one probe attempt, like an outage) and the downlink is
    /// silent. Set by the simulation during a controller crash, cleared
    /// when a camera takes over the seat.
    controller_down: bool,
    /// Monotone event counter feeding the plan's deterministic rolls.
    rolls: u64,
    /// Next downlink sequence number.
    next_downlink_seq: u64,
    /// Controller-side (downlink) statistics; no camera battery is
    /// involved, so `energy_j`/`airtime_s` stay zero.
    downlink_stats: TransportStats,
    inbox: Vec<(usize, Message)>,
    pending: Vec<PendingDelivery>,
}

impl Network {
    /// Creates a network of `cameras` identical nodes with an ideal
    /// (fault-free) plan and the default retry policy.
    pub fn new(cameras: usize, link: LinkModel, device: DeviceEnergyModel) -> Network {
        Network::with_nodes(vec![(link, device); cameras])
    }

    /// Creates a network from per-camera `(link, device)` pairs, for
    /// heterogeneous rigs.
    pub fn with_nodes(nodes: Vec<(LinkModel, DeviceEnergyModel)>) -> Network {
        Network {
            nodes: nodes
                .into_iter()
                .map(|(link, device)| Node::new(link, device))
                .collect(),
            plan: FaultPlan::ideal(),
            retry: RetryPolicy::default(),
            round: 0,
            controller_down: false,
            rolls: 0,
            next_downlink_seq: 0,
            downlink_stats: TransportStats::default(),
            inbox: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Installs `plan` as the network's fault schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Network {
        self.plan = plan;
        self
    }

    /// Installs `retry` as the reliable-path retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Network {
        self.retry = retry;
        self
    }

    /// Number of camera nodes.
    pub fn cameras(&self) -> usize {
        self.nodes.len()
    }

    /// The installed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The current simulation round.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Advances to the next simulation round: outage/crash windows move
    /// on, and delayed deliveries whose time has come mature into the
    /// inbox (in age order).
    pub fn advance_round(&mut self) {
        self.round += 1;
        let round = self.round;
        let mut still_pending = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            if p.due_round <= round {
                self.push_inbox(p.from, p.message);
            } else {
                still_pending.push(p);
            }
        }
        self.pending = still_pending;
    }

    /// Whether `camera` is dark in the current round: crashed
    /// (unpowered) per the fault plan, or detached from the fleet.
    pub fn is_camera_down(&self, camera: usize) -> bool {
        self.plan.is_crashed(camera, self.round)
            || self.nodes.get(camera).is_some_and(|n| !n.attached)
    }

    /// Attaches or detaches camera `id`. Detaching models a fleet
    /// departure: the radio goes dark (every path treats the node as
    /// crashed) but its identity survives, so a later re-attach resumes
    /// the same sequence space and statistics.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for a bad index.
    pub fn set_attached(&mut self, id: usize, attached: bool) -> Result<()> {
        self.nodes
            .get_mut(id)
            .map(|n| n.attached = attached)
            .ok_or(NetError::UnknownNode(id))
    }

    /// Marks the controller (hub) dead or alive. While dead, every
    /// uplink behaves like an outage — one probe attempt, no ack — and
    /// downlinks time out without an attempt.
    pub fn set_controller_down(&mut self, down: bool) {
        self.controller_down = down;
    }

    /// Whether the controller is currently marked dead.
    pub fn controller_down(&self) -> bool {
        self.controller_down
    }

    /// Sends `message` from camera `from`, draining `battery` for the
    /// radio energy. This is the raw single-attempt primitive: the fault
    /// plan does not apply and no acknowledgement is involved.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownNode`] for a bad index,
    /// * [`NetError::SendFailed`] when the battery cannot cover the
    ///   transmission (nothing is sent or charged).
    pub fn send(
        &mut self,
        from: usize,
        message: Message,
        battery: &mut BatteryState,
        meter: &mut PowerMeter,
    ) -> Result<()> {
        let node = self
            .nodes
            .get_mut(from)
            .ok_or(NetError::UnknownNode(from))?;
        node.charge(message.wire_bytes(), battery, meter)?;
        node.stats.messages += 1;
        self.inbox.push((from, message));
        Ok(())
    }

    /// Sends `message` from camera `from` through the fault plan with
    /// ack/retry semantics, draining `battery` once per attempt.
    ///
    /// The returned [`Delivery`] reports what actually happened:
    /// `delivered` (some copy reached the inbox, possibly delayed),
    /// `acked` (the sender heard an ack), attempts, and backoff time. A
    /// crashed sender makes no attempt and spends no energy; a link in
    /// outage burns exactly one probe attempt.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownNode`] for a bad index,
    /// * [`NetError::SendFailed`] when the battery dies mid-sequence —
    ///   earlier attempts remain charged and an already-delivered copy
    ///   stays in the inbox.
    pub fn send_reliable(
        &mut self,
        from: usize,
        message: Message,
        battery: &mut BatteryState,
        meter: &mut PowerMeter,
    ) -> Result<Delivery> {
        self.send_reliable_to(from, Endpoint::Hub, message, battery, meter)
    }

    /// [`Network::send_reliable`] with an explicit destination seat: the
    /// hub, or a camera acting as controller after a failover. The
    /// partition plan is checked against the actual `from → target`
    /// direction, so an uplink to an island-local acting seat keeps
    /// working while the hub is unreachable. A partitioned target looks
    /// exactly like an outage: one probe attempt, then give up.
    ///
    /// # Errors
    ///
    /// See [`Network::send_reliable`].
    pub fn send_reliable_to(
        &mut self,
        from: usize,
        target: Endpoint,
        message: Message,
        battery: &mut BatteryState,
        meter: &mut PowerMeter,
    ) -> Result<Delivery> {
        self.arq(
            Route::Up { from, seat: target },
            message,
            Some((battery, meter)),
        )
    }

    /// Sends `message` from the controller to camera `to` with the same
    /// ARQ semantics as [`Network::send_reliable`], but charging no
    /// battery: the controller is mains-powered. A crashed camera cannot
    /// receive; check [`Delivery::delivered`] before applying the
    /// message's effect. Outcomes accumulate in
    /// [`Network::downlink_stats`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for a bad index.
    pub fn send_downlink(&mut self, to: usize, message: Message) -> Result<Delivery> {
        self.arq(Route::Down { to }, message, None)
    }

    /// Sends `message` camera-to-camera (the failover announcement path:
    /// the newly elected controller tells each peer about the handover).
    /// Charges `battery` — the *sender's* — once per attempt, exactly
    /// like [`Network::send_reliable`], but the message never enters the
    /// controller inbox: it terminates at the peer. The sender's link
    /// faults govern loss; a crashed or outaged peer soaks up one probe
    /// attempt, a crashed sender makes none.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownNode`] for a bad index on either end,
    /// * [`NetError::SendFailed`] when the battery dies mid-sequence.
    pub fn send_peer(
        &mut self,
        from: usize,
        to: usize,
        message: Message,
        battery: &mut BatteryState,
        meter: &mut PowerMeter,
    ) -> Result<Delivery> {
        self.arq(Route::Peer { from, to }, message, Some((battery, meter)))
    }

    /// Drains the controller's inbox, returning `(sender, message)` pairs
    /// in delivery order. Delayed messages appear only once their round
    /// has come (see [`Network::advance_round`]).
    pub fn drain_inbox(&mut self) -> Vec<(usize, Message)> {
        std::mem::take(&mut self.inbox)
    }

    /// Delivery statistics for camera `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for a bad index.
    pub fn stats(&self, id: usize) -> Result<TransportStats> {
        self.nodes
            .get(id)
            .map(|n| n.stats)
            .ok_or(NetError::UnknownNode(id))
    }

    /// Controller-side downlink statistics.
    pub fn downlink_stats(&self) -> TransportStats {
        self.downlink_stats
    }

    /// The one stop-and-wait ARQ loop behind [`Network::send_reliable_to`],
    /// [`Network::send_downlink`] and [`Network::send_peer`]. The
    /// directions differ only in:
    ///
    /// * the sequence space — the sending camera's, or the controller's
    ///   on `Down`;
    /// * who cannot transmit at all (a timeout, no attempt): a down
    ///   sending camera, or on `Down` a dead controller or a down target;
    /// * what darkens the channel to one unanswered probe attempt: a
    ///   partition or the camera's outage, plus a dead controller on
    ///   `Up` and a down or outaged peer on `Peer`;
    /// * charging — `power` drains the sending camera's battery per
    ///   attempt; `Down` has none and counts into the downlink stats;
    /// * acceptance — only `Up` admits into the inbox (with its jitter,
    ///   duplicate and reorder rolls); `Up` and `Down` count repeat
    ///   deliveries as duplicates, `Peer` does not.
    fn arq(
        &mut self,
        route: Route,
        message: Message,
        mut power: Option<(&mut BatteryState, &mut PowerMeter)>,
    ) -> Result<Delivery> {
        let camera = route.camera();
        let peer = match route {
            Route::Peer { to, .. } => to,
            Route::Up { .. } | Route::Down { .. } => camera,
        };
        for id in [camera, peer] {
            if id >= self.nodes.len() {
                return Err(NetError::UnknownNode(id));
            }
        }
        let seq = match route {
            Route::Down { .. } => &mut self.next_downlink_seq,
            Route::Up { .. } | Route::Peer { .. } => &mut self.nodes[camera].next_seq,
        };
        *seq += 1;
        let mut delivery = Delivery::pending(*seq - 1);

        let silent = match route {
            Route::Down { to } => self.controller_down || self.is_camera_down(to),
            Route::Up { from, .. } | Route::Peer { from, .. } => self.is_camera_down(from),
        };
        if silent {
            self.stats_mut(route).timeouts += 1;
            return Ok(delivery);
        }

        let round = self.round;
        let (source, target) = route.ends();
        // During an outage the channel is deterministically dead for the
        // round, and the MAC layer notices (no association, no ack to the
        // first probe): one attempt, then give up until next round. A
        // dead controller looks exactly like that from the camera's side;
        // so does a partition between the two ends, or a dark peer.
        let dark = !self.plan.partition().can_reach(source, target, round)
            || self.plan.is_outage(camera, round)
            || match route {
                Route::Up { .. } => self.controller_down,
                Route::Down { .. } => false,
                Route::Peer { to, .. } => self.is_camera_down(to) || self.plan.is_outage(to, round),
            };
        let max_attempts: u64 = if dark {
            1
        } else {
            u64::from(self.retry.max_retries).saturating_add(1)
        };
        let bytes = message.wire_bytes();
        let faults = self.plan.faults(camera);

        loop {
            if delivery.attempts > 0 {
                let backoff = self.retry.backoff_before_attempt(delivery.attempts + 1);
                delivery.backoff_s += backoff;
                let stats = self.stats_mut(route);
                stats.retries += 1;
                stats.backoff_s += backoff;
            }
            match power.as_mut() {
                Some((battery, meter)) => self.nodes[camera].charge(bytes, battery, meter)?,
                None => {
                    self.downlink_stats.attempts += 1;
                    self.downlink_stats.bytes += bytes;
                }
            }
            delivery.attempts += 1;

            if dark || (faults.loss > 0.0 && self.roll(camera, TAG_DATA) < faults.loss) {
                self.stats_mut(route).drops += 1;
            } else if self.corrupt_attempt(camera, target, &message, delivery.attempts) {
                // The frame arrived, but wrong: the receiver's checksum
                // rejects it, no ack comes back, and the ARQ retries.
                // The attempt's energy (charged above) stays spent.
                delivery.corrupted += 1;
                let stats = self.stats_mut(route);
                stats.corrupted += 1;
                stats.rejected += 1;
            } else {
                if delivery.delivered {
                    // A retransmission whose ack was lost: the receiver
                    // already has this seq and suppresses the repeat.
                    if !matches!(route, Route::Peer { .. }) {
                        self.stats_mut(route).duplicates += 1;
                    }
                } else {
                    delivery.delivered = true;
                    if let Route::Up { from, .. } = route {
                        self.admit_uplink(from, &message, &mut delivery);
                    }
                }
                let ack_lost = faults.loss > 0.0 && self.roll(camera, TAG_ACK) < faults.loss;
                if !ack_lost {
                    delivery.acked = true;
                    self.stats_mut(route).messages += 1;
                    return Ok(delivery);
                }
            }
            if u64::from(delivery.attempts) >= max_attempts {
                self.stats_mut(route).timeouts += 1;
                return Ok(delivery);
            }
        }
    }

    /// The statistics a route's outcomes accumulate into.
    fn stats_mut(&mut self, route: Route) -> &mut TransportStats {
        match route {
            Route::Down { .. } => &mut self.downlink_stats,
            Route::Up { from, .. } | Route::Peer { from, .. } => &mut self.nodes[from].stats,
        }
    }

    /// The first copy of an uplink message to arrive: into the inbox
    /// after any delay, and the network itself may duplicate the packet
    /// (the extra copy carries the same seq and is suppressed).
    fn admit_uplink(&mut self, from: usize, message: &Message, delivery: &mut Delivery) {
        let faults = self.plan.faults(from);
        let mut delay = faults.delay_rounds;
        if faults.jitter_rounds > 0 {
            let draw = self.roll(from, TAG_JITTER);
            delay += (draw * (faults.jitter_rounds + 1) as f64) as usize;
        }
        delivery.delayed_rounds = delay;
        self.admit(from, message.clone(), delay);
        if faults.duplicate > 0.0 && self.roll(from, TAG_DUP) < faults.duplicate {
            self.nodes[from].stats.duplicates += 1;
        }
    }

    /// One deterministic roll for `link`/`tag`, consuming the next event
    /// counter value.
    fn roll(&mut self, link: usize, tag: u64) -> f64 {
        let n = self.rolls;
        self.rolls += 1;
        self.plan.unit_roll(link, tag, n)
    }

    /// Rolls the corruption plan for one *delivered* data attempt and,
    /// when it fires, puts the message through a real
    /// encode → bit-flip → decode cycle. Returns `true` when the
    /// receiver's checksum rejected the mangled frame (the guaranteed
    /// outcome at ≤ 3 flips) — the caller then treats the attempt like
    /// a drop. Disabled plans consume no roll and always return
    /// `false`, so pre-corruption runs replay bit-identically.
    fn corrupt_attempt(
        &mut self,
        link: usize,
        target: Endpoint,
        message: &Message,
        attempt: u32,
    ) -> bool {
        let corruption = *self.plan.corruption();
        if !corruption.enabled() || self.roll(link, TAG_CORRUPT) >= corruption.rate() {
            return false;
        }
        let mut frame = encode_frame(message);
        let mask = corruption.flip_mask(
            self.plan.seed(),
            link,
            target,
            self.round,
            attempt,
            frame.len() * 8,
        );
        for bit in mask {
            frame[bit / 8] ^= 1 << (bit % 8);
        }
        // A frame that still decodes to the original survived intact —
        // unreachable while flips are distinct and nonzero, but checked
        // so the invariant "corrupt data is never consumed" rests on
        // the actual decode, not on our reasoning about CRC distances.
        !matches!(decode_frame(&frame), Ok(ref m) if m == message)
    }

    /// Accepts a delivered message: straight into the inbox, or into the
    /// pending queue when delayed.
    fn admit(&mut self, from: usize, message: Message, delay_rounds: usize) {
        if delay_rounds == 0 {
            self.push_inbox(from, message);
        } else {
            self.pending.push(PendingDelivery {
                due_round: self.round + delay_rounds,
                from,
                message,
            });
        }
    }

    /// Pushes into the inbox, letting the reorder fault swap the new
    /// arrival with its predecessor.
    fn push_inbox(&mut self, from: usize, message: Message) {
        self.inbox.push((from, message));
        let reorder = self.plan.faults(from).reorder;
        if reorder > 0.0 && self.inbox.len() >= 2 && self.roll(from, TAG_REORDER) < reorder {
            let n = self.inbox.len();
            self.inbox.swap(n - 1, n - 2);
        }
    }
}

/// Maps a battery-drain failure onto the structured transport error.
fn send_failed(e: EnergyError) -> NetError {
    match e {
        EnergyError::BatteryExhausted {
            requested,
            remaining,
        } => NetError::SendFailed {
            needed_j: requested,
            available_j: remaining,
        },
        // `BatteryState::drain` only rejects negative draws otherwise,
        // and transmit energies are non-negative by construction.
        _ => NetError::SendFailed {
            needed_j: f64::NAN,
            available_j: f64::NAN,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;

    fn setup() -> (Network, BatteryState, PowerMeter) {
        (
            Network::new(4, LinkModel::default(), DeviceEnergyModel::default()),
            BatteryState::new(100.0).unwrap(),
            PowerMeter::new(),
        )
    }

    #[test]
    fn send_charges_battery_and_delivers() {
        let (mut net, mut bat, mut meter) = setup();
        net.send(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(bat.used() > 0.0);
        assert!((meter.by_category(EnergyCategory::Communication) - bat.used()).abs() < 1e-12);
        let inbox = net.drain_inbox();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].0, 0);
        assert!(net.drain_inbox().is_empty());
    }

    #[test]
    fn stats_accumulate_per_node() {
        let (mut net, mut bat, mut meter) = setup();
        net.send(
            1,
            Message::DetectionMetadata { objects: 2 },
            &mut bat,
            &mut meter,
        )
        .unwrap();
        net.send(1, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        let s = net.stats(1).unwrap();
        assert_eq!(s.messages, 2);
        assert!(s.bytes > 172);
        assert!(s.energy_j > 0.0);
        assert!(s.airtime_s > 0.0);
        assert_eq!(net.stats(0).unwrap().messages, 0);
    }

    #[test]
    fn unknown_node_rejected() {
        let (mut net, mut bat, mut meter) = setup();
        assert!(matches!(
            net.send(9, Message::EnergyReport, &mut bat, &mut meter),
            Err(NetError::UnknownNode(9))
        ));
        assert!(net.stats(9).is_err());
        assert!(matches!(
            net.send_reliable(9, Message::EnergyReport, &mut bat, &mut meter),
            Err(NetError::UnknownNode(9))
        ));
        assert!(matches!(
            net.send_downlink(9, Message::ActivationCommand),
            Err(NetError::UnknownNode(9))
        ));
    }

    #[test]
    fn dead_battery_blocks_send_atomically() {
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default());
        let mut bat = BatteryState::new(1e-9).unwrap();
        let mut meter = PowerMeter::new();
        let big = Message::FeatureUpload {
            frames: 100,
            feature_dim: 4180,
        };
        assert!(matches!(
            net.send(0, big, &mut bat, &mut meter),
            Err(NetError::SendFailed { .. })
        ));
        assert!(net.drain_inbox().is_empty());
        assert_eq!(net.stats(0).unwrap().messages, 0);
        assert_eq!(meter.total(), 0.0);
    }

    #[test]
    fn with_nodes_builds_heterogeneous_rig() {
        let mut net = Network::with_nodes(vec![
            (LinkModel::default(), DeviceEnergyModel::default()),
            (
                LinkModel::new(20e6, 0.4).unwrap(),
                DeviceEnergyModel::default(),
            ),
        ]);
        assert_eq!(net.cameras(), 2);
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        let msg = Message::DetectionMetadata { objects: 5 };
        net.send(0, msg.clone(), &mut bat, &mut meter).unwrap();
        net.send(1, msg, &mut bat, &mut meter).unwrap();
        assert!(
            net.stats(1).unwrap().energy_j > 2.0 * net.stats(0).unwrap().energy_j,
            "the low-quality link must cost more"
        );
    }

    #[test]
    fn reliable_send_on_ideal_plan_matches_raw_send_energy() {
        let (mut net, mut bat, mut meter) = setup();
        let msg = Message::DetectionMetadata { objects: 3 };
        let d = net
            .send_reliable(0, msg.clone(), &mut bat, &mut meter)
            .unwrap();
        assert!(d.delivered && d.acked);
        assert_eq!(d.attempts, 1);
        assert_eq!(d.backoff_s, 0.0);
        let reliable_cost = bat.used();

        let mut bat2 = BatteryState::new(100.0).unwrap();
        let mut meter2 = PowerMeter::new();
        net.send(1, msg, &mut bat2, &mut meter2).unwrap();
        assert!(
            (reliable_cost - bat2.used()).abs() < 1e-15,
            "ideal reliable path must cost exactly one attempt"
        );
        assert_eq!(net.drain_inbox().len(), 2);
    }

    #[test]
    fn loss_forces_retries_and_burns_energy() {
        let plan = FaultPlan::seeded(7).with_default_faults(LinkFaults::lossy(0.6));
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::unlimited());
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        let mut ideal = BatteryState::new(100.0).unwrap();
        let mut ideal_meter = PowerMeter::new();
        let mut ideal_net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default());

        let mut retried = false;
        for _ in 0..40 {
            let msg = Message::DetectionMetadata { objects: 2 };
            let d = net
                .send_reliable(0, msg.clone(), &mut bat, &mut meter)
                .unwrap();
            assert!(d.acked, "unlimited retries must end acked");
            retried |= d.attempts > 1;
            ideal_net
                .send(0, msg, &mut ideal, &mut ideal_meter)
                .unwrap();
        }
        assert!(
            retried,
            "60% loss must force at least one retry in 40 sends"
        );
        assert!(bat.used() > ideal.used(), "retries must cost extra energy");
        let s = net.stats(0).unwrap();
        assert_eq!(s.messages, 40);
        assert!(s.drops > 0 && s.retries > 0);
        assert!(s.attempts > 40);
        assert!(s.backoff_s > 0.0);
        assert_eq!(net.drain_inbox().len(), 40, "exactly one copy per message");
    }

    #[test]
    fn lost_ack_does_not_double_deliver() {
        // High loss + unlimited retries: some acks are bound to get lost,
        // producing retransmissions of already-delivered seqs.
        let plan = FaultPlan::seeded(3).with_default_faults(LinkFaults::lossy(0.7));
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::unlimited());
        let mut bat = BatteryState::new(1000.0).unwrap();
        let mut meter = PowerMeter::new();
        for _ in 0..60 {
            net.send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
                .unwrap();
        }
        let s = net.stats(0).unwrap();
        assert!(s.duplicates > 0, "70% loss must lose some acks in 60 sends");
        assert_eq!(net.drain_inbox().len(), 60);
    }

    #[test]
    fn retry_cap_times_out() {
        let plan = FaultPlan::seeded(1).with_default_faults(LinkFaults::lossy(0.95));
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            });
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        let mut timed_out = false;
        for _ in 0..20 {
            let d = net
                .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
                .unwrap();
            assert!(d.attempts <= 3);
            timed_out |= !d.acked;
        }
        assert!(timed_out, "95% loss with 2 retries must time out sometimes");
        assert!(net.stats(0).unwrap().timeouts > 0);
    }

    #[test]
    fn crash_window_blocks_send_without_energy() {
        let plan = FaultPlan::seeded(5).with_crash(0, 0, 2);
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan);
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        let d = net
            .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(!d.delivered && !d.acked);
        assert_eq!(d.attempts, 0);
        assert_eq!(bat.used(), 0.0, "a crashed radio draws nothing");
        assert!(net.is_camera_down(0));

        net.advance_round();
        net.advance_round();
        assert!(!net.is_camera_down(0), "crash window [0, 2) is over");
        let d = net
            .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(d.acked && bat.used() > 0.0);
    }

    #[test]
    fn outage_burns_one_probe_attempt() {
        let plan = FaultPlan::seeded(6).with_outage(0, 0, 1);
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::unlimited());
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        let d = net
            .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(!d.delivered && !d.acked);
        assert_eq!(d.attempts, 1, "outage: one probe, then give up");
        assert!(bat.used() > 0.0, "the probe attempt still costs energy");
        assert_eq!(net.stats(0).unwrap().timeouts, 1);
    }

    #[test]
    fn delay_holds_delivery_until_round_matures() {
        let plan = FaultPlan::seeded(8).with_default_faults(LinkFaults {
            delay_rounds: 2,
            ..LinkFaults::ideal()
        });
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan);
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        let d = net
            .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(d.delivered && d.acked);
        assert_eq!(d.delayed_rounds, 2);
        assert!(net.drain_inbox().is_empty(), "not due yet");
        net.advance_round();
        assert!(net.drain_inbox().is_empty(), "still one round early");
        net.advance_round();
        assert_eq!(net.drain_inbox().len(), 1);
    }

    #[test]
    fn reorder_swaps_adjacent_arrivals() {
        let plan = FaultPlan::seeded(11).with_default_faults(LinkFaults {
            reorder: 0.5,
            ..LinkFaults::ideal()
        });
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan);
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        for objects in 0..30 {
            net.send_reliable(
                0,
                Message::DetectionMetadata { objects },
                &mut bat,
                &mut meter,
            )
            .unwrap();
        }
        let order: Vec<usize> = net
            .drain_inbox()
            .into_iter()
            .map(|(_, m)| match m {
                Message::DetectionMetadata { objects } => objects,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order.len(), 30, "reorder must not lose or duplicate");
        assert!(
            (0..order.len()).any(|i| order[i] != i),
            "50% reorder over 30 sends must swap at least once"
        );
    }

    #[test]
    fn chaos_trace_is_reproducible() {
        let run = || {
            let plan = FaultPlan::seeded(99).with_default_faults(LinkFaults {
                loss: 0.4,
                delay_rounds: 1,
                jitter_rounds: 2,
                duplicate: 0.2,
                reorder: 0.3,
            });
            let mut net = Network::new(3, LinkModel::default(), DeviceEnergyModel::default())
                .with_fault_plan(plan)
                .with_retry_policy(RetryPolicy::unlimited());
            let mut bat = BatteryState::new(1000.0).unwrap();
            let mut meter = PowerMeter::new();
            let mut trace = Vec::new();
            for round in 0..5 {
                for cam in 0..3 {
                    let d = net
                        .send_reliable(
                            cam,
                            Message::DetectionMetadata { objects: round },
                            &mut bat,
                            &mut meter,
                        )
                        .unwrap();
                    trace.push((cam, d.attempts, d.delayed_rounds));
                }
                net.advance_round();
                trace.extend(
                    net.drain_inbox()
                        .into_iter()
                        .map(|(from, m)| (from, 0, m.wire_bytes() as usize)),
                );
            }
            (
                trace,
                bat.used(),
                (0..3).map(|c| net.stats(c).unwrap()).collect::<Vec<_>>(),
            )
        };
        let (t1, e1, s1) = run();
        let (t2, e2, s2) = run();
        assert_eq!(t1, t2, "same seed, same trace");
        assert_eq!(e1.to_bits(), e2.to_bits(), "bit-identical energy");
        assert_eq!(s1, s2);
    }

    #[test]
    fn dead_controller_turns_uplinks_into_probes_and_silences_downlink() {
        let (mut net, mut bat, mut meter) = setup();
        net.set_controller_down(true);
        assert!(net.controller_down());
        let d = net
            .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(!d.delivered && !d.acked);
        assert_eq!(d.attempts, 1, "one probe discovers the dead hub");
        assert!(bat.used() > 0.0, "the probe still costs energy");
        let d = net.send_downlink(0, Message::AlgorithmAssignment).unwrap();
        assert!(!d.delivered && d.attempts == 0, "a dead hub sends nothing");
        assert_eq!(net.downlink_stats().timeouts, 1);

        net.set_controller_down(false);
        let d = net
            .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(d.delivered && d.acked, "hub recovery restores delivery");
    }

    #[test]
    fn peer_send_charges_sender_and_skips_the_inbox() {
        let (mut net, mut bat, mut meter) = setup();
        let d = net
            .send_peer(
                1,
                2,
                Message::ControllerHandover {
                    controller: 1,
                    epoch: 1,
                },
                &mut bat,
                &mut meter,
            )
            .unwrap();
        assert!(d.delivered && d.acked);
        assert_eq!(d.attempts, 1);
        assert!(bat.used() > 0.0, "the announcer pays for the broadcast");
        assert!(
            net.drain_inbox().is_empty(),
            "peer traffic never reaches the controller inbox"
        );
        assert_eq!(net.stats(1).unwrap().messages, 1);
        assert!(matches!(
            net.send_peer(0, 9, Message::DegradedFrame, &mut bat, &mut meter),
            Err(NetError::UnknownNode(9))
        ));
    }

    #[test]
    fn peer_send_to_a_crashed_camera_burns_one_probe() {
        let plan = FaultPlan::seeded(4).with_crash(2, 0, 5);
        let mut net = Network::new(3, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan);
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        let d = net
            .send_peer(
                0,
                2,
                Message::ControllerHandover {
                    controller: 0,
                    epoch: 1,
                },
                &mut bat,
                &mut meter,
            )
            .unwrap();
        assert!(!d.delivered && !d.acked);
        assert_eq!(d.attempts, 1);
        assert!(bat.used() > 0.0);

        // A crashed *sender* makes no attempt at all.
        let mut bat2 = BatteryState::new(100.0).unwrap();
        let d = net
            .send_peer(
                2,
                0,
                Message::ControllerHandover {
                    controller: 2,
                    epoch: 2,
                },
                &mut bat2,
                &mut meter,
            )
            .unwrap();
        assert_eq!(d.attempts, 0);
        assert_eq!(bat2.used(), 0.0);
    }

    #[test]
    fn partition_blocks_uplink_like_an_outage() {
        use crate::fault::PartitionPlan;
        let split = PartitionPlan::none().with_split(
            vec![
                vec![Endpoint::Hub, Endpoint::Camera(0)],
                vec![Endpoint::Camera(1)],
            ],
            0,
            2,
        );
        let mut net = Network::new(2, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(FaultPlan::seeded(3).with_partition(split));
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();

        // Same island as the hub: delivery works.
        let d = net
            .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(d.delivered && d.acked);

        // Cut off from the hub: one probe, energy charged, no delivery.
        let before = bat.used();
        let d = net
            .send_reliable(1, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(!d.delivered && !d.acked);
        assert_eq!(d.attempts, 1, "one probe discovers the dead channel");
        assert!(bat.used() > before, "the probe still costs energy");

        // But the same camera can still reach a seat inside its island.
        let d = net
            .send_reliable_to(
                1,
                Endpoint::Camera(1),
                Message::EnergyReport,
                &mut bat,
                &mut meter,
            )
            .unwrap();
        assert!(d.delivered && d.acked, "island-local seat stays reachable");

        // After the window everything heals.
        net.advance_round();
        net.advance_round();
        let d = net
            .send_reliable(1, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(d.delivered && d.acked);
    }

    #[test]
    fn partition_silences_downlink_and_darkens_peers() {
        use crate::fault::PartitionPlan;
        let split = PartitionPlan::none().with_split(
            vec![
                vec![Endpoint::Hub, Endpoint::Camera(0)],
                vec![Endpoint::Camera(1), Endpoint::Camera(2)],
            ],
            0,
            1,
        );
        let mut net = Network::new(3, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(FaultPlan::seeded(5).with_partition(split));
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();

        // Downlink into the far island: drops, no delivery.
        let d = net.send_downlink(1, Message::AlgorithmAssignment).unwrap();
        assert!(!d.delivered);
        assert_eq!(net.downlink_stats().timeouts, 1);
        let d = net.send_downlink(0, Message::AlgorithmAssignment).unwrap();
        assert!(d.delivered && d.acked, "own island still served");

        // Peer traffic: dead across the cut, alive inside an island.
        let d = net
            .send_peer(0, 1, Message::DegradedFrame, &mut bat, &mut meter)
            .unwrap();
        assert!(!d.delivered);
        assert_eq!(d.attempts, 1);
        let d = net
            .send_peer(1, 2, Message::DegradedFrame, &mut bat, &mut meter)
            .unwrap();
        assert!(d.delivered && d.acked);
    }

    #[test]
    fn one_way_partition_is_asymmetric_on_the_wire() {
        use crate::fault::PartitionPlan;
        let plan = PartitionPlan::none().with_one_way(Endpoint::Camera(0), Endpoint::Hub, 0, 1);
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(FaultPlan::seeded(6).with_partition(plan));
        let mut bat = BatteryState::new(100.0).unwrap();
        let mut meter = PowerMeter::new();
        let d = net
            .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(!d.delivered, "uplink direction is cut");
        let d = net.send_downlink(0, Message::AlgorithmAssignment).unwrap();
        assert!(d.delivered && d.acked, "downlink direction still works");
    }

    #[test]
    fn corruption_is_detected_retried_and_charged() {
        use crate::fault::CorruptionPlan;
        let plan =
            FaultPlan::seeded(21).with_corruption(CorruptionPlan::with_rate(0.6).with_flips(3));
        let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::unlimited());
        let mut bat = BatteryState::new(1000.0).unwrap();
        let mut meter = PowerMeter::new();
        let mut ideal_bat = BatteryState::new(1000.0).unwrap();
        let mut ideal_meter = PowerMeter::new();
        let mut ideal_net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default());

        for _ in 0..40 {
            let msg = Message::DetectionMetadata { objects: 2 };
            let d = net
                .send_reliable(0, msg.clone(), &mut bat, &mut meter)
                .unwrap();
            assert!(d.acked, "unlimited retries must end acked");
            ideal_net
                .send(0, msg, &mut ideal_bat, &mut ideal_meter)
                .unwrap();
        }
        let s = net.stats(0).unwrap();
        assert!(s.corrupted > 0, "60% corruption must fire in 40 sends");
        assert_eq!(
            s.corrupted, s.rejected,
            "every corrupt frame must be rejected, never consumed"
        );
        assert_eq!(s.drops, 0, "no loss configured: corruption is separate");
        assert!(s.retries >= s.corrupted, "each rejection forces a retry");
        assert!(
            bat.used() > ideal_bat.used(),
            "rejected attempts must still cost energy"
        );
        assert_eq!(
            net.drain_inbox().len(),
            40,
            "exactly one clean copy per message"
        );
    }

    #[test]
    fn corruption_trace_is_reproducible() {
        use crate::fault::CorruptionPlan;
        let run = || {
            let plan = FaultPlan::seeded(77)
                .with_default_faults(LinkFaults::lossy(0.2))
                .with_corruption(CorruptionPlan::with_rate(0.3).with_flips(2));
            let mut net = Network::new(2, LinkModel::default(), DeviceEnergyModel::default())
                .with_fault_plan(plan)
                .with_retry_policy(RetryPolicy::unlimited());
            let mut bat = BatteryState::new(1000.0).unwrap();
            let mut meter = PowerMeter::new();
            let mut trace = Vec::new();
            for round in 0..6 {
                for cam in 0..2 {
                    let d = net
                        .send_reliable(
                            cam,
                            Message::DetectionMetadata { objects: round },
                            &mut bat,
                            &mut meter,
                        )
                        .unwrap();
                    trace.push((cam, d.attempts, d.corrupted));
                }
                net.advance_round();
            }
            (
                trace,
                bat.used(),
                (0..2).map(|c| net.stats(c).unwrap()).collect::<Vec<_>>(),
            )
        };
        let (t1, e1, s1) = run();
        let (t2, e2, s2) = run();
        assert!(t1.iter().any(|&(_, _, c)| c > 0), "corruption must fire");
        assert_eq!(t1, t2, "same seed, same corruption trace");
        assert_eq!(e1.to_bits(), e2.to_bits());
        assert_eq!(s1, s2);
    }

    #[test]
    fn corruption_hits_downlink_and_peer_paths() {
        use crate::fault::CorruptionPlan;
        let plan =
            FaultPlan::seeded(13).with_corruption(CorruptionPlan::with_rate(0.7).with_flips(1));
        let mut net = Network::new(2, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::unlimited());
        let mut bat = BatteryState::new(1000.0).unwrap();
        let mut meter = PowerMeter::new();
        for _ in 0..20 {
            let d = net.send_downlink(0, Message::AlgorithmAssignment).unwrap();
            assert!(d.acked);
            let d = net
                .send_peer(0, 1, Message::DegradedFrame, &mut bat, &mut meter)
                .unwrap();
            assert!(d.acked);
        }
        assert!(net.downlink_stats().corrupted > 0, "downlink corruption");
        assert_eq!(
            net.downlink_stats().corrupted,
            net.downlink_stats().rejected
        );
        let s = net.stats(0).unwrap();
        assert!(s.corrupted > 0, "peer corruption");
        assert_eq!(s.corrupted, s.rejected);
    }

    #[test]
    fn disabled_corruption_changes_no_rolls() {
        // A plan with loss but no corruption must produce the same roll
        // stream (hence identical outcomes) as the pre-corruption code:
        // the corruption check is zero-roll when disabled.
        let run = |with_noop_corruption: bool| {
            let mut plan = FaultPlan::seeded(5).with_default_faults(LinkFaults::lossy(0.4));
            if with_noop_corruption {
                plan = plan.with_corruption(crate::fault::CorruptionPlan::none());
            }
            let mut net = Network::new(1, LinkModel::default(), DeviceEnergyModel::default())
                .with_fault_plan(plan)
                .with_retry_policy(RetryPolicy::unlimited());
            let mut bat = BatteryState::new(1000.0).unwrap();
            let mut meter = PowerMeter::new();
            let mut trace = Vec::new();
            for _ in 0..25 {
                let d = net
                    .send_reliable(0, Message::EnergyReport, &mut bat, &mut meter)
                    .unwrap();
                trace.push((d.attempts, d.corrupted));
            }
            (trace, bat.used().to_bits())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn loopback_delivery_is_free_and_acked() {
        let d = Delivery::loopback();
        assert!(d.delivered && d.acked);
        assert_eq!(d.attempts, 0);
        assert_eq!(d.backoff_s, 0.0);
    }

    #[test]
    fn detached_camera_is_dark_on_every_path() {
        let (mut net, mut bat, mut meter) = setup();
        assert!(!net.is_camera_down(1));
        net.set_attached(1, false).unwrap();
        assert!(net.is_camera_down(1), "detached reads as down");

        // Uplink: no attempt, no energy, a timeout on the books.
        let d = net
            .send_reliable(1, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(!d.delivered && !d.acked);
        assert_eq!(d.attempts, 0);
        assert_eq!(bat.used(), 0.0, "a detached radio draws nothing");

        // Downlink: a departed camera hears nothing.
        let d = net.send_downlink(1, Message::AlgorithmAssignment).unwrap();
        assert!(!d.delivered);

        // Peer path: one probe discovers the hole in the fleet.
        let d = net
            .send_peer(
                0,
                1,
                Message::ControllerHandover {
                    controller: 0,
                    epoch: 1,
                },
                &mut bat,
                &mut meter,
            )
            .unwrap();
        assert!(!d.delivered);
        assert_eq!(d.attempts, 1);

        // Re-attach restores service with the same identity.
        net.set_attached(1, true).unwrap();
        let seq_before = net.stats(1).unwrap().timeouts;
        let d = net
            .send_reliable(1, Message::EnergyReport, &mut bat, &mut meter)
            .unwrap();
        assert!(d.delivered && d.acked, "rejoin restores delivery");
        assert_eq!(
            net.stats(1).unwrap().timeouts,
            seq_before,
            "the rejoin send must not time out"
        );
        assert!(matches!(
            net.set_attached(9, false),
            Err(NetError::UnknownNode(9))
        ));
    }

    #[test]
    fn downlink_costs_no_camera_energy_and_respects_crash() {
        let plan = FaultPlan::seeded(2).with_crash(1, 0, 3);
        let mut net = Network::new(2, LinkModel::default(), DeviceEnergyModel::default())
            .with_fault_plan(plan);
        let d = net.send_downlink(0, Message::AlgorithmAssignment).unwrap();
        assert!(d.delivered && d.acked);
        let d = net.send_downlink(1, Message::AlgorithmAssignment).unwrap();
        assert!(!d.delivered, "a crashed camera hears nothing");
        let stats = net.downlink_stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.energy_j, 0.0, "controller power is not metered");
        assert!(
            (0..2).all(|c| net.stats(c).unwrap().attempts == 0),
            "no uplink involved"
        );
    }
}
