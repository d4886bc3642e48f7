//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] describes everything that can go wrong on the star
//! network: per-link packet loss, delivery delay and jitter, duplication,
//! reordering, scheduled link outages, and camera crash (brownout)
//! windows. The plan is *seeded*: every probabilistic decision is a pure
//! function of `(seed, link, event tag, event counter)`, so two runs of
//! the same simulation with the same plan produce byte-for-byte identical
//! traces — no global RNG, no wall-clock dependence.
//!
//! Time is measured in simulation *rounds* (the controller's assessment /
//! operation cadence), matching how `eecs-core` advances the network via
//! [`crate::Network::advance_round`]. Outage and crash windows are
//! half-open round intervals.
//!
//! Fault semantics, chosen to stay cheap and deterministic:
//!
//! * **Loss** applies independently to each data attempt *and* to each
//!   acknowledgement, so a message can be delivered yet still retried
//!   (the classic duplicate-generating failure mode).
//! * **Outage** means the link is deterministically down for the whole
//!   round: the sender burns one probe attempt (carrier sense / missed
//!   beacons reveal a dead channel), then gives up until the next round.
//! * **Crash** means the camera itself is unpowered: no attempt is made
//!   and no energy is drawn.

use std::collections::BTreeMap;

/// SplitMix64's output finalizer: a bijective avalanche of `z`. Seeded
/// rolls mix their own key layout into `z` and finalize it here, so each
/// draw is a pure function of its key.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Event-tag for a data transmission roll.
pub(crate) const TAG_DATA: u64 = 1;
/// Event-tag for an acknowledgement roll.
pub(crate) const TAG_ACK: u64 = 2;
/// Event-tag for a delivery-jitter roll.
pub(crate) const TAG_JITTER: u64 = 3;
/// Event-tag for a duplication roll.
pub(crate) const TAG_DUP: u64 = 4;
/// Event-tag for a reordering roll.
pub(crate) const TAG_REORDER: u64 = 5;
/// Event-tag for a payload-corruption roll.
pub(crate) const TAG_CORRUPT: u64 = 6;

/// Stochastic fault parameters of one camera ↔ controller link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1)` that one transmission attempt (data or
    /// ack) is lost.
    pub loss: f64,
    /// Fixed delivery delay, in rounds.
    pub delay_rounds: usize,
    /// Random extra delay: each delivery draws 0..=`jitter_rounds` extra
    /// rounds.
    pub jitter_rounds: usize,
    /// Probability in `[0, 1)` that a delivered packet is duplicated by
    /// the network.
    pub duplicate: f64,
    /// Probability in `[0, 1)` that a delivered packet overtakes the one
    /// before it in the controller inbox.
    pub reorder: f64,
}

impl LinkFaults {
    /// A perfectly clean link: no loss, delay, duplication or reorder.
    pub fn ideal() -> LinkFaults {
        LinkFaults {
            loss: 0.0,
            delay_rounds: 0,
            jitter_rounds: 0,
            duplicate: 0.0,
            reorder: 0.0,
        }
    }

    /// A link that only loses packets, with probability `loss`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= loss < 1` (at `loss = 1` a retry loop could
    /// never terminate).
    pub fn lossy(loss: f64) -> LinkFaults {
        let f = LinkFaults {
            loss,
            ..LinkFaults::ideal()
        };
        f.check();
        f
    }

    /// Whether this link behaves perfectly.
    pub fn is_ideal(&self) -> bool {
        *self == LinkFaults::ideal()
    }

    fn check(&self) {
        for (name, p) in [
            ("loss", self.loss),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            assert!(
                (0.0..1.0).contains(&p),
                "fault probability `{name}` must be in [0, 1), got {p}"
            );
        }
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::ideal()
    }
}

/// A half-open window of simulation rounds, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First round inside the window.
    pub start: usize,
    /// First round past the window.
    pub end: usize,
}

impl Window {
    /// The window `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end` (empty windows are configuration bugs).
    pub fn new(start: usize, end: usize) -> Window {
        assert!(start < end, "empty fault window [{start}, {end})");
        Window { start, end }
    }

    /// Whether `round` falls inside the window.
    pub fn contains(&self, round: usize) -> bool {
        (self.start..self.end).contains(&round)
    }
}

/// One end of a link on the star network: the mains-powered hub or a
/// camera. Partition islands are sets of endpoints, so a split can cut
/// cameras off from the hub, from each other, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// The mains-powered controller hub.
    Hub,
    /// Camera `j`'s radio.
    Camera(usize),
}

/// A deterministic schedule of network partitions.
///
/// A partition splits the node graph into *islands* for a window of
/// rounds: traffic inside an island flows normally, traffic between
/// islands is dropped at the sender (the radio sees a dead channel).
/// Endpoints not named in any island of an active split are isolated
/// singletons — they can reach nobody and nobody can reach them.
///
/// Besides symmetric splits the plan supports *one-way* cuts (`from`
/// can no longer reach `to`, but the reverse direction still works —
/// the classic asymmetric-link failure) and *flapping* (a split that
/// alternates on/off with a fixed period). All schedules are pure
/// functions of the round number: the plan consumes no random rolls,
/// so an empty plan is bit-identical to no plan at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionPlan {
    splits: Vec<(Window, Vec<Vec<Endpoint>>)>,
    one_way: Vec<(Endpoint, Endpoint, Window)>,
}

impl PartitionPlan {
    /// A fully connected network — the pre-partition behavior.
    pub fn none() -> PartitionPlan {
        PartitionPlan::default()
    }

    /// Splits the network into `islands` over rounds `[start, end)`.
    /// An empty window (`start >= end`) schedules nothing — the plan is
    /// unchanged and stays bit-identical to no plan at all.
    ///
    /// # Panics
    ///
    /// Panics when an island is empty or when an endpoint appears in
    /// more than one island of the same split.
    pub fn with_split(mut self, islands: Vec<Vec<Endpoint>>, start: usize, end: usize) -> Self {
        Self::check_islands(&islands);
        if start < end {
            self.splits.push((Window::new(start, end), islands));
        }
        self
    }

    /// Cuts the `from → to` direction only over rounds `[start, end)`;
    /// `to → from` keeps working. An empty window schedules nothing.
    ///
    /// # Panics
    ///
    /// Panics when `from == to`.
    pub fn with_one_way(mut self, from: Endpoint, to: Endpoint, start: usize, end: usize) -> Self {
        assert!(from != to, "one-way cut from an endpoint to itself");
        if start < end {
            self.one_way.push((from, to, Window::new(start, end)));
        }
        self
    }

    /// A flapping split: `islands` apply over every other `period`-round
    /// slice of `[start, end)` — on for `[start, start + period)`, off
    /// for the next `period` rounds, on again, and so on. Deterministic;
    /// no rolls are consumed.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end`, `period == 0`, or the islands are
    /// malformed (see [`PartitionPlan::with_split`]).
    pub fn with_flapping(
        mut self,
        islands: Vec<Vec<Endpoint>>,
        start: usize,
        end: usize,
        period: usize,
    ) -> Self {
        assert!(start < end, "empty fault window [{start}, {end})");
        assert!(period > 0, "flapping period must be positive");
        Self::check_islands(&islands);
        let mut s = start;
        while s < end {
            let e = (s + period).min(end);
            self.splits.push((Window::new(s, e), islands.clone()));
            s += 2 * period;
        }
        self
    }

    fn check_islands(islands: &[Vec<Endpoint>]) {
        let mut seen = Vec::new();
        for island in islands {
            assert!(!island.is_empty(), "empty partition island");
            for ep in island {
                assert!(
                    !seen.contains(ep),
                    "endpoint {ep:?} appears in two islands of one split"
                );
                seen.push(*ep);
            }
        }
    }

    /// Whether a message sent `from → to` at `round` can traverse the
    /// network. Always true for `from == to` and for rounds outside
    /// every window; the check is pure and consumes no rolls.
    pub fn can_reach(&self, from: Endpoint, to: Endpoint, round: usize) -> bool {
        if from == to {
            return true;
        }
        for (w, islands) in &self.splits {
            if !w.contains(round) {
                continue;
            }
            let home = |ep: Endpoint| islands.iter().position(|i| i.contains(&ep));
            match (home(from), home(to)) {
                // Unlisted endpoints are isolated singletons.
                (Some(a), Some(b)) if a == b => {}
                _ => return false,
            }
        }
        !self
            .one_way
            .iter()
            .any(|(f, t, w)| *f == from && *t == to && w.contains(round))
    }

    /// Whether any split or one-way cut is active at `round`.
    pub fn is_partitioned(&self, round: usize) -> bool {
        self.splits.iter().any(|(w, _)| w.contains(round))
            || self.one_way.iter().any(|(_, _, w)| w.contains(round))
    }

    /// Whether the plan schedules any partition at all. A `none()` plan
    /// lets the runtime skip the partition control plane entirely.
    pub fn enabled(&self) -> bool {
        !self.splits.is_empty() || !self.one_way.is_empty()
    }
}

/// A seeded schedule of in-flight payload corruption.
///
/// Where loss makes a frame *vanish*, corruption makes it arrive
/// *wrong*: with probability `rate` a delivered data attempt has
/// `flips` of its bits inverted on the wire. Which bits flip is a pure
/// SplitMix64-finalized function of `(seed, from, to, round, attempt)`
/// — no extra random state — so a replay corrupts exactly the same bits
/// of exactly the same frames.
///
/// The flip count is capped at 3: CRC-32 has Hamming distance ≥ 4 on
/// frames far larger than this protocol's, so every corrupted frame is
/// *guaranteed* to fail the receiver's checksum and be rejected (then
/// retransmitted by the ARQ) rather than consumed. That turns "corrupt
/// data never enters the system" into a deterministic invariant.
///
/// [`CorruptionPlan::none`] (the default) flips nothing, consumes no
/// rolls, and leaves runs bit-identical to pre-corruption builds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CorruptionPlan {
    rate: f64,
    flips: u32,
}

impl CorruptionPlan {
    /// No corruption at all — the pre-corruption behavior.
    pub fn none() -> CorruptionPlan {
        CorruptionPlan::default()
    }

    /// Corrupts each delivered data attempt with probability `rate`,
    /// flipping one bit per corrupted frame.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn with_rate(rate: f64) -> CorruptionPlan {
        assert!(
            (0.0..1.0).contains(&rate),
            "corruption rate must be in [0, 1), got {rate}"
        );
        CorruptionPlan {
            rate,
            flips: if rate > 0.0 { 1 } else { 0 },
        }
    }

    /// Sets the number of bits flipped per corrupted frame.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= flips <= 3` (≤ 3 keeps CRC-32 detection
    /// guaranteed; see the type docs).
    pub fn with_flips(mut self, flips: u32) -> CorruptionPlan {
        assert!(
            (1..=3).contains(&flips),
            "flips must be in 1..=3 to stay within CRC-32's guaranteed \
             detection distance, got {flips}"
        );
        self.flips = flips;
        self
    }

    /// Probability that one delivered data attempt is corrupted.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether the plan corrupts anything. A `none()` plan lets the
    /// transport skip the corruption roll entirely (zero-roll
    /// discipline: disabled plans change no random stream).
    pub fn enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// The bit positions flipped in a `frame_bits`-bit frame sent
    /// `from → to` at `(round, attempt)` — a pure function of its
    /// arguments and `seed`. Positions are distinct, so the frame
    /// always differs from the original in exactly `flips` bits.
    pub fn flip_mask(
        &self,
        seed: u64,
        from: usize,
        to: Endpoint,
        round: usize,
        attempt: u32,
        frame_bits: usize,
    ) -> Vec<usize> {
        debug_assert!(frame_bits > 0, "cannot corrupt an empty frame");
        let to_code = match to {
            Endpoint::Hub => 0u64,
            Endpoint::Camera(j) => j as u64 + 1,
        };
        let base = seed
            .wrapping_add((from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(to_code.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((round as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let mut mask = Vec::with_capacity(self.flips as usize);
        let mut draw = 0u64;
        while mask.len() < (self.flips as usize).min(frame_bits) {
            let z = mix64(base.wrapping_add(draw.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            draw += 1;
            let bit = (z % frame_bits as u64) as usize;
            // Distinct positions only: a repeated flip would cancel out
            // and let the frame through clean.
            if !mask.contains(&bit) {
                mask.push(bit);
            }
        }
        mask
    }
}

/// A seeded, deterministic schedule of network faults.
///
/// Construct with [`FaultPlan::ideal`] (no faults, the default) or
/// [`FaultPlan::seeded`], then layer faults with the builder methods:
///
/// ```
/// use eecs_net::{FaultPlan, LinkFaults};
///
/// let plan = FaultPlan::seeded(42)
///     .with_default_faults(LinkFaults::lossy(0.3))
///     .with_outage(1, 2, 4) // camera 1's link down for rounds 2..4
///     .with_crash(3, 0, 10); // camera 3 never comes up
/// assert!(plan.is_crashed(3, 5) && !plan.is_crashed(2, 5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_faults: LinkFaults,
    per_link: BTreeMap<usize, LinkFaults>,
    outages: Vec<(usize, Window)>,
    crashes: Vec<(usize, Window)>,
    partition: PartitionPlan,
    corruption: CorruptionPlan,
}

impl FaultPlan {
    /// A plan with no faults at all — the network behaves exactly like
    /// the pre-fault-injection ideal transport.
    pub fn ideal() -> FaultPlan {
        FaultPlan::seeded(0)
    }

    /// An empty plan carrying the RNG `seed`; add faults with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            default_faults: LinkFaults::ideal(),
            per_link: BTreeMap::new(),
            outages: Vec::new(),
            crashes: Vec::new(),
            partition: PartitionPlan::none(),
            corruption: CorruptionPlan::none(),
        }
    }

    /// The seed every roll is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the fault parameters used by links without a per-link entry.
    ///
    /// # Panics
    ///
    /// Panics when a probability is outside `[0, 1)`.
    pub fn with_default_faults(mut self, faults: LinkFaults) -> FaultPlan {
        faults.check();
        self.default_faults = faults;
        self
    }

    /// Overrides the fault parameters of `camera`'s link.
    ///
    /// # Panics
    ///
    /// Panics when a probability is outside `[0, 1)`.
    pub fn with_link_faults(mut self, camera: usize, faults: LinkFaults) -> FaultPlan {
        faults.check();
        self.per_link.insert(camera, faults);
        self
    }

    /// Schedules a link outage for `camera` over rounds `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end`.
    pub fn with_outage(mut self, camera: usize, start: usize, end: usize) -> FaultPlan {
        self.outages.push((camera, Window::new(start, end)));
        self
    }

    /// Schedules a crash (brownout) of `camera` over rounds
    /// `[start, end)`: the device is off, so it neither computes, sends,
    /// nor receives.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end`.
    pub fn with_crash(mut self, camera: usize, start: usize, end: usize) -> FaultPlan {
        self.crashes.push((camera, Window::new(start, end)));
        self
    }

    /// Attaches a partition schedule to the plan.
    pub fn with_partition(mut self, partition: PartitionPlan) -> FaultPlan {
        self.partition = partition;
        self
    }

    /// The partition schedule of this plan.
    pub fn partition(&self) -> &PartitionPlan {
        &self.partition
    }

    /// Attaches an in-flight payload-corruption schedule to the plan.
    pub fn with_corruption(mut self, corruption: CorruptionPlan) -> FaultPlan {
        self.corruption = corruption;
        self
    }

    /// The corruption schedule of this plan.
    pub fn corruption(&self) -> &CorruptionPlan {
        &self.corruption
    }

    /// The fault parameters governing `camera`'s link.
    pub fn faults(&self, camera: usize) -> LinkFaults {
        self.per_link
            .get(&camera)
            .copied()
            .unwrap_or(self.default_faults)
    }

    /// Whether `camera`'s link is in a scheduled outage at `round`.
    pub fn is_outage(&self, camera: usize, round: usize) -> bool {
        self.outages
            .iter()
            .any(|(c, w)| *c == camera && w.contains(round))
    }

    /// Whether `camera` is crashed (unpowered) at `round`.
    pub fn is_crashed(&self, camera: usize, round: usize) -> bool {
        self.crashes
            .iter()
            .any(|(c, w)| *c == camera && w.contains(round))
    }

    /// Whether the plan injects any fault at all. An ideal plan lets the
    /// transport skip every roll.
    pub fn enabled(&self) -> bool {
        !self.default_faults.is_ideal()
            || self.per_link.values().any(|f| !f.is_ideal())
            || !self.outages.is_empty()
            || !self.crashes.is_empty()
            || self.partition.enabled()
            || self.corruption.enabled()
    }

    /// Deterministic uniform draw in `[0, 1)` for event number `counter`
    /// of kind `tag` on `link`.
    ///
    /// SplitMix64-style finalizer over the mixed inputs; the counter is
    /// supplied by the transport, which increments it once per roll, so a
    /// replay with the same plan and the same event order reproduces
    /// every outcome exactly.
    pub(crate) fn unit_roll(&self, link: usize, tag: u64, counter: u64) -> f64 {
        let z = mix64(
            self.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((link as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(tag.wrapping_mul(0x94D0_49BB_1331_11EB))
                .wrapping_add(counter.wrapping_mul(0xD6E8_FEB8_6659_FD93)),
        );
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::ideal()
    }
}

/// A deterministic schedule of *controller* crashes.
///
/// Where [`FaultPlan`] kills cameras and links, this plan kills the hub:
/// at the first round of each window the currently acting controller
/// dies mid-round. The runtime reacts by failing over — every camera
/// burns a probe discovering the silence, the camera that has spent the
/// least energy is elected, and selection state is restored from the
/// latest checkpoint.
/// Once a camera holds the controller seat it keeps it (no failback);
/// later windows crash *that* controller in turn, so a multi-window plan
/// produces a chain of handovers.
///
/// [`ControllerFaultPlan::none`] (the default) changes nothing anywhere:
/// the simulation takes no checkpoints and the mains-powered controller
/// is immortal, preserving bit-identical replays of fault-free runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerFaultPlan {
    crashes: Vec<Window>,
}

impl ControllerFaultPlan {
    /// An immortal controller — the pre-fault-injection behavior.
    pub fn none() -> ControllerFaultPlan {
        ControllerFaultPlan::default()
    }

    /// Schedules a controller crash over rounds `[start, end)`. The
    /// crash fires at `start`; the rest of the window only matters for
    /// [`ControllerFaultPlan::is_down`] (the crashed host stays dark and
    /// never reclaims the seat).
    ///
    /// # Panics
    ///
    /// Panics when `start >= end`.
    pub fn with_crash(mut self, start: usize, end: usize) -> ControllerFaultPlan {
        self.crashes.push(Window::new(start, end));
        self
    }

    /// Whether a crash fires at exactly `round` (the moment the acting
    /// controller dies and failover must run).
    pub fn crash_starts(&self, round: usize) -> bool {
        self.crashes.iter().any(|w| w.start == round)
    }

    /// Whether some crashed controller host is still dark at `round`.
    pub fn is_down(&self, round: usize) -> bool {
        self.crashes.iter().any(|w| w.contains(round))
    }

    /// Whether the plan schedules any crash at all. A `none()` plan lets
    /// the runtime skip checkpointing entirely.
    pub fn enabled(&self) -> bool {
        !self.crashes.is_empty()
    }
}

/// A deterministic schedule of fleet membership churn.
///
/// Where [`FaultPlan`] makes cameras *fail* (crashed hardware the
/// controller still plans around), a `ChurnPlan` makes them *come and
/// go*: a departed camera is not part of the fleet at all — its routes,
/// re-probe schedules, quarantine entries and sticky assignments are
/// drained, and a later rejoin re-admits it through an incremental
/// assessment probe. Membership is evaluated at round boundaries only.
///
/// Three schedule kinds compose:
///
/// * **late joins** — `with_join(camera, round)` keeps the camera out of
///   the fleet until `round`,
/// * **absence windows** — `with_leave(camera, start, end)` removes the
///   camera over `[start, end)` (rejoining at `end`);
///   `with_depart(camera, round)` removes it for good,
/// * **random absences** — `with_random_absence(rate, from)` makes every
///   `(camera, round)` from `from` on absent with probability `rate`.
///
/// Every decision — including the random one — is a pure
/// SplitMix64-finalized function of `(seed, camera, round)`: no counter,
/// no global RNG state. An [`ChurnPlan::ideal`] plan therefore consumes
/// zero rolls and leaves runs bit-identical to builds without churn, and
/// worker count can never perturb membership.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnPlan {
    seed: u64,
    joins: BTreeMap<usize, usize>,
    absences: Vec<(usize, Window)>,
    departures: Vec<(usize, usize)>,
    random_rate: f64,
    random_from: usize,
}

impl ChurnPlan {
    /// A fixed fleet — every configured camera is a member of every
    /// round, exactly the pre-churn behavior.
    pub fn ideal() -> ChurnPlan {
        ChurnPlan::default()
    }

    /// An empty plan carrying the RNG `seed` for random absences; add
    /// schedules with the `with_*` builders.
    pub fn seeded(seed: u64) -> ChurnPlan {
        ChurnPlan {
            seed,
            ..ChurnPlan::default()
        }
    }

    /// The seed random absences are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Keeps `camera` out of the fleet until `round` (a late join at
    /// `round`). Joining at round 0 schedules nothing.
    pub fn with_join(mut self, camera: usize, round: usize) -> ChurnPlan {
        if round > 0 {
            let slot = self.joins.entry(camera).or_insert(round);
            *slot = (*slot).max(round);
        }
        self
    }

    /// Removes `camera` from the fleet over rounds `[start, end)`; it
    /// rejoins at `end`.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end`.
    pub fn with_leave(mut self, camera: usize, start: usize, end: usize) -> ChurnPlan {
        self.absences.push((camera, Window::new(start, end)));
        self
    }

    /// Removes `camera` from the fleet at `round`, permanently.
    pub fn with_depart(mut self, camera: usize, round: usize) -> ChurnPlan {
        self.departures.push((camera, round));
        self
    }

    /// Makes each `(camera, round)` with `round >= from` absent with
    /// probability `rate`, decided purely from the seed. Starting the
    /// randomness at `from > 0` keeps the initial fleet deterministic.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1` (at rate 1 the fleet would be
    /// permanently empty).
    pub fn with_random_absence(mut self, rate: f64, from: usize) -> ChurnPlan {
        assert!(
            (0.0..1.0).contains(&rate),
            "absence rate must be in [0, 1), got {rate}"
        );
        self.random_rate = rate;
        self.random_from = from;
        self
    }

    /// Whether `camera` is a fleet member at `round` — a pure function
    /// of the plan, so replays and parallel schedules always agree.
    pub fn is_member(&self, camera: usize, round: usize) -> bool {
        if self.joins.get(&camera).is_some_and(|&r| round < r) {
            return false;
        }
        if self
            .absences
            .iter()
            .any(|(c, w)| *c == camera && w.contains(round))
        {
            return false;
        }
        if self
            .departures
            .iter()
            .any(|(c, r)| *c == camera && round >= *r)
        {
            return false;
        }
        if self.random_rate > 0.0 && round >= self.random_from {
            // Keyed directly on (camera, round): no event counter, so
            // the draw cannot drift with evaluation order.
            let z = mix64(
                self.seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((camera as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                    .wrapping_add((round as u64).wrapping_mul(0x94D0_49BB_1331_11EB)),
            );
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            if unit < self.random_rate {
                return false;
            }
        }
        true
    }

    /// Whether the plan schedules any membership change at all. An
    /// ideal plan lets the runtime skip the churn bookkeeping entirely.
    pub fn enabled(&self) -> bool {
        !self.joins.is_empty()
            || !self.absences.is_empty()
            || !self.departures.is_empty()
            || self.random_rate > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_plan_is_disabled() {
        assert!(!FaultPlan::ideal().enabled());
        assert!(LinkFaults::ideal().is_ideal());
    }

    #[test]
    fn builders_enable_the_plan() {
        assert!(FaultPlan::seeded(1)
            .with_default_faults(LinkFaults::lossy(0.1))
            .enabled());
        assert!(FaultPlan::seeded(1)
            .with_link_faults(2, LinkFaults::lossy(0.5))
            .enabled());
        assert!(FaultPlan::seeded(1).with_outage(0, 0, 1).enabled());
        assert!(FaultPlan::seeded(1).with_crash(0, 3, 9).enabled());
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::seeded(7)
            .with_outage(2, 3, 5)
            .with_crash(1, 0, 2);
        assert!(!plan.is_outage(2, 2));
        assert!(plan.is_outage(2, 3) && plan.is_outage(2, 4));
        assert!(!plan.is_outage(2, 5));
        assert!(!plan.is_outage(0, 4), "outage is per-camera");
        assert!(plan.is_crashed(1, 0) && !plan.is_crashed(1, 2));
    }

    #[test]
    fn per_link_faults_override_default() {
        let plan = FaultPlan::seeded(9)
            .with_default_faults(LinkFaults::lossy(0.2))
            .with_link_faults(1, LinkFaults::ideal());
        assert_eq!(plan.faults(0).loss, 0.2);
        assert!(plan.faults(1).is_ideal());
    }

    #[test]
    fn rolls_are_deterministic_and_distinct() {
        let plan = FaultPlan::seeded(1234);
        let a = plan.unit_roll(0, TAG_DATA, 0);
        assert_eq!(a, plan.unit_roll(0, TAG_DATA, 0), "same inputs, same roll");
        assert_ne!(a, plan.unit_roll(0, TAG_DATA, 1));
        assert_ne!(a, plan.unit_roll(1, TAG_DATA, 0));
        assert_ne!(a, plan.unit_roll(0, TAG_ACK, 0));
        assert_ne!(a, FaultPlan::seeded(1235).unit_roll(0, TAG_DATA, 0));
    }

    #[test]
    fn rolls_are_roughly_uniform() {
        let plan = FaultPlan::seeded(42);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| plan.unit_roll(0, TAG_JITTER, i))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((0..n).all(|i| {
            let r = plan.unit_roll(3, TAG_DUP, i);
            (0.0..1.0).contains(&r)
        }));
    }

    #[test]
    fn controller_plan_none_is_disabled() {
        let plan = ControllerFaultPlan::none();
        assert!(!plan.enabled());
        assert!(!plan.crash_starts(0) && !plan.is_down(0));
    }

    #[test]
    fn controller_crashes_fire_at_window_starts() {
        let plan = ControllerFaultPlan::none()
            .with_crash(2, 5)
            .with_crash(9, 10);
        assert!(plan.enabled());
        assert!(plan.crash_starts(2) && plan.crash_starts(9));
        assert!(!plan.crash_starts(3), "only the window start kills");
        assert!(plan.is_down(4) && !plan.is_down(5), "half-open window");
    }

    #[test]
    fn partition_plan_none_is_disabled() {
        let plan = PartitionPlan::none();
        assert!(!plan.enabled());
        assert!(!plan.is_partitioned(0));
        assert!(plan.can_reach(Endpoint::Camera(0), Endpoint::Hub, 3));
        assert!(!FaultPlan::ideal().partition().enabled());
        assert!(FaultPlan::seeded(1)
            .with_partition(PartitionPlan::none().with_split(
                vec![vec![Endpoint::Hub], vec![Endpoint::Camera(0)]],
                0,
                1,
            ))
            .enabled());
    }

    #[test]
    fn split_windows_are_half_open_and_symmetric() {
        let plan = PartitionPlan::none().with_split(
            vec![
                vec![Endpoint::Hub, Endpoint::Camera(0)],
                vec![Endpoint::Camera(1), Endpoint::Camera(2)],
            ],
            2,
            4,
        );
        let (hub, c0, c1, c2) = (
            Endpoint::Hub,
            Endpoint::Camera(0),
            Endpoint::Camera(1),
            Endpoint::Camera(2),
        );
        // Outside the window everything flows.
        assert!(plan.can_reach(c1, hub, 1) && plan.can_reach(c1, hub, 4));
        assert!(!plan.is_partitioned(1) && plan.is_partitioned(3));
        // Inside: same island ok, cross-island dead in both directions.
        assert!(plan.can_reach(c0, hub, 2) && plan.can_reach(c1, c2, 3));
        assert!(!plan.can_reach(c1, hub, 2) && !plan.can_reach(hub, c1, 2));
        // Self-delivery is never cut.
        assert!(plan.can_reach(c1, c1, 3));
    }

    #[test]
    fn unlisted_endpoints_are_isolated_singletons() {
        let plan =
            PartitionPlan::none().with_split(vec![vec![Endpoint::Hub, Endpoint::Camera(0)]], 0, 2);
        let c3 = Endpoint::Camera(3);
        assert!(!plan.can_reach(c3, Endpoint::Hub, 0));
        assert!(!plan.can_reach(Endpoint::Hub, c3, 1));
        assert!(!plan.can_reach(c3, Endpoint::Camera(4), 1));
        assert!(plan.can_reach(c3, c3, 1));
        assert!(plan.can_reach(c3, Endpoint::Hub, 2), "window over");
    }

    #[test]
    fn one_way_cuts_are_asymmetric() {
        let plan = PartitionPlan::none().with_one_way(Endpoint::Camera(1), Endpoint::Hub, 5, 7);
        assert!(plan.enabled() && plan.is_partitioned(5));
        assert!(!plan.can_reach(Endpoint::Camera(1), Endpoint::Hub, 5));
        assert!(plan.can_reach(Endpoint::Hub, Endpoint::Camera(1), 5));
        assert!(plan.can_reach(Endpoint::Camera(1), Endpoint::Hub, 7));
    }

    #[test]
    fn flapping_alternates_on_and_off() {
        let islands = vec![vec![Endpoint::Hub], vec![Endpoint::Camera(0)]];
        let plan = PartitionPlan::none().with_flapping(islands, 1, 6, 1);
        // On for [1,2), off [2,3), on [3,4), off [4,5), on [5,6).
        for round in 0..8 {
            let cut = matches!(round, 1 | 3 | 5);
            assert_eq!(
                plan.can_reach(Endpoint::Camera(0), Endpoint::Hub, round),
                !cut,
                "round {round}"
            );
        }
        // A period longer than the window still clamps to the window.
        let wide = PartitionPlan::none().with_flapping(
            vec![vec![Endpoint::Hub], vec![Endpoint::Camera(0)]],
            2,
            4,
            10,
        );
        assert!(wide.is_partitioned(3) && !wide.is_partitioned(4));
    }

    #[test]
    #[should_panic(expected = "two islands")]
    fn overlapping_islands_rejected() {
        PartitionPlan::none().with_split(
            vec![
                vec![Endpoint::Hub, Endpoint::Camera(0)],
                vec![Endpoint::Camera(0)],
            ],
            0,
            1,
        );
    }

    #[test]
    fn corruption_plan_none_is_disabled() {
        let plan = CorruptionPlan::none();
        assert!(!plan.enabled());
        assert_eq!(plan.rate(), 0.0);
        assert!(!FaultPlan::ideal().corruption().enabled());
        assert!(FaultPlan::seeded(1)
            .with_corruption(CorruptionPlan::with_rate(0.2))
            .enabled());
    }

    #[test]
    fn flip_masks_are_pure_and_distinct() {
        let plan = CorruptionPlan::with_rate(0.5).with_flips(3);
        let mask = plan.flip_mask(42, 1, Endpoint::Hub, 3, 2, 88);
        assert_eq!(
            mask,
            plan.flip_mask(42, 1, Endpoint::Hub, 3, 2, 88),
            "same inputs, same mask"
        );
        assert_eq!(mask.len(), 3);
        let mut dedup = mask.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "positions must be distinct: {mask:?}");
        assert!(mask.iter().all(|&b| b < 88));
        // Every keyed input perturbs the mask.
        assert_ne!(mask, plan.flip_mask(43, 1, Endpoint::Hub, 3, 2, 88));
        assert_ne!(mask, plan.flip_mask(42, 2, Endpoint::Hub, 3, 2, 88));
        assert_ne!(mask, plan.flip_mask(42, 1, Endpoint::Camera(0), 3, 2, 88));
        assert_ne!(mask, plan.flip_mask(42, 1, Endpoint::Hub, 4, 2, 88));
        assert_ne!(mask, plan.flip_mask(42, 1, Endpoint::Hub, 3, 3, 88));
    }

    #[test]
    fn flip_mask_clamps_to_tiny_frames() {
        let plan = CorruptionPlan::with_rate(0.5).with_flips(3);
        let mask = plan.flip_mask(7, 0, Endpoint::Hub, 0, 1, 2);
        assert_eq!(mask.len(), 2, "cannot flip 3 distinct bits of 2");
    }

    #[test]
    #[should_panic(expected = "corruption rate")]
    fn certain_corruption_rejected() {
        CorruptionPlan::with_rate(1.0);
    }

    #[test]
    #[should_panic(expected = "flips must be in 1..=3")]
    fn excessive_flips_rejected() {
        CorruptionPlan::with_rate(0.1).with_flips(4);
    }

    #[test]
    fn churn_plan_ideal_is_disabled_and_all_member() {
        let plan = ChurnPlan::ideal();
        assert!(!plan.enabled());
        assert!(
            !ChurnPlan::seeded(7).enabled(),
            "a bare seed changes nothing"
        );
        for camera in 0..4 {
            for round in 0..20 {
                assert!(plan.is_member(camera, round));
            }
        }
    }

    #[test]
    fn churn_windows_are_half_open_and_per_camera() {
        let plan = ChurnPlan::seeded(3).with_leave(1, 2, 5);
        assert!(plan.enabled());
        assert!(plan.is_member(1, 1));
        assert!(!plan.is_member(1, 2) && !plan.is_member(1, 4));
        assert!(plan.is_member(1, 5), "rejoins at the window end");
        assert!(plan.is_member(0, 3), "absence is per-camera");
    }

    #[test]
    fn late_joins_and_departures() {
        let plan = ChurnPlan::seeded(0).with_join(2, 3).with_depart(0, 6);
        assert!(!plan.is_member(2, 0) && !plan.is_member(2, 2));
        assert!(plan.is_member(2, 3) && plan.is_member(2, 100));
        assert!(plan.is_member(0, 5));
        assert!(!plan.is_member(0, 6) && !plan.is_member(0, 1000));
        // Joining at round 0 is a no-op, not an event.
        assert!(!ChurnPlan::seeded(0).with_join(1, 0).enabled());
    }

    #[test]
    fn leave_rejoin_round_trips_membership() {
        // After every scheduled window has closed, membership equals the
        // starting set — joins, leaves and rejoins cancel out.
        let plan = ChurnPlan::seeded(11)
            .with_join(3, 2)
            .with_leave(0, 1, 4)
            .with_leave(2, 3, 5);
        let before: Vec<bool> = (0..4).map(|j| ChurnPlan::ideal().is_member(j, 0)).collect();
        let after: Vec<bool> = (0..4).map(|j| plan.is_member(j, 10)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn random_absence_is_pure_and_seed_keyed() {
        let plan = ChurnPlan::seeded(42).with_random_absence(0.5, 1);
        assert!(plan.enabled());
        for camera in 0..4 {
            assert!(plan.is_member(camera, 0), "randomness starts at `from`");
            for round in 0..32 {
                assert_eq!(
                    plan.is_member(camera, round),
                    plan.is_member(camera, round),
                    "pure function of (camera, round)"
                );
            }
        }
        // At rate 0.5 over 4×32 draws both outcomes must occur, and a
        // different seed must disagree somewhere.
        let draws: Vec<bool> = (0..4)
            .flat_map(|c| (1..33).map(move |r| (c, r)))
            .map(|(c, r)| plan.is_member(c, r))
            .collect();
        assert!(draws.iter().any(|&m| m) && draws.iter().any(|&m| !m));
        let other = ChurnPlan::seeded(43).with_random_absence(0.5, 1);
        assert!((0..4)
            .flat_map(|c| (1..33).map(move |r| (c, r)))
            .any(|(c, r)| plan.is_member(c, r) != other.is_member(c, r)));
    }

    #[test]
    #[should_panic(expected = "absence rate")]
    fn certain_absence_rejected() {
        let _ = ChurnPlan::seeded(1).with_random_absence(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "empty fault window")]
    fn empty_churn_window_rejected() {
        let _ = ChurnPlan::seeded(1).with_leave(0, 4, 4);
    }

    #[test]
    #[should_panic(expected = "fault probability")]
    fn certain_loss_rejected() {
        LinkFaults::lossy(1.0);
    }

    #[test]
    #[should_panic(expected = "empty fault window")]
    fn empty_window_rejected() {
        Window::new(4, 4);
    }
}
