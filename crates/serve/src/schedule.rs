//! The admission controller and virtual-clock scheduler.
//!
//! [`plan_schedule`] is a *pure function* of `(config, request list)`:
//! it runs a discrete-event simulation on a seeded virtual clock —
//! request arrivals, slot dispatches, completions — and returns the
//! complete service trace before a single mission executes. Execution
//! then only fills in the reports; nothing about admission, ordering,
//! rejection or deadline accounting depends on wall time or worker
//! count, which is what makes a whole service run replay bit-identically.
//!
//! The clock bills each mission its *declared* cost
//! ([`MissionRequest::cost_ticks`]), not its wall time, for the same
//! reason the energy model bills modeled Joules instead of measured
//! ones: determinism first, fidelity second.

use crate::request::{MissionRequest, Priority, Rejected};
use eecs_net::fault::mix64;
use std::collections::BTreeMap;

/// Static service parameters. The seed drives arrival spacing — the
/// only randomized part of the virtual clock — so one `(seed, request
/// list)` pair fixes the entire trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Seed of the virtual clock's arrival-gap stream.
    pub seed: u64,
    /// Concurrent execution slots (minimum 1).
    pub slots: usize,
    /// Wait-queue capacity; an arrival past this is rejected.
    pub queue_capacity: usize,
    /// Per-tenant cap on in-flight (running + queued) missions.
    pub tenant_inflight_cap: usize,
    /// Worker threads for report execution (`0` = auto). Affects wall
    /// time only, never the trace.
    pub workers: usize,
}

impl ServiceConfig {
    /// A small default service: 2 slots, a 4-deep queue, 4 in-flight
    /// missions per tenant, serial execution.
    pub fn new(seed: u64) -> ServiceConfig {
        ServiceConfig {
            seed,
            slots: 2,
            queue_capacity: 4,
            tenant_inflight_cap: 4,
            workers: 1,
        }
    }

    /// This config with a different slot count.
    pub fn with_slots(mut self, slots: usize) -> ServiceConfig {
        self.slots = slots;
        self
    }

    /// This config with a different queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity;
        self
    }

    /// This config with a different per-tenant in-flight cap.
    pub fn with_tenant_cap(mut self, cap: usize) -> ServiceConfig {
        self.tenant_inflight_cap = cap;
        self
    }

    /// This config with a different execution worker count.
    pub fn with_workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers;
        self
    }
}

/// One moment of the service trace, in virtual-clock order.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// A mission was admitted and occupied a slot.
    Started {
        /// Virtual tick the slot was taken at.
        tick: u64,
        /// Mission index in the batch.
        mission: usize,
    },
    /// A running mission completed and freed its slot.
    Finished {
        /// Virtual tick the slot was freed at.
        tick: u64,
        /// Mission index in the batch.
        mission: usize,
        /// Whether it finished within its declared deadline.
        deadline_met: bool,
    },
    /// A mission was refused at admission.
    Rejected {
        /// Virtual tick the request arrived at.
        tick: u64,
        /// Mission index in the batch.
        mission: usize,
    },
}

/// A mission's fate in the planned schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum MissionVerdict {
    /// Admitted, with its slot occupancy on the virtual clock.
    Admitted {
        /// Tick the mission took a slot.
        start_tick: u64,
        /// Tick the mission freed the slot.
        finish_tick: u64,
        /// Whether `finish - arrival` met the declared deadline.
        deadline_met: bool,
    },
    /// Refused at admission.
    Rejected(Rejected),
}

impl MissionVerdict {
    /// The wire verdict code: 0 accepted, else the rejection's code.
    pub fn verdict_code(&self) -> u64 {
        match self {
            MissionVerdict::Admitted { .. } => 0,
            MissionVerdict::Rejected(r) => r.verdict_code(),
        }
    }
}

/// One mission's planned outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionOutcome {
    /// Mission index in the batch.
    pub mission: usize,
    /// The submitting tenant.
    pub tenant: String,
    /// Virtual tick the request arrived at.
    pub arrival_tick: u64,
    /// Admitted or rejected, with the details.
    pub verdict: MissionVerdict,
}

/// The complete planned service trace for one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-mission outcomes, indexed by batch position.
    pub outcomes: Vec<MissionOutcome>,
    /// Every start/finish/rejection in virtual-clock order.
    pub events: Vec<ServiceEvent>,
    /// The deepest the wait queue ever got.
    pub max_queue_depth: usize,
}

impl Schedule {
    /// Batch indices of admitted missions, in batch order.
    pub fn admitted(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.verdict, MissionVerdict::Admitted { .. }))
            .map(|o| o.mission)
            .collect()
    }

    /// Batch indices and reasons of rejected missions, in batch order.
    pub fn rejections(&self) -> Vec<(usize, &Rejected)> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.verdict {
                MissionVerdict::Rejected(r) => Some((o.mission, r)),
                MissionVerdict::Admitted { .. } => None,
            })
            .collect()
    }
}

/// SplitMix64 finalizer keyed by `(seed, tag, i)` — the same
/// no-shared-stream discipline every seeded plan in the workspace uses,
/// so arrival spacing can never be perturbed by drawing order.
fn mix(seed: u64, tag: u64, i: u64) -> u64 {
    let z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

const GAP_TAG: u64 = 0x5E21;

/// The virtual tick request `i` arrives at: cumulative seeded gaps of
/// 1–3 ticks, so arrivals are strictly ordered by batch index.
pub fn arrival_tick(seed: u64, i: usize) -> u64 {
    (0..=i).map(|k| 1 + mix(seed, GAP_TAG, k as u64) % 3).sum()
}

struct Running {
    finish: u64,
    seq: u64,
    mission: usize,
}

struct Queued {
    priority: Priority,
    seq: u64,
    mission: usize,
}

/// The discrete-event state of the virtual clock.
struct Clock<'a> {
    requests: &'a [MissionRequest],
    arrivals: &'a [u64],
    slots: usize,
    running: Vec<Running>,
    queue: Vec<Queued>,
    inflight: BTreeMap<String, usize>,
    events: Vec<ServiceEvent>,
    spans: Vec<Option<(u64, u64)>>,
    max_queue_depth: usize,
}

impl Clock<'_> {
    fn deadline_met(&self, mission: usize, finish: u64) -> bool {
        match self.requests[mission].deadline_ticks {
            Some(d) => finish - self.arrivals[mission] <= d,
            None => true,
        }
    }

    fn start(&mut self, mission: usize, tick: u64, seq: u64) {
        let finish = tick + self.requests[mission].cost_ticks();
        self.spans[mission] = Some((tick, finish));
        self.events.push(ServiceEvent::Started { tick, mission });
        self.running.push(Running {
            finish,
            seq,
            mission,
        });
    }

    /// Processes every completion due at or before `now`, dispatching
    /// from the queue as slots free. Completions at an arrival's own
    /// tick land *before* the arrival — a freed slot is visible to the
    /// request arriving that same tick.
    fn advance_to(&mut self, now: u64) {
        while let Some(idx) = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.finish <= now)
            .min_by_key(|(_, r)| (r.finish, r.seq))
            .map(|(i, _)| i)
        {
            let done = self.running.swap_remove(idx);
            let deadline_met = self.deadline_met(done.mission, done.finish);
            self.events.push(ServiceEvent::Finished {
                tick: done.finish,
                mission: done.mission,
                deadline_met,
            });
            let tenant = &self.requests[done.mission].tenant;
            *self.inflight.entry(tenant.clone()).or_insert(1) -= 1;
            // Work-conserving dispatch: the freed slot immediately takes
            // the highest-priority (then oldest) queued mission.
            let Some(best) = self
                .queue
                .iter()
                .enumerate()
                .max_by_key(|(_, q)| (q.priority, std::cmp::Reverse(q.seq)))
                .map(|(i, _)| i)
            else {
                continue;
            };
            let next = self.queue.remove(best);
            self.start(next.mission, done.finish, next.seq);
        }
    }
}

/// Plans the complete service trace for `requests` under `config`.
///
/// Admission per arriving request, in order: spec validation
/// ([`Rejected::InvalidConfig`]), then deadline feasibility against the
/// declared cost ([`Rejected::DeadlineInfeasible`]), then the tenant
/// in-flight cap and queue capacity ([`Rejected::QueueFull`]). A free
/// slot starts the mission at its arrival tick; otherwise it waits in
/// the bounded queue and dispatches by (priority, arrival order) as
/// slots free — so a higher-priority request of the same tenant can
/// never be overtaken by a lower-priority one that was waiting with it.
pub fn plan_schedule(config: &ServiceConfig, requests: &[MissionRequest]) -> Schedule {
    let slots = config.slots.max(1);
    let tenant_cap = config.tenant_inflight_cap.max(1);
    let arrivals: Vec<u64> = (0..requests.len())
        .map(|i| arrival_tick(config.seed, i))
        .collect();
    let mut clock = Clock {
        requests,
        arrivals: &arrivals,
        slots,
        running: Vec::new(),
        queue: Vec::new(),
        inflight: BTreeMap::new(),
        events: Vec::new(),
        spans: vec![None; requests.len()],
        max_queue_depth: 0,
    };
    let mut rejections: Vec<Option<Rejected>> = vec![None; requests.len()];

    for (i, req) in requests.iter().enumerate() {
        let now = arrivals[i];
        clock.advance_to(now);
        let seq = i as u64;
        let verdict = if let Err(reason) = req.spec.validate() {
            Some(Rejected::InvalidConfig { reason })
        } else if req.deadline_ticks.is_some_and(|d| d < req.cost_ticks()) {
            Some(Rejected::DeadlineInfeasible {
                deadline: req.deadline_ticks.unwrap_or(0),
                needed: req.cost_ticks(),
            })
        } else if clock.inflight.get(&req.tenant).copied().unwrap_or(0) >= tenant_cap {
            Some(Rejected::QueueFull {
                depth: clock.queue.len(),
            })
        } else if clock.running.len() < clock.slots {
            *clock.inflight.entry(req.tenant.clone()).or_insert(0) += 1;
            clock.start(i, now, seq);
            None
        } else if clock.queue.len() < config.queue_capacity {
            *clock.inflight.entry(req.tenant.clone()).or_insert(0) += 1;
            clock.queue.push(Queued {
                priority: req.priority,
                seq,
                mission: i,
            });
            clock.max_queue_depth = clock.max_queue_depth.max(clock.queue.len());
            None
        } else {
            Some(Rejected::QueueFull {
                depth: clock.queue.len(),
            })
        };
        if let Some(rejected) = verdict {
            clock.events.push(ServiceEvent::Rejected {
                tick: now,
                mission: i,
            });
            rejections[i] = Some(rejected);
        }
    }
    clock.advance_to(u64::MAX);

    let outcomes = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let verdict = match rejections[i].take() {
                Some(r) => MissionVerdict::Rejected(r),
                None => {
                    let (start_tick, finish_tick) =
                        clock.spans[i].expect("admitted missions always run to completion");
                    MissionVerdict::Admitted {
                        start_tick,
                        finish_tick,
                        deadline_met: clock.deadline_met(i, finish_tick),
                    }
                }
            };
            MissionOutcome {
                mission: i,
                tenant: req.tenant.clone(),
                arrival_tick: arrivals[i],
                verdict,
            }
        })
        .collect();

    Schedule {
        outcomes,
        events: clock.events,
        max_queue_depth: clock.max_queue_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MissionSpec;

    fn batch(n: usize) -> Vec<MissionRequest> {
        (0..n).map(|_| MissionRequest::new("t")).collect()
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        for seed in [0, 1, 99] {
            for i in 1..20 {
                assert!(arrival_tick(seed, i) > arrival_tick(seed, i - 1));
            }
        }
    }

    #[test]
    fn everything_admits_when_capacity_is_ample() {
        let config = ServiceConfig::new(1).with_slots(4).with_queue_capacity(8);
        let s = plan_schedule(&config, &batch(6));
        assert_eq!(s.admitted().len(), 6);
        assert!(s.rejections().is_empty());
    }

    #[test]
    fn queue_overflow_rejects_with_depth() {
        // One slot, zero queue: the second concurrent arrival bounces.
        let config = ServiceConfig::new(1)
            .with_slots(1)
            .with_queue_capacity(0)
            .with_tenant_cap(10);
        let requests: Vec<MissionRequest> = (0..4)
            .map(|_| MissionRequest::new("t").with_work(50))
            .collect();
        let s = plan_schedule(&config, &requests);
        assert!(!s.rejections().is_empty());
        for (_, r) in s.rejections() {
            assert!(matches!(r, Rejected::QueueFull { .. }));
        }
    }

    #[test]
    fn infeasible_deadlines_reject_before_capacity() {
        let config = ServiceConfig::new(1);
        let requests = vec![MissionRequest::new("t").with_work(10).with_deadline(3)];
        let s = plan_schedule(&config, &requests);
        assert_eq!(
            s.rejections()[0].1,
            &Rejected::DeadlineInfeasible {
                deadline: 3,
                needed: 10
            }
        );
    }

    #[test]
    fn invalid_specs_reject_without_consuming_capacity() {
        let config = ServiceConfig::new(1).with_slots(1).with_queue_capacity(0);
        let bad = MissionRequest::new("t").with_spec(MissionSpec {
            budget_j_per_frame: Some(-1.0),
            ..MissionSpec::default()
        });
        let requests = vec![bad, MissionRequest::new("t")];
        let s = plan_schedule(&config, &requests);
        assert!(matches!(
            s.outcomes[0].verdict,
            MissionVerdict::Rejected(Rejected::InvalidConfig { .. })
        ));
        // The invalid request held nothing: the next one still admits.
        assert_eq!(s.admitted(), vec![1]);
    }

    #[test]
    fn tenant_cap_binds_per_tenant_not_globally() {
        let config = ServiceConfig::new(1)
            .with_slots(1)
            .with_queue_capacity(8)
            .with_tenant_cap(1);
        let requests = vec![
            MissionRequest::new("a").with_work(100),
            MissionRequest::new("a").with_work(100),
            MissionRequest::new("b").with_work(100),
        ];
        let s = plan_schedule(&config, &requests);
        assert!(matches!(
            s.outcomes[1].verdict,
            MissionVerdict::Rejected(Rejected::QueueFull { .. })
        ));
        assert!(matches!(
            s.outcomes[2].verdict,
            MissionVerdict::Admitted { .. }
        ));
    }

    #[test]
    fn priority_dispatches_before_arrival_order() {
        // One busy slot; a low- then a high-priority request queue up.
        // The freed slot must take the high one first.
        let config = ServiceConfig::new(1).with_slots(1).with_queue_capacity(4);
        let requests = vec![
            MissionRequest::new("t").with_work(20),
            MissionRequest::new("t")
                .with_priority(Priority::Low)
                .with_work(5),
            MissionRequest::new("t")
                .with_priority(Priority::High)
                .with_work(5),
        ];
        let s = plan_schedule(&config, &requests);
        let start = |m: usize| match s.outcomes[m].verdict {
            MissionVerdict::Admitted { start_tick, .. } => start_tick,
            _ => panic!("mission {m} rejected"),
        };
        assert!(start(2) < start(1), "high priority must dispatch first");
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_requests() {
        let config = ServiceConfig::new(42).with_slots(2).with_queue_capacity(2);
        let requests: Vec<MissionRequest> = (0..10)
            .map(|i| {
                MissionRequest::new(if i % 2 == 0 { "a" } else { "b" })
                    .with_work(1 + (i as u64 % 4))
                    .with_priority(if i % 3 == 0 {
                        Priority::High
                    } else {
                        Priority::Normal
                    })
            })
            .collect();
        assert_eq!(
            plan_schedule(&config, &requests),
            plan_schedule(&config, &requests)
        );
        let reseeded = ServiceConfig::new(43).with_slots(2).with_queue_capacity(2);
        assert_ne!(
            plan_schedule(&config, &requests).outcomes,
            plan_schedule(&reseeded, &requests).outcomes,
        );
    }

    #[test]
    fn finished_events_count_matches_admissions() {
        let config = ServiceConfig::new(7).with_slots(2).with_queue_capacity(1);
        let requests: Vec<MissionRequest> = (0..8)
            .map(|i| MissionRequest::new("t").with_work(1 + i as u64 % 3))
            .collect();
        let s = plan_schedule(&config, &requests);
        let finished = s
            .events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::Finished { .. }))
            .count();
        let rejected = s
            .events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::Rejected { .. }))
            .count();
        assert_eq!(finished, s.admitted().len());
        assert_eq!(finished + rejected, requests.len());
    }
}
