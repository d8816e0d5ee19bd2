//! Event-driven online mode: streaming arrivals, deadlines, and charger
//! tanks.
//!
//! The paper's CCS problem is one-shot — every device needs charging at
//! time zero. This module serves the *online* variant: requests arrive
//! over virtual time (a seeded [`ccs_wrsn::arrival`] stream), each with
//! an absolute deadline, and the charger fleet holds finite on-board
//! energy ([`MobileCharger`]) drained by travel and delivery, refilled
//! only at the depot.
//!
//! # The event loop
//!
//! [`OnlineSim`] advances a virtual clock through a deterministic event
//! queue — arrivals, deadline expiries, charger releases — and re-plans
//! on every event that could change the best dispatch:
//!
//! 1. **Residual extraction.** Pending requests are densely renumbered
//!    into a residual [`CcsProblem`] via exactly the recovery engine's
//!    machinery ([`crate::recover::residual_problem`]'s origin-map
//!    scheme), except that only *idle* chargers are offered — each at
//!    its live position, renumbered with its own origin map.
//! 2. **Incremental re-pricing.** The residual is solved by the chosen
//!    [`OnlinePolicy`]: online-CCSGA runs the hedonic engine, whose
//!    activity-driven worklist probes only players whose neighbourhood
//!    changed, and whose coalition cache prices each new composition
//!    through the anchored facility scan
//!    ([`try_best_facility_anchored`](crate::cost::try_best_facility_anchored));
//!    the naive FCFS baseline dispatches each request alone to the
//!    nearest idle charger.
//! 3. **Commitment.** Each planned group is admitted only if the tour
//!    completes before every member's deadline and the charger's tank
//!    covers the tour plus the ride home (refilling first at the depot
//!    when it doesn't but a full tank would). Admitted commitments are
//!    **immutable**: later re-plans never revisit them.
//!
//! A request that is never admitted is counted as a deadline miss when
//! its expiry event fires, so `served + missed == arrivals` always
//! holds at the end of a run.
//!
//! Everything is deterministic: the event queue is totally ordered by
//! `(time, sequence)`, the solvers are bit-identical at any `ccs_par`
//! thread count, and each [`StepOutcome`] records the exact residual it
//! solved — the determinism proptest replays it from scratch and
//! demands the identical schedule.
//!
//! # Examples
//!
//! ```
//! use ccs_core::online::{OnlineConfig, OnlineSim};
//! use ccs_core::prelude::*;
//! use ccs_wrsn::arrival::ArrivalGenerator;
//! use ccs_wrsn::scenario::ScenarioGenerator;
//!
//! let scenario = ScenarioGenerator::new(1).devices(10).chargers(3).generate();
//! let stream = ArrivalGenerator::new(1).rate(0.2).horizon(60.0).slack(600.0).generate(10);
//! let report = OnlineSim::new(
//!     CcsProblem::new(scenario),
//!     stream,
//!     &EqualShare,
//!     OnlineConfig::default(),
//! )
//! .run();
//! assert_eq!(
//!     report.metrics.served + report.metrics.missed,
//!     report.metrics.arrivals
//! );
//! ```

use crate::algo::{ccsga, CcsgaOptions};
use crate::cost::evaluate_facility;
use crate::problem::CcsProblem;
use crate::schedule::{GroupPlan, Schedule};
use crate::sharing::CostSharing;
use ccs_wrsn::arrival::ChargeRequest;
use ccs_wrsn::entities::{Charger, ChargerId, DeviceId};
use ccs_wrsn::event::{EventQueue, SimTime};
use ccs_wrsn::geometry::Point;
use ccs_wrsn::mobile::{EnergyModel, MobileCharger};
use ccs_wrsn::units::{Cost, Joules, Meters, Seconds};

/// Dispatch policy of the online loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlinePolicy {
    /// Online-CCSGA: hedonic coalition formation over the residual
    /// problem, re-priced incrementally by the worklist engine.
    Ccsga(CcsgaOptions),
    /// Naive first-come-first-served: every request is dispatched alone
    /// to the nearest idle charger, in arrival order.
    Fcfs,
}

impl OnlinePolicy {
    /// Plans one residual with this policy — the single dispatch point of
    /// the event loop and [`plan_step`].
    pub fn plan(self, residual: &CcsProblem, sharing: &dyn CostSharing) -> Schedule {
        match self {
            OnlinePolicy::Ccsga(options) => ccsga(residual, sharing, options).schedule,
            OnlinePolicy::Fcfs => fcfs_schedule(residual, sharing),
        }
    }
}

/// Configuration of one online run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// The dispatch policy (default: CCSGA with default options).
    pub policy: OnlinePolicy,
    /// Per-charger tank parameters.
    pub energy: EnergyModel,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            policy: OnlinePolicy::Ccsga(CcsgaOptions::default()),
            energy: EnergyModel::default(),
        }
    }
}

/// What one event did to the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Request `index` of the stream arrived.
    Arrival(usize),
    /// Request `index`'s deadline passed (a miss if it was still waiting).
    Expiry(usize),
    /// Charger `index` finished its tour and is idle again.
    ChargerFree(usize),
}

/// One immutable admitted commitment.
#[derive(Debug, Clone, PartialEq)]
pub struct Commitment {
    /// The hired charger (original fleet id).
    pub charger: ChargerId,
    /// Stream indices of the served requests (sorted).
    pub requests: Vec<usize>,
    /// The requesting devices (original ids, aligned with `requests`).
    pub devices: Vec<DeviceId>,
    /// Where the group gathers.
    pub gathering_point: Point,
    /// Virtual time the commitment was admitted.
    pub committed_at: Seconds,
    /// Virtual time charging completes (guaranteed before every member's
    /// deadline — that is the admission test).
    pub completes_at: Seconds,
    /// Energy delivered to the group.
    pub delivered: Joules,
    /// The group's bill under the run's cost sharing.
    pub bill: Cost,
    /// Whether the charger detoured to the depot for a refill first.
    pub refill_first: bool,
}

/// The residual a re-plan solved, with both origin maps — enough to
/// replay the solve from scratch and demand the identical answer.
#[derive(Debug)]
pub struct ReplanRecord {
    /// The extracted residual problem (dense ids).
    pub problem: CcsProblem,
    /// Residual device `i` is stream request `requests[i]`.
    pub requests: Vec<usize>,
    /// Residual charger `j` is fleet charger `chargers[j]`.
    pub chargers: Vec<ChargerId>,
    /// The schedule the policy produced for `problem`.
    pub schedule: Schedule,
}

/// Everything one [`OnlineSim::step`] did.
#[derive(Debug)]
pub struct StepOutcome {
    /// Virtual time of the event.
    pub time: Seconds,
    /// The event itself.
    pub kind: EventKind,
    /// The re-plan this event triggered (`None` when nothing was pending
    /// or no charger was idle).
    pub replan: Option<ReplanRecord>,
    /// Commitments admitted from that re-plan.
    pub committed: Vec<Commitment>,
}

/// Aggregated service metrics of a finished run.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OnlineMetrics {
    /// Requests that arrived.
    pub arrivals: usize,
    /// Requests whose charging completed before their deadline.
    pub served: usize,
    /// Requests whose deadline passed unserved.
    pub missed: usize,
    /// `missed / arrivals` (0 for an empty stream).
    pub miss_rate: f64,
    /// Busy charger-seconds over `fleet * makespan`, in `[0, 1]`.
    pub charger_utilization: f64,
    /// Energy delivered to devices.
    pub energy_delivered: Joules,
    /// Tank energy the fleet consumed (travel + delivery + depot rides).
    pub energy_consumed: Joules,
    /// `energy_consumed / served` in joules per request (0 when none).
    pub energy_per_served: f64,
    /// Completed depot refill trips across the fleet.
    pub depot_cycles: usize,
    /// `served / depot_cycles` (`served` itself when no refill happened).
    pub served_per_depot_cycle: f64,
    /// Re-plans that actually ran a solver.
    pub replans: usize,
    /// Virtual time of the last processed event.
    pub makespan: Seconds,
}

/// Final outcome of [`OnlineSim::run`].
#[derive(Debug)]
pub struct OnlineReport {
    /// Aggregated service metrics.
    pub metrics: OnlineMetrics,
    /// Every admitted commitment, in admission order.
    pub commitments: Vec<Commitment>,
}

/// Lifecycle of one stream request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    Waiting,
    Committed,
    Missed,
}

/// The event-driven online simulator (see the module docs).
#[derive(Debug)]
pub struct OnlineSim<'a> {
    problem: CcsProblem,
    requests: Vec<ChargeRequest>,
    sharing: &'a dyn CostSharing,
    config: OnlineConfig,
    state: Vec<ReqState>,
    /// Waiting stream indices, kept sorted (= arrival order).
    pending: Vec<usize>,
    chargers: Vec<MobileCharger>,
    free_at: Vec<f64>,
    busy_s: Vec<f64>,
    /// Earliest first, ties in insertion order; its clock is the virtual
    /// time of the last processed event.
    events: EventQueue<EventKind>,
    served: usize,
    missed: usize,
    replans: usize,
    energy_delivered: Joules,
    energy_consumed: Joules,
    commitments: Vec<Commitment>,
}

impl<'a> OnlineSim<'a> {
    /// Builds the simulator: every request seeds one arrival and one
    /// expiry event; the fleet starts parked at the chargers' scenario
    /// positions (their depots) on full tanks.
    ///
    /// # Panics
    ///
    /// Panics if a request names a device outside the scenario, a request's
    /// arrival or deadline is negative or not finite, or the energy model
    /// is invalid.
    pub fn new(
        problem: CcsProblem,
        requests: Vec<ChargeRequest>,
        sharing: &'a dyn CostSharing,
        config: OnlineConfig,
    ) -> Self {
        let n = problem.num_devices();
        for req in &requests {
            assert!(
                req.device.index() < n,
                "request names device {} outside the {n}-device scenario",
                req.device
            );
        }
        let chargers: Vec<MobileCharger> = problem
            .scenario()
            .chargers()
            .iter()
            .map(|c| MobileCharger::new(c.position(), config.energy))
            .collect();
        let fleet = chargers.len();
        let mut sim = OnlineSim {
            problem,
            sharing,
            config,
            state: vec![ReqState::Waiting; requests.len()],
            pending: Vec::new(),
            chargers,
            free_at: vec![0.0; fleet],
            busy_s: vec![0.0; fleet],
            events: EventQueue::new(),
            served: 0,
            missed: 0,
            replans: 0,
            energy_delivered: Joules::ZERO,
            energy_consumed: Joules::ZERO,
            commitments: Vec::new(),
            requests,
        };
        for i in 0..sim.requests.len() {
            let (arrival, deadline) = (sim.requests[i].arrival, sim.requests[i].deadline);
            let events = &mut sim.events;
            events.schedule(SimTime::new(arrival.value()), EventKind::Arrival(i));
            events.schedule(SimTime::new(deadline.value()), EventKind::Expiry(i));
        }
        sim
    }

    /// The virtual time of the last processed event.
    fn now(&self) -> f64 {
        self.events.now().seconds()
    }

    /// Processes the next event; `None` once the queue is drained.
    pub fn step(&mut self) -> Option<StepOutcome> {
        let (_, kind) = self.events.pop()?;
        let mut replan_needed = false;
        match kind {
            EventKind::Arrival(i) => {
                ccs_telemetry::counter!("online.arrivals").incr();
                debug_assert_eq!(self.state[i], ReqState::Waiting);
                self.pending.push(i);
                replan_needed = true;
            }
            EventKind::Expiry(i) => {
                if self.state[i] == ReqState::Waiting {
                    self.state[i] = ReqState::Missed;
                    self.pending.retain(|&p| p != i);
                    self.missed += 1;
                    ccs_telemetry::counter!("online.missed").incr();
                }
            }
            EventKind::ChargerFree(_) => {
                replan_needed = true;
            }
        }
        let (replan, committed) = if replan_needed {
            self.replan()
        } else {
            (None, Vec::new())
        };
        Some(StepOutcome {
            time: Seconds::new(self.now()),
            kind,
            replan,
            committed,
        })
    }

    /// Drives the loop to completion and aggregates the metrics.
    pub fn run(mut self) -> OnlineReport {
        while self.step().is_some() {}
        let arrivals = self.requests.len();
        debug_assert_eq!(self.served + self.missed, arrivals);
        let fleet = self.chargers.len();
        let makespan = self.now();
        let busy: f64 = self.busy_s.iter().sum();
        let depot_cycles: usize = self.chargers.iter().map(|c| c.depot_cycles()).sum();
        let metrics = OnlineMetrics {
            arrivals,
            served: self.served,
            missed: self.missed,
            miss_rate: if arrivals == 0 {
                0.0
            } else {
                self.missed as f64 / arrivals as f64
            },
            charger_utilization: if fleet == 0 || makespan <= 0.0 {
                0.0
            } else {
                busy / (fleet as f64 * makespan)
            },
            energy_delivered: self.energy_delivered,
            energy_consumed: self.energy_consumed,
            energy_per_served: if self.served == 0 {
                0.0
            } else {
                self.energy_consumed.value() / self.served as f64
            },
            depot_cycles,
            served_per_depot_cycle: self.served as f64 / depot_cycles.max(1) as f64,
            replans: self.replans,
            makespan: Seconds::new(makespan),
        };
        OnlineReport {
            metrics,
            commitments: self.commitments,
        }
    }

    /// Waiting requests that can still make their deadline at all.
    fn plannable(&self) -> Vec<usize> {
        self.pending
            .iter()
            .copied()
            .filter(|&i| self.requests[i].deadline.value() > self.now())
            .collect()
    }

    /// Idle charger indices at the current virtual time.
    fn idle_chargers(&self) -> Vec<usize> {
        (0..self.chargers.len())
            .filter(|&c| self.free_at[c] <= self.now())
            .collect()
    }

    /// Extracts the residual problem over `plannable` requests and
    /// `idle` chargers — the recovery engine's dense renumbering with
    /// origin maps, extended with a charger origin map (each idle
    /// charger is offered at its *live* position).
    fn residual(&self, plannable: &[usize], idle: &[usize]) -> CcsProblem {
        let scenario = self.problem.scenario();
        let ids: Vec<DeviceId> = plannable.iter().map(|&i| self.requests[i].device).collect();
        let positions: Vec<Point> = ids.iter().map(|d| scenario.device(*d).position()).collect();
        let chargers: Vec<Charger> = idle
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let orig = &scenario.chargers()[c];
                let mut builder =
                    Charger::builder(ChargerId::new(j as u32), self.chargers[c].position())
                        .base_fee(orig.base_fee())
                        .travel_cost_rate(orig.travel_cost_rate())
                        .energy_price(orig.energy_price())
                        .occupancy_rate(orig.occupancy_rate())
                        .speed(orig.speed())
                        .wpt(*orig.wpt());
                if let Some(budget) = orig.energy_budget() {
                    builder = builder.energy_budget(budget);
                }
                builder.build()
            })
            .collect();
        crate::recover::residual_over(&self.problem, &ids, &positions, chargers)
    }

    /// Re-plans the residual and admits commitments. Returns the replay
    /// record (when a solve ran) and the admitted commitments.
    fn replan(&mut self) -> (Option<ReplanRecord>, Vec<Commitment>) {
        let plannable = self.plannable();
        let idle = self.idle_chargers();
        if plannable.is_empty() || idle.is_empty() {
            return (None, Vec::new());
        }
        let _span = ccs_telemetry::span!("online.replan");
        self.replans += 1;
        ccs_telemetry::counter!("online.replans").incr();
        let residual = self.residual(&plannable, &idle);
        let schedule = self.config.policy.plan(&residual, self.sharing);
        let committed = self.admit(&residual, &schedule, &plannable, &idle);
        let record = ReplanRecord {
            problem: residual,
            requests: plannable,
            chargers: idle.iter().map(|&c| ChargerId::new(c as u32)).collect(),
            schedule,
        };
        (Some(record), committed)
    }

    /// Admission: walks the residual schedule's groups in order and
    /// commits each one whose tour completes before every member's
    /// deadline and fits the charger's tank (with a depot refill first
    /// when the live tank is short but a full one suffices). Coalitions
    /// the test rejects are then *degraded* — their members retried as
    /// solo dispatches, earliest deadline first, on the chargers the
    /// schedule left idle (the recovery engine's degrade idiom). What
    /// still fails stays pending for later re-plans. Commitments are
    /// immutable.
    fn admit(
        &mut self,
        residual: &CcsProblem,
        schedule: &Schedule,
        plannable: &[usize],
        idle: &[usize],
    ) -> Vec<Commitment> {
        let mut committed = Vec::new();
        // A charger can star in several residual groups only if the
        // solver mis-assigned; first group wins, deterministically.
        let mut used = vec![false; idle.len()];
        for group in schedule.groups() {
            if let Some(c) = self.try_commit(residual, group, plannable, idle, &mut used) {
                committed.push(c);
            }
        }
        // The FCFS baseline stays naive on purpose: no second chance for
        // a dispatch its own rule rejected.
        if matches!(self.config.policy, OnlinePolicy::Ccsga(_)) {
            committed.extend(self.degrade(residual, plannable, idle, &mut used));
        }
        committed
    }

    /// Degradation pass: every request the coalition schedule could not
    /// place is retried alone — earliest deadline first — on the nearest
    /// still-unused idle charger that passes admission.
    fn degrade(
        &mut self,
        residual: &CcsProblem,
        plannable: &[usize],
        idle: &[usize],
        used: &mut [bool],
    ) -> Vec<Commitment> {
        let mut leftovers: Vec<usize> = (0..plannable.len())
            .filter(|&m| self.state[plannable[m]] == ReqState::Waiting)
            .collect();
        leftovers.sort_by(|&a, &b| {
            let (da, db) = (self.requests[plannable[a]], self.requests[plannable[b]]);
            da.deadline
                .value()
                .total_cmp(&db.deadline.value())
                .then(a.cmp(&b))
        });
        let mut committed = Vec::new();
        for m in leftovers {
            if used.iter().all(|&u| u) {
                break;
            }
            let member = DeviceId::new(m as u32);
            let pos = residual.scenario().device(member).position();
            let mut order: Vec<usize> = (0..idle.len()).filter(|&j| !used[j]).collect();
            order.sort_by(|&a, &b| {
                self.chargers[idle[a]]
                    .position()
                    .distance(&pos)
                    .value()
                    .total_cmp(&self.chargers[idle[b]].position().distance(&pos).value())
                    .then(a.cmp(&b))
            });
            for j in order {
                let members = vec![member];
                let choice = evaluate_facility(residual, ChargerId::new(j as u32), &members, pos);
                let solo = GroupPlan::from_facility(residual, members, choice, self.sharing);
                if let Some(c) = self.try_commit(residual, &solo, plannable, idle, used) {
                    ccs_telemetry::counter!("online.degraded").incr();
                    committed.push(c);
                    break;
                }
            }
        }
        committed
    }

    /// Tries to admit one residual group: deadline test, tank test (with
    /// a refill-first fallback), then the immutable commitment. Returns
    /// `None` — leaving every request pending — when any test fails.
    fn try_commit(
        &mut self,
        residual: &CcsProblem,
        group: &GroupPlan,
        plannable: &[usize],
        idle: &[usize],
        used: &mut [bool],
    ) -> Option<Commitment> {
        let local_charger = group.charger.index();
        if used[local_charger] {
            return None;
        }
        let fleet_index = idle[local_charger];
        let stream: Vec<usize> = group.members.iter().map(|m| plannable[m.index()]).collect();
        let devices: Vec<DeviceId> = stream.iter().map(|&i| self.requests[i].device).collect();
        let gp = group.gathering_point;
        let delivered = residual.group_demand(&group.members);
        let scenario = self.problem.scenario();

        // Tour timing: everyone travels to the gathering point, then
        // the whole group charges by wireless transfer at contact.
        let member_travel = devices.iter().fold(0.0f64, |acc, d| {
            let dev = scenario.device(*d);
            acc.max(dev.position().distance(&gp).value() / dev.speed().value())
        });
        let orig_charger = &scenario.chargers()[fleet_index];
        let charge_time = orig_charger
            .wpt()
            .charge_time(delivered, Meters::ZERO)
            .ok()?;

        // Tank check at the live level, then from a full tank via a
        // depot detour; infeasible even full -> the group can never
        // be served by this charger, skip it.
        let mc = &self.chargers[fleet_index];
        let travel = mc.position().distance(&gp);
        let home = gp.distance(&mc.depot());
        let speed = orig_charger.speed().value();
        let (refill_first, charger_leg_s) = if mc.can_cover(travel, delivered, home) {
            (false, travel.value() / speed)
        } else {
            let to_depot = mc.position().distance(&mc.depot());
            let from_depot = mc.depot().distance(&gp);
            if !mc.can_cover_from_full(from_depot, delivered, home) {
                return None;
            }
            (true, (to_depot.value() + from_depot.value()) / speed)
        };

        let start = self.now() + charger_leg_s.max(member_travel);
        let done = start + charge_time.value();
        if stream
            .iter()
            .any(|&i| done > self.requests[i].deadline.value())
        {
            return None;
        }

        // Admit: mutate the charger, retire the requests, schedule
        // the release.
        used[local_charger] = true;
        let mc = &mut self.chargers[fleet_index];
        let mut consumed = Joules::ZERO;
        if refill_first {
            let before = mc.energy();
            let ride = mc.refill();
            consumed += Joules::new((ride.value() * mc.model().ecr_move).min(before.value()));
            ccs_telemetry::counter!("online.refills").incr();
        }
        let travel_used = if refill_first {
            mc.depot().distance(&gp)
        } else {
            travel
        };
        consumed += mc.model().tour_energy(travel_used, delivered);
        mc.commit(gp, travel_used, delivered);
        self.free_at[fleet_index] = done;
        self.busy_s[fleet_index] += done - self.now();
        self.events
            .schedule(SimTime::new(done), EventKind::ChargerFree(fleet_index));
        for &i in &stream {
            self.state[i] = ReqState::Committed;
        }
        self.pending.retain(|p| !stream.contains(p));
        self.served += stream.len();
        self.energy_delivered += delivered;
        self.energy_consumed += consumed;
        ccs_telemetry::counter!("online.served").add(stream.len() as u64);
        ccs_telemetry::counter!("online.commitments").incr();
        let commitment = Commitment {
            charger: ChargerId::new(fleet_index as u32),
            requests: stream,
            devices,
            gathering_point: gp,
            committed_at: Seconds::new(self.now()),
            completes_at: Seconds::new(done),
            delivered,
            bill: group.bill.total(),
            refill_first,
        };
        self.commitments.push(commitment.clone());
        Some(commitment)
    }
}

/// One stateless re-plan over `pending` devices — the daemon's
/// `online_step` ingest path. Every charger is offered idle at its
/// scenario position and every pending request is plannable now; the
/// residual extraction is [`crate::recover::residual_problem`] verbatim,
/// so residual device `i` maps back to `pending[i]`.
///
/// # Panics
///
/// Panics if `pending` is empty or names a device outside the problem.
pub fn plan_step(
    problem: &CcsProblem,
    pending: &[DeviceId],
    sharing: &dyn CostSharing,
    policy: OnlinePolicy,
) -> Schedule {
    assert!(
        !pending.is_empty(),
        "a step needs at least one pending request"
    );
    let positions: Vec<Point> = pending
        .iter()
        .map(|&d| problem.scenario().device(d).position())
        .collect();
    let residual = crate::recover::residual_problem(problem, pending, &positions);
    policy.plan(&residual, sharing)
}

/// The naive baseline: requests in arrival order, each dispatched alone
/// to the nearest still-unassigned charger, gathering at the device's
/// own position (nobody moves but the charger). One request per charger
/// per re-plan; the overflow stays unplanned.
fn fcfs_schedule(residual: &CcsProblem, sharing: &dyn CostSharing) -> Schedule {
    let scenario = residual.scenario();
    let mut taken = vec![false; residual.num_chargers()];
    let mut groups = Vec::new();
    for device in scenario.devices() {
        let pos = device.position();
        let nearest = (0..residual.num_chargers())
            .filter(|&c| !taken[c])
            .min_by(|&a, &b| {
                scenario.chargers()[a]
                    .position()
                    .distance(&pos)
                    .value()
                    .total_cmp(&scenario.chargers()[b].position().distance(&pos).value())
                    .then(a.cmp(&b))
            });
        let Some(c) = nearest else { break };
        taken[c] = true;
        let members = vec![device.id()];
        let choice = evaluate_facility(residual, ChargerId::new(c as u32), &members, pos);
        groups.push(GroupPlan::from_facility(residual, members, choice, sharing));
    }
    Schedule::new(groups, "fcfs", sharing.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharing::EqualShare;
    use ccs_wrsn::arrival::ArrivalGenerator;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn problem(seed: u64, devices: usize, chargers: usize) -> CcsProblem {
        CcsProblem::new(
            ScenarioGenerator::new(seed)
                .devices(devices)
                .chargers(chargers)
                .generate(),
        )
    }

    fn easy_stream(seed: u64, n: usize) -> Vec<ChargeRequest> {
        ArrivalGenerator::new(seed)
            .rate(0.05)
            .horizon(200.0)
            .slack(100_000.0)
            .generate(n)
    }

    #[test]
    fn every_request_is_accounted_served_or_missed() {
        let report = OnlineSim::new(
            problem(2, 12, 3),
            easy_stream(2, 12),
            &EqualShare,
            OnlineConfig::default(),
        )
        .run();
        let m = &report.metrics;
        assert!(m.arrivals > 0, "stream must not be empty");
        assert_eq!(m.served + m.missed, m.arrivals);
        assert_eq!(
            report
                .commitments
                .iter()
                .map(|c| c.requests.len())
                .sum::<usize>(),
            m.served
        );
    }

    #[test]
    fn generous_slack_serves_everything() {
        let report = OnlineSim::new(
            problem(3, 10, 3),
            easy_stream(3, 10),
            &EqualShare,
            OnlineConfig::default(),
        )
        .run();
        assert_eq!(report.metrics.missed, 0, "easy stream must not miss");
        assert_eq!(report.metrics.miss_rate, 0.0);
        assert!(report.metrics.charger_utilization > 0.0);
    }

    #[test]
    fn impossible_deadlines_all_miss() {
        let stream: Vec<ChargeRequest> = easy_stream(4, 10)
            .into_iter()
            .map(|mut r| {
                r.deadline = Seconds::new(r.arrival.value() + 1e-6);
                r
            })
            .collect();
        let arrivals = stream.len();
        let report = OnlineSim::new(
            problem(4, 10, 3),
            stream,
            &EqualShare,
            OnlineConfig::default(),
        )
        .run();
        assert_eq!(report.metrics.missed, arrivals);
        assert_eq!(report.metrics.served, 0);
        assert_eq!(report.metrics.miss_rate, 1.0);
    }

    #[test]
    fn commitments_complete_before_every_member_deadline() {
        let requests = easy_stream(5, 12);
        let report = OnlineSim::new(
            problem(5, 12, 3),
            requests.clone(),
            &EqualShare,
            OnlineConfig::default(),
        )
        .run();
        for c in &report.commitments {
            for &i in &c.requests {
                assert!(
                    c.completes_at <= requests[i].deadline,
                    "commitment past request {i}'s deadline"
                );
                assert!(c.committed_at >= requests[i].arrival);
            }
        }
    }

    #[test]
    fn tiny_tanks_force_depot_cycles() {
        let config = OnlineConfig {
            energy: EnergyModel {
                // Enough for roughly one tour, so sustained service has
                // to cycle through the depot.
                battery_cap: Joules::new(16_000.0),
                ecr_move: 10.0,
                ecr_charge: 1.25,
            },
            ..OnlineConfig::default()
        };
        let report =
            OnlineSim::new(problem(6, 12, 2), easy_stream(6, 12), &EqualShare, config).run();
        assert!(
            report.metrics.depot_cycles > 0,
            "a one-tour tank must refill at least once over {} served",
            report.metrics.served
        );
        assert!(report.metrics.served > 0, "refills must not starve service");
        assert!(report.commitments.iter().any(|c| c.refill_first));
    }

    #[test]
    fn fcfs_policy_runs_and_accounts() {
        let config = OnlineConfig {
            policy: OnlinePolicy::Fcfs,
            ..OnlineConfig::default()
        };
        let report =
            OnlineSim::new(problem(7, 12, 3), easy_stream(7, 12), &EqualShare, config).run();
        let m = &report.metrics;
        assert_eq!(m.served + m.missed, m.arrivals);
        assert!(
            report.commitments.iter().all(|c| c.requests.len() == 1),
            "fcfs never forms coalitions"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let fingerprint = || {
            let report = OnlineSim::new(
                problem(8, 14, 3),
                easy_stream(8, 14),
                &EqualShare,
                OnlineConfig::default(),
            )
            .run();
            (
                report.metrics.served,
                report.metrics.missed,
                report.metrics.replans,
                report.metrics.energy_consumed.value().to_bits(),
                report.commitments.len(),
            )
        };
        assert_eq!(fingerprint(), fingerprint());
    }
}
