//! The schedule executor: replays a planned [`Schedule`] on the simulated
//! physical testbed and measures *realized* comprehensive costs.
//!
//! The execution is a discrete-event simulation:
//!
//! 1. at `t = 0` every device departs toward its group's gathering point
//!    (noisy detour + speed), and every charger departs toward the first of
//!    its groups;
//! 2. a charger that serves several groups visits them in schedule order,
//!    chaining travel legs;
//! 3. at each gathering point the charger serves members **sequentially**
//!    in arrival order (FIFO), waiting for stragglers;
//! 4. each charge transmits `demand / efficiency_factor` Joules (the coil
//!    under-performs), which is what the provider bills.
//!
//! Realized billing follows the service contract: base fee per hire +
//! energy price × transmitted energy + travel rate × realized leg length +
//! congestion. Shares are recomputed from the realized bill with the same
//! cost-sharing scheme the planner used, so planned and realized
//! comprehensive costs are directly comparable — and coincide exactly under
//! [`NoiseModel::ideal`] (pinned by a test).

use crate::noise::{FailureModel, NoiseModel};
use ccs_core::problem::CcsProblem;
use ccs_core::schedule::Schedule;
use ccs_core::sharing::CostSharing;
use ccs_wrsn::entities::ChargerId;
use ccs_wrsn::event::{EventQueue, SimTime};
use ccs_wrsn::geometry::Point;
use ccs_wrsn::units::{Cost, Meters, Seconds};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};

/// Distance between the charger coil and a device under service.
const LINK_DISTANCE_M: f64 = 0.3;

/// Measured outcome of one testbed replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldOutcome {
    /// Realized comprehensive cost per device, indexed by `DeviceId::index()`.
    pub device_costs: Vec<Cost>,
    /// Queueing delay per device (service start − arrival).
    pub device_wait: Vec<Seconds>,
    /// Time of the last event of the realized timeline — the last charge
    /// completion, or, when every charge was voided by failures, the last
    /// device arrival / breakdown (total failure still takes time).
    pub makespan: Seconds,
    /// Whether each device actually received its energy (false for
    /// no-shows and members of groups whose charger broke down).
    pub served: Vec<bool>,
    /// Where each device physically ended the replay: the gathering point
    /// for devices that completed the trip (served or stood up by a broken
    /// charger), the halfway point for no-shows. Recovery re-plans unserved
    /// devices from these positions.
    pub final_positions: Vec<Point>,
}

impl FieldOutcome {
    /// Total realized comprehensive cost.
    pub fn total_cost(&self) -> Cost {
        self.device_costs.iter().copied().sum()
    }

    /// Average realized comprehensive cost per device.
    ///
    /// # Panics
    ///
    /// Panics if there are no devices.
    pub fn average_cost(&self) -> Cost {
        assert!(!self.device_costs.is_empty(), "no devices measured");
        self.total_cost() / self.device_costs.len() as f64
    }

    /// Number of devices that did not receive their energy.
    pub fn unserved_count(&self) -> usize {
        self.served.iter().filter(|s| !**s).count()
    }

    /// Fraction of devices served, in `[0, 1]`.
    pub fn served_fraction(&self) -> f64 {
        if self.served.is_empty() {
            return 1.0;
        }
        1.0 - self.unserved_count() as f64 / self.served.len() as f64
    }

    /// Mean queueing delay across **served** devices.
    ///
    /// Devices that never reached service (no-shows, members of voided
    /// groups) have no queueing delay to report; averaging their zeros in
    /// would under-state the delay exactly when failures are common. This
    /// matches the `testbed.service_wait_s` telemetry timer, which also
    /// records served devices only. Returns zero when nobody was served.
    pub fn average_wait(&self) -> Seconds {
        let served_waits: Vec<Seconds> = self
            .device_wait
            .iter()
            .zip(&self.served)
            .filter(|(_, s)| **s)
            .map(|(w, _)| *w)
            .collect();
        if served_waits.is_empty() {
            return Seconds::ZERO;
        }
        served_waits.iter().copied().sum::<Seconds>() / served_waits.len() as f64
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    DeviceArrived {
        group: usize,
        local: usize,
    },
    ChargerArrived {
        group: usize,
    },
    ChargeDone {
        group: usize,
        local: usize,
    },
    /// A device breaks down halfway to its gathering point, or a charger
    /// mid-leg. Nothing follows from it, but its time bounds the makespan.
    Breakdown,
}

struct GroupState {
    charger_here: bool,
    busy: bool,
    served: usize,
    /// Arrival-ordered FIFO of unserved local member indices.
    ready: VecDeque<usize>,
    arrival_time: Vec<Option<SimTime>>,
}

/// Replays `schedule` under `noise` without hard failures,
/// deterministically per `seed`.
///
/// # Panics
///
/// Panics if the schedule does not validate against the problem (the
/// executor only replays well-formed plans).
pub fn execute(
    problem: &CcsProblem,
    schedule: &Schedule,
    sharing: &dyn CostSharing,
    noise: &NoiseModel,
    seed: u64,
) -> FieldOutcome {
    execute_with_failures(
        problem,
        schedule,
        sharing,
        noise,
        &FailureModel::none(),
        seed,
    )
}

/// Replays `schedule` under `noise` plus hard [`FailureModel`] failures.
///
/// Failure semantics: a device no-show turns around halfway (pays half its
/// realized moving cost, keeps owing its bill share, receives nothing); a
/// charger breakdown on a leg voids that hire and every later hire on the
/// charger's route (those bills are refunded, members only pay the trip).
///
/// # Panics
///
/// Panics if the schedule does not validate against the problem (the
/// executor only replays well-formed plans).
pub fn execute_with_failures(
    problem: &CcsProblem,
    schedule: &Schedule,
    sharing: &dyn CostSharing,
    noise: &NoiseModel,
    failures: &FailureModel,
    seed: u64,
) -> FieldOutcome {
    let _span = ccs_telemetry::span!("testbed_execute");
    noise.validate();
    failures.validate();
    schedule
        .validate(problem)
        .expect("executor requires a valid schedule");
    let n = problem.num_devices();
    let groups = schedule.groups();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // --- Sample all noise factors upfront, in a fixed order, so the event
    // interleaving cannot perturb determinism. ---
    // Per device (global id order): detour, speed factor, efficiency factor.
    let mut dev_detour = vec![1.0; n];
    let mut dev_speed = vec![1.0; n];
    let mut dev_eff = vec![1.0; n];
    for i in 0..n {
        dev_detour[i] = noise.detour(&mut rng);
        dev_speed[i] = noise.speed(&mut rng);
        dev_eff[i] = noise.efficiency(&mut rng);
    }
    // Per group (schedule order): the charger leg that *ends* at this group.
    let mut leg_detour = vec![1.0; groups.len()];
    let mut leg_speed = vec![1.0; groups.len()];
    for g in 0..groups.len() {
        leg_detour[g] = noise.detour(&mut rng);
        leg_speed[g] = noise.speed(&mut rng);
    }
    // Hard failures, sampled in the same fixed order.
    let no_show: Vec<bool> = (0..n).map(|_| failures.device_no_show(&mut rng)).collect();
    let leg_break: Vec<bool> = (0..groups.len())
        .map(|_| failures.charger_breaks(&mut rng))
        .collect();

    // --- Charger itineraries: groups in schedule order per charger. ---
    let mut itinerary: BTreeMap<ChargerId, Vec<usize>> = BTreeMap::new();
    for (gi, g) in groups.iter().enumerate() {
        itinerary.entry(g.charger).or_default().push(gi);
    }
    // Two travel distances per group: the *billed* distance follows the
    // service contract (depot -> gathering point per hire, with detour),
    // while the *timed* leg chains from the charger's previous stop.
    // `reached[gi]` is false once the charger breaks on or before its leg.
    let mut bill_distance = vec![Meters::ZERO; groups.len()];
    let mut leg_distance = vec![Meters::ZERO; groups.len()];
    let mut reached = vec![true; groups.len()];
    for (&charger, gs) in &itinerary {
        let depot = problem.charger(charger).position();
        let mut from = depot;
        let mut alive = true;
        for &gi in gs {
            let to = groups[gi].gathering_point;
            bill_distance[gi] = depot.distance(&to) * leg_detour[gi];
            leg_distance[gi] = from.distance(&to) * leg_detour[gi];
            from = to;
            alive = alive && !leg_break[gi];
            reached[gi] = alive;
        }
    }

    // --- Seed the event queue. ---
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut states: Vec<GroupState> = groups
        .iter()
        .map(|g| GroupState {
            charger_here: false,
            busy: false,
            served: 0,
            ready: VecDeque::new(),
            arrival_time: vec![None; g.members.len()],
        })
        .collect();

    // Arrivals a group is still waiting for (no-shows excluded).
    let mut expected: Vec<usize> = groups.iter().map(|g| g.members.len()).collect();
    let mut moving_cost = vec![Cost::ZERO; n];
    let mut final_positions: Vec<Point> = problem
        .scenario()
        .devices()
        .iter()
        .map(|d| d.position())
        .collect();
    for (gi, g) in groups.iter().enumerate() {
        for (local, &d) in g.members.iter().enumerate() {
            let dev = problem.device(d);
            let dist = dev.position().distance(&g.gathering_point) * dev_detour[d.index()];
            let speed = dev.speed() * dev_speed[d.index()];
            if no_show[d.index()] {
                // Broke down halfway: half the trip, never arrives.
                moving_cost[d.index()] = dev.move_cost_rate() * (dist * 0.5);
                final_positions[d.index()] = dev.position().lerp(&g.gathering_point, 0.5);
                expected[gi] -= 1;
                let breakdown = SimTime::new((dist * 0.5 / speed).value());
                queue.schedule(breakdown, Ev::Breakdown);
                continue;
            }
            moving_cost[d.index()] = dev.move_cost_rate() * dist;
            final_positions[d.index()] = g.gathering_point;
            let arrival = SimTime::new((dist / speed).value());
            queue.schedule(arrival, Ev::DeviceArrived { group: gi, local });
        }
    }
    for (&charger, gs) in &itinerary {
        let first = gs[0];
        let speed = problem.charger(charger).speed() * leg_speed[first];
        let travel = (leg_distance[first] / speed).value();
        if !reached[first] {
            // Broke down on the very first leg: estimate mid-leg failure.
            queue.schedule(SimTime::new(travel * 0.5), Ev::Breakdown);
            continue;
        }
        queue.schedule(SimTime::new(travel), Ev::ChargerArrived { group: first });
    }

    // --- Run. ---
    let mut wait = vec![Seconds::ZERO; n];
    let mut makespan = SimTime::ZERO;
    // Next-group lookup for charger chaining.
    let next_group: BTreeMap<usize, usize> = itinerary
        .values()
        .flat_map(|gs| gs.windows(2).map(|w| (w[0], w[1])))
        .collect();

    let mut served = vec![false; n];
    let chain = |queue: &mut EventQueue<Ev>, now: SimTime, group: usize| {
        if let Some(&next) = next_group.get(&group) {
            let speed = problem.charger(groups[group].charger).speed() * leg_speed[next];
            let travel = (leg_distance[next] / speed).value();
            if reached[next] {
                queue.schedule(now + travel, Ev::ChargerArrived { group: next });
            } else {
                // `group` was reached, so the break happened on this very
                // leg: estimate a mid-leg failure time for the makespan.
                queue.schedule(now + travel * 0.5, Ev::Breakdown);
            }
        }
    };
    let events_emitted = ccs_telemetry::counter!("testbed.events_emitted");
    while let Some((now, ev)) = queue.pop() {
        events_emitted.incr();
        // The realized timeline ends at the last event, whatever it is:
        // total-failure runs still spend real time travelling.
        makespan = makespan.max(now);
        match ev {
            Ev::DeviceArrived { group, local } => {
                states[group].arrival_time[local] = Some(now);
                states[group].ready.push_back(local);
                try_start_service(
                    problem,
                    groups,
                    &mut states,
                    &mut queue,
                    group,
                    now,
                    &dev_eff,
                    &mut wait,
                );
            }
            Ev::ChargerArrived { group } => {
                states[group].charger_here = true;
                if expected[group] == 0 {
                    // Everyone no-showed: move on immediately.
                    chain(&mut queue, now, group);
                } else {
                    try_start_service(
                        problem,
                        groups,
                        &mut states,
                        &mut queue,
                        group,
                        now,
                        &dev_eff,
                        &mut wait,
                    );
                }
            }
            Ev::ChargeDone { group, local } => {
                served[groups[group].members[local].index()] = true;
                states[group].busy = false;
                states[group].served += 1;
                if states[group].served == expected[group] {
                    // Group complete: chain to the charger's next stop.
                    chain(&mut queue, now, group);
                } else {
                    try_start_service(
                        problem,
                        groups,
                        &mut states,
                        &mut queue,
                        group,
                        now,
                        &dev_eff,
                        &mut wait,
                    );
                }
            }
            Ev::Breakdown => {}
        }
    }

    // --- Realized billing and shares. ---
    let mut device_costs = vec![Cost::ZERO; n];
    for (gi, g) in groups.iter().enumerate() {
        if !reached[gi] {
            // Charger never showed: the hire is refunded; members only pay
            // the trip they already made.
            for &d in &g.members {
                device_costs[d.index()] = moving_cost[d.index()];
            }
            continue;
        }
        let c = problem.charger(g.charger);
        let realized_bill = ccs_core::cost::GroupBill {
            base_fee: c.base_fee(),
            charger_travel: c.travel_cost_rate() * bill_distance[gi],
            energy: g
                .members
                .iter()
                .map(|&d| {
                    if served[d.index()] {
                        (problem.device(d).demand() / dev_eff[d.index()]) * c.energy_price()
                    } else {
                        Cost::ZERO // no-show: nothing transmitted, nothing billed
                    }
                })
                .collect(),
            congestion: problem.congestion(g.charger, g.members.len()),
        };
        let shares = sharing.shares(
            problem,
            g.charger,
            &g.members,
            &g.gathering_point,
            &realized_bill,
        );
        for (local, &d) in g.members.iter().enumerate() {
            device_costs[d.index()] = shares[local] + moving_cost[d.index()];
        }
    }

    let wait_timer = ccs_telemetry::timer!("testbed.service_wait_s");
    for (i, w) in wait.iter().enumerate() {
        if served[i] {
            wait_timer.record_secs(w.value());
        }
    }

    FieldOutcome {
        device_costs,
        device_wait: wait,
        makespan: Seconds::new(makespan.seconds()),
        served,
        final_positions,
    }
}

#[allow(clippy::too_many_arguments)]
fn try_start_service(
    problem: &CcsProblem,
    groups: &[ccs_core::schedule::GroupPlan],
    states: &mut [GroupState],
    queue: &mut EventQueue<Ev>,
    group: usize,
    now: SimTime,
    dev_eff: &[f64],
    wait: &mut [Seconds],
) {
    let st = &mut states[group];
    if !st.charger_here || st.busy || st.ready.is_empty() {
        return;
    }
    let local = st.ready.pop_front().expect("checked non-empty above");
    st.busy = true;
    let g = &groups[group];
    let d = g.members[local];
    let dev = problem.device(d);
    let arrived = st.arrival_time[local].expect("ready implies arrived");
    wait[d.index()] = Seconds::new(now - arrived);

    let c = problem.charger(g.charger);
    let link = Meters::new(LINK_DISTANCE_M).min(c.wpt().range * 0.9);
    let power = c.wpt().effective_power(link);
    assert!(
        power.value() > 0.0,
        "charger {} cannot deliver power at the service link distance",
        g.charger
    );
    // The coil under-performs by the efficiency factor: transmitting
    // demand/eff at nominal effective power takes demand/(eff · P).
    let duration = (dev.demand() / dev_eff[d.index()]) / power;
    queue.schedule(now + duration.value(), Ev::ChargeDone { group, local });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::algo::{ccsa, noncooperation, CcsaOptions};
    use ccs_core::sharing::EqualShare;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn problem(seed: u64, n: usize, m: usize) -> CcsProblem {
        CcsProblem::new(
            ScenarioGenerator::new(seed)
                .devices(n)
                .chargers(m)
                .field_side(60.0)
                .generate(),
        )
    }

    #[test]
    fn ideal_noise_reproduces_planned_costs() {
        let p = problem(1, 10, 3);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        let out = execute(&p, &s, &EqualShare, &NoiseModel::ideal(), 0);
        for d in p.scenario().device_ids() {
            let planned = s.device_cost(d).unwrap();
            let realized = out.device_costs[d.index()];
            assert!(
                (planned - realized).abs() < Cost::new(1e-6),
                "device {d}: planned {planned} vs realized {realized}"
            );
        }
        assert!((out.total_cost() - s.total_cost()).abs() < Cost::new(1e-6));
    }

    #[test]
    fn field_noise_inflates_costs() {
        let p = problem(3, 10, 3);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        let ideal = execute(&p, &s, &EqualShare, &NoiseModel::ideal(), 0);
        let noisy = execute(&p, &s, &EqualShare, &NoiseModel::field(), 42);
        assert!(
            noisy.total_cost() > ideal.total_cost(),
            "detours and efficiency losses must cost money: {} vs {}",
            noisy.total_cost(),
            ideal.total_cost()
        );
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let p = problem(4, 9, 3);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        let a = execute(&p, &s, &EqualShare, &NoiseModel::field(), 7);
        let b = execute(&p, &s, &EqualShare, &NoiseModel::field(), 7);
        assert_eq!(a.device_costs, b.device_costs);
        assert_eq!(a.makespan, b.makespan);
        let c = execute(&p, &s, &EqualShare, &NoiseModel::field(), 8);
        assert_ne!(
            a.device_costs, c.device_costs,
            "different seed, different run"
        );
    }

    #[test]
    fn grouped_devices_can_wait_for_the_coil() {
        // Force one big group: all devices in one cluster, huge base fees.
        use ccs_wrsn::scenario::{ParamRange, Placement};
        let scenario = ScenarioGenerator::new(5)
            .devices(6)
            .chargers(2)
            .field_side(30.0)
            .device_placement(Placement::Clustered {
                count: 1,
                sigma: 2.0,
            })
            .base_fee_range(ParamRange::fixed(80.0))
            .generate();
        let p = CcsProblem::new(scenario);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        assert!(s.groups().iter().any(|g| g.members.len() >= 3));
        let out = execute(&p, &s, &EqualShare, &NoiseModel::ideal(), 0);
        // Sequential service: someone must have waited.
        assert!(
            out.device_wait.iter().any(|w| *w > Seconds::ZERO),
            "sequential service implies queueing"
        );
        assert!(out.makespan > Seconds::ZERO);
        assert!(out.average_wait() >= Seconds::ZERO);
    }

    #[test]
    fn chained_charger_serves_groups_in_order() {
        // Many singleton groups under NCP often share a charger; the
        // executor must chain legs and still finish.
        let p = problem(6, 8, 2);
        let s = noncooperation(&p, &EqualShare);
        let out = execute(&p, &s, &EqualShare, &NoiseModel::ideal(), 0);
        assert!(out.makespan > Seconds::ZERO);
        assert!(out.served.iter().all(|s| *s));
        assert!(out.device_costs.iter().all(|c| *c > Cost::ZERO));
    }

    #[test]
    fn noisy_replay_keeps_cooperative_advantage() {
        // The field-experiment headline: cooperation still wins under noise.
        let p = problem(7, 12, 4);
        let coop = ccsa(&p, &EqualShare, CcsaOptions::default());
        let solo = noncooperation(&p, &EqualShare);
        let mut coop_total = Cost::ZERO;
        let mut solo_total = Cost::ZERO;
        for seed in 0..10 {
            coop_total += execute(&p, &coop, &EqualShare, &NoiseModel::field(), seed).total_cost();
            solo_total += execute(&p, &solo, &EqualShare, &NoiseModel::field(), seed).total_cost();
        }
        assert!(
            coop_total < solo_total,
            "cooperative schedules must stay ahead under noise"
        );
    }
}

#[cfg(test)]
mod failure_sim_tests {
    use super::*;
    use ccs_core::algo::{ccsa, noncooperation, CcsaOptions};
    use ccs_core::sharing::EqualShare;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn problem(seed: u64, n: usize, m: usize) -> CcsProblem {
        CcsProblem::new(
            ScenarioGenerator::new(seed)
                .devices(n)
                .chargers(m)
                .field_side(60.0)
                .generate(),
        )
    }

    #[test]
    fn no_failures_serves_everyone() {
        let p = problem(1, 10, 3);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        let out = execute(&p, &s, &EqualShare, &NoiseModel::ideal(), 0);
        assert_eq!(out.unserved_count(), 0);
        assert_eq!(out.served_fraction(), 1.0);
        assert!(out.served.iter().all(|s| *s));
    }

    #[test]
    fn certain_breakdown_serves_nobody() {
        let p = problem(2, 8, 3);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        let failures = FailureModel {
            charger_breakdown_prob: 1.0,
            device_no_show_prob: 0.0,
        };
        let out = execute_with_failures(&p, &s, &EqualShare, &NoiseModel::ideal(), &failures, 0);
        assert_eq!(out.served_fraction(), 0.0);
        // Hires refunded: each device pays exactly its (detour-free) trip.
        for g in s.groups() {
            for &d in &g.members {
                let dev = p.device(d);
                assert_eq!(
                    out.device_costs[d.index()],
                    dev.move_cost_rate() * dev.position().distance(&g.gathering_point),
                    "{d} pays its trip and nothing else"
                );
            }
        }
        assert!(out.total_cost() > Cost::ZERO, "trips were still made");
        assert!(out.total_cost() < s.total_cost(), "refund beats full bill");
        // Devices still travelled for real time: makespan tracks the last
        // event even though no charge ever completed.
        assert!(
            out.makespan > Seconds::ZERO,
            "total failure still takes time, got {}",
            out.makespan
        );
    }

    #[test]
    fn certain_no_show_bills_no_energy() {
        let p = problem(3, 6, 2);
        let s = noncooperation(&p, &EqualShare);
        let failures = FailureModel {
            charger_breakdown_prob: 0.0,
            device_no_show_prob: 1.0,
        };
        let out = execute_with_failures(&p, &s, &EqualShare, &NoiseModel::ideal(), &failures, 0);
        assert_eq!(out.served_fraction(), 0.0);
        // The members still owe their bill: the hire happened, so it keeps
        // the base fee, travel and congestion, but it has no energy item.
        // On top of it each device pays half its trip.
        for g in s.groups() {
            let bill: Cost = g
                .members
                .iter()
                .map(|&d| {
                    let dev = p.device(d);
                    let half_trip =
                        dev.move_cost_rate() * (dev.position().distance(&g.gathering_point) * 0.5);
                    out.device_costs[d.index()] - half_trip
                })
                .sum();
            assert!(bill > Cost::ZERO);
            assert!((bill - g.bill.group_level()).abs() < Cost::new(1e-9));
            assert!(bill < g.bill.total());
        }
        assert!(out.makespan > Seconds::ZERO, "half-trips still take time");
    }

    #[test]
    fn average_wait_ignores_never_served_devices() {
        // Breakdown-heavy run: many devices are never served. Their zero
        // "waits" must not dilute the queueing statistic of the devices
        // that actually queued at a coil.
        let mut checked = 0;
        for seed in 0..20u64 {
            let p = problem(seed, 12, 4);
            let s = ccsa(&p, &EqualShare, CcsaOptions::default());
            let failures = FailureModel {
                charger_breakdown_prob: 0.5,
                device_no_show_prob: 0.2,
            };
            let out =
                execute_with_failures(&p, &s, &EqualShare, &NoiseModel::field(), &failures, seed);
            let served: Vec<Seconds> = out
                .device_wait
                .iter()
                .zip(&out.served)
                .filter(|(_, s)| **s)
                .map(|(w, _)| *w)
                .collect();
            if served.is_empty() || out.unserved_count() == 0 {
                continue; // nothing to distinguish this seed
            }
            let served_mean = served.iter().copied().sum::<Seconds>() / served.len() as f64;
            assert!(
                (out.average_wait() - served_mean).abs() < Seconds::new(1e-9),
                "seed {seed}: average_wait must average served devices only"
            );
            let diluted =
                out.device_wait.iter().copied().sum::<Seconds>() / out.device_wait.len() as f64;
            assert!(
                out.average_wait() >= diluted,
                "seed {seed}: filtering zeros can only raise the mean"
            );
            checked += 1;
        }
        assert!(checked > 0, "at least one seed must exercise the filter");
    }

    #[test]
    fn nobody_served_reports_zero_wait() {
        let p = problem(5, 6, 2);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        let failures = FailureModel {
            charger_breakdown_prob: 1.0,
            device_no_show_prob: 0.0,
        };
        let out = execute_with_failures(&p, &s, &EqualShare, &NoiseModel::ideal(), &failures, 0);
        assert_eq!(out.served_fraction(), 0.0);
        assert_eq!(out.average_wait(), Seconds::ZERO);
    }

    #[test]
    fn partial_failures_are_deterministic_and_in_between() {
        let p = problem(4, 12, 4);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        let failures = FailureModel {
            charger_breakdown_prob: 0.2,
            device_no_show_prob: 0.1,
        };
        let a = execute_with_failures(&p, &s, &EqualShare, &NoiseModel::field(), &failures, 9);
        let b = execute_with_failures(&p, &s, &EqualShare, &NoiseModel::field(), &failures, 9);
        assert_eq!(a.served, b.served);
        assert_eq!(a.device_costs, b.device_costs);
        assert!(a.served_fraction() <= 1.0);
    }

    #[test]
    fn cooperation_is_more_robust_to_breakdowns() {
        // NCP makes many hires (many legs to break); CCSA makes few. Under
        // the same breakdown rate, CCSA should keep a higher served
        // fraction on average.
        let failures = FailureModel {
            charger_breakdown_prob: 0.15,
            device_no_show_prob: 0.0,
        };
        let mut coop_served = 0.0;
        let mut solo_served = 0.0;
        let trials = 20u64;
        for seed in 0..trials {
            let p = problem(seed, 12, 4);
            let coop = ccsa(&p, &EqualShare, CcsaOptions::default());
            let solo = noncooperation(&p, &EqualShare);
            coop_served += execute_with_failures(
                &p,
                &coop,
                &EqualShare,
                &NoiseModel::ideal(),
                &failures,
                seed,
            )
            .served_fraction();
            solo_served += execute_with_failures(
                &p,
                &solo,
                &EqualShare,
                &NoiseModel::ideal(),
                &failures,
                seed,
            )
            .served_fraction();
        }
        assert!(
            coop_served >= solo_served,
            "cooperative served {coop_served} vs solo {solo_served} over {trials} trials"
        );
    }
}

/// The realized timeline: where each device ends the replay.
#[cfg(test)]
mod trace_integration_tests {
    use super::*;
    use ccs_core::algo::{ccsa, CcsaOptions};
    use ccs_core::sharing::EqualShare;
    use ccs_wrsn::scenario::ScenarioGenerator;

    #[test]
    fn final_positions_reflect_realized_travel() {
        use ccs_wrsn::units::Meters;
        let p = CcsProblem::new(
            ScenarioGenerator::new(4)
                .devices(6)
                .chargers(2)
                .field_side(50.0)
                .generate(),
        );
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        // No failures: everyone ends at its group's gathering point.
        let out = execute(&p, &s, &EqualShare, &NoiseModel::ideal(), 0);
        for g in s.groups() {
            for &d in &g.members {
                assert_eq!(out.final_positions[d.index()], g.gathering_point);
            }
        }
        // All no-show: everyone strands exactly halfway.
        let failures = FailureModel {
            charger_breakdown_prob: 0.0,
            device_no_show_prob: 1.0,
        };
        let out = execute_with_failures(&p, &s, &EqualShare, &NoiseModel::ideal(), &failures, 0);
        for g in s.groups() {
            for &d in &g.members {
                let start = p.device(d).position();
                let half = start.distance(&g.gathering_point) * 0.5;
                let got = out.final_positions[d.index()].distance(&start);
                assert!(
                    (got - half).abs() < Meters::new(1e-9),
                    "{d} should strand halfway: {got} vs {half}"
                );
                assert!(p
                    .scenario()
                    .field()
                    .contains(&out.final_positions[d.index()]));
            }
        }
    }
}
