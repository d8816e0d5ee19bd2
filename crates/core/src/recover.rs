//! Closed-loop failure recovery: re-plan and re-serve what execution missed.
//!
//! Planning assumes the schedule will be delivered; real executions lose
//! devices to charger breakdowns and no-shows. This module closes that loop:
//! after a (possibly faulty) execution, the *residual problem* — unserved
//! devices with their still-owed demand, at wherever they physically ended
//! up — is re-planned with the **same** algorithm and cost-sharing scheme
//! and re-executed, up to a bounded number of recovery rounds. Stragglers
//! left when the budget is exhausted can be gracefully degraded to
//! non-cooperative solo charging (one dedicated dispatch each), trading
//! cost efficiency for guaranteed service.
//!
//! The engine is execution-agnostic: it talks to a [`RecoveryExecutor`]
//! (the testbed implements one over `execute_with_failures`), so `ccs-core`
//! stays free of simulator dependencies while the loop itself — residual
//! extraction, re-planning, merging, degradation — lives here and is shared
//! by every front end.

use crate::algo::noncooperation;
use crate::lifetime::Policy;
use crate::problem::CcsProblem;
use crate::schedule::Schedule;
use crate::sharing::CostSharing;
use ccs_wrsn::entities::{Charger, Device, DeviceId};
use ccs_wrsn::geometry::Point;
use ccs_wrsn::scenario::Scenario;
use ccs_wrsn::units::Cost;

/// Why a round was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// Round 0: the caller's original schedule on the full problem.
    Initial,
    /// A bounded re-plan of the residual problem with the same policy.
    Recovery,
    /// The final fallback: non-cooperative solo dispatches for stragglers.
    Degraded,
}

/// What one executed round delivered, as reported by a [`RecoveryExecutor`].
///
/// All vectors are indexed by the *round-local* device index (dense ids of
/// the round's problem), not the original scenario ids.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundExecution {
    /// Whether each round-local device received its full demand.
    pub served: Vec<bool>,
    /// Realized comprehensive cost billed to each round-local device.
    pub device_costs: Vec<Cost>,
    /// Where each round-local device physically ended the round (unserved
    /// devices may have travelled part-way; the next round plans from here).
    pub end_positions: Vec<Point>,
}

/// Executes one round's schedule and reports what was really delivered.
///
/// Implementations decide what "execution" means — the testbed replays under
/// noise and hard failures with seed `base_seed + round`, a mock in tests
/// scripts the failures. [`RoundMode::Degraded`] rounds are the guaranteed
/// fallback: executors should run them without stochastic failures
/// (dedicated, vetted dispatches) so degradation actually terminates.
pub trait RecoveryExecutor {
    /// Executes `schedule` for `problem` (round index `round`, counted from
    /// 0 = initial) and reports the delivery.
    fn execute(
        &mut self,
        problem: &CcsProblem,
        schedule: &Schedule,
        mode: RoundMode,
        round: usize,
    ) -> RoundExecution;
}

/// Bounds of the recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Maximum number of recovery rounds after the initial execution
    /// (0 disables re-planning entirely).
    pub max_rounds: usize,
    /// Whether stragglers still unserved after `max_rounds` get dedicated
    /// non-cooperative dispatches ([`RoundMode::Degraded`]).
    pub degrade: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_rounds: 3,
            degrade: true,
        }
    }
}

/// One executed round of the recovery loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRound {
    /// Round index: 0 is the initial execution, 1.. are recovery rounds.
    pub round: usize,
    /// Why this round ran.
    pub mode: RoundMode,
    /// Original scenario ids of the round's devices: `devices[local]` is
    /// the original id of round-local device `local`.
    pub devices: Vec<DeviceId>,
    /// The schedule this round executed.
    pub schedule: Schedule,
    /// What the executor delivered.
    pub execution: RoundExecution,
}

/// Merged outcome of an initial execution plus its recovery rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Cumulative realized cost billed to each device (original ids) across
    /// every round it took part in.
    pub device_costs: Vec<Cost>,
    /// Whether each device (original ids) was ultimately served.
    pub served: Vec<bool>,
    /// Every executed round, in order; `rounds[0]` is the initial execution.
    pub rounds: Vec<RecoveryRound>,
    /// Whether a [`RoundMode::Degraded`] fallback round ran.
    pub degraded: bool,
}

impl RecoveryOutcome {
    /// Fraction of devices ultimately served, in `[0, 1]`.
    pub fn served_fraction(&self) -> f64 {
        if self.served.is_empty() {
            return 1.0;
        }
        self.served.iter().filter(|s| **s).count() as f64 / self.served.len() as f64
    }

    /// Total realized cost across all rounds.
    pub fn total_cost(&self) -> Cost {
        self.device_costs.iter().copied().sum()
    }

    /// Number of extra rounds beyond the initial execution.
    pub fn recovery_rounds(&self) -> usize {
        self.rounds.len() - 1
    }
}

/// Builds the residual problem: `unserved[i]` (original ids) becomes dense
/// round-local device `i`, standing at `positions[i]`, still owing its full
/// original demand. Chargers, field, and cost parameters are unchanged.
///
/// Public because the online mode ([`crate::online`]) re-plans through
/// this extraction — the index of `unserved` *is* the origin map back to
/// the full problem.
pub fn residual_problem(
    problem: &CcsProblem,
    unserved: &[DeviceId],
    positions: &[Point],
) -> CcsProblem {
    let chargers = problem.scenario().chargers().to_vec();
    residual_over(problem, unserved, positions, chargers)
}

/// [`residual_problem`] over the given `chargers` instead of the full
/// fleet: the one dense device renumbering behind the recovery loop and
/// the online mode's event loop, which offers only its idle chargers.
pub(crate) fn residual_over(
    problem: &CcsProblem,
    ids: &[DeviceId],
    positions: &[Point],
    chargers: Vec<Charger>,
) -> CcsProblem {
    debug_assert_eq!(ids.len(), positions.len());
    let scenario = problem.scenario();
    let devices: Vec<Device> = ids
        .iter()
        .zip(positions)
        .enumerate()
        .map(|(i, (&orig, &pos))| {
            let dev = scenario.device(orig);
            Device::builder(DeviceId::new(i as u32), pos)
                .battery(*dev.battery())
                .demand(dev.demand())
                .move_cost_rate(dev.move_cost_rate())
                .speed(dev.speed())
                .build()
        })
        .collect();
    let residual = Scenario::new(scenario.field(), devices, chargers)
        .expect("residual devices and chargers are renumberings of valid entities");
    CcsProblem::with_params(residual, problem.params().clone())
}

/// Runs the closed recovery loop over an arbitrary [`RecoveryExecutor`].
///
/// Round 0 executes the caller's `initial` schedule on the full `problem`.
/// While devices remain unserved and the round budget allows, the residual
/// problem is re-planned with `policy` + `sharing` and re-executed; if
/// `config.degrade` is set, any stragglers after `config.max_rounds`
/// recovery rounds get one final non-cooperative round of dedicated
/// dispatches. Costs accumulate per device across every round it rode in.
///
/// With a failure-free executor the loop runs 0 extra rounds and the
/// outcome is exactly the initial execution.
///
/// # Panics
///
/// Panics if an executor report's vector lengths disagree with the round's
/// device count.
pub fn recover_with<E: RecoveryExecutor>(
    problem: &CcsProblem,
    initial: &Schedule,
    policy: Policy,
    sharing: &dyn CostSharing,
    executor: &mut E,
    config: &RecoveryConfig,
) -> RecoveryOutcome {
    let _span = ccs_telemetry::span!("recover");
    let n = problem.num_devices();
    let mut device_costs = vec![Cost::ZERO; n];
    let mut served = vec![false; n];
    let mut rounds = Vec::new();
    let mut degraded = false;

    // Round 0: the original schedule, full problem, identity id map.
    let mut round_devices: Vec<DeviceId> = problem.scenario().device_ids().collect();
    let mut round_problem;
    let mut current: (&CcsProblem, Schedule) = (problem, initial.clone());
    let mut round = 0usize;

    loop {
        let (prob, schedule) = (current.0, current.1);
        let mode = if round == 0 {
            RoundMode::Initial
        } else if degraded {
            RoundMode::Degraded
        } else {
            RoundMode::Recovery
        };
        let execution = executor.execute(prob, &schedule, mode, round);
        assert_eq!(execution.served.len(), round_devices.len());
        assert_eq!(execution.device_costs.len(), round_devices.len());
        assert_eq!(execution.end_positions.len(), round_devices.len());
        ccs_telemetry::counter!("recover.rounds").add(1);

        // Merge into the original-id ledgers.
        for (local, &orig) in round_devices.iter().enumerate() {
            device_costs[orig.index()] += execution.device_costs[local];
            if execution.served[local] {
                served[orig.index()] = true;
            }
        }
        let residual: Vec<(DeviceId, Point)> = round_devices
            .iter()
            .enumerate()
            .filter(|(local, _)| !execution.served[*local])
            .map(|(local, &orig)| (orig, execution.end_positions[local]))
            .collect();
        rounds.push(RecoveryRound {
            round,
            mode,
            devices: std::mem::take(&mut round_devices),
            schedule,
            execution,
        });

        if residual.is_empty() || mode == RoundMode::Degraded {
            break;
        }
        ccs_telemetry::counter!("recover.residual_devices").add(residual.len() as u64);
        round += 1;

        // Build and plan the next round.
        let (ids, positions): (Vec<DeviceId>, Vec<Point>) = residual.into_iter().unzip();
        if round > config.max_rounds {
            if !config.degrade {
                break;
            }
            // Fallback: dedicated solo dispatches for the stragglers.
            degraded = true;
            ccs_telemetry::counter!("recover.degraded_devices").add(ids.len() as u64);
        }
        round_problem = residual_problem(problem, &ids, &positions);
        let next_schedule = if degraded {
            noncooperation(&round_problem, sharing)
        } else {
            policy.plan(&round_problem, sharing)
        };
        debug_assert!(next_schedule.validate(&round_problem).is_ok());
        round_devices = ids;
        current = (&round_problem, next_schedule);
    }

    RecoveryOutcome {
        device_costs,
        served,
        rounds,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{ccsa, CcsaOptions};
    use crate::sharing::EqualShare;
    use ccs_wrsn::scenario::ScenarioGenerator;

    /// Scripted executor: `succeeds_at[d]` (original ids) is the first round
    /// index at which device `d` gets served; Degraded rounds always serve.
    /// Costs come from the round's schedule; nobody moves. Relies on the
    /// engine keeping residuals in ascending original-id order.
    struct Scripted {
        succeeds_at: Vec<usize>,
    }

    impl Scripted {
        fn new(succeeds_at: Vec<usize>) -> Self {
            Scripted { succeeds_at }
        }
    }

    impl RecoveryExecutor for Scripted {
        fn execute(
            &mut self,
            problem: &CcsProblem,
            schedule: &Schedule,
            mode: RoundMode,
            round: usize,
        ) -> RoundExecution {
            let n = problem.num_devices();
            // Present in round r: failed every round before r.
            let present: Vec<usize> = self
                .succeeds_at
                .iter()
                .enumerate()
                .filter(|(_, &s)| s >= round)
                .map(|(d, _)| d)
                .collect();
            assert_eq!(present.len(), n, "mock presence must match the residual");
            let served = present
                .iter()
                .map(|&d| mode == RoundMode::Degraded || self.succeeds_at[d] <= round)
                .collect();
            let end_positions = (0..n)
                .map(|i| problem.device(DeviceId::new(i as u32)).position())
                .collect();
            RoundExecution {
                served,
                device_costs: schedule.device_costs(n),
                end_positions,
            }
        }
    }

    fn setup() -> (CcsProblem, Schedule) {
        let scenario = ScenarioGenerator::new(7).devices(8).chargers(4).generate();
        let problem = CcsProblem::new(scenario);
        let schedule = ccsa(&problem, &EqualShare, CcsaOptions::default());
        (problem, schedule)
    }

    #[test]
    fn failure_free_execution_runs_zero_extra_rounds() {
        let (problem, schedule) = setup();
        let mut exec = Scripted::new(vec![0; 8]);
        let out = recover_with(
            &problem,
            &schedule,
            Policy::Ccsa,
            &EqualShare,
            &mut exec,
            &RecoveryConfig::default(),
        );
        assert_eq!(out.recovery_rounds(), 0);
        assert_eq!(out.rounds.len(), 1);
        assert_eq!(out.rounds[0].mode, RoundMode::Initial);
        assert!(!out.degraded);
        assert_eq!(out.served_fraction(), 1.0);
        // Costs are exactly the schedule's per-device costs.
        assert_eq!(out.device_costs, schedule.device_costs(8));
        assert!((out.total_cost() - schedule.total_cost()).abs() < Cost::new(1e-9));
    }

    #[test]
    fn one_round_of_failures_recovers_everyone() {
        let (problem, schedule) = setup();
        // Devices 2 and 5 fail round 0, succeed at round 1.
        let mut script = vec![0; 8];
        script[2] = 1;
        script[5] = 1;
        let mut exec = Scripted::new(script);
        let out = recover_with(
            &problem,
            &schedule,
            Policy::Ccsa,
            &EqualShare,
            &mut exec,
            &RecoveryConfig::default(),
        );
        assert_eq!(out.recovery_rounds(), 1);
        assert_eq!(out.rounds[1].mode, RoundMode::Recovery);
        assert_eq!(
            out.rounds[1].devices,
            vec![DeviceId::new(2), DeviceId::new(5)]
        );
        assert!(!out.degraded);
        assert_eq!(out.served_fraction(), 1.0);
        // Recovered devices carry costs from both rounds they rode in.
        let base = schedule.device_costs(8);
        assert!(out.device_costs[2] >= base[2]);
        assert!(out.total_cost() >= schedule.total_cost());
    }

    #[test]
    fn persistent_failures_degrade_to_solo_dispatches() {
        let (problem, schedule) = setup();
        // Device 3 never succeeds within the budget.
        let mut script = vec![0; 8];
        script[3] = usize::MAX;
        let mut exec = Scripted::new(script);
        let config = RecoveryConfig {
            max_rounds: 2,
            degrade: true,
        };
        let out = recover_with(
            &problem,
            &schedule,
            Policy::Ccsa,
            &EqualShare,
            &mut exec,
            &config,
        );
        assert!(out.degraded);
        assert_eq!(out.served_fraction(), 1.0, "degradation guarantees service");
        let last = out.rounds.last().unwrap();
        assert_eq!(last.mode, RoundMode::Degraded);
        assert_eq!(last.schedule.algorithm(), "ncp");
        // Rounds: initial + max_rounds recoveries + 1 degraded.
        assert_eq!(out.rounds.len(), 1 + config.max_rounds + 1);
    }

    #[test]
    fn without_degradation_stragglers_stay_unserved() {
        let (problem, schedule) = setup();
        let mut script = vec![0; 8];
        script[3] = usize::MAX;
        let mut exec = Scripted::new(script);
        let config = RecoveryConfig {
            max_rounds: 2,
            degrade: false,
        };
        let out = recover_with(
            &problem,
            &schedule,
            Policy::Ccsa,
            &EqualShare,
            &mut exec,
            &config,
        );
        assert!(!out.degraded);
        assert!(out.served_fraction() < 1.0);
        assert!(!out.served[3]);
        assert_eq!(out.rounds.len(), 1 + config.max_rounds);
    }

    #[test]
    fn residual_problem_keeps_demand_and_renumbers_densely() {
        let (problem, _) = setup();
        let unserved = vec![DeviceId::new(6), DeviceId::new(1)];
        let positions = vec![Point::new(10.0, 10.0), Point::new(20.0, 5.0)];
        let residual = residual_problem(&problem, &unserved, &positions);
        assert_eq!(residual.num_devices(), 2);
        assert_eq!(residual.num_chargers(), problem.num_chargers());
        assert_eq!(
            residual.device(DeviceId::new(0)).demand(),
            problem.device(DeviceId::new(6)).demand()
        );
        assert_eq!(residual.device(DeviceId::new(0)).position(), positions[0]);
        assert_eq!(
            residual.device(DeviceId::new(1)).demand(),
            problem.device(DeviceId::new(1)).demand()
        );
    }
}
