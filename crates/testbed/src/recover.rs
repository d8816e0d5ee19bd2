//! Testbed-backed recovery: the glue between [`ccs_core::recover`] and the
//! faulty discrete-event executor.
//!
//! [`FieldRun`] implements [`RecoveryExecutor`] over
//! [`execute_with_failures`]: recovery round `r` replays with seed
//! `base_seed + r` (noise and failures resampled per round, fully
//! deterministic per base seed), and [`RoundMode::Degraded`] rounds run
//! with [`FailureModel::none`] — degraded dispatches are dedicated, vetted
//! solo hires, so the graceful-degradation guarantee (`served_fraction ==
//! 1.0`) actually holds. The convenience wrapper [`recover`] wires it all
//! up for the common case.

use crate::noise::{FailureModel, NoiseModel};
use crate::sim::execute_with_failures;
use ccs_core::lifetime::{LifetimeDriver, Policy, RoundDelivery};
use ccs_core::problem::CcsProblem;
use ccs_core::recover::{
    recover_with, RecoveryConfig, RecoveryExecutor, RecoveryOutcome, RoundExecution, RoundMode,
};
use ccs_core::schedule::Schedule;
use ccs_core::sharing::CostSharing;

/// A [`RecoveryExecutor`] that replays each round on the simulated field
/// testbed under `noise` and `failures`, billing realized costs with
/// `sharing`.
pub struct FieldRun<'a> {
    noise: &'a NoiseModel,
    failures: &'a FailureModel,
    sharing: &'a dyn CostSharing,
    base_seed: u64,
}

impl std::fmt::Debug for FieldRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FieldRun")
            .field("noise", &self.noise)
            .field("failures", &self.failures)
            .field("base_seed", &self.base_seed)
            .finish_non_exhaustive()
    }
}

impl<'a> FieldRun<'a> {
    /// A field run replaying round `r` with seed `base_seed + r`.
    pub fn new(
        noise: &'a NoiseModel,
        failures: &'a FailureModel,
        sharing: &'a dyn CostSharing,
        base_seed: u64,
    ) -> Self {
        FieldRun {
            noise,
            failures,
            sharing,
            base_seed,
        }
    }
}

impl RecoveryExecutor for FieldRun<'_> {
    fn execute(
        &mut self,
        problem: &CcsProblem,
        schedule: &Schedule,
        mode: RoundMode,
        round: usize,
    ) -> RoundExecution {
        // Degraded dispatches are dedicated, pre-vetted hires: no stochastic
        // hard failures, otherwise the service guarantee could not hold.
        let failures = match mode {
            RoundMode::Degraded => FailureModel::none(),
            RoundMode::Initial | RoundMode::Recovery => *self.failures,
        };
        let out = execute_with_failures(
            problem,
            schedule,
            self.sharing,
            self.noise,
            &failures,
            self.base_seed + round as u64,
        );
        RoundExecution {
            served: out.served,
            device_costs: out.device_costs,
            end_positions: out.final_positions,
        }
    }
}

/// Executes `schedule` on the testbed with closed-loop recovery.
///
/// Round 0 replays `schedule` under `noise` + `failures` with `seed`;
/// unserved devices are re-planned with `policy` + `sharing` from where
/// they ended up and re-executed with seed `seed + round`, up to
/// `config.max_rounds` times, then degraded to solo dispatches if
/// `config.degrade`. Deterministic per `seed`.
///
/// # Examples
///
/// ```
/// use ccs_testbed::prelude::*;
/// use ccs_core::prelude::*;
///
/// let problem = field_problem(1);
/// let plan = ccsa(&problem, &EqualShare, CcsaOptions::default());
/// let failures = FailureModel { charger_breakdown_prob: 0.2, device_no_show_prob: 0.1 };
/// let out = recover(
///     &problem,
///     &plan,
///     Policy::Ccsa,
///     &EqualShare,
///     &NoiseModel::field(),
///     &failures,
///     7,
///     &RecoveryConfig::default(),
/// );
/// assert_eq!(out.served_fraction(), 1.0, "degradation guarantees service");
/// ```
#[allow(clippy::too_many_arguments)]
pub fn recover(
    problem: &CcsProblem,
    schedule: &Schedule,
    policy: Policy,
    sharing: &dyn CostSharing,
    noise: &NoiseModel,
    failures: &FailureModel,
    seed: u64,
    config: &RecoveryConfig,
) -> RecoveryOutcome {
    let mut run = FieldRun::new(noise, failures, sharing, seed);
    recover_with(problem, schedule, policy, sharing, &mut run, config)
}

/// A [`LifetimeDriver`] that replays every lifetime round on the testbed
/// under noise and hard failures, optionally with closed-loop recovery.
///
/// Lifetime round `r` replays with seed `base_seed + 1000 * r`; when
/// recovery is enabled, recovery sub-rounds consume `.. + 1000 * r + k`
/// (bounded well below 1000), so every replay in the whole lifetime draws
/// from a distinct, reproducible seed. Devices left unserved keep their
/// depleted batteries and re-request in the next lifetime round.
pub struct TestbedDriver<'a> {
    noise: &'a NoiseModel,
    failures: &'a FailureModel,
    sharing: &'a dyn CostSharing,
    policy: Policy,
    recovery: Option<RecoveryConfig>,
    base_seed: u64,
}

impl std::fmt::Debug for TestbedDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestbedDriver")
            .field("noise", &self.noise)
            .field("failures", &self.failures)
            .field("policy", &self.policy)
            .field("recovery", &self.recovery)
            .field("base_seed", &self.base_seed)
            .finish_non_exhaustive()
    }
}

impl<'a> TestbedDriver<'a> {
    /// A driver replaying with `noise` + `failures`, re-planning recovery
    /// rounds (if `recovery` is set) with `policy` + `sharing`.
    pub fn new(
        noise: &'a NoiseModel,
        failures: &'a FailureModel,
        sharing: &'a dyn CostSharing,
        policy: Policy,
        recovery: Option<RecoveryConfig>,
        base_seed: u64,
    ) -> Self {
        TestbedDriver {
            noise,
            failures,
            sharing,
            policy,
            recovery,
            base_seed,
        }
    }
}

impl LifetimeDriver for TestbedDriver<'_> {
    fn deliver(
        &mut self,
        problem: &CcsProblem,
        schedule: &Schedule,
        round: usize,
    ) -> RoundDelivery {
        let seed = self.base_seed + 1000 * round as u64;
        match &self.recovery {
            Some(config) => {
                let out = recover(
                    problem,
                    schedule,
                    self.policy,
                    self.sharing,
                    self.noise,
                    self.failures,
                    seed,
                    config,
                );
                RoundDelivery {
                    total_cost: out.total_cost(),
                    // Re-dispatches are extra hires.
                    hires: out.rounds.iter().map(|r| r.schedule.groups().len()).sum(),
                    served: out.served,
                }
            }
            None => {
                let out = execute_with_failures(
                    problem,
                    schedule,
                    self.sharing,
                    self.noise,
                    self.failures,
                    seed,
                );
                RoundDelivery {
                    total_cost: out.total_cost(),
                    hires: schedule.groups().len(),
                    served: out.served,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{field_problem, FIELD_DEVICES};
    use crate::sim::execute;
    use ccs_core::prelude::*;

    fn harsh() -> FailureModel {
        FailureModel {
            charger_breakdown_prob: 0.2,
            device_no_show_prob: 0.1,
        }
    }

    /// Finds a seed where the unrecovered baseline actually drops devices,
    /// so "recovery strictly improves" is a meaningful comparison.
    fn seed_with_failures(problem: &CcsProblem, plan: &Schedule) -> u64 {
        let noise = NoiseModel::field();
        (0..100)
            .find(|&seed| {
                let out = execute_with_failures(problem, plan, &EqualShare, &noise, &harsh(), seed);
                out.served.iter().any(|s| !s)
            })
            .expect("a 20%/10% failure model must drop someone in 100 seeds")
    }

    #[test]
    fn recovery_strictly_improves_served_fraction() {
        let problem = field_problem(1);
        let plan = ccsa(&problem, &EqualShare, CcsaOptions::default());
        let noise = NoiseModel::field();
        let seed = seed_with_failures(&problem, &plan);

        let baseline = execute_with_failures(&problem, &plan, &EqualShare, &noise, &harsh(), seed);
        let baseline_frac =
            baseline.served.iter().filter(|s| **s).count() as f64 / baseline.served.len() as f64;

        let out = recover(
            &problem,
            &plan,
            Policy::Ccsa,
            &EqualShare,
            &noise,
            &harsh(),
            seed,
            &RecoveryConfig {
                max_rounds: 3,
                degrade: true,
            },
        );
        assert!(
            out.served_fraction() > baseline_frac,
            "recovery {} must beat baseline {}",
            out.served_fraction(),
            baseline_frac
        );
        assert_eq!(out.served_fraction(), 1.0, "degradation serves everyone");
        assert_eq!(out.served.len(), FIELD_DEVICES);
        assert!(out.recovery_rounds() >= 1);
        // Round 0 is the baseline replay, bit for bit.
        let round0 = &out.rounds[0].execution;
        assert_eq!(round0.served, baseline.served);
        assert_eq!(round0.device_costs, baseline.device_costs);
        assert_eq!(round0.end_positions, baseline.final_positions);
    }

    #[test]
    fn recovery_is_deterministic_per_seed() {
        let problem = field_problem(2);
        let plan = ccsga(&problem, &EqualShare, CcsgaOptions::default()).schedule;
        let noise = NoiseModel::field();
        let run = || {
            recover(
                &problem,
                &plan,
                Policy::Ccsga,
                &EqualShare,
                &noise,
                &harsh(),
                11,
                &RecoveryConfig::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // A different seed resamples the failures.
        let c = recover(
            &problem,
            &plan,
            Policy::Ccsga,
            &EqualShare,
            &noise,
            &harsh(),
            12,
            &RecoveryConfig::default(),
        );
        assert!(
            a.rounds.len() != c.rounds.len() || a != c,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn no_failures_is_a_strict_noop() {
        let problem = field_problem(3);
        let plan = ccsa(&problem, &EqualShare, CcsaOptions::default());
        let noise = NoiseModel::field();
        let seed = 5;
        let plain = execute(&problem, &plan, &EqualShare, &noise, seed);
        let out = recover(
            &problem,
            &plan,
            Policy::Ccsa,
            &EqualShare,
            &noise,
            &FailureModel::none(),
            seed,
            &RecoveryConfig::default(),
        );
        assert_eq!(out.recovery_rounds(), 0, "no failures, no extra rounds");
        assert!(!out.degraded);
        // Round 0 reproduces `execute` exactly.
        let round0 = &out.rounds[0].execution;
        assert_eq!(round0.served, plain.served);
        assert_eq!(round0.device_costs, plain.device_costs);
        assert_eq!(round0.end_positions, plain.final_positions);
        assert_eq!(out.device_costs, plain.device_costs);
        assert_eq!(out.served_fraction(), 1.0);
    }

    #[test]
    fn lifetime_on_the_testbed_recovers_unserved_requests() {
        let scenario = crate::field::field_scenario(9);
        let noise = NoiseModel::field();
        let failures = FailureModel {
            charger_breakdown_prob: 0.4,
            device_no_show_prob: 0.2,
        };
        let policy = Policy::Ccsa;
        let config = LifetimeConfig {
            rounds: 8,
            ..Default::default()
        };

        let mut faulty = TestbedDriver::new(&noise, &failures, &EqualShare, policy, None, 100);
        let dropped = run_lifetime_with(&scenario, &EqualShare, policy, &config, &mut faulty);
        assert!(
            dropped.unserved_requests > 0,
            "a 40%/20% failure model must drop requests over 8 rounds"
        );

        let mut recovering = TestbedDriver::new(
            &noise,
            &failures,
            &EqualShare,
            policy,
            Some(RecoveryConfig::default()),
            100,
        );
        let healed = run_lifetime_with(&scenario, &EqualShare, policy, &config, &mut recovering);
        assert_eq!(
            healed.unserved_requests, 0,
            "recovery with degradation serves every request"
        );
        assert!(healed.energy_purchased >= dropped.energy_purchased);
    }

    #[test]
    fn degraded_rounds_ignore_the_failure_model() {
        let problem = field_problem(4);
        let plan = ccsa(&problem, &EqualShare, CcsaOptions::default());
        let noise = NoiseModel::field();
        // Certain breakdown: no recovery round can ever serve anyone, only
        // the degraded round (which drops the failure model) can.
        let certain = FailureModel {
            charger_breakdown_prob: 1.0,
            device_no_show_prob: 0.0,
        };
        let out = recover(
            &problem,
            &plan,
            Policy::Ccsa,
            &EqualShare,
            &noise,
            &certain,
            0,
            &RecoveryConfig {
                max_rounds: 2,
                degrade: true,
            },
        );
        assert!(out.degraded);
        assert_eq!(out.served_fraction(), 1.0);
        assert_eq!(out.rounds.len(), 4, "initial + 2 recoveries + degraded");
        assert!(out
            .rounds
            .iter()
            .take(3)
            .all(|r| r.execution.served.iter().all(|s| !s)));
    }
}
