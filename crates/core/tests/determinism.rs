//! Property tests of the determinism guarantee of the parallel evaluation
//! layer: CCSGA partitions and CCSA schedules must be **bit-identical**
//! across `threads ∈ {1, 2, 8}` for random scenarios and seeds.
//!
//! The thread-count knob is process-wide, but because every parallel batch
//! is deterministic, concurrently running tests are unaffected by the knob
//! changing under them — that is exactly the property being verified.

use ccs_core::prelude::*;
use ccs_wrsn::scenario::ScenarioGenerator;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn problem(seed: u64, devices: usize, chargers: usize) -> CcsProblem {
    CcsProblem::new(
        ScenarioGenerator::new(seed)
            .devices(devices)
            .chargers(chargers)
            .generate(),
    )
}

/// Serializes a schedule to canonical JSON: equal strings ⇔ every group,
/// member, facility coordinate, and cost share is bit-identical.
fn schedule_json(s: &ccs_core::schedule::Schedule) -> String {
    serde_json::to_string(s).expect("schedules serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ccsga_partitions_bit_identical_across_thread_counts(
        seed in 0u64..1_000,
        devices in 6usize..16,
        chargers in 2usize..5,
    ) {
        let p = problem(seed, devices, chargers);
        let mut reference: Option<(Vec<Vec<usize>>, String, u64)> = None;
        for &t in &THREAD_COUNTS {
            ccs_par::set_threads(t);
            let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
            ccs_par::set_threads(0);
            let got = (
                out_partition(&out),
                schedule_json(&out.schedule),
                out.schedule.total_cost().value().to_bits(),
            );
            match &reference {
                Some(expected) => prop_assert_eq!(&got, expected),
                None => reference = Some(got),
            }
        }
    }

    #[test]
    fn ccsa_schedules_bit_identical_across_thread_counts(
        seed in 0u64..1_000,
        devices in 6usize..16,
        chargers in 2usize..5,
    ) {
        let p = problem(seed, devices, chargers);
        let mut reference: Option<(String, u64)> = None;
        for &t in &THREAD_COUNTS {
            ccs_par::set_threads(t);
            let s = ccsa(&p, &EqualShare, CcsaOptions::default());
            ccs_par::set_threads(0);
            let got = (schedule_json(&s), s.total_cost().value().to_bits());
            match &reference {
                Some(expected) => prop_assert_eq!(&got, expected),
                None => reference = Some(got),
            }
        }
    }
}

/// The group structure of a CCSGA outcome as sorted member lists.
fn out_partition(out: &ccs_core::algo::ccsga::CcsgaOutcome) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = out
        .schedule
        .groups()
        .iter()
        .map(|g| g.members.iter().map(|d| d.index()).collect())
        .collect();
    groups.sort();
    groups
}

/// Deterministic mock executor for the recovery loop: round `r` fails each
/// device with seeded-RNG probability 0.4 (seed `base + r`), Degraded rounds
/// always serve, nobody moves. Failures are thread-independent by
/// construction; re-planning inside `recover_with` is the part under test.
struct SeededMock {
    base: u64,
}

impl RecoveryExecutor for SeededMock {
    fn execute(
        &mut self,
        problem: &CcsProblem,
        schedule: &Schedule,
        mode: RoundMode,
        round: usize,
    ) -> RoundExecution {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.base + round as u64);
        let n = problem.num_devices();
        let served = (0..n)
            .map(|_| {
                let fails = rng.gen_bool(0.4);
                mode == RoundMode::Degraded || !fails
            })
            .collect();
        let end_positions = (0..n)
            .map(|i| {
                problem
                    .device(ccs_wrsn::entities::DeviceId::new(i as u32))
                    .position()
            })
            .collect();
        RoundExecution {
            served,
            device_costs: schedule.device_costs(n),
            end_positions,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full recovery loop — initial plan, residual re-plans, degraded
    /// fallback — must produce a bit-identical `RecoveryOutcome` at any
    /// thread count.
    #[test]
    fn recovery_outcomes_bit_identical_across_thread_counts(
        seed in 0u64..1_000,
        devices in 6usize..16,
        chargers in 2usize..5,
    ) {
        let p = problem(seed, devices, chargers);
        let policy = Policy::Ccsga;
        let mut reference: Option<(RecoveryOutcome, u64)> = None;
        for &t in &THREAD_COUNTS {
            ccs_par::set_threads(t);
            let initial = policy.plan(&p, &EqualShare);
            let out = recover_with(
                &p,
                &initial,
                policy,
                &EqualShare,
                &mut SeededMock { base: seed },
                &RecoveryConfig { max_rounds: 2, degrade: true },
            );
            ccs_par::set_threads(0);
            let bits = out.total_cost().value().to_bits();
            let got = (out, bits);
            match &reference {
                Some(expected) => {
                    prop_assert_eq!(&got.1, &expected.1);
                    prop_assert!(got.0 == expected.0, "outcome diverged at {} threads", t);
                }
                None => reference = Some(got),
            }
            prop_assert_eq!(reference.as_ref().unwrap().0.served_fraction(), 1.0);
        }
    }
}

/// The general SFM machinery must agree with itself across thread counts
/// too (it drives the Dinkelbach ablation paths).
#[test]
fn dinkelbach_mnp_ccsa_variant_is_thread_invariant() {
    let p = problem(42, 12, 3);
    let mut reference: Option<String> = None;
    for &t in &THREAD_COUNTS {
        ccs_par::set_threads(t);
        let s = ccsa(
            &p,
            &EqualShare,
            CcsaOptions {
                minimizer: InnerMinimizer::DinkelbachMnp,
                ..Default::default()
            },
        );
        ccs_par::set_threads(0);
        let got = schedule_json(&s);
        match &reference {
            Some(expected) => assert_eq!(&got, expected, "threads = {t} diverged"),
            None => reference = Some(got),
        }
    }
}
