//! Cooperative-game analysis of schedules: does the cost allocation
//! *sustain cooperation* in the formal sense?
//!
//! The paper motivates its cost-sharing schemes as the glue that keeps
//! devices cooperating. Game theory has two standard formalizations, both
//! checked here:
//!
//! * **individual rationality** — no device pays more than its solo cost
//!   ([`individual_rationality_violations`]);
//! * **core stability** — no *coalition* of devices (possibly spanning
//!   several scheduled groups) could defect together, hire its own best
//!   facility, and pay less in total than its members' current allocation
//!   ([`find_blocking_coalition`], exponential, guarded to small `n`).
//!
//! The `fig11_sharing` experiment uses the IR check; core stability is the
//! stronger notion exercised by `tests/` on small instances.

use crate::algo::noncoop::solo_cost;
use crate::cost::best_facility;
use crate::problem::CcsProblem;
use crate::schedule::Schedule;
use ccs_wrsn::entities::DeviceId;
use ccs_wrsn::units::Cost;

/// A coalition that would be better off defecting from the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingCoalition {
    /// The defectors, ascending.
    pub members: Vec<DeviceId>,
    /// What they currently pay in total under the schedule.
    pub current_total: Cost,
    /// What they would pay hiring their own best facility.
    pub defection_total: Cost,
}

impl BlockingCoalition {
    /// How much the defectors save, as a fraction of their current total.
    pub fn relative_gain(&self) -> f64 {
        1.0 - self.defection_total / self.current_total
    }
}

/// Devices whose scheduled comprehensive cost exceeds their solo cost by
/// more than `eps` (empty under the CCSA/CCSGA defaults — both enforce it).
pub fn individual_rationality_violations(
    problem: &CcsProblem,
    schedule: &Schedule,
    eps: Cost,
) -> Vec<DeviceId> {
    problem
        .scenario()
        .device_ids()
        .filter(|&d| match schedule.device_cost(d) {
            Some(cost) => cost > solo_cost(problem, d) + eps,
            None => true, // unscheduled counts as violated
        })
        .collect()
}

/// Largest instance [`find_blocking_coalition`] accepts (it enumerates all
/// `2^n` coalitions and prices each one).
pub const MAX_CORE_CHECK_DEVICES: usize = 16;

/// Searches for a blocking coalition: a nonempty device set `T` whose best
/// standalone facility costs strictly less (by `eps`) than what `T`'s
/// members currently pay under `schedule`. Returns the *most profitable*
/// blocking coalition, or `None` if the allocation is core-stable.
///
/// # Panics
///
/// Panics if the instance exceeds [`MAX_CORE_CHECK_DEVICES`] devices, or if
/// the schedule does not cover every device.
pub fn find_blocking_coalition(
    problem: &CcsProblem,
    schedule: &Schedule,
    eps: Cost,
) -> Option<BlockingCoalition> {
    let n = problem.num_devices();
    assert!(
        n <= MAX_CORE_CHECK_DEVICES,
        "core check is exponential; {n} devices exceeds the cap of {MAX_CORE_CHECK_DEVICES}"
    );
    let current: Vec<Cost> = problem
        .scenario()
        .device_ids()
        .map(|d| {
            schedule
                .device_cost(d)
                .expect("schedule must cover every device")
        })
        .collect();

    let mut best: Option<BlockingCoalition> = None;
    for mask in 1u32..(1 << n) {
        let members: Vec<DeviceId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| DeviceId::new(i as u32))
            .collect();
        if !problem.group_size_ok(members.len()) {
            continue;
        }
        let current_total: Cost = members.iter().map(|d| current[d.index()]).sum();
        let defection_total = best_facility(problem, &members).group_cost();
        if defection_total < current_total - eps {
            let candidate = BlockingCoalition {
                members,
                current_total,
                defection_total,
            };
            let better = match &best {
                Some(b) => {
                    candidate.current_total - candidate.defection_total
                        > b.current_total - b.defection_total
                }
                None => true,
            };
            if better {
                best = Some(candidate);
            }
        }
    }
    best
}

/// Whether the schedule's allocation is core-stable (no blocking coalition).
///
/// # Panics
///
/// Same guards as [`find_blocking_coalition`].
pub fn is_core_stable(problem: &CcsProblem, schedule: &Schedule, eps: Cost) -> bool {
    find_blocking_coalition(problem, schedule, eps).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{ccsa, noncooperation, optimal, CcsaOptions};
    use crate::sharing::{all_schemes, EqualShare};
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn problem(seed: u64, n: usize) -> CcsProblem {
        CcsProblem::new(
            ScenarioGenerator::new(seed)
                .devices(n)
                .chargers(3)
                .generate(),
        )
    }

    #[test]
    fn ccsa_has_no_ir_violations() {
        for seed in 1..=5 {
            let p = problem(seed, 10);
            let s = ccsa(&p, &EqualShare, CcsaOptions::default());
            assert!(
                individual_rationality_violations(&p, &s, Cost::new(1e-6)).is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn ncp_is_trivially_individually_rational() {
        let p = problem(2, 8);
        let s = noncooperation(&p, &EqualShare);
        assert!(individual_rationality_violations(&p, &s, Cost::new(1e-6)).is_empty());
    }

    #[test]
    fn ncp_is_usually_blocked_by_a_grand_coalition() {
        // Solo hiring leaves the whole fee amortization on the table, so
        // some coalition almost always blocks it.
        let mut blocked = 0;
        for seed in 1..=5 {
            let p = problem(seed, 8);
            let s = noncooperation(&p, &EqualShare);
            if let Some(b) = find_blocking_coalition(&p, &s, Cost::new(1e-6)) {
                blocked += 1;
                assert!(b.members.len() >= 2, "a singleton cannot block NCP");
                assert!(b.defection_total < b.current_total);
                assert!(b.relative_gain() > 0.0);
            }
        }
        assert!(blocked >= 4, "only {blocked}/5 NCP schedules were blocked");
    }

    #[test]
    fn optimal_allocations_have_small_blocking_gains() {
        // OPT minimizes total cost, so no coalition can gain more than the
        // sharing scheme's misallocation within groups; gains, when they
        // exist, are small relative to the allocation.
        for seed in 1..=3 {
            let p = problem(seed, 8);
            let s = optimal(&p, &EqualShare).unwrap();
            if let Some(b) = find_blocking_coalition(&p, &s, Cost::new(1e-6)) {
                assert!(
                    b.relative_gain() < 0.5,
                    "seed {seed}: implausibly large blocking gain {:.2}",
                    b.relative_gain()
                );
            }
        }
    }

    #[test]
    fn core_stability_summary_across_schemes() {
        // At minimum the check must run for every scheme and agree with
        // find_blocking_coalition.
        let p = problem(7, 8);
        for scheme in all_schemes() {
            let s = ccsa(&p, scheme.as_ref(), CcsaOptions::default());
            let stable = is_core_stable(&p, &s, Cost::new(1e-6));
            assert_eq!(
                stable,
                find_blocking_coalition(&p, &s, Cost::new(1e-6)).is_none(),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "core check is exponential")]
    fn core_check_rejects_large_instances() {
        let p = problem(1, 20);
        let s = noncooperation(&p, &EqualShare);
        let _ = find_blocking_coalition(&p, &s, Cost::ZERO);
    }
}
