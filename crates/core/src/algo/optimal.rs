//! Exact optimal CCS scheduling via set-partition dynamic programming.
//!
//! `dp[mask]` is the optimal total group cost of scheduling exactly the
//! devices in `mask`. Each state is solved by splitting off the group that
//! contains the lowest-indexed unscheduled device and recursing on the
//! rest, so every partition is enumerated exactly once: `O(3^n)` subset
//! pairs, with each group priced once by
//! [`best_facility`](crate::cost::best_facility). Exponential —
//! guarded to small `n` — but exact, which is what the paper's
//! "7.3% above optimal on average" comparison needs.

use crate::cost::{try_best_facility, FacilityChoice};
use crate::problem::CcsProblem;
use crate::schedule::{GroupPlan, Schedule};
use crate::sharing::CostSharing;
use ccs_wrsn::entities::DeviceId;
use std::fmt;

/// [`optimal`] refuses instances with more devices than this: the DP is
/// `O(3^n)`.
const MAX_DEVICES: usize = 16;

/// Error from [`optimal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimalError {
    /// The instance exceeds the size guard.
    TooLarge {
        /// Devices in the instance.
        devices: usize,
        /// The cap (16 devices).
        cap: usize,
    },
}

impl fmt::Display for OptimalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimalError::TooLarge { devices, cap } => write!(
                f,
                "optimal DP is exponential: {devices} devices exceeds the cap of {cap}"
            ),
        }
    }
}

impl std::error::Error for OptimalError {}

/// Computes the exact optimal schedule.
///
/// # Examples
///
/// ```
/// use ccs_core::prelude::*;
/// use ccs_wrsn::scenario::ScenarioGenerator;
///
/// let problem = CcsProblem::new(ScenarioGenerator::new(1).devices(6).chargers(3).generate());
/// let exact = optimal(&problem, &EqualShare)?;
/// let approx = ccsa(&problem, &EqualShare, CcsaOptions::default());
/// assert!(exact.total_cost() <= approx.total_cost());
/// # Ok::<(), ccs_core::algo::OptimalError>(())
/// ```
///
/// # Errors
///
/// Returns [`OptimalError::TooLarge`] beyond 16 devices.
pub fn optimal(problem: &CcsProblem, sharing: &dyn CostSharing) -> Result<Schedule, OptimalError> {
    let n = problem.num_devices();
    if n > MAX_DEVICES {
        return Err(OptimalError::TooLarge {
            devices: n,
            cap: MAX_DEVICES,
        });
    }

    // Price every admissible group once.
    let full = (1usize << n) - 1;
    let mut facility: Vec<Option<FacilityChoice>> = vec![None; full + 1];
    let mut cost = vec![f64::INFINITY; full + 1];
    for mask in 1..=full {
        let size = mask.count_ones() as usize;
        if !problem.group_size_ok(size) {
            continue;
        }
        let members = members_of(mask);
        // Groups no charger can serve stay at infinite cost and are never
        // chosen; singleton feasibility (validated at problem construction)
        // keeps the DP total finite.
        if let Some(f) = try_best_facility(problem, &members) {
            cost[mask] = f.group_cost().value();
            facility[mask] = Some(f);
        }
    }

    // dp over masks; choice[mask] remembers the group split off.
    let mut dp = vec![f64::INFINITY; full + 1];
    let mut choice = vec![0usize; full + 1];
    dp[0] = 0.0;
    for mask in 1..=full {
        let lsb = mask & mask.wrapping_neg();
        // Enumerate submasks of `mask` containing its lowest set bit.
        let rest = mask ^ lsb;
        let mut sub = rest;
        loop {
            let group = sub | lsb;
            if cost[group].is_finite() {
                let candidate = cost[group] + dp[mask ^ group];
                if candidate < dp[mask] {
                    dp[mask] = candidate;
                    choice[mask] = group;
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
    }

    // Reconstruct.
    let mut groups = Vec::new();
    let mut mask = full;
    while mask != 0 {
        let group = choice[mask];
        debug_assert!(group != 0, "dp must cover every mask");
        let members = members_of(group);
        let f = facility[group]
            .clone()
            .expect("admissible group was priced");
        groups.push(GroupPlan::from_facility(problem, members, f, sharing));
        mask ^= group;
    }
    groups.reverse();

    let schedule = Schedule::new(groups, "opt", sharing.name());
    debug_assert!(schedule.validate(problem).is_ok());
    Ok(schedule)
}

fn members_of(mask: usize) -> Vec<DeviceId> {
    (0..usize::BITS as usize)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| DeviceId::new(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::noncoop::noncooperation;
    use crate::cost::best_facility;
    use crate::problem::CostParams;
    use crate::sharing::EqualShare;
    use ccs_wrsn::scenario::ScenarioGenerator;
    use ccs_wrsn::units::Cost;

    fn problem(seed: u64, n: usize) -> CcsProblem {
        CcsProblem::new(
            ScenarioGenerator::new(seed)
                .devices(n)
                .chargers(3)
                .generate(),
        )
    }

    #[test]
    fn rejects_large_instances() {
        let p = problem(1, 20);
        let err = optimal(&p, &EqualShare).unwrap_err();
        assert!(matches!(
            err,
            OptimalError::TooLarge {
                devices: 20,
                cap: 16
            }
        ));
        assert!(err.to_string().contains("exponential"));
    }

    #[test]
    fn optimal_is_valid_and_beats_ncp() {
        for seed in [1, 2, 3, 4] {
            let p = problem(seed, 7);
            let opt = optimal(&p, &EqualShare).unwrap();
            opt.validate(&p).unwrap();
            let ncp = noncooperation(&p, &EqualShare);
            assert!(
                opt.total_cost() <= ncp.total_cost() + Cost::new(1e-6),
                "seed {seed}: OPT {} must not exceed NCP {}",
                opt.total_cost(),
                ncp.total_cost()
            );
        }
    }

    #[test]
    fn optimal_beats_exhaustive_random_partitions() {
        // Sanity: OPT at n=5 must beat 50 random partitions.
        use rand::{Rng, SeedableRng};
        let p = problem(8, 5);
        let opt = optimal(&p, &EqualShare).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        for _ in 0..50 {
            // Random assignment of 5 devices to up to 3 groups.
            let mut groups: Vec<Vec<DeviceId>> = vec![Vec::new(); 3];
            for d in 0..5u32 {
                let g = rng.gen_range(0..3);
                groups[g].push(DeviceId::new(d));
            }
            let total: Cost = groups
                .iter()
                .filter(|g| !g.is_empty())
                .map(|g| best_facility(&p, g).group_cost())
                .sum();
            assert!(opt.total_cost() <= total + Cost::new(1e-6));
        }
    }

    #[test]
    fn respects_group_size_cap() {
        let scenario = ScenarioGenerator::new(3).devices(6).chargers(2).generate();
        let p = CcsProblem::with_params(
            scenario,
            CostParams {
                max_group_size: Some(2),
                ..Default::default()
            },
        );
        let s = optimal(&p, &EqualShare).unwrap();
        s.validate(&p).unwrap();
        assert!(s.groups().iter().all(|g| g.members.len() <= 2));
    }

    #[test]
    fn single_device_instance() {
        let p = problem(4, 1);
        let s = optimal(&p, &EqualShare).unwrap();
        assert_eq!(s.groups().len(), 1);
        let ncp = noncooperation(&p, &EqualShare);
        assert!((s.total_cost() - ncp.total_cost()).abs() < Cost::new(1e-9));
    }

    #[test]
    fn cooperation_helps_when_fees_are_high() {
        // With high base fees and co-located devices OPT must merge groups.
        use ccs_wrsn::scenario::{ParamRange, Placement};
        let scenario = ScenarioGenerator::new(6)
            .devices(6)
            .chargers(2)
            .field_side(50.0)
            .device_placement(Placement::Clustered {
                count: 1,
                sigma: 2.0,
            })
            .base_fee_range(ParamRange::fixed(50.0))
            .generate();
        let p = CcsProblem::new(scenario);
        let opt = optimal(&p, &EqualShare).unwrap();
        assert!(
            opt.groups().len() < 6,
            "expected merging, got {} singleton groups",
            opt.groups().len()
        );
        let ncp = noncooperation(&p, &EqualShare);
        assert!(opt.total_cost() < ncp.total_cost());
    }
}
