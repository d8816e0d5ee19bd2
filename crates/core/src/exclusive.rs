//! Exclusive-charger scheduling: at most one hire per provider.
//!
//! The default CCS service model lets a provider serve several groups
//! sequentially. Some deployments forbid that (one dispatch per provider
//! per round); this module retrofits any schedule to that regime by
//! re-assigning groups to *distinct* chargers at minimum total group cost —
//! an assignment problem solved exactly by the Hungarian algorithm
//! implemented in [`hungarian`].
//!
//! The `abl_exclusive` experiment quantifies the price of exclusivity.

use crate::cost::evaluate_facility;
use crate::problem::CcsProblem;
use crate::schedule::{GroupPlan, Schedule};
use crate::sharing::CostSharing;
use std::fmt;

/// Error from [`enforce_exclusivity`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExclusivityError {
    /// More groups than chargers: no injective assignment exists.
    NotEnoughChargers {
        /// Groups in the schedule.
        groups: usize,
        /// Chargers available.
        chargers: usize,
    },
}

impl fmt::Display for ExclusivityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExclusivityError::NotEnoughChargers { groups, chargers } => write!(
                f,
                "{groups} groups cannot be exclusively assigned to {chargers} chargers"
            ),
        }
    }
}

impl std::error::Error for ExclusivityError {}

/// Exact minimum-cost assignment for an `n × m` cost matrix (`n <= m`):
/// returns, for each row, the column it is assigned to, minimizing the
/// total cost. Runs the classic `O(n² m)` Hungarian algorithm with
/// potentials (the "shortest augmenting path" formulation).
///
/// # Panics
///
/// Panics if the matrix is empty, ragged, has more rows than columns, or
/// contains non-finite entries.
pub fn hungarian(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    assert!(n > 0, "empty assignment problem");
    let m = cost[0].len();
    assert!(
        cost.iter().all(|row| row.len() == m),
        "cost matrix is ragged"
    );
    assert!(n <= m, "more rows ({n}) than columns ({m})");
    assert!(
        cost.iter().flatten().all(|c| c.is_finite()),
        "costs must be finite"
    );

    // 1-indexed arrays per the classical formulation.
    let inf = f64::INFINITY;
    let mut u = vec![0.0; n + 1];
    let mut v = vec![0.0; m + 1];
    let mut way = vec![0usize; m + 1];
    // p[j] = row assigned to column j (0 = none).
    let mut p = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    debug_assert!(assignment.iter().all(|&a| a != usize::MAX));
    assignment
}

/// Re-assigns the groups of `schedule` to pairwise-distinct chargers at
/// minimum total group cost (group memberships are kept; each group's
/// gathering point is re-optimized for its new charger).
///
/// # Examples
///
/// ```
/// use ccs_core::prelude::*;
/// use ccs_wrsn::scenario::ScenarioGenerator;
///
/// let problem = CcsProblem::new(ScenarioGenerator::new(1).devices(8).chargers(6).generate());
/// let shared = ccsa(&problem, &EqualShare, CcsaOptions::default());
/// let exclusive = enforce_exclusivity(&problem, &shared, &EqualShare)?;
/// assert_eq!(exclusive.chargers_used(), exclusive.groups().len());
/// # Ok::<(), ccs_core::exclusive::ExclusivityError>(())
/// ```
///
/// # Errors
///
/// Returns [`ExclusivityError::NotEnoughChargers`] when the schedule has
/// more groups than the problem has chargers.
pub fn enforce_exclusivity(
    problem: &CcsProblem,
    schedule: &Schedule,
    sharing: &dyn CostSharing,
) -> Result<Schedule, ExclusivityError> {
    let groups = schedule.groups();
    let m = problem.num_chargers();
    if groups.len() > m {
        return Err(ExclusivityError::NotEnoughChargers {
            groups: groups.len(),
            chargers: m,
        });
    }

    // Price every (group, charger) pair at that charger's best point.
    let tables = problem.tables();
    let facilities: Vec<Vec<_>> = groups
        .iter()
        .map(|g| {
            problem
                .scenario()
                .charger_ids()
                .map(|c| {
                    let point = tables
                        .cached_gathering_point(problem, c, &g.members, |_| false)
                        .expect("a solve without a cutoff is never abandoned");
                    evaluate_facility(problem, c, &g.members, point)
                })
                .collect()
        })
        .collect();
    // Budget-infeasible (group, charger) pairs get a huge-but-finite
    // penalty so the Hungarian algorithm avoids them whenever possible.
    const INFEASIBLE_PENALTY: f64 = 1e12;
    let cost: Vec<Vec<f64>> = groups
        .iter()
        .zip(&facilities)
        .map(|(g, row)| {
            row.iter()
                .map(|f| {
                    if problem.charger_can_serve(f.charger, &g.members) {
                        f.group_cost().value()
                    } else {
                        INFEASIBLE_PENALTY
                    }
                })
                .collect()
        })
        .collect();

    let assignment = hungarian(&cost);
    if assignment
        .iter()
        .enumerate()
        .any(|(gi, &j)| cost[gi][j] >= INFEASIBLE_PENALTY)
    {
        // Exclusivity + budgets admit no feasible injective assignment.
        return Err(ExclusivityError::NotEnoughChargers {
            groups: groups.len(),
            chargers: m,
        });
    }
    let plans = groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let chosen = facilities[gi][assignment[gi]].clone();
            GroupPlan::from_facility(problem, g.members.clone(), chosen, sharing)
        })
        .collect();

    let exclusive = Schedule::new(plans, "exclusive", sharing.name());
    debug_assert!(exclusive.validate(problem).is_ok());
    Ok(exclusive)
}

/// Number of distinct chargers hired by a schedule, as a fraction of its
/// groups — `1.0` means fully exclusive already.
pub fn exclusivity_ratio(schedule: &Schedule) -> f64 {
    if schedule.groups().is_empty() {
        return 1.0;
    }
    schedule.chargers_used() as f64 / schedule.groups().len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{ccsa, noncooperation, CcsaOptions};
    use crate::sharing::EqualShare;
    use ccs_wrsn::scenario::ScenarioGenerator;
    use ccs_wrsn::units::Cost;

    #[test]
    fn hungarian_identity_matrix() {
        // Diagonal zeros: identity assignment.
        let cost = vec![
            vec![0.0, 9.0, 9.0],
            vec![9.0, 0.0, 9.0],
            vec![9.0, 9.0, 0.0],
        ];
        assert_eq!(hungarian(&cost), vec![0, 1, 2]);
    }

    #[test]
    fn hungarian_classic_3x3() {
        // A standard textbook instance: optimum is 1->2, 2->0, 3->1 (cost 5).
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = hungarian(&cost);
        let total: f64 = a.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        assert_eq!(total, 5.0);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2], "assignment is a permutation");
    }

    #[test]
    fn hungarian_rectangular_picks_cheap_columns() {
        let cost = vec![vec![5.0, 1.0, 7.0, 3.0], vec![5.0, 2.0, 7.0, 1.0]];
        let a = hungarian(&cost);
        let total: f64 = a.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        assert_eq!(total, 2.0, "rows take columns 1 and 3");
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn hungarian_matches_brute_force_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for _ in 0..30 {
            let n = rng.gen_range(1..=5);
            let m = rng.gen_range(n..=6);
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect();
            let a = hungarian(&cost);
            let total: f64 = a.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            let best = brute_force_assignment(&cost);
            assert!(
                (total - best).abs() < 1e-9,
                "hungarian {total} vs brute {best} on {cost:?}"
            );
        }
    }

    fn brute_force_assignment(cost: &[Vec<f64>]) -> f64 {
        fn rec(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>) -> f64 {
            if row == cost.len() {
                return 0.0;
            }
            let mut best = f64::INFINITY;
            for j in 0..cost[0].len() {
                if !used[j] {
                    used[j] = true;
                    best = best.min(cost[row][j] + rec(cost, row + 1, used));
                    used[j] = false;
                }
            }
            best
        }
        rec(cost, 0, &mut vec![false; cost[0].len()])
    }

    #[test]
    #[should_panic(expected = "more rows")]
    fn hungarian_rejects_tall_matrices() {
        let _ = hungarian(&[vec![1.0], vec![2.0]]);
    }

    #[test]
    fn exclusivity_enforced_on_real_schedules() {
        let p = CcsProblem::new(ScenarioGenerator::new(5).devices(12).chargers(6).generate());
        let base = ccsa(&p, &EqualShare, CcsaOptions::default());
        let exclusive = enforce_exclusivity(&p, &base, &EqualShare).unwrap();
        exclusive.validate(&p).unwrap();
        assert_eq!(exclusive.groups().len(), base.groups().len());
        assert_eq!(
            exclusive.chargers_used(),
            exclusive.groups().len(),
            "every group gets its own charger"
        );
        assert_eq!(exclusivity_ratio(&exclusive), 1.0);
        // Exclusivity is a constraint: it can only cost more.
        assert!(exclusive.total_cost() >= base.total_cost() - Cost::new(1e-6));
    }

    #[test]
    fn too_many_groups_is_an_error() {
        let p = CcsProblem::new(ScenarioGenerator::new(5).devices(8).chargers(2).generate());
        let solo = noncooperation(&p, &EqualShare); // 8 groups, 2 chargers
        let err = enforce_exclusivity(&p, &solo, &EqualShare).unwrap_err();
        assert_eq!(
            err,
            ExclusivityError::NotEnoughChargers {
                groups: 8,
                chargers: 2
            }
        );
        assert!(err.to_string().contains("exclusively"));
    }
}
