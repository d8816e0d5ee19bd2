//! CLU — the spatial-clustering baseline.
//!
//! A natural heuristic this literature compares against: cluster devices
//! by position (Lloyd's k-means with one cluster per charger), make each
//! cluster a group, and hire each group's best facility. Clustering sees
//! geography but is blind to the *economics* — fees, prices, congestion,
//! movement rates — so CCSA/CCSGA should beat it whenever those matter,
//! which is exactly what the sweeps show.
//!
//! Clusters that violate the group-size cap or every charger's energy
//! budget are split recursively (2-means) until feasible.

use crate::cost::best_facility;
use crate::problem::CcsProblem;
use crate::schedule::{GroupPlan, Schedule};
use crate::sharing::CostSharing;
use ccs_wrsn::entities::DeviceId;
use ccs_wrsn::geometry::{kmeans, Point};

/// Lloyd iterations of the top-level k-means.
const LLOYD_ITERATIONS: usize = 100;

/// Runs the clustering baseline: one k-means cluster per charger.
pub fn clustering(problem: &CcsProblem, sharing: &dyn CostSharing) -> Schedule {
    let k = problem.num_chargers();
    let positions: Vec<Point> = problem
        .scenario()
        .devices()
        .iter()
        .map(|d| d.position())
        .collect();
    let assignment = kmeans(&positions, k, LLOYD_ITERATIONS);

    // Collect nonempty clusters as sorted member lists.
    let mut clusters: Vec<Vec<DeviceId>> = vec![Vec::new(); k.min(positions.len())];
    for (i, &c) in assignment.iter().enumerate() {
        clusters[c].push(DeviceId::new(i as u32));
    }
    clusters.retain(|c| !c.is_empty());

    // Enforce feasibility by recursive spatial splitting.
    let mut feasible: Vec<Vec<DeviceId>> = Vec::new();
    for cluster in clusters {
        split_to_feasible(problem, cluster, &mut feasible);
    }

    // Each cluster's facility scan is independent; price them as one
    // order-preserving `ccs-par` batch through the pruned kernel path.
    for members in feasible.iter_mut() {
        members.sort();
    }
    let mut plans: Vec<GroupPlan> = ccs_par::par_map(&feasible, |_, members| {
        let facility = best_facility(problem, members);
        GroupPlan::from_facility(problem, members.clone(), facility, sharing)
    });
    plans.sort_by_key(|g| g.members[0]);

    let schedule = Schedule::new(plans, "clu", sharing.name());
    debug_assert!(schedule.validate(problem).is_ok());
    schedule
}

/// Recursively splits an infeasible cluster by 2-means until every piece
/// fits the size cap and some charger's energy budget. Terminates because
/// singletons are feasible (validated at problem construction) and every
/// split strictly shrinks the pieces.
fn split_to_feasible(problem: &CcsProblem, cluster: Vec<DeviceId>, out: &mut Vec<Vec<DeviceId>>) {
    if problem.feasible_group(cluster.iter().copied()) {
        out.push(cluster);
        return;
    }
    debug_assert!(cluster.len() > 1, "singletons are always feasible");
    let positions: Vec<Point> = cluster
        .iter()
        .map(|&d| problem.device(d).position())
        .collect();
    let halves = kmeans(&positions, 2, 50);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (i, &d) in cluster.iter().enumerate() {
        if halves[i] == 0 {
            a.push(d);
        } else {
            b.push(d);
        }
    }
    // Co-located points can defeat 2-means; fall back to an even split.
    if a.is_empty() || b.is_empty() {
        let mid = cluster.len() / 2;
        a = cluster[..mid].to_vec();
        b = cluster[mid..].to_vec();
    }
    split_to_feasible(problem, a, out);
    split_to_feasible(problem, b, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{ccsa, noncooperation, CcsaOptions};
    use crate::problem::CostParams;
    use crate::sharing::EqualShare;
    use ccs_wrsn::scenario::{ParamRange, ScenarioGenerator};
    use ccs_wrsn::units::Cost;

    fn problem(seed: u64, n: usize, m: usize) -> CcsProblem {
        CcsProblem::new(
            ScenarioGenerator::new(seed)
                .devices(n)
                .chargers(m)
                .generate(),
        )
    }

    #[test]
    fn produces_valid_schedules() {
        for seed in [1, 2, 3] {
            let p = problem(seed, 20, 5);
            let s = clustering(&p, &EqualShare);
            s.validate(&p).unwrap();
            assert_eq!(s.algorithm(), "clu");
            assert!(s.groups().len() <= 20);
        }
    }

    #[test]
    fn usually_beats_ncp_but_not_ccsa() {
        let mut beats_ncp = 0;
        let mut loses_to_ccsa = 0;
        for seed in 1..=6 {
            let p = problem(seed, 24, 6);
            let clu = clustering(&p, &EqualShare);
            let solo = noncooperation(&p, &EqualShare);
            let coop = ccsa(&p, &EqualShare, CcsaOptions::default());
            if clu.total_cost() < solo.total_cost() {
                beats_ncp += 1;
            }
            if coop.total_cost() <= clu.total_cost() + Cost::new(1e-6) {
                loses_to_ccsa += 1;
            }
        }
        assert!(
            beats_ncp >= 5,
            "clustering shares fees: {beats_ncp}/6 wins vs NCP"
        );
        assert!(
            loses_to_ccsa >= 5,
            "economics-aware CCSA beats geometry-only clustering: {loses_to_ccsa}/6"
        );
    }

    #[test]
    fn respects_group_size_cap_via_splitting() {
        let scenario = ScenarioGenerator::new(4).devices(15).chargers(2).generate();
        let p = CcsProblem::with_params(
            scenario,
            CostParams {
                max_group_size: Some(3),
                ..Default::default()
            },
        );
        let s = clustering(&p, &EqualShare);
        s.validate(&p).unwrap();
        assert!(s.groups().iter().all(|g| g.members.len() <= 3));
    }

    #[test]
    fn respects_energy_budgets_via_splitting() {
        let scenario = ScenarioGenerator::new(5)
            .devices(12)
            .chargers(3)
            .charger_energy_budget_range(ParamRange::new(9_000.0, 12_000.0))
            .generate();
        let p = CcsProblem::new(scenario);
        let s = clustering(&p, &EqualShare);
        s.validate(&p).unwrap();
    }
}
