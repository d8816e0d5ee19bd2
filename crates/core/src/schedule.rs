//! Schedules: the output of every CCS algorithm.
//!
//! A [`Schedule`] partitions the devices into [`GroupPlan`]s, each with a
//! hired charger, a gathering point, the itemized bill, the member shares
//! under the active cost-sharing scheme, and per-member moving costs.
//! [`Schedule::validate`] re-checks the partition and budget-balance
//! invariants against the problem; algorithms call it in debug builds and
//! integration tests call it on every produced schedule.

use crate::cost::{FacilityChoice, GroupBill};
use crate::problem::CcsProblem;
use crate::sharing::CostSharing;
use ccs_wrsn::entities::{ChargerId, DeviceId};
use ccs_wrsn::geometry::Point;
use ccs_wrsn::units::Cost;
use std::fmt;

/// One group of a schedule.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct GroupPlan {
    /// The hired charger.
    pub charger: ChargerId,
    /// Where the group gathers.
    pub gathering_point: Point,
    /// The members, in ascending id order.
    pub members: Vec<DeviceId>,
    /// Itemized bill (energy entries aligned with `members`).
    pub bill: GroupBill,
    /// Bill shares per member (aligned with `members`).
    pub shares: Vec<Cost>,
    /// Moving cost per member (aligned with `members`).
    pub moving: Vec<Cost>,
}

impl GroupPlan {
    /// Builds a plan from a facility choice plus a sharing scheme.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or unsorted.
    pub fn from_facility(
        problem: &CcsProblem,
        members: Vec<DeviceId>,
        facility: FacilityChoice,
        sharing: &dyn CostSharing,
    ) -> Self {
        assert!(!members.is_empty(), "a group needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted and distinct"
        );
        let shares = sharing.shares(
            problem,
            facility.charger,
            &members,
            &facility.point,
            &facility.bill,
        );
        GroupPlan {
            charger: facility.charger,
            gathering_point: facility.point,
            members,
            bill: facility.bill,
            shares,
            moving: facility.moving,
        }
    }

    /// Comprehensive cost of the member at local index `idx`.
    pub fn member_cost(&self, idx: usize) -> Cost {
        self.shares[idx] + self.moving[idx]
    }

    /// Group cost: bill total plus all moving costs.
    pub fn group_cost(&self) -> Cost {
        self.bill.total() + self.moving.iter().copied().sum::<Cost>()
    }
}

/// A complete schedule for one round.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Schedule {
    groups: Vec<GroupPlan>,
    algorithm: &'static str,
    sharing: &'static str,
}

/// Validation failure of a schedule against a problem.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A device appears in no group or in more than one.
    NotAPartition {
        /// The offending device.
        device: DeviceId,
        /// How many groups it appeared in.
        occurrences: usize,
    },
    /// A group exceeds the configured size cap.
    GroupTooLarge {
        /// Index of the offending group.
        group: usize,
        /// Its size.
        size: usize,
    },
    /// A group's shares do not sum to its bill.
    NotBudgetBalanced {
        /// Index of the offending group.
        group: usize,
        /// |Σ shares − bill|.
        gap: Cost,
    },
    /// A gathering point lies outside the field.
    PointOutOfField {
        /// Index of the offending group.
        group: usize,
    },
    /// A group's total demand exceeds its charger's per-hire energy budget.
    ChargerOverBudget {
        /// Index of the offending group.
        group: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotAPartition {
                device,
                occurrences,
            } => {
                write!(f, "device {device} scheduled {occurrences} times")
            }
            ScheduleError::GroupTooLarge { group, size } => {
                write!(f, "group {group} has {size} members, over the cap")
            }
            ScheduleError::NotBudgetBalanced { group, gap } => {
                write!(f, "group {group} shares miss the bill by {gap}")
            }
            ScheduleError::PointOutOfField { group } => {
                write!(f, "group {group} gathers outside the field")
            }
            ScheduleError::ChargerOverBudget { group } => {
                write!(f, "group {group} exceeds its charger's energy budget")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Assembles a schedule.
    pub fn new(groups: Vec<GroupPlan>, algorithm: &'static str, sharing: &'static str) -> Self {
        Schedule {
            groups,
            algorithm,
            sharing,
        }
    }

    /// The groups.
    pub fn groups(&self) -> &[GroupPlan] {
        &self.groups
    }

    /// Name of the algorithm that produced this schedule.
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// Name of the cost-sharing scheme in force.
    pub fn sharing(&self) -> &'static str {
        self.sharing
    }

    /// Total comprehensive cost over all devices (= total bills + total
    /// moving, by budget balance).
    pub fn total_cost(&self) -> Cost {
        self.groups.iter().map(|g| g.group_cost()).sum()
    }

    /// Average comprehensive cost per device, or `None` for an empty
    /// schedule (no groups, or only memberless groups).
    ///
    /// Long-running surfaces (the `ccs-serve` daemon, the experiment
    /// harness) call this form so a degenerate request yields a structured
    /// error instead of a process abort.
    pub fn try_average_cost(&self) -> Option<Cost> {
        let n: usize = self.groups.iter().map(|g| g.members.len()).sum();
        if n == 0 {
            return None;
        }
        Some(self.total_cost() / n as f64)
    }

    /// Average comprehensive cost per device.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty; see [`Schedule::try_average_cost`]
    /// for the fallible form.
    pub fn average_cost(&self) -> Cost {
        self.try_average_cost()
            .expect("empty schedule has no average")
    }

    /// Comprehensive cost of one device (share + own moving cost).
    ///
    /// Returns `None` if the device is not scheduled.
    pub fn device_cost(&self, device: DeviceId) -> Option<Cost> {
        for g in &self.groups {
            if let Ok(idx) = g.members.binary_search(&device) {
                return Some(g.member_cost(idx));
            }
        }
        None
    }

    /// Comprehensive cost of every device, indexed by `DeviceId::index()`.
    ///
    /// Unscheduled devices (invalid schedules only) get `Cost::ZERO`.
    pub fn device_costs(&self, n: usize) -> Vec<Cost> {
        let mut out = vec![Cost::ZERO; n];
        for g in &self.groups {
            for (idx, &d) in g.members.iter().enumerate() {
                out[d.index()] = g.member_cost(idx);
            }
        }
        out
    }

    /// Number of distinct chargers hired.
    pub fn chargers_used(&self) -> usize {
        let mut ids: Vec<ChargerId> = self.groups.iter().map(|g| g.charger).collect();
        ids.sort();
        ids.dedup();
        ids.len()
    }

    /// Checks the schedule against the problem's invariants.
    ///
    /// # Errors
    ///
    /// See [`ScheduleError`] — partition coverage, group-size cap, budget
    /// balance of every group's shares (to within rounding of the bill),
    /// and in-field gathering points.
    pub fn validate(&self, problem: &CcsProblem) -> Result<(), ScheduleError> {
        let n = problem.num_devices();
        let mut seen = vec![0usize; n];
        for (gi, g) in self.groups.iter().enumerate() {
            if !problem.group_size_ok(g.members.len()) {
                return Err(ScheduleError::GroupTooLarge {
                    group: gi,
                    size: g.members.len(),
                });
            }
            if !problem.scenario().field().contains(&g.gathering_point) {
                return Err(ScheduleError::PointOutOfField { group: gi });
            }
            if !problem.charger_can_serve(g.charger, &g.members) {
                return Err(ScheduleError::ChargerOverBudget { group: gi });
            }
            let share_sum: Cost = g.shares.iter().copied().sum();
            let bill = g.bill.total();
            let gap = (share_sum - bill).abs();
            if gap > budget_tolerance(bill, g.members.len()) {
                return Err(ScheduleError::NotBudgetBalanced { group: gi, gap });
            }
            for &d in &g.members {
                seen[d.index()] += 1;
            }
        }
        for (i, &count) in seen.iter().enumerate() {
            if count != 1 {
                return Err(ScheduleError::NotAPartition {
                    device: DeviceId::new(i as u32),
                    occurrences: count,
                });
            }
        }
        Ok(())
    }
}

/// The largest gap between a group's share sum and its bill that
/// [`Schedule::validate`] accepts: `1e-6`, or `1024·(k + 1)·ε` of the bill
/// for `k` members where that is larger. Every scheme computes each share
/// from terms of the bill's magnitude and the validator sums `k` of them,
/// so rounding leaves a gap of a few ulps of the bill per member (exact
/// Shapley's subset differences leave the most); a fixed gap alone rejects
/// valid plans once bills pass about `1e9`. Any real imbalance, say a share
/// off by `1e-3` of the bill, stays far outside it.
fn budget_tolerance(bill: Cost, members: usize) -> Cost {
    let rounding = bill.value().abs() * (members as f64 + 1.0) * 1024.0 * f64::EPSILON;
    Cost::new(rounding.max(1e-6))
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} schedule ({} sharing), {} groups, total cost {:.2}",
            self.algorithm,
            self.sharing,
            self.groups.len(),
            self.total_cost().value()
        )?;
        for (i, g) in self.groups.iter().enumerate() {
            write!(
                f,
                "  group {i}: charger {} at {} members [",
                g.charger, g.gathering_point
            )?;
            for (k, d) in g.members.iter().enumerate() {
                if k > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{d}")?;
            }
            writeln!(f, "] bill {:.2}", g.bill.total().value())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::best_facility;
    use crate::sharing::EqualShare;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn problem(n: usize) -> CcsProblem {
        CcsProblem::new(ScenarioGenerator::new(5).devices(n).chargers(3).generate())
    }

    fn plan(p: &CcsProblem, devs: &[u32]) -> GroupPlan {
        let members: Vec<DeviceId> = devs.iter().map(|&i| DeviceId::new(i)).collect();
        let f = best_facility(p, &members);
        GroupPlan::from_facility(p, members, f, &EqualShare)
    }

    #[test]
    fn valid_schedule_passes_validation() {
        let p = problem(5);
        let s = Schedule::new(
            vec![plan(&p, &[0, 1]), plan(&p, &[2]), plan(&p, &[3, 4])],
            "test",
            "equal",
        );
        s.validate(&p).unwrap();
        assert_eq!(s.groups().len(), 3);
        assert!(s.total_cost() > Cost::ZERO);
        assert!(s.average_cost() > Cost::ZERO);
        assert!(s.chargers_used() >= 1);
    }

    #[test]
    fn missing_device_fails_validation() {
        let p = problem(4);
        let s = Schedule::new(vec![plan(&p, &[0, 1]), plan(&p, &[2])], "test", "equal");
        assert_eq!(
            s.validate(&p).unwrap_err(),
            ScheduleError::NotAPartition {
                device: DeviceId::new(3),
                occurrences: 0
            }
        );
    }

    #[test]
    fn duplicated_device_fails_validation() {
        let p = problem(3);
        let s = Schedule::new(vec![plan(&p, &[0, 1]), plan(&p, &[1, 2])], "test", "equal");
        assert!(matches!(
            s.validate(&p).unwrap_err(),
            ScheduleError::NotAPartition { occurrences: 2, .. }
        ));
    }

    #[test]
    fn oversized_group_fails_validation() {
        let scenario = ScenarioGenerator::new(5).devices(4).chargers(2).generate();
        let p = CcsProblem::with_params(
            scenario,
            crate::problem::CostParams {
                max_group_size: Some(2),
                ..Default::default()
            },
        );
        let s = Schedule::new(vec![plan(&p, &[0, 1, 2]), plan(&p, &[3])], "test", "equal");
        assert!(matches!(
            s.validate(&p).unwrap_err(),
            ScheduleError::GroupTooLarge { size: 3, .. }
        ));
    }

    #[test]
    fn tampered_shares_fail_budget_balance() {
        let p = problem(2);
        let mut g = plan(&p, &[0, 1]);
        g.shares[0] += Cost::new(1.0);
        let s = Schedule::new(vec![g], "test", "equal");
        assert!(matches!(
            s.validate(&p).unwrap_err(),
            ScheduleError::NotBudgetBalanced { .. }
        ));
    }

    #[test]
    fn budget_balance_allows_rounding_but_not_imbalance_at_any_scale() {
        use crate::sharing::all_schemes;
        for side in [1e2, 1e100, 1e200] {
            let p = CcsProblem::new(
                ScenarioGenerator::new(5)
                    .devices(8)
                    .chargers(3)
                    .field_side(side)
                    .generate(),
            );
            let members: Vec<DeviceId> = (0..5).map(DeviceId::new).collect();
            let singles: Vec<GroupPlan> = (5..8).map(|i| plan(&p, &[i])).collect();
            for scheme in all_schemes() {
                let f = best_facility(&p, &members);
                let group = GroupPlan::from_facility(&p, members.clone(), f, scheme.as_ref());
                let schedule = |g: GroupPlan| {
                    let mut groups = vec![g];
                    groups.extend(singles.iter().cloned());
                    Schedule::new(groups, "test", scheme.name())
                };
                schedule(group.clone())
                    .validate(&p)
                    .unwrap_or_else(|e| panic!("side {side:e}, {}: {e}", scheme.name()));
                let mut tampered = group;
                tampered.shares[0] += tampered.bill.total() * 1e-3;
                assert!(
                    matches!(
                        schedule(tampered).validate(&p),
                        Err(ScheduleError::NotBudgetBalanced { group: 0, .. })
                    ),
                    "side {side:e}, {}: a share off by 1e-3 of the bill passed",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn device_costs_align_with_member_costs() {
        let p = problem(4);
        let s = Schedule::new(vec![plan(&p, &[0, 2]), plan(&p, &[1, 3])], "test", "equal");
        let costs = s.device_costs(4);
        for i in 0..4u32 {
            assert_eq!(costs[i as usize], s.device_cost(DeviceId::new(i)).unwrap());
        }
        assert_eq!(s.device_cost(DeviceId::new(7)), None);
        // Totals agree.
        let total: Cost = costs.iter().copied().sum();
        assert!((total - s.total_cost()).abs() < Cost::new(1e-9));
    }

    #[test]
    fn display_mentions_algorithm_and_groups() {
        let p = problem(2);
        let s = Schedule::new(vec![plan(&p, &[0, 1])], "ccsa", "equal");
        let text = s.to_string();
        assert!(text.contains("ccsa"));
        assert!(text.contains("group 0"));
    }

    #[test]
    fn try_average_cost_handles_empty_schedules() {
        let p = problem(2);
        let s = Schedule::new(vec![plan(&p, &[0, 1])], "test", "equal");
        assert_eq!(s.try_average_cost(), Some(s.average_cost()));
        let empty = Schedule::new(Vec::new(), "test", "equal");
        assert_eq!(empty.try_average_cost(), None);
    }

    #[test]
    #[should_panic(expected = "empty schedule has no average")]
    fn average_cost_panics_on_empty_schedule() {
        let _ = Schedule::new(Vec::new(), "test", "equal").average_cost();
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn unsorted_members_panic() {
        let p = problem(3);
        let members = vec![DeviceId::new(2), DeviceId::new(0)];
        let f = best_facility(&p, &members);
        let _ = GroupPlan::from_facility(&p, members, f, &EqualShare);
    }
}
