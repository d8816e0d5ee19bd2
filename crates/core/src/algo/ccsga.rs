//! CCSGA — the coalition-formation game algorithm for large-scale CCS.
//!
//! The CCS instance induces a hedonic game: a device's cost inside a
//! coalition is its bill share (under the active cost-sharing scheme) at
//! the coalition's best facility, plus its own moving cost to that
//! facility's gathering point. Devices perform selfish switch operations
//! (with the no-revisit history that makes the dynamics acyclic — see
//! `ccs-coalition`) until no admissible improving switch remains; the
//! resulting partition is checked for pure Nash stability and converted to
//! a schedule.
//!
//! Each coalition composition's charger, gathering point and member costs
//! are memoized in a thread-safe [`Memo`] shared across rounds, so the game
//! engine's many repeated evaluations stay cheap — including when the
//! engine's best-response scan evaluates candidate moves in parallel
//! (`ccs-par`). Cache effectiveness is visible in run reports as
//! `cache.hits` / `cache.misses`.

use crate::cost::{best_facility, evaluate_facility, try_best_facility_anchored};
use crate::problem::CcsProblem;
use crate::schedule::{GroupPlan, Schedule};
use crate::sharing::CostSharing;
use ccs_coalition::engine::{run, EngineOptions, SwitchRule};
use ccs_coalition::game::HedonicGame;
use ccs_coalition::memo::Memo;
use ccs_coalition::partition::Partition;
use ccs_wrsn::entities::{ChargerId, DeviceId};
use ccs_wrsn::geometry::Point;
use std::sync::Arc;

/// Options for [`ccsga`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcsgaOptions {
    /// The switch rule (default: the paper's selfish-with-history).
    pub rule: SwitchRule,
    /// Round cap forwarded to the engine (`0` = engine default).
    pub max_rounds: usize,
    /// Scale mode: cap each device's candidate joins to the coalitions of
    /// its nearest neighbors (via the device spatial grid) instead of
    /// scanning every coalition. `0` (the default) keeps the exact full
    /// scan; the paper-size outputs are bitwise unaffected. A positive cap
    /// (e.g. 8) makes each best-response `O(cap)` — the knob that keeps
    /// `n = 10k` runs sub-second.
    pub neighbor_cap: usize,
    /// Whether to run the final Nash-stability audit (an extra
    /// `O(n · coalitions)` pass). Default `true`; turn off at large `n`
    /// where the audit dwarfs the dynamics. When off,
    /// [`CcsgaOutcome::nash_stable`] reads `false` ("not verified").
    pub check_stability: bool,
}

impl Default for CcsgaOptions {
    fn default() -> Self {
        CcsgaOptions {
            rule: SwitchRule::SelfishWithHistory,
            max_rounds: 0,
            neighbor_cap: 0,
            check_stability: true,
        }
    }
}

/// Outcome of a CCSGA run: the schedule plus game-dynamics diagnostics.
#[derive(Debug, Clone)]
pub struct CcsgaOutcome {
    /// The final schedule.
    pub schedule: Schedule,
    /// Full engine rounds executed.
    pub rounds: usize,
    /// Switch operations applied.
    pub switches: usize,
    /// Whether the dynamics reached a fixed point within the round cap.
    pub converged: bool,
    /// Whether the final partition is a pure Nash equilibrium. Always
    /// `false` when the audit was skipped via
    /// [`CcsgaOptions::check_stability`] — "not verified", not "unstable".
    pub nash_stable: bool,
}

/// The hedonic game induced by a CCS instance and a sharing scheme.
///
/// Caches each coalition composition's [`CachedCoalition`] under its
/// sorted member list in a thread-safe [`Memo`], so the engine's parallel
/// candidate batches share the memo and re-pricing survives across rounds.
struct CcsGame<'a> {
    problem: &'a CcsProblem,
    sharing: &'a dyn CostSharing,
    cache: Memo<Box<[usize]>, Arc<CachedCoalition>>,
}

/// What the game reads back about a priced composition: the winning
/// facility and each member's cost there. The itemized bill is not kept;
/// the final groups rebuild it from the charger and the point.
struct CachedCoalition {
    /// The hired charger.
    charger: ChargerId,
    /// The gathering point.
    point: Point,
    /// Each member's `(share + moving).value()`, aligned with the sorted
    /// member ids — exactly what [`HedonicGame::player_cost`] returns.
    costs: Box<[f64]>,
}

impl<'a> CcsGame<'a> {
    fn new(problem: &'a CcsProblem, sharing: &'a dyn CostSharing) -> Self {
        CcsGame {
            problem,
            sharing,
            cache: Memo::new(),
        }
    }

    /// Evaluates a coalition (a sorted member slice) through the memo, so
    /// a warm composition costs one sharded hash lookup and nothing else;
    /// each probe counts in `cache.hits` or `cache.misses`. A miss is
    /// priced outside any lock. `newcomer` names the member that was just
    /// added to an existing composition, if any; see
    /// [`price`](Self::price) for how it anchors a miss. The cached result
    /// is bitwise independent of the hint, so two threads that miss the
    /// same composition store the same value.
    fn evaluate(&self, members: &[usize], newcomer: Option<usize>) -> Arc<CachedCoalition> {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "key must be sorted"
        );
        if let Some(hit) = self.cache.get(members, Arc::clone) {
            ccs_telemetry::counter!("cache.hits").incr();
            return hit;
        }
        ccs_telemetry::counter!("cache.misses").incr();
        let priced = Arc::new(self.price(members, newcomer));
        self.cache.insert(members.into(), Arc::clone(&priced));
        priced
    }

    /// Prices a composition from scratch (the cache-miss path). On a miss,
    /// the cached base coalition's charger anchors the pruned scan: it is
    /// evaluated first, so the scan's threshold is an achieved cost from
    /// the start and most other chargers prune on their lower bound alone.
    /// The result is bitwise independent of whether a hint was available
    /// (see [`try_best_facility_anchored`]).
    fn price(&self, key: &[usize], newcomer: Option<usize>) -> CachedCoalition {
        let members: Vec<DeviceId> = key.iter().map(|&i| DeviceId::new(i as u32)).collect();
        let anchor = newcomer.and_then(|p| {
            let base_key: Vec<usize> = key.iter().copied().filter(|&q| q != p).collect();
            if base_key.is_empty() {
                return None;
            }
            self.cache.get(&base_key[..], |base| base.charger)
        });
        let facility = match anchor {
            Some(c) => try_best_facility_anchored(self.problem, &members, c)
                .expect("no charger's energy budget covers this group's demand"),
            None => best_facility(self.problem, &members),
        };
        let shares = self.sharing.shares(
            self.problem,
            facility.charger,
            &members,
            &facility.point,
            &facility.bill,
        );
        let costs = shares
            .iter()
            .zip(&facility.moving)
            .map(|(&share, &moving)| (share + moving).value())
            .collect();
        CachedCoalition {
            charger: facility.charger,
            point: facility.point,
            costs,
        }
    }
}

impl HedonicGame for CcsGame<'_> {
    fn num_players(&self) -> usize {
        self.problem.num_devices()
    }

    /// On a warm composition this is one sharded hash lookup plus a binary
    /// search — no key `Vec`, no `DeviceId` buffer.
    fn player_cost(&self, player: usize, coalition: &[usize]) -> f64 {
        let cached = self.evaluate(coalition, Some(player));
        let idx = coalition
            .binary_search(&player)
            .expect("player must be a member");
        cached.costs[idx]
    }

    /// [`CcsProblem::feasible_group`] straight off the index slice.
    fn coalition_feasible(&self, coalition: &[usize]) -> bool {
        self.problem
            .feasible_group(coalition.iter().map(|&i| DeviceId::new(i as u32)))
    }

    /// Nearest devices first, from the precomputed device grid: rings are
    /// expanded until the ring bound proves the `limit` collected devices
    /// are the true nearest, then sorted by exact `(distance, id)`. Pure
    /// function of the instance — deterministic at any thread count.
    fn neighbor_order(&self, player: usize, limit: usize, out: &mut Vec<usize>) -> bool {
        let tables = self.problem.tables();
        let grid = tables.device_grid();
        if grid.len() <= 1 || limit == 0 {
            return false;
        }
        if tables.cached_neighbor_order(player as u32, limit as u32, out) {
            return true;
        }
        let pos = |id: u32| self.problem.device(DeviceId::new(id)).position();
        let from = pos(player as u32);
        let by_distance_then_id =
            |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let mut found: Vec<(f64, u32)> = Vec::new();
        let mut cursor = grid.rings_from(from);
        let mut ring = Vec::new();
        while let Some(lb) = cursor.next_ring(&mut ring) {
            if found.len() >= limit {
                found.sort_unstable_by(by_distance_then_id);
                if lb > found[limit - 1].0 {
                    break;
                }
            }
            for &id in &ring {
                if id as usize != player {
                    found.push((from.distance_value(&pos(id)), id));
                }
            }
            ring.clear();
        }
        found.sort_unstable_by(by_distance_then_id);
        found.truncate(limit);
        let start = out.len();
        out.extend(found.iter().map(|&(_, id)| id as usize));
        tables.store_neighbor_order(player as u32, limit as u32, &out[start..]);
        true
    }
}

/// Runs CCSGA and returns the schedule plus convergence diagnostics.
///
/// # Examples
///
/// ```
/// use ccs_core::prelude::*;
/// use ccs_wrsn::scenario::ScenarioGenerator;
///
/// let problem = CcsProblem::new(ScenarioGenerator::new(1).devices(8).chargers(3).generate());
/// let outcome = ccsga(&problem, &EqualShare, CcsgaOptions::default());
/// assert!(outcome.converged);
/// assert!(outcome.nash_stable, "no device can gain by deviating alone");
/// outcome.schedule.validate(&problem)?;
/// # Ok::<(), ccs_core::schedule::ScheduleError>(())
/// ```
pub fn ccsga(
    problem: &CcsProblem,
    sharing: &dyn CostSharing,
    options: CcsgaOptions,
) -> CcsgaOutcome {
    let _span = ccs_telemetry::span!("ccsga");
    if problem.num_devices() == 0 {
        // No players, no game: the empty schedule is a fixed point.
        return CcsgaOutcome {
            schedule: Schedule::new(Vec::new(), "ccsga", sharing.name()),
            rounds: 0,
            switches: 0,
            converged: true,
            nash_stable: options.check_stability,
        };
    }
    let game = CcsGame::new(problem, sharing);
    // The dynamics start from the "before cooperation" state: every device
    // alone.
    let report = run(
        &game,
        Partition::singletons(problem.num_devices()),
        EngineOptions {
            rule: options.rule,
            max_rounds: options.max_rounds,
            shortlist_cap: options.neighbor_cap,
            check_stability: options.check_stability,
        },
    );

    let mut plans: Vec<GroupPlan> = report
        .partition
        .coalitions()
        .map(|(_, members)| {
            let ids: Vec<DeviceId> = members.iter().map(|&i| DeviceId::new(i as u32)).collect();
            // The dynamics priced the final coalitions — reuse the memo's
            // charger and point instead of re-running the charger scan. On
            // a miss the composition is priced the way a `player_cost`
            // probe of its first member would price it; the result does not
            // depend on the hint. `evaluate_facility` is the call that
            // built the scan's winner, so the bill is bitwise the one
            // priced there.
            let cached = game.evaluate(members, Some(members[0]));
            let facility = evaluate_facility(problem, cached.charger, &ids, cached.point);
            GroupPlan::from_facility(problem, ids, facility, sharing)
        })
        .collect();
    plans.sort_by_key(|g| g.members[0]);
    ccs_telemetry::counter!("ccsga.coalition_cache_entries").add(game.cache.len() as u64);

    let schedule = Schedule::new(plans, "ccsga", sharing.name());
    debug_assert!(schedule.validate(problem).is_ok());
    CcsgaOutcome {
        schedule,
        rounds: report.rounds,
        switches: report.switches,
        converged: report.converged,
        nash_stable: report.nash_stable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::noncoop::{noncooperation, solo_cost};
    use crate::problem::CostParams;
    use crate::sharing::{EqualShare, ProportionalShare};
    use ccs_wrsn::scenario::{ParamRange, Placement, ScenarioGenerator};
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
    fn converges_and_is_valid() {
        for seed in [1, 2, 3] {
            let p = problem(seed, 15, 4);
            let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
            out.schedule.validate(&p).unwrap();
            assert!(out.converged, "seed {seed} did not converge");
            assert_eq!(out.schedule.algorithm(), "ccsga");
        }
    }

    #[test]
    fn reaches_pure_nash_equilibrium() {
        for seed in [1, 2, 3, 4, 5] {
            let p = problem(seed, 12, 4);
            let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
            assert!(
                out.nash_stable,
                "seed {seed}: final partition is not Nash-stable"
            );
        }
    }

    #[test]
    fn beats_noncooperation_from_singletons() {
        // Starting from singletons, every switch strictly improves the
        // mover; with a Nash-stable end no device pays more than solo.
        for seed in [1, 2, 3, 4] {
            let p = problem(seed, 15, 4);
            let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
            let ncp = noncooperation(&p, &EqualShare);
            assert!(
                out.schedule.total_cost() <= ncp.total_cost() + Cost::new(1e-6),
                "seed {seed}: ccsga {} vs ncp {}",
                out.schedule.total_cost(),
                ncp.total_cost()
            );
        }
    }

    /// Every set partition of `{0, .., n-1}`, from the restricted-growth
    /// strings `a` with `a[0] = 0` and `a[i] ≤ 1 + max(a[..i])`: player `i`
    /// joins group `a[i]`.
    fn set_partitions(n: usize) -> Vec<Vec<Vec<usize>>> {
        let mut out = Vec::new();
        let mut a = vec![0usize; n];
        loop {
            let mut groups = vec![Vec::new(); a.iter().max().map_or(0, |&m| m + 1)];
            for (i, &g) in a.iter().enumerate() {
                groups[g].push(i);
            }
            out.push(groups);
            // The next string: raise the last position that can still grow
            // and reset the ones after it.
            let Some(i) = (1..n).rev().find(|&i| a[..i].iter().any(|&b| b >= a[i])) else {
                return out;
            };
            a[i] += 1;
            a[i + 1..].fill(0);
        }
    }

    /// The no-revisit history guarantees termination, not stability. On
    /// this instance, where spatial costs dominate the fees, no switch
    /// rule can end Nash-stable: none of the 203 partitions of its 6
    /// devices is a Nash equilibrium, so the dynamics stop at a partition
    /// the audit reports as not Nash-stable.
    #[test]
    fn seed_33_has_no_nash_stable_partition() {
        let p = CcsProblem::new(
            ScenarioGenerator::new(33)
                .devices(6)
                .chargers(3)
                .field_side(1e4)
                .generate(),
        );
        let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
        out.schedule.validate(&p).unwrap();
        assert!(out.converged);
        assert!(!out.nash_stable);
        assert_eq!((out.switches, out.rounds), (36, 9));

        let game = CcsGame::new(&p, &EqualShare);
        let partitions = set_partitions(p.num_devices());
        assert_eq!(partitions.len(), 203, "the Bell number B(6)");
        for groups in &partitions {
            let partition = Partition::from_groups(p.num_devices(), groups);
            assert!(
                !ccs_coalition::stability::is_nash_stable(&game, &partition, 1e-9),
                "{partition} is Nash-stable"
            );
        }
    }

    #[test]
    fn nash_stability_implies_individual_rationality() {
        let p = problem(6, 12, 4);
        let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
        assert!(out.nash_stable);
        for d in p.scenario().device_ids() {
            let cost = out.schedule.device_cost(d).unwrap();
            assert!(
                cost <= solo_cost(&p, d) + Cost::new(1e-6),
                "device {d} pays {cost} over solo"
            );
        }
    }

    #[test]
    fn high_fees_trigger_cooperation() {
        let scenario = ScenarioGenerator::new(4)
            .devices(10)
            .chargers(3)
            .field_side(80.0)
            .device_placement(Placement::Clustered {
                count: 2,
                sigma: 4.0,
            })
            .base_fee_range(ParamRange::fixed(50.0))
            .generate();
        let p = CcsProblem::new(scenario);
        let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
        assert!(out.switches > 0, "high fees must cause switches");
        assert!(out.schedule.groups().len() < 10);
    }

    #[test]
    fn proportional_sharing_also_converges() {
        let p = problem(2, 12, 3);
        let out = ccsga(&p, &ProportionalShare, CcsgaOptions::default());
        out.schedule.validate(&p).unwrap();
        assert!(out.converged);
        assert_eq!(out.schedule.sharing(), "proportional");
    }

    #[test]
    fn respects_group_size_cap() {
        let scenario = ScenarioGenerator::new(8).devices(12).chargers(3).generate();
        let p = CcsProblem::with_params(
            scenario,
            CostParams {
                max_group_size: Some(2),
                ..Default::default()
            },
        );
        let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
        out.schedule.validate(&p).unwrap();
        assert!(out.schedule.groups().iter().all(|g| g.members.len() <= 2));
    }

    #[test]
    fn skipping_the_stability_audit_keeps_the_schedule_identical() {
        let p = problem(1, 15, 4);
        let audited = ccsga(&p, &EqualShare, CcsgaOptions::default());
        let skipped = ccsga(
            &p,
            &EqualShare,
            CcsgaOptions {
                check_stability: false,
                ..Default::default()
            },
        );
        assert_eq!(
            serde_json::to_string(&skipped.schedule).unwrap(),
            serde_json::to_string(&audited.schedule).unwrap(),
            "the audit must not influence the dynamics"
        );
        assert!(audited.nash_stable);
        assert!(!skipped.nash_stable, "skipped audit reads as unverified");
    }

    #[test]
    fn neighbor_cap_scale_mode_stays_valid_and_rational() {
        // The shortlist is an approximation: it must still produce a valid,
        // individually-rational schedule that beats noncooperation.
        for seed in [1, 2, 3] {
            let p = problem(seed, 20, 5);
            let out = ccsga(
                &p,
                &EqualShare,
                CcsgaOptions {
                    neighbor_cap: 4,
                    check_stability: false,
                    ..Default::default()
                },
            );
            out.schedule.validate(&p).unwrap();
            assert!(out.converged, "seed {seed} did not converge");
            let ncp = noncooperation(&p, &EqualShare);
            assert!(
                out.schedule.total_cost() <= ncp.total_cost() + Cost::new(1e-6),
                "seed {seed}: capped ccsga {} vs ncp {}",
                out.schedule.total_cost(),
                ncp.total_cost()
            );
        }
    }

    #[test]
    fn generous_neighbor_cap_matches_the_exact_scan() {
        // A cap covering every other device shortlists every coalition, so
        // the trajectory — and the schedule bytes — match the full scan.
        let p = problem(2, 12, 4);
        let exact = ccsga(&p, &EqualShare, CcsgaOptions::default());
        let capped = ccsga(
            &p,
            &EqualShare,
            CcsgaOptions {
                neighbor_cap: 12,
                ..Default::default()
            },
        );
        assert_eq!(
            serde_json::to_string(&capped.schedule).unwrap(),
            serde_json::to_string(&exact.schedule).unwrap()
        );
        assert_eq!(capped.switches, exact.switches);
    }

    /// A deserialized scenario may list no devices (the builders refuse
    /// one). CCSGA then plans nothing, as the other algorithms do.
    #[test]
    fn a_fleet_without_devices_gets_the_empty_schedule() {
        use serde::{value::Value, Deserialize, Serialize};
        let mut value = ScenarioGenerator::new(1)
            .devices(3)
            .chargers(2)
            .generate()
            .to_value();
        let Value::Object(top) = &mut value else {
            panic!("a scenario is a JSON object")
        };
        top.insert("devices".to_string(), Value::Array(Vec::new()));
        let p = CcsProblem::new(ccs_wrsn::scenario::Scenario::from_value(&value).unwrap());
        let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
        out.schedule.validate(&p).unwrap();
        assert!(out.schedule.groups().is_empty());
        assert_eq!(out.schedule.total_cost(), Cost::ZERO);
        assert_eq!(
            (out.switches, out.rounds, out.converged, out.nash_stable),
            (0, 0, true, true)
        );
    }

    #[test]
    fn utilitarian_rule_variant_runs() {
        let p = problem(5, 10, 3);
        let out = ccsga(
            &p,
            &EqualShare,
            CcsgaOptions {
                rule: SwitchRule::Utilitarian,
                ..Default::default()
            },
        );
        out.schedule.validate(&p).unwrap();
        assert!(out.converged);
        let ncp = noncooperation(&p, &EqualShare);
        assert!(out.schedule.total_cost() <= ncp.total_cost() + Cost::new(1e-6));
    }
}
