//! CCSA — the paper's approximation algorithm: greedy facility commitment
//! driven by submodular minimum-density search.
//!
//! One *facility* is a `(charger, gathering point)` pair; candidate points
//! are the unscheduled device positions, the charger depots and a coarse
//! field grid. For a fixed facility the group cost over a member set `S`
//! is the separable submodular function
//!
//! ```text
//! f(S) = [b_j + τ_j·d(q_j,p)]·1[S≠∅] + Σ_{i∈S} (π_j·w_i + κ_i·d(p_i,p)) + η_j·g(|S|)
//! ```
//!
//! Each greedy round finds, over all facilities, the nonempty member set
//! with the **minimum per-member cost** `f(S)/|S|` — a submodular
//! minimum-ratio problem — commits the winner, removes its members, and
//! repeats. This is the classical greedy for submodular set cover, giving
//! the `H_n` approximation bound the paper's "approximation algorithm"
//! framing refers to.
//!
//! Three inner minimizers implement the density search (the `abl_sfm`
//! ablation): an exact `O(n log n)` prefix scan exploiting separability
//! (production default), exact Dinkelbach + Fujishige–Wolfe min-norm-point
//! SFM (the paper's generic machinery), and a cheap greedy heuristic.
//!
//! After commitment each group's gathering point is re-optimized with the
//! problem's strategy (Weiszfeld by default), and an optional
//! individual-rationality repair ejects any member that would pay more than
//! its solo cost — the cooperation guarantee the paper's cost-sharing
//! schemes are designed to sustain.

use crate::algo::noncoop::solo_cost;
use crate::cost::{best_facility, evaluate_facility, try_best_facility_anchored, FacilityChoice};
use crate::grid::UniformGrid;
use crate::problem::CcsProblem;
use crate::schedule::{GroupPlan, Schedule};
use crate::sharing::CostSharing;
use ccs_submodular::density::{min_density_mnp, min_density_separable};
use ccs_submodular::minimize::SeparableFn;
use ccs_submodular::set_fn::SetFunction;
use ccs_wrsn::entities::{ChargerId, DeviceId};
use ccs_wrsn::geometry::Point;
use ccs_wrsn::units::Cost;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which engine solves the per-facility minimum-density subproblem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InnerMinimizer {
    /// Exact `O(n log n)` prefix scan over sorted weights (default).
    #[default]
    PrefixScan,
    /// Exact Dinkelbach ratio search with the separable SFM oracle.
    DinkelbachSeparable,
    /// Exact Dinkelbach ratio search with Fujishige–Wolfe min-norm-point
    /// SFM (the fully general machinery; slowest).
    DinkelbachMnp,
    /// Greedy accretion heuristic (cheapest-first; may be suboptimal).
    GreedyAccretion,
}

/// Options for [`ccsa`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcsaOptions {
    /// Inner density minimizer.
    pub minimizer: InnerMinimizer,
    /// Re-optimize each committed group's gathering point with the
    /// problem's strategy.
    pub refine_gathering: bool,
    /// Eject members that pay more than their solo cost (individual
    /// rationality repair).
    pub ir_repair: bool,
    /// After the greedy commitments, run a bounded single-device
    /// reassignment descent on total group cost (strictly improving moves
    /// only).
    pub local_improvement: bool,
}

impl Default for CcsaOptions {
    fn default() -> Self {
        CcsaOptions {
            minimizer: InnerMinimizer::PrefixScan,
            refine_gathering: true,
            ir_repair: true,
            local_improvement: true,
        }
    }
}

/// Runs CCSA and returns its schedule.
///
/// # Examples
///
/// ```
/// use ccs_core::prelude::*;
/// use ccs_wrsn::scenario::ScenarioGenerator;
///
/// let problem = CcsProblem::new(ScenarioGenerator::new(1).devices(8).chargers(3).generate());
/// let schedule = ccsa(&problem, &EqualShare, CcsaOptions::default());
/// schedule.validate(&problem)?;
/// assert!(schedule.total_cost() <= noncooperation(&problem, &EqualShare).total_cost());
/// # Ok::<(), ccs_core::schedule::ScheduleError>(())
/// ```
pub fn ccsa(problem: &CcsProblem, sharing: &dyn CostSharing, options: CcsaOptions) -> Schedule {
    let _span = ccs_telemetry::span!("ccsa");
    let n = problem.num_devices();
    let mut remaining: Vec<DeviceId> = problem.scenario().device_ids().collect();
    let mut committed: Vec<(ChargerId, Point, Vec<DeviceId>)> = Vec::new();

    {
        let _greedy = ccs_telemetry::span!("greedy");
        let rounds = ccs_telemetry::counter!("ccsa.rounds");
        let mut sweep = Sweep::new(problem, options);
        while !remaining.is_empty() {
            rounds.incr();
            let (charger, point, members) = sweep.round(&remaining);
            debug_assert!(!members.is_empty());
            remaining.retain(|d| !members.contains(d));
            committed.push((charger, point, members));
        }
    }

    let mut groups: Vec<(ChargerId, Point, Vec<DeviceId>)> = {
        let _refine = ccs_telemetry::span!("refine");
        committed
            .into_iter()
            .map(|(c, p, members)| refine(problem, c, p, members, options))
            .collect()
    };

    if options.local_improvement {
        let _improve = ccs_telemetry::span!("local_improvement");
        local_improvement(problem, &mut groups);
    }

    if options.ir_repair {
        let _repair = ccs_telemetry::span!("ir_repair");
        repair_individual_rationality(problem, sharing, &mut groups);
    }

    let mut plans: Vec<GroupPlan> = groups
        .into_iter()
        .map(|(c, p, mut members)| {
            members.sort();
            let facility = evaluate_facility(problem, c, &members, p);
            GroupPlan::from_facility(problem, members, facility, sharing)
        })
        .collect();
    plans.sort_by_key(|g| g.members[0]);

    let schedule = Schedule::new(plans, "ccsa", sharing.name());
    debug_assert!(schedule.validate(problem).is_ok(), "n = {n}");
    schedule
}

/// Side of the coarse field grid whose points join the device positions and
/// charger depots as candidate gathering points.
const CANDIDATE_GRID: usize = 4;

/// How many walked elements a cached density scan may record; scans that
/// walk more are re-priced next round instead of cached. This bounds the
/// memo's footprint without losing much: a long walk almost always contains
/// the committed winner and would be invalidated immediately anyway.
const CACHE_TAKEN_LIMIT: usize = 64;

/// One facility's memoized minimum-density scan (PrefixScan rounds only).
struct CachedDensity {
    /// Group-size cap the scan ran under.
    cap: usize,
    /// `None`: not even a single device fit the charger's budget — a fact
    /// about per-device demands alone, valid for the rest of the sweep.
    /// `Some((density, best_k, taken))`: the scan's full walk in push
    /// order; `taken[..best_k]` is the minimizer.
    result: Option<(f64, usize, Vec<DeviceId>)>,
}

/// Persistent state of the greedy facility sweep: the fixed facility
/// universe plus per-facility cached density scans, so each round re-prices
/// only the facilities the previous commitment could have changed.
///
/// ## The incremental sweep
///
/// A facility's density scan reads per-device weights and demands that
/// never change across rounds; the only round-to-round input is *which*
/// devices remain. The prefix scan walks devices in sorted-weight order and
/// pushes at most `cap` of them (`taken`); devices it skipped for budget
/// overflow, or never reached, do not influence the outcome. Removing such
/// a device from the ground set therefore replays the identical walk —
/// bit-identical accumulation, identical minimizer. So a cached result
/// stays valid as long as (a) no device in its full `taken` walk has been
/// committed and (b) the size cap still admits the walk (`cap` unchanged,
/// or the walk shorter than the new cap — the cap only shrinks as devices
/// commit). Valid caches are counted on `ccsa.facilities_skipped`;
/// facilities whose anchoring device committed leave the universe exactly
/// as the per-round candidate rebuild used to drop them.
///
/// Every `(charger, gathering point)` facility that does need pricing runs
/// in one `ccs-par` batch; the winner is then picked by a serial reduce in
/// facility order under the exact `(density, facility index)` total order.
/// The alive facilities enumerate in the same order the per-round rebuild
/// produced (remaining devices ascending, then depots, then grid), so the
/// committed group is bit-identical to the non-incremental sweep at any
/// thread count.
///
/// ## Geometric pruning
///
/// Before a facility pays for its `O(|R|)` weight vector and density scan,
/// a per-facility **density lower bound** is compared against the best
/// density seen so far (a shared atomic, monotonically shrinking, seeded
/// each round with the best still-valid cached density):
///
/// ```text
/// density(S) >= fee_jp / cap + η_j · min_k g(k)/k
///             + π_j · w_min + κ_min · d(p, nearest remaining device)
/// ```
///
/// for every nonempty `S ⊆ R` with `|S| <= cap` (all cost terms are
/// nonnegative). The nearest-device distances come from a per-round
/// [`UniformGrid`] over the remaining positions. A pruned facility's true
/// density strictly exceeds some density achievable this round (a computed
/// one, or a valid cache's), so it can be neither the exact argmin nor an
/// exact tie — the committed group is identical to the unpruned scan's
/// regardless of thread interleaving (which only affects *how many*
/// facilities get pruned, a telemetry-visible, result-invisible quantity).
struct Sweep<'a> {
    problem: &'a CcsProblem,
    options: CcsaOptions,
    /// Candidate gathering points, fixed across rounds: every device
    /// position (anchored to its device), then charger depots and the
    /// coarse field grid (unanchored).
    candidates: Vec<Point>,
    /// `Some(d)` when candidate `i` is device `d`'s position: the point
    /// dies with its device, exactly as the per-round rebuild dropped it.
    anchors: Vec<Option<DeviceId>>,
    /// Facility universe, charger-major / candidate-minor — the per-round
    /// rebuild's iteration order.
    facilities: Vec<(ChargerId, u32)>,
    /// Per-facility cached scans from earlier rounds.
    cache: Vec<Option<CachedDensity>>,
}

/// What one facility contributed to a round's parallel pricing batch.
enum RoundEval {
    /// Dead facility, valid cache, or pruned — nothing new to record.
    Skipped,
    /// Computed: not even a single device fits the charger's budget.
    Infeasible,
    /// Computed `(density, best_k, taken)` with local indices into the
    /// round's `remaining` slice.
    Priced(f64, usize, Vec<usize>),
}

impl<'a> Sweep<'a> {
    fn new(problem: &'a CcsProblem, options: CcsaOptions) -> Self {
        let mut candidates: Vec<Point> = Vec::new();
        let mut anchors: Vec<Option<DeviceId>> = Vec::new();
        for d in problem.scenario().device_ids() {
            candidates.push(problem.device(d).position());
            anchors.push(Some(d));
        }
        for c in problem.scenario().chargers() {
            candidates.push(c.position());
            anchors.push(None);
        }
        for p in problem.scenario().field().grid(CANDIDATE_GRID) {
            candidates.push(p);
            anchors.push(None);
        }
        let num_candidates = candidates.len() as u32;
        let facilities: Vec<(ChargerId, u32)> = problem
            .scenario()
            .charger_ids()
            .flat_map(|charger| (0..num_candidates).map(move |i| (charger, i)))
            .collect();
        let cache = facilities.iter().map(|_| None).collect();
        Sweep {
            problem,
            options,
            candidates,
            anchors,
            facilities,
            cache,
        }
    }

    /// The best `(facility, member set)` of one greedy round: minimum
    /// per-member group cost over all alive facilities (see the type docs
    /// for the caching and pruning machinery).
    fn round(&mut self, remaining: &[DeviceId]) -> (ChargerId, Point, Vec<DeviceId>) {
        let problem = self.problem;
        let options = self.options;
        let tables = problem.tables();

        let mut in_remaining = vec![false; problem.num_devices()];
        for &d in remaining {
            in_remaining[d.index()] = true;
        }
        let cand_alive: Vec<bool> = self
            .anchors
            .iter()
            .map(|a| a.is_none_or(|d| in_remaining[d.index()]))
            .collect();
        let cap = problem
            .params()
            .max_group_size
            .unwrap_or(remaining.len())
            .min(remaining.len())
            .max(1);

        // Drop caches the commitments so far have touched; keep the rest.
        let facilities_skipped = ccs_telemetry::counter!("ccsa.facilities_skipped");
        let mut reused = 0u64;
        for (fi, &(_, cand)) in self.facilities.iter().enumerate() {
            if !cand_alive[cand as usize] {
                self.cache[fi] = None;
                continue;
            }
            let Some(entry) = &self.cache[fi] else {
                continue;
            };
            let valid = match &entry.result {
                None => true,
                Some((_, _, taken)) => {
                    (entry.cap == cap || taken.len() <= cap)
                        && taken.iter().all(|d| in_remaining[d.index()])
                }
            };
            if valid {
                reused += 1;
            } else {
                self.cache[fi] = None;
            }
        }
        facilities_skipped.add(reused);

        // Per-round floors for the density lower bound.
        let demands: Vec<f64> = remaining
            .iter()
            .map(|&d| problem.device(d).demand().value())
            .collect();
        let w_min = demands.iter().copied().fold(f64::INFINITY, f64::min);
        let kappa_min = remaining
            .iter()
            .map(|&d| problem.device(d).move_cost_rate().value())
            .fold(f64::INFINITY, f64::min);
        // min_k g(k)/k over admissible sizes — no concavity assumption needed.
        let min_curve_ratio = (1..=cap)
            .map(|k| tables.curve_value(k) / k as f64)
            .fold(f64::INFINITY, f64::min);
        let remaining_pos: Vec<Point> = remaining
            .iter()
            .map(|&d| problem.device(d).position())
            .collect();
        let remaining_grid = UniformGrid::build(&remaining_pos);
        // Nearest remaining device per alive candidate point, shared by all
        // chargers (dead entries are never read).
        let point_dmin: Vec<f64> = self
            .candidates
            .iter()
            .zip(&cand_alive)
            .map(|(p, &alive)| {
                if alive {
                    remaining_grid.nearest_distance(*p, &remaining_pos)
                } else {
                    0.0
                }
            })
            .collect();
        // The congestion table depends only on the charger — one table per
        // charger serves its whole facility row.
        let charger_parts: Vec<Vec<f64>> = problem
            .scenario()
            .charger_ids()
            .map(|c| congestion_parts(problem, c, cap))
            .collect();

        // Best density seen so far, as f64 bits (densities are >= 0, so the
        // bit pattern orders like the value). Seeded with the best valid
        // cache so pruning starts at last round's frontier; monotone min,
        // and lagging reads only weaken pruning, never the winner.
        let mut seed = f64::INFINITY;
        for (fi, &(_, cand)) in self.facilities.iter().enumerate() {
            if !cand_alive[cand as usize] {
                continue;
            }
            if let Some(CachedDensity {
                result: Some((density, _, _)),
                ..
            }) = &self.cache[fi]
            {
                seed = seed.min(*density);
            }
        }
        let best_seen = AtomicU64::new(seed.to_bits());

        let facility_evals = ccs_telemetry::counter!("ccsa.facility_evals");
        let facility_pruned = ccs_telemetry::counter!("ccsa.facility_pruned");
        let cache = &self.cache;
        let candidates = &self.candidates;
        let priced: Vec<RoundEval> = ccs_par::par_map(&self.facilities, |fi, &(charger, cand)| {
            if !cand_alive[cand as usize] || cache[fi].is_some() {
                return RoundEval::Skipped;
            }
            facility_evals.incr();
            let point = candidates[cand as usize];
            let c = problem.charger(charger);
            let fee = c.base_fee() + c.travel_cost_rate() * c.position().distance(&point);
            let bound = fee.value() / cap as f64
                + c.occupancy_rate().value() * min_curve_ratio
                + c.energy_price().value() * w_min
                + kappa_min * point_dmin[cand as usize];
            if bound > f64::from_bits(best_seen.load(Ordering::Relaxed)) {
                facility_pruned.incr();
                return RoundEval::Skipped;
            }
            let weights: Vec<f64> = remaining
                .iter()
                .map(|&d| {
                    let dev = problem.device(d);
                    (problem.energy(charger, d)
                        + dev.move_cost_rate() * dev.position().distance(&point))
                    .value()
                })
                .collect();
            let budget = c.energy_budget().map(|b| b.value());
            let f = SeparableFn::new(weights, fee.value(), c.occupancy_rate().value());
            match min_density(
                &f,
                &demands,
                budget,
                &charger_parts[charger.index()],
                cap,
                options,
            ) {
                Some((density, best_k, taken)) => {
                    let _ = best_seen.fetch_min(density.to_bits(), Ordering::Relaxed);
                    RoundEval::Priced(density, best_k, taken)
                }
                None => RoundEval::Infeasible,
            }
        });

        // Serial reduce in facility order: fresh results and valid caches
        // compete under the exact (density, facility index) total order.
        let mut best: Option<(f64, usize)> = None;
        for (fi, eval) in priced.iter().enumerate() {
            let (_, cand) = self.facilities[fi];
            if !cand_alive[cand as usize] {
                continue;
            }
            let density = match (eval, &self.cache[fi]) {
                (RoundEval::Priced(density, _, _), _) => *density,
                (
                    RoundEval::Skipped,
                    Some(CachedDensity {
                        result: Some((density, _, _)),
                        ..
                    }),
                ) => *density,
                _ => continue,
            };
            let better = match &best {
                Some((b, _)) => density.total_cmp(b) == std::cmp::Ordering::Less,
                None => true,
            };
            if better {
                best = Some((density, fi));
            }
        }
        let (_, win) = best.expect("some facility always admits a group");
        let (charger, cand) = self.facilities[win];
        let point = self.candidates[cand as usize];
        let members: Vec<DeviceId> = match (&priced[win], &self.cache[win]) {
            (RoundEval::Priced(_, best_k, taken), _) => {
                taken[..*best_k].iter().map(|&i| remaining[i]).collect()
            }
            (
                _,
                Some(CachedDensity {
                    result: Some((_, best_k, taken)),
                    ..
                }),
            ) => taken[..*best_k].to_vec(),
            _ => unreachable!("winner must come from a fresh scan or a valid cache"),
        };

        // Record this round's fresh scans for later rounds. Only PrefixScan
        // results replay bit-identically (the validity argument is about
        // the prefix walk), so other minimizers re-price every round.
        if options.minimizer == InnerMinimizer::PrefixScan {
            for (fi, eval) in priced.into_iter().enumerate() {
                match eval {
                    RoundEval::Skipped => {}
                    RoundEval::Infeasible => {
                        self.cache[fi] = Some(CachedDensity { cap, result: None });
                    }
                    RoundEval::Priced(density, best_k, taken) => {
                        if taken.len() <= CACHE_TAKEN_LIMIT {
                            let taken: Vec<DeviceId> =
                                taken.iter().map(|&i| remaining[i]).collect();
                            self.cache[fi] = Some(CachedDensity {
                                cap,
                                result: Some((density, best_k, taken)),
                            });
                        }
                    }
                }
            }
        }

        (charger, point, members)
    }
}

/// Minimum-density member set under the group-size cap.
/// Returns `(density, best_k, taken)` where `taken[..best_k]` is the
/// minimizer in local indices and `taken` is the scan's full walk (the
/// cache-validity witness; for the Dinkelbach minimizers it is just the
/// minimizer itself, which is never cached). `None` only if nothing is
/// admissible (cannot happen: singletons are always admissible).
fn min_density(
    f: &SeparableFn,
    demands: &[f64],
    budget: Option<f64>,
    curve_parts: &[f64],
    cap: usize,
    options: CcsaOptions,
) -> Option<(f64, usize, Vec<usize>)> {
    if f.ground_size() == 0 {
        return None;
    }
    match options.minimizer {
        InnerMinimizer::PrefixScan => prefix_scan_density(f, demands, budget, curve_parts, cap),
        InnerMinimizer::GreedyAccretion => {
            greedy_accretion_density(f, demands, budget, curve_parts, cap)
        }
        InnerMinimizer::DinkelbachSeparable | InnerMinimizer::DinkelbachMnp => {
            let result = if options.minimizer == InnerMinimizer::DinkelbachSeparable {
                min_density_separable(f)
            } else {
                min_density_mnp(f)
            }
            .expect("separable functions are normalized and nonempty here");
            let picked = result.minimizer.to_vec();
            let demand: f64 = picked.iter().map(|&i| demands[i]).sum();
            if picked.len() <= cap && budget.is_none_or(|b| demand <= b) {
                Some((result.density, picked.len(), picked))
            } else {
                // The unconstrained optimum violates the cap or the
                // charger's energy budget; fall back to the constrained
                // scan (a sorted-prefix truncation, see below).
                prefix_scan_density(f, demands, budget, curve_parts, cap)
            }
        }
    }
}

/// Capped density minimization for separable functions: for each
/// cardinality `k` the best size-`k` set takes the `k` smallest weights,
/// so scanning sorted prefixes is exhaustive (exact) for the size cap.
/// An energy budget is honored by skipping members that would overflow it —
/// a greedy truncation that is exact without a budget and a documented
/// heuristic with one (the budgeted variant is a knapsack).
///
/// # Early exit
///
/// The congestion table `η_j · √k` is non-decreasing (`η_j ≥ 0` is an
/// entity invariant), so the walk stops at the first element whose
/// weight reaches the best density `b` found so far: weights ascend, so
/// every later prefix's density is a `k`-weighted average of a value
/// `≥ b − 1e-15` (the running invariant under the strict-improvement rule
/// below) and a weight `≥ b`, plus a non-negative congestion increment —
/// never enough to improve `best` again. Inductively the invariant is
/// preserved, so the truncated walk returns the exact same `(density, k)`
/// as the full one. Budget-skipped elements don't disturb the argument:
/// they contribute nothing to the prefix, and the element that triggers
/// the stop needs only its weight, not budget admission.
///
/// The exit typically fires within a few dozen elements, so the sort is
/// done lazily: select-then-sort a small front, growing it only if the
/// walk actually gets that far.
///
/// Returns the walk up to the stop alongside the best prefix length (see
/// [`min_density`]); `None` only if not even a single member fits the
/// budget. The truncation is invisible to the sweep cache's replay
/// argument: dropping a device outside `taken` never changes which
/// elements the walk admits, and the stop re-fires at the next surviving
/// weight, which is at least as large.
fn prefix_scan_density(
    f: &SeparableFn,
    demands: &[f64],
    budget: Option<f64>,
    curve_parts: &[f64],
    cap: usize,
) -> Option<(f64, usize, Vec<usize>)> {
    let weights = f.weights();
    let by_weight = |a: &usize, b: &usize| weights[*a].total_cmp(&weights[*b]).then(a.cmp(b));
    // The early-exit induction needs a non-decreasing table.
    debug_assert!(curve_parts.windows(2).all(|w| w[1] >= w[0]));
    let mut order: Vec<usize> = (0..f.ground_size()).collect();
    // `order[..sorted_to]` holds the `sorted_to` globally smallest
    // elements in ascending order; the rest is an unordered remainder.
    let mut sorted_to = 0;
    let mut best: Option<(f64, usize)> = None;
    let mut acc = 0.0;
    let mut demand = 0.0;
    let mut taken: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < order.len() {
        if i == sorted_to {
            let front = if sorted_to == 0 { 64 } else { sorted_to * 3 };
            let upto = (sorted_to + front).min(order.len());
            if upto < order.len() {
                order[sorted_to..].select_nth_unstable_by(upto - sorted_to - 1, by_weight);
            }
            order[sorted_to..upto].sort_unstable_by(by_weight);
            sorted_to = upto;
        }
        let e = order[i];
        i += 1;
        if let Some((b, _)) = best {
            if weights[e] >= b {
                break;
            }
        }
        if taken.len() == cap {
            break;
        }
        if let Some(b) = budget {
            if demand + demands[e] > b {
                continue; // would overflow this charger's budget
            }
        }
        taken.push(e);
        acc += weights[e];
        demand += demands[e];
        let k = taken.len();
        let density = (f.fee() + acc + curve_parts[k]) / k as f64;
        let better = match best {
            Some((b, _)) => density < b - 1e-15,
            None => true,
        };
        if better {
            best = Some((density, k));
        }
    }
    best.map(|(density, k)| (density, k, taken))
}

/// Greedy heuristic: start from the cheapest element, keep adding the next
/// cheapest (budget permitting) while the density improves.
fn greedy_accretion_density(
    f: &SeparableFn,
    demands: &[f64],
    budget: Option<f64>,
    curve_parts: &[f64],
    cap: usize,
) -> Option<(f64, usize, Vec<usize>)> {
    let mut order: Vec<usize> = (0..f.ground_size()).collect();
    order.sort_by(|&a, &b| f.weights()[a].total_cmp(&f.weights()[b]).then(a.cmp(&b)));
    order.retain(|&i| budget.is_none_or(|b| demands[i] <= b));
    let first = *order.first()?;
    let mut taken = vec![first];
    let mut acc = f.weights()[first];
    let mut demand = demands[first];
    let mut density = f.fee() + acc + curve_parts[1];
    for &i in order.iter().skip(1) {
        if taken.len() == cap {
            break;
        }
        if let Some(b) = budget {
            if demand + demands[i] > b {
                continue;
            }
        }
        let k = taken.len();
        let candidate = (f.fee() + acc + f.weights()[i] + curve_parts[k + 1]) / (k + 1) as f64;
        if candidate >= density {
            break;
        }
        taken.push(i);
        acc += f.weights()[i];
        demand += demands[i];
        density = candidate;
    }
    let k = taken.len();
    Some((density, k, taken))
}

/// The congestion part of the bill as a function of cardinality,
/// [`CcsProblem::congestion`] tabulated for `k ∈ 0..=cap` in `O(cap)` with
/// **no oracle evaluations**.
///
/// The table depends only on the charger — not on the candidate point or
/// the remaining devices — so each sweep round computes it once per
/// charger and shares it across that charger's whole facility row (and
/// across rounds' cached scans, whose replayed densities must match
/// bitwise).
fn congestion_parts(problem: &CcsProblem, charger: ChargerId, cap: usize) -> Vec<f64> {
    (0..=cap)
        .map(|k| problem.congestion(charger, k).value())
        .collect()
}

/// Re-optimizes a committed group's gathering point.
fn refine(
    problem: &CcsProblem,
    charger: ChargerId,
    point: Point,
    members: Vec<DeviceId>,
    options: CcsaOptions,
) -> (ChargerId, Point, Vec<DeviceId>) {
    if !options.refine_gathering {
        return (charger, point, members);
    }
    let refined = problem
        .tables()
        .cached_gathering_point(problem, charger, &members, |_| false)
        .expect("a solve without a cutoff is never abandoned");
    let old = evaluate_facility(problem, charger, &members, point).group_cost();
    let new = evaluate_facility(problem, charger, &members, refined).group_cost();
    if new < old {
        (charger, refined, members)
    } else {
        (charger, point, members)
    }
}

/// Bounded best-improvement descent: repeatedly move a single device to
/// the group (or fresh singleton) that most reduces the sum of group costs,
/// re-picking each touched group's best facility. Each applied move
/// strictly decreases a bounded-below total, and the loop is additionally
/// capped, so it terminates.
///
/// Facility pricing dominates the runtime, so each candidate "member
/// leaves src" / "member joins dst" set is priced through
/// [`try_best_facility_anchored`], anchored at that group's current
/// charger — the warm start CCSGA's cache misses take too. The anchor's
/// achieved cost prunes most other chargers before any Weiszfeld solve,
/// and the choice is bitwise the unanchored scan's.
fn local_improvement(problem: &CcsProblem, groups: &mut Vec<(ChargerId, Point, Vec<DeviceId>)>) {
    const MAX_MOVES: usize = 1_000;
    let eps = 1e-9;
    // Facility pricing is by far the hot path here, and the same member
    // sets are re-priced on every scan; memoize by sorted member ids.
    let mut memo: HashMap<Vec<DeviceId>, FacilityChoice> = HashMap::new();
    let priced = |memo: &mut HashMap<Vec<DeviceId>, FacilityChoice>,
                  sorted: &[DeviceId],
                  anchor: Option<ChargerId>|
     -> FacilityChoice {
        if let Some(hit) = memo.get(sorted) {
            return hit.clone();
        }
        let f = match anchor {
            Some(c) => try_best_facility_anchored(problem, sorted, c)
                .expect("no charger's energy budget covers this group's demand"),
            None => best_facility(problem, sorted),
        };
        memo.insert(sorted.to_vec(), f.clone());
        f
    };
    let mut cost_of: Vec<f64> = groups
        .iter()
        .map(|(c, p, members)| {
            let mut sorted = members.clone();
            sorted.sort();
            evaluate_facility(problem, *c, &sorted, *p)
                .group_cost()
                .value()
        })
        .collect();

    for _ in 0..MAX_MOVES {
        let mut best: Option<(usize, usize, Option<usize>, f64)> = None; // (src, local, dst, gain)
        for (src, &(src_charger, _, ref members)) in groups.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            for (local, &d) in members.iter().enumerate() {
                // Cost of the source group without d.
                let mut residual: Vec<DeviceId> =
                    members.iter().copied().filter(|&x| x != d).collect();
                residual.sort();
                let residual_cost = if residual.is_empty() {
                    0.0
                } else {
                    priced(&mut memo, &residual, Some(src_charger))
                        .group_cost()
                        .value()
                };
                // Destination: every other group, or a fresh singleton.
                for dst in 0..=groups.len() {
                    if dst == src {
                        continue;
                    }
                    let (joined_cost, old_dst_cost, dst_key) = if dst < groups.len() {
                        let (dst_charger, _, dst_members) = &groups[dst];
                        if dst_members.is_empty() || !problem.group_size_ok(dst_members.len() + 1) {
                            continue;
                        }
                        let mut joined = dst_members.clone();
                        joined.push(d);
                        joined.sort();
                        if !problem.feasible_group(joined.iter().copied()) {
                            continue; // no charger's budget covers the merge
                        }
                        (
                            priced(&mut memo, &joined, Some(*dst_charger))
                                .group_cost()
                                .value(),
                            cost_of[dst],
                            Some(dst),
                        )
                    } else {
                        if members.len() == 1 {
                            continue; // already a singleton
                        }
                        (
                            priced(&mut memo, &[d], None).group_cost().value(),
                            0.0,
                            None,
                        )
                    };
                    let gain = (cost_of[src] + old_dst_cost) - (residual_cost + joined_cost);
                    if gain > eps {
                        match &best {
                            Some((_, _, _, g)) if *g >= gain => {}
                            _ => best = Some((src, local, dst_key, gain)),
                        }
                    }
                }
            }
        }
        let Some((src, local, dst, _gain)) = best else {
            break;
        };
        let d = groups[src].2.remove(local);
        match dst {
            Some(dst) => groups[dst].2.push(d),
            None => {
                groups.push((ChargerId::new(0), Point::ORIGIN, vec![d]));
                cost_of.push(0.0);
            }
        }
        // Re-pick facilities and refresh cached costs for touched groups.
        for gi in [Some(src), dst.or(Some(groups.len() - 1))]
            .into_iter()
            .flatten()
        {
            if groups[gi].2.is_empty() {
                cost_of[gi] = 0.0;
                continue;
            }
            let mut sorted = groups[gi].2.clone();
            sorted.sort();
            let f = priced(&mut memo, &sorted, None);
            groups[gi].0 = f.charger;
            groups[gi].1 = f.point;
            groups[gi].2 = sorted;
            cost_of[gi] = f.group_cost().value();
        }
    }
    groups.retain(|(_, _, members)| !members.is_empty());
}

/// Ejects members whose comprehensive cost exceeds their solo cost, until
/// no violation remains. Each ejection permanently moves one device to a
/// singleton group, so the loop terminates in at most `n` ejections.
fn repair_individual_rationality(
    problem: &CcsProblem,
    sharing: &dyn CostSharing,
    groups: &mut Vec<(ChargerId, Point, Vec<DeviceId>)>,
) {
    let eps = Cost::new(1e-9);
    let solo: Vec<Cost> = problem
        .scenario()
        .device_ids()
        .map(|d| solo_cost(problem, d))
        .collect();
    loop {
        let mut ejected: Option<(usize, DeviceId)> = None;
        'outer: for (gi, (charger, point, members)) in groups.iter().enumerate() {
            if members.len() <= 1 {
                continue;
            }
            let mut sorted = members.clone();
            sorted.sort();
            let facility = evaluate_facility(problem, *charger, &sorted, *point);
            let shares = sharing.shares(problem, *charger, &sorted, point, &facility.bill);
            for (idx, &d) in sorted.iter().enumerate() {
                let cost = shares[idx] + facility.moving[idx];
                if cost > solo[d.index()] + eps {
                    ejected = Some((gi, d));
                    break 'outer;
                }
            }
        }
        match ejected {
            Some((gi, d)) => {
                groups[gi].2.retain(|&x| x != d);
                // Re-pick the residual group's best facility.
                let mut residual = groups[gi].2.clone();
                residual.sort();
                let f = best_facility(problem, &residual);
                groups[gi].0 = f.charger;
                groups[gi].1 = f.point;
                // The ejected device hires alone at its best facility.
                let solo = best_facility(problem, &[d]);
                groups.push((solo.charger, solo.point, vec![d]));
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::noncoop::noncooperation;
    use crate::algo::optimal::optimal;
    use crate::problem::CostParams;
    use crate::sharing::{EqualShare, ProportionalShare};
    use ccs_wrsn::scenario::{ParamRange, Placement, ScenarioGenerator};

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
            let s = ccsa(&p, &EqualShare, CcsaOptions::default());
            s.validate(&p).unwrap();
            assert_eq!(s.algorithm(), "ccsa");
        }
    }

    #[test]
    fn never_worse_than_noncooperation() {
        for seed in 1..=8 {
            let p = problem(seed, 15, 4);
            let coop = ccsa(&p, &EqualShare, CcsaOptions::default());
            let solo = noncooperation(&p, &EqualShare);
            assert!(
                coop.total_cost() <= solo.total_cost() + Cost::new(1e-6),
                "seed {seed}: ccsa {} vs ncp {}",
                coop.total_cost(),
                solo.total_cost()
            );
        }
    }

    #[test]
    fn close_to_optimal_on_small_instances() {
        let mut worst_ratio = 1.0f64;
        for seed in 1..=6 {
            let p = problem(seed, 8, 3);
            let approx = ccsa(&p, &EqualShare, CcsaOptions::default());
            let exact = optimal(&p, &EqualShare).unwrap();
            let ratio = approx.total_cost() / exact.total_cost();
            assert!(ratio >= 1.0 - 1e-9, "approximation cannot beat optimal");
            worst_ratio = worst_ratio.max(ratio);
        }
        // The paper reports ~7.3% above optimal on average; allow slack but
        // catch gross regressions.
        assert!(
            worst_ratio < 1.35,
            "worst ratio {worst_ratio} too far from optimal"
        );
    }

    #[test]
    fn individual_rationality_holds_after_repair() {
        for seed in 1..=6 {
            let p = problem(seed, 15, 4);
            for scheme in [&EqualShare as &dyn CostSharing, &ProportionalShare] {
                let s = ccsa(&p, scheme, CcsaOptions::default());
                for d in p.scenario().device_ids() {
                    let cost = s.device_cost(d).unwrap();
                    let solo = solo_cost(&p, d);
                    assert!(
                        cost <= solo + Cost::new(1e-6),
                        "seed {seed} {}: device {d} pays {cost} over solo {solo}",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn all_inner_minimizers_agree_on_exactness_or_do_no_worse() {
        let p = problem(5, 12, 3);
        let exact = ccsa(
            &p,
            &EqualShare,
            CcsaOptions {
                minimizer: InnerMinimizer::PrefixScan,
                ..Default::default()
            },
        );
        for minimizer in [
            InnerMinimizer::DinkelbachSeparable,
            InnerMinimizer::DinkelbachMnp,
        ] {
            let other = ccsa(
                &p,
                &EqualShare,
                CcsaOptions {
                    minimizer,
                    ..Default::default()
                },
            );
            other.validate(&p).unwrap();
            assert!(
                (other.total_cost() - exact.total_cost()).abs() < Cost::new(1e-6),
                "{minimizer:?} diverged: {} vs {}",
                other.total_cost(),
                exact.total_cost()
            );
        }
        // The heuristic must still be valid and no better than exact rounds
        // would allow (it can be worse).
        let heuristic = ccsa(
            &p,
            &EqualShare,
            CcsaOptions {
                minimizer: InnerMinimizer::GreedyAccretion,
                ..Default::default()
            },
        );
        heuristic.validate(&p).unwrap();
    }

    #[test]
    fn respects_group_size_cap() {
        let scenario = ScenarioGenerator::new(2).devices(12).chargers(3).generate();
        let p = CcsProblem::with_params(
            scenario,
            CostParams {
                max_group_size: Some(3),
                ..Default::default()
            },
        );
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        s.validate(&p).unwrap();
        assert!(s.groups().iter().all(|g| g.members.len() <= 3));
    }

    #[test]
    fn clustered_high_fee_instances_form_large_groups() {
        let scenario = ScenarioGenerator::new(7)
            .devices(12)
            .chargers(3)
            .field_side(60.0)
            .device_placement(Placement::Clustered {
                count: 2,
                sigma: 3.0,
            })
            .base_fee_range(ParamRange::fixed(60.0))
            .generate();
        let p = CcsProblem::new(scenario);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        assert!(
            s.groups().len() <= 6,
            "high fees + clusters should yield few groups, got {}",
            s.groups().len()
        );
    }

    #[test]
    fn refinement_never_hurts() {
        let p = problem(9, 10, 3);
        let refined = ccsa(&p, &EqualShare, CcsaOptions::default());
        let raw = ccsa(
            &p,
            &EqualShare,
            CcsaOptions {
                refine_gathering: false,
                ..Default::default()
            },
        );
        // Refinement only replaces a group's point when strictly better, and
        // IR repair operates identically, so totals cannot get worse for the
        // same grouping. (Groupings coincide because refinement happens
        // after all commitments.)
        assert!(refined.total_cost() <= raw.total_cost() + Cost::new(1e-9));
    }

    #[test]
    fn single_device_single_charger() {
        let p = problem(1, 1, 1);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        s.validate(&p).unwrap();
        assert_eq!(s.groups().len(), 1);
    }

    #[test]
    fn incremental_sweep_reuses_cached_scans() {
        // Reuse needs a group-size cap: an uncapped prefix scan walks every
        // remaining device, so each commitment invalidates every cache (the
        // scan genuinely depends on the whole ground set there).
        ccs_telemetry::global().enable();
        let skipped = ccs_telemetry::counter!("ccsa.facilities_skipped");
        let before = skipped.get();
        let scenario = ScenarioGenerator::new(3).devices(30).chargers(4).generate();
        let p = CcsProblem::with_params(
            scenario,
            CostParams {
                max_group_size: Some(3),
                ..Default::default()
            },
        );
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        s.validate(&p).unwrap();
        assert!(
            skipped.get() > before,
            "a multi-round capped sweep must find some facility scans still valid"
        );
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::algo::ccsga;
    use crate::algo::optimal::optimal;
    use crate::algo::CcsgaOptions;
    use crate::sharing::EqualShare;
    use ccs_wrsn::scenario::{ParamRange, ScenarioGenerator};
    use ccs_wrsn::units::Joules;

    fn budgeted_problem(seed: u64, n: usize) -> CcsProblem {
        // Budgets admit roughly two average devices per hire.
        let scenario = ScenarioGenerator::new(seed)
            .devices(n)
            .chargers(4)
            .charger_energy_budget_range(ParamRange::new(9_000.0, 12_000.0))
            .generate();
        CcsProblem::new(scenario)
    }

    #[test]
    fn all_algorithms_respect_energy_budgets() {
        for seed in [1, 2, 3] {
            let p = budgeted_problem(seed, 10);
            for schedule in [
                ccsa(&p, &EqualShare, CcsaOptions::default()),
                ccsga::ccsga(&p, &EqualShare, CcsgaOptions::default()).schedule,
                crate::algo::noncoop::noncooperation(&p, &EqualShare),
                optimal(&p, &EqualShare).unwrap(),
            ] {
                schedule
                    .validate(&p)
                    .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", schedule.algorithm()));
                for g in schedule.groups() {
                    let demand: Joules = g.members.iter().map(|&d| p.device(d).demand()).sum();
                    assert!(
                        p.charger(g.charger).can_deliver(demand),
                        "seed {seed} {}: group over budget",
                        schedule.algorithm()
                    );
                }
            }
        }
    }

    #[test]
    fn budgets_limit_group_sizes() {
        let p = budgeted_problem(5, 12);
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        // With ~10 kJ budgets and 2-8 kJ demands, groups of 6+ are impossible.
        assert!(s.groups().iter().all(|g| g.members.len() <= 5));
        assert!(
            s.groups().len() >= 3,
            "budgets force more groups than the unbudgeted instance"
        );
    }

    #[test]
    fn budgeted_optimal_still_bounds_heuristics() {
        for seed in [1, 2] {
            let p = budgeted_problem(seed, 8);
            let opt = optimal(&p, &EqualShare).unwrap();
            let greedy = ccsa(&p, &EqualShare, CcsaOptions::default());
            assert!(opt.total_cost() <= greedy.total_cost() + Cost::new(1e-6));
        }
    }
}
