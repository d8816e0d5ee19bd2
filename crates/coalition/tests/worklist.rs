//! Integration tests of the activity-driven worklist engine: bit-identity
//! with [`reference_run`], a naive implementation of the same dynamics
//! written apart from the engine, across rules, shortlist caps and thread
//! counts; the all-or-none shortlist rule; and a regression test that
//! provably quiescent players are never probed.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ccs_coalition::engine::{run, ConvergenceReport, EngineOptions, SwitchRule};
use ccs_coalition::game::{FeeSharingGame, HedonicGame};
use ccs_coalition::partition::{CoalitionId, Partition};
use proptest::prelude::*;

const RULES: [SwitchRule; 3] = [
    SwitchRule::SelfishWithHistory,
    SwitchRule::SelfishWithConsent,
    SwitchRule::Utilitarian,
];

/// [`FeeSharingGame`] with a nearest-first neighbor order limited to
/// `reach` (players farther away are never listed, whatever the limit) and
/// per-player counts of cost evaluations and neighbor-order requests. The
/// reach bound lets tests build spatially isolated groups whose shortlists
/// do not cross; the counters observe exactly which players the engine
/// probes.
struct Spatial {
    inner: FeeSharingGame,
    reach: f64,
    evals: Vec<AtomicUsize>,
    orders: AtomicUsize,
}

impl Spatial {
    fn new(positions: &[f64], fee: f64, max_size: usize, reach: f64) -> Self {
        let distance = positions
            .iter()
            .map(|a| positions.iter().map(|b| (a - b).abs()).collect())
            .collect();
        let n = positions.len();
        Spatial {
            inner: FeeSharingGame::new(fee, distance, max_size),
            reach,
            evals: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            orders: AtomicUsize::new(0),
        }
    }

    fn evals_of(&self, player: usize) -> usize {
        self.evals[player].load(Ordering::Relaxed)
    }
}

impl HedonicGame for Spatial {
    fn num_players(&self) -> usize {
        self.inner.num_players()
    }

    fn player_cost(&self, player: usize, coalition: &[usize]) -> f64 {
        self.evals[player].fetch_add(1, Ordering::Relaxed);
        self.inner.player_cost(player, coalition)
    }

    fn coalition_feasible(&self, coalition: &[usize]) -> bool {
        self.inner.coalition_feasible(coalition)
    }

    fn neighbor_order(&self, player: usize, limit: usize, out: &mut Vec<usize>) -> bool {
        self.orders.fetch_add(1, Ordering::Relaxed);
        let mut order: Vec<usize> = (0..self.num_players())
            .filter(|&q| q != player && self.inner.distance[player][q] <= self.reach)
            .collect();
        order.sort_by(|&a, &b| {
            self.inner.distance[player][a]
                .total_cmp(&self.inner.distance[player][b])
                .then(a.cmp(&b))
        });
        order.truncate(limit);
        out.extend_from_slice(&order);
        true
    }
}

/// A [`Spatial`] game that orders only its even players.
struct EvenOnly(Spatial);

impl HedonicGame for EvenOnly {
    fn num_players(&self) -> usize {
        self.0.num_players()
    }

    fn player_cost(&self, player: usize, coalition: &[usize]) -> f64 {
        self.0.player_cost(player, coalition)
    }

    fn coalition_feasible(&self, coalition: &[usize]) -> bool {
        self.0.coalition_feasible(coalition)
    }

    fn neighbor_order(&self, player: usize, limit: usize, out: &mut Vec<usize>) -> bool {
        player % 2 == 0 && self.0.neighbor_order(player, limit, out)
    }
}

/// Everything a run's observable outcome consists of; two runs are "the
/// same" exactly when these match.
type Fingerprint = (String, usize, usize, bool);

fn fingerprint(report: &ConvergenceReport) -> Fingerprint {
    (
        report.partition.to_string(),
        report.rounds,
        report.switches,
        report.converged,
    )
}

/// The strictness margin the dynamics compare gains against: `1e-9`, or
/// `1e-9` per `1e3` of the larger cost's magnitude beyond `1e3`.
fn margin(a: f64, b: f64) -> f64 {
    1e-9 * (a.abs().max(b.abs()) / 1e3).max(1.0)
}

/// The naive dynamics [`run`] must reproduce, from singletons: every round
/// probes every player in index order, and each probe scans every other
/// coalition — or, with a positive `shortlist_cap` and a game that orders
/// every player, the coalitions of a neighbor list asked afresh at this
/// probe, nearest first, up to the cap of joins the history admits — plus
/// going solo from a larger coalition. A player takes the admissible
/// candidate with the largest gain above the margin; equal gains go to the
/// lower slot, going solo last.
fn reference_run<G: HedonicGame>(game: &G, options: EngineOptions) -> Fingerprint {
    let n = game.num_players();
    let cost = |p: usize, c: &[usize]| game.player_cost(p, c);
    let total = |c: &[usize]| c.iter().map(|&q| cost(q, c)).sum::<f64>();
    let limit = (options.shortlist_cap * 4).max(16);
    let shortlisted =
        options.shortlist_cap > 0 && (0..n).all(|p| game.neighbor_order(p, limit, &mut Vec::new()));
    let history_rule = options.rule == SwitchRule::SelfishWithHistory;
    let max_rounds = match options.max_rounds {
        0 => 100 * n,
        r => r,
    };

    let mut partition = Partition::singletons(n);
    let mut visited: Vec<BTreeSet<Vec<usize>>> = (0..n).map(|p| [vec![p]].into()).collect();
    let (mut rounds, mut switches, mut converged) = (0, 0, false);
    while rounds < max_rounds {
        rounds += 1;
        let mut moved = false;
        for (p, seen) in visited.iter_mut().enumerate() {
            let own = partition.coalition_of(p);
            let from = partition.members(own).to_vec();
            let residual: Vec<usize> = from.iter().copied().filter(|&q| q != p).collect();
            let current = cost(p, &from);

            let targets: Vec<CoalitionId> = if shortlisted {
                let mut near = Vec::new();
                game.neighbor_order(p, limit, &mut near);
                let mut ids: Vec<CoalitionId> = Vec::new();
                for id in near.into_iter().map(|q| partition.coalition_of(q)) {
                    if id != own && !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                ids
            } else {
                partition
                    .coalitions()
                    .map(|(id, _)| id)
                    .filter(|&id| id != own)
                    .collect()
            };
            let joins = targets
                .into_iter()
                .map(|id| {
                    let mut joined = partition.members(id).to_vec();
                    joined.push(p);
                    joined.sort_unstable();
                    (Some(id), joined)
                })
                .filter(|(_, joined)| !(history_rule && seen.contains(joined)))
                .take(if shortlisted {
                    options.shortlist_cap
                } else {
                    usize::MAX
                });
            let solo = (from.len() > 1).then(|| (None, vec![p]));

            // (gain, tie-break key: the slot, going solo after every slot).
            let mut best: Option<(f64, usize, Option<CoalitionId>, Vec<usize>)> = None;
            for (target, joined) in joins.chain(solo) {
                if !game.coalition_feasible(&joined) {
                    continue;
                }
                let mine = cost(p, &joined);
                // Social cost sums the coalition left, then the one
                // entered, so its rounding matches the dynamics' bit for bit.
                let (before, after) = match (options.rule, target) {
                    (SwitchRule::Utilitarian, Some(id)) => {
                        let members = partition.members(id);
                        (
                            total(&from) + total(members),
                            total(&residual) + total(&joined),
                        )
                    }
                    (SwitchRule::Utilitarian, None) => {
                        (total(&from) + 0.0, total(&residual) + mine)
                    }
                    (SwitchRule::SelfishWithConsent, Some(id)) => {
                        let members = partition.members(id);
                        let vetoed = members.iter().any(|&q| {
                            let (now, then) = (cost(q, &joined), cost(q, members));
                            now > then + margin(now, then)
                        });
                        if vetoed {
                            continue;
                        }
                        (current, mine)
                    }
                    _ => (current, mine),
                };
                let gain = before - after;
                let key = target.map_or(usize::MAX, CoalitionId::index);
                let better = match &best {
                    None => true,
                    Some((g, k, _, _)) => gain.total_cmp(g).then(k.cmp(&key)).is_gt(),
                };
                if gain > margin(before, after) && better {
                    best = Some((gain, key, target, joined));
                }
            }

            if let Some((_, _, target, joined)) = best {
                match target {
                    Some(id) => {
                        partition.move_to_coalition(p, id);
                    }
                    None => {
                        partition.move_to_singleton(p);
                    }
                }
                if history_rule {
                    seen.insert(joined);
                }
                switches += 1;
                moved = true;
            }
        }
        if !moved {
            converged = true;
            break;
        }
    }
    (partition.to_string(), rounds, switches, converged)
}

/// Serializes mutations of the global `ccs_par` thread count across
/// concurrently running tests.
static THREADS: Mutex<()> = Mutex::new(());

/// Restores the default thread count even when an assertion unwinds.
struct ThreadReset;
impl Drop for ThreadReset {
    fn drop(&mut self) {
        ccs_par::set_threads(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The worklist engine must replay the naive full-scan dynamics bit for
    /// bit: same partition, same round and switch counts, same convergence
    /// — for every rule, in exact and shortlist candidate modes, at one and
    /// at four worker threads.
    #[test]
    fn worklist_is_bit_identical_to_the_full_scan(
        positions in proptest::collection::vec(0.0f64..100.0, 2..9),
        fee in 0.0f64..15.0,
        max_size in 1usize..6,
        rule_pick in 0usize..3,
        cap in 0usize..3,
    ) {
        let n = positions.len();
        let game = Spatial::new(&positions, fee, max_size.min(n).max(1), f64::INFINITY);
        let opts = EngineOptions {
            rule: RULES[rule_pick],
            shortlist_cap: cap,
            ..Default::default()
        };
        let reference = reference_run(&game, opts);
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let _reset = ThreadReset;
        for threads in [1usize, 4] {
            ccs_par::set_threads(threads);
            let engine = fingerprint(&run(&game, Partition::singletons(n), opts));
            prop_assert!(
                engine == reference,
                "engine diverged at {threads} threads: {engine:?} vs {reference:?}"
            );
        }
    }
}

/// A deterministic grid against [`reference_run`]: players at 0, 1, 2, 10
/// and 11, coalitions of at most 3, every rule, fees from none to
/// overwhelming, and caps from exact to wider than the coalition count.
#[test]
fn worklist_matches_full_scan_across_rules_and_paths() {
    let positions = [0.0, 1.0, 2.0, 10.0, 11.0];
    for rule in RULES {
        for fee in [0.0, 2.0, 4.0, 6.0, 20.0] {
            for cap in [0usize, 1, 3, 8] {
                let opts = EngineOptions {
                    rule,
                    shortlist_cap: cap,
                    ..EngineOptions::default()
                };
                let game = Spatial::new(&positions, fee, 3, f64::INFINITY);
                let engine = fingerprint(&run(&game, Partition::singletons(5), opts));
                assert_eq!(
                    engine,
                    reference_run(&game, opts),
                    "rule {rule:?} fee {fee} cap {cap}"
                );
            }
        }
    }
}

/// The shortlist is all or nothing: a game that orders only some of its
/// players gets the exact scan's trajectory, under every rule.
#[test]
fn a_partial_neighbor_order_gets_the_exact_scan() {
    let positions = [0.0, 1.0, 2.0, 10.0, 11.0, 40.0, 41.5];
    let game = || Spatial::new(&positions, 6.0, 3, f64::INFINITY);
    let mut bites = false;
    for rule in RULES {
        let exact = EngineOptions {
            rule,
            ..EngineOptions::default()
        };
        let capped = EngineOptions {
            shortlist_cap: 1,
            ..exact
        };
        let reference = reference_run(&game(), exact);
        let partial = fingerprint(&run(&EvenOnly(game()), Partition::singletons(7), capped));
        assert_eq!(partial, reference, "{rule:?}");
        let shortlisted = fingerprint(&run(&game(), Partition::singletons(7), capped));
        assert_eq!(shortlisted, reference_run(&game(), capped), "{rule:?}");
        bites |= shortlisted != reference;
    }
    assert!(
        bites,
        "a cap of 1 must change some trajectory for the test to bite"
    );
}

/// Shortlist mode asks the game for each player's neighbor order once per
/// run, however many rounds the dynamics take.
#[test]
fn neighbor_orders_are_fetched_once_per_player() {
    let positions = [0.0, 2.0, 4.0, 6.0, 8.0, 1000.0, 1001.0];
    let game = Spatial::new(&positions, 12.0, 3, 50.0);
    let report = run(
        &game,
        Partition::singletons(positions.len()),
        EngineOptions {
            shortlist_cap: 2,
            ..EngineOptions::default()
        },
    );
    assert!(report.rounds >= 3, "got {} rounds", report.rounds);
    assert_eq!(game.orders.load(Ordering::Relaxed), positions.len());
}

/// A player none of whose watched neighbors' coalitions changed must not be
/// probed at all: the far pair (players 5, 6) settles early while the
/// cluster (0..=4) keeps switching, so every later round must skip the pair
/// — observable both as frozen per-player evaluation counts and on the
/// `coalition.probes_skipped` counter.
#[test]
fn quiescent_players_are_never_probed_again() {
    ccs_telemetry::global().enable();
    let positions = [0.0, 2.0, 4.0, 6.0, 8.0, 1000.0, 1001.0];
    let opts = |max_rounds| EngineOptions {
        shortlist_cap: 2,
        check_stability: false,
        max_rounds,
        ..Default::default()
    };

    let game = Spatial::new(&positions, 12.0, 3, 50.0);
    let skipped = ccs_telemetry::counter!("coalition.probes_skipped");
    let before = skipped.get();
    let full = run(&game, Partition::singletons(positions.len()), opts(0));
    let skipped_delta = skipped.get() - before;
    assert!(full.converged);
    assert!(
        full.rounds >= 3,
        "instance must stay active past round 2 for the test to bite, got {} rounds",
        full.rounds
    );
    let far_evals_full = [game.evals_of(5), game.evals_of(6)];

    // Replay only the first two rounds: the far pair's evaluation counts
    // must already be final, i.e. rounds 3.. never touched them. (Both runs
    // include the same final social-cost pass, so the counts are directly
    // comparable.)
    let replay = Spatial::new(&positions, 12.0, 3, 50.0);
    let truncated = run(&replay, Partition::singletons(positions.len()), opts(2));
    assert!(!truncated.converged, "two rounds must not suffice");
    assert_eq!(
        [replay.evals_of(5), replay.evals_of(6)],
        far_evals_full,
        "rounds 3..{} must never evaluate the quiescent far pair",
        full.rounds
    );

    // The skips land on the telemetry counter: the far pair alone accounts
    // for two skipped probes in each round past the second.
    assert!(
        skipped_delta >= 2 * (full.rounds as u64 - 2),
        "expected >= {} skipped probes, counted {}",
        2 * (full.rounds - 2),
        skipped_delta
    );
}
