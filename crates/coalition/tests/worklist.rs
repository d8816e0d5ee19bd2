//! Integration tests of the activity-driven worklist: bit-identity with the
//! reference full scan across rules, shortlist caps and thread counts, and
//! a regression test that provably quiescent players are never probed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ccs_coalition::engine::{run, ConvergenceReport, EngineOptions, SwitchRule};
use ccs_coalition::game::{FeeSharingGame, HedonicGame};
use ccs_coalition::partition::Partition;
use proptest::prelude::*;

/// [`FeeSharingGame`] with a nearest-first neighbor order limited to
/// `reach` (players farther away are never listed, whatever the limit) and
/// a per-player count of cost evaluations. The reach bound lets tests build
/// spatially isolated groups whose shortlists do not cross; the counters
/// observe exactly which players the engine probes.
struct Spatial {
    inner: FeeSharingGame,
    reach: f64,
    evals: Vec<AtomicUsize>,
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

/// Everything a run's observable outcome consists of; two runs are "the
/// same" exactly when these match.
fn fingerprint(report: &ConvergenceReport) -> (String, usize, usize, bool) {
    (
        report.partition.to_string(),
        report.rounds,
        report.switches,
        report.converged,
    )
}

/// Serializes mutations of the global `ccs_par` thread count across
/// concurrently running property cases.
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

    /// The worklist engine must replay the reference full scan bit for bit:
    /// same partition, same round/switch counts, same social-cost bits —
    /// for every rule, in exact and shortlist candidate modes, at one and
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
        let rule = [
            SwitchRule::SelfishWithHistory,
            SwitchRule::SelfishWithConsent,
            SwitchRule::Utilitarian,
        ][rule_pick];
        let opts = |worklist: bool| EngineOptions {
            rule,
            shortlist_cap: cap,
            worklist,
            ..Default::default()
        };
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let _reset = ThreadReset;
        let reference = fingerprint(&run(&game, Partition::singletons(n), opts(false)));
        for threads in [1usize, 4] {
            ccs_par::set_threads(threads);
            let with_worklist = fingerprint(&run(&game, Partition::singletons(n), opts(true)));
            prop_assert!(
                with_worklist == reference,
                "worklist diverged at {threads} threads: {with_worklist:?} vs {reference:?}"
            );
            let without = fingerprint(&run(&game, Partition::singletons(n), opts(false)));
            prop_assert!(
                without == reference,
                "full scan unstable at {threads} threads: {without:?} vs {reference:?}"
            );
        }
    }
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
