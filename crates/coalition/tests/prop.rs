//! Property-based tests of the coalition-formation engine.

use ccs_coalition::engine::{run, EngineOptions, SwitchRule};
use ccs_coalition::game::{FeeSharingGame, HedonicGame};
use ccs_coalition::partition::Partition;
use ccs_coalition::stability::{find_blocking_move, is_nash_stable};
use proptest::prelude::*;

fn game_from(positions: &[f64], fee: f64, max_size: usize) -> FeeSharingGame {
    let distance = positions
        .iter()
        .map(|a| positions.iter().map(|b| (a - b).abs()).collect())
        .collect();
    FeeSharingGame::new(fee, distance, max_size)
}

/// Total social cost of a coalition structure: every player's cost.
fn social_cost(game: &impl HedonicGame, partition: &Partition) -> f64 {
    partition
        .coalitions()
        .map(|(_, c)| c.iter().map(|&p| game.player_cost(p, c)).sum::<f64>())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_always_converges_and_stays_consistent(
        positions in proptest::collection::vec(0.0f64..100.0, 2..10),
        fee in 0.0f64..20.0,
        rule_pick in 0usize..3,
    ) {
        let n = positions.len();
        let game = game_from(&positions, fee, n);
        let rule = [
            SwitchRule::SelfishWithHistory,
            SwitchRule::SelfishWithConsent,
            SwitchRule::Utilitarian,
        ][rule_pick];
        let report = run(
            &game,
            Partition::singletons(n),
            EngineOptions { rule, ..Default::default() },
        );
        prop_assert!(report.converged, "rule {rule:?} must converge");
        prop_assert!(report.partition.is_consistent());
        prop_assert_eq!(report.partition.num_players(), n);
    }

    #[test]
    fn history_rule_terminates_individually_rational(
        positions in proptest::collection::vec(0.0f64..100.0, 2..9),
        fee in 0.0f64..15.0,
    ) {
        // General hedonic games need not admit a Nash-stable partition at
        // all (e.g. two players where one always wants to pair up and the
        // other always wants to flee), so the engine's guarantee is
        // termination plus *individual rationality*: the singleton escape
        // is never history-blocked, so at a fixed point nobody prefers
        // being alone. Full Nash stability is asserted on the CCS game
        // itself (ccs-core tests), where it holds empirically.
        let n = positions.len();
        let game = game_from(&positions, fee, n);
        let report = run(&game, Partition::singletons(n), EngineOptions::default());
        prop_assert!(report.converged);
        for player in 0..n {
            let members = report.partition.members(report.partition.coalition_of(player));
            let current = game.player_cost(player, members);
            let solo = game.player_cost(player, &[player]);
            prop_assert!(
                current <= solo + 1e-9,
                "player {player} pays {current} but solo costs {solo} in {}",
                report.partition
            );
        }
        // A residual blocking move, if any, can only be a join (which the
        // no-revisit history may legitimately veto) — never a solo exit.
        if let Some(mv) = find_blocking_move(&game, &report.partition, 1e-9) {
            prop_assert!(mv.target.is_some(), "solo exits are never blocked: {mv:?}");
        }
    }

    #[test]
    fn utilitarian_dynamics_never_increase_social_cost(
        positions in proptest::collection::vec(0.0f64..100.0, 2..9),
        fee in 0.0f64..15.0,
    ) {
        let n = positions.len();
        let game = game_from(&positions, fee, n);
        let initial = Partition::singletons(n);
        let before = social_cost(&game, &initial);
        let report = run(
            &game,
            initial,
            EngineOptions { rule: SwitchRule::Utilitarian, ..Default::default() },
        );
        prop_assert!(social_cost(&game, &report.partition) <= before + 1e-9);
    }

    #[test]
    fn feasibility_cap_is_never_violated(
        positions in proptest::collection::vec(0.0f64..50.0, 3..9),
        fee in 1.0f64..30.0,
        cap in 1usize..4,
    ) {
        let n = positions.len();
        let game = game_from(&positions, fee, cap);
        let report = run(&game, Partition::singletons(n), EngineOptions::default());
        for (_, members) in report.partition.coalitions() {
            prop_assert!(members.len() <= cap);
        }
    }

    #[test]
    fn partition_moves_preserve_the_partition_property(
        n in 2usize..12,
        moves in proptest::collection::vec((0usize..12, 0usize..12, any::<bool>()), 0..30),
    ) {
        let mut p = Partition::singletons(n);
        for (player, target_player, go_solo) in moves {
            let player = player % n;
            if go_solo {
                p.move_to_singleton(player);
            } else {
                let target = p.coalition_of(target_player % n);
                p.move_to_coalition(player, target);
            }
            prop_assert!(p.is_consistent());
            let covered: usize = p.coalitions().map(|(_, m)| m.len()).sum();
            prop_assert_eq!(covered, n);
        }
    }

    #[test]
    fn stability_check_agrees_with_zero_fee_intuition(
        positions in proptest::collection::vec(0.0f64..100.0, 2..8),
    ) {
        // With no fee to share, singletons are always Nash-stable.
        let n = positions.len();
        let game = game_from(&positions, 0.0, n);
        prop_assert!(is_nash_stable(&game, &Partition::singletons(n), 1e-9));
    }
}
