//! Nash-stability checking for coalition structures.
//!
//! A partition is **Nash-stable** when no single player can strictly lower
//! its own cost by a feasible unilateral deviation — joining another
//! existing coalition or splitting off alone. This is the equilibrium
//! concept the paper's CCSGA converges to; the checker here is rule-agnostic
//! (it ignores switch histories and consent), so a `true` answer certifies a
//! pure Nash equilibrium of the underlying game.

use crate::engine::push_joined;
use crate::game::HedonicGame;
use crate::partition::{CoalitionId, Partition};

/// Cost magnitude up to which [`margin`] is the plain absolute `epsilon`.
const MARGIN_SCALE: f64 = 1e3;

/// The strictness margin for comparing costs `a` and `b`: `epsilon` while
/// both are at most `1e3` in magnitude, and `epsilon` per `1e3` of the
/// larger magnitude beyond that. An absolute margin alone stops absorbing
/// float rounding (about `1e-16` of the costs compared) once costs reach
/// about `1e7`, and then counts noise as an improvement. The dynamics'
/// gain and consent tests and the stability audit all compare through it.
pub(crate) fn margin(a: f64, b: f64, epsilon: f64) -> f64 {
    epsilon * (a.abs().max(b.abs()) / MARGIN_SCALE).max(1.0)
}

/// A deviation that would strictly benefit a player.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingMove {
    /// The player who wants to deviate.
    pub player: usize,
    /// Where it wants to go (`None` = split off into a singleton).
    pub target: Option<CoalitionId>,
    /// Its current cost.
    pub current_cost: f64,
    /// Its cost after the deviation.
    pub new_cost: f64,
}

/// Finds a blocking move if one exists (players and targets scanned in
/// deterministic index order; the first strict improvement is returned).
/// An improvement must exceed `epsilon`, scaled up in proportion for costs
/// above `1e3` in magnitude.
pub fn find_blocking_move<G: HedonicGame>(
    game: &G,
    partition: &Partition,
    epsilon: f64,
) -> Option<BlockingMove> {
    let n = game.num_players();
    let mut joined: Vec<usize> = Vec::new();
    for player in 0..n {
        let from_id = partition.coalition_of(player);
        let from_members = partition.members(from_id);
        let current_cost = game.player_cost(player, from_members);

        for (id, members) in partition.coalitions() {
            if id == from_id {
                continue;
            }
            joined.clear();
            push_joined(&mut joined, members, player);
            if !game.coalition_feasible(&joined) {
                continue;
            }
            let new_cost = game.player_cost(player, &joined);
            if new_cost < current_cost - margin(current_cost, new_cost, epsilon) {
                return Some(BlockingMove {
                    player,
                    target: Some(id),
                    current_cost,
                    new_cost,
                });
            }
        }

        if from_members.len() > 1 {
            let solo = [player];
            if game.coalition_feasible(&solo) {
                let new_cost = game.player_cost(player, &solo);
                if new_cost < current_cost - margin(current_cost, new_cost, epsilon) {
                    return Some(BlockingMove {
                        player,
                        target: None,
                        current_cost,
                        new_cost,
                    });
                }
            }
        }
    }
    None
}

/// Whether the partition is Nash-stable: no feasible unilateral deviation
/// strictly improves any player by more than `epsilon` (scaled as in
/// [`find_blocking_move`]).
pub fn is_nash_stable<G: HedonicGame>(game: &G, partition: &Partition, epsilon: f64) -> bool {
    find_blocking_move(game, partition, epsilon).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::FeeSharingGame;

    fn two_cluster_game(fee: f64) -> FeeSharingGame {
        let pos: &[f64] = &[0.0, 1.0, 10.0, 11.0];
        let distance = pos
            .iter()
            .map(|a| pos.iter().map(|b| (a - b).abs()).collect())
            .collect();
        FeeSharingGame::new(fee, distance, 4)
    }

    #[test]
    fn singletons_unstable_when_fee_is_high() {
        let game = two_cluster_game(6.0);
        let p = Partition::singletons(4);
        let mv = find_blocking_move(&game, &p, 1e-9).expect("high fee invites cooperation");
        assert!(mv.new_cost < mv.current_cost);
        assert!(!is_nash_stable(&game, &p, 1e-9));
    }

    #[test]
    fn paired_clusters_are_stable() {
        let game = two_cluster_game(6.0);
        // {0,1} and {2,3}: fee share 3 + distance <= 1 beats solo fee 6 and
        // beats joining the far pair (distance >= 9).
        let p = Partition::from_groups(4, &[vec![0, 1], vec![2, 3]]);
        assert!(is_nash_stable(&game, &p, 1e-9));
    }

    #[test]
    fn zero_fee_singletons_are_stable() {
        let game = two_cluster_game(0.0);
        assert!(is_nash_stable(&game, &Partition::singletons(4), 1e-9));
    }

    #[test]
    fn blocking_move_reports_singleton_exit() {
        // Grand coalition with zero fee: distant players want out.
        let game = two_cluster_game(0.0);
        let p = Partition::grand_coalition(4);
        let mv = find_blocking_move(&game, &p, 1e-9).expect("someone escapes");
        assert_eq!(mv.target, None, "best first deviation found is going solo");
    }

    #[test]
    fn epsilon_tolerance_suppresses_tiny_gains() {
        let game = two_cluster_game(6.0);
        let p = Partition::singletons(4);
        // A huge epsilon declares everything stable.
        assert!(is_nash_stable(&game, &p, 1e9));
    }
}
