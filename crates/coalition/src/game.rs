//! The hedonic-game abstraction coalition formation runs against.
//!
//! A [`HedonicGame`] tells the engine two things: how much a player pays
//! inside a given coalition (preferences are cost-minimizing), and which
//! coalitions are admissible. The CCS core implements this trait with the
//! comprehensive-cost model; the tests here use small synthetic games.
//!
//! Every coalition crosses the trait as a **sorted slice** of member
//! indices (strictly ascending, as [`Partition`](crate::partition::Partition)
//! stores it), so games can key memos on it without copying.

/// A cost-based hedonic coalition-formation game over players `{0, .., n-1}`.
///
/// Lower cost is preferred. Implementations must be deterministic and
/// finite-valued on every feasible coalition containing the player.
///
/// The `Sync` supertrait lets the engine evaluate a player's candidate
/// moves in parallel (`ccs-par`); determinism then guarantees the selected
/// move — and therefore the whole partition trajectory — is identical at
/// any thread count.
pub trait HedonicGame: Sync {
    /// Number of players.
    fn num_players(&self) -> usize;

    /// The cost player `player` pays as a member of `coalition`, a sorted
    /// slice that always contains `player`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `player` is not in `coalition`.
    fn player_cost(&self, player: usize, coalition: &[usize]) -> f64;

    /// Whether a coalition (a sorted slice) is admissible at all (e.g.
    /// within service capacity). The engine never forms infeasible
    /// coalitions. Singletons must always be feasible so every player has a
    /// fallback.
    fn coalition_feasible(&self, coalition: &[usize]) -> bool {
        let _ = coalition;
        true
    }

    /// Optional spatial shortlist hook: append up to `limit` players to
    /// `out` in deterministic nearest-first order from `player` and return
    /// `true`. The default returns `false` ("no spatial structure"), which
    /// makes the engine scan every coalition exactly. Only consulted when
    /// `EngineOptions::shortlist_cap > 0`, once per player when a run
    /// starts, and all or none: the engine uses the shortlist only if this
    /// returns `true` for every player, and otherwise scans exactly.
    /// Implementations must produce the same order on every call with the
    /// same arguments — the engine's determinism guarantee inherits it.
    fn neighbor_order(&self, player: usize, limit: usize, out: &mut Vec<usize>) -> bool {
        let _ = (player, limit, out);
        false
    }
}

impl<G: HedonicGame + ?Sized> HedonicGame for &G {
    fn num_players(&self) -> usize {
        (**self).num_players()
    }
    fn player_cost(&self, player: usize, coalition: &[usize]) -> f64 {
        (**self).player_cost(player, coalition)
    }
    fn coalition_feasible(&self, coalition: &[usize]) -> bool {
        (**self).coalition_feasible(coalition)
    }
    fn neighbor_order(&self, player: usize, limit: usize, out: &mut Vec<usize>) -> bool {
        (**self).neighbor_order(player, limit, out)
    }
}

/// A simple synthetic game used by unit tests across this crate: players
/// split a per-coalition fixed fee equally and each additionally pays a
/// personal distance to the coalition's cheapest "anchor" player.
///
/// With `fee > 0` cooperation is attractive but crowding (max size) caps it,
/// exercising both the improvement and feasibility paths of the engine.
#[derive(Debug, Clone)]
pub struct FeeSharingGame {
    /// Per-coalition fixed fee, split equally.
    pub fee: f64,
    /// Pairwise "distance" matrix (symmetric, zero diagonal).
    pub distance: Vec<Vec<f64>>,
    /// Maximum feasible coalition size.
    pub max_size: usize,
}

impl FeeSharingGame {
    /// Builds the game from a distance matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `max_size == 0`.
    pub fn new(fee: f64, distance: Vec<Vec<f64>>, max_size: usize) -> Self {
        let n = distance.len();
        assert!(
            distance.iter().all(|row| row.len() == n),
            "matrix not square"
        );
        assert!(max_size >= 1, "max coalition size must be >= 1");
        FeeSharingGame {
            fee,
            distance,
            max_size,
        }
    }
}

impl HedonicGame for FeeSharingGame {
    fn num_players(&self) -> usize {
        self.distance.len()
    }

    fn player_cost(&self, player: usize, coalition: &[usize]) -> f64 {
        assert!(coalition.contains(&player), "player must be a member");
        let share = self.fee / coalition.len() as f64;
        // Distance to the coalition "center": the member minimizing total
        // distance (deterministic tie-break on index via min_by ordering).
        let center = coalition
            .iter()
            .min_by(|&&a, &&b| {
                let da: f64 = coalition.iter().map(|&q| self.distance[a][q]).sum();
                let db: f64 = coalition.iter().map(|&q| self.distance[b][q]).sum();
                da.total_cmp(&db).then(a.cmp(&b))
            })
            .copied()
            .expect("nonempty coalition");
        share + self.distance[player][center]
    }

    fn coalition_feasible(&self, coalition: &[usize]) -> bool {
        coalition.len() <= self.max_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_game(fee: f64, max_size: usize) -> FeeSharingGame {
        // Four players on a line at 0, 1, 2, 10.
        let pos: &[f64] = &[0.0, 1.0, 2.0, 10.0];
        let distance = pos
            .iter()
            .map(|a| pos.iter().map(|b| (a - b).abs()).collect())
            .collect();
        FeeSharingGame::new(fee, distance, max_size)
    }

    #[test]
    fn singleton_pays_full_fee() {
        let g = line_game(6.0, 4);
        assert_eq!(g.player_cost(2, &[2]), 6.0);
    }

    #[test]
    fn sharing_reduces_fee_share() {
        let g = line_game(6.0, 4);
        let pair = [0, 1];
        // center is player 0 or 1 (tie on total distance 1.0 → index 0).
        assert_eq!(g.player_cost(0, &pair), 3.0);
        assert_eq!(g.player_cost(1, &pair), 4.0);
    }

    #[test]
    fn feasibility_caps_size() {
        let g = line_game(6.0, 2);
        assert!(g.coalition_feasible(&[0, 1]));
        assert!(!g.coalition_feasible(&[0, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "player must be a member")]
    fn cost_requires_membership() {
        let g = line_game(6.0, 4);
        let _ = g.player_cost(3, &[0, 1]);
    }
}
