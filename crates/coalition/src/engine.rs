//! The coalition-formation engine: iterated switch operations until no
//! player wants (and is allowed) to move.
//!
//! Three switch rules are provided, matching the `abl_switch_rule`
//! ablation in `DESIGN.md`:
//!
//! * [`SwitchRule::SelfishWithHistory`] — the paper's CCSGA rule
//!   (reconstructed from the coalition-formation-game literature the paper
//!   builds on): a player switches whenever it strictly lowers *its own*
//!   cost, and keeps a history of every coalition composition it has been a
//!   member of, never re-*joining* one. Splitting off into a singleton is
//!   always permitted (the individual-rationality fallback), which keeps a
//!   player from being trapped in a coalition that turned bad. Every join
//!   consumes a fresh history entry and a singleton move can only be
//!   followed by a join, so the dynamics terminate.
//! * [`SwitchRule::SelfishWithConsent`] — a switch additionally requires
//!   that no member of the receiving coalition is made worse off.
//! * [`SwitchRule::Utilitarian`] — a switch requires the total social cost
//!   to strictly decrease; social cost is then an exact potential, so
//!   convergence is immediate by monotonicity.
//!
//! # The activity-driven worklist
//!
//! The naive dynamics re-probe every player every round, even when nothing
//! a player could react to has changed. Since a probe's outcome is a pure
//! function of (a) the player's own coalition, (b) the compositions of its
//! candidate coalitions, and (c) its own history, a probe that returned
//! "no move" stays "no move" until one of those inputs changes. The engine
//! therefore tracks **dirty** players and skips quiescent ones entirely
//! (`coalition.probes_skipped`). Every player starts dirty, so round 1
//! probes everyone. The mode is fixed once per run:
//!
//! * **Exact mode** (`shortlist_cap == 0`, or a game that does not order
//!   every player): a probe's join candidates are every other coalition.
//!   Every switch appends its source and destination slots to a change
//!   log. A quiescent player replays the log suffix since its last probe
//!   and re-evaluates **only the changed coalitions**
//!   (`coalition.probes_partial`): every unchanged candidate — including
//!   the singleton fallback — kept its old gain and margin, so its gain
//!   still does not exceed the margin, and the strict acceptance means a
//!   changed candidate can never tie with an unchanged one, so the partial
//!   probe selects exactly the move the full scan would.
//! * **Shortlist mode** (`shortlist_cap > 0` and a game whose
//!   [`HedonicGame::neighbor_order`] answers for every player): each
//!   player's neighbor list is fetched from the game once, when the run
//!   starts, and a probe's join candidates are the coalitions of those
//!   neighbors, nearest first, up to the cap. A reverse index of the lists
//!   answers "who shortlists player `m`?". A switch marks the members of
//!   the source and destination coalitions (the mover among them) and
//!   everyone whose list contains one of them; unmarked players are
//!   skipped outright. Any event that could change a player's candidate
//!   set, current cost, or history marks it, so a skipped probe is always
//!   provably a no-op.
//!
//! Rounds process players in ascending index order and every probe breaks
//! ties the same way whatever order its candidates came in, so the
//! partition trajectory — and the final [`ConvergenceReport`] — is
//! **bit-identical** at any thread count to the naive dynamics that probe
//! every player in every round and ask the game for a fresh neighbor list
//! at each probe. `reference_run` in `tests/worklist.rs`, written apart
//! from this module, runs those dynamics, and the tests there pin the
//! equivalence.

use crate::game::HedonicGame;
use crate::partition::{CoalitionId, Partition};
use crate::stability::{is_nash_stable, margin};
use std::collections::HashSet;

/// How a player is allowed to deviate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchRule {
    /// Strict self-improvement plus a no-revisit history (CCSGA's rule).
    SelfishWithHistory,
    /// Strict self-improvement plus unanimous consent of the receiving
    /// coalition.
    SelfishWithConsent,
    /// Strict decrease of total social cost (exact potential game).
    Utilitarian,
}

/// Strictness margin: an improvement must exceed this to count, in the
/// dynamics and in the final stability audit alike, scaled up for costs
/// above `1e3` in magnitude by [`margin`].
const EPSILON: f64 = 1e-9;

/// Options for [`run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// The switch rule in force.
    pub rule: SwitchRule,
    /// Maximum full player rounds before giving up. `0` means `100 * n`.
    pub max_rounds: usize,
    /// Maximum join candidates per player scan, built from the game's
    /// spatial neighbor order ([`HedonicGame::neighbor_order`]). `0` (the
    /// default) scans every coalition, which is exact; a positive cap turns
    /// on the large-`n` shortlist approximation. The shortlist needs a game
    /// that orders every player: if `neighbor_order` returns `false` for
    /// any player, the run scans every coalition exactly.
    pub shortlist_cap: usize,
    /// Whether to run the final `O(n · coalitions)` Nash-stability audit.
    /// `true` (the default) reports an honest [`ConvergenceReport::nash_stable`];
    /// `false` skips the audit and reports `nash_stable: false`, which is
    /// the right trade at scales where the audit costs more than the run.
    pub check_stability: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            rule: SwitchRule::SelfishWithHistory,
            max_rounds: 0,
            shortlist_cap: 0,
            check_stability: true,
        }
    }
}

/// Outcome of a coalition-formation run.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// The final coalition structure.
    pub partition: Partition,
    /// Full rounds executed (including the final quiet round).
    pub rounds: usize,
    /// Total switch operations applied.
    pub switches: usize,
    /// `true` if a full round passed with no switch (fixed point reached).
    pub converged: bool,
    /// Whether the final partition is Nash-stable (checked independently of
    /// the switch rule, i.e. against *all* unilateral deviations). Always
    /// `false` when the audit was skipped via
    /// [`EngineOptions::check_stability`] — "not verified", not "unstable".
    pub nash_stable: bool,
}

/// One candidate deviation of a player. The derived order — joins by
/// ascending slot, then `Singleton` — is the exact scan's visiting order
/// and the tie-break among equal gains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Move {
    Join(CoalitionId),
    Singleton,
}

/// Reusable buffers shared by every probe of a run — the allocation-free
/// hot-loop pass. Candidate member lists live in one flat `slab` arena
/// (each a sorted sub-slice), and the gain batch is written into a
/// retained buffer via `ccs_par::par_eval_min_into`.
#[derive(Default)]
struct Scratch {
    /// Flat arena of candidate member lists, each sorted ascending.
    slab: Vec<usize>,
    /// Candidates as `(move, slab_start, slab_end)`.
    cands: Vec<(Move, usize, usize)>,
    /// Per-candidate `(cost before, cost after)` pairs, whose difference
    /// is the move's gain; `None` marks an inadmissible candidate.
    gains: Vec<Option<(f64, f64)>>,
    /// The probing player's coalition minus the player (utilitarian
    /// residual).
    residual: Vec<usize>,
    /// Changed-slot indices pending for an exact-mode partial probe.
    pending: Vec<usize>,
    /// Stamp-based slot dedup (`slot_seen[s] == stamp` ⇔ seen this pass).
    slot_seen: Vec<u32>,
    stamp: u32,
}

impl Scratch {
    /// Starts a fresh slot-dedup pass over `nslots` slots and returns the
    /// stamp marking "seen in this pass".
    fn begin_slot_pass(&mut self, nslots: usize) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slot_seen.fill(0);
            self.stamp = 1;
        }
        if self.slot_seen.len() < nslots {
            self.slot_seen.resize(nslots, 0);
        }
        self.stamp
    }
}

/// Shortlist mode's neighbor lists, fetched from the game once per run.
struct Shortlist {
    /// Join candidates per probe at most.
    cap: usize,
    /// CSR forward lists: `fwd[fwd_start[p]..fwd_start[p + 1]]` is `p`'s
    /// neighbor order.
    fwd_start: Vec<u32>,
    fwd: Vec<u32>,
    /// CSR reverse adjacency: `rev[rev_start[m]..rev_start[m + 1]]` lists
    /// every player whose forward list contains `m`.
    rev_start: Vec<u32>,
    rev: Vec<u32>,
}

impl Shortlist {
    /// Asks the game for every player's neighbor order and inverts the
    /// lists, or returns `None` as soon as one player has none: the
    /// shortlist is all or nothing.
    fn build<G: HedonicGame>(game: &G, n: usize, cap: usize) -> Option<Self> {
        // Ask for more neighbors than the cap: nearby players often share a
        // coalition, and history can block some candidates outright.
        let limit = cap.saturating_mul(4).max(16);
        let mut fwd: Vec<u32> = Vec::new();
        let mut fwd_start: Vec<u32> = Vec::with_capacity(n + 1);
        fwd_start.push(0);
        let mut order: Vec<usize> = Vec::new();
        for p in 0..n {
            order.clear();
            if !game.neighbor_order(p, limit, &mut order) {
                return None;
            }
            fwd.extend(order.iter().map(|&q| q as u32));
            fwd_start.push(fwd.len() as u32);
        }

        // Invert the forward lists: count each player's watchers, then
        // place them.
        let mut rev_start = vec![0u32; n + 1];
        for &q in &fwd {
            rev_start[q as usize + 1] += 1;
        }
        for i in 0..n {
            rev_start[i + 1] += rev_start[i];
        }
        let mut fill = rev_start.clone();
        let mut rev = vec![0u32; fwd.len()];
        for p in 0..n {
            for &q in &fwd[fwd_start[p] as usize..fwd_start[p + 1] as usize] {
                rev[fill[q as usize] as usize] = p as u32;
                fill[q as usize] += 1;
            }
        }
        Some(Shortlist {
            cap,
            fwd_start,
            fwd,
            rev_start,
            rev,
        })
    }

    /// `player`'s neighbors, nearest first.
    fn neighbors(&self, player: usize) -> &[u32] {
        &self.fwd[self.fwd_start[player] as usize..self.fwd_start[player + 1] as usize]
    }

    /// Every player whose neighbor list contains `player`.
    fn watchers(&self, player: usize) -> &[u32] {
        &self.rev[self.rev_start[player] as usize..self.rev_start[player + 1] as usize]
    }
}

/// Dirty-player bookkeeping for one run (see the module docs).
struct Worklist {
    /// Players needing a full probe; initialized all-true so round 1
    /// probes every player.
    dirty: Vec<bool>,
    /// Exact mode: slot indices touched by every switch, in order.
    changed_log: Vec<u32>,
    /// Exact mode: each player's consumed prefix of `changed_log`.
    log_pos: Vec<usize>,
    /// Shortlist mode's lists; `None` in exact mode.
    shortlist: Option<Shortlist>,
}

impl Worklist {
    /// Records a switch out of `from` into `to`: exact mode logs both
    /// slots, and both modes mark their members dirty (the mover is a
    /// member of `to`), shortlist mode also every player watching one of
    /// them.
    fn record_switch(&mut self, partition: &Partition, from: CoalitionId, to: CoalitionId) {
        if self.shortlist.is_none() {
            self.changed_log
                .extend([from.index() as u32, to.index() as u32]);
        }
        for id in [from, to] {
            for &m in partition.members(id) {
                self.dirty[m] = true;
                if let Some(shortlist) = &self.shortlist {
                    for &w in shortlist.watchers(m) {
                        self.dirty[w as usize] = true;
                    }
                }
            }
        }
    }
}

/// Where a probe's join candidates come from.
#[derive(Clone, Copy)]
enum Candidates<'a> {
    /// Every other coalition: the exact scan.
    Every,
    /// The coalitions of the player's neighbors, nearest first, until `cap`
    /// joins pass the history check (shortlist mode).
    Near { order: &'a [u32], cap: usize },
    /// Only the slots in `Scratch::pending`, and no singleton: exact mode's
    /// partial probe.
    Changed,
}

/// Runs coalition formation from `initial` until convergence (no applicable
/// switch) or the round cap.
///
/// Players are scanned round-robin in index order; each player applies its
/// *best* admissible improving move, which keeps the dynamics deterministic.
///
/// # Panics
///
/// Panics if `initial.num_players() != game.num_players()`.
pub fn run<G: HedonicGame>(
    game: &G,
    initial: Partition,
    options: EngineOptions,
) -> ConvergenceReport {
    let _span = ccs_telemetry::span!("coalition_run");
    let n = game.num_players();
    assert_eq!(
        initial.num_players(),
        n,
        "partition and game disagree on player count"
    );
    let max_rounds = if options.max_rounds == 0 {
        100 * n
    } else {
        options.max_rounds
    };

    let mut partition = initial;
    // Per-player set of coalition compositions already visited
    // (only used by the history rule).
    let mut history: Vec<HashSet<Vec<usize>>> = vec![HashSet::new(); n];
    if options.rule == SwitchRule::SelfishWithHistory {
        for (p, visited) in history.iter_mut().enumerate() {
            visited.insert(partition.members(partition.coalition_of(p)).to_vec());
        }
    }

    let mut wl = Worklist {
        dirty: vec![true; n],
        changed_log: Vec::new(),
        log_pos: vec![0; n],
        shortlist: match options.shortlist_cap {
            0 => None,
            cap => Shortlist::build(game, n, cap),
        },
    };
    let mut scratch = Scratch::default();
    let skipped = ccs_telemetry::counter!("coalition.probes_skipped");
    let partials = ccs_telemetry::counter!("coalition.probes_partial");

    let mut switches = 0;
    let mut rounds = 0;
    let mut converged = false;

    while rounds < max_rounds {
        rounds += 1;
        let mut any_switch = false;

        for player in 0..n {
            let candidates = if wl.dirty[player] {
                wl.dirty[player] = false;
                wl.log_pos[player] = wl.changed_log.len();
                match &wl.shortlist {
                    Some(s) => Candidates::Near {
                        order: s.neighbors(player),
                        cap: s.cap,
                    },
                    None => Candidates::Every,
                }
            } else {
                collect_pending(&mut scratch, &wl, player, &partition);
                wl.log_pos[player] = wl.changed_log.len();
                if scratch.pending.is_empty() {
                    skipped.incr();
                    continue;
                }
                partials.incr();
                Candidates::Changed
            };
            let Some(mv) = best_move(
                game,
                &partition,
                player,
                &history,
                &options,
                &mut scratch,
                candidates,
            ) else {
                continue;
            };

            let from_id = partition.coalition_of(player);
            let target = match mv {
                Move::Join(id) => {
                    partition.move_to_coalition(player, id);
                    id
                }
                Move::Singleton => partition.move_to_singleton(player).1,
            };
            if options.rule == SwitchRule::SelfishWithHistory {
                history[player].insert(partition.members(target).to_vec());
            }
            switches += 1;
            any_switch = true;
            debug_assert!(partition.is_consistent());
            wl.record_switch(&partition, from_id, target);
        }

        if !any_switch {
            converged = true;
            break;
        }
    }

    ccs_telemetry::counter!("coalition.rounds").add(rounds as u64);
    ccs_telemetry::counter!("coalition.switch_ops").add(switches as u64);

    let nash_stable = options.check_stability && is_nash_stable(game, &partition, EPSILON);
    ConvergenceReport {
        partition,
        rounds,
        switches,
        converged,
        nash_stable,
    }
}

/// Collects into `scratch.pending` the deduplicated, ascending slot indices
/// that changed since `player`'s last probe (its unread `changed_log`
/// suffix, always empty in shortlist mode), excluding its own slot and
/// tombstones.
fn collect_pending(scratch: &mut Scratch, wl: &Worklist, player: usize, partition: &Partition) {
    let stamp = scratch.begin_slot_pass(partition.num_slots());
    scratch.pending.clear();
    let own = partition.coalition_of(player).index();
    for &s in &wl.changed_log[wl.log_pos[player]..] {
        let s = s as usize;
        if s == own || scratch.slot_seen[s] == stamp {
            continue;
        }
        scratch.slot_seen[s] = stamp;
        if partition.members(partition.slot(s)).is_empty() {
            continue;
        }
        scratch.pending.push(s);
    }
    scratch.pending.sort_unstable();
}

/// Appends `members ∪ {player}` to `slab` in ascending order and returns
/// the range start. `members` must be sorted and must not contain `player`.
pub(crate) fn push_joined(slab: &mut Vec<usize>, members: &[usize], player: usize) -> usize {
    let start = slab.len();
    let mut placed = false;
    for &q in members {
        if !placed && player < q {
            slab.push(player);
            placed = true;
        }
        slab.push(q);
    }
    if !placed {
        slab.push(player);
    }
    start
}

/// The best admissible improving move for `player`, or `None`.
///
/// Candidates are materialized in `candidates`' order into the flat scratch
/// arena, their gains are evaluated as one `ccs-par` batch (each gain is a
/// pure function of the candidate, so the batch is deterministic), and a
/// serial reduce picks the largest gain, breaking ties toward the lower
/// target slot with `Singleton` last — making the chosen move, and
/// therefore the whole partition trajectory, bit-identical at any thread
/// count. The tie-break does not depend on the candidates' order, so the
/// shortlist, which visits coalitions nearest-first, breaks a tie the way
/// the exact scan does.
///
/// A [`Candidates::Changed`] probe evaluates only the coalitions in
/// `scratch.pending` and omits the singleton candidate: every omitted
/// candidate kept its gain from the player's last probe (not above its
/// margin), so it cannot be the best move (see the module docs).
fn best_move<G: HedonicGame>(
    game: &G,
    partition: &Partition,
    player: usize,
    history: &[HashSet<Vec<usize>>],
    options: &EngineOptions,
    scratch: &mut Scratch,
    candidates: Candidates<'_>,
) -> Option<Move> {
    let prefs = ccs_telemetry::counter!("coalition.preference_evals");
    let attempts = ccs_telemetry::counter!("coalition.switch_ops_attempted");
    let from_id = partition.coalition_of(player);
    let from_members = partition.members(from_id);

    prefs.incr();
    let current_cost = game.player_cost(player, from_members);

    // Costs of the coalition left behind, before and after departure — only
    // the utilitarian rule reads these, so the selfish rules skip the
    // `2·|S| - 1` extra evaluations per scanned player.
    let (from_cost_before, from_cost_after) = if options.rule == SwitchRule::Utilitarian {
        scratch.residual.clear();
        scratch
            .residual
            .extend(from_members.iter().copied().filter(|&q| q != player));
        let before = from_members
            .iter()
            .map(|&q| {
                prefs.incr();
                game.player_cost(q, from_members)
            })
            .sum();
        let after = scratch
            .residual
            .iter()
            .map(|&q| {
                prefs.incr();
                game.player_cost(q, &scratch.residual)
            })
            .sum();
        (before, after)
    } else {
        (0.0, 0.0)
    };

    // Candidate joins, each coalition once and never the player's own;
    // history-blocked compositions are pruned here (pure and cheap) so they
    // cost no game evaluations. The shortlist's order is deterministic, so
    // the trajectory stays thread-count independent.
    scratch.slab.clear();
    scratch.cands.clear();
    let (len, cap) = match candidates {
        Candidates::Every => (partition.num_slots(), usize::MAX),
        Candidates::Near { order, cap } => (order.len(), cap),
        Candidates::Changed => (scratch.pending.len(), usize::MAX),
    };
    let stamp = scratch.begin_slot_pass(partition.num_slots());
    for i in 0..len {
        let id = match candidates {
            Candidates::Every => partition.slot(i),
            Candidates::Near { order, .. } => partition.coalition_of(order[i] as usize),
            Candidates::Changed => partition.slot(scratch.pending[i]),
        };
        let members = partition.members(id);
        if id == from_id || members.is_empty() || scratch.slot_seen[id.index()] == stamp {
            continue;
        }
        scratch.slot_seen[id.index()] = stamp;
        let start = push_joined(&mut scratch.slab, members, player);
        if options.rule == SwitchRule::SelfishWithHistory
            && history[player].contains(&scratch.slab[start..])
        {
            scratch.slab.truncate(start);
            continue;
        }
        scratch
            .cands
            .push((Move::Join(id), start, scratch.slab.len()));
        if scratch.cands.len() >= cap {
            break;
        }
    }
    // Candidate: split off into a singleton (only meaningful from a larger
    // coalition). Going solo is the individual-rationality fallback: it is
    // never blocked by history (see the module docs) and needs nobody's
    // consent.
    if !matches!(candidates, Candidates::Changed) && from_members.len() > 1 {
        let start = scratch.slab.len();
        scratch.slab.push(player);
        scratch.cands.push((Move::Singleton, start, start + 1));
    }

    // Parallel gain evaluation; `None` marks an inadmissible candidate
    // (infeasible, or a join the receiving coalition would veto). Each
    // candidate is a full facility evaluation, so a tiny explicit minimum
    // keeps these batches parallel below the global `ccs_par` cutoff. The
    // results land in the retained `gains` buffer — no per-probe `Vec`.
    let Scratch {
        slab, cands, gains, ..
    } = &mut *scratch;
    let (slab, cands) = (&*slab, &*cands);
    ccs_par::par_eval_min_into(cands.len(), 2, gains, |i| {
        let (mv, s, e) = cands[i];
        let joined = &slab[s..e];
        if !game.coalition_feasible(joined) {
            return None;
        }
        prefs.incr();
        let new_cost = game.player_cost(player, joined);
        match options.rule {
            SwitchRule::SelfishWithHistory => Some((current_cost, new_cost)),
            SwitchRule::SelfishWithConsent => match mv {
                Move::Singleton => Some((current_cost, new_cost)),
                Move::Join(id) => {
                    let members = partition.members(id);
                    let harmed = members.iter().any(|&q| {
                        prefs.incr();
                        prefs.incr();
                        let (after, before) =
                            (game.player_cost(q, joined), game.player_cost(q, members));
                        after > before + margin(after, before, EPSILON)
                    });
                    if harmed {
                        None
                    } else {
                        Some((current_cost, new_cost))
                    }
                }
            },
            SwitchRule::Utilitarian => {
                let (to_before, to_after) = match mv {
                    Move::Join(id) => {
                        let members = partition.members(id);
                        (
                            members
                                .iter()
                                .map(|&q| {
                                    prefs.incr();
                                    game.player_cost(q, members)
                                })
                                .sum::<f64>(),
                            joined
                                .iter()
                                .map(|&q| {
                                    prefs.incr();
                                    game.player_cost(q, joined)
                                })
                                .sum::<f64>(),
                        )
                    }
                    Move::Singleton => (0.0, new_cost),
                };
                Some((from_cost_before + to_before, from_cost_after + to_after))
            }
        }
    });

    // Deterministic serial reduce: strictly larger gain wins, and an equal
    // gain goes to the lower move (lower slot, `Singleton` last) whatever
    // order the candidates came in.
    let mut best: Option<(Move, f64)> = None;
    for (&(mv, _, _), costs) in cands.iter().zip(gains.iter()) {
        let Some((before, after)) = *costs else {
            continue;
        };
        attempts.incr();
        let gain = before - after;
        if gain > margin(before, after, EPSILON) {
            match &best {
                Some((b, g)) if *g > gain || (*g == gain && *b < mv) => {}
                _ => best = Some((mv, gain)),
            }
        }
    }
    best.map(|(mv, _)| mv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::FeeSharingGame;

    fn line_game(fee: f64, max_size: usize) -> FeeSharingGame {
        let pos: &[f64] = &[0.0, 1.0, 2.0, 10.0, 11.0];
        let distance = pos
            .iter()
            .map(|a| pos.iter().map(|b| (a - b).abs()).collect())
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

    /// Two players who pay `solo` alone and `together` as a pair.
    struct PairGame {
        solo: f64,
        together: f64,
    }

    impl HedonicGame for PairGame {
        fn num_players(&self) -> usize {
            2
        }

        fn player_cost(&self, _player: usize, coalition: &[usize]) -> f64 {
            if coalition.len() == 1 {
                self.solo
            } else {
                self.together
            }
        }
    }

    /// A pair a few ulps cheaper than going alone is rounding noise at any
    /// magnitude; at costs near `1e200` an absolute `1e-9` is far below
    /// one ulp, so only a margin scaled to the costs turns it down, under
    /// every rule and in the stability audit. A real gain still counts.
    #[test]
    fn rounding_noise_is_no_improvement_at_any_magnitude() {
        for rule in [
            SwitchRule::SelfishWithHistory,
            SwitchRule::SelfishWithConsent,
            SwitchRule::Utilitarian,
        ] {
            let options = EngineOptions {
                rule,
                ..EngineOptions::default()
            };
            for solo in [1e2, 1e100, 1e200] {
                let noise = PairGame {
                    solo,
                    together: solo * (1.0 - 4.0 * f64::EPSILON),
                };
                let report = run(&noise, Partition::singletons(2), options);
                assert_eq!(report.switches, 0, "{rule:?} at {solo:e}");
                assert!(report.nash_stable, "{rule:?} at {solo:e}");
                let gain = PairGame {
                    solo,
                    together: solo * (1.0 - 1e-6),
                };
                let report = run(&gain, Partition::singletons(2), options);
                assert_eq!(report.switches, 1, "{rule:?} at {solo:e}");
                assert!(report.nash_stable, "{rule:?} at {solo:e}");
            }
        }
    }

    #[test]
    fn converges_from_singletons_under_all_rules() {
        for rule in [
            SwitchRule::SelfishWithHistory,
            SwitchRule::SelfishWithConsent,
            SwitchRule::Utilitarian,
        ] {
            let game = line_game(6.0, 5);
            let report = run(
                &game,
                Partition::singletons(5),
                EngineOptions {
                    rule,
                    ..EngineOptions::default()
                },
            );
            assert!(report.converged, "rule {rule:?} must converge");
            assert!(report.partition.is_consistent());
            assert!(report.switches > 0, "fee 6 makes cooperation attractive");
            assert!(social_cost(&game, &report.partition).is_finite());
        }
    }

    #[test]
    fn zero_fee_keeps_singletons() {
        // With no fee to share, moving can only add distance: nobody moves.
        let game = line_game(0.0, 5);
        let report = run(&game, Partition::singletons(5), EngineOptions::default());
        assert!(report.converged);
        assert_eq!(report.switches, 0);
        assert_eq!(report.partition.num_coalitions(), 5);
        assert!(report.nash_stable);
    }

    #[test]
    fn nearby_players_group_distant_player_stays_out() {
        // Players at 0,1,2 cluster; 10 and 11 pair up; fee 4 is not worth a
        // trip across the gap of 8.
        let game = line_game(4.0, 5);
        let report = run(&game, Partition::singletons(5), EngineOptions::default());
        assert!(report.converged);
        let groups = report.partition.canonical();
        // No coalition mixes {0,1,2} with {3,4}.
        for g in &groups {
            let has_near = g.iter().any(|&p| p <= 2);
            let has_far = g.iter().any(|&p| p >= 3);
            assert!(
                !(has_near && has_far),
                "unexpected mixed coalition {g:?} in {groups:?}"
            );
        }
    }

    #[test]
    fn history_rule_reaches_nash_stable_partition() {
        let game = line_game(6.0, 5);
        let report = run(&game, Partition::singletons(5), EngineOptions::default());
        assert!(report.converged);
        assert!(
            report.nash_stable,
            "final partition {} should be Nash-stable",
            report.partition
        );
    }

    #[test]
    fn utilitarian_rule_never_increases_social_cost() {
        let game = line_game(6.0, 5);
        let initial = Partition::singletons(5);
        let initial_cost = social_cost(&game, &initial);
        let report = run(
            &game,
            initial,
            EngineOptions {
                rule: SwitchRule::Utilitarian,
                ..EngineOptions::default()
            },
        );
        assert!(social_cost(&game, &report.partition) <= initial_cost + 1e-9);
    }

    #[test]
    fn feasibility_cap_limits_coalition_size() {
        let game = line_game(20.0, 2);
        let report = run(&game, Partition::singletons(5), EngineOptions::default());
        for (_, members) in report.partition.coalitions() {
            assert!(members.len() <= 2, "cap of 2 violated: {members:?}");
        }
    }

    #[test]
    fn starting_from_grand_coalition_also_converges() {
        let game = line_game(2.0, 5);
        let report = run(
            &game,
            Partition::grand_coalition(5),
            EngineOptions::default(),
        );
        assert!(report.converged);
        assert!(report.partition.is_consistent());
        // Fee 2 cannot justify the 0..11 spread: the far pair must break off.
        assert!(report.partition.num_coalitions() >= 2);
    }

    #[test]
    fn default_round_cap_stops_nonconverging_dynamics() {
        // A pathological (non-hedonic) game whose cost falls on every
        // evaluation: under the utilitarian rule the later-evaluated state
        // always looks cheaper, so singletons merge, pairs split, and the
        // dynamics cycle forever. `max_rounds = 0` must clamp to the
        // documented `100 * n` and report `converged: false` instead of
        // looping.
        use std::sync::atomic::{AtomicU64, Ordering};
        struct EverCheaper(AtomicU64);
        impl HedonicGame for EverCheaper {
            fn num_players(&self) -> usize {
                2
            }
            fn player_cost(&self, _p: usize, _c: &[usize]) -> f64 {
                1e6 - self.0.fetch_add(1, Ordering::Relaxed) as f64
            }
        }
        let game = EverCheaper(AtomicU64::new(0));
        let report = run(
            &game,
            Partition::singletons(2),
            EngineOptions {
                rule: SwitchRule::Utilitarian,
                max_rounds: 0,
                ..EngineOptions::default()
            },
        );
        assert!(!report.converged, "cycling dynamics must not converge");
        assert_eq!(report.rounds, 100 * 2, "cap must clamp to 100 * n");
        assert!(report.switches >= report.rounds, "every round kept moving");
        assert!(report.partition.is_consistent());
    }

    #[test]
    fn skipping_the_stability_audit_reports_unverified() {
        let game = line_game(6.0, 5);
        let audited = run(&game, Partition::singletons(5), EngineOptions::default());
        let skipped = run(
            &game,
            Partition::singletons(5),
            EngineOptions {
                check_stability: false,
                ..EngineOptions::default()
            },
        );
        // Identical dynamics, only the final audit differs.
        assert_eq!(skipped.partition.canonical(), audited.partition.canonical());
        assert_eq!(skipped.switches, audited.switches);
        assert!(audited.nash_stable);
        assert!(
            !skipped.nash_stable,
            "skipped audit must read as unverified"
        );
    }

    /// A fee-sharing game that exposes its distance matrix as a spatial
    /// neighbor order, exercising the shortlist path.
    struct Spatial(FeeSharingGame);
    impl HedonicGame for Spatial {
        fn num_players(&self) -> usize {
            self.0.num_players()
        }
        fn player_cost(&self, p: usize, c: &[usize]) -> f64 {
            self.0.player_cost(p, c)
        }
        fn coalition_feasible(&self, c: &[usize]) -> bool {
            self.0.coalition_feasible(c)
        }
        fn neighbor_order(&self, player: usize, limit: usize, out: &mut Vec<usize>) -> bool {
            let mut order: Vec<usize> = (0..self.num_players()).filter(|&q| q != player).collect();
            order.sort_by(|&a, &b| {
                self.0.distance[player][a]
                    .total_cmp(&self.0.distance[player][b])
                    .then(a.cmp(&b))
            });
            order.truncate(limit);
            out.extend_from_slice(&order);
            true
        }
    }

    #[test]
    fn generous_shortlist_matches_the_full_scan() {
        // With a cap at least the number of coalitions, the shortlist sees
        // every coalition the full scan sees, so the trajectory is identical.
        let full = run(
            &line_game(6.0, 5),
            Partition::singletons(5),
            EngineOptions::default(),
        );
        let short = run(
            &Spatial(line_game(6.0, 5)),
            Partition::singletons(5),
            EngineOptions {
                shortlist_cap: 8,
                ..EngineOptions::default()
            },
        );
        assert_eq!(short.partition.canonical(), full.partition.canonical());
        assert_eq!(short.switches, full.switches);
        assert!(short.converged);
    }

    #[test]
    fn equal_gains_go_to_the_lower_slot_in_either_candidate_order() {
        // Player 0 saves the same half fee by joining {1} or {2}: it is the
        // center of either pair. The full scan visits slot 1 first, the
        // shortlist visits the nearer player 2 first; both must join slot 1,
        // so the trajectories agree.
        let pos: &[f64] = &[0.0, 3.0, -2.0];
        let distance = pos
            .iter()
            .map(|a| pos.iter().map(|b| (a - b).abs()).collect())
            .collect();
        let game = FeeSharingGame::new(6.0, distance, 2);
        let full = run(&game, Partition::singletons(3), EngineOptions::default());
        let short = run(
            &Spatial(game),
            Partition::singletons(3),
            EngineOptions {
                shortlist_cap: 8,
                ..EngineOptions::default()
            },
        );
        assert_eq!(full.switches, 3, "0 joins 1, 1 joins 2, 2 joins 0");
        assert_eq!(short.switches, full.switches);
        assert_eq!(short.partition.canonical(), full.partition.canonical());
    }

    #[test]
    fn tight_shortlist_still_converges_to_a_consistent_partition() {
        let report = run(
            &Spatial(line_game(6.0, 5)),
            Partition::singletons(5),
            EngineOptions {
                shortlist_cap: 1,
                ..EngineOptions::default()
            },
        );
        assert!(report.converged);
        assert!(report.partition.is_consistent());
        assert!(report.switches > 0, "nearest neighbor is enough to pair up");
    }

    #[test]
    fn shortlist_cap_is_inert_without_a_neighbor_order() {
        // FeeSharingGame keeps the default `neighbor_order` (returns false),
        // so a positive cap must fall back to the exact full scan.
        let game = line_game(6.0, 5);
        let full = run(&game, Partition::singletons(5), EngineOptions::default());
        let capped = run(
            &game,
            Partition::singletons(5),
            EngineOptions {
                shortlist_cap: 1,
                ..EngineOptions::default()
            },
        );
        assert_eq!(capped.partition.canonical(), full.partition.canonical());
        assert_eq!(capped.switches, full.switches);
    }

    #[test]
    fn round_cap_is_respected() {
        let game = line_game(6.0, 5);
        let report = run(
            &game,
            Partition::singletons(5),
            EngineOptions {
                max_rounds: 1,
                ..EngineOptions::default()
            },
        );
        assert_eq!(report.rounds, 1);
    }
}
