//! Partitions of a player set into coalitions.
//!
//! A [`Partition`] keeps a two-way mapping — player → coalition and
//! coalition → member list — with every player in exactly one coalition at
//! all times. Each member list is a strictly ascending `Vec<usize>`, so a
//! coalition is handed out as a sorted slice that doubles as its cache and
//! history key. Coalition ids are stable handles; emptied coalitions are kept
//! as tombstones and skipped by iteration, so ids never dangle during a
//! coalition-formation run.
//!
//! # Examples
//!
//! ```
//! use ccs_coalition::partition::Partition;
//!
//! let mut p = Partition::singletons(4);
//! assert_eq!(p.num_coalitions(), 4);
//! let target = p.coalition_of(1);
//! p.move_to_coalition(0, target);
//! assert_eq!(p.num_coalitions(), 3);
//! assert_eq!(p.members(target).len(), 2);
//! ```

use std::fmt;

/// Stable handle of a coalition inside one [`Partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoalitionId(usize);

impl CoalitionId {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoalitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A partition of players `{0, .., n-1}` into nonempty coalitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Coalition slot of each player.
    assignment: Vec<usize>,
    /// Strictly ascending member lists per slot; empty slots are tombstones.
    slots: Vec<Vec<usize>>,
}

impl Partition {
    /// The all-singletons partition of `n` players.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn singletons(n: usize) -> Self {
        assert!(n > 0, "partition needs at least one player");
        Partition {
            assignment: (0..n).collect(),
            slots: (0..n).map(|i| vec![i]).collect(),
        }
    }

    /// The grand-coalition partition of `n` players.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn grand_coalition(n: usize) -> Self {
        assert!(n > 0, "partition needs at least one player");
        Partition {
            assignment: vec![0; n],
            slots: vec![(0..n).collect()],
        }
    }

    /// Builds a partition from explicit groups.
    ///
    /// # Panics
    ///
    /// Panics if the groups are not a partition of `{0, .., n-1}` (missing,
    /// duplicated or out-of-range players, or an empty group).
    pub fn from_groups(n: usize, groups: &[Vec<usize>]) -> Self {
        assert!(n > 0, "partition needs at least one player");
        let mut assignment = vec![usize::MAX; n];
        let mut slots = Vec::with_capacity(groups.len());
        for (slot, group) in groups.iter().enumerate() {
            assert!(!group.is_empty(), "group {slot} is empty");
            for &p in group {
                assert!(p < n, "player {p} out of range");
                assert!(
                    assignment[p] == usize::MAX,
                    "player {p} appears in more than one group"
                );
                assignment[p] = slot;
            }
            let mut members = group.clone();
            members.sort_unstable();
            slots.push(members);
        }
        assert!(
            assignment.iter().all(|&a| a != usize::MAX),
            "every player must appear in exactly one group"
        );
        Partition { assignment, slots }
    }

    /// Number of players.
    pub fn num_players(&self) -> usize {
        self.assignment.len()
    }

    /// Number of (nonempty) coalitions.
    pub fn num_coalitions(&self) -> usize {
        self.slots.iter().filter(|s| !s.is_empty()).count()
    }

    /// Number of coalition slots, **including** tombstones — the exclusive
    /// upper bound on [`CoalitionId::index`]. Lets callers size per-slot
    /// bookkeeping (the engine's dirty-slot stamps) without chasing ids.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The coalition slot with the given raw index (see
    /// [`CoalitionId::index`]). Intended for callers that persist slot
    /// indices across mutations — ids are stable handles, so the round-trip
    /// is exact; the slot may have become a tombstone in the meantime.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_slots()`.
    pub fn slot(&self, index: usize) -> CoalitionId {
        assert!(index < self.slots.len(), "slot index {index} out of range");
        CoalitionId(index)
    }

    /// The coalition a player currently belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `player` is out of range.
    pub fn coalition_of(&self, player: usize) -> CoalitionId {
        CoalitionId(self.assignment[player])
    }

    /// Members of a coalition, strictly ascending (empty for tombstoned
    /// slots).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this partition.
    pub fn members(&self, id: CoalitionId) -> &[usize] {
        &self.slots[id.0]
    }

    /// Iterator over the nonempty coalitions as `(id, members)`.
    pub fn coalitions(&self) -> impl Iterator<Item = (CoalitionId, &[usize])> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (CoalitionId(i), s.as_slice()))
    }

    /// Moves a player into an existing coalition. No-op if already there.
    ///
    /// Returns the player's previous coalition id.
    ///
    /// # Panics
    ///
    /// Panics if `player` is out of range or `target` is a tombstone (an
    /// emptied coalition).
    pub fn move_to_coalition(&mut self, player: usize, target: CoalitionId) -> CoalitionId {
        let from = CoalitionId(self.assignment[player]);
        if from == target {
            return from;
        }
        assert!(
            !self.slots[target.0].is_empty(),
            "cannot join tombstoned coalition {target}"
        );
        remove_member(&mut self.slots[from.0], player);
        let to = &mut self.slots[target.0];
        let at = to.binary_search(&player).unwrap_err();
        to.insert(at, player);
        self.assignment[player] = target.0;
        from
    }

    /// Moves a player out into a brand-new singleton coalition.
    ///
    /// Returns `(previous, new)` coalition ids. If the player was already a
    /// singleton, nothing changes and `previous == new`.
    pub fn move_to_singleton(&mut self, player: usize) -> (CoalitionId, CoalitionId) {
        let from = CoalitionId(self.assignment[player]);
        if self.slots[from.0].len() == 1 {
            return (from, from);
        }
        remove_member(&mut self.slots[from.0], player);
        // Reuse a tombstone slot if any, else push.
        let slot = match self.slots.iter().position(|s| s.is_empty()) {
            Some(i) => {
                self.slots[i].push(player);
                i
            }
            None => {
                self.slots.push(vec![player]);
                self.slots.len() - 1
            }
        };
        self.assignment[player] = slot;
        (from, CoalitionId(slot))
    }

    /// Canonical form: member lists sorted internally and by first member.
    ///
    /// Two partitions describe the same grouping iff their canonical forms
    /// are equal; used for switch-history bookkeeping and tests.
    pub fn canonical(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = self
            .coalitions()
            .map(|(_, members)| members.to_vec())
            .collect();
        groups.sort();
        groups
    }

    /// Checks internal consistency (every slot strictly ascending, every
    /// player in exactly the slot its assignment claims). Intended for
    /// `debug_assert!` and tests.
    pub fn is_consistent(&self) -> bool {
        let n = self.num_players();
        let mut seen = vec![false; n];
        for (slot, members) in self.slots.iter().enumerate() {
            if members.windows(2).any(|w| w[0] >= w[1]) {
                return false;
            }
            for &p in members {
                if p >= n || seen[p] || self.assignment[p] != slot {
                    return false;
                }
                seen[p] = true;
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Removes `player` from a sorted member list, keeping it sorted.
fn remove_member(members: &mut Vec<usize>, player: usize) {
    let at = members
        .binary_search(&player)
        .expect("player is a member of its assigned slot");
    members.remove(at);
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let groups = self.canonical();
        write!(f, "[")?;
        for (k, g) in groups.iter().enumerate() {
            if k > 0 {
                write!(f, " | ")?;
            }
            for (j, p) in g.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{p}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_and_grand() {
        let s = Partition::singletons(3);
        assert_eq!(s.num_players(), 3);
        assert_eq!(s.num_coalitions(), 3);
        assert!(s.is_consistent());
        let g = Partition::grand_coalition(3);
        assert_eq!(g.num_coalitions(), 1);
        assert_eq!(g.members(g.coalition_of(2)).len(), 3);
        assert!(g.is_consistent());
    }

    #[test]
    fn from_groups_builds_partition() {
        let p = Partition::from_groups(5, &[vec![0, 2], vec![1], vec![3, 4]]);
        assert_eq!(p.num_coalitions(), 3);
        assert_eq!(p.coalition_of(0), p.coalition_of(2));
        assert_ne!(p.coalition_of(0), p.coalition_of(1));
        assert!(p.is_consistent());
        assert_eq!(p.canonical(), vec![vec![0, 2], vec![1], vec![3, 4]]);
    }

    #[test]
    #[should_panic(expected = "appears in more than one group")]
    fn from_groups_rejects_duplicates() {
        let _ = Partition::from_groups(3, &[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "every player must appear")]
    fn from_groups_rejects_missing() {
        let _ = Partition::from_groups(3, &[vec![0, 1]]);
    }

    #[test]
    fn move_to_coalition_updates_both_sides() {
        let mut p = Partition::singletons(4);
        let target = p.coalition_of(3);
        let from = p.move_to_coalition(0, target);
        assert_eq!(from, CoalitionId(0));
        assert_eq!(p.coalition_of(0), target);
        assert_eq!(p.members(target), [0, 3]);
        assert!(p.members(from).is_empty(), "old slot is a tombstone");
        assert_eq!(p.num_coalitions(), 3);
        assert!(p.is_consistent());
        // No-op move.
        let same = p.move_to_coalition(0, target);
        assert_eq!(same, target);
        assert!(p.is_consistent());
    }

    #[test]
    #[should_panic(expected = "tombstoned")]
    fn joining_tombstone_panics() {
        let mut p = Partition::singletons(3);
        let dead = p.coalition_of(0);
        p.move_to_coalition(0, p.coalition_of(1));
        p.move_to_coalition(2, dead);
    }

    #[test]
    fn move_to_singleton_reuses_tombstones() {
        let mut p = Partition::grand_coalition(3);
        let slots_before = 1;
        let (_, s1) = p.move_to_singleton(0);
        assert_eq!(p.members(s1), [0]);
        assert_eq!(p.num_coalitions(), 2);
        // Already a singleton: no-op.
        let (a, b) = p.move_to_singleton(0);
        assert_eq!(a, b);
        // Move 0 back, leaving a tombstone, then split 1 out: tombstone reused.
        p.move_to_coalition(0, p.coalition_of(1));
        let (_, s2) = p.move_to_singleton(1);
        assert!(s2.index() >= slots_before);
        assert!(p.is_consistent());
    }

    #[test]
    fn canonical_ignores_slot_numbering() {
        let mut a = Partition::singletons(4);
        a.move_to_coalition(1, a.coalition_of(0));
        let mut b = Partition::singletons(4);
        b.move_to_coalition(0, b.coalition_of(1));
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn display_shows_groups() {
        let p = Partition::from_groups(3, &[vec![0, 2], vec![1]]);
        assert_eq!(p.to_string(), "[0,2 | 1]");
    }

    #[test]
    fn coalitions_iterator_skips_tombstones() {
        let mut p = Partition::singletons(3);
        p.move_to_coalition(0, p.coalition_of(1));
        let ids: Vec<CoalitionId> = p.coalitions().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|id| !p.members(*id).is_empty()));
    }
}
