//! Helpers shared by the facility-scan property tests.

use ccs_core::cost::{evaluate_facility, FacilityChoice};
use ccs_core::gathering::gathering_point;
use ccs_core::prelude::*;
use ccs_wrsn::entities::DeviceId;

/// Deterministic nonempty sorted member subset of `0..devices`.
pub fn members_from_mask(devices: usize, mask: u64) -> Vec<DeviceId> {
    let mut members: Vec<DeviceId> = (0..devices)
        .filter(|&i| (mask >> i) & 1 == 1)
        .map(|i| DeviceId::new(i as u32))
        .collect();
    if members.is_empty() {
        members.push(DeviceId::new((mask % devices as u64) as u32));
    }
    members
}

/// The exhaustive `best_facility`: evaluate *every* eligible charger at a
/// fresh gathering point, keep the cheapest with the charger-id tie-break.
/// The pruned scans must reproduce this bitwise.
pub fn reference_best_facility(p: &CcsProblem, members: &[DeviceId]) -> Option<FacilityChoice> {
    let mut best: Option<FacilityChoice> = None;
    for c in p.scenario().charger_ids() {
        if !p.charger_can_serve(c, members) {
            continue;
        }
        let point = gathering_point(p, c, members, p.params().gathering);
        let choice = evaluate_facility(p, c, members, point);
        let better = match &best {
            None => true,
            Some(incumbent) => {
                let cost = choice.group_cost().value();
                let cur = incumbent.group_cost().value();
                cost.total_cmp(&cur)
                    .then(choice.charger.cmp(&incumbent.charger))
                    == std::cmp::Ordering::Less
            }
        };
        if better {
            best = Some(choice);
        }
    }
    best
}
