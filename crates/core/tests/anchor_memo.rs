//! The anchored facility scan and the gathering memo. Telemetry counters
//! are process-global, so this file holds a single test: no other test in
//! the process can add to the counters it reads.

use ccs_core::cost::try_best_facility_anchored;
use ccs_core::prelude::*;
use ccs_wrsn::entities::DeviceId;
use ccs_wrsn::scenario::ScenarioGenerator;

#[test]
fn anchored_scan_prices_its_anchor_once_and_repeats_from_the_memo() {
    let scenario = ScenarioGenerator::new(7).devices(12).chargers(5).generate();
    let members: Vec<DeviceId> = [1u32, 4, 6, 9].into_iter().map(DeviceId::new).collect();
    // Anchor at the winner: its cost stays the threshold, so a scan that
    // revisited it would re-price it through the memo.
    let winner = best_facility(&CcsProblem::new(scenario.clone()), &members).charger;

    let telemetry = ccs_telemetry::global();
    telemetry.reset();
    telemetry.enable();
    let fresh = CcsProblem::new(scenario);
    let choice = try_best_facility_anchored(&fresh, &members, winner);
    let first = telemetry.report().counters;
    // The same scan again: completed points and the bounds that abandoned
    // solves proved answer their probes, so nothing iterates twice. Only
    // the solves that settled without iterating (at an anchor by Kuhn's
    // test, or at a three-anchor optimum in closed form) run again, in
    // O(k).
    let again = try_best_facility_anchored(&fresh, &members, winner);
    let second = telemetry.report().counters;
    telemetry.disable();

    assert_eq!(choice.as_ref().map(|c| c.charger), Some(winner));
    assert_eq!(again, choice);
    let count = |counters: &std::collections::BTreeMap<String, u64>, name: &str| {
        counters.get(name).copied().unwrap_or(0)
    };
    assert_eq!(count(&first, "tables.gather_hits"), 0);
    assert!(count(&first, "tables.gather_misses") >= 1);
    assert!(count(&first, "gathering.abandoned") >= 1, "{first:?}");
    assert!(count(&first, "gathering.anchor") >= 1, "{first:?}");
    assert_eq!(
        count(&second, "gathering.iterations"),
        count(&first, "gathering.iterations")
    );
    assert_eq!(
        count(&second, "gathering.abandoned"),
        count(&first, "gathering.abandoned")
    );
    let settled = count(&first, "gathering.anchor") + count(&first, "gathering.closed_form");
    assert_eq!(
        count(&second, "gathering.solves") - count(&first, "gathering.solves"),
        settled
    );
    // Every key that iterated or was abandoned hits the memo.
    assert_eq!(
        count(&second, "tables.gather_hits"),
        count(&first, "tables.gather_misses") - settled
    );
}
