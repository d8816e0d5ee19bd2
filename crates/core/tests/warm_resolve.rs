//! A warm re-solve is the cold solve: the memos a `CcsProblem` keeps across
//! solves (gathering points, abandonment bounds and neighbour orders)
//! change no schedule byte, and CCSGA's dynamics do the same work. Telemetry
//! counters are process-global, so this file holds a single test: no other
//! test in the process can add to the counters it reads.

use ccs_core::prelude::*;
use ccs_wrsn::scenario::ScenarioGenerator;

type Solve = fn(&CcsProblem, &dyn CostSharing) -> Schedule;

#[test]
fn warm_re_solves_equal_cold_solves() {
    let scenario = ScenarioGenerator::new(5).devices(30).chargers(5).generate();
    let solvers: [(&str, Solve); 3] = [
        ("ccsa", |p, s| ccsa(p, s, CcsaOptions::default())),
        ("ccsga", |p, s| {
            ccsga(p, s, CcsgaOptions::default()).schedule
        }),
        ("ccsga with neighbor_cap 4", |p, s| {
            let options = CcsgaOptions {
                neighbor_cap: 4,
                ..CcsgaOptions::default()
            };
            ccsga(p, s, options).schedule
        }),
    ];
    let telemetry = ccs_telemetry::global();
    telemetry.reset();
    telemetry.enable();
    let counter = |name: &str| telemetry.report().counter(name);
    for (name, solve) in solvers {
        // The schedule's JSON and the preference evaluations the dynamics
        // made: a shortlist built from a wrong neighbour order re-prices
        // different candidates even where the schedule survives it.
        let run = |problem: &CcsProblem, sharing: &dyn CostSharing| {
            let before = counter("coalition.preference_evals");
            let schedule = serde_json::to_string(&solve(problem, sharing)).expect("serializes");
            (schedule, counter("coalition.preference_evals") - before)
        };
        let cold = |sharing: &dyn CostSharing| run(&CcsProblem::new(scenario.clone()), sharing);
        let (equal, proportional) = (cold(&EqualShare), cold(&ProportionalShare));

        let warm = CcsProblem::new(scenario.clone());
        assert_eq!(run(&warm, &EqualShare), equal, "{name}");
        let hits = counter("tables.gather_hits");
        assert_eq!(run(&warm, &EqualShare), equal, "{name}: warm re-solve");
        assert!(
            counter("tables.gather_hits") > hits,
            "{name}: the warm re-solve never hit the gathering memo"
        );
        assert_eq!(
            run(&warm, &ProportionalShare),
            proportional,
            "{name}: warm solve under another sharing scheme"
        );
        assert_eq!(
            run(&warm, &EqualShare),
            equal,
            "{name}: re-solve after a plan under another sharing scheme"
        );
    }
    telemetry.disable();
}
