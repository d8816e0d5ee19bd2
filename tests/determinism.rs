//! Determinism guarantees: every component of the stack must be a pure
//! function of its seed and inputs, or experiments are not reproducible.

use ccs_repro::prelude::*;

#[test]
fn scenario_generation_is_reproducible() {
    for seed in [0u64, 1, 99, u64::MAX] {
        let a = ScenarioGenerator::new(seed)
            .devices(25)
            .chargers(6)
            .generate();
        let b = ScenarioGenerator::new(seed)
            .devices(25)
            .chargers(6)
            .generate();
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn all_schedulers_are_deterministic() {
    let make = || {
        CcsProblem::new(
            ScenarioGenerator::new(13)
                .devices(16)
                .chargers(5)
                .generate(),
        )
    };
    let p1 = make();
    let p2 = make();

    assert_eq!(
        noncooperation(&p1, &EqualShare),
        noncooperation(&p2, &EqualShare)
    );
    assert_eq!(
        ccsa(&p1, &EqualShare, CcsaOptions::default()),
        ccsa(&p2, &EqualShare, CcsaOptions::default())
    );
    let g1 = ccsga(&p1, &EqualShare, CcsgaOptions::default());
    let g2 = ccsga(&p2, &EqualShare, CcsgaOptions::default());
    assert_eq!(g1.schedule, g2.schedule);
    assert_eq!(g1.switches, g2.switches);
    assert_eq!(g1.rounds, g2.rounds);
    let o1 = optimal(&p1, &EqualShare).unwrap();
    let o2 = optimal(&p2, &EqualShare).unwrap();
    assert_eq!(o1, o2);
}

#[test]
fn testbed_replay_is_deterministic_per_seed() {
    let p = field_problem(3);
    let plan = ccsa(&p, &EqualShare, CcsaOptions::default());
    let a = execute(&p, &plan, &EqualShare, &NoiseModel::field(), 5);
    let b = execute(&p, &plan, &EqualShare, &NoiseModel::field(), 5);
    // Every field: costs, waits, makespan, served flags and end positions.
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_the_world_not_the_invariants() {
    let mut distinct = 0;
    let reference = ccsa(
        &CcsProblem::new(ScenarioGenerator::new(0).devices(12).chargers(4).generate()),
        &EqualShare,
        CcsaOptions::default(),
    );
    for seed in 1..=5 {
        let p = CcsProblem::new(
            ScenarioGenerator::new(seed)
                .devices(12)
                .chargers(4)
                .generate(),
        );
        let s = ccsa(&p, &EqualShare, CcsaOptions::default());
        s.validate(&p).unwrap();
        if s != reference {
            distinct += 1;
        }
    }
    assert!(distinct >= 4, "seeds should actually vary the workload");
}

#[test]
fn submodular_minimizer_is_deterministic() {
    let weights: Vec<f64> = (0..30).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
    let f = SeparableFn::new(weights, 8.0, 2.0);
    let pen = CardinalityPenalized::new(f.clone(), 1.5);
    let a = minimize(&pen);
    let b = minimize(&pen);
    assert_eq!(a.minimizer, b.minimizer);
    assert_eq!(a.value, b.value);
    let da = min_density_separable(&f).unwrap();
    let db = min_density_separable(&f).unwrap();
    assert_eq!(da.minimizer, db.minimizer);
    assert_eq!(da.density, db.density);
}
