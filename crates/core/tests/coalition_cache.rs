//! Correctness of the shared coalition-cost memo: memoized values must be
//! indistinguishable from fresh direct evaluation, and cache effectiveness
//! must be observable through telemetry in an end-to-end CCSGA run.

use ccs_coalition::memo::Memo;
use ccs_core::prelude::*;
use ccs_wrsn::entities::DeviceId;
use ccs_wrsn::scenario::ScenarioGenerator;

fn problem(seed: u64, devices: usize, chargers: usize) -> CcsProblem {
    CcsProblem::new(
        ScenarioGenerator::new(seed)
            .devices(devices)
            .chargers(chargers)
            .generate(),
    )
}

/// Direct (uncached) evaluation of a coalition, mirroring what CCSGA's
/// hedonic game memoizes: each member's bill share plus moving cost at the
/// coalition's best facility.
fn direct_member_costs(p: &CcsProblem, sharing: &dyn CostSharing, c: &[usize]) -> Vec<f64> {
    let members: Vec<DeviceId> = c.iter().map(|&i| DeviceId::new(i as u32)).collect();
    let facility = best_facility(p, &members);
    let shares = sharing.shares(
        p,
        facility.charger,
        &members,
        &facility.point,
        &facility.bill,
    );
    shares
        .iter()
        .zip(facility.moving.iter())
        .map(|(s, m)| (*s + *m).value())
        .collect()
}

/// The get-or-compute pattern CCSGA's game uses: probe, compute on a miss,
/// insert.
fn memoized(
    memo: &Memo<Box<[usize]>, Vec<f64>>,
    c: &[usize],
    compute: impl FnOnce() -> Vec<f64>,
) -> Vec<f64> {
    if let Some(hit) = memo.get(c, Vec::clone) {
        return hit;
    }
    let value = compute();
    memo.insert(c.into(), value.clone());
    value
}

/// A deterministic pseudo-random walk over coalition compositions
/// (splitmix64, so no RNG dependency in the test).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A random sorted, duplicate-free coalition (the memo's key form).
fn random_coalition(n: usize, seed: u64) -> Vec<usize> {
    let size = 1 + (mix(seed) as usize) % 4.min(n);
    let mut c = Vec::new();
    let mut s = seed;
    while c.len() < size {
        s = mix(s);
        let p = (s as usize) % n;
        if let Err(at) = c.binary_search(&p) {
            c.insert(at, p);
        }
    }
    c
}

/// After many interleaved lookups (repeats mixed with first-time requests),
/// every cached value must equal a fresh direct evaluation.
#[test]
fn cache_matches_direct_evaluation_after_interleaved_rounds() {
    let p = problem(11, 14, 4);
    let sharing = EqualShare;
    let cache = Memo::new();
    let n = 14;

    // Interleave: each round touches a fresh coalition and revisits two
    // earlier ones, so hits and misses alternate within a round.
    let mut seen: Vec<Vec<usize>> = Vec::new();
    for round in 0..40u64 {
        let fresh = random_coalition(n, round);
        let mut batch = vec![fresh.clone()];
        if !seen.is_empty() {
            batch.push(seen[(mix(round) as usize) % seen.len()].clone());
            batch.push(seen[(mix(round + 1000) as usize) % seen.len()].clone());
        }
        for c in batch {
            let cached = memoized(&cache, &c, || direct_member_costs(&p, &sharing, &c));
            let direct = direct_member_costs(&p, &sharing, &c);
            assert_eq!(
                cached, direct,
                "cached value diverged from direct evaluation for {c:?}"
            );
        }
        seen.push(fresh);
    }
    assert!(cache.len() <= seen.len(), "cache must not double-insert");
    assert!(!cache.is_empty());
}

/// Revisiting a composition must return the memoized value even if the
/// world changed in between — that is the memoization contract the engine
/// relies on (the problem is immutable during a run): a probe that hits
/// never computes, so the first stored value is the one every later probe
/// reads.
#[test]
fn cache_is_first_insert_wins() {
    let cache = Memo::new();
    let c = [1, 2, 3];
    let first = memoized(&cache, &c, || vec![1.0]);
    let second = memoized(&cache, &c, || vec![2.0]);
    assert_eq!(first, vec![1.0]);
    assert_eq!(second, vec![1.0], "second compute must never replace");
    assert_eq!(cache.len(), 1);
}

/// End to end: a CCSGA run with telemetry enabled must report nonzero
/// `cache.hits` (the dynamics revisit compositions across rounds) and a
/// nonzero final cache population.
#[test]
fn ccsga_run_report_shows_cache_hits() {
    let registry = ccs_telemetry::global();
    registry.enable();
    let p = problem(3, 16, 4);
    let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
    let report = registry.report();
    registry.disable();

    out.schedule.validate(&p).unwrap();
    assert!(
        report.counter("cache.hits") > 0,
        "CCSGA dynamics must hit the coalition cache; report: {:?}",
        report.counters
    );
    assert!(report.counter("cache.misses") > 0);
    assert!(report.counter("ccsga.coalition_cache_entries") > 0);
}
