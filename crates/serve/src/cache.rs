//! The per-scenario cache: one [`CcsProblem`] (and therefore one lazily
//! built `ProblemTables` kernel) per distinct scenario, plus memoized plans
//! per `(scenario, algorithm, sharing)`.
//!
//! ## Canonical scenario hashing
//!
//! Scenarios arrive as JSON — inline or via `scenario_path` — and are
//! keyed by the hash of their *canonical* rendering: the parsed value tree
//! is re-serialized (objects are `BTreeMap`s, so key order is sorted) and
//! hashed. Two textually different but semantically identical request
//! bodies (whitespace, key order, file vs inline) therefore share one
//! cache entry.
//!
//! ## Bounded memory
//!
//! Both maps are byte-budgeted LRUs ([`ByteLru`]): a long-running daemon
//! fed an endless stream of distinct scenarios evicts cold entries instead
//! of leaking until OOM. Costs are estimates (canonical JSON length plus
//! the dense-table footprint for problems, rendered result length for
//! plans) — good enough to bound memory, cheap enough to compute inline.
//! Eviction is *transparent*: the algorithms are deterministic, so a
//! re-computed entry is byte-identical to the evicted one.
//!
//! ## Concurrency
//!
//! Lookups take a short-lived lock; *computation happens outside the lock*
//! so a slow plan for one scenario never blocks workers serving another.
//! Two workers racing on the same miss may both compute — the algorithms
//! are deterministic, so both produce the identical value and the loser's
//! work is merely wasted, never wrong (`first insert wins` keeps `Arc`
//! identity stable). Locks are poison-tolerant ([`lock_unpoisoned`](crate::lru::lock_unpoisoned)): a
//! caught handler panic never bricks the cache.

use crate::lru::ByteLru;
use crate::protocol::ServeError;
use ccs_core::prelude::*;
use ccs_wrsn::scenario::Scenario;
use serde::value::Value;
use serde::Deserialize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default byte budget of one [`PlanCache`] (split between problems and
/// plans): large enough that paper-scale workloads never evict, small
/// enough that a daemon fed garbage scenarios stays bounded.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// A fully priced, validated plan, cached with its canonical renderings.
pub struct CachedPlan {
    /// The schedule itself (reused by `replay` executions).
    pub schedule: Schedule,
    /// The response `result` tree — cloning it per response keeps repeated
    /// requests byte-identical.
    pub result: Value,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    scenario: u64,
    algo: &'static str,
    sharing: &'static str,
}

/// The cache. One per server (or per gateway tenant).
pub struct PlanCache {
    problems: ByteLru<u64, CcsProblem>,
    plans: ByteLru<PlanKey, CachedPlan>,
}

/// Hashes the canonical rendering of a parsed scenario value.
pub fn scenario_hash(value: &Value) -> u64 {
    hash_canonical(&canonical_json(value))
}

fn canonical_json(value: &Value) -> String {
    serde_json::to_string(value).expect("value tree serializes")
}

fn hash_canonical(canonical: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    canonical.hash(&mut hasher);
    hasher.finish()
}

/// Byte-cost estimate of one cached problem: the canonical JSON, the
/// per-entity columns, and `8·n·(n + m)` standing in for the memo state
/// (gathering points, neighbour orders) a problem accumulates as plans of
/// it are solved. The kernel builds no per-pair table; the term keeps
/// solved problems priced by what they come to hold, which sets how many
/// fresh problems a byte budget keeps.
fn problem_bytes(canonical_len: usize, problem: &CcsProblem) -> usize {
    let n = problem.scenario().devices().len();
    let m = problem.scenario().chargers().len();
    canonical_len + 8 * n * (n + m) + 16 * (n + m) + 1024
}

impl PlanCache {
    /// A cache with the default byte budget ([`DEFAULT_CACHE_BYTES`]).
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_CACHE_BYTES)
    }

    /// A cache bounded to roughly `budget` bytes, split evenly between the
    /// problem and plan maps.
    pub fn with_budget(budget: usize) -> Self {
        let half = (budget / 2).max(1);
        PlanCache {
            problems: ByteLru::new(half),
            plans: ByteLru::new(half),
        }
    }

    /// The problem for `value` (a parsed scenario), reusing the cached
    /// instance — and its precomputed tables — when one exists.
    ///
    /// Returns the canonical hash alongside so plan lookups reuse it.
    ///
    /// # Errors
    ///
    /// `bad_request` when `value` does not deserialize as a scenario or an
    /// entity breaks its invariants ([`Scenario::validate`]).
    pub fn problem(&self, value: &Value) -> Result<(u64, Arc<CcsProblem>, bool), ServeError> {
        let canonical = canonical_json(value);
        let hash = hash_canonical(&canonical);
        if let Some(problem) = self.problems.get(&hash) {
            return Ok((hash, problem, true));
        }
        let scenario = Scenario::from_value(value)
            .map_err(|e| e.to_string())
            .and_then(|scenario| scenario.validate().map(|()| scenario))
            .map_err(|e| ServeError::bad_request(format!("invalid scenario: {e}")))?;
        let problem = Arc::new(CcsProblem::new(scenario));
        let bytes = problem_bytes(canonical.len(), &problem);
        let entry = self.problems.insert(hash, problem, bytes);
        Ok((hash, entry, false))
    }

    /// The cached plan for `(scenario, algo, sharing)`, computing it with
    /// `compute` on a miss. Returns the plan and whether it was a hit.
    ///
    /// # Errors
    ///
    /// Forwards `compute`'s error on a miss.
    pub fn plan(
        &self,
        scenario: u64,
        algo: &'static str,
        sharing: &'static str,
        compute: impl FnOnce() -> Result<CachedPlan, ServeError>,
    ) -> Result<(Arc<CachedPlan>, bool), ServeError> {
        let key = PlanKey {
            scenario,
            algo,
            sharing,
        };
        if let Some(plan) = self.plans.get(&key) {
            return Ok((plan, true));
        }
        let computed = Arc::new(compute()?);
        // The rendered result dominates a plan's footprint; the schedule
        // itself is within a small factor of it.
        let bytes = 2 * canonical_json(&computed.result).len() + 256;
        let entry = self.plans.insert(key, computed, bytes);
        Ok((entry, false))
    }

    /// Number of distinct scenarios cached (for stats lines).
    pub fn scenarios(&self) -> usize {
        self.problems.len()
    }

    /// Number of memoized plans (for stats lines).
    pub fn plans_cached(&self) -> usize {
        self.plans.len()
    }

    /// Estimated bytes held across both maps.
    pub fn bytes(&self) -> usize {
        self.problems.bytes() + self.plans.bytes()
    }

    /// Entries evicted from either map to stay under budget.
    pub fn evictions(&self) -> u64 {
        self.problems.evictions() + self.plans.evictions()
    }

    /// Lookups that found an entry, across both maps.
    pub fn hits(&self) -> u64 {
        self.problems.hits() + self.plans.hits()
    }

    /// Lookups that found nothing, across both maps.
    pub fn misses(&self) -> u64 {
        self.problems.misses() + self.plans.misses()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_wrsn::scenario::ScenarioGenerator;
    use serde::Serialize;

    fn scenario_value(seed: u64) -> Value {
        ScenarioGenerator::new(seed)
            .devices(6)
            .chargers(2)
            .generate()
            .to_value()
    }

    #[test]
    fn canonical_hash_ignores_formatting() {
        let value = scenario_value(3);
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        let reparsed: Value = serde_json::from_str(&pretty).unwrap();
        assert_eq!(scenario_hash(&value), scenario_hash(&reparsed));
        assert_ne!(scenario_hash(&value), scenario_hash(&scenario_value(4)));
    }

    #[test]
    fn problem_and_plan_entries_are_reused() {
        let cache = PlanCache::new();
        let value = scenario_value(1);
        let (hash, p1, hit1) = cache.problem(&value).unwrap();
        let (_, p2, hit2) = cache.problem(&value).unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&p1, &p2), "problem instance is shared");

        let compute = || {
            let schedule = ccsa(&p1, &EqualShare, CcsaOptions::default());
            Ok(CachedPlan {
                result: Value::String(schedule.to_string()),
                schedule,
            })
        };
        let (plan1, hit1) = cache.plan(hash, "ccsa", "equal", compute).unwrap();
        let (plan2, hit2) = cache
            .plan(hash, "ccsa", "equal", || unreachable!("must be a hit"))
            .unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&plan1, &plan2));
        assert_eq!(cache.scenarios(), 1);
        assert_eq!(cache.plans_cached(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn invalid_scenario_is_a_bad_request() {
        let cache = PlanCache::new();
        let bogus: Value = serde_json::from_str(r#"{"devices": "nope"}"#).unwrap();
        let err = cache.problem(&bogus).unwrap_err();
        assert_eq!(err.kind.name(), "bad_request");
    }

    /// Eviction transparency: a tiny budget forces distinct scenarios to
    /// evict each other, and a re-computed entry must be byte-identical to
    /// what the first computation produced.
    #[test]
    fn eviction_is_byte_transparent() {
        let cache = PlanCache::with_budget(4096);
        let plan_text = |seed: u64| {
            let value = scenario_value(seed);
            let (hash, problem, _) = cache.problem(&value).unwrap();
            let (plan, hit) = cache
                .plan(hash, "ccsa", "equal", || {
                    let schedule = ccsa(&problem, &EqualShare, CcsaOptions::default());
                    Ok(CachedPlan {
                        result: Value::String(schedule.to_string()),
                        schedule,
                    })
                })
                .unwrap();
            (canonical_json(&plan.result), hit)
        };
        let (first, _) = plan_text(1);
        for seed in 2..8 {
            let _ = plan_text(seed);
        }
        assert!(
            cache.evictions() > 0,
            "a 4 KiB budget must evict across 7 scenarios (bytes {})",
            cache.bytes()
        );
        let (again, hit) = plan_text(1);
        assert!(!hit, "scenario 1 was evicted, so this is a recompute");
        assert_eq!(first, again, "eviction must be byte-transparent");
    }

    /// The poisoned-lock regression (ISSUE 8): a panic while a cache lock
    /// is held must not turn every later request into a lock panic.
    #[test]
    fn poisoned_cache_locks_recover() {
        let cache = PlanCache::new();
        let value = scenario_value(2);
        let (hash, problem, _) = cache.problem(&value).unwrap();
        cache.problems.poison_for_test();
        cache.plans.poison_for_test();
        let (_, p2, hit) = cache.problem(&value).unwrap();
        assert!(hit, "lookups keep working after the poison");
        assert!(Arc::ptr_eq(&problem, &p2));
        let (_, plan_hit) = cache
            .plan(hash, "ccsa", "equal", || {
                let schedule = ccsa(&p2, &EqualShare, CcsaOptions::default());
                Ok(CachedPlan {
                    result: Value::String(schedule.to_string()),
                    schedule,
                })
            })
            .unwrap();
        assert!(!plan_hit);
        assert_eq!(cache.plans_cached(), 1);
    }
}
