//! Integration test of the online mode's incremental re-planning: every
//! step's recorded residual solve must equal a from-scratch solve of the
//! same residual problem, bit for bit, at one and at four worker threads
//! (the `ccs-par` determinism contract extended to the event loop).

use std::sync::Mutex;

use ccs_core::online::{OnlineConfig, OnlinePolicy, OnlineSim};
use ccs_core::prelude::*;
use ccs_wrsn::arrival::ArrivalGenerator;
use ccs_wrsn::scenario::ScenarioGenerator;
use proptest::prelude::*;

/// One group's observable outcome: charger, members, gathering point bits,
/// and bill bits.
type GroupPrint = (u32, Vec<u32>, u64, u64, u64);

/// Everything a schedule's observable outcome consists of; two schedules
/// are "the same" exactly when these match (costs down to the bit).
fn schedule_fingerprint(schedule: &Schedule) -> (Vec<GroupPrint>, u64) {
    let groups = schedule
        .groups()
        .iter()
        .map(|g| {
            (
                g.charger.index() as u32,
                g.members.iter().map(|m| m.index() as u32).collect(),
                g.gathering_point.x.to_bits(),
                g.gathering_point.y.to_bits(),
                g.bill.total().value().to_bits(),
            )
        })
        .collect();
    (groups, schedule.total_cost().value().to_bits())
}

/// Serializes mutations of the global `ccs_par` thread count across
/// concurrently running property cases.
static THREADS: Mutex<()> = Mutex::new(());

/// Restores the default thread count even when an assertion unwinds.
struct ThreadReset;
impl Drop for ThreadReset {
    fn drop(&mut self) {
        ccs_par::set_threads(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Drive a whole online run, collecting every [`ReplanRecord`]; each
    /// records the exact residual problem it solved and the schedule the
    /// policy produced. Re-solving that residual from scratch — at one
    /// and at four threads — must reproduce the recorded schedule bit
    /// for bit. This is what makes "incremental" honest: the dirty-
    /// worklist path may skip work, never change answers.
    #[test]
    fn one_step_equals_a_from_scratch_residual_solve(
        seed in 0u64..500,
        devices in 4usize..12,
        chargers in 2usize..5,
        rate in 0.05f64..0.4,
        slack in 100.0f64..2000.0,
    ) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let _reset = ThreadReset;
        ccs_par::set_threads(1);

        let scenario = ScenarioGenerator::new(seed)
            .devices(devices)
            .chargers(chargers)
            .generate();
        let stream = ArrivalGenerator::new(seed.wrapping_mul(31) + 7)
            .rate(rate)
            .horizon(120.0)
            .slack(slack)
            .generate(devices);
        let options = CcsgaOptions::default();
        let config = OnlineConfig {
            policy: OnlinePolicy::Ccsga(options),
            ..OnlineConfig::default()
        };
        let mut sim = OnlineSim::new(CcsProblem::new(scenario), stream, &EqualShare, config);
        let mut records = Vec::new();
        while let Some(outcome) = sim.step() {
            if let Some(record) = outcome.replan {
                records.push(record);
            }
        }

        for record in &records {
            let reference = schedule_fingerprint(&record.schedule);
            // Both origin maps must cover the residual exactly.
            prop_assert_eq!(record.requests.len(), record.problem.num_devices());
            prop_assert_eq!(record.chargers.len(), record.problem.num_chargers());
            for threads in [1usize, 4] {
                ccs_par::set_threads(threads);
                let fresh = ccsga(&record.problem, &EqualShare, options).schedule;
                let fp = schedule_fingerprint(&fresh);
                prop_assert!(
                    fp == reference,
                    "residual re-solve diverged at {} threads: {:?} vs {:?}",
                    threads,
                    fp,
                    reference
                );
            }
            ccs_par::set_threads(1);
        }
    }
}
