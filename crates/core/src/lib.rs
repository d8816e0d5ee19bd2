//! # ccs-core — Cooperative Charging as Service scheduling
//!
//! The primary contribution of the reproduced paper (Xu et al., ICDCS'21):
//! the **Cooperative Charging Scheduling (CCS)** problem and its solvers.
//! Rechargeable devices form groups, each group jointly hires a mobile
//! charging-service provider at a gathering point, and the service bill is
//! split by a budget-balanced cost-sharing scheme; every device's
//! *comprehensive cost* is its bill share plus its own moving cost.
//!
//! * [`problem`] — the instance type and shared cost parameters;
//! * [`tables`] — the evaluation kernel's derived state: spatial indexes,
//!   the congestion curve and the solve memos;
//! * [`grid`] — the uniform-grid spatial index behind ring-ordered search;
//! * [`gathering`] — gathering-point strategies (Weiszfeld et al.);
//! * [`cost`] — group bills, facility choices, comprehensive cost;
//! * [`sharing`] — equal / proportional / Shapley cost sharing;
//! * [`algo`] — CCSA (greedy + submodular minimization), CCSGA
//!   (coalition-formation game), NCP (noncooperation) and OPT (exact DP);
//! * [`schedule`] — validated schedules, the common output format;
//! * [`metrics`] — savings, optimality gaps, Jain fairness.
//!
//! # Example
//!
//! ```
//! use ccs_core::prelude::*;
//! use ccs_wrsn::scenario::ScenarioGenerator;
//!
//! let scenario = ScenarioGenerator::new(42).devices(12).chargers(4).generate();
//! let problem = CcsProblem::new(scenario);
//! let coop = ccsa(&problem, &EqualShare, CcsaOptions::default());
//! let solo = noncooperation(&problem, &EqualShare);
//! coop.validate(&problem)?;
//! assert!(coop.total_cost() <= solo.total_cost());
//! # Ok::<(), ccs_core::schedule::ScheduleError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod algo;
pub mod analysis;
pub mod cost;
pub mod exclusive;
pub mod gathering;
pub mod grid;
pub mod lifetime;
pub mod metrics;
pub mod online;
pub mod problem;
pub mod recover;
pub mod schedule;
pub mod sharing;
pub mod tables;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::algo::{
        ccsa, ccsga, clustering, noncooperation, optimal, CcsaOptions, CcsgaOptions, CcsgaOutcome,
        InnerMinimizer, OptimalError,
    };
    pub use crate::analysis::{
        find_blocking_coalition, individual_rationality_violations, is_core_stable,
        BlockingCoalition,
    };
    pub use crate::cost::{
        best_facility, evaluate_facility, try_best_facility, try_best_facility_anchored,
        FacilityChoice, GroupBill,
    };
    pub use crate::exclusive::{
        enforce_exclusivity, exclusivity_ratio, hungarian, ExclusivityError,
    };
    pub use crate::gathering::GatheringStrategy;
    pub use crate::lifetime::{
        run_lifetime, run_lifetime_with, LifetimeConfig, LifetimeDriver, LifetimeReport,
        PlannedDelivery, Policy, RoundDelivery,
    };
    pub use crate::metrics::{
        compare, gap_above_optimal_percent, jain_fairness, saving_percent,
        try_gap_above_optimal_percent, try_jain_fairness, try_saving_percent,
    };
    pub use crate::online::{
        plan_step, Commitment, OnlineConfig, OnlineMetrics, OnlinePolicy, OnlineReport, OnlineSim,
        StepOutcome,
    };
    pub use crate::problem::{CcsProblem, CostParams};
    pub use crate::recover::{
        recover_with, residual_problem, RecoveryConfig, RecoveryExecutor, RecoveryOutcome,
        RecoveryRound, RoundExecution, RoundMode,
    };
    pub use crate::schedule::{GroupPlan, Schedule, ScheduleError};
    pub use crate::sharing::{
        all_schemes, CostSharing, EqualShare, ProportionalShare, ShapleyShare,
    };
    pub use crate::tables::ProblemTables;
}
