//! # ccs-testbed — simulated field-experiment testbed
//!
//! The paper validates CCS scheduling on a physical testbed of 5 mobile
//! chargers and 8 rechargeable sensor nodes. This crate substitutes that
//! hardware (see `DESIGN.md`): a discrete-event executor ([`sim`]) replays
//! planned schedules under configurable physical imperfections ([`noise`]
//! — detours, speed jitter, WPT efficiency loss) on a hardware-scale arena
//! preset ([`field`]), measuring *realized* comprehensive costs, queueing
//! delays and makespan. Under [`noise::NoiseModel::ideal`] the replay
//! reproduces the planner's costs exactly, which pins the executor to the
//! cost model.
//!
//! # Example
//!
//! ```
//! use ccs_testbed::{field::field_problem, noise::NoiseModel, sim::execute};
//! use ccs_core::prelude::*;
//!
//! let problem = field_problem(1);
//! let plan = ccsa(&problem, &EqualShare, CcsaOptions::default());
//! let outcome = execute(&problem, &plan, &EqualShare, &NoiseModel::field(), 0);
//! assert!(outcome.total_cost().value() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod field;
pub mod noise;
pub mod recover;
pub mod sim;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::field::{field_noise, field_problem, field_scenario};
    pub use crate::noise::{FailureModel, NoiseModel};
    pub use crate::recover::{recover, FieldRun, TestbedDriver};
    pub use crate::sim::{execute, execute_with_failures, FieldOutcome};
}
