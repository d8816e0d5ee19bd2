//! # ccs-coalition — coalition-formation game engine
//!
//! The game-theoretic substrate behind CCSGA in the Cooperative Charging as
//! Service reproduction: a [`partition::Partition`] type with stable
//! coalition handles, the [`game::HedonicGame`] trait (cost-based hedonic
//! preferences plus feasibility), an iterated-switch [`engine`] with three
//! switch rules (selfish-with-history — the paper's rule — plus consent and
//! utilitarian variants for ablations), an independent Nash-stability
//! checker in [`stability`], and [`memo`], the sharded map behind every
//! pure-function memo of a solve.
//!
//! # Example
//!
//! ```
//! use ccs_coalition::prelude::*;
//!
//! // Three co-located players sharing a fee of 6: they end up together.
//! let distance = vec![vec![0.0; 3]; 3];
//! let game = FeeSharingGame::new(6.0, distance, 3);
//! let report = run(&game, Partition::singletons(3), EngineOptions::default());
//! assert!(report.converged);
//! assert_eq!(report.partition.num_coalitions(), 1);
//! assert!(report.nash_stable);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod game;
pub mod memo;
pub mod partition;
pub mod stability;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::engine::{run, ConvergenceReport, EngineOptions, SwitchRule};
    pub use crate::game::{FeeSharingGame, HedonicGame};
    pub use crate::partition::{CoalitionId, Partition};
    pub use crate::stability::{find_blocking_move, is_nash_stable, BlockingMove};
}
