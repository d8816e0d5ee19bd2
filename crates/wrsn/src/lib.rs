//! # ccs-wrsn — Wireless Rechargeable Sensor Network substrate
//!
//! World model underneath the Cooperative Charging as Service (CCS)
//! reproduction: strongly-typed units, planar geometry (including the
//! weighted geometric median used for gathering-point optimization), battery
//! and WPT power-transfer physics, device/charger entities, the
//! discrete-event queue that simulations run on, and a deterministic seeded
//! scenario generator that produces the workloads behind every simulation
//! figure.
//!
//! # Example
//!
//! ```
//! use ccs_wrsn::prelude::*;
//!
//! let scenario = ScenarioGenerator::new(1).devices(10).chargers(3).generate();
//! let d = scenario.device(DeviceId::new(0));
//! let c = scenario.charger(ChargerId::new(0));
//! let link = d.position().distance(&c.position());
//! assert!(link.value() >= 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod energy;
pub mod entities;
pub mod event;
pub mod geometry;
pub mod mobile;
pub mod scenario;
pub mod units;
pub mod wpt;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::arrival::{ArrivalGenerator, ArrivalProfile, ChargeRequest};
    pub use crate::energy::{Battery, EnergyDemand};
    pub use crate::entities::{Charger, ChargerId, Device, DeviceId};
    pub use crate::event::{EventQueue, SimTime};
    pub use crate::geometry::{Point, Rect};
    pub use crate::mobile::{EnergyModel, MobileCharger};
    pub use crate::scenario::{ParamRange, Placement, Scenario, ScenarioGenerator};
    pub use crate::units::{
        Cost, CostPerJoule, CostPerMeter, Joules, Meters, MetersPerSecond, Seconds, Watts,
    };
    pub use crate::wpt::WptModel;
}
