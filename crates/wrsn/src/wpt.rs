//! Wireless power transmission (WPT) modeling.
//!
//! Mobile chargers deliver energy over short-range wireless links. The
//! received power follows the empirical inverse-square law used throughout
//! the WRSN charging literature (Fu et al., He et al.):
//!
//! ```text
//! P_r(d) = alpha / (d + beta)^2   for d <= range,   0 otherwise
//! ```
//!
//! where `alpha` bundles transmit power, antenna gains and rectifier
//! efficiency, and `beta` smooths the near-field singularity. Device-side
//! charge time for a demand `w` at distance `d` is `w / (eta * P_r(d))` with
//! battery charging efficiency `eta`.
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::wpt::WptModel;
//! use ccs_wrsn::units::{Meters, Joules};
//!
//! let wpt = WptModel::default();
//! let near = wpt.received_power(Meters::new(0.2));
//! let far = wpt.received_power(Meters::new(1.0));
//! assert!(near > far);
//! let t = wpt.charge_time(Joules::new(100.0), Meters::new(0.2)).unwrap();
//! assert!(t.value() > 0.0);
//! ```

use crate::units::{Joules, Meters, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when a charge cannot physically happen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WptError {
    /// The receiver is beyond the charger's effective range.
    OutOfRange {
        /// Requested link distance.
        distance: Meters,
        /// The model's effective range.
        range: Meters,
    },
    /// Requested energy was negative or non-finite.
    InvalidDemand(Joules),
}

impl fmt::Display for WptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WptError::OutOfRange { distance, range } => {
                write!(f, "receiver at {distance} beyond charging range {range}")
            }
            WptError::InvalidDemand(w) => write!(f, "invalid energy demand {w}"),
        }
    }
}

impl std::error::Error for WptError {}

/// Parameters of the inverse-square WPT link model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WptModel {
    /// Combined transmit-side constant (W·m²): transmit power × gains.
    pub alpha: f64,
    /// Near-field smoothing constant (m).
    pub beta: f64,
    /// Battery charging efficiency in `(0, 1]`.
    pub efficiency: f64,
    /// Effective charging range; beyond it received power is zero.
    pub range: Meters,
}

impl WptModel {
    /// Creates a model, validating all parameters.
    ///
    /// # Panics
    ///
    /// Panics if a parameter fails [`WptModel::validate`]
    /// (construction-time programming errors).
    pub fn new(alpha: f64, beta: f64, efficiency: f64, range: Meters) -> Self {
        let model = WptModel {
            alpha,
            beta,
            efficiency,
            range,
        };
        if let Err(msg) = model.validate() {
            panic!("{msg}");
        }
        model
    }

    /// Checks the parameters: finite `alpha > 0` and `beta >= 0`,
    /// `efficiency` in `(0, 1]`, and a finite positive `range`. The fields
    /// are public and a deserialized model skips [`WptModel::new`], so code
    /// that reads models from outside the program runs this.
    ///
    /// # Errors
    ///
    /// The first parameter out of range, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err("alpha must be > 0".to_string());
        }
        if !(self.beta >= 0.0 && self.beta.is_finite()) {
            return Err("beta must be >= 0".to_string());
        }
        if !(self.efficiency > 0.0 && self.efficiency <= 1.0) {
            return Err(format!(
                "efficiency must be in (0, 1], got {}",
                self.efficiency
            ));
        }
        if !(self.range.is_finite() && self.range > Meters::ZERO) {
            return Err("range must be positive".to_string());
        }
        Ok(())
    }

    /// Received RF power at link distance `d`, zero beyond range.
    ///
    /// Negative distances are treated as zero (co-located).
    pub fn received_power(&self, d: Meters) -> Watts {
        let d = d.max(Meters::ZERO);
        if d > self.range {
            return Watts::ZERO;
        }
        let denom = d.value() + self.beta;
        Watts::new(self.alpha / (denom * denom))
    }

    /// Effective charging power after battery efficiency losses.
    pub fn effective_power(&self, d: Meters) -> Watts {
        self.received_power(d) * self.efficiency
    }

    /// Time to deliver `demand` Joules into the battery at distance `d`.
    ///
    /// # Errors
    ///
    /// Returns [`WptError::OutOfRange`] beyond the model range and
    /// [`WptError::InvalidDemand`] for negative/non-finite demands.
    pub fn charge_time(&self, demand: Joules, d: Meters) -> Result<Seconds, WptError> {
        if !demand.is_finite() || demand < Joules::ZERO {
            return Err(WptError::InvalidDemand(demand));
        }
        let p = self.effective_power(d);
        if p == Watts::ZERO {
            return Err(WptError::OutOfRange {
                distance: d,
                range: self.range,
            });
        }
        Ok(demand / p)
    }

    /// Energy delivered into the battery over `duration` at distance `d`.
    pub fn energy_delivered(&self, duration: Seconds, d: Meters) -> Joules {
        self.effective_power(d) * duration.max(Seconds::ZERO)
    }
}

impl Default for WptModel {
    /// Defaults calibrated to commodity 5 W-class WPT hardware at sub-meter
    /// range, matching the scale of the paper's testbed chargers.
    fn default() -> Self {
        WptModel::new(4.32, 0.2, 0.85, Meters::new(3.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_decays_with_distance() {
        let m = WptModel::default();
        let p0 = m.received_power(Meters::ZERO);
        let p1 = m.received_power(Meters::new(1.0));
        let p2 = m.received_power(Meters::new(2.0));
        assert!(p0 > p1 && p1 > p2);
        assert_eq!(m.received_power(Meters::new(10.0)), Watts::ZERO);
    }

    #[test]
    fn negative_distance_treated_as_contact() {
        let m = WptModel::default();
        assert_eq!(
            m.received_power(Meters::new(-1.0)),
            m.received_power(Meters::ZERO)
        );
    }

    #[test]
    fn effective_power_scales_by_efficiency() {
        let m = WptModel::new(4.0, 0.0, 0.5, Meters::new(5.0));
        let d = Meters::new(2.0);
        assert_eq!(m.effective_power(d), m.received_power(d) * 0.5);
        // alpha / d^2 = 4 / 4 = 1 W received, 0.5 W effective.
        assert_eq!(m.effective_power(d), Watts::new(0.5));
    }

    #[test]
    fn charge_time_round_trips_energy() {
        let m = WptModel::default();
        let d = Meters::new(0.5);
        let demand = Joules::new(250.0);
        let t = m.charge_time(demand, d).unwrap();
        let delivered = m.energy_delivered(t, d);
        assert!((delivered.value() - demand.value()).abs() < 1e-9);
    }

    #[test]
    fn charge_time_errors() {
        let m = WptModel::default();
        assert!(matches!(
            m.charge_time(Joules::new(10.0), Meters::new(100.0)),
            Err(WptError::OutOfRange { .. })
        ));
        assert!(matches!(
            m.charge_time(Joules::new(-1.0), Meters::new(0.1)),
            Err(WptError::InvalidDemand(_))
        ));
        assert!(matches!(
            m.charge_time(Joules::new(f64::NAN), Meters::new(0.1)),
            Err(WptError::InvalidDemand(_))
        ));
    }

    #[test]
    fn zero_duration_delivers_nothing() {
        let m = WptModel::default();
        assert_eq!(
            m.energy_delivered(Seconds::ZERO, Meters::new(0.1)),
            Joules::ZERO
        );
        assert_eq!(
            m.energy_delivered(Seconds::new(-5.0), Meters::new(0.1)),
            Joules::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "efficiency must be in (0, 1]")]
    fn rejects_bad_efficiency() {
        let _ = WptModel::new(1.0, 0.1, 1.5, Meters::new(1.0));
    }

    #[test]
    fn error_display() {
        let err = WptError::OutOfRange {
            distance: Meters::new(5.0),
            range: Meters::new(3.0),
        };
        assert!(err.to_string().contains("beyond charging range"));
    }
}
