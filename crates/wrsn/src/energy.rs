//! Battery and energy-demand modeling for rechargeable devices.
//!
//! A [`Battery`] tracks capacity and level with checked charge/discharge
//! operations; [`EnergyDemand`] captures how much energy a device wants to
//! buy in the current scheduling round (typically the gap to a target level).
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::energy::Battery;
//! use ccs_wrsn::units::Joules;
//!
//! let mut b = Battery::new(Joules::new(10_000.0), Joules::new(2_500.0))?;
//! b.discharge(Joules::new(500.0))?;
//! assert_eq!(b.level(), Joules::new(2_000.0));
//! let overflow = b.charge(Joules::new(20_000.0));
//! assert_eq!(b.level(), b.capacity());
//! assert_eq!(overflow, Joules::new(12_000.0)); // energy that did not fit
//! # Ok::<(), ccs_wrsn::energy::BatteryError>(())
//! ```

use crate::units::Joules;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error for invalid battery construction or operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatteryError {
    /// Capacity was non-positive or non-finite.
    InvalidCapacity(Joules),
    /// Initial or requested level was outside `[0, capacity]`.
    LevelOutOfRange {
        /// The offending level.
        level: Joules,
        /// The battery capacity.
        capacity: Joules,
    },
    /// Discharge request exceeded the stored energy.
    InsufficientEnergy {
        /// Energy requested.
        requested: Joules,
        /// Energy available.
        available: Joules,
    },
    /// A negative or non-finite amount was passed to charge/discharge.
    InvalidAmount(Joules),
}

impl fmt::Display for BatteryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatteryError::InvalidCapacity(c) => write!(f, "invalid battery capacity {c}"),
            BatteryError::LevelOutOfRange { level, capacity } => {
                write!(f, "battery level {level} outside [0, {capacity}]")
            }
            BatteryError::InsufficientEnergy {
                requested,
                available,
            } => write!(
                f,
                "discharge of {requested} exceeds stored energy {available}"
            ),
            BatteryError::InvalidAmount(a) => write!(f, "invalid energy amount {a}"),
        }
    }
}

impl std::error::Error for BatteryError {}

/// A rechargeable battery with bounded level.
///
/// Invariant: `0 <= level <= capacity`, all finite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity: Joules,
    level: Joules,
}

impl Battery {
    /// Creates a battery with the given capacity and initial level.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidCapacity`] for non-positive or
    /// non-finite capacity, and [`BatteryError::LevelOutOfRange`] if the
    /// initial level is outside `[0, capacity]`.
    pub fn new(capacity: Joules, level: Joules) -> Result<Self, BatteryError> {
        if !capacity.is_finite() || capacity <= Joules::ZERO {
            return Err(BatteryError::InvalidCapacity(capacity));
        }
        if !level.is_finite() || level < Joules::ZERO || level > capacity {
            return Err(BatteryError::LevelOutOfRange { level, capacity });
        }
        Ok(Battery { capacity, level })
    }

    /// A battery starting completely full.
    pub fn full(capacity: Joules) -> Result<Self, BatteryError> {
        Battery::new(capacity, capacity)
    }

    /// Total capacity.
    #[inline]
    pub fn capacity(&self) -> Joules {
        self.capacity
    }

    /// Current stored energy.
    #[inline]
    pub fn level(&self) -> Joules {
        self.level
    }

    /// Fraction of capacity currently stored, in `[0, 1]`.
    #[inline]
    pub fn state_of_charge(&self) -> f64 {
        self.level / self.capacity
    }

    /// Remaining headroom until full.
    #[inline]
    pub fn headroom(&self) -> Joules {
        self.capacity - self.level
    }

    /// Adds energy, saturating at capacity. Returns the overflow that did
    /// not fit (zero if everything fit).
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or non-finite (programming error, not
    /// an environmental condition).
    pub fn charge(&mut self, amount: Joules) -> Joules {
        assert!(
            amount.is_finite() && amount >= Joules::ZERO,
            "charge amount must be finite and nonnegative, got {amount}"
        );
        let accepted = amount.min(self.headroom());
        // `level + (capacity - level)` can land one ULP above capacity in
        // floating point; clamp to keep the invariant exact.
        self.level = (self.level + accepted).min(self.capacity);
        amount - accepted
    }

    /// Removes energy.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InsufficientEnergy`] if `amount` exceeds the
    /// stored level, and [`BatteryError::InvalidAmount`] for negative or
    /// non-finite amounts. The battery is unchanged on error.
    pub fn discharge(&mut self, amount: Joules) -> Result<(), BatteryError> {
        if !amount.is_finite() || amount < Joules::ZERO {
            return Err(BatteryError::InvalidAmount(amount));
        }
        if amount > self.level {
            return Err(BatteryError::InsufficientEnergy {
                requested: amount,
                available: self.level,
            });
        }
        self.level -= amount;
        Ok(())
    }

    /// Returns `true` if the battery is empty (level is exactly zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.level == Joules::ZERO
    }
}

/// A device's energy purchase request for one scheduling round.
///
/// Devices typically request the gap between their current level and a
/// target state of charge; [`EnergyDemand::refill_to`] computes that.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct EnergyDemand(Joules);

impl EnergyDemand {
    /// Creates a demand for a fixed amount of energy.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or non-finite.
    pub fn new(amount: Joules) -> Self {
        assert!(
            amount.is_finite() && amount >= Joules::ZERO,
            "energy demand must be finite and nonnegative, got {amount}"
        );
        EnergyDemand(amount)
    }

    /// Demand to bring `battery` up to `target_soc` (fraction of capacity).
    ///
    /// Returns zero demand if the battery is already at or above the target.
    ///
    /// # Panics
    ///
    /// Panics if `target_soc` is not in `[0, 1]`.
    pub fn refill_to(battery: &Battery, target_soc: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&target_soc),
            "target state of charge must be in [0, 1], got {target_soc}"
        );
        let target = battery.capacity() * target_soc;
        let gap = (target - battery.level()).max(Joules::ZERO);
        EnergyDemand(gap)
    }

    /// The requested energy amount.
    #[inline]
    pub fn amount(&self) -> Joules {
        self.0
    }

    /// Whether this demand is zero (device needs nothing this round).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == Joules::ZERO
    }
}

impl fmt::Display for EnergyDemand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "demand {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_construction_validates() {
        assert!(matches!(
            Battery::new(Joules::ZERO, Joules::ZERO),
            Err(BatteryError::InvalidCapacity(_))
        ));
        assert!(matches!(
            Battery::new(Joules::new(-5.0), Joules::ZERO),
            Err(BatteryError::InvalidCapacity(_))
        ));
        assert!(matches!(
            Battery::new(Joules::new(10.0), Joules::new(11.0)),
            Err(BatteryError::LevelOutOfRange { .. })
        ));
        assert!(matches!(
            Battery::new(Joules::new(10.0), Joules::new(-1.0)),
            Err(BatteryError::LevelOutOfRange { .. })
        ));
        assert!(matches!(
            Battery::new(Joules::new(f64::NAN), Joules::ZERO),
            Err(BatteryError::InvalidCapacity(_))
        ));
        let b = Battery::full(Joules::new(10.0)).unwrap();
        assert_eq!(b.state_of_charge(), 1.0);
    }

    #[test]
    fn charge_saturates_and_reports_overflow() {
        let mut b = Battery::new(Joules::new(10.0), Joules::new(8.0)).unwrap();
        assert_eq!(b.charge(Joules::new(1.0)), Joules::ZERO);
        assert_eq!(b.level(), Joules::new(9.0));
        assert_eq!(b.charge(Joules::new(5.0)), Joules::new(4.0));
        assert_eq!(b.headroom(), Joules::ZERO);
    }

    #[test]
    fn discharge_checks_bounds() {
        let mut b = Battery::new(Joules::new(10.0), Joules::new(3.0)).unwrap();
        b.discharge(Joules::new(3.0)).unwrap();
        assert!(b.is_empty());
        let err = b.discharge(Joules::new(0.1)).unwrap_err();
        assert!(matches!(err, BatteryError::InsufficientEnergy { .. }));
        assert!(b.is_empty(), "battery unchanged on failed discharge");
        assert!(matches!(
            b.discharge(Joules::new(-1.0)),
            Err(BatteryError::InvalidAmount(_))
        ));
    }

    #[test]
    #[should_panic(expected = "charge amount must be finite and nonnegative")]
    fn charge_rejects_negative() {
        let mut b = Battery::full(Joules::new(10.0)).unwrap();
        let _ = b.charge(Joules::new(-1.0));
    }

    #[test]
    fn demand_refill_to_target() {
        let b = Battery::new(Joules::new(100.0), Joules::new(30.0)).unwrap();
        let d = EnergyDemand::refill_to(&b, 0.9);
        assert_eq!(d.amount(), Joules::new(60.0));
        let already_above = EnergyDemand::refill_to(&b, 0.2);
        assert!(already_above.is_zero());
    }

    #[test]
    #[should_panic(expected = "target state of charge must be in [0, 1]")]
    fn demand_rejects_bad_target() {
        let b = Battery::full(Joules::new(10.0)).unwrap();
        let _ = EnergyDemand::refill_to(&b, 1.5);
    }

    #[test]
    fn battery_error_display_is_nonempty() {
        let err = Battery::new(Joules::new(10.0), Joules::new(11.0)).unwrap_err();
        assert!(!err.to_string().is_empty());
        let err = BatteryError::InsufficientEnergy {
            requested: Joules::new(5.0),
            available: Joules::new(1.0),
        };
        assert!(err.to_string().contains("exceeds"));
    }
}
