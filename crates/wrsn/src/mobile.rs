//! Mobile-charger energy state for the online service.
//!
//! The one-shot planner treats a charger's tank as a per-schedule budget
//! ([`crate::entities::Charger::energy_budget`]); a *live* charger
//! instead drains a finite on-board battery continuously — on every
//! meter driven (`ecr_move`, J/m) and on every joule delivered
//! (`ecr_charge`, J drawn per J received, the inverse WPT conversion
//! efficiency) — and must return to its depot to refill when the
//! remaining charge cannot cover a committed tour plus the ride home.
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::geometry::Point;
//! use ccs_wrsn::mobile::{EnergyModel, MobileCharger};
//! use ccs_wrsn::units::{Joules, Meters};
//!
//! let mut mc = MobileCharger::new(Point::new(0.0, 0.0), EnergyModel::default());
//! let travel = Meters::new(100.0);
//! let delivered = Joules::new(5_000.0);
//! assert!(mc.can_cover(travel, delivered, Meters::new(100.0)));
//! mc.commit(Point::new(100.0, 0.0), travel, delivered);
//! assert!(mc.energy() < mc.capacity());
//! mc.refill();
//! assert_eq!(mc.energy(), mc.capacity());
//! assert_eq!(mc.depot_cycles(), 1);
//! ```

use crate::energy::Battery;
use crate::geometry::Point;
use crate::units::{Joules, Meters};
use serde::{Deserialize, Serialize};

/// Energy parameters of a mobile charger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// On-board battery capacity.
    pub battery_cap: Joules,
    /// Energy drained per meter of travel (J/m).
    pub ecr_move: f64,
    /// Energy drawn from the tank per joule delivered to a device —
    /// `1 / efficiency` of the wireless transfer, so always >= 1.
    pub ecr_charge: f64,
}

impl Default for EnergyModel {
    /// A tank good for a handful of full-fleet tours: 500 kJ capacity,
    /// 20 J/m of travel drain, 1.25 J drawn per delivered joule (80%
    /// transfer efficiency).
    fn default() -> Self {
        EnergyModel {
            battery_cap: Joules::new(500_000.0),
            ecr_move: 20.0,
            ecr_charge: 1.25,
        }
    }
}

impl EnergyModel {
    /// Checks the parameters: the capacity must be positive, `ecr_move`
    /// nonnegative and `ecr_charge >= 1` (a transfer cannot create energy).
    ///
    /// # Errors
    ///
    /// The first parameter out of range, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            (
                self.battery_cap.is_finite() && self.battery_cap > Joules::ZERO,
                "battery capacity must be positive",
            ),
            (
                self.ecr_move.is_finite() && self.ecr_move >= 0.0,
                "ecr_move must be nonnegative",
            ),
            (
                self.ecr_charge.is_finite() && self.ecr_charge >= 1.0,
                "ecr_charge must be >= 1",
            ),
        ];
        checks
            .into_iter()
            .find(|(ok, _)| !ok)
            .map_or(Ok(()), |(_, msg)| Err(msg.to_string()))
    }

    /// Tank energy one tour consumes: travel drain plus delivery drain.
    pub fn tour_energy(&self, travel: Meters, delivered: Joules) -> Joules {
        Joules::new(travel.value() * self.ecr_move + delivered.value() * self.ecr_charge)
    }
}

/// Live energy state of one charger: position, tank, depot.
#[derive(Debug, Clone)]
pub struct MobileCharger {
    depot: Point,
    position: Point,
    battery: Battery,
    model: EnergyModel,
    depot_cycles: usize,
}

impl MobileCharger {
    /// A charger parked at its depot with a full tank.
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`EnergyModel::validate`].
    pub fn new(depot: Point, model: EnergyModel) -> Self {
        if let Err(msg) = model.validate() {
            panic!("{msg}");
        }
        MobileCharger {
            depot,
            position: depot,
            battery: Battery::full(model.battery_cap).expect("validated capacity"),
            model,
            depot_cycles: 0,
        }
    }

    /// Home depot (refill point).
    pub fn depot(&self) -> Point {
        self.depot
    }

    /// Current position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Remaining tank energy.
    pub fn energy(&self) -> Joules {
        self.battery.level()
    }

    /// Tank capacity.
    pub fn capacity(&self) -> Joules {
        self.battery.capacity()
    }

    /// The energy model.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Completed refill trips.
    pub fn depot_cycles(&self) -> usize {
        self.depot_cycles
    }

    /// Whether the current tank covers a tour of `travel` meters
    /// delivering `delivered`, *plus* the `home` ride back to the depot
    /// afterwards — the reserve that guarantees the charger is never
    /// stranded.
    pub fn can_cover(&self, travel: Meters, delivered: Joules, home: Meters) -> bool {
        let need = self.model.tour_energy(travel, delivered)
            + Joules::new(home.value() * self.model.ecr_move);
        self.battery.level() >= need
    }

    /// [`Self::can_cover`] for a freshly refilled tank: whether the tour
    /// is feasible *at all* for this charger class.
    pub fn can_cover_from_full(&self, travel: Meters, delivered: Joules, home: Meters) -> bool {
        let need = self.model.tour_energy(travel, delivered)
            + Joules::new(home.value() * self.model.ecr_move);
        self.battery.capacity() >= need
    }

    /// Commits a tour: drains the tank and moves the charger to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the tank cannot cover the tour — callers gate on
    /// [`Self::can_cover`] first.
    pub fn commit(&mut self, to: Point, travel: Meters, delivered: Joules) {
        let need = self.model.tour_energy(travel, delivered);
        self.battery
            .discharge(need)
            .expect("committed tour must fit the tank");
        self.position = to;
    }

    /// Sends the charger home: returns the length of the ride back, with
    /// the charger parked at the depot on a full tank afterwards.
    pub fn refill(&mut self) -> Meters {
        let ride = self.position.distance(&self.depot);
        // The return leg was reserved by `can_cover`; an empty-at-depot
        // tank is fine, so drain saturating rather than panicking.
        let drain = Joules::new((ride.value() * self.model.ecr_move).min(self.energy().value()));
        self.battery
            .discharge(drain)
            .expect("return drain is clamped to the level");
        self.position = self.depot;
        let headroom = self.battery.headroom();
        self.battery.charge(headroom);
        self.depot_cycles += 1;
        ride
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel {
            battery_cap: Joules::new(10_000.0),
            ecr_move: 10.0,
            ecr_charge: 1.25,
        }
    }

    #[test]
    fn tours_drain_travel_and_delivery() {
        let mut mc = MobileCharger::new(Point::new(0.0, 0.0), model());
        mc.commit(
            Point::new(100.0, 0.0),
            Meters::new(100.0),
            Joules::new(4_000.0),
        );
        // 100 m * 10 J/m + 4000 J * 1.25 = 6000 J drained.
        assert_eq!(mc.energy(), Joules::new(4_000.0));
        assert_eq!(mc.position(), Point::new(100.0, 0.0));
    }

    #[test]
    fn reserve_keeps_the_ride_home_covered() {
        let mc = MobileCharger::new(Point::new(0.0, 0.0), model());
        // Tour fits alone (6000 J) but not with a 500 m ride home.
        assert!(mc.can_cover(Meters::new(100.0), Joules::new(4_000.0), Meters::new(100.0)));
        assert!(!mc.can_cover(Meters::new(100.0), Joules::new(4_000.0), Meters::new(500.0)));
    }

    #[test]
    fn refill_returns_home_full_and_counts_the_cycle() {
        let mut mc = MobileCharger::new(Point::new(0.0, 0.0), model());
        mc.commit(
            Point::new(200.0, 0.0),
            Meters::new(200.0),
            Joules::new(2_000.0),
        );
        let ride = mc.refill();
        assert_eq!(ride, Meters::new(200.0));
        assert_eq!(mc.position(), mc.depot());
        assert_eq!(mc.energy(), mc.capacity());
        assert_eq!(mc.depot_cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "ecr_charge must be >= 1")]
    fn transfers_cannot_create_energy() {
        MobileCharger::new(
            Point::new(0.0, 0.0),
            EnergyModel {
                ecr_charge: 0.5,
                ..model()
            },
        );
    }
}
