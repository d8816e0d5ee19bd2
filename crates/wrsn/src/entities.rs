//! The actors of the charging marketplace: rechargeable devices and
//! charging-service providers ("chargers").
//!
//! Both are plain data records constructed through builders so that
//! scenario generators and tests can override exactly the fields they care
//! about (C-BUILDER).
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::entities::{Device, DeviceId, Charger, ChargerId};
//! use ccs_wrsn::geometry::Point;
//! use ccs_wrsn::units::*;
//!
//! let dev = Device::builder(DeviceId::new(0), Point::new(10.0, 20.0))
//!     .demand(Joules::new(2_000.0))
//!     .move_cost_rate(CostPerMeter::new(0.08))
//!     .build();
//! assert_eq!(dev.demand(), Joules::new(2_000.0));
//!
//! let ch = Charger::builder(ChargerId::new(0), Point::new(0.0, 0.0))
//!     .base_fee(Cost::new(30.0))
//!     .build();
//! assert!(ch.base_fee() > Cost::ZERO);
//! ```

use crate::energy::Battery;
use crate::geometry::Point;
use crate::units::{Cost, CostPerJoule, CostPerMeter, Joules, MetersPerSecond};
use crate::wpt::WptModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a rechargeable device, dense in `0..n`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct DeviceId(u32);

impl DeviceId {
    /// Creates a device id.
    #[inline]
    pub const fn new(id: u32) -> Self {
        DeviceId(id)
    }

    /// The raw id value.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// The id as an index into device-ordered arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Identifier of a charging-service provider, dense in `0..m`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ChargerId(u32);

impl ChargerId {
    /// Creates a charger id.
    #[inline]
    pub const fn new(id: u32) -> Self {
        ChargerId(id)
    }

    /// The raw id value.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// The id as an index into charger-ordered arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChargerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A mobile rechargeable sensor device participating in cooperative charging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    id: DeviceId,
    position: Point,
    battery: Battery,
    demand: Joules,
    move_cost_rate: CostPerMeter,
    speed: MetersPerSecond,
}

impl Device {
    /// Starts building a device at a position; everything else defaults.
    pub fn builder(id: DeviceId, position: Point) -> DeviceBuilder {
        DeviceBuilder {
            id,
            position,
            battery: Battery::new(Joules::new(10_000.0), Joules::new(3_000.0))
                .expect("default battery parameters are valid"),
            demand: Joules::new(5_000.0),
            move_cost_rate: CostPerMeter::new(0.05),
            speed: MetersPerSecond::new(1.0),
        }
    }

    /// The device id.
    #[inline]
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Current position in the field.
    #[inline]
    pub fn position(&self) -> Point {
        self.position
    }

    /// Battery state.
    #[inline]
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Energy the device wants to purchase this round.
    #[inline]
    pub fn demand(&self) -> Joules {
        self.demand
    }

    /// Cost of moving, per meter travelled.
    #[inline]
    pub fn move_cost_rate(&self) -> CostPerMeter {
        self.move_cost_rate
    }

    /// Travel speed.
    #[inline]
    pub fn speed(&self) -> MetersPerSecond {
        self.speed
    }

    /// Checks the invariants [`DeviceBuilder`] and [`Battery::new`] enforce:
    /// demand and move cost rate finite and nonnegative, speed finite and
    /// positive, battery level within `[0, capacity]`. A deserialized device
    /// skips both, so code that reads devices from outside the program runs
    /// this.
    ///
    /// # Errors
    ///
    /// The first broken invariant, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        Battery::new(self.battery.capacity(), self.battery.level()).map_err(|e| e.to_string())?;
        nonnegative(self.demand.value(), "demand")?;
        nonnegative(self.move_cost_rate.value(), "move cost rate")?;
        positive(self.speed.value(), "speed")
    }
}

/// `Ok` when `value` is finite and nonnegative.
fn nonnegative(value: f64, what: &str) -> Result<(), String> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(format!("{what} must be finite and nonnegative"))
    }
}

/// `Ok` when `value` is finite and positive.
fn positive(value: f64, what: &str) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("{what} must be finite and positive"))
    }
}

/// Builder for [`Device`].
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    id: DeviceId,
    position: Point,
    battery: Battery,
    demand: Joules,
    move_cost_rate: CostPerMeter,
    speed: MetersPerSecond,
}

impl DeviceBuilder {
    /// Sets the battery state.
    pub fn battery(mut self, battery: Battery) -> Self {
        self.battery = battery;
        self
    }

    /// Sets the energy demand for this round.
    ///
    /// # Panics
    ///
    /// Panics if negative or non-finite.
    pub fn demand(mut self, demand: Joules) -> Self {
        nonnegative(demand.value(), "demand").unwrap_or_else(|e| panic!("{e}"));
        self.demand = demand;
        self
    }

    /// Sets the per-meter movement cost rate.
    pub fn move_cost_rate(mut self, rate: CostPerMeter) -> Self {
        nonnegative(rate.value(), "move cost rate").unwrap_or_else(|e| panic!("{e}"));
        self.move_cost_rate = rate;
        self
    }

    /// Sets the travel speed.
    pub fn speed(mut self, speed: MetersPerSecond) -> Self {
        positive(speed.value(), "speed").unwrap_or_else(|e| panic!("{e}"));
        self.speed = speed;
        self
    }

    /// Finalizes the device.
    pub fn build(self) -> Device {
        Device {
            id: self.id,
            position: self.position,
            battery: self.battery,
            demand: self.demand,
            move_cost_rate: self.move_cost_rate,
            speed: self.speed,
        }
    }
}

/// A mobile charging-service provider.
///
/// The pricing model follows the paper's service framing: a **base service
/// fee** per hire, a **travel cost** per meter the charger drives to the
/// gathering point, an **energy price** per Joule delivered, and an
/// **occupancy rate** multiplying the concave service-time congestion term.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Charger {
    id: ChargerId,
    position: Point,
    base_fee: Cost,
    travel_cost_rate: CostPerMeter,
    energy_price: CostPerJoule,
    occupancy_rate: Cost,
    speed: MetersPerSecond,
    wpt: WptModel,
    #[serde(default)]
    energy_budget: Option<Joules>,
}

impl Charger {
    /// Starts building a charger at a position; everything else defaults.
    pub fn builder(id: ChargerId, position: Point) -> ChargerBuilder {
        ChargerBuilder {
            id,
            position,
            base_fee: Cost::new(25.0),
            travel_cost_rate: CostPerMeter::new(0.10),
            energy_price: CostPerJoule::new(0.002),
            occupancy_rate: Cost::new(4.0),
            speed: MetersPerSecond::new(2.0),
            wpt: WptModel::default(),
            energy_budget: None,
        }
    }

    /// The charger id.
    #[inline]
    pub fn id(&self) -> ChargerId {
        self.id
    }

    /// Depot position of the charger.
    #[inline]
    pub fn position(&self) -> Point {
        self.position
    }

    /// Fixed fee charged each time the charger is hired.
    #[inline]
    pub fn base_fee(&self) -> Cost {
        self.base_fee
    }

    /// Cost per meter driven by the charger.
    #[inline]
    pub fn travel_cost_rate(&self) -> CostPerMeter {
        self.travel_cost_rate
    }

    /// Price per Joule of delivered energy.
    #[inline]
    pub fn energy_price(&self) -> CostPerJoule {
        self.energy_price
    }

    /// Multiplier of the concave group-size congestion term.
    #[inline]
    pub fn occupancy_rate(&self) -> Cost {
        self.occupancy_rate
    }

    /// Driving speed of the charger.
    #[inline]
    pub fn speed(&self) -> MetersPerSecond {
        self.speed
    }

    /// The WPT link model of this charger's coil.
    #[inline]
    pub fn wpt(&self) -> &WptModel {
        &self.wpt
    }

    /// Maximum energy this charger can deliver in a single hire
    /// (`None` = unlimited).
    #[inline]
    pub fn energy_budget(&self) -> Option<Joules> {
        self.energy_budget
    }

    /// Whether one hire can deliver `total_demand` Joules.
    #[inline]
    pub fn can_deliver(&self, total_demand: Joules) -> bool {
        self.energy_budget.is_none_or(|b| total_demand <= b)
    }

    /// Checks the invariants [`ChargerBuilder`] and [`WptModel::new`]
    /// enforce: fee, rates and price finite and nonnegative, speed finite
    /// and positive, any energy budget finite and positive, and the WPT
    /// model's parameters ([`WptModel::validate`]). A deserialized charger
    /// skips both, so code that reads chargers from outside the program
    /// runs this.
    ///
    /// # Errors
    ///
    /// The first broken invariant, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        nonnegative(self.base_fee.value(), "base fee")?;
        nonnegative(self.travel_cost_rate.value(), "travel cost rate")?;
        nonnegative(self.energy_price.value(), "energy price")?;
        nonnegative(self.occupancy_rate.value(), "occupancy rate")?;
        positive(self.speed.value(), "speed")?;
        self.energy_budget
            .map_or(Ok(()), |budget| positive(budget.value(), "energy budget"))?;
        self.wpt.validate().map_err(|e| format!("wpt {e}"))
    }
}

/// Builder for [`Charger`].
#[derive(Debug, Clone)]
pub struct ChargerBuilder {
    id: ChargerId,
    position: Point,
    base_fee: Cost,
    travel_cost_rate: CostPerMeter,
    energy_price: CostPerJoule,
    occupancy_rate: Cost,
    speed: MetersPerSecond,
    wpt: WptModel,
    energy_budget: Option<Joules>,
}

impl ChargerBuilder {
    /// Sets the per-hire base service fee.
    pub fn base_fee(mut self, fee: Cost) -> Self {
        nonnegative(fee.value(), "base fee").unwrap_or_else(|e| panic!("{e}"));
        self.base_fee = fee;
        self
    }

    /// Sets the per-meter travel cost rate.
    pub fn travel_cost_rate(mut self, rate: CostPerMeter) -> Self {
        nonnegative(rate.value(), "travel cost rate").unwrap_or_else(|e| panic!("{e}"));
        self.travel_cost_rate = rate;
        self
    }

    /// Sets the energy price per Joule.
    pub fn energy_price(mut self, price: CostPerJoule) -> Self {
        nonnegative(price.value(), "energy price").unwrap_or_else(|e| panic!("{e}"));
        self.energy_price = price;
        self
    }

    /// Sets the congestion (occupancy) rate.
    pub fn occupancy_rate(mut self, rate: Cost) -> Self {
        nonnegative(rate.value(), "occupancy rate").unwrap_or_else(|e| panic!("{e}"));
        self.occupancy_rate = rate;
        self
    }

    /// Sets the driving speed.
    pub fn speed(mut self, speed: MetersPerSecond) -> Self {
        positive(speed.value(), "speed").unwrap_or_else(|e| panic!("{e}"));
        self.speed = speed;
        self
    }

    /// Sets the WPT link model.
    pub fn wpt(mut self, wpt: WptModel) -> Self {
        self.wpt = wpt;
        self
    }

    /// Caps the energy one hire can deliver.
    ///
    /// # Panics
    ///
    /// Panics if the budget is non-positive or non-finite.
    pub fn energy_budget(mut self, budget: Joules) -> Self {
        positive(budget.value(), "energy budget").unwrap_or_else(|e| panic!("{e}"));
        self.energy_budget = Some(budget);
        self
    }

    /// Finalizes the charger.
    pub fn build(self) -> Charger {
        Charger {
            id: self.id,
            position: self.position,
            base_fee: self.base_fee,
            travel_cost_rate: self.travel_cost_rate,
            energy_price: self.energy_price,
            occupancy_rate: self.occupancy_rate,
            speed: self.speed,
            wpt: self.wpt,
            energy_budget: self.energy_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_and_index() {
        assert_eq!(DeviceId::new(3).to_string(), "d3");
        assert_eq!(ChargerId::new(7).to_string(), "c7");
        assert_eq!(DeviceId::new(3).index(), 3);
        assert_eq!(ChargerId::new(7).value(), 7);
    }

    #[test]
    fn device_builder_overrides() {
        let d = Device::builder(DeviceId::new(1), Point::new(5.0, 5.0))
            .demand(Joules::new(123.0))
            .move_cost_rate(CostPerMeter::new(0.5))
            .speed(MetersPerSecond::new(2.5))
            .build();
        assert_eq!(d.id(), DeviceId::new(1));
        assert_eq!(d.demand(), Joules::new(123.0));
        assert_eq!(d.move_cost_rate(), CostPerMeter::new(0.5));
        assert_eq!(d.speed(), MetersPerSecond::new(2.5));
        assert_eq!(d.position(), Point::new(5.0, 5.0));
    }

    #[test]
    fn device_defaults_are_sane() {
        let d = Device::builder(DeviceId::new(0), Point::ORIGIN).build();
        assert!(d.demand() > Joules::ZERO);
        assert!(d.battery().level() > Joules::ZERO);
        assert!(d.move_cost_rate() > CostPerMeter::ZERO);
    }

    #[test]
    fn charger_builder_overrides() {
        let c = Charger::builder(ChargerId::new(2), Point::new(1.0, 1.0))
            .base_fee(Cost::new(99.0))
            .energy_price(CostPerJoule::new(0.01))
            .occupancy_rate(Cost::new(1.0))
            .travel_cost_rate(CostPerMeter::new(0.2))
            .speed(MetersPerSecond::new(3.0))
            .build();
        assert_eq!(c.base_fee(), Cost::new(99.0));
        assert_eq!(c.energy_price(), CostPerJoule::new(0.01));
        assert_eq!(c.occupancy_rate(), Cost::new(1.0));
        assert_eq!(c.travel_cost_rate(), CostPerMeter::new(0.2));
        assert_eq!(c.speed(), MetersPerSecond::new(3.0));
    }

    #[test]
    #[should_panic(expected = "demand must be finite and nonnegative")]
    fn device_rejects_negative_demand() {
        let _ = Device::builder(DeviceId::new(0), Point::ORIGIN).demand(Joules::new(-1.0));
    }

    #[test]
    #[should_panic(expected = "base fee must be finite and nonnegative")]
    fn charger_rejects_nan_fee() {
        let _ = Charger::builder(ChargerId::new(0), Point::ORIGIN).base_fee(Cost::new(f64::NAN));
    }

    #[test]
    fn entities_serde_round_trip() {
        let d = Device::builder(DeviceId::new(4), Point::new(2.0, 3.0)).build();
        let json = serde_json::to_string(&d).unwrap();
        let back: Device = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);

        let c = Charger::builder(ChargerId::new(1), Point::new(9.0, 9.0)).build();
        let json = serde_json::to_string(&c).unwrap();
        let back: Charger = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn validate_catches_what_deserialization_lets_through() {
        let d = Device::builder(DeviceId::new(4), Point::new(2.0, 3.0)).build();
        assert_eq!(d.validate(), Ok(()));
        let json = serde_json::to_string(&d).unwrap();
        let overfull = json.replace("\"level\":3000.0", "\"level\":25000.0");
        assert_ne!(overfull, json);
        let back: Device = serde_json::from_str(&overfull).unwrap();
        assert!(back.validate().unwrap_err().contains("battery level"));

        let c = Charger::builder(ChargerId::new(1), Point::new(9.0, 9.0)).build();
        assert_eq!(c.validate(), Ok(()));
        let json = serde_json::to_string(&c).unwrap();
        let free_energy = json.replace("\"energy_price\":0.002", "\"energy_price\":-3.0");
        assert_ne!(free_energy, json);
        let back: Charger = serde_json::from_str(&free_energy).unwrap();
        assert_eq!(
            back.validate(),
            Err("energy price must be finite and nonnegative".to_string())
        );
        let dead_coil = json.replace("\"alpha\":4.32", "\"alpha\":-4.32");
        assert_ne!(dead_coil, json);
        let back: Charger = serde_json::from_str(&dead_coil).unwrap();
        assert_eq!(back.validate(), Err("wpt alpha must be > 0".to_string()));
    }
}
