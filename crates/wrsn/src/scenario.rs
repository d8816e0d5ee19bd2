//! Deployment scenarios and seeded workload generation.
//!
//! A [`Scenario`] is the immutable world state handed to the schedulers: a
//! field, a set of devices and a set of chargers. [`ScenarioGenerator`]
//! produces randomized scenarios deterministically from a seed, with all
//! entity parameters drawn from configurable ranges — this is the workload
//! generator behind every simulation figure.
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::scenario::ScenarioGenerator;
//!
//! let scenario = ScenarioGenerator::new(42)
//!     .devices(20)
//!     .chargers(5)
//!     .field_side(200.0)
//!     .generate();
//! assert_eq!(scenario.devices().len(), 20);
//! assert_eq!(scenario.chargers().len(), 5);
//! // Deterministic per seed:
//! let again = ScenarioGenerator::new(42).devices(20).chargers(5).field_side(200.0).generate();
//! assert_eq!(scenario, again);
//! ```

use crate::energy::Battery;
use crate::entities::{Charger, ChargerId, Device, DeviceId};
use crate::geometry::{Point, Rect};
use crate::units::{Cost, CostPerJoule, CostPerMeter, Joules, MetersPerSecond};
use crate::wpt::WptModel;
use rand::distributions::{Distribution, Uniform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The immutable world handed to schedulers: field, devices, chargers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    field: Rect,
    devices: Vec<Device>,
    chargers: Vec<Charger>,
}

/// Error returned by [`Scenario::new`] on malformed input.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A device id did not equal its index (`devices[i].id() != i`).
    NonDenseDeviceIds {
        /// Index at which the mismatch occurred.
        index: usize,
    },
    /// A charger id did not equal its index.
    NonDenseChargerIds {
        /// Index at which the mismatch occurred.
        index: usize,
    },
    /// An entity was placed outside the field.
    OutOfField {
        /// Human-readable entity name (e.g. `d3`).
        entity: String,
    },
    /// The scenario had no devices or no chargers.
    Empty,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NonDenseDeviceIds { index } => {
                write!(f, "device at index {index} has non-dense id")
            }
            ScenarioError::NonDenseChargerIds { index } => {
                write!(f, "charger at index {index} has non-dense id")
            }
            ScenarioError::OutOfField { entity } => {
                write!(f, "entity {entity} placed outside the field")
            }
            ScenarioError::Empty => write!(f, "scenario needs at least one device and one charger"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Assembles a scenario, validating id density and field containment.
    ///
    /// # Errors
    ///
    /// See [`ScenarioError`]. Ids must be dense (`devices[i].id() == i`) so
    /// schedulers can use ids as array indices.
    pub fn new(
        field: Rect,
        devices: Vec<Device>,
        chargers: Vec<Charger>,
    ) -> Result<Self, ScenarioError> {
        if devices.is_empty() || chargers.is_empty() {
            return Err(ScenarioError::Empty);
        }
        for (i, d) in devices.iter().enumerate() {
            if d.id().index() != i {
                return Err(ScenarioError::NonDenseDeviceIds { index: i });
            }
            if !field.contains(&d.position()) {
                return Err(ScenarioError::OutOfField {
                    entity: d.id().to_string(),
                });
            }
        }
        for (j, c) in chargers.iter().enumerate() {
            if c.id().index() != j {
                return Err(ScenarioError::NonDenseChargerIds { index: j });
            }
            if !field.contains(&c.position()) {
                return Err(ScenarioError::OutOfField {
                    entity: c.id().to_string(),
                });
            }
        }
        Ok(Scenario {
            field,
            devices,
            chargers,
        })
    }

    /// The deployment field.
    #[inline]
    pub fn field(&self) -> Rect {
        self.field
    }

    /// All devices, indexed by `DeviceId::index()`.
    #[inline]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// All chargers, indexed by `ChargerId::index()`.
    #[inline]
    pub fn chargers(&self) -> &[Charger] {
        &self.chargers
    }

    /// Looks up a device by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not part of this scenario.
    #[inline]
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Looks up a charger by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not part of this scenario.
    #[inline]
    pub fn charger(&self, id: ChargerId) -> &Charger {
        &self.chargers[id.index()]
    }

    /// Iterator over all device ids.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.devices.len() as u32).map(DeviceId::new)
    }

    /// Iterator over all charger ids.
    pub fn charger_ids(&self) -> impl Iterator<Item = ChargerId> + '_ {
        (0..self.chargers.len() as u32).map(ChargerId::new)
    }

    /// Total energy demanded by all devices this round.
    pub fn total_demand(&self) -> Joules {
        self.devices.iter().map(|d| d.demand()).sum()
    }

    /// Checks the field's corners ([`Rect::new`]) and every entity's
    /// invariants ([`Device::validate`], [`Charger::validate`]), which a
    /// deserialized scenario skips; run it on every scenario read from
    /// outside the program. The cost model and the gathering solver's
    /// bounds need finite, nonnegative prices and rates.
    ///
    /// # Errors
    ///
    /// The first broken invariant, prefixed with its owner (`field: …`,
    /// `d3: …`).
    pub fn validate(&self) -> Result<(), String> {
        Rect::try_new(self.field.min, self.field.max).map_err(|e| format!("field: {e}"))?;
        for d in &self.devices {
            d.validate().map_err(|e| format!("{}: {e}", d.id()))?;
        }
        for c in &self.chargers {
            c.validate().map_err(|e| format!("{}: {e}", c.id()))?;
        }
        Ok(())
    }
}

/// An inclusive range `[lo, hi]` a parameter is sampled from uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParamRange {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl ParamRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "range lower bound {lo} exceeds upper bound {hi}");
        ParamRange { lo, hi }
    }

    /// A degenerate range that always yields `v`.
    pub fn fixed(v: f64) -> Self {
        ParamRange::new(v, v)
    }

    /// Samples uniformly from the range.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            Uniform::new_inclusive(self.lo, self.hi).sample(rng)
        }
    }
}

/// Spatial placement of generated entities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Uniformly at random over the field.
    Uniform,
    /// Gaussian clusters: `count` cluster centers drawn uniformly, entities
    /// assigned round-robin with isotropic spread `sigma` (meters), clipped
    /// to the field.
    Clustered {
        /// Number of cluster centers.
        count: usize,
        /// Standard deviation of the per-entity offset, meters.
        sigma: f64,
    },
}

/// Deterministic, seeded scenario generator.
///
/// Defaults match the simulation parameter table reconstructed in
/// `DESIGN.md` (see experiment `table1`). Builder methods override
/// individual knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioGenerator {
    seed: u64,
    n_devices: usize,
    n_chargers: usize,
    field: Rect,
    device_placement: Placement,
    charger_placement: Placement,
    demand: ParamRange,
    battery_capacity: ParamRange,
    device_move_cost: ParamRange,
    device_speed: ParamRange,
    base_fee: ParamRange,
    charger_travel_cost: ParamRange,
    energy_price: ParamRange,
    occupancy_rate: ParamRange,
    charger_speed: ParamRange,
    charger_energy_budget: Option<ParamRange>,
}

impl ScenarioGenerator {
    /// Creates a generator with the default parameter table and the given seed.
    pub fn new(seed: u64) -> Self {
        ScenarioGenerator {
            seed,
            n_devices: 50,
            n_chargers: 10,
            field: Rect::square(300.0),
            device_placement: Placement::Uniform,
            charger_placement: Placement::Uniform,
            demand: ParamRange::new(2_000.0, 8_000.0),
            battery_capacity: ParamRange::new(10_000.0, 10_000.0),
            device_move_cost: ParamRange::new(0.04, 0.10),
            device_speed: ParamRange::new(0.5, 1.5),
            base_fee: ParamRange::new(10.0, 22.0),
            charger_travel_cost: ParamRange::new(0.08, 0.15),
            energy_price: ParamRange::new(0.0030, 0.0050),
            occupancy_rate: ParamRange::new(2.0, 6.0),
            charger_speed: ParamRange::new(1.5, 3.0),
            charger_energy_budget: None,
        }
    }

    /// Number of devices to generate (at least one; see
    /// [`ScenarioGenerator::validate`]).
    pub fn devices(mut self, n: usize) -> Self {
        self.n_devices = n;
        self
    }

    /// Number of chargers to generate (at least one).
    pub fn chargers(mut self, m: usize) -> Self {
        self.n_chargers = m;
        self
    }

    /// Square field of side `side` meters (finite and nonnegative).
    pub fn field_side(mut self, side: f64) -> Self {
        self.field = Rect {
            min: Point::ORIGIN,
            max: Point::new(side, side),
        };
        self
    }

    /// Arbitrary rectangular field.
    pub fn field(mut self, field: Rect) -> Self {
        self.field = field;
        self
    }

    /// Device placement distribution.
    pub fn device_placement(mut self, p: Placement) -> Self {
        self.device_placement = p;
        self
    }

    /// Charger placement distribution.
    pub fn charger_placement(mut self, p: Placement) -> Self {
        self.charger_placement = p;
        self
    }

    /// Energy demand range (Joules).
    pub fn demand_range(mut self, r: ParamRange) -> Self {
        self.demand = r;
        self
    }

    /// Device movement cost range ($/m).
    pub fn device_move_cost_range(mut self, r: ParamRange) -> Self {
        self.device_move_cost = r;
        self
    }

    /// Charger base service fee range ($).
    pub fn base_fee_range(mut self, r: ParamRange) -> Self {
        self.base_fee = r;
        self
    }

    /// Charger travel cost range ($/m).
    pub fn charger_travel_cost_range(mut self, r: ParamRange) -> Self {
        self.charger_travel_cost = r;
        self
    }

    /// Energy price range ($/J).
    pub fn energy_price_range(mut self, r: ParamRange) -> Self {
        self.energy_price = r;
        self
    }

    /// Occupancy (congestion) rate range ($ per sqrt-member).
    pub fn occupancy_rate_range(mut self, r: ParamRange) -> Self {
        self.occupancy_rate = r;
        self
    }

    /// Per-hire charger energy budget range (Joules); `None` (the default)
    /// means unlimited chargers.
    ///
    /// # Panics
    ///
    /// Panics if the range admits non-positive budgets.
    pub fn charger_energy_budget_range(mut self, r: ParamRange) -> Self {
        assert!(r.lo > 0.0, "energy budgets must be positive");
        self.charger_energy_budget = Some(r);
        self
    }

    /// The seed this generator uses.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Checks the parameters: at least one device and one charger, and a
    /// field with finite corners, `min` coordinate-wise `<= max`.
    ///
    /// # Errors
    ///
    /// The first parameter out of range, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_devices == 0 {
            return Err("need at least one device".to_string());
        }
        if self.n_chargers == 0 {
            return Err("need at least one charger".to_string());
        }
        Rect::try_new(self.field.min, self.field.max).map(|_| ())
    }

    /// Generates the scenario. Deterministic: equal generators (including
    /// seed) produce equal scenarios.
    ///
    /// # Panics
    ///
    /// Panics if a parameter fails [`ScenarioGenerator::validate`].
    pub fn generate(&self) -> Scenario {
        if let Err(msg) = self.validate() {
            panic!("{msg}");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let device_positions =
            place_points(&mut rng, self.n_devices, self.field, self.device_placement);
        let charger_positions = place_points(
            &mut rng,
            self.n_chargers,
            self.field,
            self.charger_placement,
        );

        let devices = device_positions
            .into_iter()
            .enumerate()
            .map(|(i, pos)| {
                let capacity = Joules::new(self.battery_capacity.sample(&mut rng));
                let demand = Joules::new(self.demand.sample(&mut rng))
                    .min(capacity)
                    .max(Joules::ZERO);
                let level = (capacity - demand).max(Joules::ZERO);
                Device::builder(DeviceId::new(i as u32), pos)
                    .battery(
                        Battery::new(capacity, level)
                            .expect("generated battery parameters are valid"),
                    )
                    .demand(demand)
                    .move_cost_rate(CostPerMeter::new(self.device_move_cost.sample(&mut rng)))
                    .speed(MetersPerSecond::new(self.device_speed.sample(&mut rng)))
                    .build()
            })
            .collect();

        let chargers = charger_positions
            .into_iter()
            .enumerate()
            .map(|(j, pos)| {
                let mut b = Charger::builder(ChargerId::new(j as u32), pos)
                    .base_fee(Cost::new(self.base_fee.sample(&mut rng)))
                    .travel_cost_rate(CostPerMeter::new(self.charger_travel_cost.sample(&mut rng)))
                    .energy_price(CostPerJoule::new(self.energy_price.sample(&mut rng)))
                    .occupancy_rate(Cost::new(self.occupancy_rate.sample(&mut rng)))
                    .speed(MetersPerSecond::new(self.charger_speed.sample(&mut rng)))
                    .wpt(WptModel::default());
                if let Some(range) = &self.charger_energy_budget {
                    b = b.energy_budget(Joules::new(range.sample(&mut rng)));
                }
                b.build()
            })
            .collect();

        Scenario::new(self.field, devices, chargers)
            .expect("generator output is valid by construction")
    }
}

fn place_points<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    field: Rect,
    placement: Placement,
) -> Vec<Point> {
    match placement {
        Placement::Uniform => {
            let ux = Uniform::new_inclusive(field.min.x, field.max.x);
            let uy = Uniform::new_inclusive(field.min.y, field.max.y);
            (0..n)
                .map(|_| Point::new(ux.sample(rng), uy.sample(rng)))
                .collect()
        }
        Placement::Clustered { count, sigma } => {
            assert!(count >= 1, "need at least one cluster");
            assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
            let ux = Uniform::new_inclusive(field.min.x, field.max.x);
            let uy = Uniform::new_inclusive(field.min.y, field.max.y);
            let centers: Vec<Point> = (0..count)
                .map(|_| Point::new(ux.sample(rng), uy.sample(rng)))
                .collect();
            (0..n)
                .map(|i| {
                    let c = centers[i % count];
                    // Box–Muller without extra deps.
                    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let r = (-2.0 * u1.ln()).sqrt() * sigma;
                    let theta = 2.0 * std::f64::consts::PI * u2;
                    field.clamp(Point::new(c.x + r * theta.cos(), c.y + r * theta.sin()))
                })
                .collect()
        }
    }
}

/// The seeded large-`n` scenario preset behind the scaling-curve suite
/// (`bench_gate --suite scaling`, the grid-equivalence property tests): `n` devices in
/// Gaussian clusters over a field whose side grows with `sqrt(n)` (constant
/// spatial density — the paper's setup scaled up, not compressed), one
/// charger per ~50 devices spread uniformly. Deterministic: the same
/// `(seed, n)` always generates the same scenario, so benchmark cells and
/// CI runs are comparable across machines.
pub fn scale_preset(seed: u64, n_devices: usize) -> ScenarioGenerator {
    let side = 300.0 * (n_devices as f64 / 50.0).sqrt().max(1.0);
    ScenarioGenerator::new(seed)
        .devices(n_devices)
        .chargers((n_devices / 50).max(8))
        .field_side(side)
        .device_placement(Placement::Clustered {
            count: (n_devices / 100).max(4),
            sigma: side / 40.0,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = ScenarioGenerator::new(7).devices(15).chargers(4).generate();
        let b = ScenarioGenerator::new(7).devices(15).chargers(4).generate();
        assert_eq!(a, b);
        let c = ScenarioGenerator::new(8).devices(15).chargers(4).generate();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generated_entities_are_in_field_with_dense_ids() {
        let s = ScenarioGenerator::new(1).devices(30).chargers(6).generate();
        for (i, d) in s.devices().iter().enumerate() {
            assert_eq!(d.id().index(), i);
            assert!(s.field().contains(&d.position()));
            assert!(d.demand() >= Joules::ZERO);
            assert!(d.battery().level() + d.demand() <= d.battery().capacity() + Joules::new(1e-9));
        }
        for (j, c) in s.chargers().iter().enumerate() {
            assert_eq!(c.id().index(), j);
            assert!(s.field().contains(&c.position()));
        }
    }

    #[test]
    fn clustered_placement_stays_in_field() {
        let s = ScenarioGenerator::new(3)
            .devices(40)
            .chargers(5)
            .field_side(100.0)
            .device_placement(Placement::Clustered {
                count: 3,
                sigma: 15.0,
            })
            .generate();
        for d in s.devices() {
            assert!(s.field().contains(&d.position()));
        }
    }

    #[test]
    fn scenario_new_validates() {
        let field = Rect::square(10.0);
        let dev = |i: u32| Device::builder(DeviceId::new(i), Point::new(5.0, 5.0)).build();
        let ch = |j: u32| Charger::builder(ChargerId::new(j), Point::new(5.0, 5.0)).build();

        assert_eq!(
            Scenario::new(field, vec![], vec![ch(0)]).unwrap_err(),
            ScenarioError::Empty
        );
        assert_eq!(
            Scenario::new(field, vec![dev(1)], vec![ch(0)]).unwrap_err(),
            ScenarioError::NonDenseDeviceIds { index: 0 }
        );
        assert_eq!(
            Scenario::new(field, vec![dev(0)], vec![ch(5)]).unwrap_err(),
            ScenarioError::NonDenseChargerIds { index: 0 }
        );
        let outside = Device::builder(DeviceId::new(0), Point::new(50.0, 5.0)).build();
        assert!(matches!(
            Scenario::new(field, vec![outside], vec![ch(0)]).unwrap_err(),
            ScenarioError::OutOfField { .. }
        ));
        assert!(Scenario::new(field, vec![dev(0)], vec![ch(0)]).is_ok());
    }

    #[test]
    fn scenario_lookups_and_totals() {
        let s = ScenarioGenerator::new(2).devices(5).chargers(2).generate();
        assert_eq!(s.device(DeviceId::new(3)).id(), DeviceId::new(3));
        assert_eq!(s.charger(ChargerId::new(1)).id(), ChargerId::new(1));
        assert_eq!(s.device_ids().count(), 5);
        assert_eq!(s.charger_ids().count(), 2);
        let manual: Joules = s.devices().iter().map(|d| d.demand()).sum();
        assert_eq!(s.total_demand(), manual);
    }

    #[test]
    fn scenario_serde_round_trip() {
        let s = ScenarioGenerator::new(11).devices(8).chargers(3).generate();
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn validate_checks_the_field_and_every_entity() {
        let s = ScenarioGenerator::new(11).devices(3).chargers(2).generate();
        assert_eq!(s.validate(), Ok(()));
        let json = serde_json::to_string(&s).unwrap();
        let inverted = json.replace("\"min\":{\"x\":0.0", "\"min\":{\"x\":400.0");
        assert_ne!(inverted, json);
        let back: Scenario = serde_json::from_str(&inverted).unwrap();
        assert!(back.validate().unwrap_err().starts_with("field: rect min"));
        let mut last = s.clone();
        last.chargers[1] = Charger::builder(ChargerId::new(1), Point::ORIGIN)
            .travel_cost_rate(CostPerMeter::new(0.123456))
            .build();
        let json = serde_json::to_string(&last).unwrap();
        let broken = json.replace("\"travel_cost_rate\":0.123456", "\"travel_cost_rate\":-1.0");
        assert_ne!(broken, json);
        let back: Scenario = serde_json::from_str(&broken).unwrap();
        assert_eq!(
            back.validate(),
            Err("c1: travel cost rate must be finite and nonnegative".to_string())
        );
    }

    #[test]
    fn param_range_fixed_and_sampling() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let fixed = ParamRange::fixed(2.5);
        for _ in 0..10 {
            assert_eq!(fixed.sample(&mut rng), 2.5);
        }
        let r = ParamRange::new(1.0, 2.0);
        for _ in 0..100 {
            let v = r.sample(&mut rng);
            assert!((1.0..=2.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "range lower bound")]
    fn param_range_rejects_inverted() {
        let _ = ParamRange::new(2.0, 1.0);
    }

    #[test]
    fn scale_preset_is_deterministic_and_density_preserving() {
        let a = scale_preset(7, 1_000).generate();
        let b = scale_preset(7, 1_000).generate();
        assert_eq!(a, b, "same (seed, n) must generate the same scenario");
        assert_eq!(a.devices().len(), 1_000);
        assert_eq!(a.chargers().len(), 20);
        // Side scales with sqrt(n): 20x the devices of the n=50 default on
        // ~20x the area keeps the per-square-meter density constant.
        let small = scale_preset(7, 50).generate();
        let ratio = a.field().width() / small.field().width();
        assert!((ratio - 20.0f64.sqrt()).abs() < 1e-9, "ratio {ratio}");
    }
}
