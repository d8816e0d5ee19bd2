//! Strongly-typed physical and economic quantities.
//!
//! The scheduling stack mixes four dimensions that are all represented by
//! `f64` at the machine level: distances, energies, times and monetary cost.
//! Mixing them up silently is the classic source of wrong-but-plausible
//! simulation results, so each gets a newtype (C-NEWTYPE) with only the
//! physically meaningful arithmetic implemented.
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::units::{Meters, Joules, Cost, CostPerMeter};
//!
//! let d = Meters::new(120.0);
//! let rate = CostPerMeter::new(0.05);
//! let move_cost: Cost = rate * d;
//! assert!((move_cost.value() - 6.0).abs() < 1e-12);
//!
//! let w = Joules::new(3_000.0);
//! assert_eq!(w + Joules::new(500.0), Joules::new(3_500.0));
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw `f64` value.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (neither NaN nor infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Total ordering over the underlying `f64` (IEEE `total_cmp`).
            ///
            /// Useful for sorting and max-selection where `PartialOrd` is
            /// inconvenient. NaNs order after all other values.
            #[inline]
            pub fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        // Folds from +0.0: std's `f64` sum starts from -0.0, which makes an
        // empty sum print as "-0.00".
        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.fold(0.0, |acc, q| acc + q.0))
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.fold(0.0, |acc, q| acc + q.0))
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }
    };
}

quantity!(
    /// A distance in meters.
    Meters,
    "m"
);
quantity!(
    /// An amount of energy in Joules.
    Joules,
    "J"
);
quantity!(
    /// Power in Watts (Joules per second).
    Watts,
    "W"
);
quantity!(
    /// A duration in seconds.
    Seconds,
    "s"
);
quantity!(
    /// A monetary cost in abstract currency units.
    Cost,
    "$"
);
quantity!(
    /// Speed in meters per second.
    MetersPerSecond,
    "m/s"
);
quantity!(
    /// A cost rate per meter travelled.
    CostPerMeter,
    "$/m"
);
quantity!(
    /// A price per Joule of delivered energy.
    CostPerJoule,
    "$/J"
);

// --- Cross-dimension arithmetic (only the physically meaningful products). ---

impl Mul<Meters> for CostPerMeter {
    type Output = Cost;
    #[inline]
    fn mul(self, rhs: Meters) -> Cost {
        Cost::new(self.value() * rhs.value())
    }
}

impl Mul<CostPerMeter> for Meters {
    type Output = Cost;
    #[inline]
    fn mul(self, rhs: CostPerMeter) -> Cost {
        rhs * self
    }
}

impl Mul<Joules> for CostPerJoule {
    type Output = Cost;
    #[inline]
    fn mul(self, rhs: Joules) -> Cost {
        Cost::new(self.value() * rhs.value())
    }
}

impl Mul<CostPerJoule> for Joules {
    type Output = Cost;
    #[inline]
    fn mul(self, rhs: CostPerJoule) -> Cost {
        rhs * self
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Watts> for Joules {
    /// Time needed to transfer this much energy at the given power.
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

impl Div<Seconds> for Joules {
    /// Average power over a duration.
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl Div<MetersPerSecond> for Meters {
    /// Travel time at constant speed.
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecond) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

impl Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters::new(self.value() * rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_assign() {
        let mut d = Meters::new(10.0);
        d += Meters::new(5.0);
        assert_eq!(d, Meters::new(15.0));
        d -= Meters::new(20.0);
        assert_eq!(d, Meters::new(-5.0));
        assert_eq!(-d, Meters::new(5.0));
        assert_eq!(d.abs(), Meters::new(5.0));
    }

    #[test]
    fn scalar_mul_div() {
        assert_eq!(Joules::new(6.0) * 2.0, Joules::new(12.0));
        assert_eq!(2.0 * Joules::new(6.0), Joules::new(12.0));
        assert_eq!(Joules::new(6.0) / 2.0, Joules::new(3.0));
        let ratio: f64 = Joules::new(6.0) / Joules::new(3.0);
        assert_eq!(ratio, 2.0);
    }

    #[test]
    fn cross_dimension_products() {
        let c: Cost = CostPerMeter::new(0.5) * Meters::new(10.0);
        assert_eq!(c, Cost::new(5.0));
        let c2: Cost = Meters::new(10.0) * CostPerMeter::new(0.5);
        assert_eq!(c2, c);
        let e: Joules = Watts::new(5.0) * Seconds::new(4.0);
        assert_eq!(e, Joules::new(20.0));
        let t: Seconds = Joules::new(20.0) / Watts::new(5.0);
        assert_eq!(t, Seconds::new(4.0));
        let p: Watts = Joules::new(20.0) / Seconds::new(4.0);
        assert_eq!(p, Watts::new(5.0));
        let travel: Seconds = Meters::new(30.0) / MetersPerSecond::new(3.0);
        assert_eq!(travel, Seconds::new(10.0));
        let dist: Meters = MetersPerSecond::new(3.0) * Seconds::new(10.0);
        assert_eq!(dist, Meters::new(30.0));
        let bill: Cost = Joules::new(100.0) * CostPerJoule::new(0.01);
        assert_eq!(bill, Cost::new(1.0));
    }

    #[test]
    fn sum_iterators() {
        let owned: Cost = vec![Cost::new(1.0), Cost::new(2.5)].into_iter().sum();
        assert_eq!(owned, Cost::new(3.5));
        let v = [Cost::new(1.0), Cost::new(2.5)];
        let borrowed: Cost = v.iter().sum();
        assert_eq!(borrowed, Cost::new(3.5));
        // An empty sum is positive zero, owned or borrowed.
        let empty: Cost = Vec::<Cost>::new().into_iter().sum();
        assert_eq!(empty.value().to_bits(), 0.0f64.to_bits());
        let empty: Cost = [].iter().sum();
        assert_eq!(empty.value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn min_max_clamp() {
        let a = Seconds::new(2.0);
        let b = Seconds::new(3.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(
            Seconds::new(10.0).clamp(Seconds::ZERO, b),
            b,
            "clamp to upper bound"
        );
    }

    #[test]
    fn total_cmp_sorts_nan_last() {
        let mut v = [Cost::new(f64::NAN), Cost::new(1.0), Cost::new(-2.0)];
        v.sort_by(Cost::total_cmp);
        assert_eq!(v[0], Cost::new(-2.0));
        assert_eq!(v[1], Cost::new(1.0));
        assert!(v[2].value().is_nan());
    }

    #[test]
    fn display_formats_unit() {
        assert_eq!(format!("{:.2}", Meters::new(1.239)), "1.24 m");
        assert_eq!(format!("{}", Cost::new(2.5)), "2.5 $");
    }

    #[test]
    fn serde_transparent_round_trip() {
        let j = serde_json::to_string(&Joules::new(42.5)).unwrap();
        assert_eq!(j, "42.5");
        let back: Joules = serde_json::from_str(&j).unwrap();
        assert_eq!(back, Joules::new(42.5));
    }
}
