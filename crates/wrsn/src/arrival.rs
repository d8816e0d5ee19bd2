//! Seeded arrival processes for the online charging service.
//!
//! The one-shot CCS problem assumes every device needs charging *now*; a
//! live fleet instead emits charging requests over time. This module
//! generates those request streams: a homogeneous Poisson process plus
//! two structured profiles (spatial hotspots and periodic bursts), all
//! driven by a seeded [`ChaCha8Rng`] so a given `(seed, profile)` pair
//! always yields the identical stream — experiments and benches replay
//! bit-for-bit.
//!
//! Every request carries an absolute *deadline*: the virtual time by
//! which its charging must have completed. Deadlines are `arrival +
//! slack` with a fixed per-stream slack, the knob that separates easy
//! streams (generous slack, zero misses expected) from adversarial ones
//! (slack too tight for any dispatcher).
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::arrival::{ArrivalGenerator, ArrivalProfile};
//!
//! let stream = ArrivalGenerator::new(7)
//!     .rate(0.5)
//!     .horizon(100.0)
//!     .slack(400.0)
//!     .generate(20);
//! assert!(!stream.is_empty());
//! assert!(stream.windows(2).all(|w| w[0].arrival <= w[1].arrival));
//! ```

use crate::entities::DeviceId;
use crate::units::Seconds;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One charging request of the online stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargeRequest {
    /// The requesting device (an id of the scenario the stream targets).
    pub device: DeviceId,
    /// Virtual arrival time.
    pub arrival: Seconds,
    /// Absolute virtual time by which charging must have *completed*; a
    /// request still unserved at this instant is a deadline miss.
    pub deadline: Seconds,
}

/// Shape of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProfile {
    /// Homogeneous Poisson arrivals, uniform across devices.
    Poisson,
    /// Poisson arrivals concentrated on a device subset: the first
    /// `ceil(fraction * n)` devices (the hotspot) generate `share` of
    /// the traffic; the rest split the remainder uniformly.
    Hotspot {
        /// Fraction of devices in the hotspot, clamped to `(0, 1]`.
        fraction: f64,
        /// Fraction of requests the hotspot generates, clamped to `[0, 1]`.
        share: f64,
    },
    /// Periodic bursts: within the first `width` seconds of every
    /// `period`-second window the rate is multiplied by `factor`;
    /// outside it the base rate applies. Device choice stays uniform.
    Burst {
        /// Window length in seconds (must be positive).
        period: f64,
        /// Burst length at the head of each window, in seconds.
        width: f64,
        /// Rate multiplier inside the burst (must be >= 1).
        factor: f64,
    },
}

/// Builder-style generator of seeded request streams.
#[derive(Debug, Clone)]
pub struct ArrivalGenerator {
    seed: u64,
    rate: f64,
    horizon: f64,
    slack: f64,
    profile: ArrivalProfile,
}

impl ArrivalGenerator {
    /// A generator with defaults: 0.2 requests/s over a 200 s horizon,
    /// 300 s of deadline slack, homogeneous Poisson arrivals.
    pub fn new(seed: u64) -> Self {
        ArrivalGenerator {
            seed,
            rate: 0.2,
            horizon: 200.0,
            slack: 300.0,
            profile: ArrivalProfile::Poisson,
        }
    }

    /// Mean fleet-wide arrival rate in requests per second (finite and
    /// positive; see [`ArrivalGenerator::validate`]).
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Length of the arrival window in seconds (requests only *arrive*
    /// inside it; service may run past it). Finite and positive.
    pub fn horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Relative deadline: each request's deadline is `arrival + slack`.
    /// Finite and positive.
    pub fn slack(mut self, slack: f64) -> Self {
        self.slack = slack;
        self
    }

    /// The arrival profile (see [`ArrivalProfile`]).
    pub fn profile(mut self, profile: ArrivalProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Checks the parameters: `rate`, `horizon` and `slack` finite and
    /// positive, a burst `period` finite and positive with `factor >= 1`,
    /// a hotspot `fraction` in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// The first parameter out of range, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        // Parameters the profile does not have take a value that passes.
        let (period, factor, fraction) = match self.profile {
            ArrivalProfile::Poisson => (1.0, 1.0, 1.0),
            ArrivalProfile::Hotspot { fraction, .. } => (1.0, 1.0, fraction),
            ArrivalProfile::Burst { period, factor, .. } => (period, factor, 1.0),
        };
        let checks = [
            (positive(self.rate), "rate must be positive"),
            (positive(self.horizon), "horizon must be positive"),
            (positive(self.slack), "slack must be positive"),
            (positive(period), "burst period must be positive"),
            (
                factor.is_finite() && factor >= 1.0,
                "burst factor must be >= 1",
            ),
            (
                fraction > 0.0 && fraction <= 1.0,
                "hotspot fraction must be in (0, 1]",
            ),
        ];
        checks
            .into_iter()
            .find(|(ok, _)| !ok)
            .map_or(Ok(()), |(_, msg)| Err(msg.to_string()))
    }

    /// Generates the stream for a fleet of `num_devices` devices, sorted
    /// by arrival time. Deterministic in `(seed, parameters)`. A fleet of
    /// zero devices requests nothing.
    ///
    /// Uses Lewis–Shedler thinning against the profile's peak rate, so
    /// the burst profile is an exact inhomogeneous Poisson process, not
    /// an approximation.
    ///
    /// # Panics
    ///
    /// Panics if a parameter fails [`ArrivalGenerator::validate`].
    pub fn generate(&self, num_devices: usize) -> Vec<ChargeRequest> {
        if let Err(msg) = self.validate() {
            panic!("{msg}");
        }
        if num_devices == 0 {
            return Vec::new();
        }
        let peak = match self.profile {
            ArrivalProfile::Poisson | ArrivalProfile::Hotspot { .. } => self.rate,
            ArrivalProfile::Burst { factor, .. } => self.rate * factor,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival at the peak rate via inverse CDF.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / peak;
            if t >= self.horizon {
                break;
            }
            // Thin down to the instantaneous rate.
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept * peak >= self.instantaneous_rate(t) {
                continue;
            }
            out.push(ChargeRequest {
                device: self.pick_device(&mut rng, num_devices),
                arrival: Seconds::new(t),
                deadline: Seconds::new(t + self.slack),
            });
        }
        out
    }

    /// The profile's rate at virtual time `t`.
    fn instantaneous_rate(&self, t: f64) -> f64 {
        match self.profile {
            ArrivalProfile::Poisson | ArrivalProfile::Hotspot { .. } => self.rate,
            ArrivalProfile::Burst {
                period,
                width,
                factor,
            } => {
                if t % period < width {
                    self.rate * factor
                } else {
                    self.rate
                }
            }
        }
    }

    /// Draws the requesting device per the profile's spatial bias.
    fn pick_device(&self, rng: &mut ChaCha8Rng, n: usize) -> DeviceId {
        let index = match self.profile {
            ArrivalProfile::Poisson | ArrivalProfile::Burst { .. } => rng.gen_range(0..n),
            ArrivalProfile::Hotspot { fraction, share } => {
                let hot = ((fraction * n as f64).ceil() as usize).clamp(1, n);
                let p: f64 = rng.gen_range(0.0..1.0);
                if p < share.clamp(0.0, 1.0) || hot == n {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(hot..n)
                }
            }
        };
        DeviceId::new(index as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let make = || {
            ArrivalGenerator::new(42)
                .rate(1.0)
                .horizon(50.0)
                .slack(60.0)
                .generate(10)
        };
        assert_eq!(make(), make());
        let other = ArrivalGenerator::new(43)
            .rate(1.0)
            .horizon(50.0)
            .slack(60.0)
            .generate(10);
        assert_ne!(make(), other, "different seeds must differ");
    }

    #[test]
    fn arrivals_are_sorted_and_inside_the_horizon() {
        let stream = ArrivalGenerator::new(3)
            .rate(2.0)
            .horizon(30.0)
            .slack(10.0)
            .generate(5);
        assert!(stream.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for req in &stream {
            assert!(req.arrival.value() < 30.0);
            assert_eq!(req.deadline.value(), req.arrival.value() + 10.0);
            assert!(req.device.index() < 5);
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let stream = ArrivalGenerator::new(9)
            .rate(5.0)
            .horizon(200.0)
            .slack(50.0)
            .profile(ArrivalProfile::Hotspot {
                fraction: 0.2,
                share: 0.9,
            })
            .generate(20);
        let hot = stream.iter().filter(|r| r.device.index() < 4).count();
        assert!(
            hot * 2 > stream.len(),
            "hotspot (20% of devices) must draw the majority of {} requests, got {hot}",
            stream.len()
        );
    }

    #[test]
    fn bursts_raise_the_in_window_density() {
        let stream = ArrivalGenerator::new(11)
            .rate(0.5)
            .horizon(400.0)
            .slack(50.0)
            .profile(ArrivalProfile::Burst {
                period: 100.0,
                width: 10.0,
                factor: 10.0,
            })
            .generate(8);
        let in_burst = stream
            .iter()
            .filter(|r| r.arrival.value() % 100.0 < 10.0)
            .count();
        // 10% of the horizon carries 10x the rate: expect the majority
        // of arrivals inside the bursts.
        assert!(
            in_burst * 2 > stream.len(),
            "bursts must dominate: {in_burst} of {}",
            stream.len()
        );
    }
}
