//! Planar geometry: points, rectangles and the weighted geometric median.
//!
//! The gathering-point optimization at the heart of the CCS problem is a
//! weighted Fermat point problem: minimize the weighted sum of Euclidean
//! distances from a set of anchors. [`weighted_geometric_median`] solves it
//! with Weiszfeld's algorithm, with the standard fix for iterates that land
//! exactly on an anchor. [`weiszfeld`] is the loop itself. It first tests
//! Kuhn's optimality condition at two anchors (at all three when exactly
//! three carry weight), so a minimizer that sits on one of them comes back
//! exact without iterating; a three-anchor minimizer inside the triangle
//! comes back in closed form, also without iterating; and a caller can
//! abandon an iterating solve once a lower bound on the minimum settles its
//! question.
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::geometry::{Point, weighted_geometric_median};
//!
//! let anchors = [Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 2.0)];
//! let weights = [1.0, 1.0, 1.0];
//! let median = weighted_geometric_median(&anchors, &weights).expect("non-degenerate input");
//! assert!(median.point.x > 0.5 && median.point.x < 1.5);
//! ```

use crate::units::Meters;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in the 2-D deployment field, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate in meters.
    pub x: f64,
    /// Vertical coordinate in meters.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from raw coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point) -> Meters {
        Meters::new(self.distance_value(other))
    }

    /// Euclidean distance as a raw `f64` — the exact value inside
    /// [`Point::distance`], for table-building code that batches distances
    /// without the unit wrapper.
    #[inline]
    pub fn distance_value(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Squared Euclidean distance (cheaper; no sqrt).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation from `self` toward `other` by fraction `t` in `[0, 1]`.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// The unweighted centroid of a set of points.
    ///
    /// Returns `None` for an empty slice.
    pub fn centroid(points: &[Point]) -> Option<Point> {
        if points.is_empty() {
            return None;
        }
        let n = points.len() as f64;
        let (sx, sy) = points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Some(Point::new(sx / n, sy / n))
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, used as the deployment field boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum corner (lower-left).
    pub min: Point,
    /// Maximum corner (upper-right).
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` is not coordinate-wise `<= max` or if any coordinate
    /// is non-finite.
    pub fn new(min: Point, max: Point) -> Self {
        Rect::try_new(min, max).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// [`Rect::new`] returning the violated condition as a one-line message
    /// instead of panicking.
    pub(crate) fn try_new(min: Point, max: Point) -> Result<Self, String> {
        if !(min.is_finite() && max.is_finite()) {
            return Err("rect corners must be finite".to_string());
        }
        if !(min.x <= max.x && min.y <= max.y) {
            return Err(format!("rect min must be <= max: min={min}, max={max}"));
        }
        Ok(Rect { min, max })
    }

    /// A square field `[0, side] x [0, side]`.
    pub fn square(side: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Field width in meters.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Field height in meters.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Field area in square meters.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Returns `true` if the point lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps a point into the rectangle.
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Uniform grid of `k x k` candidate points covering the rectangle
    /// (including the boundary), row-major.
    ///
    /// Used as a cheap gathering-point candidate set. Returns the center for
    /// `k == 1`.
    pub fn grid(&self, k: usize) -> Vec<Point> {
        assert!(k >= 1, "grid resolution must be >= 1");
        if k == 1 {
            return vec![self.center()];
        }
        let mut out = Vec::with_capacity(k * k);
        for iy in 0..k {
            for ix in 0..k {
                let fx = ix as f64 / (k - 1) as f64;
                let fy = iy as f64 / (k - 1) as f64;
                out.push(Point::new(
                    self.min.x + fx * self.width(),
                    self.min.y + fy * self.height(),
                ));
            }
        }
        out
    }
}

impl Default for Rect {
    fn default() -> Self {
        Rect::square(100.0)
    }
}

/// Error returned by [`weighted_geometric_median`] on degenerate input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometricMedianError {
    /// The anchor set was empty.
    EmptyAnchors,
    /// Anchor and weight slices had different lengths.
    LengthMismatch {
        /// Number of anchor points supplied.
        anchors: usize,
        /// Number of weights supplied.
        weights: usize,
    },
    /// A weight was negative, NaN, or all weights were zero.
    InvalidWeights,
}

impl fmt::Display for GeometricMedianError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometricMedianError::EmptyAnchors => write!(f, "anchor set was empty"),
            GeometricMedianError::LengthMismatch { anchors, weights } => write!(
                f,
                "anchor/weight length mismatch: {anchors} anchors, {weights} weights"
            ),
            GeometricMedianError::InvalidWeights => {
                write!(f, "weights must be nonnegative, finite, and not all zero")
            }
        }
    }
}

impl std::error::Error for GeometricMedianError {}

/// Weiszfeld iteration stops when the iterate moves less than this
/// distance (meters; see [`weiszfeld`] for anchors spread below a meter).
const WEISZFELD_TOLERANCE: f64 = 1e-7;

/// An iterate this close to an anchor (meters, like the tolerance) sits on
/// it, and takes the Vardi–Zhang step.
const WEISZFELD_ON_ANCHOR: f64 = 1e-12;

/// Hard cap on Weiszfeld iterations.
const WEISZFELD_MAX_ITERATIONS: usize = 200;

/// Result of a geometric-median computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricMedian {
    /// The (approximate) minimizing point.
    pub point: Point,
    /// The weighted sum of distances at `point`.
    pub objective: f64,
    /// Number of Weiszfeld iterations performed.
    pub iterations: usize,
}

/// Weighted cost `sum_i w_i * ||p - a_i||` at a candidate point.
pub fn weighted_distance_sum(p: &Point, anchors: &[Point], weights: &[f64]) -> f64 {
    anchors
        .iter()
        .zip(weights)
        .map(|(a, w)| w * p.distance(a).value())
        .sum()
}

/// Computes the weighted geometric median (Fermat point) of `anchors` with
/// the given nonnegative `weights` using Weiszfeld's algorithm (see
/// [`weiszfeld`] for the iteration itself).
///
/// Anchors with zero weight are ignored. A minimizer that Kuhn's test finds
/// at the heaviest anchor or at the anchor nearest the weighted centroid is
/// returned exactly, after `0` iterations; so is one at any of exactly three
/// weighted anchors, and their interior minimizer comes back in closed form
/// after `0` iterations as well. If the iterate lands exactly on an
/// anchor, the standard Vardi–Zhang correction is applied; if that anchor is
/// optimal the algorithm stops there.
///
/// # Errors
///
/// Returns [`GeometricMedianError`] if the anchor set is empty, slice
/// lengths differ, or the weights are invalid (negative / NaN / all zero).
pub fn weighted_geometric_median(
    anchors: &[Point],
    weights: &[f64],
) -> Result<GeometricMedian, GeometricMedianError> {
    if anchors.is_empty() {
        return Err(GeometricMedianError::EmptyAnchors);
    }
    if anchors.len() != weights.len() {
        return Err(GeometricMedianError::LengthMismatch {
            anchors: anchors.len(),
            weights: weights.len(),
        });
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) || weights.iter().sum::<f64>() <= 0.0 {
        return Err(GeometricMedianError::InvalidWeights);
    }
    let pairs = anchors.iter().copied().zip(weights.iter().copied());
    let run = weiszfeld(pairs, |_| false);
    Ok(GeometricMedian {
        point: run.point,
        objective: weighted_distance_sum(&run.point, anchors, weights),
        iterations: run.iterations,
    })
}

/// Why a [`weiszfeld`] solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeiszfeldStop {
    /// Kuhn's condition held at an anchor before the first iteration: the
    /// point is that anchor's exact position and `iterations` is `0`.
    Anchor,
    /// Exactly three anchors carry weight and Kuhn's condition held at
    /// none of them: the point is their weighted Fermat–Torricelli point,
    /// computed in closed form, and `iterations` is `0`.
    ClosedForm,
    /// The iterate moved less than the tolerance, or sits on an anchor
    /// that is itself the minimizer.
    Converged,
    /// The iteration cap was reached before convergence; the point is the
    /// last, unconverged iterate.
    Capped,
    /// The caller's `abandon` test accepted a lower bound on the minimum;
    /// the point is the iterate the bound was taken at.
    Abandoned,
}

/// The state a [`weiszfeld`] solve stopped in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeiszfeldRun {
    /// The last iterate.
    pub point: Point,
    /// Number of Weiszfeld iterations performed.
    pub iterations: usize,
    /// Why the solve stopped.
    pub stop: WeiszfeldStop,
}

/// `‖(dx, dy)‖` as `sqrt(dx² + dy²)` — the kernel's distance. It falls back
/// to `hypot` where the squared sum overflows or underflows (it is zero,
/// subnormal or infinite), so it stays accurate at any magnitude.
#[inline]
fn norm(dx: f64, dy: f64) -> f64 {
    let s = dx * dx + dy * dy;
    if (f64::MIN_POSITIVE..=f64::MAX).contains(&s) {
        s.sqrt()
    } else {
        dx.hypot(dy)
    }
}

/// Kuhn's condition at the anchor position `at`: `at` minimizes
/// `f(p) = Σ w_i·‖p − a_i‖` iff `‖Σ_{a_i ≠ at} w_i·(a_i − at)/‖a_i − at‖‖`
/// is at most the summed weight of the anchors that coincide with `at`.
fn kuhn_holds<I>(anchors: I, at: Point) -> bool
where
    I: Iterator<Item = (Point, f64)>,
{
    let (mut w_at, mut gx, mut gy) = (0.0, 0.0, 0.0);
    for (a, w) in anchors {
        let (dx, dy) = (a.x - at.x, a.y - at.y);
        if dx == 0.0 && dy == 0.0 {
            w_at += w;
            continue;
        }
        let inv = w / norm(dx, dy);
        gx += dx * inv;
        gy += dy * inv;
    }
    norm(gx, gy) <= w_at
}

/// The weighted Fermat–Torricelli point of three positive-weight anchors
/// at none of which Kuhn's condition holds, so the minimizer `P` lies
/// inside their triangle; `None` when the triangle is degenerate or a
/// barycentric coordinate is not finite and positive.
///
/// At `P` the weighted unit vectors toward the anchors cancel, so the angle
/// `φ_i = ∠a_j P a_k` has `cos φ_i = (w_i² − w_j² − w_k²)/(2·w_j·w_k)`, and
/// `P`'s barycentric coordinates are proportional to
/// `1/(cot A_i − cot φ_i)`, `A_i` being the triangle's angle at `a_i`.
/// `cot A_i` is a dot product over `|cross|` (twice the triangle's area);
/// `sin φ_i = 2·T/(w_j·w_k)`, where `T` is the area of the triangle with
/// sides `w_0, w_1, w_2` by Heron's formula, so every
/// `cot φ_i = (w_i² − w_j² − w_k²)/(4·T)` shares one square root and no
/// trigonometric call. Before any product is formed the anchors are
/// translated to `a_0` and divided by the longest side, and the weights
/// divided by the largest, so no intermediate overflows or underflows at
/// any magnitude whose differences are finite.
fn fermat_torricelli(anchors: [(Point, f64); 3]) -> Option<Point> {
    let [(a0, w0), (a1, w1), (a2, w2)] = anchors;
    let (ux, uy) = (a1.x - a0.x, a1.y - a0.y);
    let (vx, vy) = (a2.x - a0.x, a2.y - a0.y);
    let longest = norm(ux, uy)
        .max(norm(vx, vy))
        .max(norm(a2.x - a1.x, a2.y - a1.y));
    if !(longest > 0.0 && longest.is_finite()) {
        return None;
    }
    // Edge vectors a0→a1, a0→a2 and a1→a2, the longest of unit length.
    let (ux, uy, vx, vy) = (ux / longest, uy / longest, vx / longest, vy / longest);
    let (sx, sy) = (vx - ux, vy - uy);
    let cross = (ux * vy - uy * vx).abs();
    if cross < f64::MIN_POSITIVE {
        return None;
    }
    let cot_a = [
        (ux * vx + uy * vy) / cross,
        -(ux * sx + uy * sy) / cross,
        (vx * sx + vy * sy) / cross,
    ];
    let heaviest = w0.max(w1).max(w2);
    let w = [w0 / heaviest, w1 / heaviest, w2 / heaviest];
    let sq = [w[0] * w[0], w[1] * w[1], w[2] * w[2]];
    // 4·T by Heron: 16·T² = (w0+w1+w2)(w1+w2−w0)(w0+w2−w1)(w0+w1−w2).
    let four_t = ((w[0] + w[1] + w[2])
        * ((w[1] + w[2]) - w[0])
        * ((w[0] + w[2]) - w[1])
        * ((w[0] + w[1]) - w[2]))
        .sqrt();
    let lambda = |i: usize, j: usize, k: usize| 1.0 / (cot_a[i] - (sq[i] - sq[j] - sq[k]) / four_t);
    let (l0, l1, l2) = (lambda(0, 1, 2), lambda(1, 0, 2), lambda(2, 0, 1));
    let sum = l0 + l1 + l2;
    let positive = |l: f64| l > 0.0 && l.is_finite();
    if !(positive(l0) && positive(l1) && positive(l2) && sum.is_finite()) {
        return None;
    }
    let (t1, t2) = (l1 / sum, l2 / sum);
    Some(Point::new(
        a0.x + (t1 * ux + t2 * vx) * longest,
        a0.y + (t1 * uy + t2 * vy) * longest,
    ))
}

/// Weiszfeld's iteration for `f(p) = Σ w_i·‖p − a_i‖` over the `(a_i, w_i)`
/// pairs `anchors` yields — the one loop behind
/// [`weighted_geometric_median`] and every gathering-point solve.
///
/// Before iterating it tests Kuhn's condition (Kuhn 1973; Vardi & Zhang
/// 2000) at the heaviest anchor (the first, on ties) and then at the
/// weighted anchor nearest the weighted centroid: anchor `a` is a minimizer
/// iff `‖Σ_{a_i ≠ a} w_i·(a_i − a)/‖a_i − a‖‖ ≤ w_a`, where `w_a` sums the
/// weights of every anchor at `a`. Where it holds the solve returns that
/// anchor's exact position with [`WeiszfeldStop::Anchor`] after `0`
/// iterations, in `O(K)` for `K` anchors, so a lone anchor, or one device
/// with its charger whenever their rates differ, needs no iteration at all.
/// When exactly three anchors carry weight (two devices and their charger)
/// it tests the remaining ones too; if Kuhn's condition holds at none, the
/// minimizer is inside their triangle and the solve returns it in closed
/// form (the weighted Fermat–Torricelli point, Launhardt's three-point
/// problem) with [`WeiszfeldStop::ClosedForm`] after `0` iterations. It
/// falls through to the loop only when the triangle is degenerate or a
/// barycentric coordinate is not finite and positive. Neither early stop
/// consults `abandon`.
///
/// Otherwise it starts at the weighted centroid, skips zero weights, applies
/// the Vardi–Zhang step when the iterate sits on an anchor (within `1e-12`
/// m of it), and stops once a step is shorter than `1e-7` m or after 200
/// iterations. When the farthest weighted anchor is less than a meter from
/// the start, both lengths become fractions of that distance, `1e-15` and
/// `1e-10`, the fractions the meter values are of a kilometre: a tiny
/// instance iterates to the relative precision of a field-sized one
/// instead of stopping at once. Every distance and norm is
/// `sqrt(dx² + dy²)`; `hypot` runs only where that squared sum overflows or
/// underflows. The caller guarantees finite nonnegative weights with a
/// positive sum (see [`weighted_geometric_median`] for the checked entry
/// point).
///
/// # Abandoning a solve
///
/// After the weights of each ordinary (non-Vardi–Zhang) iteration are
/// summed at iterate `x`, `abandon` receives a lower bound on `min_p f(p)`;
/// if it returns `true` the solve stops with [`WeiszfeldStop::Abandoned`].
/// Pass `|_| false` to run to completion. The bound is convexity's
/// `f* ≥ f(x) − ‖∇f(x)‖·R`, where `R = max_i ‖x − a_i‖` over the weighted
/// anchors: some minimizer lies in their convex hull (projecting onto the
/// hull shortens every anchor distance), and every hull point is within `R`
/// of `x`. The loop already holds `S = Σ w_i/d_i` and `N = Σ w_i·a_i/d_i`,
/// so `∇f(x) = x·S − N` costs one square root.
///
/// The reported bound subtracts `1e-9·(f + ‖∇f‖·R + R·(2·(|x.x| + |x.y|)·S
/// + 2·W))` (`W = Σ w_i`) from `f − ‖∇f‖·R` to cover rounding (`u = 2⁻⁵³`).
/// Each computed `d_i` is within `3·u` of the exact distance: the
/// differences round once (`u`), the squares and their sum add at most
/// `2·u`, which the square root halves, and the root rounds once (`u`); the
/// `hypot` fallback is within one ulp (`2·u`) of the rounded differences'
/// norm. So over `K` anchors `f` (a sum of nonnegative products `w_i·d_i`)
/// is within `(K + 4)·u` of its exact value and `R` within `3·u`; `x·S − N`
/// is within `(K + 6)·u·(2·|x|·S + W)` per coordinate, since
/// `|a_i| ≤ |x| + d_i` bounds `|N|` by `|x|·S + W`, and its norm adds
/// `3·u`. Every such error is below `1e-9` of the subtracted term while
/// `K < 10⁶`, so the bound never exceeds the true minimum.
pub fn weiszfeld<I>(anchors: I, mut abandon: impl FnMut(f64) -> bool) -> WeiszfeldRun
where
    I: Iterator<Item = (Point, f64)> + Clone,
{
    // One pass for the weighted centroid, the classic starting iterate, the
    // heaviest anchor and the first three weighted anchors.
    let (mut wsum, mut sum_x, mut sum_y) = (0.0, 0.0, 0.0);
    let (mut heaviest, mut heaviest_w) = (Point::ORIGIN, 0.0);
    let mut weighted = [(Point::ORIGIN, 0.0); 3];
    let mut count = 0;
    for (a, w) in anchors.clone() {
        wsum += w;
        sum_x += a.x * w;
        sum_y += a.y * w;
        if w > heaviest_w {
            (heaviest, heaviest_w) = (a, w);
        }
        if w > 0.0 {
            if let Some(slot) = weighted.get_mut(count) {
                *slot = (a, w);
            }
            count += 1;
        }
    }
    let mut current = Point::new(sum_x / wsum, sum_y / wsum);

    let settled = |point, stop| WeiszfeldRun {
        point,
        iterations: 0,
        stop,
    };
    if kuhn_holds(anchors.clone(), heaviest) {
        return settled(heaviest, WeiszfeldStop::Anchor);
    }
    // The weighted anchor nearest the start (the first, on ties), and the
    // farthest one's distance.
    let (mut nearest, mut nearest_d) = (heaviest, f64::INFINITY);
    let mut farthest_d = 0.0f64;
    for (a, w) in anchors.clone() {
        if w == 0.0 {
            continue;
        }
        let d = norm(a.x - current.x, a.y - current.y);
        if d < nearest_d {
            (nearest, nearest_d) = (a, d);
        }
        farthest_d = farthest_d.max(d);
    }
    if nearest != heaviest && kuhn_holds(anchors.clone(), nearest) {
        return settled(nearest, WeiszfeldStop::Anchor);
    }
    if count == 3 {
        // Three weighted anchors: test the rest, then solve in closed form.
        for (a, _) in weighted {
            if a != heaviest && a != nearest && kuhn_holds(weighted.into_iter(), a) {
                return settled(a, WeiszfeldStop::Anchor);
            }
        }
        if let Some(point) = fermat_torricelli(weighted) {
            return settled(point, WeiszfeldStop::ClosedForm);
        }
    }

    // The two lengths are meters for anchors spread a meter or more. Below
    // that they are taken relative to the spread, at the precision the
    // meter values give a kilometre-wide group.
    let (on_anchor, tolerance) = if farthest_d >= 1.0 {
        (WEISZFELD_ON_ANCHOR, WEISZFELD_TOLERANCE)
    } else {
        let km = farthest_d * 1e-3;
        (WEISZFELD_ON_ANCHOR * km, WEISZFELD_TOLERANCE * km)
    };
    let mut iterations = 0;
    let mut stop = WeiszfeldStop::Capped;
    while iterations < WEISZFELD_MAX_ITERATIONS {
        iterations += 1;
        let mut num_x = 0.0;
        let mut num_y = 0.0;
        let mut denom = 0.0;
        let mut objective = 0.0;
        let mut radius = 0.0f64;
        // Weight of the anchor the iterate sits on (the last one, if several).
        let mut at_anchor: Option<f64> = None;
        anchors.clone().for_each(|(a, w)| {
            if w == 0.0 {
                return;
            }
            let d = norm(current.x - a.x, current.y - a.y);
            if d < on_anchor {
                at_anchor = Some(w);
                return;
            }
            let inv = w / d;
            num_x += a.x * inv;
            num_y += a.y * inv;
            denom += inv;
            objective += w * d;
            radius = radius.max(d);
        });

        let next = if let Some(w_at) = at_anchor {
            // Vardi–Zhang: check whether the anchor itself is the minimizer.
            // r is the norm of the subgradient contribution of the others.
            let r = norm(num_x - current.x * denom, num_y - current.y * denom);
            if r <= w_at || denom == 0.0 {
                // Anchor dominates: it is the optimum.
                stop = WeiszfeldStop::Converged;
                break;
            }
            let t = (1.0 - w_at / r).max(0.0);
            let pull = Point::new(num_x / denom, num_y / denom);
            current.lerp(&pull, t)
        } else {
            let (gx, gy) = (current.x * denom - num_x, current.y * denom - num_y);
            let spread = norm(gx, gy) * radius;
            let slack = radius * (2.0 * (current.x.abs() + current.y.abs()) * denom + 2.0 * wsum);
            if abandon((objective - spread) - 1e-9 * (objective + spread + slack)) {
                stop = WeiszfeldStop::Abandoned;
                break;
            }
            Point::new(num_x / denom, num_y / denom)
        };

        let step = norm(current.x - next.x, current.y - next.y);
        current = next;
        if step < tolerance {
            stop = WeiszfeldStop::Converged;
            break;
        }
    }

    WeiszfeldRun {
        point: current,
        iterations,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "expected {a} ~ {b} within {eps}");
    }

    #[test]
    fn distance_and_lerp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), Meters::new(5.0));
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(a.lerp(&b, 0.5), Point::new(1.5, 2.0));
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }

    #[test]
    fn centroid_basic() {
        assert_eq!(Point::centroid(&[]), None);
        let c = Point::centroid(&[Point::new(0.0, 0.0), Point::new(2.0, 4.0)]).unwrap();
        assert_eq!(c, Point::new(1.0, 2.0));
    }

    #[test]
    fn rect_contains_clamp() {
        let r = Rect::square(10.0);
        assert!(r.contains(&Point::new(5.0, 5.0)));
        assert!(r.contains(&Point::new(0.0, 10.0)));
        assert!(!r.contains(&Point::new(-0.1, 5.0)));
        assert_eq!(r.clamp(Point::new(-3.0, 12.0)), Point::new(0.0, 10.0));
        assert_eq!(r.center(), Point::new(5.0, 5.0));
        assert_close(r.area(), 100.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "rect min must be <= max")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }

    #[test]
    fn rect_grid_covers_corners() {
        let r = Rect::square(10.0);
        let g = r.grid(3);
        assert_eq!(g.len(), 9);
        assert!(g.contains(&Point::new(0.0, 0.0)));
        assert!(g.contains(&Point::new(10.0, 10.0)));
        assert!(g.contains(&Point::new(5.0, 5.0)));
        assert_eq!(r.grid(1), vec![r.center()]);
    }

    #[test]
    fn median_of_two_points_lies_between() {
        let anchors = [Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let m = weighted_geometric_median(&anchors, &[1.0, 1.0]).unwrap();
        // Any point on the segment is optimal; objective must be 10.
        assert_close(m.objective, 10.0, 1e-6);
        assert!(m.point.y.abs() < 1e-6);
    }

    #[test]
    fn median_equilateral_triangle_is_fermat_point() {
        // Equilateral triangle with side 1; Fermat point = centroid,
        // objective = sqrt(3) (sum of distances = side * sqrt(3)).
        let h = (3.0f64).sqrt() / 2.0;
        let anchors = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, h),
        ];
        let m = weighted_geometric_median(&anchors, &[1.0; 3]).unwrap();
        let centroid = Point::centroid(&anchors).unwrap();
        assert!(m.point.distance(&centroid).value() < 1e-5);
        assert_close(m.objective, (3.0f64).sqrt(), 1e-6);
    }

    #[test]
    fn heavy_weight_pulls_median_to_anchor() {
        let anchors = [Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let m = weighted_geometric_median(&anchors, &[100.0, 1.0]).unwrap();
        // Weight 100 vs 1: optimum is exactly the heavy anchor.
        assert!(m.point.distance(&anchors[0]).value() < 1e-6);
    }

    #[test]
    fn median_stops_when_start_anchor_is_optimal() {
        // Weighted centroid of x = (0, 10, 5) with weights (1, 1, 2) is x = 5,
        // exactly the third anchor — and that anchor is the weighted 1-D
        // median, so the Vardi–Zhang test must stop there immediately.
        let anchors = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 0.0),
        ];
        let m = weighted_geometric_median(&anchors, &[1.0, 1.0, 2.0]).unwrap();
        assert!(m.point.distance(&Point::new(5.0, 0.0)).value() < 1e-9);
    }

    #[test]
    fn median_starting_on_anchor_escapes_when_not_optimal() {
        // Anchors x = (0, 9, 10) with weights (1, a, 9) have weighted
        // centroid exactly 9 for every a, so the iterate starts on the middle
        // anchor. With a = 0.5 the unique optimum is x = 10, so Weiszfeld
        // must escape the anchor via the Vardi–Zhang correction.
        let anchors = [
            Point::new(0.0, 0.0),
            Point::new(9.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let m = weighted_geometric_median(&anchors, &[1.0, 0.5, 9.0]).unwrap();
        assert!(m.point.is_finite());
        assert!(
            m.point.distance(&Point::new(10.0, 0.0)).value() < 1e-3,
            "got {}",
            m.point
        );
    }

    #[test]
    fn median_single_anchor_is_that_anchor() {
        let m = weighted_geometric_median(&[Point::new(3.0, 4.0)], &[2.0]).unwrap();
        assert!(m.point.distance(&Point::new(3.0, 4.0)).value() < 1e-9);
        assert_close(m.objective, 0.0, 1e-9);
    }

    #[test]
    fn median_error_cases() {
        assert_eq!(
            weighted_geometric_median(&[], &[]).unwrap_err(),
            GeometricMedianError::EmptyAnchors
        );
        assert_eq!(
            weighted_geometric_median(&[Point::ORIGIN], &[1.0, 2.0]).unwrap_err(),
            GeometricMedianError::LengthMismatch {
                anchors: 1,
                weights: 2
            }
        );
        assert_eq!(
            weighted_geometric_median(&[Point::ORIGIN], &[-1.0]).unwrap_err(),
            GeometricMedianError::InvalidWeights
        );
        assert_eq!(
            weighted_geometric_median(&[Point::ORIGIN, Point::ORIGIN], &[0.0, 0.0]).unwrap_err(),
            GeometricMedianError::InvalidWeights
        );
    }

    #[test]
    fn median_beats_grid_search() {
        // Weiszfeld's objective should be <= the best of a fine grid.
        let anchors = [
            Point::new(1.0, 2.0),
            Point::new(8.0, 1.0),
            Point::new(4.0, 9.0),
            Point::new(6.0, 5.0),
        ];
        let weights = [1.0, 2.0, 1.5, 0.5];
        let m = weighted_geometric_median(&anchors, &weights).unwrap();
        let best_grid = Rect::square(10.0)
            .grid(60)
            .iter()
            .map(|p| weighted_distance_sum(p, &anchors, &weights))
            .fold(f64::INFINITY, f64::min);
        assert!(
            m.objective <= best_grid + 1e-3,
            "weiszfeld {} vs grid {}",
            m.objective,
            best_grid
        );
    }
}

/// Lloyd's k-means over 2-D points: returns the cluster index of each
/// point. Deterministic: centroids are seeded by a farthest-point sweep
/// from the first point (k-means++-style but noise-free), ties break on
/// index.
///
/// Empty clusters are re-seeded on the farthest point from its centroid,
/// so exactly `min(k, points.len())` nonempty clusters come back.
///
/// # Panics
///
/// Panics if `points` is empty or `k == 0`.
pub fn kmeans(points: &[Point], k: usize, max_iterations: usize) -> Vec<usize> {
    assert!(!points.is_empty(), "k-means needs at least one point");
    assert!(k >= 1, "k-means needs at least one cluster");
    let k = k.min(points.len());

    // Farthest-point initialization (deterministic).
    let mut centers: Vec<Point> = vec![points[0]];
    while centers.len() < k {
        let far = points
            .iter()
            .enumerate()
            .max_by(|(i, p), (j, q)| {
                let dp = centers
                    .iter()
                    .map(|c| p.distance_sq(c))
                    .fold(f64::INFINITY, f64::min);
                let dq = centers
                    .iter()
                    .map(|c| q.distance_sq(c))
                    .fold(f64::INFINITY, f64::min);
                dp.total_cmp(&dq).then(j.cmp(i))
            })
            .map(|(_, p)| *p)
            .expect("points is nonempty");
        centers.push(far);
    }

    let mut assignment = vec![0usize; points.len()];
    for _ in 0..max_iterations.max(1) {
        // Assign.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = centers
                .iter()
                .enumerate()
                .min_by(|(a, ca), (b, cb)| {
                    p.distance_sq(ca)
                        .total_cmp(&p.distance_sq(cb))
                        .then(a.cmp(b))
                })
                .map(|(c, _)| c)
                .expect("k >= 1");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update.
        for (c, center) in centers.iter_mut().enumerate() {
            let members: Vec<Point> = points
                .iter()
                .zip(&assignment)
                .filter(|(_, &a)| a == c)
                .map(|(p, _)| *p)
                .collect();
            match Point::centroid(&members) {
                Some(new_center) => *center = new_center,
                None => {
                    // Re-seed an emptied cluster on the globally farthest
                    // point from its current assignment's center.
                    if let Some((i, p)) = points.iter().enumerate().max_by(|(_, p), (_, q)| {
                        let dp = p.distance_sq(&centers_snapshot(points, &assignment, p));
                        let dq = q.distance_sq(&centers_snapshot(points, &assignment, q));
                        dp.total_cmp(&dq)
                    }) {
                        *center = *p;
                        assignment[i] = c;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    assignment
}

/// Centroid of the cluster a point currently belongs to (k-means helper).
fn centers_snapshot(points: &[Point], assignment: &[usize], p: &Point) -> Point {
    let idx = points
        .iter()
        .position(|q| q == p)
        .expect("point comes from the slice");
    let c = assignment[idx];
    let members: Vec<Point> = points
        .iter()
        .zip(assignment)
        .filter(|(_, &a)| a == c)
        .map(|(q, _)| *q)
        .collect();
    Point::centroid(&members).unwrap_or(*p)
}

#[cfg(test)]
mod kmeans_tests {
    use super::*;

    #[test]
    fn two_obvious_clusters_separate() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(100.0, 100.0),
            Point::new(101.0, 100.0),
        ];
        let a = kmeans(&pts, 2, 50);
        assert_eq!(a[0], a[1]);
        assert_eq!(a[0], a[2]);
        assert_eq!(a[3], a[4]);
        assert_ne!(a[0], a[3]);
    }

    #[test]
    fn k_larger_than_points_degenerates_gracefully() {
        let pts = [Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let a = kmeans(&pts, 10, 10);
        assert_eq!(a.len(), 2);
        assert_ne!(a[0], a[1], "two points, two clusters");
    }

    #[test]
    fn single_cluster_takes_everything() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ];
        let a = kmeans(&pts, 1, 10);
        assert!(a.iter().all(|&c| c == 0));
    }

    #[test]
    fn kmeans_is_deterministic() {
        let pts: Vec<Point> = (0..30)
            .map(|i| Point::new((i * 7 % 13) as f64, (i * 11 % 17) as f64))
            .collect();
        assert_eq!(kmeans(&pts, 4, 100), kmeans(&pts, 4, 100));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty_input() {
        let _ = kmeans(&[], 2, 10);
    }
}
