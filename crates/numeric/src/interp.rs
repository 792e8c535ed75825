//! Linear and bilinear interpolation on sorted axes.
//!
//! These primitives back the NLDM-style delay / output-transition lookup
//! tables in `rlc-charlib`. Values outside the characterized grid are
//! extrapolated linearly from the closest segment, matching the behaviour of
//! standard timing libraries.

/// Locates the segment of a sorted axis that brackets `x`, clamped to the
/// first/last segment for out-of-range values. Returns the lower index and
/// the (possibly <0 or >1) interpolation fraction.
///
/// # Panics
/// Panics if the axis has fewer than 2 points or is not strictly increasing.
pub fn locate(axis: &[f64], x: f64) -> (usize, f64) {
    assert!(axis.len() >= 2, "axis needs at least two points");
    for w in axis.windows(2) {
        assert!(w[1] > w[0], "axis must be strictly increasing");
    }
    let n = axis.len();
    let i = match axis.iter().position(|&a| a > x) {
        Some(0) => 0,
        Some(pos) => pos - 1,
        None => n - 2,
    };
    let i = i.min(n - 2);
    let frac = (x - axis[i]) / (axis[i + 1] - axis[i]);
    (i, frac)
}

/// Piecewise-linear interpolation of `ys` over the sorted axis `xs`, with
/// linear extrapolation outside the range.
///
/// ```
/// use rlc_numeric::interp::interp1;
/// let xs = [0.0, 1.0, 2.0];
/// let ys = [0.0, 10.0, 40.0];
/// assert_eq!(interp1(&xs, &ys, 0.5), 5.0);
/// assert_eq!(interp1(&xs, &ys, 3.0), 70.0); // extrapolated
/// ```
///
/// # Panics
/// Panics if `xs` and `ys` differ in length or `xs` has fewer than 2 points.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "axis/value length mismatch");
    let (i, t) = locate(xs, x);
    ys[i] + t * (ys[i + 1] - ys[i])
}

/// Bilinear interpolation of a row-major grid `values[i][j]` defined on axes
/// `x_axis` (rows) and `y_axis` (columns), with linear extrapolation.
///
/// # Panics
/// Panics if the grid dimensions do not match the axes.
pub fn interp2(x_axis: &[f64], y_axis: &[f64], values: &[Vec<f64>], x: f64, y: f64) -> f64 {
    assert_eq!(values.len(), x_axis.len(), "row count mismatch");
    for row in values {
        assert_eq!(row.len(), y_axis.len(), "column count mismatch");
    }
    let (i, tx) = locate(x_axis, x);
    let (j, ty) = locate(y_axis, y);
    let v00 = values[i][j];
    let v01 = values[i][j + 1];
    let v10 = values[i + 1][j];
    let v11 = values[i + 1][j + 1];
    let v0 = v00 + ty * (v01 - v00);
    let v1 = v10 + ty * (v11 - v10);
    v0 + tx * (v1 - v0)
}

/// The crossing rule [`first_crossing`] applies to each step of a sampled
/// trace: `true` when the trace, moving from sample `y0` to sample `y1`,
/// reaches `target` in the search direction on this step. `first_step`
/// marks the step out of the trace's first sample.
///
/// Anything that detects crossings sample by sample (a simulation deciding
/// whether it may stop) calls this rule, so it finds exactly the step on
/// which [`first_crossing`] reports the crossing.
///
/// ```
/// use rlc_numeric::interp::crosses_on_step;
/// // The step owns its upper sample: landing exactly on the target counts.
/// assert!(crosses_on_step(0.2, 0.5, 0.5, true, false));
/// // Leaving the target does not, except out of the trace's first sample.
/// assert!(!crosses_on_step(0.5, 0.9, 0.5, true, false));
/// assert!(crosses_on_step(0.5, 0.9, 0.5, true, true));
/// ```
pub fn crosses_on_step(y0: f64, y1: f64, target: f64, rising: bool, first_step: bool) -> bool {
    // Half-open comparison: the step owns its upper sample, so a trace
    // sampled exactly on the threshold reports the crossing at that sample
    // instead of dropping or delaying it. Approaches from the wrong side — a
    // dip that merely brushes the target during a rising-direction search —
    // deliberately do not count: the `y0` comparison stays strict, so the
    // trace must arrive from the side the search direction implies.
    //
    // The one exception is a trace beginning exactly at the threshold: it
    // has reached it at its first sample — there is no earlier history to
    // cross from — provided it then proceeds on the search direction's side.
    // A trace that immediately leaves against the direction has not crossed
    // (it may still cross properly later).
    if rising {
        (y0 < target || (first_step && y0 == target)) && y1 >= target
    } else {
        (y0 > target || (first_step && y0 == target)) && y1 <= target
    }
}

/// Interpolates the abscissa at which a monotonically sampled trace crosses
/// `target`. `xs` must be increasing; `ys` need not be monotonic — the first
/// crossing (in increasing `xs`) is returned. A trace sampled exactly on the
/// target counts as crossing at that sample when it arrives from the search
/// direction's side, and a trace that *starts* exactly on the target crosses
/// at its first sample ([`crosses_on_step`] states the rule). Returns `None`
/// if the trace never crosses.
pub fn first_crossing(xs: &[f64], ys: &[f64], target: f64, rising: bool) -> Option<f64> {
    assert_eq!(xs.len(), ys.len());
    for k in 1..xs.len() {
        let (y0, y1) = (ys[k - 1], ys[k]);
        if !crosses_on_step(y0, y1, target, rising, k == 1) {
            continue;
        }
        // Only the first step can start on the target: the trace reached it
        // at its first sample.
        if y0 == target {
            return Some(xs[k - 1]);
        }
        if (y1 - y0).abs() < 1e-300 {
            return Some(xs[k]);
        }
        let t = (target - y0) / (y1 - y0);
        return Some(xs[k - 1] + t * (xs[k] - xs[k - 1]));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn locate_clamps_and_brackets() {
        let axis = [1.0, 2.0, 4.0];
        assert_eq!(locate(&axis, 1.5), (0, 0.5));
        let (i, t) = locate(&axis, 3.0);
        assert_eq!(i, 1);
        assert!(approx_eq(t, 0.5, 1e-12));
        // below range -> negative fraction on first segment
        let (i, t) = locate(&axis, 0.0);
        assert_eq!(i, 0);
        assert!(t < 0.0);
        // above range -> fraction > 1 on last segment
        let (i, t) = locate(&axis, 10.0);
        assert_eq!(i, 1);
        assert!(t > 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn locate_rejects_unsorted_axis() {
        let _ = locate(&[1.0, 1.0, 2.0], 1.5);
    }

    #[test]
    fn interp1_interpolates_and_extrapolates() {
        let xs = [0.0, 10.0, 20.0];
        let ys = [0.0, 100.0, 150.0];
        assert!(approx_eq(interp1(&xs, &ys, 5.0), 50.0, 1e-12));
        assert!(approx_eq(interp1(&xs, &ys, 15.0), 125.0, 1e-12));
        assert!(approx_eq(interp1(&xs, &ys, -10.0), -100.0, 1e-12));
        assert!(approx_eq(interp1(&xs, &ys, 30.0), 200.0, 1e-12));
    }

    #[test]
    fn interp2_reproduces_bilinear_surface() {
        // f(x, y) = 2x + 3y is reproduced exactly by bilinear interpolation
        let xa = [0.0, 1.0, 2.0];
        let ya = [0.0, 1.0];
        let grid: Vec<Vec<f64>> = xa
            .iter()
            .map(|&x| ya.iter().map(|&y| 2.0 * x + 3.0 * y).collect())
            .collect();
        for &(x, y) in &[(0.5, 0.5), (1.5, 0.25), (2.5, 1.5), (-0.5, 0.0)] {
            assert!(approx_eq(
                interp2(&xa, &ya, &grid, x, y),
                2.0 * x + 3.0 * y,
                1e-12
            ));
        }
    }

    #[test]
    fn first_crossing_rising_and_falling() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let rising = [0.0, 0.4, 0.8, 1.2];
        let x = first_crossing(&xs, &rising, 0.6, true).unwrap();
        assert!(approx_eq(x, 1.5, 1e-12));
        let falling = [1.0, 0.7, 0.2, 0.0];
        let x = first_crossing(&xs, &falling, 0.5, false).unwrap();
        assert!(approx_eq(x, 1.4, 1e-12));
        assert!(first_crossing(&xs, &rising, 2.0, true).is_none());
    }

    #[test]
    fn first_crossing_exact_hit_at_first_sample() {
        // The trace starts exactly on the threshold: the crossing is at the
        // first sample, not dropped (the old strict `y0 < target` comparison
        // never matched a segment starting on the target).
        let xs = [0.0, 1.0, 2.0];
        let rising = [0.5, 0.9, 1.3];
        assert_eq!(first_crossing(&xs, &rising, 0.5, true), Some(0.0));
        let falling = [0.5, 0.2, 0.0];
        assert_eq!(first_crossing(&xs, &falling, 0.5, false), Some(0.0));
        // Starting at the threshold but moving against the search direction
        // is not a crossing: a purely falling trace has no rising crossing.
        assert_eq!(first_crossing(&xs, &falling, 0.5, true), None);
        assert_eq!(first_crossing(&xs, &rising, 0.5, false), None);
        // … unless the trace comes back and crosses properly later.
        let dip_then_rise = [0.5, 0.2, 0.9];
        let x = first_crossing(&xs, &dip_then_rise, 0.5, true).unwrap();
        assert!(approx_eq(x, 1.0 + 3.0 / 7.0, 1e-12));
    }

    #[test]
    fn first_crossing_exact_hit_mid_trace() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        // Sampled exactly on the threshold while rising: interpolation
        // degenerates to the sample itself.
        let ys = [0.0, 0.5, 1.0, 1.5];
        assert_eq!(first_crossing(&xs, &ys, 0.5, true), Some(1.0));
        // Plateau exactly at the threshold entered from below: the first
        // plateau sample wins.
        let plateau = [0.0, 0.5, 0.5, 1.0];
        assert_eq!(first_crossing(&xs, &plateau, 0.5, true), Some(1.0));
    }

    #[test]
    fn first_crossing_ignores_wrong_direction_touches() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        // A bump that rises to the target exactly and falls back is not a
        // falling crossing — reporting it would fabricate a falling edge
        // (e.g. a bogus 90 % crossing in a falling slew measurement).
        let bump = [0.3, 0.5, 0.3, 0.3];
        assert_eq!(first_crossing(&xs, &bump, 0.5, false), None);
        // Symmetrically, a dip that descends to the target exactly and rises
        // again is not a rising crossing: the trace never arrived from below.
        let dip = [1.0, 0.5, 0.8, 1.2];
        assert_eq!(first_crossing(&xs, &dip, 0.5, true), None);
        // The bump *is* the rising crossing, at its exact sample.
        assert_eq!(first_crossing(&xs, &bump, 0.5, true), Some(1.0));
    }

    #[test]
    fn first_crossing_exact_hit_at_last_sample() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 0.2, 0.5];
        assert_eq!(first_crossing(&xs, &ys, 0.5, true), Some(2.0));
        // Below the target everywhere else and no exact hit: still none.
        assert!(first_crossing(&xs, &ys, 0.6, true).is_none());
    }

    #[test]
    fn first_crossing_returns_first_of_multiple() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 1.0, 0.0, 1.0, 0.0];
        let x = first_crossing(&xs, &ys, 0.5, true).unwrap();
        assert!(approx_eq(x, 0.5, 1e-12));
    }
}
