//! Endpoint detrending of offset traces (§3.1 / Figure 2 "force the first
//! and last offset values to be the same").

/// Detrends `ys` so its first and last values become equal (and zero) —
/// the exact normalization the paper applies in Figure 2 ("they force the
/// first and last offset values to be the same, normalised to be zero").
///
/// Returns `None` when fewer than two points are given or `xs` start/end
/// coincide.
pub fn detrend_endpoints(xs: &[f64], ys: &[f64]) -> Option<Vec<f64>> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let dx = xs[xs.len() - 1] - xs[0];
    if dx == 0.0 {
        return None;
    }
    let slope = (ys[ys.len() - 1] - ys[0]) / dx;
    let x0 = xs[0];
    let y0 = ys[0];
    Some(
        xs.iter()
            .zip(ys)
            .map(|(&x, &y)| y - y0 - slope * (x - x0))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detrend_endpoints_zeroes_ends() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 5.0 + 0.3 * x + (x * 0.9).sin()).collect();
        let d = detrend_endpoints(&xs, &ys).unwrap();
        assert!(d[0].abs() < 1e-12);
        assert!(d[d.len() - 1].abs() < 1e-12);
    }

    #[test]
    fn detrend_degenerate() {
        assert!(detrend_endpoints(&[1.0], &[1.0]).is_none());
        assert!(detrend_endpoints(&[1.0, 1.0], &[0.0, 5.0]).is_none());
    }
}
