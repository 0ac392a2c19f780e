//! PPM bookkeeping and the Table 1 error arithmetic.
//!
//! Table 1 of the paper translates rate errors (in PPM) into absolute time
//! errors over the intervals that matter to the algorithms:
//! `Δ(offset) = Δ(t) · rate-error`.

/// One part per million, as a dimensionless fraction.
pub const PPM: f64 = 1e-6;

/// The paper's universal hardware rate bound: 0.1 PPM (§3.1).
pub const RATE_BOUND_PPM: f64 = 0.1;

/// The best meaningful local-rate precision: 0.01 PPM (§3.1 — "It is not
/// meaningful to speak of rate errors smaller than this").
pub const RATE_FLOOR_PPM: f64 = 0.01;

/// Converts PPM to a dimensionless fraction.
pub fn from_ppm(ppm: f64) -> f64 {
    ppm * PPM
}

/// Absolute offset error accumulated over `interval` seconds at a rate
/// error of `rate_ppm` PPM (the cell formula of Table 1).
pub fn offset_error(interval: f64, rate_ppm: f64) -> f64 {
    interval * from_ppm(rate_ppm)
}

/// One named row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Row label.
    pub name: &'static str,
    /// Interval duration in seconds.
    pub duration: f64,
    /// Interval error at 0.02 PPM.
    pub err_at_002: f64,
    /// Interval error at 0.1 PPM.
    pub err_at_01: f64,
}

/// Reproduces Table 1: absolute errors at the two key error rates over the
/// paper's significant time intervals.
pub fn table1() -> Vec<Table1Row> {
    let rows: [(&'static str, f64); 6] = [
        ("Target RTT to NTP server", 1e-3),
        ("Typical Internet RTT", 100e-3),
        ("Standard unit", 1.0),
        ("Local SKM validity tau*", 1000.0),
        ("1 Daily cycle", 86_400.0),
        ("1 Weekly cycle", 604_800.0),
    ];
    rows.iter()
        .map(|&(name, duration)| Table1Row {
            name,
            duration,
            err_at_002: offset_error(duration, 0.02),
            err_at_01: offset_error(duration, 0.1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_roundtrip() {
        assert_eq!(from_ppm(50.0) / PPM, 50.0);
        assert_eq!(from_ppm(1.0), 1e-6);
    }

    #[test]
    fn table1_matches_paper_cells() {
        let t = table1();
        // Paper's bold cells: SKM validity at 0.02 PPM = 20 µs, at 0.1 PPM
        // = 0.1 ms; daily cycle at 0.02 = 1.7 ms, at 0.1 = 8.6 ms.
        let skm = t.iter().find(|r| r.name.contains("SKM")).unwrap();
        assert!((skm.err_at_002 - 20e-6).abs() < 1e-12);
        assert!((skm.err_at_01 - 0.1e-3).abs() < 1e-12);
        let daily = t.iter().find(|r| r.name.contains("Daily")).unwrap();
        assert!((daily.err_at_002 - 1.728e-3).abs() < 1e-6);
        assert!((daily.err_at_01 - 8.64e-3).abs() < 1e-5);
        let weekly = t.iter().find(|r| r.name.contains("Weekly")).unwrap();
        assert!((weekly.err_at_002 - 12.096e-3).abs() < 1e-5);
        assert!((weekly.err_at_01 - 60.48e-3).abs() < 1e-4);
        // RTT rows: 1 ms at 0.02 PPM = 0.02 ns; 100 ms at 0.1 PPM = 10 ns
        let rtt = &t[0];
        assert!((rtt.err_at_002 - 0.02e-9).abs() < 1e-15);
        let inet = &t[1];
        assert!((inet.err_at_01 - 10e-9).abs() < 1e-14);
    }

    #[test]
    fn constants() {
        assert_eq!(RATE_BOUND_PPM, 0.1);
        assert_eq!(RATE_FLOOR_PPM, 0.01);
        assert_eq!(offset_error(1.0, 1.0), 1e-6);
    }
}
