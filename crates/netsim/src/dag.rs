//! The simulated DAG capture card: the reference monitor on the return path.
//!
//! §2.4: the paper validates everything against a DAG3.2e card synchronized
//! to GPS (~100 ns timestamping accuracy), tapping the Ethernet just before
//! the host NIC. The card stamps the *first bit* of the frame while the host
//! stamps after full arrival, so its timestamps are corrected by adding the
//! 90-byte wire time, `90·8/100 Mbps = 7.2 µs`. (The interrupt-latency side
//! modes of `Tf − Tg` are corrected in `tsc-experiments`, the one place that
//! uses them.)

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use rand_distr::{Distribution, StandardNormal};

/// Wire time of a 90-byte Ethernet frame at 100 Mbps: the correction added
/// to a first-bit DAG timestamp so it refers to full arrival (§2.4).
pub const FIRST_BIT_CORRECTION: f64 = 90.0 * 8.0 / 100e6; // 7.2 µs

/// A GPS-synchronized passive capture card.
///
/// Produces timestamps `Tg = t_true + jitter` with Gaussian jitter of
/// configurable σ (100 ns for the DAG3.2e of the paper). The raw timestamp
/// refers to the first bit on the wire; [`DagCard::timestamp_corrected`]
/// applies [`FIRST_BIT_CORRECTION`] to refer to full frame arrival,
/// producing the `Tg,i` the paper compares `Tf,i` against.
#[derive(Debug)]
pub struct DagCard {
    sigma: f64,
    rng: ChaCha12Rng,
}

impl DagCard {
    /// DAG3.2e-grade card: 100 ns timestamping accuracy.
    pub fn dag32e(seed: u64) -> Self {
        Self::with_sigma(100e-9, seed)
    }

    /// Card with arbitrary timestamping jitter σ (seconds).
    fn with_sigma(sigma: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0, "jitter must be non-negative");
        Self {
            sigma,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0xDA6_CA4D),
        }
    }

    fn gauss(&mut self) -> f64 {
        StandardNormal.sample(&mut self.rng)
    }

    /// Raw first-bit timestamp of an event whose first bit passed the tap at
    /// true time `t_first_bit`.
    fn timestamp_raw(&mut self, t_first_bit: f64) -> f64 {
        t_first_bit + self.gauss() * self.sigma
    }

    /// Corrected timestamp `Tg`: raw + 7.2 µs so it refers to full arrival,
    /// directly comparable to the host's `Tf` (§2.4).
    pub fn timestamp_corrected(&mut self, t_first_bit: f64) -> f64 {
        self.timestamp_raw(t_first_bit) + FIRST_BIT_CORRECTION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_constant_is_7_2_us() {
        assert!((FIRST_BIT_CORRECTION - 7.2e-6).abs() < 1e-15);
    }

    #[test]
    fn jitter_is_centered_and_small() {
        let mut card = DagCard::dag32e(1);
        let n = 10_000;
        let mut sum = 0.0;
        let mut max_abs: f64 = 0.0;
        for i in 0..n {
            let t = i as f64;
            let err = card.timestamp_raw(t) - t;
            sum += err;
            max_abs = max_abs.max(err.abs());
        }
        let mean = sum / n as f64;
        assert!(mean.abs() < 10e-9, "mean jitter {mean}");
        assert!(max_abs < 1e-6, "jitter tail too fat: {max_abs}");
        assert!(max_abs > 1e-8, "jitter suspiciously small: {max_abs}");
    }

    #[test]
    fn corrected_equals_raw_plus_constant() {
        let mut a = DagCard::dag32e(7);
        let mut b = DagCard::dag32e(7);
        let raw = a.timestamp_raw(123.456);
        let cor = b.timestamp_corrected(123.456);
        assert!((cor - raw - FIRST_BIT_CORRECTION).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = DagCard::dag32e(9);
        let mut b = DagCard::dag32e(9);
        for i in 0..100 {
            assert_eq!(a.timestamp_raw(i as f64), b.timestamp_raw(i as f64));
        }
    }

    #[test]
    fn zero_sigma_is_exact() {
        let mut c = DagCard::with_sigma(0.0, 3);
        assert_eq!(c.timestamp_raw(55.5), 55.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        DagCard::with_sigma(-1.0, 0);
    }
}
