//! The stratum-1 NTP server model.
//!
//! §2.3/§3.2: the server's clock "should be synchronized" but "timestamping
//! errors nonetheless make these unequal even for the server. Indeed, as
//! servers are often just PC's, their timestamping may not have the quality
//! of the driver based TSC timestamping of our host." The server delay `d↑`
//! has "a minimum processing time and a variable time due to timestamping
//! issues both in the µs range, and rare delays due to scheduling in the
//! millisecond range." §4.2 additionally observes rare `Te > te` errors
//! "by as much as 1 ms, larger even than the RTT!"
//!
//! §6.1 exercises an outright *server error* in which `Tb` and `Te` were
//! each offset by 150 ms for a few minutes (Figure 11b) — injectable here
//! through [`ServerFault`].

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rand_distr::{Distribution, Exp, StandardNormal};

#[cfg(feature = "reference")]
use crate::host::gauss_reference;

/// A gross server-clock fault: both `Tb` and `Te` are offset by `offset`
/// seconds during `[start, end)` of true time — the Figure 11(b) event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFault {
    /// Fault onset (true time, seconds).
    pub start: f64,
    /// Fault end (true time, seconds).
    pub end: f64,
    /// Clock error during the fault (seconds; the paper's event was 150 ms).
    pub offset: f64,
}

/// Parameters of the server model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerParams {
    /// Minimum processing/residence time `d↑` (seconds).
    pub min_residence: f64,
    /// Mean of the variable residence component (seconds).
    pub residence_mean: f64,
    /// Probability of a millisecond-scale scheduling delay in residence.
    pub p_residence_spike: f64,
    /// Mean of such a spike (seconds).
    pub residence_spike_mean: f64,
    /// Std-dev of ordinary server timestamping error (seconds).
    pub stamp_sigma: f64,
    /// Probability that `Te` carries a large positive error.
    pub p_te_outlier: f64,
    /// Mean of the large `Te` error (paper: up to 1 ms).
    pub te_outlier_mean: f64,
}

impl Default for ServerParams {
    fn default() -> Self {
        Self {
            min_residence: 12e-6,
            residence_mean: 8e-6,
            p_residence_spike: 1e-3,
            residence_spike_mean: 0.8e-3,
            stamp_sigma: 2e-6,
            p_te_outlier: 4e-4,
            te_outlier_mean: 0.5e-3,
        }
    }
}

/// A stratum-1 server: perfectly GPS-synchronized truth, imperfect
/// timestamping, plus injectable faults.
///
/// The timestamping-noise Gaussians (two per delivered packet: `Tb`,
/// `Te`) are ziggurat [`StandardNormal`] draws, exactly as
/// [`crate::HostTimestamping`]'s are. The original Box-Muller
/// draw-per-call formulation is retained behind the `reference` feature
/// for the differential tests.
#[derive(Debug)]
pub struct ServerModel {
    params: ServerParams,
    faults: Vec<ServerFault>,
    exp_res: Exp<f64>,
    rng: ChaCha12Rng,
}

impl ServerModel {
    /// Server with default (paper-like) imperfections and no faults.
    pub fn new(seed: u64) -> Self {
        Self::with_params(ServerParams::default(), seed)
    }

    /// Server with explicit parameters.
    pub fn with_params(params: ServerParams, seed: u64) -> Self {
        assert!(params.residence_mean > 0.0, "invalid residence mean");
        Self {
            params,
            faults: Vec::new(),
            exp_res: Exp::new(1.0 / params.residence_mean).expect("valid rate"),
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x5E4B_E401),
        }
    }

    /// Registers a clock fault window.
    pub fn add_fault(&mut self, fault: ServerFault) {
        assert!(fault.end > fault.start, "fault window must be non-empty");
        self.faults.push(fault);
    }

    /// Model parameters.
    pub fn params(&self) -> &ServerParams {
        &self.params
    }

    fn gauss(&mut self) -> f64 {
        StandardNormal.sample(&mut self.rng)
    }

    fn fault_offset(&self, t: f64) -> f64 {
        self.faults
            .iter()
            .filter(|f| t >= f.start && t < f.end)
            .map(|f| f.offset)
            .sum()
    }

    /// Samples the residence time `d↑` for a packet arriving at true time
    /// `t` (equation (13)).
    pub fn residence(&mut self, _t: f64) -> f64 {
        let mut d = self.params.min_residence + self.exp_res.sample(&mut self.rng);
        if self.rng.random::<f64>() < self.params.p_residence_spike {
            let e: f64 = self.rng.random::<f64>().max(1e-300);
            d += self.params.residence_spike_mean * (-e.ln());
        }
        d
    }

    /// The server's receive timestamp `Tb` for a packet arriving at true
    /// time `tb`. The error is bounded below by the truth (the server
    /// cannot stamp before the packet exists) and includes any active fault.
    pub fn stamp_rx(&mut self, tb: f64) -> f64 {
        let noise = (self.gauss() * self.params.stamp_sigma).abs();
        tb + noise + self.fault_offset(tb)
    }

    /// The server's transmit timestamp `Te` for a packet departing at true
    /// time `te`. Unlike `Tb`, `Te` can err *late* by as much as 1 ms
    /// (the a-priori-unknown `Te` vs `te` relationship of §4.2).
    pub fn stamp_tx(&mut self, te: f64) -> f64 {
        let mut noise = (self.gauss() * self.params.stamp_sigma).abs();
        if self.rng.random::<f64>() < self.params.p_te_outlier {
            let e: f64 = self.rng.random::<f64>().max(1e-300);
            noise += self.params.te_outlier_mean * (-e.ln());
        }
        te + noise + self.fault_offset(te)
    }
}

/// The pre-optimization formulation: a fresh Box-Muller pair per stamp
/// ([`crate::host::gauss_reference`]) — bit-identical to the original
/// implementation.
#[cfg(feature = "reference")]
impl ServerModel {
    /// Original [`ServerModel::stamp_rx`].
    pub fn stamp_rx_reference(&mut self, tb: f64) -> f64 {
        let noise = (gauss_reference(&mut self.rng) * self.params.stamp_sigma).abs();
        tb + noise + self.fault_offset(tb)
    }

    /// Original [`ServerModel::stamp_tx`].
    pub fn stamp_tx_reference(&mut self, te: f64) -> f64 {
        let mut noise = (gauss_reference(&mut self.rng) * self.params.stamp_sigma).abs();
        if self.rng.random::<f64>() < self.params.p_te_outlier {
            let e: f64 = self.rng.random::<f64>().max(1e-300);
            noise += self.params.te_outlier_mean * (-e.ln());
        }
        te + noise + self.fault_offset(te)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residence_respects_minimum() {
        let mut s = ServerModel::new(1);
        for i in 0..50_000 {
            assert!(s.residence(i as f64) >= 12e-6);
        }
    }

    #[test]
    fn residence_spikes_are_rare() {
        let mut s = ServerModel::new(2);
        let n = 100_000;
        let spikes = (0..n)
            .map(|i| s.residence(i as f64))
            .filter(|&d| d > 0.3e-3)
            .count();
        let rate = spikes as f64 / n as f64;
        assert!(rate > 1e-4 && rate < 1e-2, "spike rate {rate}");
    }

    #[test]
    fn rx_stamp_never_precedes_truth() {
        let mut s = ServerModel::new(3);
        for i in 0..10_000 {
            let t = i as f64;
            assert!(s.stamp_rx(t) >= t);
        }
    }

    #[test]
    fn tx_outliers_reach_hundreds_of_us() {
        let mut s = ServerModel::new(4);
        let n = 200_000;
        let max_err = (0..n)
            .map(|i| {
                let t = i as f64;
                s.stamp_tx(t) - t
            })
            .fold(0.0f64, f64::max);
        assert!(
            max_err > 100e-6,
            "Te outliers should reach 0.1+ ms, max {max_err}"
        );
        assert!(max_err < 20e-3, "Te outliers unreasonably large: {max_err}");
    }

    #[test]
    fn fault_window_applies_exactly() {
        let mut s = ServerModel::new(5);
        s.add_fault(ServerFault {
            start: 100.0,
            end: 300.0,
            offset: 0.150,
        });
        let before = s.stamp_rx(99.0) - 99.0;
        let during = s.stamp_rx(200.0) - 200.0;
        let after = s.stamp_rx(301.0) - 301.0;
        assert!(before < 1e-3, "no fault before window");
        assert!(
            (during - 0.150).abs() < 1e-3,
            "fault active inside window: {during}"
        );
        assert!(after < 1e-3, "no fault after window");
    }

    #[test]
    fn overlapping_faults_sum() {
        let mut s = ServerModel::new(6);
        s.add_fault(ServerFault {
            start: 0.0,
            end: 10.0,
            offset: 0.1,
        });
        s.add_fault(ServerFault {
            start: 5.0,
            end: 10.0,
            offset: 0.05,
        });
        let err = s.stamp_tx(7.0) - 7.0;
        assert!(err > 0.149, "overlapping faults should sum: {err}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_fault_window_panics() {
        let mut s = ServerModel::new(7);
        s.add_fault(ServerFault {
            start: 10.0,
            end: 10.0,
            offset: 0.1,
        });
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ServerModel::new(8);
        let mut b = ServerModel::new(8);
        for i in 0..100 {
            let t = i as f64;
            assert_eq!(a.residence(t), b.residence(t));
            assert_eq!(a.stamp_rx(t), b.stamp_rx(t));
            assert_eq!(a.stamp_tx(t), b.stamp_tx(t));
        }
    }
}
