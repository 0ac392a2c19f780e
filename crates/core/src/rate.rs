//! Global rate synchronization `p̂(t)` (§5.2).
//!
//! The base algorithm is deliberately simple: take the first two packets
//! with point error below `E*`, form the pair estimate (equation (17),
//! averaged over forward and backward paths), then keep `j` fixed and move
//! `i` to each newly accepted packet. The growing baseline `Δ(t)` damps
//! every residual error at rate `1/Δ(t)` — "error reduction is guaranteed
//! ... without any need for complex filtering. Even if connectivity to the
//! server were lost completely, the current value of p̂ remains valid."
//!
//! The warm-up phase (§6.1) bootstraps from the naive estimate `p̂₂,₁` and
//! then behaves like a local-rate algorithm: best-quality packets are
//! selected in growing near and far sub-windows (width `Δ(t)/4`), so early
//! congestion cannot poison the estimate.
//!
//! A consistency guard (the "high level sanity checking" philosophy of
//! §5.2/§6) rejects post-warmup updates that disagree with the current
//! estimate by far more than the combined quality bounds allow — the
//! defence that limits the damage of the Figure 11(b) server-fault event,
//! where `Tb`/`Te` were off by 150 ms while RTTs looked perfect.

use crate::history::{History, PacketRecord};
use crate::naive::{naive_rate, pair_estimate};

/// Events the rate estimator can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateEvent {
    /// The estimate changed.
    Updated,
    /// A candidate update was rejected by the consistency guard.
    SanityRejected,
    /// Packet not used (point error above `E*`).
    RejectedQuality,
}

/// The global rate estimator.
#[derive(Debug, Clone)]
pub struct GlobalRate {
    e_star: f64,
    warmup_packets: usize,
    /// Records seen during warm-up (bounded by `warmup_packets`).
    warmup: Vec<PacketRecord>,
    /// The fixed older packet of the estimating pair.
    j: Option<PacketRecord>,
    /// The newest accepted packet of the pair.
    i: Option<PacketRecord>,
    p_hat: Option<f64>,
    /// Error bound of the current estimate, `(Ei + Ej)/Δt`.
    quality: f64,
    n_seen: u64,
    /// The `History::rebase_gen` the pair and warm-up copies were last
    /// re-read at. Memory only: it starts at `u64::MAX`, so the first
    /// refresh after construction or a restore re-reads the copies, which
    /// finds them current and changes nothing.
    seen_gen: u64,
}

impl GlobalRate {
    /// Creates the estimator with acceptance threshold `e_star` (seconds)
    /// and warm-up length in packets.
    pub fn new(e_star: f64, warmup_packets: usize) -> Self {
        assert!(e_star > 0.0, "E* must be positive");
        Self {
            e_star,
            warmup_packets: warmup_packets.max(2),
            warmup: Vec::new(),
            j: None,
            i: None,
            p_hat: None,
            quality: f64::INFINITY,
            n_seen: 0,
            seen_gen: u64::MAX,
        }
    }

    /// Current estimate (seconds per count), if any.
    pub fn p_hat(&self) -> Option<f64> {
        self.p_hat
    }

    /// Error bound of the current estimate (`∞` before warm-up completes).
    pub fn quality(&self) -> f64 {
        self.quality
    }

    /// `true` while in the §6.1 warm-up phase.
    pub fn in_warmup(&self) -> bool {
        (self.n_seen as usize) < self.warmup_packets
    }

    /// Seeds the initial estimate (the naive `p̂₂,₁`) before any packet has
    /// been processed — used by the clock's bootstrap, which needs a period
    /// to compute point errors for the very first admissions.
    pub fn seed(&mut self, p0: f64) {
        if self.p_hat.is_none() && p0.is_finite() && p0 > 0.0 {
            self.p_hat = Some(p0);
        }
    }

    /// Processes an admitted packet. `history` is consulted to refresh the
    /// stored pair copies: §6.1 requires that whenever `r̂` is updated "the
    /// past point errors effectively change ... the quality of the rate
    /// estimate is reassessed and used as normal".
    pub fn process(&mut self, history: &History, record: &PacketRecord) -> RateEvent {
        self.n_seen += 1;
        self.refresh(history);
        if (self.n_seen as usize) <= self.warmup_packets {
            return self.process_warmup(history, record);
        }
        self.process_steady(record)
    }

    /// Refreshes the stored pair copies (and warm-up records) against the
    /// live history, picking up any point-error re-evaluation, then
    /// reassesses the current estimate's quality.
    fn refresh(&mut self, history: &History) {
        // Stored records only ever change through baseline re-evaluation
        // (§6.1), so refreshing a copy means re-reading its baseline, and
        // the baselines move only with the re-basing generation. That
        // includes the warm-up list, whose newest entries were admitted
        // under the baselines in force and so are current by construction.
        let gen = history.rebase_gen();
        if gen != self.seen_gen {
            self.seen_gen = gen;
            let copies = [&mut self.j, &mut self.i].into_iter().flatten();
            for rec in copies.chain(self.warmup.iter_mut()) {
                if let Some(fresh) = history.get(rec.idx) {
                    rec.rbase_c = fresh.rbase_c;
                }
            }
        }
        // The pair's bound under the current p̂: `pair_estimate`'s
        // `(Ei + Ej)/(Δc·p̂)`, without re-deriving the pair's rate. A pair
        // with no positive baseline keeps the bound it has.
        if let (Some(j), Some(i), Some(p)) = (self.j, self.i, self.p_hat) {
            let baseline = i.ex.tf_tsc.wrapping_sub(j.ex.tf_tsc) as i64 as f64 * p;
            if baseline > 0.0 {
                self.quality = (i.point_error(p) + j.point_error(p)) / baseline;
            }
        }
    }

    fn process_warmup(&mut self, _history: &History, record: &PacketRecord) -> RateEvent {
        self.warmup.push(*record);
        let n = self.warmup.len();
        if n < 2 {
            return RateEvent::RejectedQuality;
        }
        // First estimate: the naive p̂₂,₁.
        if self.p_hat.is_none() {
            if let Some(p) = naive_rate(&self.warmup[0].ex, &self.warmup[1].ex) {
                if p.is_finite() && p > 0.0 {
                    self.p_hat = Some(p);
                    self.j = Some(self.warmup[0]);
                    self.i = Some(self.warmup[1]);
                }
            }
            return RateEvent::Updated;
        }
        let p_ref = self.p_hat.expect("set above");
        // Near/far sub-windows of width Δ(t)/4 (in packets), minimum 1.
        let w = (n / 4).max(1);
        let best = |slice: &[PacketRecord]| -> PacketRecord {
            *slice
                .iter()
                .min_by(|a, b| {
                    a.point_error(p_ref)
                        .partial_cmp(&b.point_error(p_ref))
                        .expect("finite point errors")
                })
                .expect("non-empty slice")
        };
        let j = best(&self.warmup[..w]);
        let i = best(&self.warmup[n - w..]);
        if i.idx == j.idx {
            return RateEvent::RejectedQuality;
        }
        if let Some(pe) = pair_estimate(
            &j.ex,
            &i.ex,
            j.point_error(p_ref),
            i.point_error(p_ref),
            p_ref,
        ) {
            self.p_hat = Some(pe.p_hat);
            self.quality = pe.error_bound;
            self.j = Some(j);
            self.i = Some(i);
            if self.warmup.len() >= self.warmup_packets {
                // leaving warm-up: §5.2 initialisation semantics now apply,
                // with (j, i) the best-quality pair found so far.
                tsc_telemetry::add(tsc_telemetry::Ctr::WarmupExits, 1);
                tsc_telemetry::event(
                    tsc_telemetry::EventKind::WarmupExit,
                    self.n_seen,
                    self.warmup.len() as u64,
                    0,
                );
                self.warmup.clear();
                self.warmup.shrink_to_fit();
            }
            RateEvent::Updated
        } else {
            RateEvent::RejectedQuality
        }
    }

    fn process_warmup_entry(&mut self, record: &PacketRecord) -> RateEvent {
        self.warmup.push(*record);
        let n = self.warmup.len();
        if n < 2 {
            return RateEvent::RejectedQuality;
        }
        if let Some(p) = naive_rate(&self.warmup[n - 2].ex, &self.warmup[n - 1].ex) {
            if p.is_finite() && p > 0.0 {
                self.p_hat = Some(p);
                self.j = Some(self.warmup[n - 2]);
                self.i = Some(self.warmup[n - 1]);
                return RateEvent::Updated;
            }
        }
        RateEvent::RejectedQuality
    }

    fn process_steady(&mut self, record: &PacketRecord) -> RateEvent {
        let p_ref = match self.p_hat {
            Some(p) => p,
            // Degenerate warm-up (e.g. every packet identical): restart it.
            None => {
                return self.process_warmup_entry(record);
            }
        };
        let e_k = record.point_error(p_ref);
        if e_k >= self.e_star {
            return RateEvent::RejectedQuality;
        }
        let j = match self.j {
            Some(j) => j,
            None => {
                self.j = Some(*record);
                return RateEvent::RejectedQuality;
            }
        };
        let e_j = j.point_error(p_ref);
        let Some(pe) = pair_estimate(&j.ex, &record.ex, e_j, e_k, p_ref) else {
            return RateEvent::RejectedQuality;
        };
        // Consistency guard: a legitimate new estimate differs from the
        // current one by at most the two quality bounds (plus the 0.1 PPM
        // hardware drift allowance). Server-timestamp faults produce huge
        // apparent rate steps with tiny RTT error — exactly what this
        // rejects.
        let rel_step = ((pe.p_hat - p_ref) / p_ref).abs();
        let allowance = 3.0 * (pe.error_bound + self.quality.min(1.0)) + 1e-7;
        if rel_step > allowance {
            return RateEvent::SanityRejected;
        }
        self.p_hat = Some(pe.p_hat);
        self.quality = pe.error_bound;
        self.i = Some(*record);
        RateEvent::Updated
    }

    /// §6.1 "Windowing": when the top-level window slides, the pair's `j`
    /// may have been discarded. Replace it by `candidate` ("the first packet
    /// in the new window of similar or better point quality") when the
    /// current `j` predates `oldest_retained_idx`.
    pub fn replace_j_if_dropped(&mut self, oldest_retained_idx: u64, candidate: Option<PacketRecord>) {
        if let Some(j) = self.j {
            if j.idx < oldest_retained_idx {
                if let Some(c) = candidate {
                    self.j = Some(c);
                    // Re-derive the estimate quality from the new pair; keep
                    // the estimate itself if the new pair is degenerate.
                    if let (Some(i), Some(p_ref)) = (self.i, self.p_hat) {
                        if let Some(pe) = pair_estimate(
                            &c.ex,
                            &i.ex,
                            c.point_error(p_ref),
                            i.point_error(p_ref),
                            p_ref,
                        ) {
                            // §6.1: "pˆ(t) is updated if it exceeds the
                            // current quality"
                            if pe.error_bound <= self.quality {
                                self.p_hat = Some(pe.p_hat);
                                self.quality = pe.error_bound;
                            }
                        }
                    }
                }
                // with no candidate: keep the estimate, j stays (stale data
                // already copied out — only its timestamps matter).
            }
        }
    }

    /// Serializes the estimator's state: warm-up records, the estimating
    /// pair, the estimate and its quality. `E*` and the warm-up length are
    /// the configuration's, and the packet count is the history's (the
    /// clock feeds every admitted packet to both).
    pub fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        PacketRecord::save_all(&self.warmup, w);
        PacketRecord::save_all(self.j.as_slice(), w);
        PacketRecord::save_all(self.i.as_slice(), w);
        w.put_opt_f64(self.p_hat);
        w.put_f64(self.quality);
    }

    /// Overwrites this estimator's state with one written by
    /// [`GlobalRate::save_state`]; `self` comes from the configuration's
    /// [`GlobalRate::new`], and `n_seen` is the packets admitted so far.
    /// An estimate that is not a positive, finite period is refused.
    pub fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
        n_seen: u64,
    ) -> Result<(), crate::SnapshotError> {
        self.warmup = PacketRecord::load_all(r, self.warmup_packets)?;
        self.j = PacketRecord::load_all(r, 1)?.pop();
        self.i = PacketRecord::load_all(r, 1)?.pop();
        self.p_hat = r.get_opt_f64()?;
        if self.p_hat.is_some_and(|p| !(p.is_finite() && p > 0.0)) {
            return Err(crate::SnapshotError::Invalid("rate estimate not a positive period"));
        }
        self.quality = r.get_f64()?;
        self.n_seen = n_seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::RawExchange;
    use crate::history::History;

    const P_TRUE: f64 = 1.0000524e-9; // 1 GHz +52.4 PPM

    /// Clean exchange at true time `t` with optional extra symmetric
    /// queueing `q` (seconds, applied to the response path).
    fn ex(t: f64, q: f64) -> RawExchange {
        let d = 450e-6;
        let s = 20e-6;
        RawExchange {
            ta_tsc: (t / P_TRUE).round() as u64,
            tb: t + d,
            te: t + d + s,
            tf_tsc: ((t + 2.0 * d + s + q) / P_TRUE).round() as u64,
        }
    }

    fn feed(rate: &mut GlobalRate, h: &mut History, e: RawExchange) -> RateEvent {
        h.push(e);
        let r = h.last().unwrap();
        rate.process(h, &r)
    }

    #[test]
    fn converges_to_true_period_on_clean_data() {
        let mut rate = GlobalRate::new(300e-6, 8);
        let mut h = History::new(10_000);
        for k in 0..500 {
            feed(&mut rate, &mut h, ex(k as f64 * 16.0, 0.0));
        }
        let p = rate.p_hat().unwrap();
        let rel = ((p - P_TRUE) / P_TRUE).abs();
        assert!(rel < 1e-7, "rel error {rel:.2e}");
        assert!(!rate.in_warmup());
    }

    #[test]
    fn error_falls_below_0_1_ppm_and_stays() {
        let mut rate = GlobalRate::new(300e-6, 8);
        let mut h = History::new(100_000);
        let mut rels = Vec::new();
        for k in 0..5400 {
            // occasional 5 ms congestion spikes
            let q = if k % 37 == 0 { 5e-3 } else { 30e-6 * ((k % 7) as f64) };
            feed(&mut rate, &mut h, ex(k as f64 * 16.0, q));
            if let Some(p) = rate.p_hat() {
                rels.push(((p - P_TRUE) / P_TRUE).abs());
            }
        }
        // after a day of 16 s polls the error must be < 0.1 PPM (Figure 7)
        let tail = &rels[rels.len() - 100..];
        for (n, r) in tail.iter().enumerate() {
            assert!(*r < 1e-7, "tail error {r:.2e} at {n}");
        }
    }

    #[test]
    fn congested_packets_are_rejected() {
        let mut rate = GlobalRate::new(300e-6, 4);
        let mut h = History::new(1000);
        for k in 0..20 {
            feed(&mut rate, &mut h, ex(k as f64 * 16.0, 0.0));
        }
        // heavy congestion: point error 10 ms >> E* = 0.3 ms
        let ev = feed(&mut rate, &mut h, ex(20.0 * 16.0, 10e-3));
        assert_eq!(ev, RateEvent::RejectedQuality);
    }

    #[test]
    fn warmup_survives_early_congestion() {
        let mut rate = GlobalRate::new(300e-6, 16);
        let mut h = History::new(1000);
        // the second packet is badly congested: naive p̂₂,₁ is poor, but the
        // best-in-subwindow selection must recover during warm-up
        feed(&mut rate, &mut h, ex(0.0, 0.0));
        feed(&mut rate, &mut h, ex(16.0, 20e-3));
        for k in 2..16 {
            feed(&mut rate, &mut h, ex(k as f64 * 16.0, 0.0));
        }
        let p = rate.p_hat().unwrap();
        let rel = ((p - P_TRUE) / P_TRUE).abs();
        assert!(rel < 50e-6, "warmup rel error {rel:.2e}");
    }

    #[test]
    fn server_fault_is_sanity_rejected() {
        let mut rate = GlobalRate::new(300e-6, 8);
        let mut h = History::new(10_000);
        for k in 0..600 {
            feed(&mut rate, &mut h, ex(k as f64 * 16.0, 0.0));
        }
        let p_before = rate.p_hat().unwrap();
        // server clock jumps 150 ms: Tb/Te wrong, RTT unaffected
        let mut bad = ex(600.0 * 16.0, 0.0);
        bad.tb += 0.150;
        bad.te += 0.150;
        h.push(bad);
        let r = h.last().unwrap();
        let ev = rate.process(&h, &r);
        assert_eq!(ev, RateEvent::SanityRejected);
        assert_eq!(rate.p_hat().unwrap(), p_before);
    }

    #[test]
    fn quality_improves_with_baseline() {
        let mut rate = GlobalRate::new(300e-6, 8);
        let mut h = History::new(100_000);
        // clean start establishes the true minimum, then every packet
        // carries 10-30 µs of queueing so point errors are strictly positive
        for k in 0..8 {
            feed(&mut rate, &mut h, ex(k as f64 * 16.0, 0.0));
        }
        let mut q_at_100 = 0.0;
        for k in 8..2000 {
            let q = 10e-6 + 20e-6 * ((k as f64 * 0.618).fract());
            feed(&mut rate, &mut h, ex(k as f64 * 16.0, q));
            if k == 100 {
                q_at_100 = rate.quality();
            }
        }
        assert!(q_at_100 > 0.0, "quality must be positive with noise");
        assert!(
            rate.quality() < q_at_100 / 5.0,
            "quality must improve: {} vs {}",
            rate.quality(),
            q_at_100
        );
    }

    #[test]
    fn j_replacement_on_window_slide() {
        let mut rate = GlobalRate::new(300e-6, 4);
        let mut h = History::new(1000);
        for k in 0..50 {
            feed(&mut rate, &mut h, ex(k as f64 * 16.0, 0.0));
        }
        let j_idx = rate.j.unwrap().idx;
        assert!(j_idx < 10);
        // pretend the window slid past packet 30
        let candidate = h.get(31).unwrap();
        rate.replace_j_if_dropped(30, Some(candidate));
        assert_eq!(rate.j.unwrap().idx, 31);
        // estimate still sane
        let rel = ((rate.p_hat().unwrap() - P_TRUE) / P_TRUE).abs();
        assert!(rel < 1e-6);
    }

    #[test]
    fn no_estimate_before_two_packets() {
        let mut rate = GlobalRate::new(300e-6, 8);
        let mut h = History::new(100);
        assert!(rate.p_hat().is_none());
        feed(&mut rate, &mut h, ex(0.0, 0.0));
        assert!(rate.p_hat().is_none());
        feed(&mut rate, &mut h, ex(16.0, 0.0));
        assert!(rate.p_hat().is_some());
    }
}
