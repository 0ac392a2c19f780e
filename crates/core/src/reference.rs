//! The **pre-optimization reference pipeline**, preserved verbatim.
//!
//! This module is the original ("naive formulas") implementation of the
//! §5–§6 pipeline exactly as it stood before the O(1)-amortized rework of
//! `history`/`offset`/`local_rate`:
//!
//! * [`RefHistory`] re-bases eagerly: every new RTT minimum sweeps the
//!   whole retained deque, every window slide rescans the retained half to
//!   recompute `r̂`, and upward shifts rewrite the stored baselines in
//!   place — O(window) per event.
//! * [`RefOffsetEstimator`] runs the §5.3 weighted sum as full window
//!   scans repeated from scratch on every packet (estimate, then a second
//!   scan for the error bound) — the plain transcription of the
//!   factored-weight estimator definition that the optimized pipeline
//!   maintains incrementally (see the `offset` module docs). The weight
//!   *definition* (excess-over-window-minimum exponential, frozen weight
//!   rate ρ after warm-up) is shared with the optimized estimator so the
//!   differential suite can pin θ̂ parity at 1e-12; the *mechanism* here
//!   stays O(window) per packet.
//! * [`RefLocalRate`] collects the τ̄-span window into a temporary `Vec`
//!   each packet before selecting the near/far best-quality packets.
//!
//! It exists as a test oracle, gated behind `cfg(test)` or the `reference`
//! feature (which only the root package's dev-dependency enables) so
//! production builds never carry it: the **differential suites**
//! (`tests/proptest_invariants.rs`, `tests/incremental_offset.rs`) drive
//! this pipeline and the optimized one over random scenarios and assert
//! estimate parity (`p̂`, `θ̂`, point errors).
//!
//! Nothing here should be "improved" — its value is precisely that it
//! stays the naive transcription of the paper's formulas.

use crate::clock::ClockEvent;
use crate::config::ClockConfig;
use crate::exchange::RawExchange;
use crate::history::{PacketRecord, PushOutcome};
use crate::naive::{naive_offset, naive_rate, pair_estimate};
use crate::offset::OffsetEvent;
use crate::rate::RateEvent;
use crate::shift::ShiftDetector;
use std::collections::VecDeque;

/// Seed-era history: eager sweeps, full-deque rescans.
#[derive(Debug, Clone)]
pub struct RefHistory {
    records: VecDeque<PacketRecord>,
    cap: usize,
    rtt_min_c: f64,
    shift_floor_idx: u64,
    next_idx: u64,
}

impl RefHistory {
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 4, "history window too small");
        Self {
            records: VecDeque::with_capacity(cap.min(1 << 20)),
            cap,
            rtt_min_c: f64::INFINITY,
            shift_floor_idx: 0,
            next_idx: 0,
        }
    }

    pub fn push(&mut self, ex: RawExchange) -> (u64, PushOutcome) {
        let idx = self.next_idx;
        self.next_idx += 1;
        let rtt_c = ex.rtt_counts() as f64;
        let mut window_slid = false;
        if self.records.len() == self.cap {
            for _ in 0..self.cap / 2 {
                self.records.pop_front();
            }
            self.recompute_min();
            window_slid = true;
        }
        let new_minimum = rtt_c < self.rtt_min_c;
        if new_minimum {
            self.rtt_min_c = rtt_c;
            let floor = self.shift_floor_idx;
            for r in self.records.iter_mut() {
                if r.idx >= floor && r.rbase_c > rtt_c {
                    r.rbase_c = rtt_c;
                }
            }
        }
        self.records.push_back(PacketRecord {
            idx,
            ex,
            rbase_c: self.rtt_min_c,
        });
        (idx, PushOutcome {
            window_slid,
            new_minimum,
        })
    }

    fn recompute_min(&mut self) {
        let floor = self.shift_floor_idx;
        let m = self
            .records
            .iter()
            .filter(|r| r.idx >= floor)
            .map(|r| r.rtt_c())
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            self.rtt_min_c = m;
        }
    }

    pub fn apply_upward_shift(&mut self, new_min_c: f64, shift_start_idx: u64) {
        self.rtt_min_c = new_min_c;
        self.shift_floor_idx = shift_start_idx;
        for r in self.records.iter_mut() {
            if r.idx >= shift_start_idx {
                r.rbase_c = new_min_c;
            }
        }
    }

    pub fn rtt_min_c(&self) -> f64 {
        self.rtt_min_c
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn total_admitted(&self) -> u64 {
        self.next_idx
    }

    pub fn last(&self) -> Option<&PacketRecord> {
        self.records.back()
    }

    pub fn get(&self, idx: u64) -> Option<&PacketRecord> {
        let front = self.records.front()?.idx;
        if idx < front {
            return None;
        }
        self.records.get((idx - front) as usize)
    }

    pub fn last_n(&self, n: usize) -> impl Iterator<Item = &PacketRecord> {
        let skip = self.records.len().saturating_sub(n);
        self.records.iter().skip(skip)
    }

    pub fn iter(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter()
    }

    pub fn first(&self) -> Option<&PacketRecord> {
        self.records.front()
    }
}

/// Seed-era global rate estimator (identical logic to the optimized one,
/// but reading the eagerly re-based [`RefHistory`]).
#[derive(Debug, Clone)]
pub struct RefGlobalRate {
    e_star: f64,
    warmup_packets: usize,
    warmup: Vec<PacketRecord>,
    j: Option<PacketRecord>,
    i: Option<PacketRecord>,
    p_hat: Option<f64>,
    quality: f64,
    n_seen: u64,
}

impl RefGlobalRate {
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
        }
    }

    pub fn p_hat(&self) -> Option<f64> {
        self.p_hat
    }

    pub fn quality(&self) -> f64 {
        self.quality
    }

    pub fn in_warmup(&self) -> bool {
        (self.n_seen as usize) < self.warmup_packets
    }

    pub fn seed(&mut self, p0: f64) {
        if self.p_hat.is_none() && p0.is_finite() && p0 > 0.0 {
            self.p_hat = Some(p0);
        }
    }

    pub fn process(&mut self, history: &RefHistory, record: &PacketRecord) -> RateEvent {
        self.n_seen += 1;
        self.refresh_from(history);
        if (self.n_seen as usize) <= self.warmup_packets {
            return self.process_warmup(record);
        }
        self.process_steady(record)
    }

    fn refresh_from(&mut self, history: &RefHistory) {
        for slot in [&mut self.j, &mut self.i].into_iter().flatten() {
            if let Some(fresh) = history.get(slot.idx) {
                *slot = *fresh;
            }
        }
        for rec in self.warmup.iter_mut() {
            if let Some(fresh) = history.get(rec.idx) {
                *rec = *fresh;
            }
        }
        if let (Some(j), Some(i), Some(p)) = (self.j, self.i, self.p_hat) {
            if i.idx != j.idx {
                if let Some(pe) =
                    pair_estimate(&j.ex, &i.ex, j.point_error(p), i.point_error(p), p)
                {
                    self.quality = pe.error_bound;
                }
            }
        }
    }

    fn process_warmup(&mut self, record: &PacketRecord) -> RateEvent {
        self.warmup.push(*record);
        let n = self.warmup.len();
        if n < 2 {
            return RateEvent::RejectedQuality;
        }
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

    pub fn replace_j_if_dropped(
        &mut self,
        oldest_retained_idx: u64,
        candidate: Option<PacketRecord>,
    ) {
        if let Some(j) = self.j {
            if j.idx < oldest_retained_idx {
                if let Some(c) = candidate {
                    self.j = Some(c);
                    if let (Some(i), Some(p_ref)) = (self.i, self.p_hat) {
                        if let Some(pe) = pair_estimate(
                            &c.ex,
                            &i.ex,
                            c.point_error(p_ref),
                            i.point_error(p_ref),
                            p_ref,
                        ) {
                            if pe.error_bound <= self.quality {
                                self.p_hat = Some(pe.p_hat);
                                self.quality = pe.error_bound;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Seed-era quasi-local rate estimator (collects the window into a `Vec`).
#[derive(Debug, Clone)]
pub struct RefLocalRate {
    n_bar: usize,
    w_split: usize,
    gamma_star: f64,
    rate_sanity: f64,
    activate_after: u64,
    freshness: f64,
    p_l: Option<f64>,
    updated_at_tfc: f64,
}

impl RefLocalRate {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n_bar: usize,
        w_split: usize,
        gamma_star: f64,
        rate_sanity: f64,
        activate_after: u64,
        freshness_seconds: f64,
    ) -> Self {
        assert!(w_split >= 3, "W must be at least 3");
        Self {
            n_bar: n_bar.max(w_split),
            w_split,
            gamma_star,
            rate_sanity,
            activate_after,
            freshness: freshness_seconds,
            p_l: None,
            updated_at_tfc: f64::NAN,
        }
    }

    pub fn p_local(&self) -> Option<f64> {
        self.p_l
    }

    pub fn gamma_l(&self, p_bar: f64, tf_c: f64) -> Option<f64> {
        let p_l = self.p_l?;
        if !self.updated_at_tfc.is_finite() {
            return None;
        }
        let age = (tf_c - self.updated_at_tfc) * p_bar;
        if age > self.freshness {
            return None;
        }
        Some(p_l / p_bar - 1.0)
    }

    pub fn process(
        &mut self,
        history: &RefHistory,
        k: &PacketRecord,
        p_ref: f64,
    ) -> crate::local_rate::LocalRateEvent {
        use crate::local_rate::LocalRateEvent;
        if history.total_admitted() < self.activate_after || history.len() < self.n_bar {
            return LocalRateEvent::Inactive;
        }
        let near_n = (self.n_bar / self.w_split).max(1);
        let far_n = (2 * self.n_bar / self.w_split).max(1);
        let span = self.n_bar + self.n_bar / self.w_split;
        let window: Vec<&PacketRecord> = history.last_n(span).collect();
        if window.len() < near_n + far_n + 1 {
            return LocalRateEvent::Inactive;
        }
        let best = |slice: &[&PacketRecord]| -> PacketRecord {
            **slice
                .iter()
                .min_by(|a, b| {
                    a.point_error(p_ref)
                        .partial_cmp(&b.point_error(p_ref))
                        .expect("finite point errors")
                })
                .expect("non-empty")
        };
        let far = best(&window[..far_n]);
        let near = best(&window[window.len() - near_n..]);
        if near.idx == far.idx {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        }
        let Some(pe) = pair_estimate(
            &far.ex,
            &near.ex,
            far.point_error(p_ref),
            near.point_error(p_ref),
            p_ref,
        ) else {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        };
        if pe.error_bound > self.gamma_star {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        }
        if let Some(prev) = self.p_l {
            if ((pe.p_hat - prev) / prev).abs() > self.rate_sanity {
                return self.duplicate(k, LocalRateEvent::SanityDuplicated);
            }
        }
        self.p_l = Some(pe.p_hat);
        self.updated_at_tfc = k.tf_c();
        LocalRateEvent::Updated
    }

    fn duplicate(
        &mut self,
        k: &PacketRecord,
        ev: crate::local_rate::LocalRateEvent,
    ) -> crate::local_rate::LocalRateEvent {
        if self.p_l.is_some() {
            self.updated_at_tfc = k.tf_c();
            ev
        } else {
            crate::local_rate::LocalRateEvent::Inactive
        }
    }
}

/// Full-scan offset estimator: the §5.3 scheme with per-packet window
/// scans (no rolling state whatsoever).
#[derive(Debug, Clone)]
pub struct RefOffsetEstimator {
    theta: Option<f64>,
    last_tfc: f64,
    last_err: f64,
    sanity_run: u32,
    /// Frozen weight rate ρ (NaN until the first call) — the same freeze
    /// rule as the optimized estimator, so the weight scales agree
    /// bit-for-bit.
    rho: f64,
}

impl Default for RefOffsetEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RefOffsetEstimator {
    pub fn new() -> Self {
        Self {
            theta: None,
            last_tfc: f64::NAN,
            last_err: f64::INFINITY,
            sanity_run: 0,
            rho: f64::NAN,
        }
    }

    pub fn theta(&self) -> Option<f64> {
        self.theta
    }

    pub fn predict(&self, tf_c: f64, p_hat: f64, gamma_l: Option<f64>) -> Option<f64> {
        let th = self.theta?;
        match gamma_l {
            Some(g) if self.last_tfc.is_finite() => {
                Some(th - g * (tf_c - self.last_tfc) * p_hat)
            }
            _ => Some(th),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn process(
        &mut self,
        cfg: &ClockConfig,
        history: &RefHistory,
        k: &PacketRecord,
        p_hat: f64,
        c_bar: f64,
        gamma_l: Option<f64>,
        warmup: bool,
        gap_large: bool,
    ) -> (f64, OffsetEvent) {
        let theta_of = |r: &PacketRecord| {
            r.ex.host_midpoint_counts() * p_hat + c_bar - r.ex.server_midpoint()
        };
        let e_scale = cfg.quality_scale * if warmup { 3.0 } else { 1.0 };
        let window_n = cfg.tau_prime_packets();
        let g = gamma_l.unwrap_or(0.0);
        let eps = cfg.aging_rate;
        // Same freeze rule as the optimized estimator: the counter-domain
        // weight scale uses the ρ frozen at the very first evaluation
        // (the quality scale itself still follows warm-up's 3E).
        if self.rho.is_nan() {
            self.rho = p_hat;
        }
        let inv_lambda_c = self.rho / (e_scale * crate::offset::WEIGHT_LAMBDA_FRAC);
        // Scan 1: the per-packet weight keys κᵢ and the window minimum.
        let kappas: Vec<f64> = history
            .last_n(window_n)
            .map(|r| (r.rtt_c() - r.rbase_c) - eps * r.tf_c())
            .collect();
        let kappa_min = kappas.iter().copied().fold(f64::INFINITY, f64::min);
        let min_et = (kappa_min + eps * k.tf_c()) * p_hat;
        // Scan 2: weights and weighted sums.
        let mut sum_w = 0.0;
        let mut sum_wth = 0.0;
        for (r, &kap) in history.last_n(window_n).zip(kappas.iter()) {
            let w = crate::fastmath::exp_clamped(-((kap - kappa_min) * inv_lambda_c));
            let age = (k.tf_c() - r.tf_c()) * p_hat;
            sum_w += w;
            sum_wth += w * (theta_of(r) - g * age);
        }

        let first = self.theta.is_none();
        // The window's best packet always carries weight 1 (excess 0), so
        // the gate is purely the §5.3(iii) quality condition.
        let quality_poor = min_et > cfg.e_fallback();

        let (candidate, mut event) = if quality_poor && !first {
            if gap_large {
                let e_new = k.point_error(p_hat);
                let elapsed = (k.tf_c() - self.last_tfc).max(0.0) * p_hat;
                let e_old = self.last_err + cfg.aging_rate * elapsed;
                let w_new = crate::fastmath::exp_clamped(-(e_new / e_scale).powi(2)).max(1e-300);
                let w_old = crate::fastmath::exp_clamped(-(e_old / e_scale).powi(2)).max(1e-300);
                let prev = self
                    .predict(k.tf_c(), p_hat, gamma_l)
                    .expect("theta set when !first");
                (
                    (w_new * theta_of(k) + w_old * prev) / (w_new + w_old),
                    OffsetEvent::GapBlend,
                )
            } else {
                let prev = self
                    .predict(k.tf_c(), p_hat, gamma_l)
                    .expect("theta set when !first");
                (prev, OffsetEvent::PoorQualityFallback)
            }
        } else {
            (sum_wth / sum_w.max(f64::MIN_POSITIVE), OffsetEvent::Weighted)
        };

        let elapsed = if self.last_tfc.is_finite() {
            ((k.tf_c() - self.last_tfc) * p_hat).max(0.0)
        } else {
            0.0
        };
        let sanity_threshold = cfg.offset_sanity + 1e-7 * elapsed;
        let max_run = (2 * cfg.tau_prime_packets()).max(64) as u32;
        let theta_new = match self.theta {
            Some(prev)
                if !warmup
                    && (candidate - prev).abs() > sanity_threshold
                    && self.sanity_run < max_run =>
            {
                event = OffsetEvent::SanityDuplicated;
                self.sanity_run += 1;
                prev
            }
            Some(_) => {
                if event == OffsetEvent::Weighted || event == OffsetEvent::GapBlend {
                    self.sanity_run = 0;
                }
                candidate
            }
            None => {
                event = OffsetEvent::Initialised;
                candidate
            }
        };

        self.theta = Some(theta_new);
        self.last_tfc = k.tf_c();
        if event == OffsetEvent::Weighted || event == OffsetEvent::Initialised {
            // A third full scan for the error bound — deliberately naive.
            let mut sw = 0.0;
            let mut swe = 0.0;
            for &kap in kappas.iter() {
                let w = crate::fastmath::exp_clamped(-((kap - kappa_min) * inv_lambda_c));
                let et = (kap + eps * k.tf_c()) * p_hat;
                sw += w;
                swe += w * et;
            }
            if sw > 0.0 {
                self.last_err = swe / sw;
            }
        } else {
            self.last_err += cfg.aging_rate * cfg.poll_period;
        }
        (theta_new, event)
    }
}

/// Per-packet output of [`ReferenceClock::process`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefOutput {
    pub idx: u64,
    pub rtt: f64,
    pub point_error: f64,
    pub theta_naive: f64,
    pub theta_hat: f64,
    pub p_hat: f64,
    pub p_local: Option<f64>,
    /// Events as the seed reported them: a heap-allocated list per packet
    /// (part of the cost profile the optimized pipeline eliminates).
    pub events: Vec<ClockEvent>,
}

/// The seed-era clock: identical orchestration to `TscNtpClock::process`,
/// wired to the eager reference components.
#[derive(Debug)]
pub struct ReferenceClock {
    cfg: ClockConfig,
    history: RefHistory,
    rate: RefGlobalRate,
    local_rate: RefLocalRate,
    offset: RefOffsetEstimator,
    shift: ShiftDetector,
    c_bar: f64,
    aligned: bool,
    pending_first: Option<RawExchange>,
    prev_tfc: f64,
}

impl ReferenceClock {
    pub fn new(cfg: ClockConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid clock configuration: {e}");
        }
        let top = cfg.top_packets().max(8);
        Self {
            cfg,
            history: RefHistory::new(top),
            rate: RefGlobalRate::new(cfg.e_star, cfg.warmup_packets),
            local_rate: RefLocalRate::new(
                cfg.tau_bar_packets(),
                cfg.w_split,
                cfg.gamma_star,
                cfg.rate_sanity,
                (cfg.warmup_packets + cfg.tau_bar_packets()) as u64,
                cfg.tau_bar / 2.0,
            ),
            offset: RefOffsetEstimator::new(),
            shift: ShiftDetector::new(cfg.ts_packets(), cfg.shift_mult * cfg.quality_scale),
            c_bar: 0.0,
            aligned: false,
            pending_first: None,
            prev_tfc: f64::NAN,
        }
    }

    pub fn process(&mut self, ex: RawExchange) -> Option<RefOutput> {
        if !ex.is_causal() {
            return None;
        }
        if self.rate.p_hat().is_none() && self.history.is_empty() {
            if let Some(first) = self.pending_first.take() {
                let p0 = naive_rate(&first, &ex).filter(|p| *p > 0.0)?;
                self.c_bar = first.server_midpoint() - first.host_midpoint_counts() * p0;
                self.aligned = true;
                self.rate.seed(p0);
                self.process_admitted(first);
                return Some(self.process_admitted(ex));
            }
            self.pending_first = Some(ex);
            return None;
        }
        Some(self.process_admitted(ex))
    }

    fn process_admitted(&mut self, ex: RawExchange) -> RefOutput {
        let mut events = Vec::new();
        let p_before = self.rate.p_hat().expect("rate bootstrapped");
        let theta_naive = naive_offset(&ex, p_before, self.c_bar);

        let (idx, outcome) = self.history.push(ex);
        if outcome.new_minimum {
            events.push(ClockEvent::NewRttMinimum);
        }
        if outcome.window_slid {
            events.push(ClockEvent::WindowSlid);
            let oldest = self.history.first().map(|r| r.idx).unwrap_or(0);
            let candidate = self.find_j_candidate(p_before);
            self.rate.replace_j_if_dropped(oldest, candidate);
        }
        let record = *self.history.last().expect("just pushed");

        match self.rate.process(&self.history, &record) {
            RateEvent::Updated => {
                let p_after = self.rate.p_hat().expect("updated");
                if p_after != p_before {
                    events.push(ClockEvent::RateUpdated);
                    self.c_bar += record.tf_c() * (p_before - p_after);
                }
            }
            RateEvent::SanityRejected => events.push(ClockEvent::RateSanity),
            RateEvent::RejectedQuality => {}
        }
        let p_hat = self.rate.p_hat().expect("rate exists");

        if let Some(shift) = self.shift.observe(
            idx,
            record.rtt_c(),
            self.history.rtt_min_c(),
            p_hat,
        ) {
            self.history
                .apply_upward_shift(shift.new_min_c, shift.start_idx);
            self.shift.reset();
            events.push(ClockEvent::UpwardShift);
        }

        let record = *self.history.last().expect("present");
        // Mirrors the optimized clock: a disabled local rate is not
        // maintained (see `TscNtpClock::process_admitted`).
        if self.cfg.use_local_rate {
            match self.local_rate.process(&self.history, &record, p_hat) {
                crate::local_rate::LocalRateEvent::Updated => {
                    events.push(ClockEvent::LocalRateUpdated)
                }
                crate::local_rate::LocalRateEvent::SanityDuplicated => {
                    events.push(ClockEvent::LocalRateSanity)
                }
                _ => {}
            }
        }

        let gap_large = self.prev_tfc.is_finite()
            && (record.tf_c() - self.prev_tfc) * p_hat > self.cfg.tau_bar / 2.0;
        let gamma_l = if self.cfg.use_local_rate && !gap_large {
            self.local_rate.gamma_l(p_hat, record.tf_c())
        } else {
            None
        };
        let warmup = self.rate.in_warmup();
        let (theta_hat, off_ev) = self.offset.process(
            &self.cfg,
            &self.history,
            &record,
            p_hat,
            self.c_bar,
            gamma_l,
            warmup,
            gap_large,
        );
        match off_ev {
            OffsetEvent::SanityDuplicated => events.push(ClockEvent::OffsetSanity),
            OffsetEvent::PoorQualityFallback | OffsetEvent::GapBlend => {
                events.push(ClockEvent::OffsetFallback)
            }
            _ => {}
        }

        self.prev_tfc = record.tf_c();

        RefOutput {
            idx,
            rtt: record.rtt_c() * p_hat,
            point_error: record.point_error(p_hat),
            theta_naive,
            theta_hat,
            p_hat,
            p_local: self.local_rate.p_local(),
            events,
        }
    }

    fn find_j_candidate(&self, p_hat: f64) -> Option<PacketRecord> {
        self.history
            .iter()
            .find(|r| r.point_error(p_hat) < self.cfg.e_star)
            .copied()
    }

    /// Immutable access to the reference history (diagnostics/tests).
    pub fn history(&self) -> &RefHistory {
        &self.history
    }
}
