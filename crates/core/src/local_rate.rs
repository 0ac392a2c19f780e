//! Quasi-local rate estimation `p̂l(t)` (§5.2).
//!
//! Local rates serve two optional purposes: extending the usable range of
//! the difference clock, and linear prediction inside the offset estimator
//! (equation (21)). Unlike the global `p̂`, the estimation *time-scale must
//! stay fixed* at `τ̄ = 5τ*`: the window is split into near / central / far
//! sub-windows of widths `τ̄/W`, `τ̄(W−2)/W` and `2τ̄/W`, the best-quality
//! packet is selected in the near and far sub-windows, and the pair
//! estimate is accepted only if its error bound beats the target quality
//! `γ*`; otherwise — and whenever the result would contradict the 0.1 PPM
//! hardware bound (the `3·10⁻⁷` step sanity check) — "the previous value
//! will be duplicated".

use crate::history::{History, PacketRecord};
use crate::naive::pair_estimate;

/// Events from a local-rate update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalRateEvent {
    /// New estimate accepted.
    Updated,
    /// Candidate exceeded γ* — previous value duplicated (§5.2).
    QualityDuplicated,
    /// Candidate violated the 3·10⁻⁷ step bound — previous value duplicated.
    SanityDuplicated,
    /// Not yet activated (window not full after warm-up).
    Inactive,
}

/// The quasi-local rate estimator.
#[derive(Debug, Clone)]
pub struct LocalRate {
    /// Window length in packets (τ̄ / poll).
    n_bar: usize,
    /// Near sub-window width in packets, τ̄/W (precomputed: pure config).
    near_n: usize,
    /// Far sub-window width in packets, 2τ̄/W (precomputed).
    far_n: usize,
    /// Total span τ̄(W+1)/W in packets (precomputed).
    span: usize,
    /// Target quality γ*.
    gamma_star: f64,
    /// Step sanity bound (3·10⁻⁷).
    rate_sanity: f64,
    /// Activation threshold: packets that must have been admitted
    /// (warm-up + a full window).
    activate_after: u64,
    /// Freshness horizon in seconds (τ̄/2): a data gap longer than this
    /// makes the local rate "out of date and ... not used" (§6.1).
    freshness: f64,
    p_l: Option<f64>,
    /// `Tf` (counts) of the packet at the last update.
    updated_at_tfc: f64,
    /// Rolling argmin deques over the far/near sub-windows: `(global idx,
    /// key)` candidates with strictly increasing keys, front = sub-window
    /// minimum (earliest on ties, matching `Iterator::min_by`). Keys are
    /// `rtt − r̂base` frozen at insertion; any re-basing event invalidates
    /// them, so the deques are rebuilt when `History::rebase_gen` moves
    /// (rare), and otherwise maintained with O(1) amortized push/evict.
    far_q: std::collections::VecDeque<(u64, f64)>,
    near_q: std::collections::VecDeque<(u64, f64)>,
    /// Rolling sums of the sub-window keys (counts domain), maintained
    /// next to the argmin deques with the same one-in/one-out updates and
    /// rebuilt with them — the O(1) source of the mean-excess congestion
    /// telemetry ([`LocalRate::near_mean_excess`] /
    /// [`LocalRate::far_mean_excess`]).
    far_sum: f64,
    near_sum: f64,
    /// Power-of-two ring mirrors of the sub-window keys (indexed by global
    /// idx): expiring a record reads its admission-time key straight off
    /// the ring instead of re-fetching and re-resolving it from the
    /// history (keys are gen-stable, so ring and re-resolution agree
    /// bit-for-bit between rebuilds).
    far_keys: Vec<f64>,
    near_keys: Vec<f64>,
    /// Exclusive end (global idx) of the far sub-window at the last call.
    far_hi: u64,
    /// `k.idx` of the last maintained call (consecutiveness check).
    last_k_idx: u64,
    /// `History::rebase_gen` the deque keys were resolved under.
    keys_gen: u64,
    /// Whether the deques currently mirror the sub-windows.
    synced: bool,
    /// Inputs of the last [`LocalRate::judge`]: `(far idx, near idx,
    /// rebase generation)`. The verdict is a pure function of these (the
    /// pair rate is `p̂`-independent; the quality bound's `p̂` scaling
    /// cancels), so when the stamp matches, the stored outcome is
    /// replayed instead of re-deriving the pair estimate — the common
    /// case at fine polling, where the selected pair survives many
    /// packets.
    judge_stamp: (u64, u64, u64),
    /// The memoized outcome: the event and the `p̂l` it left in place.
    judge_memo: Option<(LocalRateEvent, Option<f64>)>,
}

impl LocalRate {
    /// Creates the estimator.
    pub fn new(
        n_bar: usize,
        w_split: usize,
        gamma_star: f64,
        rate_sanity: f64,
        activate_after: u64,
        freshness_seconds: f64,
    ) -> Self {
        assert!(w_split >= 3, "W must be at least 3");
        let n_bar = n_bar.max(w_split);
        let near_n = (n_bar / w_split).max(1);
        let far_n = (2 * n_bar / w_split).max(1);
        Self {
            n_bar,
            near_n,
            far_n,
            span: n_bar + n_bar / w_split,
            gamma_star,
            rate_sanity,
            activate_after,
            freshness: freshness_seconds,
            p_l: None,
            updated_at_tfc: f64::NAN,
            far_q: std::collections::VecDeque::new(),
            near_q: std::collections::VecDeque::new(),
            far_sum: 0.0,
            near_sum: 0.0,
            far_keys: vec![0.0; far_n.next_power_of_two()],
            near_keys: vec![0.0; near_n.next_power_of_two()],
            far_hi: 0,
            last_k_idx: 0,
            keys_gen: 0,
            synced: false,
            judge_stamp: (u64::MAX, u64::MAX, u64::MAX),
            judge_memo: None,
        }
    }

    /// Current quasi-local period estimate, if any.
    pub fn p_local(&self) -> Option<f64> {
        self.p_l
    }

    /// Mean excess RTT of the *near* sub-window in seconds — congestion
    /// telemetry, O(1) off the rolling key sum. `None` while the rolling
    /// state is not mirroring the sub-windows (inactive, coarse-poll
    /// direct path, or just rebuilt away). Diagnostic-grade: the rolling
    /// sum carries float drift until the next re-basing rebuild.
    pub fn near_mean_excess(&self, p_ref: f64) -> Option<f64> {
        self.synced
            .then(|| self.near_sum / self.near_n as f64 * p_ref)
    }

    /// Mean excess RTT of the *far* sub-window in seconds (see
    /// [`LocalRate::near_mean_excess`]).
    pub fn far_mean_excess(&self, p_ref: f64) -> Option<f64> {
        self.synced.then(|| self.far_sum / self.far_n as f64 * p_ref)
    }

    /// Residual rate error `γ̂l = p̂l/p̄ − 1` relative to the global estimate,
    /// or `None` when unavailable or stale at host counter reading `tf_c`
    /// (the §6.1 gap rule).
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

    /// Runs the per-packet update for packet `k` against the history.
    /// `p_ref` is the current global rate estimate.
    pub fn process(&mut self, history: &History, k: &PacketRecord, p_ref: f64) -> LocalRateEvent {
        if history.total_admitted() < self.activate_after
            || history.len() < self.n_bar.min(history_capacity_guard(self.n_bar))
        {
            return LocalRateEvent::Inactive;
        }
        // Sub-window sizes in packets (§5.2): near τ̄/W, far 2τ̄/W; the far
        // window is the *oldest* part of the (τ̄(W+1)/W)-long span. The
        // sub-windows are read directly out of the history ring — no
        // per-packet buffer is collected.
        let (near_n, far_n, span) = (self.near_n, self.far_n, self.span);
        let len = history.len();
        let w = len.min(span);
        if w < near_n + far_n + 1 {
            return LocalRateEvent::Inactive;
        }
        // Sub-window minima by the counts-domain key `rtt − r̂base`:
        // ordering by it is identical to ordering by point error (the
        // positive factor p̂ preserves order), and the winner's point error
        // is then computed with exactly the seed's expression. The minima
        // come from rolling monotonic argmin deques maintained across
        // calls; a re-basing event or a non-consecutive call rebuilds them
        // from the history (O(sub-window), rare).
        let k_idx = k.idx;
        let far_lo = k_idx + 1 - w as u64;
        let far_hi = far_lo + far_n as u64;
        let near_lo = k_idx + 1 - near_n as u64;
        let gen = history.rebase_gen();
        let view = history.baseline_view();
        // Coarse-polling fast path: when both sub-windows are at most two
        // packets wide (poll periods near or above τ̄/W), the rolling
        // argmin deques cost more than reading the sub-windows directly.
        // Earliest-on-ties selection matches the deque front exactly.
        if near_n == 1 && far_n <= 2 {
            let earliest_min = |lo: u64, n: usize| -> (u64, f64) {
                let first = history.get_raw(lo).expect("retained");
                let mut best = (lo, first.rtt_c() - view.resolve(&first));
                for idx in lo + 1..lo + n as u64 {
                    let r = history.get_raw(idx).expect("retained");
                    let key = r.rtt_c() - view.resolve(&r);
                    if key < best.1 {
                        best = (idx, key);
                    }
                }
                best
            };
            let (far_idx, far_key) = earliest_min(far_lo, far_n);
            let near_key = k.rtt_c() - view.resolve(k);
            // The deques are no longer consistent with the sub-windows.
            self.synced = false;
            return self.judge(history, k, p_ref, far_idx, far_key, k_idx, near_key);
        }
        if self.synced
            && self.keys_gen == gen
            && self.last_k_idx.wrapping_add(1) == k_idx
            && far_hi.wrapping_sub(self.far_hi) <= 1
        {
            // Incremental step: at most one element enters (and one
            // leaves) each window. The rolling key sums move in lockstep
            // with the deques.
            if far_hi > self.far_hi {
                let r = history.get_raw(far_hi - 1).expect("retained");
                let key = r.rtt_c() - view.resolve(&r);
                Self::push_candidate(&mut self.far_q, far_hi - 1, key);
                // Read the expiring key out of the ring *before* storing
                // the entrant: when the sub-window size is an exact power
                // of two the two indices alias the same slot.
                let mask = self.far_keys.len() - 1;
                self.far_sum -= self.far_keys[(far_lo - 1) as usize & mask];
                self.far_keys[(far_hi - 1) as usize & mask] = key;
                self.far_sum += key;
            }
            let key = k.rtt_c() - view.resolve(k);
            Self::push_candidate(&mut self.near_q, k_idx, key);
            let mask = self.near_keys.len() - 1;
            self.near_sum -= self.near_keys[(near_lo - 1) as usize & mask];
            self.near_keys[k_idx as usize & mask] = key;
            self.near_sum += key;
        } else {
            // Rebuild the deques (and the rolling sums) from scratch.
            self.far_q.clear();
            self.near_q.clear();
            self.far_sum = 0.0;
            self.near_sum = 0.0;
            let start = len - w;
            let far_mask = self.far_keys.len() - 1;
            for r in history.range_raw(start, start + far_n) {
                let key = r.rtt_c() - view.resolve(&r);
                Self::push_candidate(&mut self.far_q, r.idx, key);
                self.far_keys[r.idx as usize & far_mask] = key;
                self.far_sum += key;
            }
            let near_mask = self.near_keys.len() - 1;
            for r in history.range_raw(len - near_n, len) {
                let key = r.rtt_c() - view.resolve(&r);
                Self::push_candidate(&mut self.near_q, r.idx, key);
                self.near_keys[r.idx as usize & near_mask] = key;
                self.near_sum += key;
            }
            self.keys_gen = gen;
            self.synced = true;
        }
        while matches!(self.far_q.front(), Some(&(i, _)) if i < far_lo) {
            self.far_q.pop_front();
        }
        while matches!(self.near_q.front(), Some(&(i, _)) if i < near_lo) {
            self.near_q.pop_front();
        }
        self.far_hi = far_hi;
        self.last_k_idx = k_idx;
        let &(far_idx, far_key) = self.far_q.front().expect("non-empty far window");
        let &(near_idx, near_key) = self.near_q.front().expect("non-empty near window");
        // Memoized verdict: the judgement is a pure function of the pair
        // identity and the re-basing generation (the pair rate never sees
        // p̂; the quality bound's p̂ scaling cancels), so an unchanged
        // stamp replays the stored outcome instead of re-deriving the
        // pair estimate.
        let stamp = (far_idx, near_idx, gen);
        if stamp == self.judge_stamp {
            if let Some((ev, pl)) = self.judge_memo {
                return match ev {
                    LocalRateEvent::Updated => {
                        self.p_l = pl;
                        self.updated_at_tfc = k.tf_c();
                        ev
                    }
                    LocalRateEvent::QualityDuplicated | LocalRateEvent::SanityDuplicated => {
                        self.duplicate(k, ev)
                    }
                    LocalRateEvent::Inactive => ev,
                };
            }
        }
        let ev = self.judge(history, k, p_ref, far_idx, far_key, near_idx, near_key);
        self.judge_stamp = stamp;
        self.judge_memo = Some((ev, self.p_l));
        ev
    }

    /// The §5.2 acceptance chain on the selected sub-window minima: pair
    /// estimate, γ* quality gate, 3·10⁻⁷ step sanity.
    #[allow(clippy::too_many_arguments)]
    fn judge(
        &mut self,
        history: &History,
        k: &PacketRecord,
        p_ref: f64,
        far_idx: u64,
        far_key: f64,
        near_idx: u64,
        near_key: f64,
    ) -> LocalRateEvent {
        if near_idx == far_idx {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        }
        let far_ex = history.get_raw(far_idx).expect("retained").ex;
        let near_ex = history.get_raw(near_idx).expect("retained").ex;
        let (far_pe, near_pe) = (far_key * p_ref, near_key * p_ref);
        let Some(pe) = pair_estimate(&far_ex, &near_ex, far_pe, near_pe, p_ref) else {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        };
        // Quality gate against γ*.
        if pe.error_bound > self.gamma_star {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        }
        // Step sanity against the hardware bound.
        if let Some(prev) = self.p_l {
            if ((pe.p_hat - prev) / prev).abs() > self.rate_sanity {
                return self.duplicate(k, LocalRateEvent::SanityDuplicated);
            }
        }
        self.p_l = Some(pe.p_hat);
        self.updated_at_tfc = k.tf_c();
        LocalRateEvent::Updated
    }

    /// Monotonic argmin push: drop candidates that can never win again
    /// (strictly worse keys), keeping earlier entries on ties so the front
    /// is always the earliest minimum.
    fn push_candidate(q: &mut std::collections::VecDeque<(u64, f64)>, idx: u64, key: f64) {
        while matches!(q.back(), Some(&(_, bk)) if bk > key) {
            q.pop_back();
        }
        q.push_back((idx, key));
    }

    /// "Conservative" duplication: keep the previous value but refresh its
    /// timestamp (the estimate was re-affirmed at packet `k`).
    fn duplicate(&mut self, k: &PacketRecord, ev: LocalRateEvent) -> LocalRateEvent {
        if self.p_l.is_some() {
            self.updated_at_tfc = k.tf_c();
            ev
        } else {
            LocalRateEvent::Inactive
        }
    }

    /// Serializes the estimator — window geometry, the current estimate,
    /// the rolling argmin deques with their key sums and rings, and the
    /// judge memo. The memo must round-trip verbatim: a cleared memo would
    /// re-derive the pair estimate on the first post-restore packet, and
    /// while the verdict is deterministic, the `Updated` replay path also
    /// refreshes `updated_at_tfc` — restoring the exact memo keeps the
    /// order of effects identical to the uninterrupted run.
    pub fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_usize(self.n_bar);
        w.put_usize(self.near_n);
        w.put_usize(self.far_n);
        w.put_usize(self.span);
        w.put_f64(self.gamma_star);
        w.put_f64(self.rate_sanity);
        w.put_u64(self.activate_after);
        w.put_f64(self.freshness);
        w.put_opt_f64(self.p_l);
        w.put_f64(self.updated_at_tfc);
        w.put_usize(self.far_q.len());
        for &(i, key) in &self.far_q {
            w.put_u64(i);
            w.put_f64(key);
        }
        w.put_usize(self.near_q.len());
        for &(i, key) in &self.near_q {
            w.put_u64(i);
            w.put_f64(key);
        }
        w.put_f64(self.far_sum);
        w.put_f64(self.near_sum);
        w.put_usize(self.far_keys.len());
        for &key in &self.far_keys {
            w.put_f64(key);
        }
        w.put_usize(self.near_keys.len());
        for &key in &self.near_keys {
            w.put_f64(key);
        }
        w.put_u64(self.far_hi);
        w.put_u64(self.last_k_idx);
        w.put_u64(self.keys_gen);
        w.put_bool(self.synced);
        w.put_u64(self.judge_stamp.0);
        w.put_u64(self.judge_stamp.1);
        w.put_u64(self.judge_stamp.2);
        match self.judge_memo {
            None => w.put_u8(0),
            Some((ev, pl)) => {
                w.put_u8(1);
                w.put_u8(match ev {
                    LocalRateEvent::Updated => 0,
                    LocalRateEvent::QualityDuplicated => 1,
                    LocalRateEvent::SanityDuplicated => 2,
                    LocalRateEvent::Inactive => 3,
                });
                w.put_opt_f64(pl);
            }
        }
    }

    /// Deserializes an estimator written by [`LocalRate::save_state`].
    pub fn load_state(
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, crate::SnapshotError> {
        use crate::SnapshotError as E;
        let n_bar = r.get_usize()?;
        let near_n = r.get_usize()?;
        let far_n = r.get_usize()?;
        let span = r.get_usize()?;
        if near_n == 0 || far_n == 0 || span < n_bar {
            return Err(E::Invalid("local-rate window geometry inconsistent"));
        }
        let gamma_star = r.get_f64()?;
        let rate_sanity = r.get_f64()?;
        let activate_after = r.get_u64()?;
        let freshness = r.get_f64()?;
        let p_l = r.get_opt_f64()?;
        let updated_at_tfc = r.get_f64()?;
        let load_q = |r: &mut crate::snapshot::SnapshotReader<'_>| -> Result<
            std::collections::VecDeque<(u64, f64)>,
            E,
        > {
            let n = r.get_len(16)?;
            let mut q = std::collections::VecDeque::with_capacity(n);
            for _ in 0..n {
                q.push_back((r.get_u64()?, r.get_f64()?));
            }
            Ok(q)
        };
        let far_q = load_q(r)?;
        let near_q = load_q(r)?;
        let far_sum = r.get_f64()?;
        let near_sum = r.get_f64()?;
        let load_keys = |r: &mut crate::snapshot::SnapshotReader<'_>,
                             want: usize|
         -> Result<Vec<f64>, E> {
            let n = r.get_len(8)?;
            if n != want.next_power_of_two() {
                return Err(E::Invalid("local-rate key ring size mismatch"));
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(r.get_f64()?);
            }
            Ok(keys)
        };
        let far_keys = load_keys(r, far_n)?;
        let near_keys = load_keys(r, near_n)?;
        let far_hi = r.get_u64()?;
        let last_k_idx = r.get_u64()?;
        let keys_gen = r.get_u64()?;
        let synced = r.get_bool()?;
        let judge_stamp = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
        let judge_memo = match r.get_u8()? {
            0 => None,
            1 => {
                let ev = match r.get_u8()? {
                    0 => LocalRateEvent::Updated,
                    1 => LocalRateEvent::QualityDuplicated,
                    2 => LocalRateEvent::SanityDuplicated,
                    3 => LocalRateEvent::Inactive,
                    _ => return Err(E::Invalid("unknown local-rate event tag")),
                };
                Some((ev, r.get_opt_f64()?))
            }
            _ => return Err(E::Invalid("option tag not 0/1")),
        };
        Ok(Self {
            n_bar,
            near_n,
            far_n,
            span,
            gamma_star,
            rate_sanity,
            activate_after,
            freshness,
            p_l,
            updated_at_tfc,
            far_q,
            near_q,
            far_sum,
            near_sum,
            far_keys,
            near_keys,
            far_hi,
            last_k_idx,
            keys_gen,
            synced,
            judge_stamp,
            judge_memo,
        })
    }
}

/// The history may be configured smaller than τ̄ in extreme configurations;
/// never demand more packets than could possibly be retained.
fn history_capacity_guard(n_bar: usize) -> usize {
    n_bar
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::RawExchange;
    use crate::history::History;

    const P0: f64 = 1.0000524e-9;

    /// Exchange at time t for a host whose true period drifts linearly:
    /// p(t) = P0 · (1 + drift·t).
    fn ex_drift(t: f64, drift_per_s: f64, q: f64) -> RawExchange {
        // counter reading = ∫ dt/p(t) ≈ (t − drift t²/2)/P0
        let count = |tt: f64| ((tt - drift_per_s * tt * tt / 2.0) / P0).round() as u64;
        let d = 450e-6;
        let s = 20e-6;
        RawExchange {
            ta_tsc: count(t),
            tb: t + d,
            te: t + d + s,
            tf_tsc: count(t + 2.0 * d + s + q),
        }
    }

    fn setup(n_bar: usize) -> (History, LocalRate) {
        (
            History::new(100_000),
            LocalRate::new(n_bar, 30, 0.05e-6, 3e-7, 8, 2500.0),
        )
    }

    #[test]
    fn inactive_until_window_full() {
        let (mut h, mut lr) = setup(100);
        for k in 0..50u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            assert_eq!(lr.process(&h, &r, P0), LocalRateEvent::Inactive);
        }
        assert!(lr.p_local().is_none());
    }

    #[test]
    fn recovers_constant_rate() {
        let (mut h, mut lr) = setup(100);
        let mut updated = false;
        for k in 0..400u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            if lr.process(&h, &r, P0) == LocalRateEvent::Updated {
                updated = true;
            }
        }
        assert!(updated);
        let p = lr.p_local().unwrap();
        assert!(((p - P0) / P0).abs() < 0.05e-6, "rel {:.2e}", (p - P0) / P0);
    }

    #[test]
    fn tracks_slow_drift_within_sanity_bound() {
        // 0.02 PPM per 1000 s drift — well inside 0.1 PPM at window scale
        let drift = 2e-11 / 1000.0 * 1000.0; // 2e-11 per second
        let (mut h, mut lr) = setup(100);
        let mut estimates = Vec::new();
        for k in 0..2000u64 {
            let t = k as f64 * 16.0;
            h.push(ex_drift(t, drift, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
            if let Some(p) = lr.p_local() {
                estimates.push((t, p));
            }
        }
        let (t0, p_first) = estimates[0];
        let (t1, p_last) = *estimates.last().unwrap();
        // true period grows: p(t) = P0(1+drift t); estimates must follow
        let expect_growth = drift * (t1 - t0);
        let seen_growth = (p_last - p_first) / P0;
        assert!(
            (seen_growth - expect_growth).abs() < 0.5 * expect_growth.abs() + 2e-8,
            "seen {seen_growth:.2e} vs expected {expect_growth:.2e}"
        );
    }

    #[test]
    fn congestion_triggers_quality_duplication() {
        let (mut h, mut lr) = setup(100);
        for k in 0..300u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let p_before = lr.p_local().unwrap();
        // sustained congestion: every packet +8 ms
        let mut saw_duplicate = false;
        for k in 300..330u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 8e-3));
            let r = h.last().unwrap();
            let ev = lr.process(&h, &r, P0);
            if ev == LocalRateEvent::QualityDuplicated || ev == LocalRateEvent::SanityDuplicated {
                saw_duplicate = true;
            }
        }
        assert!(saw_duplicate, "congestion must force duplication");
        // estimate essentially unchanged through the congestion episode
        // (the first packet or two may still legitimately update from the
        // remaining clean packets in the near window)
        let p_after = lr.p_local().unwrap();
        assert!(
            ((p_after - p_before) / p_before).abs() < 1e-9,
            "local rate moved under congestion: {:.3e}",
            (p_after - p_before) / p_before
        );
    }

    #[test]
    fn server_fault_cannot_move_local_rate_beyond_sanity() {
        let (mut h, mut lr) = setup(100);
        for k in 0..300u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let p_before = lr.p_local().unwrap();
        // server clock error: +150 ms on Tb/Te, RTT untouched
        for k in 300..320u64 {
            let mut e = ex_drift(k as f64 * 16.0, 0.0, 0.0);
            e.tb += 0.150;
            e.te += 0.150;
            h.push(e);
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let p_after = lr.p_local().unwrap();
        assert!(
            ((p_after - p_before) / p_before).abs() <= 3e-7 * 20.0,
            "local rate moved too far under server fault"
        );
    }

    #[test]
    fn rolling_mean_excess_matches_brute_force_windows() {
        // The near/far mean-excess telemetry must track a from-scratch
        // recomputation of the sub-window means — including at sub-window
        // sizes that are exact powers of two, where the key rings' write
        // and expiry slots alias (regression: the entrant used to
        // overwrite the expiring key before it was read, freezing the
        // sums at their rebuild-time values).
        for w_split in [4usize, 30] {
            // n_bar=8, W=4 → near 2, far 4 (both powers of two);
            // n_bar=100, W=30 → near 3, far 6
            let n_bar = if w_split == 4 { 8 } else { 100 };
            let mut h = History::new(100_000);
            let mut lr = LocalRate::new(n_bar, w_split, 0.05e-6, 3e-7, 8, 2500.0);
            let (near_n, far_n) = (lr.near_n, lr.far_n);
            let span = lr.span;
            for k in 0..400u64 {
                // varied queueing so the window means genuinely move
                let q = ((k * 37) % 11) as f64 * 60e-6;
                h.push(ex_drift(k as f64 * 16.0, 0.0, q));
                let r = h.last().unwrap();
                lr.process(&h, &r, P0);
                let (Some(near), Some(far)) =
                    (lr.near_mean_excess(P0), lr.far_mean_excess(P0))
                else {
                    continue;
                };
                let len = h.len();
                let w = len.min(span);
                let mean = |lo: usize, n: usize| -> f64 {
                    h.iter()
                        .skip(lo)
                        .take(n)
                        .map(|rec| rec.point_error(P0))
                        .sum::<f64>()
                        / n as f64
                };
                let want_far = mean(len - w, far_n);
                let want_near = mean(len - near_n, near_n);
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs() + 1e-12;
                assert!(
                    close(near, want_near),
                    "W={w_split} k={k}: near {near:e} vs {want_near:e}"
                );
                assert!(
                    close(far, want_far),
                    "W={w_split} k={k}: far {far:e} vs {want_far:e}"
                );
            }
        }
    }

    #[test]
    fn staleness_gap_rule() {
        let (mut h, mut lr) = setup(50);
        for k in 0..200u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let last_tfc = h.last().unwrap().tf_c();
        assert!(lr.gamma_l(P0, last_tfc).is_some());
        // 3000 s later (> τ̄/2 = 2500 s): stale
        let future_tfc = last_tfc + 3000.0 / P0;
        assert!(lr.gamma_l(P0, future_tfc).is_none());
    }

    #[test]
    fn gamma_l_is_relative_rate() {
        let (mut h, mut lr) = setup(50);
        for k in 0..200u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let tfc = h.last().unwrap().tf_c();
        // against a p̄ deliberately 1 PPM off, γ̂l should be ≈ −1 PPM
        let g = lr.gamma_l(P0 * (1.0 + 1e-6), tfc).unwrap();
        assert!((g + 1e-6).abs() < 0.1e-6, "gamma_l {g:.2e}");
    }
}
