//! Offset synchronization `θ̂(t)` (§5.3) — factored-weight incremental
//! estimator.
//!
//! The four-stage per-packet scheme:
//!
//! 1. **total error** `Eᵀᵢ = Eᵢ + ε·(Cd(t) − Cd(Tf,i))` — the point error
//!    inflated by packet age at the residual-rate allowance ε = 0.02 PPM;
//! 2. **weights** over the packets inside the SKM window `τ′`, penalising
//!    poor total quality very heavily (see *Weight shape* below);
//! 3. **weighted sum** (equation (20)), optionally with the local-rate
//!    linear prediction (equation (21)); when every packet in the window is
//!    poor (`min Eᵀ > E** = 6E`), fall back to carrying the last estimate
//!    forward (equations (22)/(23));
//! 4. **sanity check**: successive estimates may not differ by more than
//!    `Es = 1 ms`; violations duplicate the most recent trusted value.
//!
//! # Weight shape and the factorization that makes ingest O(1)
//!
//! The paper's weights `exp(−(Eᵀᵢ/E)²)` must be re-evaluated for the whole
//! window on every packet: `Eᵀᵢ(t)` depends on the packet's age *at
//! evaluation time*, and the square couples that common drift to each
//! packet individually — the pass is irreducibly O(τ′/poll) per packet
//! (~200 ns at 16 s polling even fully SIMD-fused).
//!
//! This implementation instead weights the **excess total error over the
//! window's best packet** with an exponential profile:
//!
//! ```text
//!   wᵢ(t) = exp(−(Eᵀᵢ(t) − minⱼ Eᵀⱼ(t)) / λ),      λ = E/2
//! ```
//!
//! Writing everything in counter units, `Eᵀᵢ(t) = p·(κᵢ + ε·Tf(t))` with
//! `κᵢ = (rᵢ − r̂base) − ε·Tfᵢ` a **per-packet constant**: the common age
//! drift `ε·Tf(t)` cancels in the min-subtraction, so `wᵢ` does not depend
//! on evaluation time at all, and the weighted sums factor into rolling
//! per-packet accumulators:
//!
//! * `Σ wᵢ`, `Σ wᵢ·θᵢ⁰`, `Σ wᵢ·hmᵢ`, `Σ wᵢ·Tfᵢ`, `Σ wᵢ·peᵢ` are
//!   maintained **incrementally** — one absorb and at most one expire per
//!   packet — relative to an anchor `A` (weights are stored as
//!   `uᵢ = exp(−(κᵢ − A)/λc)`; the common factor `exp((κmin − A)/λc)`
//!   cancels in every ratio the update needs);
//! * the window minimum `κmin` (the quality gate and the weight
//!   normalizer) is a running minimum with the index of the slot holding
//!   it (see *The window minimum* below);
//! * live-clock evaluation (current `p̂`, `C̄`, `γ̂l`) is recovered exactly
//!   by linear correction around rebuild-time references
//!   (`θᵢ(p̂,C̄) = θᵢ⁰ + hmᵢ·(p̂−p̂₀) + (C̄−C̄₀)`).
//!
//! Filtering behaviour matches the Gaussian near the knee (both give
//! `e⁻⁴` at 2E of excess); far congestion tails keep weights below
//! `e⁻³⁰`. The fallback gate (`min Eᵀ > E**`), the sanity check and the
//! gap-blend logic are unchanged.
//!
//! # Drift-rebuild contract
//!
//! Incremental float sums drift (each expire subtracts what an absorb
//! added, to within rounding). Exactness is bounded by **rebuilding** the
//! sums from the history — an O(τ′/poll) refill, amortized away by rarity
//! — whenever any of these fire:
//!
//! * a re-basing event (`History::rebase_gen` moved): every κ changes;
//! * a non-consecutive packet, a window-geometry change, or the top-level
//!   window sliding into the τ′ window;
//! * the **cadence**: every `REBUILD_EVERY` (1024) absorbs unconditionally,
//!   bounding accumulated rounding to ≲1e-13 relative;
//! * the **range guard**: a new κ more than 600 weight-e-folds *below* the
//!   anchor (weights would overflow — re-anchor); large positive excesses
//!   just underflow harmlessly;
//! * the **domination guard**: an expiring packet carrying ≳99.9% of the
//!   window's weight (the subtraction would leave the survivors with
//!   absorbed-into-its-ulp garbage);
//! * the **rate guard**: `p̂` drifting more than 1e-6 relative from the
//!   rebuild reference `p̂₀` (keeps the linear correction term small).
//!
//! The weight *scale* `λc = λ/ρ` (counter units) freezes `ρ = p̂` once, at
//! the first post-warm-up evaluation: `p̂` thereafter moves by ≤ ~1e-7
//! relative (0.1 PPM hardware bound), perturbing weight exponents
//! invisibly, and a frozen scale is what lets the weights be per-packet
//! constants. During warm-up (bounded, small windows) and for τ′ windows
//! of ≤ [`SMALL_WINDOW`] packets (coarse polling) the estimator runs a
//! direct full pass instead. The `reference` pipeline implements the
//! same estimator as O(window) full passes; the differential suites
//! (`tests/proptest_invariants.rs`, `crates/core/tests/
//! incremental_offset.rs` — the latter forcing rebuild cadences down to
//! every packet) pin θ̂ parity to 1e-12 relative + 50 ps.
//!
//! # The window minimum
//!
//! `κmin` is kept as `(κmin, the index of its slot)`: an absorb takes the
//! minimum (the newest slot on ties, the one that stays longest), and only
//! when the expiring slot *is* the minimum is the ring rescanned, κ
//! recomputed from each slot by the expression that absorbed it, so the
//! minimum is bit-for-bit a full scan's. The scan is the "scan rarely"
//! pattern of the parked shift detector: on two-week 16 s baseline traces
//! with a level shift and an outage, like `clock_ingest`'s, it ran once
//! every ~216 packets. **Worst case:** while κ rises
//! strictly for longer than the τ′ window, the oldest slot is the minimum
//! every packet, and each packet pays one κ pass over the τ′/poll slots —
//! one rebuild's pass, with no exponential and no history access. A
//! plateau of equal κ never rescans (the newest slot holds the minimum).

use crate::config::ClockConfig;
use crate::fastmath::exp_clamped;
use crate::history::{History, PacketRecord};

/// Window sizes up to this bypass the incremental machinery and resolve
/// the τ′ window directly with a full pass (the coarse-polling fast path:
/// a handful of exponentials beats maintaining the rolling state).
const SMALL_WINDOW: usize = 4;

/// Unconditional rebuild cadence (absorbs between full refills).
const REBUILD_EVERY: u32 = 1024;

/// λ = `quality_scale` × this fraction (see the module docs).
pub const WEIGHT_LAMBDA_FRAC: f64 = 0.5;

/// Re-anchor when a new κ sits this many weight-e-folds below the anchor.
/// The bound keeps every anchored weight below `e⁴⁰⁰ ≈ 5e173`, so no sum
/// or product (weights × midpoint deviations ≤ ~1e12) can approach the
/// f64 overflow threshold before the rebuild re-anchors.
const EXP_ARG_GUARD: f64 = 400.0;

/// Rebuild when `p̂` drifts this far (relative) from the rebuild reference.
const P_DRIFT_GUARD: f64 = 1e-6;

/// Rebuild when an expiring packet carried more than
/// `1 − 1/DOMINATION_GUARD` of the window's weight.
const DOMINATION_GUARD: f64 = 1024.0;

/// Events from an offset update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetEvent {
    /// Weighted estimate produced normally.
    Weighted,
    /// Window quality was too poor; the previous estimate was carried
    /// forward (equations (22)/(23)).
    PoorQualityFallback,
    /// After a large data gap with poor new data, the new naive estimate was
    /// blended with the aged previous estimate (§6.1 "Lost Packets").
    GapBlend,
    /// The sanity check fired; previous trusted value duplicated.
    SanityDuplicated,
    /// First estimate initialised.
    Initialised,
}

/// The four window statistics every update needs: total weight, weighted
/// θ sum, weighted total-error sum, and the window quality gate. For the
/// incremental path the first three are *anchored* (common positive
/// factor vs the plain full pass) — every consumer is a ratio or the
/// exactly-computed `min_et`, so the factor never materializes.
struct WindowSums {
    sum_w: f64,
    sum_wth: f64,
    sum_wet: f64,
    min_et: f64,
}

/// One τ′-window ring slot: the per-record values the rolling sums need —
/// the point error `pe` (counts) as of admission, `Tf`, the midpoints,
/// and the anchored weight `u`. One struct per slot (instead of five
/// parallel arrays) keeps expiry+absorb to one bounds check and one cache
/// line each.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    pe_c: f64,
    tf_c: f64,
    hm_c: f64,
    sm: f64,
    u: f64,
}

/// The rolling factored-weight window state (see the module docs).
///
/// A ring of [`Slot`]s mirrors the τ′ window, so expiry needs no history
/// access and no second exponential: the products subtracted are
/// recomputed from the slot bit-for-bit as they were added.
#[derive(Debug, Clone, Default)]
struct FactoredWindow {
    /// Ring capacity: a power of two ≥ the window size once rebuilt (a
    /// restored ring starts at its occupancy and doubles as the window
    /// fills), 0 = unallocated.
    cap: usize,
    ring: Vec<Slot>,
    /// Linearization references, refreshed at every rebuild.
    p0: f64,
    cbar0: f64,
    tf_ref: f64,
    hm_ref: f64,
    /// Weight anchor `A` (the window's κ minimum at rebuild time).
    anchor: f64,
    /// Whether the stored `u` values carry the warm-up weight scale; the
    /// warm-up→steady boundary changes the scale and forces a rebuild.
    warm: bool,
    /// Rolling sums: `Σu`, `Σu·θ⁰`, `Σu·(hm−hm_ref)`, `Σu·(tf−tf_ref)`,
    /// `Σu·pe`.
    s_w: f64,
    s_wth0: f64,
    s_whm: f64,
    s_wtf: f64,
    s_wpe: f64,
    /// The window's κ minimum, and the index of the (newest) slot holding
    /// it.
    kappa_min: f64,
    min_idx: u64,
    /// Global index of the newest absorbed record.
    last_idx: u64,
    /// Records currently in the window.
    len: usize,
    /// `History::rebase_gen` the κ values were resolved under.
    gen: u64,
    /// Absorbs remaining until the unconditional rebuild.
    until_rebuild: u32,
    /// Whether the sums currently mirror the window.
    valid: bool,
}

impl FactoredWindow {
    /// κ of a stored slot (pure function of the slot and ε).
    #[inline]
    fn kappa_of(pe_c: f64, tf_c: f64, eps: f64) -> f64 {
        pe_c - eps * tf_c
    }

    /// Tries the O(1) incremental step for packet `k`; `false` means the
    /// caller must rebuild. `inv_lambda_c` is the scale for `warm`.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        history: &History,
        k: &PacketRecord,
        window_n: usize,
        eps: f64,
        warm: bool,
        inv_lambda_c: f64,
        p_hat: f64,
    ) -> bool {
        if !self.valid
            || self.gen != history.rebase_gen()
            || k.idx != self.last_idx.wrapping_add(1)
            || self.until_rebuild == 0
            || warm != self.warm
            || (p_hat - self.p0).abs() > P_DRIFT_GUARD * self.p0
        {
            return false;
        }
        // Target occupancy after absorbing k: the full pass covers the
        // newest min(window_n, history.len()) records (`history` already
        // holds k).
        let target = window_n.min(history.len());
        if self.len + 1 > target + 1 {
            // A top-window slide cut into the τ′ window: more than one
            // record must leave. Rare; rebuild.
            return false;
        }
        let (pe_c, tf_c) = (k.rtt_c() - k.rbase_c, k.tf_c());
        let kap_new = Self::kappa_of(pe_c, tf_c, eps);
        let x = (kap_new - self.anchor) * inv_lambda_c;
        if x < -EXP_ARG_GUARD {
            // Weight would blow past the anchor's range: re-anchor.
            return false;
        }
        if self.len + 1 > target {
            // Expire the oldest record from the sums and the minimum.
            let old_idx = self.last_idx.wrapping_sub(self.len as u64 - 1);
            let s = self.ring[(old_idx as usize) & (self.cap - 1)];
            // adding the negated weight subtracts each term exactly
            self.add(&Slot { u: -s.u, ..s });
            self.len -= 1;
            if self.s_w.is_nan() || self.s_w <= 0.0 || s.u > self.s_w * DOMINATION_GUARD {
                // The expired packet dominated the window weight: the
                // remaining sums are its subtraction residue. Rebuild.
                return false;
            }
            // The minimum left with it, unless the new κ takes its place.
            if old_idx == self.min_idx && kap_new > self.kappa_min {
                self.rescan_min(eps);
            }
        }
        if self.len == self.cap {
            self.grow();
        }
        let slot = Slot { pe_c, tf_c, hm_c: k.hm_c(), sm: k.sm(), u: exp_clamped(-x) };
        self.ring[(k.idx as usize) & (self.cap - 1)] = slot;
        self.add(&slot);
        self.last_idx = k.idx;
        self.absorb_min(k.idx, kap_new);
        self.len += 1;
        self.until_rebuild -= 1;
        true
    }

    /// Adds one slot's terms to the rolling sums.
    #[inline]
    fn add(&mut self, s: &Slot) {
        let th0 = s.hm_c * self.p0 + self.cbar0 - s.sm;
        self.s_w += s.u;
        self.s_wth0 += s.u * th0;
        self.s_whm += s.u * (s.hm_c - self.hm_ref);
        self.s_wtf += s.u * (s.tf_c - self.tf_ref);
        self.s_wpe += s.u * s.pe_c;
    }

    /// Takes slot `idx`'s κ into the window minimum (the newest on ties).
    #[inline]
    fn absorb_min(&mut self, idx: u64, kap: f64) {
        if kap <= self.kappa_min {
            (self.kappa_min, self.min_idx) = (kap, idx);
        }
    }

    /// Recomputes the window minimum from the `len` slots ending at
    /// `last_idx` (see *The window minimum* in the module docs).
    #[cold]
    fn rescan_min(&mut self, eps: f64) {
        self.kappa_min = f64::INFINITY;
        let oldest = self.last_idx.wrapping_sub(self.len as u64).wrapping_add(1);
        for i in 0..self.len as u64 {
            let idx = oldest.wrapping_add(i);
            let s = self.ring[(idx as usize) & (self.cap - 1)];
            self.absorb_min(idx, Self::kappa_of(s.pe_c, s.tf_c, eps));
        }
    }

    /// Doubles the ring, keeping the window's slots at their indices.
    fn grow(&mut self) {
        let cap = 2 * self.cap;
        let mut ring = vec![Slot::default(); cap];
        for i in 0..self.len as u64 {
            let idx = self.last_idx.wrapping_sub(i) as usize;
            ring[idx & (cap - 1)] = self.ring[idx & (self.cap - 1)];
        }
        (self.ring, self.cap) = (ring, cap);
    }

    /// Fills the ring and the κ minimum from the newest `window_n` records
    /// of `history` under the current anchor and weight scale, and takes
    /// the history's occupancy, newest index and generation. A slot is its
    /// record's values and its weight, so a restore re-derives the ring
    /// this way instead of reading it. The ring is sized for `room`
    /// records: the whole window on a rebuild, the records present on a
    /// restore (so a restore allocates in proportion to its blob, whatever
    /// the window).
    fn fill(
        &mut self,
        history: &History,
        window_n: usize,
        room: usize,
        eps: f64,
        inv_lambda_c: f64,
    ) {
        if self.cap < room.next_power_of_two() {
            self.cap = room.next_power_of_two().max(8);
            self.ring = vec![Slot::default(); self.cap];
        }
        self.kappa_min = f64::INFINITY;
        for r in history.last_n(window_n) {
            let (pe_c, tf_c) = (r.rtt_c() - r.rbase_c, r.tf_c());
            let kap = Self::kappa_of(pe_c, tf_c, eps);
            let u = exp_clamped(-((kap - self.anchor) * inv_lambda_c));
            let slot = Slot { pe_c, tf_c, hm_c: r.hm_c(), sm: r.sm(), u };
            self.ring[(r.idx as usize) & (self.cap - 1)] = slot;
            self.absorb_min(r.idx, kap);
        }
        self.len = window_n.min(history.len());
        self.last_idx = history.total_admitted().wrapping_sub(1);
        self.gen = history.rebase_gen();
    }

    /// Full refill from the history tail (`k` is its newest record):
    /// fresh anchor and linearization references, exact sums, recomputed
    /// minimum. O(window), amortized away by the rarity of its triggers (see
    /// the module docs).
    #[allow(clippy::too_many_arguments)]
    fn rebuild(
        &mut self,
        history: &History,
        k: &PacketRecord,
        window_n: usize,
        eps: f64,
        warm: bool,
        inv_lambda_c: f64,
        p_hat: f64,
        c_bar: f64,
        cadence: u32,
    ) {
        tsc_telemetry::add(tsc_telemetry::Ctr::OffsetRebuilds, 1);
        tsc_telemetry::event(tsc_telemetry::EventKind::OffsetRebuild, k.idx, window_n as u64, 0);
        self.p0 = p_hat;
        self.cbar0 = c_bar;
        self.tf_ref = k.tf_c();
        self.hm_ref = k.hm_c();
        // Anchor at the window's κ minimum: every weight starts ≤ 1 (the
        // full-pass normalization), leaving the whole guarded range as
        // headroom for future better-than-anchor packets. Anchoring at the
        // newest κ instead would overflow the sums the moment the newest
        // packet is heavily congested (κ far above the rest).
        self.anchor = history
            .last_n(window_n)
            .map(|r| Self::kappa_of(r.rtt_c() - r.rbase_c, r.tf_c(), eps))
            .fold(f64::INFINITY, f64::min);
        self.warm = warm;
        self.fill(history, window_n, window_n, eps, inv_lambda_c);
        (self.s_w, self.s_wth0, self.s_whm, self.s_wtf, self.s_wpe) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let oldest = k.idx.wrapping_sub(self.len as u64 - 1);
        for i in 0..self.len as u64 {
            let slot = self.ring[(oldest.wrapping_add(i) as usize) & (self.cap - 1)];
            self.add(&slot);
        }
        // `cadence − 1` further absorbs before the next unconditional
        // rebuild: a cadence of 1 genuinely rebuilds on *every* packet
        // (the differential tests rely on that meaning).
        self.until_rebuild = cadence.saturating_sub(1);
        self.valid = true;
    }

    /// Live evaluation against the current clock `(p̂, C̄)` and local-rate
    /// residual `g` — O(1): linear corrections around the rebuild
    /// references (see the module docs for the algebra).
    fn eval(&self, k: &PacketRecord, p_hat: f64, c_bar: f64, g: f64, eps: f64) -> WindowSums {
        let min_et = (self.kappa_min + eps * k.tf_c()) * p_hat;
        // Σu·(Tf(t) − Tfᵢ), via the centered tf sum.
        let age_sum = (k.tf_c() - self.tf_ref) * self.s_w - self.s_wtf;
        let sum_wth = self.s_wth0
            + (p_hat - self.p0) * (self.s_whm + self.hm_ref * self.s_w)
            + (c_bar - self.cbar0) * self.s_w
            - g * p_hat * age_sum;
        let sum_wet = p_hat * (self.s_wpe + eps * age_sum);
        WindowSums {
            sum_w: self.s_w,
            sum_wth,
            sum_wet,
            min_et,
        }
    }
}

/// The O(window) full pass — the plain transcription of the estimator
/// definition, used for τ′ windows of at most [`SMALL_WINDOW`] packets
/// (coarse polling) and mirrored, structurally, by the `reference`
/// pipeline. Two loops: κ and its minimum, then weights and sums.
#[allow(clippy::too_many_arguments)]
fn full_pass(
    history: &History,
    k: &PacketRecord,
    window_n: usize,
    p_hat: f64,
    c_bar: f64,
    g: f64,
    eps: f64,
    inv_lambda_c: f64,
) -> WindowSums {
    debug_assert!(window_n <= SMALL_WINDOW, "the full pass holds κ on the stack");
    let k_tf_c = k.tf_c();
    let mut kappa = [0.0; SMALL_WINDOW];
    let mut kappa_min = f64::INFINITY;
    for (r, kap) in history.last_n(window_n).zip(&mut kappa) {
        *kap = (r.rtt_c() - r.rbase_c) - eps * r.tf_c();
        kappa_min = kappa_min.min(*kap);
    }
    let min_et = (kappa_min + eps * k_tf_c) * p_hat;
    let (mut sum_w, mut sum_wth, mut sum_wet) = (0.0f64, 0.0f64, 0.0f64);
    for (r, &kap) in history.last_n(window_n).zip(&kappa) {
        let w = exp_clamped(-((kap - kappa_min) * inv_lambda_c));
        let et = (kap + eps * k_tf_c) * p_hat;
        let age = (k_tf_c - r.tf_c()) * p_hat;
        let th = (r.hm_c() * p_hat + c_bar - r.sm()) - g * age;
        sum_w += w;
        sum_wth += w * th;
        sum_wet += w * et;
    }
    WindowSums {
        sum_w,
        sum_wth,
        sum_wet,
        min_et,
    }
}

/// The counter-domain weight scale 1/λc = ρ/λ (λ = E/2) for the warm-up
/// (3E) or the steady (E) quality scale.
fn inv_lambda_c(rho: f64, cfg: &ClockConfig, warm: bool) -> f64 {
    let e_scale = cfg.quality_scale * if warm { 3.0 } else { 1.0 };
    rho / (e_scale * WEIGHT_LAMBDA_FRAC)
}

/// The offset estimator.
#[derive(Debug, Clone)]
pub struct OffsetEstimator {
    theta: Option<f64>,
    /// `Tf` counts at the last evaluation: the newest record's, since every
    /// admitted packet is evaluated (NaN before the first).
    last_tfc: f64,
    /// Estimated error of the last *weighted* estimate (seconds), aged for
    /// the gap-blend fallback.
    last_err: f64,
    /// Consecutive sanity duplications (lock-out escape counter).
    sanity_run: u32,
    /// The τ′ window in packets, `cfg.tau_prime_packets()`.
    window_n: usize,
    /// The frozen weight rate ρ (NaN until the first evaluation).
    rho: f64,
    /// Rebuild cadence (REBUILD_EVERY; overridable for differential tests).
    rebuild_every: u32,
    /// The rolling factored-weight window.
    win: FactoredWindow,
}

impl OffsetEstimator {
    /// New, uninitialised estimator for the configuration's τ′ window.
    pub fn new(cfg: &ClockConfig) -> Self {
        let window_n = cfg.tau_prime_packets();
        Self {
            theta: None,
            last_tfc: f64::NAN,
            last_err: f64::INFINITY,
            sanity_run: 0,
            window_n,
            rho: f64::NAN,
            rebuild_every: REBUILD_EVERY,
            win: FactoredWindow::default(),
        }
    }

    /// Overrides the incremental rebuild cadence. Differential-test hook:
    /// forcing a rebuild every few packets exercises the rebuild/absorb
    /// boundary continuously without changing any estimate (rebuilds are
    /// semantically transparent).
    #[doc(hidden)]
    pub fn set_rebuild_cadence(&mut self, every: u32) {
        self.rebuild_every = every.max(1);
        self.win.valid = false;
    }

    /// `Tf` counts of the last packet evaluated (NaN before the first).
    pub(crate) fn last_tfc(&self) -> f64 {
        self.last_tfc
    }

    /// Current offset estimate `θ̂`, if initialised.
    pub fn theta(&self) -> Option<f64> {
        self.theta
    }

    /// Predicts `θ̂` at host counter reading `tf_c` using the optional
    /// local-rate residual `γ̂l` (equation (23); constant prediction when
    /// `γ̂l` is `None`, equation (22)).
    pub fn predict(&self, tf_c: f64, p_hat: f64, gamma_l: Option<f64>) -> Option<f64> {
        let th = self.theta?;
        match gamma_l {
            Some(g) if self.last_tfc.is_finite() => {
                // Equation (23): θ̂(t) = θ̂(tf,i) − γ̂l (Cd(t) − Cd(Tf,i)).
                // A locally-slow oscillator (p̂l > p̄, γ̂l > 0) makes C run
                // slow, so the offset *decreases* with age.
                Some(th - g * (tf_c - self.last_tfc) * p_hat)
            }
            _ => Some(th),
        }
    }

    /// Processes packet `k` (already admitted to `history`). Returns the
    /// current estimate and the event that produced it. `cfg` is the
    /// configuration the estimator was built with.
    ///
    /// * `p_hat`, `c_bar` — the current clock `C(T) = T·p̂ + C̄`. Each
    ///   packet's naive θ̂ᵢ (equation (19)) is evaluated *live* against this
    ///   clock, so all contributions to the weighted sum refer to the same
    ///   clock even across rate updates. (The paper stores the values and
    ///   "does not retrospectively alter estimates already calculated" —
    ///   fine at 16 s polling, but at coarse polling the warm-up rate
    ///   updates would make stored values mutually inconsistent by
    ///   Δp/p · age, which reaches milliseconds.)
    /// * `gamma_l` — local-rate residual, `None` when disabled or stale;
    /// * `warmup` — §6.1: during warm-up "the quality assessment parameter E
    ///   is increased" (we use 3E) while the SKM window fills;
    /// * `gap_large` — the previous packet is further back than τ̄/2.
    #[allow(clippy::too_many_arguments)]
    pub fn process(
        &mut self,
        cfg: &ClockConfig,
        history: &History,
        k: &PacketRecord,
        p_hat: f64,
        c_bar: f64,
        gamma_l: Option<f64>,
        warmup: bool,
        gap_large: bool,
    ) -> (f64, OffsetEvent) {
        let theta_of = |r: &PacketRecord| r.hm_c() * p_hat + c_bar - r.sm();
        let tf_c = k.tf_c();
        let e_scale = cfg.quality_scale * if warmup { 3.0 } else { 1.0 };
        let window_n = self.window_n;
        let g = gamma_l.unwrap_or(0.0);
        let eps = cfg.aging_rate;
        // Freeze the weight rate ρ at the very first evaluation (see the
        // module docs): from here the weight exponents are pure per-packet
        // constants and the factored sums are exact. The warm-up→steady
        // transition changes the scale once (3E → E); the incremental
        // window treats that as one rebuild.
        if self.rho.is_nan() {
            self.rho = p_hat;
        }
        let inv_lc = inv_lambda_c(self.rho, cfg, warmup);
        let sums = if window_n <= SMALL_WINDOW {
            // Coarse-polling windows: a direct full pass beats maintaining
            // the rolling state for a handful of packets (`BENCH.json` row
            // `e2e_clock_ingest/without_small_window_full_pass`).
            self.win.valid = false;
            full_pass(history, k, window_n, p_hat, c_bar, g, eps, inv_lc)
        } else {
            if !self
                .win
                .advance(history, k, window_n, eps, warmup, inv_lc, p_hat)
            {
                self.win.rebuild(
                    history,
                    k,
                    window_n,
                    eps,
                    warmup,
                    inv_lc,
                    p_hat,
                    c_bar,
                    self.rebuild_every,
                );
            }
            self.win.eval(k, p_hat, c_bar, g, eps)
        };
        let (sum_w, sum_wth, sum_wet, min_et) =
            (sums.sum_w, sums.sum_wth, sums.sum_wet, sums.min_et);

        let first = self.theta.is_none();
        // The window's best packet always carries weight 1 (excess 0), so
        // the gate is purely the §5.3(iii) quality condition.
        let quality_poor = min_et > cfg.e_fallback();

        let (candidate, mut event) = if quality_poor && !first {
            if gap_large {
                // §6.1: blend the new naive estimate (weighted by its point
                // error) with the aged previous estimate. The floor keeps
                // the sum positive: a weight past the clamp (e⁻⁷⁰⁰) reads
                // 1e-300.
                let e_new = k.point_error(p_hat);
                let elapsed = (tf_c - self.last_tfc).max(0.0) * p_hat;
                let e_old = self.last_err + cfg.aging_rate * elapsed;
                let w_new = exp_clamped(-(e_new / e_scale).powi(2)).max(1e-300);
                let w_old = exp_clamped(-(e_old / e_scale).powi(2)).max(1e-300);
                let prev = self
                    .predict(tf_c, p_hat, gamma_l)
                    .expect("theta set when !first");
                (
                    (w_new * theta_of(k) + w_old * prev) / (w_new + w_old),
                    OffsetEvent::GapBlend,
                )
            } else {
                // Equations (22)/(23): carry the last estimate forward.
                let prev = self
                    .predict(tf_c, p_hat, gamma_l)
                    .expect("theta set when !first");
                (prev, OffsetEvent::PoorQualityFallback)
            }
        } else {
            (sum_wth / sum_w.max(f64::MIN_POSITIVE), OffsetEvent::Weighted)
        };

        // Stage (iv): the sanity check. The threshold enforces "the offset
        // estimate cannot vary in a way which we know is impossible": over
        // the elapsed time since the last estimate the hardware can drift at
        // most 0.1 PPM, so the allowance is Es + 1e-7·Δt — for back-to-back
        // polls that is Es, but across a multi-day data gap the legitimate
        // drift grows and must not be mistaken for a fault (lock-out).
        let elapsed = if self.last_tfc.is_finite() {
            ((tf_c - self.last_tfc) * p_hat).max(0.0)
        } else {
            0.0
        };
        let sanity_threshold = cfg.offset_sanity + 1e-7 * elapsed;
        // Bounded patience: if the check has fired for a long run of
        // consecutive packets, the data level has genuinely moved (the
        // server is the only absolute reference there is) — accept rather
        // than duplicate a stale value forever. Fallback packets carry the
        // previous value, so they neither trigger nor clear the counter.
        let max_run = (2 * window_n).max(64) as u32;
        let theta_new = match self.theta {
            // §6.1: the check guards a *converged* clock ("the expected
            // offset increment between neighboring packets"); during warm-up
            // increments are legitimately large while p̂ settles, so the
            // check is suspended. A candidate that is not finite (window
            // sums that overflowed, which only a corrupted restore can
            // cause) is never taken: it is duplicated over, and the window
            // is rebuilt from the history on the next packet.
            Some(prev)
                if !candidate.is_finite()
                    || !warmup
                        && (candidate - prev).abs() > sanity_threshold
                        && self.sanity_run < max_run =>
            {
                event = OffsetEvent::SanityDuplicated;
                self.sanity_run = self.sanity_run.saturating_add(1);
                self.win.valid &= candidate.is_finite();
                prev
            }
            Some(_) => {
                if event == OffsetEvent::Weighted || event == OffsetEvent::GapBlend {
                    self.sanity_run = 0;
                }
                candidate
            }
            None if !candidate.is_finite() => {
                // nor is a first one: the estimate stays unset
                self.win.valid = false;
                return (candidate, OffsetEvent::Initialised);
            }
            None => {
                event = OffsetEvent::Initialised;
                candidate
            }
        };

        self.theta = Some(theta_new);
        self.last_tfc = tf_c;
        if event == OffsetEvent::Weighted || event == OffsetEvent::Initialised {
            // error of a weighted estimate ≈ weighted mean total error
            // (already accumulated by the window machinery above)
            if sum_w > 0.0 {
                self.last_err = sum_wet / sum_w;
            }
        } else {
            // carried estimates age at ε
            self.last_err += cfg.aging_rate * cfg.poll_period;
        }
        (theta_new, event)
    }
}

impl FactoredWindow {
    /// Serializes the rolling window's state: the linearization references
    /// and anchor, the anchored sums, and the rebuild bookkeeping. Whenever
    /// the sums are valid, the ring and the κ minimum hold the newest
    /// window of history records under that anchor, and the newest index,
    /// occupancy and generation are the history's, so none of them is
    /// written: [`FactoredWindow::fill`] re-derives them on load.
    fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        for x in [
            self.p0, self.cbar0, self.tf_ref, self.hm_ref, self.anchor, self.s_w, self.s_wth0,
            self.s_whm, self.s_wtf, self.s_wpe,
        ] {
            w.put_f64(x);
        }
        w.put_u32(self.until_rebuild);
        w.put_bool(self.warm);
        w.put_bool(self.valid);
    }

    /// Deserializes a window written by [`FactoredWindow::save_state`] and,
    /// when valid, refills it from `history` with the weight rate `rho`.
    /// Every scalar must be finite, and a valid window needs an estimate
    /// (`has_estimate`: the evaluation that fills a window sets one), a
    /// history record, a frozen ρ and a window above [`SMALL_WINDOW`].
    fn load_state(
        r: &mut crate::snapshot::SnapshotReader<'_>,
        cfg: &ClockConfig,
        rho: f64,
        history: &History,
        has_estimate: bool,
    ) -> Result<Self, crate::SnapshotError> {
        use crate::SnapshotError as E;
        let mut x = [0.0; 10];
        for v in &mut x {
            *v = r.get_f64()?;
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(E::Invalid("offset window value not finite"));
        }
        let [p0, cbar0, tf_ref, hm_ref, anchor, s_w, s_wth0, s_whm, s_wtf, s_wpe] = x;
        let mut win = Self {
            p0,
            cbar0,
            tf_ref,
            hm_ref,
            anchor,
            s_w,
            s_wth0,
            s_whm,
            s_wtf,
            s_wpe,
            until_rebuild: r.get_u32()?,
            warm: r.get_bool()?,
            valid: r.get_bool()?,
            ..Self::default()
        };
        let window_n = cfg.tau_prime_packets();
        if win.valid {
            if !has_estimate || history.is_empty() || rho.is_nan() || window_n <= SMALL_WINDOW {
                return Err(E::Invalid("offset window valid without its inputs"));
            }
            let room = window_n.min(history.len());
            win.fill(history, window_n, room, cfg.aging_rate, inv_lambda_c(rho, cfg, win.warm));
        }
        Ok(win)
    }
}

impl OffsetEstimator {
    /// Serializes the estimator's state — the estimate and its error, the
    /// sanity run, the frozen ρ, the rebuild cadence and the complete
    /// rolling window (mid-rebuild positions included: the `until_rebuild`
    /// countdown resumes exactly where it stopped, so a snapshot taken
    /// between cadence rebuilds replays identically). The window length and
    /// the patience bound are the configuration's, the last evaluated `Tf`
    /// is the history's newest.
    pub fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_opt_f64(self.theta);
        w.put_f64(self.last_err);
        w.put_u32(self.sanity_run);
        w.put_f64(self.rho);
        w.put_u32(self.rebuild_every);
        self.win.save_state(w);
    }

    /// Overwrites this estimator's state with one written by
    /// [`OffsetEstimator::save_state`] for a clock whose restored history
    /// is `history`; `self` comes from [`OffsetEstimator::new`] with
    /// `cfg`. A non-finite estimate, or a ρ that is neither unset (NaN) nor
    /// a positive period, is refused.
    pub fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
        cfg: &ClockConfig,
        history: &History,
    ) -> Result<(), crate::SnapshotError> {
        use crate::SnapshotError as E;
        self.theta = r.get_opt_f64()?;
        if self.theta.is_some_and(|t| !t.is_finite()) {
            return Err(E::Invalid("offset estimate not finite"));
        }
        self.last_tfc = history.last().map_or(f64::NAN, |k| k.tf_c());
        self.last_err = r.get_f64()?;
        self.sanity_run = r.get_u32()?;
        self.rho = r.get_f64()?;
        if !(self.rho.is_nan() || self.rho.is_finite() && self.rho > 0.0) {
            return Err(E::Invalid("offset weight rate not a positive period"));
        }
        // (a cadence of 0 rebuilds every packet, as 1 does)
        self.rebuild_every = r.get_u32()?;
        self.win = FactoredWindow::load_state(r, cfg, self.rho, history, self.theta.is_some())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::RawExchange;

    const P: f64 = 1.0000524e-9;

    /// Exchange whose naive offset is exactly `theta` with forward queueing
    /// `q` (which biases θ̂ᵢ by −q/2 and inflates the RTT by q).
    fn ex(t: f64, q: f64) -> RawExchange {
        let d = 450e-6;
        let s = 20e-6;
        RawExchange {
            ta_tsc: (t / P).round() as u64,
            tb: t + d + q,
            te: t + d + q + s,
            tf_tsc: ((t + 2.0 * d + s + q) / P).round() as u64,
        }
    }

    fn cfg() -> ClockConfig {
        ClockConfig::paper_defaults(16.0)
    }

    /// Admits `e` and hands back its record, as the clock does per packet.
    fn admit(h: &mut History, e: RawExchange) -> PacketRecord {
        h.push(e);
        h.last().unwrap()
    }

    fn c_bar_for(e: &RawExchange, p: f64) -> f64 {
        e.server_midpoint() - e.host_midpoint_counts() * p
    }

    #[test]
    fn clean_data_estimates_near_zero() {
        let c = cfg();
        let mut h = History::new(10_000);
        let mut est = OffsetEstimator::new(&c);
        let e0 = ex(0.0, 0.0);
        let c_bar = c_bar_for(&e0, P);
        let mut last = f64::NAN;
        for k in 0..200u64 {
            let e = ex(k as f64 * 16.0, 0.0);
            let r = admit(&mut h, e);
            let (th, _) = est.process(&c, &h, &r, P, c_bar, None, k < 8, false);
            last = th;
        }
        assert!(last.abs() < 20e-6, "clean θ̂ should be ≈0, got {last}");
    }

    #[test]
    fn a_first_estimate_that_is_not_finite_is_not_taken() {
        let c = cfg();
        let mut h = History::new(10_000);
        let mut est = OffsetEstimator::new(&c);
        let e0 = ex(0.0, 0.0);
        let r = admit(&mut h, e0);
        let (th, _) = est.process(&c, &h, &r, P, f64::INFINITY, None, true, false);
        assert!(!th.is_finite() && est.theta().is_none(), "{th} taken");
        let r = admit(&mut h, ex(16.0, 0.0));
        let (th, _) = est.process(&c, &h, &r, P, c_bar_for(&e0, P), None, true, false);
        assert_eq!(est.theta(), Some(th));
        assert!(th.abs() < 20e-6, "{th}");
    }

    #[test]
    fn congestion_noise_is_filtered() {
        let c = cfg();
        let mut h = History::new(10_000);
        let mut est = OffsetEstimator::new(&c);
        let e0 = ex(0.0, 0.0);
        let c_bar = c_bar_for(&e0, P);
        let mut worst = 0.0f64;
        for k in 0..600u64 {
            // every 5th packet suffers 2 ms of forward queueing: naive θ̂ᵢ is
            // biased by a full −1 ms on those packets
            let q = if k % 5 == 0 { 2e-3 } else { 0.0 };
            let r = admit(&mut h, ex(k as f64 * 16.0, q));
            let (th, _) = est.process(&c, &h, &r, P, c_bar, None, k < 16, false);
            if k > 100 {
                worst = worst.max(th.abs());
            }
        }
        assert!(
            worst < 100e-6,
            "filtered θ̂ must stay ≪ the 1 ms naive bias, worst {worst}"
        );
    }

    #[test]
    fn sanity_check_blocks_server_fault() {
        let c = cfg();
        let mut h = History::new(10_000);
        let mut est = OffsetEstimator::new(&c);
        let e0 = ex(0.0, 0.0);
        let c_bar = c_bar_for(&e0, P);
        for k in 0..100u64 {
            let r = admit(&mut h, ex(k as f64 * 16.0, 0.0));
            est.process(&c, &h, &r, P, c_bar, None, k < 16, false);
        }
        let before = est.theta().unwrap();
        // 150 ms server fault: naive θ̂ᵢ jumps to −150 ms, RTT unaffected
        let mut saw_sanity = false;
        for k in 100..110u64 {
            let mut e = ex(k as f64 * 16.0, 0.0);
            e.tb += 0.150;
            e.te += 0.150;
            let r = admit(&mut h, e);
            let (_, ev) = est.process(&c, &h, &r, P, c_bar, None, false, false);
            if ev == OffsetEvent::SanityDuplicated {
                saw_sanity = true;
            }
        }
        assert!(saw_sanity, "sanity check must fire on a 150 ms fault");
        // damage limited to ≪ the fault size (paper: "a millisecond or less")
        let after = est.theta().unwrap();
        assert!(
            (after - before).abs() < 1.5e-3,
            "fault leaked {} into θ̂",
            after - before
        );
    }

    #[test]
    fn poor_quality_window_carries_estimate_forward() {
        let c = cfg();
        let mut h = History::new(10_000);
        let mut est = OffsetEstimator::new(&c);
        let e0 = ex(0.0, 0.0);
        let c_bar = c_bar_for(&e0, P);
        for k in 0..120u64 {
            let r = admit(&mut h, ex(k as f64 * 16.0, 0.0));
            est.process(&c, &h, &r, P, c_bar, None, k < 16, false);
        }
        let before = est.theta().unwrap();
        // a long congestion episode: every packet ≥ 3 ms point error. After
        // ~τ′ packets the whole window is poor → fallback.
        let mut saw_fallback = false;
        for k in 120..220u64 {
            let r = admit(&mut h, ex(k as f64 * 16.0, 3e-3));
            let (_, ev) = est.process(&c, &h, &r, P, c_bar, None, false, false);
            if ev == OffsetEvent::PoorQualityFallback {
                saw_fallback = true;
            }
        }
        assert!(saw_fallback, "sustained congestion must trigger fallback");
        let after = est.theta().unwrap();
        assert!(
            (after - before).abs() < 100e-6,
            "estimate should barely move under fallback: {}",
            after - before
        );
    }

    #[test]
    fn linear_prediction_uses_gamma_l() {
        let mut est = OffsetEstimator::new(&cfg());
        est.theta = Some(1e-3);
        est.last_tfc = 0.0;
        // γ̂l = +0.05 PPM (locally slow oscillator) over 1000 s → −50 µs
        let tf_c = 1000.0 / P;
        let th = est.predict(tf_c, P, Some(0.05e-6)).unwrap();
        assert!((th - 1e-3 + 50e-6).abs() < 1e-9);
        // constant prediction without γ̂l
        let th0 = est.predict(tf_c, P, None).unwrap();
        assert_eq!(th0, 1e-3);
    }

    #[test]
    fn gap_blend_pulls_toward_new_data() {
        let c = cfg();
        let mut h = History::new(10_000);
        let mut est = OffsetEstimator::new(&c);
        let e0 = ex(0.0, 0.0);
        let c_bar = c_bar_for(&e0, P);
        for k in 0..100u64 {
            let r = admit(&mut h, ex(k as f64 * 16.0, 0.0));
            est.process(&c, &h, &r, P, c_bar, None, k < 16, false);
        }
        // big gap, then a congested packet: window quality poor (all old
        // packets are aged far beyond E**), gap_large = true
        let t_resume = 100.0 * 16.0 + 50_000.0;
        let r = admit(&mut h, ex(t_resume, 1e-3));
        let (_, ev) = est.process(&c, &h, &r, P, c_bar, None, false, true);
        assert_eq!(ev, OffsetEvent::GapBlend);
    }

    #[test]
    fn uninitialised_estimator_returns_none() {
        let est = OffsetEstimator::new(&cfg());
        assert!(est.theta().is_none());
        assert!(est.predict(0.0, P, None).is_none());
    }

    /// `(κmin, min_idx)` is, after every packet the window absorbs, the
    /// minimum κ of the window's records and the newest record holding
    /// it, through rising ramps (a rescan every packet), plateaus (ties
    /// at ε = 0) and drops onto the expiring minimum.
    #[test]
    fn running_minimum_is_the_window_minimum() {
        for eps in [0.0, 0.02e-6] {
            let c = ClockConfig { aging_rate: eps, ..cfg() };
            let mut h = History::new(10_000);
            let mut est = OffsetEstimator::new(&c);
            let c_bar = c_bar_for(&ex(0.0, 0.0), P);
            let n = est.window_n as u64;
            let mut qs: Vec<f64> = Vec::new();
            for k in 0..12 * n {
                let q = match (k / (2 * n)) % 3 {
                    _ if k < 2 * n => (k % 3) as f64 * 1e-6,
                    0 => 10e-6 + (k % (2 * n)) as f64 * 1e-6,
                    1 => 30e-6,
                    _ => qs[(k - n) as usize] - if k % 2 == 0 { 0.0 } else { 0.5e-6 },
                };
                qs.push(q);
                let r = admit(&mut h, ex(k as f64 * 16.0, q));
                est.process(&c, &h, &r, P, c_bar, None, k < 16, false);
                let w = &est.win;
                if !w.valid {
                    continue;
                }
                let want = h.last_n(w.len).fold((f64::INFINITY, 0), |(m, i), r| {
                    let kap = FactoredWindow::kappa_of(r.rtt_c() - r.rbase_c, r.tf_c(), eps);
                    if kap <= m { (kap, r.idx) } else { (m, i) }
                });
                assert_eq!((w.kappa_min.to_bits(), w.min_idx), (want.0.to_bits(), want.1), "{k}");
            }
        }
    }

    /// The incremental machinery must agree with a from-scratch estimator
    /// whose every window evaluation is a rebuild (cadence 1 ⇒ the sums
    /// are refilled exactly each packet): any drift between the rolling
    /// and refilled forms beyond float noise is a bug. Exercises new
    /// minima (rebase events), congestion spikes (domination guard) and
    /// a long clean run (cadence rebuilds).
    #[test]
    fn incremental_matches_forced_rebuild_estimator() {
        let c = cfg();
        let (mut h1, mut h2) = (History::new(10_000), History::new(10_000));
        let mut rolling = OffsetEstimator::new(&c);
        let mut refill = OffsetEstimator::new(&c);
        refill.set_rebuild_cadence(1);
        let e0 = ex(0.0, 0.0);
        let c_bar = c_bar_for(&e0, P);
        for k in 0..2500u64 {
            // deterministic congestion pattern with a mid-run improvement
            // of the RTT floor (new-minimum rebase) at k = 900
            let q = match k {
                _ if k % 11 == 0 => 1.5e-3,
                _ if k % 7 == 3 => 120e-6,
                _ => (k % 5) as f64 * 8e-6,
            };
            let mut e = ex(k as f64 * 16.0, q);
            if k >= 900 {
                // downward route change: every RTT 80 µs shorter
                e.tb -= 40e-6;
                e.te -= 40e-6;
                e.tf_tsc -= (80e-6 / P) as u64;
            }
            let r1 = admit(&mut h1, e);
            let r2 = admit(&mut h2, e);
            let (a, ev_a) = rolling.process(&c, &h1, &r1, P, c_bar, None, k < 16, false);
            let (b, ev_b) = refill.process(&c, &h2, &r2, P, c_bar, None, k < 16, false);
            assert_eq!(ev_a, ev_b, "event diverged at {k}");
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(b.abs()) + 5e-11,
                "θ̂ diverged at {k}: {a:e} vs {b:e}"
            );
        }
    }
}
