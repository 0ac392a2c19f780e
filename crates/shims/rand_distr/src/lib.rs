//! Local subset of `rand_distr`: the `Distribution` trait plus the
//! exponential and Pareto distributions, and ziggurat samplers (the same
//! algorithm upstream uses) for the two hot-path distributions — a
//! [`StandardNormal`] for the Gaussian draws and an [`Exp1`] standard
//! exponential backing [`Exp`]. The common case of either costs one
//! keystream `u64`, one multiply and a table compare instead of the
//! two-draw/multi-libm-call classic formulations (Box-Muller, `−ln(u)`);
//! edge layers and tails fall back to exact rejection sampling, so both
//! distributions are exact, not approximate.
//!
//! The samplers are `#[inline]` and only the rectangle-accept path is in
//! line (word → layer → multiply → compare against a literal table in
//! [`tables`]); wedges and tails — the only place `exp` / `ln` remain —
//! live in one `#[cold]` function per distribution, so a caller in another
//! crate pays no call on ~98.5 % of draws even without LTO.

use rand::RngCore;

mod tables;
use tables::{ZIG_EXP_F, ZIG_EXP_X, ZIG_NORM_F, ZIG_NORM_X};

/// Types that can be sampled from a distribution.
pub trait Distribution<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Invalid-parameter error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(pub &'static str);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

/// Uniform in `[0, 1)` from raw bits (object-safe over `?Sized` RNGs).
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Generic over the float type like upstream (`Exp<f64>`); only `f64` is
/// implemented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp<F = f64> {
    lambda: F,
}

impl Exp<f64> {
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if lambda.is_finite() && lambda > 0.0 {
            Ok(Self { lambda })
        } else {
            Err(ParamError("Exp rate must be finite and positive"))
        }
    }
}

#[cfg(test)]
impl Exp<f64> {
    /// The inverse-CDF formulation (`−ln(1−u)/λ`): one uniform and one
    /// `ln` per draw — the ground truth of the ziggurat parity tests.
    fn sample_inverse_cdf<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // u ∈ [0,1); 1−u ∈ (0,1] so ln is finite.
        -(1.0 - unit_f64(rng)).ln() / self.lambda
    }
}

impl Distribution<f64> for Exp<f64> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        Exp1.sample(rng) / self.lambda
    }
}

/// Pareto distribution with minimum `scale` and tail index `shape`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto<F = f64> {
    scale: F,
    /// `−1 / shape`, the `powf` exponent, divided once here rather than
    /// on every draw (as upstream `rand_distr` stores it).
    inv_neg_shape: F,
}

impl Pareto<f64> {
    pub fn new(scale: f64, shape: f64) -> Result<Self, ParamError> {
        if scale.is_finite() && scale > 0.0 && shape.is_finite() && shape > 0.0 {
            Ok(Self {
                scale,
                inv_neg_shape: -1.0 / shape,
            })
        } else {
            Err(ParamError("Pareto scale and shape must be positive"))
        }
    }
}

impl Distribution<f64> for Pareto<f64> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.scale * (1.0 - unit_f64(rng)).powf(self.inv_neg_shape)
    }
}

/// Where the standard normal's ziggurat tail starts (the canonical
/// 256-layer parameter, as in upstream `rand_distr`).
const ZIG_R: f64 = 3.654_152_885_361_009;

/// The standard normal distribution `N(0, 1)`, sampled with the ziggurat
/// algorithm: the common case costs one `u64` draw, one multiply and one
/// table compare; edges and the tail (|z| > 3.654) fall back to exact
/// rejection sampling, so the distribution is exact, not approximate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandardNormal;

/// Splits a keystream word into the layer index (low 8 bits), the
/// symmetric uniform `u ∈ [-1, 1)` from the top 53 bits (independent of
/// the index bits) and the candidate `x = u · x[layer]`.
#[inline(always)]
fn zig_norm_candidate(bits: u64) -> (usize, f64, f64) {
    let i = (bits & 0xFF) as usize;
    let u = ((bits >> 11) as f64) * (2.0 / (1u64 << 53) as f64) - 1.0;
    (i, u, u * ZIG_NORM_X[i])
}

/// Everything but the rectangle accept, entered with a candidate that
/// missed its rectangle: the tail beyond `R` (layer 0, Marsaglia's exact
/// method) and the layer wedges, each completing with direct draws from
/// `rng`; a rejected wedge retries with a fresh keystream word.
#[cold]
#[inline(never)]
fn zig_norm_edge<R: RngCore + ?Sized>(rng: &mut R, mut i: usize, mut u: f64, mut x: f64) -> f64 {
    loop {
        if i == 0 {
            loop {
                let u1 = (1.0 - unit_f64(rng)).max(f64::MIN_POSITIVE);
                let u2 = 1.0 - unit_f64(rng);
                let xt = -u1.ln() / ZIG_R;
                if -2.0 * u2.ln() >= xt * xt {
                    return if u < 0.0 { -(ZIG_R + xt) } else { ZIG_R + xt };
                }
            }
        }
        // Wedge: accept with probability proportional to the pdf gap.
        let (f0, f1) = (ZIG_NORM_F[i], ZIG_NORM_F[i + 1]);
        if f1 + (f0 - f1) * unit_f64(rng) < (-0.5 * x * x).exp() {
            return x;
        }
        (i, u, x) = zig_norm_candidate(rng.next_u64());
        if x.abs() < ZIG_NORM_X[i + 1] {
            return x;
        }
    }
}

impl Distribution<f64> for StandardNormal {
    /// One keystream word, accepted inside its layer's rectangle in the
    /// ~98.5 % case; the rare wedge/tail cases draw further words. Always
    /// inlined: the oscillator's cell step has eight call sites, more than
    /// the inliner takes by itself.
    #[inline(always)]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let (i, u, x) = zig_norm_candidate(rng.next_u64());
        if x.abs() < ZIG_NORM_X[i + 1] {
            return x; // inside the layer's rectangle: accept
        }
        zig_norm_edge(rng, i, u, x)
    }
}

/// Where the standard exponential's ziggurat tail starts (canonical
/// 256-layer parameter, as in upstream `rand_distr`).
const ZIG_EXP_R: f64 = 7.697_117_470_131_05;

/// The standard exponential distribution `Exp(1)`, sampled with the
/// ziggurat algorithm: the common case costs one `u64` draw, one multiply
/// and one table compare — no `ln`. Edge layers fall back to exact wedge
/// rejection and the tail (`x > 7.697`) to the memoryless identity
/// `R + Exp(1)`, so the distribution is exact, not approximate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exp1;

/// Layer index (low 8 bits) and candidate `x = u · x[layer]` with
/// `u ∈ [0, 1)` from the top 53 bits of a keystream word.
#[inline(always)]
fn zig_exp_candidate(bits: u64) -> (usize, f64) {
    let i = (bits & 0xFF) as usize;
    let u = ((bits >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
    (i, u * ZIG_EXP_X[i])
}

/// Everything but the rectangle accept, entered with a candidate that
/// missed its rectangle: the tail (layer 0) is `R + Exp(1)` by
/// memorylessness, one inverse-CDF draw; a rejected wedge retries with a
/// fresh keystream word.
#[cold]
#[inline(never)]
fn zig_exp_edge<R: RngCore + ?Sized>(rng: &mut R, mut i: usize, mut x: f64) -> f64 {
    loop {
        if i == 0 {
            return ZIG_EXP_R - (1.0 - unit_f64(rng)).ln();
        }
        // Wedge: accept with probability proportional to the pdf gap.
        let (f0, f1) = (ZIG_EXP_F[i], ZIG_EXP_F[i + 1]);
        if f1 + (f0 - f1) * unit_f64(rng) < (-x).exp() {
            return x;
        }
        (i, x) = zig_exp_candidate(rng.next_u64());
        if x < ZIG_EXP_X[i + 1] {
            return x;
        }
    }
}

impl Distribution<f64> for Exp1 {
    // `always`: with a plain hint LLVM keeps one out-of-line copy for the
    // path-delay model's two draws a packet (raw poll-16 generation ×0.96
    // in time with it forced, 5 of 6 interleaved pairs).
    #[inline(always)]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let (i, x) = zig_exp_candidate(rng.next_u64());
        if x < ZIG_EXP_X[i + 1] {
            return x; // inside the layer's rectangle: accept
        }
        zig_exp_edge(rng, i, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Lcg(u64);
    impl RngCore for Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }
    impl SeedableRng for Lcg {
        type Seed = [u8; 8];
        fn from_seed(seed: Self::Seed) -> Self {
            Lcg(u64::from_le_bytes(seed) | 1)
        }
    }

    #[test]
    fn exp_mean_matches_rate() {
        let d = Exp::new(2.0).unwrap();
        let mut rng = Lcg::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let d = Pareto::new(3.0, 2.5).unwrap();
        let mut rng = Lcg::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 3.0);
        }
    }

    #[test]
    fn bad_params_rejected() {
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(f64::NAN).is_err());
        assert!(Pareto::new(-1.0, 2.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
    }

    /// SplitMix64: the ziggurat consumes low bits for the layer index, so
    /// the test RNG must have full-width diffusion (the Lcg above doesn't).
    struct Sm(u64);
    impl RngCore for Sm {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    const ZIG_LAYERS: usize = 256;
    type Table = [f64; ZIG_LAYERS + 1];
    /// Area of every layer (and of the base strip with its tail): the `V`
    /// that goes with `ZIG_R` / `ZIG_EXP_R` at 256 layers.
    const ZIG_V: f64 = 4.928_673_233_990_11e-3;
    const ZIG_EXP_V: f64 = 3.949_659_822_581_557e-3;

    /// The formulas the literals in `tables.rs` were printed from: layer
    /// boundaries `x[0] = V/f(R) > R`, `x[1] = R`, then equal-area layers
    /// `x[i]·(f(x[i+1]) − f(x[i])) = V` down to `x[256] = 0`, and
    /// `f[i] = pdf(x[i])`. `inv(y)` solves `pdf(x) = y`, clamped at 0.
    fn computed(r: f64, v: f64, pdf: fn(f64) -> f64, inv: fn(f64) -> f64) -> (Table, Table) {
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = v / pdf(r);
        x[1] = r;
        for i in 1..ZIG_LAYERS {
            x[i + 1] = inv(v / x[i] + pdf(x[i]));
        }
        x[ZIG_LAYERS] = 0.0;
        (x, x.map(pdf))
    }

    fn computed_norm() -> (Table, Table) {
        computed(
            ZIG_R,
            ZIG_V,
            |x| (-0.5 * x * x).exp(),
            |y| (-2.0 * y.ln()).max(0.0).sqrt(),
        )
    }

    fn computed_exp() -> (Table, Table) {
        computed(ZIG_EXP_R, ZIG_EXP_V, |x| (-x).exp(), |y| (-y.ln()).max(0.0))
    }

    /// Layer geometry of a literal table pair: boundaries strictly
    /// decreasing from `x[1] = R` to `x[256] = 0`, `f` strictly increasing
    /// to `f(0) = 1`, every layer `i ≥ 1` of area `V`.
    fn assert_layers(x: &Table, f: &Table, r: f64, v: f64) {
        assert_eq!(x[1], r);
        assert_eq!(x[ZIG_LAYERS], 0.0);
        assert_eq!(f[ZIG_LAYERS], 1.0);
        for i in 1..=ZIG_LAYERS {
            assert!(x[i] < x[i - 1], "x not decreasing at {i}");
            assert!(f[i] > f[i - 1], "f not increasing at {i}");
        }
        for i in 1..ZIG_LAYERS {
            let area = x[i] * (f[i + 1] - f[i]);
            assert!((area - v).abs() < 1e-9, "layer {i} area {area}");
        }
    }

    #[test]
    fn literal_tables_have_the_ziggurat_geometry() {
        assert!((ZIG_NORM_X[0] - ZIG_V / (-0.5 * ZIG_R * ZIG_R).exp()).abs() < 1e-12);
        assert_layers(&ZIG_NORM_X, &ZIG_NORM_F, ZIG_R, ZIG_V);
        assert!((ZIG_EXP_X[0] - ZIG_EXP_V / (-ZIG_EXP_R).exp()).abs() < 1e-9);
        assert_layers(&ZIG_EXP_X, &ZIG_EXP_F, ZIG_EXP_R, ZIG_EXP_V);
    }

    /// The literals against this host's libm: the recursion that printed
    /// them, re-run, lands within 1 ulp of every entry (0 ulp on the host
    /// that printed them).
    #[test]
    fn literal_tables_match_the_formulas_within_one_ulp() {
        let (nx, nf) = computed_norm();
        let (ex, ef) = computed_exp();
        for (name, literal, computed) in [
            ("ZIG_NORM_X", &ZIG_NORM_X, &nx),
            ("ZIG_NORM_F", &ZIG_NORM_F, &nf),
            ("ZIG_EXP_X", &ZIG_EXP_X, &ex),
            ("ZIG_EXP_F", &ZIG_EXP_F, &ef),
        ] {
            for (i, (l, c)) in literal.iter().zip(computed).enumerate() {
                // Non-negative finite floats order like their bit patterns.
                let ulps = l.to_bits().abs_diff(c.to_bits());
                assert!(ulps <= 1, "{name}[{i}]: literal {l:?} vs computed {c:?}");
            }
        }
    }

    /// Known answer over the literal bits (FNV-1a-64 of the 4 × 257 words,
    /// table by table): every draw of every simulated stream is a function
    /// of these, so an edited literal fails here on any host, whatever its
    /// libm computes.
    #[test]
    fn literal_tables_are_pinned_bit_for_bit() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for table in [&ZIG_NORM_X, &ZIG_NORM_F, &ZIG_EXP_X, &ZIG_EXP_F] {
            for v in table {
                h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, TABLES_DIGEST, "table digest {h:#018x}");
    }
    const TABLES_DIGEST: u64 = 0x1497_0729_3f01_1c66;

    /// Rewrites `src/tables.rs` from the formulas and this host's libm:
    /// `cargo test -p rand_distr regenerate_tables -- --ignored`. A file
    /// that comes out different moves every simulated stream; the digest
    /// above and the root `tests/generator_golden.rs` say so.
    #[test]
    #[ignore = "rewrites src/tables.rs; not a check"]
    fn regenerate_tables() {
        use std::fmt::Write;
        let (nx, nf) = computed_norm();
        let (ex, ef) = computed_exp();
        let mut out = String::from(TABLES_HEADER);
        let tables = [
            (
                "ZIG_NORM_X",
                "Normal layer boundaries: `x[0] = V/f(R) > R`, `x[1] = R`, `x[256] = 0`.",
                &nx,
            ),
            ("ZIG_NORM_F", "`f[i] = exp(-x[i]²/2)` at the normal boundaries.", &nf),
            ("ZIG_EXP_X", "Exponential layer boundaries, same layout.", &ex),
            ("ZIG_EXP_F", "`f[i] = exp(-x[i])` at the exponential boundaries.", &ef),
        ];
        for (name, doc, table) in tables {
            writeln!(out, "\n/// {doc}\n#[rustfmt::skip]").unwrap();
            writeln!(out, "pub(crate) static {name}: [f64; 257] = [").unwrap();
            for row in table.chunks(4) {
                let row: Vec<String> = row.iter().map(|v| format!("{v:?},")).collect();
                writeln!(out, "    {}", row.join(" ")).unwrap();
            }
            out.push_str("];\n");
        }
        std::fs::write(concat!(env!("CARGO_MANIFEST_DIR"), "/src/tables.rs"), out).unwrap();
    }

    const TABLES_HEADER: &str = "\
//! Generated by `regenerate_tables` in `lib.rs` (see `crates/shims/README.md`).
//!
//! The ziggurat tables as data: 4 × 257 `f64` literals, printed once with
//! `{:?}` (shortest round-trip, so each parses back to the same bits) from
//! the recursion in `lib.rs`'s tests. They used to be built on first use
//! from libm `exp` / `ln`, which made every simulated stream a function of
//! the host's libm and put a `OnceLock` load and a call in front of every
//! draw; as literals they are part of the source, and the sampler's accept
//! path can be inlined into its callers. Do not edit by hand: the shim's
//! tests pin the bits and re-derive every entry to within 1 ulp.
";

    #[test]
    fn standard_normal_moments_match() {
        let mut rng = Sm(7);
        let n = 2_000_000usize;
        let (mut s1, mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0, 0.0);
        let (mut gt1, mut gt2, mut gt3, mut tail) = (0usize, 0, 0, 0);
        for _ in 0..n {
            let z = StandardNormal.sample(&mut rng);
            s1 += z;
            s2 += z * z;
            s3 += z * z * z;
            s4 += z * z * z * z;
            let a = z.abs();
            if a > 1.0 {
                gt1 += 1;
            }
            if a > 2.0 {
                gt2 += 1;
            }
            if a > 3.0 {
                gt3 += 1;
            }
            if a > ZIG_R {
                tail += 1;
            }
        }
        let nf = n as f64;
        assert!((s1 / nf).abs() < 3e-3, "mean {}", s1 / nf);
        assert!((s2 / nf - 1.0).abs() < 5e-3, "variance {}", s2 / nf);
        assert!((s3 / nf).abs() < 1e-2, "skew {}", s3 / nf);
        assert!((s4 / nf - 3.0).abs() < 5e-2, "kurtosis {}", s4 / nf);
        let frac = |k: usize| k as f64 / nf;
        assert!((frac(gt1) - 0.3173).abs() < 3e-3, "P(|z|>1) = {}", frac(gt1));
        assert!((frac(gt2) - 0.0455).abs() < 1.5e-3, "P(|z|>2) = {}", frac(gt2));
        assert!((frac(gt3) - 0.0027).abs() < 4e-4, "P(|z|>3) = {}", frac(gt3));
        // the Marsaglia tail path is actually exercised and has the right
        // mass: P(|z| > 3.6542) ≈ 2.58e-4
        assert!(
            frac(tail) > 0.5e-4 && frac(tail) < 5e-4,
            "P(|z|>R) = {}",
            frac(tail)
        );
    }

    #[test]
    fn standard_normal_quantiles_match() {
        // Empirical CDF at a few probe points vs Φ(x).
        let mut rng = Sm(13);
        let n = 1_000_000usize;
        let probes = [-2.0f64, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0];
        let phi = [0.02275, 0.15866, 0.30854, 0.5, 0.69146, 0.84134, 0.97725];
        let mut counts = [0usize; 7];
        for _ in 0..n {
            let z = StandardNormal.sample(&mut rng);
            for (j, &p) in probes.iter().enumerate() {
                if z <= p {
                    counts[j] += 1;
                }
            }
        }
        for j in 0..probes.len() {
            let got = counts[j] as f64 / n as f64;
            assert!(
                (got - phi[j]).abs() < 2.5e-3,
                "CDF({}) = {got} vs {}",
                probes[j],
                phi[j]
            );
        }
    }

    /// Moment/tail parity of the ziggurat exponential against the retained
    /// `−ln(1−u)` inverse-CDF path: same mean, variance, skewness and tail
    /// masses to within sampling error, on independent streams.
    #[test]
    fn exp_ziggurat_matches_inverse_cdf_moments_and_tails() {
        let d = Exp::new(1.0).unwrap();
        let n = 2_000_000usize;
        let collect = |samples: Box<dyn Iterator<Item = f64>>| {
            let (mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0);
            let (mut t1, mut t3, mut t8) = (0usize, 0, 0);
            for x in samples {
                assert!(x >= 0.0, "exponential sample negative: {x}");
                s1 += x;
                s2 += x * x;
                s3 += x * x * x;
                if x > 1.0 {
                    t1 += 1;
                }
                if x > 3.0 {
                    t3 += 1;
                }
                // beyond the ziggurat R: the Marsaglia tail path
                if x > 8.0 {
                    t8 += 1;
                }
            }
            let nf = n as f64;
            [s1 / nf, s2 / nf, s3 / nf, t1 as f64 / nf, t3 as f64 / nf, t8 as f64 / nf]
        };
        let mut zig_rng = Sm(17);
        let zig = collect(Box::new((0..n).map(move |_| d.sample(&mut zig_rng))));
        let mut ln_rng = Sm(18);
        let ln = collect(Box::new(
            (0..n).map(move |_| d.sample_inverse_cdf(&mut ln_rng)),
        ));
        // Exp(1) truth: E=1, E[x²]=2, E[x³]=6, P(>1)=e⁻¹, P(>3)=e⁻³, P(>8)=e⁻⁸.
        let truth = [
            1.0,
            2.0,
            6.0,
            (-1.0f64).exp(),
            (-3.0f64).exp(),
            (-8.0f64).exp(),
        ];
        let tol = [3e-3, 1.5e-2, 1e-1, 1.5e-3, 3e-4, 2e-5];
        for (k, name) in ["mean", "E[x²]", "E[x³]", "P(>1)", "P(>3)", "P(>8)"]
            .iter()
            .enumerate()
        {
            assert!(
                (zig[k] - truth[k]).abs() < tol[k],
                "ziggurat {name}: {} vs {}",
                zig[k],
                truth[k]
            );
            assert!(
                (zig[k] - ln[k]).abs() < 2.0 * tol[k],
                "{name} diverges from ln path: {} vs {}",
                zig[k],
                ln[k]
            );
        }
        // the tail path fires with the right (tiny but nonzero) mass
        assert!(zig[5] > 0.0, "Exp(1) tail beyond 8 never sampled");
    }

    #[test]
    fn exp_quantiles_match_inverse_cdf() {
        // Empirical CDF at probe points vs 1 − e⁻ˣ, for both paths.
        let d = Exp::new(1.0).unwrap();
        let n = 1_000_000usize;
        let probes = [0.1f64, 0.5, 1.0, 2.0, 4.0, ZIG_EXP_R];
        let run = |ziggurat: bool, seed: u64| {
            let mut rng = Sm(seed);
            let mut counts = [0usize; 6];
            for _ in 0..n {
                let x = if ziggurat {
                    d.sample(&mut rng)
                } else {
                    d.sample_inverse_cdf(&mut rng)
                };
                for (j, &p) in probes.iter().enumerate() {
                    if x <= p {
                        counts[j] += 1;
                    }
                }
            }
            counts
        };
        let zig = run(true, 23);
        let ln = run(false, 24);
        for (j, &p) in probes.iter().enumerate() {
            let cdf = 1.0 - (-p).exp();
            for (name, got) in [("ziggurat", zig[j]), ("ln", ln[j])] {
                let got = got as f64 / n as f64;
                assert!(
                    (got - cdf).abs() < 2.5e-3,
                    "{name} CDF({p}) = {got} vs {cdf}"
                );
            }
        }
    }

    #[test]
    fn exp_lambda_scales_both_paths() {
        let d = Exp::new(4.0).unwrap();
        let mut rng = Sm(31);
        let n = 400_000;
        let mean_zig = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        let mean_ln = (0..n).map(|_| d.sample_inverse_cdf(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean_zig - 0.25).abs() < 2e-3, "ziggurat mean {mean_zig}");
        assert!((mean_ln - 0.25).abs() < 2e-3, "ln mean {mean_ln}");
    }

    #[test]
    fn standard_normal_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut rng = Sm(seed);
            (0..1000)
                .map(|_| StandardNormal.sample(&mut rng).to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
