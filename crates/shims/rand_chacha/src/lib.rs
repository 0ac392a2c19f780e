//! A real ChaCha12 keystream RNG for the rand shim.
//!
//! Deterministic per seed (which is all the simulator needs — traces are
//! reproducible bit-for-bit for a given scenario seed); not guaranteed to
//! produce the same stream as the upstream `rand_chacha` crate.
//!
//! # Multi-block refill
//!
//! The keystream is produced eight blocks at a time into a 128-word
//! buffer: blocks with counters `c .. c+8` are computed by the best of
//! three kernels the host can run (picked once per generator, same
//! runtime-detection pattern as `tscclock::fastmath`) — eight sequential
//! scalar block functions, or one vector body that interleaves the eight
//! independent block states across the 32-bit lanes of `__m256i` rows,
//! instantiated for AVX2 (a rotate is shift-shift-or) and for AVX-512VL
//! (a rotate is one `vprold`: 12 vector ops a quarter-round instead of
//! 20, and 32 vector registers, so the 16 rows never spill). All emit words in counter
//! order, so the keystream is **bit-identical by construction** to the
//! original one-block-at-a-time scalar implementation — the parity tests
//! below verify ≥4096 words across seeds and buffer/counter boundaries,
//! word for word, for every kernel the host has.

use rand::{RngCore, SeedableRng};

/// Words buffered per refill: 8 ChaCha blocks. Public so snapshot
/// restores can bounds-check an exported `idx` before
/// [`ChaCha12Rng::from_state`] (which panics on out-of-range values).
pub const BUF_WORDS: usize = 128;

/// ChaCha with 12 rounds, keyed by a 32-byte seed, zero nonce.
#[derive(Debug, Clone)]
pub struct ChaCha12Rng {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// 64-bit block counter (state words 12..13 as low/high) of the next
    /// block to generate.
    counter: u64,
    /// Buffered keystream: 8 consecutive blocks.
    buf: [u32; BUF_WORDS],
    /// Next unread word in `buf`; `BUF_WORDS` means exhausted.
    idx: usize,
    /// The refill kernel: the last of [`kernels`] unless a parity test
    /// pinned another (the keystream is identical either way).
    kernel: Kernel,
}

/// An eight-block kernel: blocks `counter..counter+8` of the keystream for
/// `key`, in counter order, into `out`.
type Kernel = fn(&[u32; 8], u64, &mut [u32; BUF_WORDS]);

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One ChaCha12 block with the given key and counter, written to `out`.
#[inline]
fn block_scalar(key: &[u32; 8], counter: u64, out: &mut [u32]) {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    state[14] = 0;
    state[15] = 0;
    let input = state;
    // 12 rounds = 6 double rounds.
    for _ in 0..6 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for i in 0..16 {
        out[i] = state[i].wrapping_add(input[i]);
    }
}

/// Eight sequential blocks (counters `counter..counter+8`) into `out`.
fn blocks_x8_scalar(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    for b in 0..8 {
        block_scalar(key, counter.wrapping_add(b as u64), &mut out[b * 16..(b + 1) * 16]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BUF_WORDS, CONSTANTS};
    use std::arch::x86_64::*;

    /// The one thing the two vector instantiations differ in: a 32-bit
    /// lane-wise left rotate by `L` (`R = 32 − L`).
    trait Rotate {
        unsafe fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i;
    }

    /// AVX2 has no vector rotate: shift-shift-or. (`vpshufb` for the 16-
    /// and 8-bit rotates was measured and is no faster here: the two masks
    /// cost registers the 16 rows already spill from.)
    struct ShiftOr;
    impl Rotate for ShiftOr {
        #[inline(always)]
        unsafe fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
            _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
        }
    }

    /// AVX-512VL: `vprold` on 256-bit rows.
    struct Vprold;
    impl Rotate for Vprold {
        #[inline(always)]
        unsafe fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
            _mm256_rol_epi32::<L>(x)
        }
    }

    #[inline(always)]
    unsafe fn qr<Rot: Rotate>(rows: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        rows[a] = _mm256_add_epi32(rows[a], rows[b]);
        rows[d] = Rot::rotl::<16, 16>(_mm256_xor_si256(rows[d], rows[a]));
        rows[c] = _mm256_add_epi32(rows[c], rows[d]);
        rows[b] = Rot::rotl::<12, 20>(_mm256_xor_si256(rows[b], rows[c]));
        rows[a] = _mm256_add_epi32(rows[a], rows[b]);
        rows[d] = Rot::rotl::<8, 24>(_mm256_xor_si256(rows[d], rows[a]));
        rows[c] = _mm256_add_epi32(rows[c], rows[d]);
        rows[b] = Rot::rotl::<7, 25>(_mm256_xor_si256(rows[b], rows[c]));
    }

    /// Eight interleaved blocks: each of the 16 state words becomes a
    /// `__m256i` row holding that word for blocks `c..c+8` (one per 32-bit
    /// lane), the rounds run on whole rows, and an 8×8 lane transpose at
    /// the end lays the blocks out sequentially — i.e. exactly the scalar
    /// output order. Always inlined into one of the two `target_feature`
    /// entry points below, which is where its intrinsics get their ISA.
    #[inline(always)]
    unsafe fn blocks_x8<Rot: Rotate>(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        let mut rows = [_mm256_setzero_si256(); 16];
        for i in 0..4 {
            rows[i] = _mm256_set1_epi32(CONSTANTS[i] as i32);
        }
        for i in 0..8 {
            rows[4 + i] = _mm256_set1_epi32(key[i] as i32);
        }
        let mut c = [0u64; 8];
        for (b, ci) in c.iter_mut().enumerate() {
            *ci = counter.wrapping_add(b as u64);
        }
        // `_mm256_set_epi32` takes lanes high-to-low; lane b must be block b.
        rows[12] = _mm256_set_epi32(
            c[7] as u32 as i32,
            c[6] as u32 as i32,
            c[5] as u32 as i32,
            c[4] as u32 as i32,
            c[3] as u32 as i32,
            c[2] as u32 as i32,
            c[1] as u32 as i32,
            c[0] as u32 as i32,
        );
        rows[13] = _mm256_set_epi32(
            (c[7] >> 32) as u32 as i32,
            (c[6] >> 32) as u32 as i32,
            (c[5] >> 32) as u32 as i32,
            (c[4] >> 32) as u32 as i32,
            (c[3] >> 32) as u32 as i32,
            (c[2] >> 32) as u32 as i32,
            (c[1] >> 32) as u32 as i32,
            (c[0] >> 32) as u32 as i32,
        );
        // rows[14], rows[15] stay zero (nonce).
        let input = rows;
        for _ in 0..6 {
            qr::<Rot>(&mut rows, 0, 4, 8, 12);
            qr::<Rot>(&mut rows, 1, 5, 9, 13);
            qr::<Rot>(&mut rows, 2, 6, 10, 14);
            qr::<Rot>(&mut rows, 3, 7, 11, 15);
            qr::<Rot>(&mut rows, 0, 5, 10, 15);
            qr::<Rot>(&mut rows, 1, 6, 11, 12);
            qr::<Rot>(&mut rows, 2, 7, 8, 13);
            qr::<Rot>(&mut rows, 3, 4, 9, 14);
        }
        for i in 0..16 {
            rows[i] = _mm256_add_epi32(rows[i], input[i]);
        }
        // Transpose each half (word-rows 0..8 and 8..16) from word-major to
        // block-major with the standard AVX2 8×8 32-bit transpose: after it,
        // vector `b` of a half holds words `h·8 .. h·8+8` of block `b`.
        for h in 0..2 {
            let r = &rows[h * 8..h * 8 + 8];
            let t0 = _mm256_unpacklo_epi32(r[0], r[1]); // w0b0 w1b0 w0b1 w1b1 | b4 b5
            let t1 = _mm256_unpackhi_epi32(r[0], r[1]); // w0b2 w1b2 w0b3 w1b3 | b6 b7
            let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
            let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
            let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
            let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
            let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
            let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
            let u0 = _mm256_unpacklo_epi64(t0, t2); // w0..w4 of b0 | b4
            let u1 = _mm256_unpackhi_epi64(t0, t2); // b1 | b5
            let u2 = _mm256_unpacklo_epi64(t1, t3); // b2 | b6
            let u3 = _mm256_unpackhi_epi64(t1, t3); // b3 | b7
            let u4 = _mm256_unpacklo_epi64(t4, t6); // w4..w8 of b0 | b4
            let u5 = _mm256_unpackhi_epi64(t4, t6);
            let u6 = _mm256_unpacklo_epi64(t5, t7);
            let u7 = _mm256_unpackhi_epi64(t5, t7);
            let mut store = |block: usize, v: __m256i| {
                _mm256_storeu_si256(out.as_mut_ptr().add(block * 16 + h * 8) as *mut __m256i, v)
            };
            store(0, _mm256_permute2x128_si256(u0, u4, 0x20));
            store(4, _mm256_permute2x128_si256(u0, u4, 0x31));
            store(1, _mm256_permute2x128_si256(u1, u5, 0x20));
            store(5, _mm256_permute2x128_si256(u1, u5, 0x31));
            store(2, _mm256_permute2x128_si256(u2, u6, 0x20));
            store(6, _mm256_permute2x128_si256(u2, u6, 0x31));
            store(3, _mm256_permute2x128_si256(u3, u7, 0x20));
            store(7, _mm256_permute2x128_si256(u3, u7, 0x31));
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn blocks_x8_avx2(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        blocks_x8::<ShiftOr>(key, counter, out)
    }

    /// # Safety
    /// The CPU must support AVX2, AVX-512F and AVX-512VL.
    #[target_feature(enable = "avx2,avx512f,avx512vl")]
    unsafe fn blocks_x8_avx512vl(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        blocks_x8::<Vprold>(key, counter, out)
    }

    pub(super) fn has_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    pub(super) fn has_avx512vl() -> bool {
        has_avx2()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }

    // The safe entry points re-check their features (a cached load each,
    // against a ~100 ns kernel), so no caller can reach a kernel the CPU
    // lacks.

    pub(super) fn avx2(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        assert!(has_avx2());
        // SAFETY: the feature the kernel is compiled for was detected just above.
        unsafe { blocks_x8_avx2(key, counter, out) }
    }

    pub(super) fn avx512vl(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        assert!(has_avx512vl());
        // SAFETY: the features the kernel is compiled for were detected just above.
        unsafe { blocks_x8_avx512vl(key, counter, out) }
    }
}

/// The eight-block kernels this host can run as `(name, kernel)`, slowest
/// first; a new generator refills with the last. Hidden: it exists for the
/// parity tests and the `chacha12_refill` bench row.
#[doc(hidden)]
pub fn kernels() -> &'static [(&'static str, Kernel)] {
    #[cfg(target_arch = "x86_64")]
    {
        static ALL: [(&str, Kernel); 3] = [
            ("scalar", blocks_x8_scalar),
            ("avx2", x86::avx2),
            ("avx512vl", x86::avx512vl),
        ];
        &ALL[..1 + usize::from(x86::has_avx2()) + usize::from(x86::has_avx512vl())]
    }
    #[cfg(not(target_arch = "x86_64"))]
    &[("scalar", blocks_x8_scalar)]
}

fn best_kernel() -> Kernel {
    kernels().last().expect("the scalar kernel is always listed").1
}

impl ChaCha12Rng {
    #[inline(never)]
    fn refill(&mut self) {
        (self.kernel)(&self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(8);
        self.idx = 0;
    }

    /// Exports the full stream position as `(key, counter, idx)`.
    ///
    /// The buffered keystream is *derived* state (blocks `counter-8 ..
    /// counter` whenever `idx < BUF_WORDS`), so these three values pin the
    /// generator exactly: [`ChaCha12Rng::from_state`] rebuilds an RNG that
    /// continues the keystream word-for-word. This is the snapshot hook
    /// the lifecycle clients use to persist their jitter stream across a
    /// warm restart.
    pub fn export_state(&self) -> ([u32; 8], u64, usize) {
        (self.key, self.counter, self.idx)
    }

    /// Rebuilds an RNG from an [`ChaCha12Rng::export_state`] triple; the
    /// restored stream is bit-identical to the original from the exported
    /// position onward.
    ///
    /// # Panics
    /// Panics when `idx > BUF_WORDS` (not a value `export_state` emits).
    pub fn from_state(key: [u32; 8], counter: u64, idx: usize) -> Self {
        assert!(idx <= BUF_WORDS, "ChaCha12Rng state idx out of range");
        let mut rng = Self {
            key,
            counter,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
            kernel: best_kernel(),
        };
        if idx < BUF_WORDS {
            // The live buffer holds blocks `counter-8 .. counter`:
            // regenerate it, which re-advances the counter to `counter`.
            rng.counter = counter.wrapping_sub(8);
            rng.refill();
            rng.idx = idx;
        }
        rng
    }
}

impl RngCore for ChaCha12Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Fast path: both words still buffered.
        if self.idx + 2 <= BUF_WORDS {
            let lo = self.buf[self.idx] as u64;
            let hi = self.buf[self.idx + 1] as u64;
            self.idx += 2;
            return lo | (hi << 32);
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
            kernel: best_kernel(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha12Rng::seed_from_u64(42);
        let mut b = ChaCha12Rng::seed_from_u64(42);
        let mut c = ChaCha12Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    /// A generator pinned to one kernel (the field is private to this
    /// module; nothing outside it can pick).
    fn pinned(seed: u64, kernel: Kernel) -> ChaCha12Rng {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        rng.kernel = kernel;
        rng
    }

    /// The vector kernels this host has, against the scalar one.
    fn vector_kernels() -> (Kernel, &'static [(&'static str, Kernel)]) {
        let all = kernels();
        assert_eq!(all[0].0, "scalar");
        (all[0].1, &all[1..])
    }

    /// The central claim of the multi-kernel refill: the keystream is
    /// bit-identical to the scalar path. ≥4096 words per seed, so every
    /// comparison spans many 8-block buffer refills and dozens of counter
    /// increments.
    #[test]
    fn vector_keystreams_match_scalar_word_for_word() {
        let (scalar, vector) = vector_kernels();
        for &(name, kernel) in vector {
            for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
                let mut simd = pinned(seed, kernel);
                let mut reference = pinned(seed, scalar);
                for i in 0..4096 {
                    assert_eq!(
                        simd.next_u32(),
                        reference.next_u32(),
                        "{name}, seed {seed}: keystream diverged at word {i}"
                    );
                }
            }
        }
    }

    /// Direct kernel-level parity across a counter straddling the u64 wrap
    /// (lanes `c..c+8` must wrap independently).
    #[test]
    fn kernel_parity_across_counter_wrap() {
        let (scalar, vector) = vector_kernels();
        let key = [1u32, 2, 3, 4, 0xffff_ffff, 6, 7, 8];
        for &(name, kernel) in vector {
            for counter in [0u64, 1, 1000, u64::MAX - 7, u64::MAX - 3, u64::MAX - 1, u64::MAX] {
                let mut a = [0u32; BUF_WORDS];
                let mut b = [0u32; BUF_WORDS];
                scalar(&key, counter, &mut a);
                kernel(&key, counter, &mut b);
                assert_eq!(a, b, "{name}, counter {counter}");
            }
        }
    }

    /// A new generator refills with the widest kernel the host has, and
    /// the list never offers one it does not.
    #[test]
    fn dispatch_prefers_the_widest_kernel() {
        let names: Vec<&str> = kernels().iter().map(|k| k.0).collect();
        assert!(["scalar", "avx2", "avx512vl"].starts_with(&names), "{names:?}");
        let rng = ChaCha12Rng::seed_from_u64(1);
        assert!(std::ptr::fn_addr_eq(rng.kernel, kernels().last().unwrap().1));
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            names.contains(&"avx512vl"),
            std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512f")
        );
    }

    /// `export_state`/`from_state` must resume the keystream exactly, from
    /// every buffer position (fresh, mid-buffer, exhausted) and across
    /// refill boundaries — whichever kernel filled the exported buffer and
    /// whichever refills the restored one.
    #[test]
    fn exported_state_resumes_the_keystream_exactly() {
        for &(name, kernel) in kernels() {
            for drain in [0usize, 1, 17, 127, 128, 129, 300] {
                let mut orig = pinned(77, kernel);
                for _ in 0..drain {
                    orig.next_u32();
                }
                let (key, counter, idx) = orig.export_state();
                let mut restored = ChaCha12Rng::from_state(key, counter, idx);
                for i in 0..512 {
                    assert_eq!(
                        orig.next_u32(),
                        restored.next_u32(),
                        "{name}, drain {drain}: diverged at word {i}"
                    );
                }
            }
        }
    }

    /// Mixed u32 / u64 / f64 reads interleave identically on every
    /// kernel.
    #[test]
    fn mixed_reads_parity() {
        let (scalar, vector) = vector_kernels();
        for &(name, kernel) in vector {
            let mut simd = pinned(5, kernel);
            let mut reference = pinned(5, scalar);
            for i in 0..2000 {
                match i % 3 {
                    0 => assert_eq!(simd.next_u32(), reference.next_u32(), "{name}"),
                    1 => assert_eq!(simd.next_u64(), reference.next_u64(), "{name}"),
                    _ => {
                        let x: f64 = simd.random();
                        let y: f64 = reference.random();
                        assert_eq!(x.to_bits(), y.to_bits(), "{name}");
                    }
                }
            }
        }
    }
}
