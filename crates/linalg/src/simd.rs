//! Full-vector-width kernels for the GF(2⁶¹ − 1) dot product: one
//! deferred-reduction body instantiated at 512 bits (AVX-512F) and at
//! 256 bits (AVX2), and a 52-bit fused multiply-accumulate body at 512
//! bits (AVX-512 IFMA), behind runtime CPU-feature detection.
//!
//! # Dispatch policy
//!
//! [`Fp61`]'s [`Scalar::dot_slices`](crate::Scalar::dot_slices) and
//! [`Scalar::dot_slices_x4`](crate::Scalar::dot_slices_x4) overrides ask
//! [`dot_fp61`] / [`dot4_fp61`] first and run the portable scalar lazy
//! kernel when those return `None`. The CPU's best tier is detected once
//! and cached; which tier a call takes is then decided by the slice
//! length alone, against measured thresholds (the private `DOT_MIN` and
//! `DOT4_MIN`). GF(2⁶¹ − 1) arithmetic is exact, so every tier returns
//! the *bit-identical* canonical representative — dispatch is a pure
//! speed decision, never a semantics decision, and non-x86 builds simply
//! never leave the scalar kernel.
//!
//! # Deferred reduction
//!
//! No vector ISA here has a 64×64→128 lane multiply, so each canonical
//! representative `a < 2^61` is split at 32 bits, `a = aH·2^32 + aL`
//! (`aL < 2^32`, `aH < 2^29`), and a product is four 32×32→64 `vpmuludq`
//! partials: `a·b = ll + 2^32·mid + 2^64·hh` with `mid = lh + hl`.
//! Nothing is folded per product. Per 64-bit lane the loop keeps five
//! accumulators over the `n` products the lane has seen:
//!
//! * `Σll` and `Σmid` each as a *wrapping* sum `W` plus the exact sum `H`
//!   of the terms' high halves (`ll>>32 < 2^32`, `mid>>32 < 2^30`, since
//!   `mid < 2^62`). The low halves sum to `L = Σ(x & (2^32−1)) < n·2^32`,
//!   and `W ≡ 2^32·H + L (mod 2^64)`, so `L = W − (H<<32)` wrapping is
//!   exact while `L < 2^64`;
//! * `Σhh` directly: `hh < 2^58`, so a Mersenne-folded carry (`≤ p + 7`)
//!   plus 32 more terms stays below `2^61 + 2^63` — one fold every
//!   `HH_FOLD_PERIOD = 32` vectors, none in between.
//!
//! With `2^61 ≡ 1 (mod p)` the lane total is
//! `L_ll + 2^32·(H_ll + L_mid) + 8·(H_mid + Σhh)`. For `n < 2^30` the
//! three coefficients are `< 2^62`, `< 2^63` and `< 2^64`, so the finish
//! stays in 64-bit lanes: `2^32·t ≡ (t>>29) + ((t & (2^29−1))<<32)` and
//! `8·u ≡ (u>>58) + ((u & (2^58−1))<<3)` are each `< 2^61 + 2^34`, their
//! sum with the folded `L_ll` is `< 2^63`, and one last fold leaves
//! `≤ p + 3` per lane. Lanes and the `< LANES` leftover products are
//! summed in `u128` and canonicalized by the scalar kernel's
//! `reduce_wide`. Dispatch caps slices at `MAX_LEN = 2^30` elements in
//! total, far inside the `n < 2^30` *per lane* the argument needs.
//!
//! # 52-bit fused multiply-accumulate (AVX-512 IFMA)
//!
//! `vpmadd52luq` / `vpmadd52huq` multiply the low 52 bits of two lanes
//! and add the low / high 52 bits of the 104-bit product to a third, in
//! one instruction. So the IFMA tier splits at 52 bits instead:
//! `a = aH·2^52 + aL` with `aL < 2^52` — which the instruction reads by
//! itself, no mask — and `aH = a >> 52 < 2^9`. The product is
//!
//! ```text
//! a·b = lo(aL·bL)
//!     + 2^52 ·(hi(aL·bL) + lo(aL·bH) + lo(aH·bL))
//!     + 2^104·(hi(aL·bH) + hi(aH·bL) + lo(aH·bH))
//! ```
//!
//! (`aH·bH < 2^18` has no high half), seven multiply-accumulates into
//! three weights per column: 1, 2^52, and 2^104 = 2^61·2^43 ≡ 2^43
//! (mod p). Every term is `< 2^52`, so a step adds `< 3·2^52` to a lane
//! of the busiest accumulator; all accumulators are Mersenne-folded every
//! `FOLD_PERIOD = 1024` vectors, and a folded carry (`≤ p + 7`) plus 1024
//! steps is `< 2^61 + 8 + 3·2^62 < 2^64`. The 4-column kernel keeps the
//! three weights per column (4 × 3 accumulators, each chain three
//! multiply-accumulates per vector, hidden behind the other columns'); the
//! single dot gives each of the seven products its own accumulator so no
//! chain is longer than one multiply-accumulate per vector, and folds and
//! adds them into the three weights at the end (`3·(p + 7) < 2^63`).
//!
//! The finish stays in 64-bit lanes like the other tiers':
//! `2^52·t ≡ (t>>9) + ((t & (2^9−1))<<52)` and
//! `2^43·u ≡ (u>>18) + ((u & (2^18−1))<<43)` are each `< 2^61 + 2^55` for
//! any `t, u < 2^64`, their sum with the folded weight-1 accumulator is
//! `< 2^63`, one last fold leaves `≤ p + 3` per lane, and the lane sum
//! goes through the same `u128` → `reduce_wide` tail.
//!
//! Per eight products and column that is one shift (`b >> 52`; `a`'s is
//! shared) and seven multiply-accumulates — 8 vector ops, against the
//! 32-bit split's 13 (four `vpmuludq`, nine shifts and adds), with no
//! per-product carry bookkeeping. All of them issue on p0/p5 at 512 bits:
//! on the reference box (Sapphire Rapids) a register-only loop of eight
//! independent chains reads `vpmadd52luq zmm` and `vpmadd52huq zmm` at
//! 0.185–0.196 ns per instruction, two per cycle, beside `vpmuludq` at
//! 0.174–0.183 and `vpaddq` at 0.167–0.179. That bounds the 32-bit split
//! at 13 × 0.18 / 8 ≈ 0.29 ns per product and this one at 8 × 0.19 / 8 =
//! 0.19; the 4-column kernels measure 0.31–0.33 and 0.19–0.21 at
//! n = 1024 (the `DOT4_MIN` table).
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use crate::fp::Fp61;

/// Longest slice the vector kernels accept; see the module docs.
const MAX_LEN: usize = 1 << 30;

/// A dispatch tier, ordered so that a CPU with one has every tier below.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Tier {
    Scalar,
    Avx2,
    Avx512,
    Avx512Ifma,
}

/// Shortest slices the `[256-bit, 512-bit, IFMA]` 4-column kernels take;
/// shorter ones stay on the tier below. Measured in a hot loop with
/// `simd_threshold_sweep_report` (Sapphire Rapids, one pinned CPU, ns per
/// multiplication, single dot / 4-column; the host ran about a third
/// slower than when the two-tier table was taken, so read columns
/// against each other, not against older numbers):
///
/// ```text
/// n      scalar         AVX2           AVX-512F       AVX-512 IFMA
/// 16     1.175 / 1.097  0.925 / 0.830  1.002 / 0.945  1.217 / 0.843
/// 24     0.927 / 0.876  0.739 / 0.701  0.777 / 0.727  0.894 / 0.634
/// 32     0.801 / 0.767  0.640 / 0.644  0.656 / 0.615  0.734 / 0.540
/// 48     0.684 / 0.657  0.570 / 0.562  0.565 / 0.509  0.567 / 0.430
/// 64     0.732 / 0.717  0.552 / 0.529  0.507 / 0.454  0.487 / 0.372
/// 96     0.653 / 0.641  0.507 / 0.491  0.454 / 0.412  0.401 / 0.313
/// 128    0.648 / 0.640  0.492 / 0.476  0.422 / 0.397  0.358 / 0.285
/// 256    0.605 / 0.602  0.467 / 0.450  0.384 / 0.354  0.295 / 0.241
/// 512    0.592 / 0.612  0.457 / 0.434  0.368 / 0.338  0.261 / 0.218
/// 1024   0.592 / 0.678  0.452 / 0.435  0.357 / 0.333  0.246 / 0.209
/// ```
///
/// AVX2 already edges out the scalar kernel at 16, and the IFMA 4-column
/// kernel AVX2 there in two sweeps of three; the 256-bit floor stays at
/// 24 so the l = 16 serving shapes keep running exactly the code they ran
/// before. The 512-bit deferred kernel overtakes AVX2 between 48 and 64.
/// The IFMA one is ahead of both from the floor up (0.634 against 0.701
/// at 24), so on a CPU that has it the AVX-512F tier is never dispatched
/// — it is the 512-bit path of Skylake-X and Cascade Lake, and the
/// per-tier tests call it directly everywhere.
const DOT4_MIN: [usize; 3] = [24, 64, 24];

/// The same for single dots. The 256-bit floor is the hot-loop crossover
/// above. The 512-bit one is not: single dots come from mat-vecs a few
/// rows long wedged between thread hops, and there short 512-bit bursts
/// lose end to end what they win in a loop. On the repo benchmark's
/// `inproc_supervised_quorum` shape (m = 48, one mat-vec per query per
/// device) with `l` varied, 512-bit against 256-bit `throughput_qps` won
/// 1 of 10 alternated pairs at l = 96 (−9 % in the median), 1 of 6 at
/// 192, 3 of 6 at 384 and 5 of 6 at 768. Re-measured at l = 96 once the
/// in-process hand-off carried batches (PR 15: a device now runs a
/// window's mat-vecs back to back, though a lone `query()` is still
/// wedged between hops): 512-bit won 8 of 10 alternated pairs (median
/// 97.7 k → 105.5 k qps, +8 %, on a host whose runs of one build spread
/// 78–118 k) — no longer a loss, but short of the 9 of 10 this constant
/// moves on, so it stays.
///
/// The IFMA single dot passes AVX2 in the loop between 48 and 64 (table
/// above) and is held to the same rule. With mat-vecs going four rows at
/// a time, single dots are only a band's last one to three rows and the
/// Freivalds checks; an IFMA floor of 64 against 512 won 6 of 10
/// alternated `inproc_supervised_quorum` pairs (seeds 91001–91010,
/// medians 152.0 k and 151.9 k qps), so it sits with the 512-bit one.
const DOT_MIN: [usize; 3] = [24, 512, 512];

/// The widest tier the running CPU supports. Detected once and cached;
/// always [`Tier::Scalar`] on non-x86_64 targets.
fn detected() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            let avx512 = avx2 && std::arch::is_x86_feature_detected!("avx512f");
            if avx512 && std::arch::is_x86_feature_detected!("avx512ifma") {
                Tier::Avx512Ifma
            } else if avx512 {
                Tier::Avx512
            } else if avx2 {
                Tier::Avx2
            } else {
                Tier::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Tier::Scalar
    }
}

/// The tier a slice of `len` elements takes under the `[256-bit,
/// 512-bit, IFMA]` minimum lengths `min`: the best tier the CPU has whose
/// floor `len` clears. The 256-bit floor is tested first so the short
/// dots of the small serving shapes pay one compare.
#[inline]
fn select(len: usize, min: [usize; 3]) -> Tier {
    if len < min[0] || len > MAX_LEN {
        return Tier::Scalar;
    }
    match detected() {
        Tier::Scalar => Tier::Scalar,
        Tier::Avx512Ifma if len >= min[2] => Tier::Avx512Ifma,
        cpu if cpu >= Tier::Avx512 && len >= min[1] => Tier::Avx512,
        _ => Tier::Avx2,
    }
}

/// Whether the running CPU supports the AVX2 kernels. Detected once and
/// cached; always `false` on non-x86_64 targets.
pub fn avx2_available() -> bool {
    detected() >= Tier::Avx2
}

/// Whether long dots take a vector path, i.e. the CPU has one.
pub fn active() -> bool {
    select(MAX_LEN, [0; 3]) != Tier::Scalar
}

impl Tier {
    /// This tier's single-dot kernel, whatever the length.
    ///
    /// # Panics
    ///
    /// Panics when the CPU lacks the tier or the lengths differ.
    fn dot(self, a: &[Fp61], b: &[Fp61]) -> Fp61 {
        assert!(self <= detected(), "{self:?} kernels need CPU support");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self <= detected()`, so the CPU reported avx512f
            // and avx512ifma.
            Tier::Avx512Ifma => unsafe { avx512ifma::dot(a, b) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self <= detected()`, so the CPU reported avx512f.
            Tier::Avx512 => unsafe { avx512::dot(a, b) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self <= detected()`, so the CPU reported avx2.
            Tier::Avx2 => unsafe { avx2::dot(a, b) },
            _ => Fp61::dot_slices_scalar(a, b),
        }
    }

    /// This tier's 4-column kernel; same contract as [`Tier::dot`].
    fn dot4(self, a: &[Fp61], b: [&[Fp61]; 4]) -> [Fp61; 4] {
        assert!(self <= detected(), "{self:?} kernels need CPU support");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self <= detected()`, so the CPU reported avx512f
            // and avx512ifma.
            Tier::Avx512Ifma => unsafe { avx512ifma::dot4(a, b) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self <= detected()`, so the CPU reported avx512f.
            Tier::Avx512 => unsafe { avx512::dot4(a, b) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self <= detected()`, so the CPU reported avx2.
            Tier::Avx2 => unsafe { avx2::dot4(a, b) },
            _ => b.map(|col| Fp61::dot_slices_scalar(a, col)),
        }
    }
}

/// Vector dot product over GF(2⁶¹ − 1), or `None` when the scalar kernel
/// should run instead (slice below the measured threshold, or no vector
/// unit). When `Some`, the result is the canonical representative and is
/// bit-identical to [`Fp61::dot_slices_scalar`].
///
/// # Panics
///
/// Panics when a vector kernel is selected and the lengths differ.
#[inline]
pub fn dot_fp61(a: &[Fp61], b: &[Fp61]) -> Option<Fp61> {
    let tier = select(a.len(), DOT_MIN);
    (tier != Tier::Scalar).then(|| tier.dot(a, b))
}

/// Four vector dot products over GF(2⁶¹ − 1) sharing the left operand,
/// or `None` when the scalar kernel should run instead. The column-
/// blocked microkernel loads and splits each `a` vector once for all the
/// columns it keeps in registers (four at 512 bits, two at 256). When
/// `Some`, each entry is bit-identical to the corresponding
/// [`dot_fp61`] / scalar result.
///
/// # Panics
///
/// Panics when a vector kernel is selected and any slice length differs
/// from `a`'s.
#[inline]
pub fn dot4_fp61(a: &[Fp61], b: [&[Fp61]; 4]) -> Option<[Fp61; 4]> {
    let tier = select(a.len(), DOT4_MIN);
    (tier != Tier::Scalar).then(|| tier.dot4(a, b))
}

/// The tail every vector kernel ends in: one column's per-lane sums
/// (`≤ p + 3` each) plus the fewer-than-a-vector leftover products of
/// `a` and `b` (`< 2^122` each), summed in `u128` and canonicalized.
#[cfg(target_arch = "x86_64")]
#[inline]
fn finish_column(lanes: &[u64], a: &[Fp61], b: &[Fp61]) -> Fp61 {
    let mut total: u128 = lanes.iter().map(|&x| u128::from(x)).sum();
    for (x, y) in a.iter().zip(b) {
        total += u128::from(x.residue()) * u128::from(y.residue());
    }
    Fp61::from_canonical(Fp61::reduce_wide(total))
}

/// Instantiates the deferred-reduction kernel (module docs) for one
/// vector width: `$vec` holds `$lanes` 64-bit lanes, `dot4` keeps
/// `$cols` columns' accumulators in registers per pass, and the rest
/// are that width's intrinsics.
#[cfg(target_arch = "x86_64")]
macro_rules! deferred_kernels {
    ($tier:ident, $feature:literal, $vec:ident, $lanes:literal, $cols:literal,
     $load:ident, $store:ident, $zero:ident, $set1:ident, $add:ident, $sub:ident,
     $and:ident, $mul:ident, $srli:ident, $slli:ident) => {
        mod $tier {
            use core::arch::x86_64::{
                $add, $and, $load, $mul, $set1, $slli, $srli, $store, $sub, $vec, $zero,
            };

            use crate::fp::{Fp61, MODULUS};

            const LANES: usize = $lanes;
            /// Vectors between folds of the `Σhh` accumulator.
            const HH_FOLD_PERIOD: usize = 32;

            /// One Mersenne fold: `≤ p + 7` and congruent to `x (mod p)`.
            #[target_feature(enable = $feature)]
            #[inline]
            pub(super) fn fold(x: $vec) -> $vec {
                $add($and(x, $set1(MODULUS as i64)), $srli::<61>(x))
            }

            /// `C` dots sharing the left operand; canonical results.
            #[target_feature(enable = $feature)]
            #[inline]
            fn dots<const C: usize>(a: &[Fp61], b: [&[Fp61]; C]) -> [Fp61; C] {
                let n = a.len();
                // Every load below relies on this, so it is not a debug check.
                assert!(b.iter().all(|col| col.len() == n), "dot length mismatch");
                // Fp61 is #[repr(transparent)] over u64.
                let ap = a.as_ptr().cast::<u64>();
                let bp = b.map(|col| col.as_ptr().cast::<u64>());
                let vectors = n / LANES;
                let (mut w_ll, mut h_ll) = ([$zero(); C], [$zero(); C]);
                let (mut w_mid, mut h_mid) = ([$zero(); C], [$zero(); C]);
                let mut hh = [$zero(); C];
                let mut v = 0;
                while v < vectors {
                    for acc in &mut hh {
                        *acc = fold(*acc);
                    }
                    let block_end = (v + HH_FOLD_PERIOD).min(vectors);
                    while v < block_end {
                        let off = v * LANES;
                        debug_assert!(off + LANES <= n);
                        // SAFETY: v < vectors = n / LANES, so the LANES
                        // u64s at `off` end at (v + 1)·LANES ≤ a.len().
                        let av = unsafe { $load(ap.add(off).cast()) };
                        let ah = $srli::<32>(av);
                        for c in 0..C {
                            // SAFETY: as for `av`; b[c].len() == n was
                            // asserted on entry.
                            let bv = unsafe { $load(bp[c].add(off).cast()) };
                            let bh = $srli::<32>(bv);
                            // vpmuludq reads the low 32 bits of each lane.
                            let ll = $mul(av, bv);
                            let mid = $add($mul(av, bh), $mul(ah, bv));
                            w_ll[c] = $add(w_ll[c], ll);
                            h_ll[c] = $add(h_ll[c], $srli::<32>(ll));
                            w_mid[c] = $add(w_mid[c], mid);
                            h_mid[c] = $add(h_mid[c], $srli::<32>(mid));
                            hh[c] = $add(hh[c], $mul(ah, bh));
                        }
                        v += 1;
                    }
                }
                let mask29 = $set1((1i64 << 29) - 1);
                let mask58 = $set1((1i64 << 58) - 1);
                let mut out = [Fp61::from_canonical(0); C];
                for c in 0..C {
                    let l_ll = $sub(w_ll[c], $slli::<32>(h_ll[c]));
                    let l_mid = $sub(w_mid[c], $slli::<32>(h_mid[c]));
                    let t = $add(h_ll[c], l_mid); // weight 2^32
                    let u = $add(h_mid[c], hh[c]); // weight 2^64 ≡ 8
                    let t = $add($srli::<29>(t), $slli::<32>($and(t, mask29)));
                    let u = $add($srli::<58>(u), $slli::<3>($and(u, mask58)));
                    let lane_sums = fold($add($add(fold(l_ll), t), u));
                    let mut lanes = [0u64; LANES];
                    // SAFETY: `lanes` is exactly one vector wide and the
                    // store is unaligned.
                    unsafe { $store(lanes.as_mut_ptr().cast(), lane_sums) };
                    let done = vectors * LANES;
                    out[c] = super::finish_column(&lanes, &a[done..], &b[c][done..]);
                }
                out
            }

            #[target_feature(enable = $feature)]
            pub(super) fn dot(a: &[Fp61], b: &[Fp61]) -> Fp61 {
                dots(a, [b])[0]
            }

            #[target_feature(enable = $feature)]
            pub(super) fn dot4(a: &[Fp61], b: [&[Fp61]; 4]) -> [Fp61; 4] {
                let mut out = [Fp61::from_canonical(0); 4];
                for (o, cols) in out.chunks_exact_mut($cols).zip(b.chunks_exact($cols)) {
                    let cols: [&[Fp61]; $cols] = cols.try_into().expect("chunks_exact width");
                    o.copy_from_slice(&dots(a, cols));
                }
                out
            }
        }
    };
}

// 32 zmm registers: all 4 × 5 accumulators of a 1×4 pass stay live.
#[cfg(target_arch = "x86_64")]
deferred_kernels!(
    avx512,
    "avx512f",
    __m512i,
    8,
    4,
    _mm512_loadu_si512,
    _mm512_storeu_si512,
    _mm512_setzero_si512,
    _mm512_set1_epi64,
    _mm512_add_epi64,
    _mm512_sub_epi64,
    _mm512_and_si512,
    _mm512_mul_epu32,
    _mm512_srli_epi64,
    _mm512_slli_epi64
);

// 16 ymm registers: 1×2 blocking (2 × 5 accumulators plus operands).
#[cfg(target_arch = "x86_64")]
deferred_kernels!(
    avx2,
    "avx2",
    __m256i,
    4,
    2,
    _mm256_loadu_si256,
    _mm256_storeu_si256,
    _mm256_setzero_si256,
    _mm256_set1_epi64x,
    _mm256_add_epi64,
    _mm256_sub_epi64,
    _mm256_and_si256,
    _mm256_mul_epu32,
    _mm256_srli_epi64,
    _mm256_slli_epi64
);

/// The 52-bit fused multiply-accumulate kernel (module docs).
#[cfg(target_arch = "x86_64")]
mod avx512ifma {
    use core::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_madd52hi_epu64,
        _mm512_madd52lo_epu64, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
        _mm512_srli_epi64, _mm512_storeu_si512,
    };

    use super::avx512::fold;
    use crate::fp::Fp61;

    const LANES: usize = 8;
    /// Vectors between folds of the accumulators.
    const FOLD_PERIOD: usize = 1024;
    /// The seven partial products of a step, in the order the loop issues
    /// them: `lo(aL·bL)`; `hi(aL·bL)`, `lo(aL·bH)`, `lo(aH·bL)`;
    /// `hi(aL·bH)`, `hi(aH·bL)`, `lo(aH·bH)`.
    const PRODUCTS: usize = 7;

    /// The weight (0: 1, 1: 2^52, 2: 2^104) of partial product `k`.
    const fn weight(k: usize) -> usize {
        k.div_ceil(3)
    }

    /// `C` dots sharing the left operand; canonical results. Each column
    /// keeps `A` accumulators: one per weight (`A = 3`) or one per
    /// partial product (`A = PRODUCTS`).
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn dots<const C: usize, const A: usize>(a: &[Fp61], b: [&[Fp61]; C]) -> [Fp61; C] {
        const { assert!(A == 3 || A == PRODUCTS) };
        // The accumulator partial product `k` goes to.
        let slot = |k: usize| if A == PRODUCTS { k } else { weight(k) };
        let n = a.len();
        // Every load below relies on this, so it is not a debug check.
        assert!(b.iter().all(|col| col.len() == n), "dot length mismatch");
        // Fp61 is #[repr(transparent)] over u64.
        let ap = a.as_ptr().cast::<u64>();
        let bp = b.map(|col| col.as_ptr().cast::<u64>());
        let vectors = n / LANES;
        let mut acc = [[_mm512_setzero_si512(); A]; C];
        let mut v = 0;
        while v < vectors {
            for col in &mut acc {
                for x in col {
                    *x = fold(*x);
                }
            }
            let block_end = (v + FOLD_PERIOD).min(vectors);
            while v < block_end {
                let off = v * LANES;
                debug_assert!(off + LANES <= n);
                // SAFETY: v < vectors = n / LANES, so the LANES u64s at
                // `off` end at (v + 1)·LANES ≤ a.len().
                let al = unsafe { _mm512_loadu_si512(ap.add(off).cast()) };
                let ah = _mm512_srli_epi64::<52>(al);
                for c in 0..C {
                    // SAFETY: as for `al`; b[c].len() == n was asserted
                    // on entry.
                    let bl = unsafe { _mm512_loadu_si512(bp[c].add(off).cast()) };
                    let bh = _mm512_srli_epi64::<52>(bl);
                    // vpmadd52 reads the low 52 bits of each lane.
                    let acc = &mut acc[c];
                    acc[slot(0)] = _mm512_madd52lo_epu64(acc[slot(0)], al, bl);
                    acc[slot(1)] = _mm512_madd52hi_epu64(acc[slot(1)], al, bl);
                    acc[slot(2)] = _mm512_madd52lo_epu64(acc[slot(2)], al, bh);
                    acc[slot(3)] = _mm512_madd52lo_epu64(acc[slot(3)], ah, bl);
                    acc[slot(4)] = _mm512_madd52hi_epu64(acc[slot(4)], al, bh);
                    acc[slot(5)] = _mm512_madd52hi_epu64(acc[slot(5)], ah, bl);
                    acc[slot(6)] = _mm512_madd52lo_epu64(acc[slot(6)], ah, bh);
                }
                v += 1;
            }
        }
        let mask9 = _mm512_set1_epi64((1i64 << 9) - 1);
        let mask18 = _mm512_set1_epi64((1i64 << 18) - 1);
        let mut out = [Fp61::from_canonical(0); C];
        for c in 0..C {
            // Per weight, the folded accumulators that carry it.
            let mut w = [_mm512_setzero_si512(); 3];
            for (s, &x) in acc[c].iter().enumerate() {
                let weight = if A == PRODUCTS { weight(s) } else { s };
                w[weight] = _mm512_add_epi64(w[weight], fold(x));
            }
            let [w0, t, u] = w; // weights 1, 2^52, 2^104 ≡ 2^43
            let t = _mm512_add_epi64(
                _mm512_srli_epi64::<9>(t),
                _mm512_slli_epi64::<52>(_mm512_and_si512(t, mask9)),
            );
            let u = _mm512_add_epi64(
                _mm512_srli_epi64::<18>(u),
                _mm512_slli_epi64::<43>(_mm512_and_si512(u, mask18)),
            );
            let lane_sums = fold(_mm512_add_epi64(_mm512_add_epi64(w0, t), u));
            let mut lanes = [0u64; LANES];
            // SAFETY: `lanes` is exactly one vector wide and the store is
            // unaligned.
            unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), lane_sums) };
            let done = vectors * LANES;
            out[c] = super::finish_column(&lanes, &a[done..], &b[c][done..]);
        }
        out
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn dot(a: &[Fp61], b: &[Fp61]) -> Fp61 {
        dots::<1, PRODUCTS>(a, [b])[0]
    }

    // 32 zmm registers: the 4 × 3 accumulators of a 1×4 pass stay live.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn dot4(a: &[Fp61], b: [&[Fp61]; 4]) -> [Fp61; 4] {
        dots::<4, 3>(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::MODULUS;
    use crate::kernels::{matmul_naive, matvec_naive};
    use crate::scalar::Scalar;
    use crate::{Matrix, Vector};
    use rand::{rngs::StdRng, SeedableRng};

    /// The vector tiers this CPU can run, called directly (dispatch only
    /// ever exercises one tier per length).
    fn vector_tiers() -> Vec<Tier> {
        let tiers = [Tier::Avx2, Tier::Avx512, Tier::Avx512Ifma];
        tiers.into_iter().filter(|t| *t <= detected()).collect()
    }

    fn random(rng: &mut StdRng, n: usize) -> Vec<Fp61> {
        (0..n).map(|_| Fp61::sample(rng)).collect()
    }

    /// Lengths around every boundary of every tier: the vector width, the
    /// scalar kernel's 63-product block, the `Σhh` fold period (32
    /// vectors = 128 elements at 256 bits, 256 at 512) and the IFMA fold
    /// period (1024 vectors = 8192 elements), one to three of each.
    fn boundary_lengths() -> Vec<usize> {
        let mut lens = vec![0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 1024, 65_536];
        for k in 1..=3 {
            for block in [63, 4 * 32, 8 * 32, 8 * 1024] {
                lens.extend([block * k - 1, block * k, block * k + 1]);
            }
        }
        lens
    }

    /// `tier`'s `dot` and `dot4` against the scalar kernel on one input.
    fn assert_tier_agrees(tier: Tier, a: &[Fp61], cols: [&[Fp61]; 4], what: &str) {
        let want = cols.map(|col| Fp61::dot_slices_scalar(a, col));
        let n = a.len();
        assert_eq!(tier.dot4(a, cols), want, "{tier:?} dot4 {what} n={n}");
        for (col, w) in cols.iter().zip(want) {
            assert_eq!(tier.dot(a, col), w, "{tier:?} dot {what} n={n}");
        }
    }

    #[test]
    fn simd_tiers_match_scalar_at_every_boundary_length() {
        let tiers = vector_tiers();
        println!("simd tiers ran: {tiers:?} (of Avx2, Avx512, Avx512Ifma)");
        let mut rng = StdRng::seed_from_u64(77);
        for n in boundary_lengths() {
            // One spare element so the same data also runs offset by one
            // (8-byte-aligned only: every vector load is unaligned).
            let a = random(&mut rng, n + 1);
            let cols: [Vec<Fp61>; 4] = std::array::from_fn(|_| random(&mut rng, n + 1));
            for &tier in &tiers {
                assert_tier_agrees(tier, &a[..n], cols.each_ref().map(|c| &c[..n]), "random");
                assert_tier_agrees(tier, &a[1..], cols.each_ref().map(|c| &c[1..]), "offset");
            }
        }
    }

    #[test]
    fn simd_tiers_survive_extreme_inputs_across_every_fold() {
        // All-(p−1) makes every partial product and every accumulator as
        // large as it can get; 2^32 − 1 maximizes `ll` alone; zeros must
        // stay zero through the folds.
        let fills = [MODULUS - 1, u64::from(u32::MAX), 0];
        for n in boundary_lengths() {
            for x in fills {
                for y in fills {
                    let (a, b) = (vec![Fp61::new(x); n], vec![Fp61::new(y); n]);
                    for tier in vector_tiers() {
                        assert_tier_agrees(tier, &a, [&b, &a, &b, &a], "extreme");
                    }
                }
            }
        }
    }

    #[test]
    fn simd_tiers_agree_on_each_plane_of_the_52_bit_split() {
        // Bits 52–60 alone (`aH`, at most 2^9 − 1), bits 0–51 alone
        // (`aL`), and both: every pairing puts a different subset of the
        // IFMA tier's seven partial products to work, at their largest.
        let low = (1u64 << 52) - 1;
        let planes: [(&str, u64); 3] = [("high", !low), ("low", low), ("both", u64::MAX)];
        let mut rng = StdRng::seed_from_u64(79);
        for n in [24, 100, 8 * 1024 + 3] {
            for (a_name, a_mask) in planes {
                for (b_name, b_mask) in planes {
                    let masked = |v: Vec<Fp61>, mask: u64| -> Vec<Fp61> {
                        v.iter().map(|x| Fp61::new(x.residue() & mask)).collect()
                    };
                    let what = format!("{a_name} x {b_name}");
                    let a = masked(random(&mut rng, n), a_mask);
                    let cols: [Vec<Fp61>; 4] =
                        std::array::from_fn(|_| masked(random(&mut rng, n), b_mask));
                    // The same planes filled to the brim.
                    let a_max = vec![Fp61::new((MODULUS - 1) & a_mask); n];
                    let b_max = vec![Fp61::new((MODULUS - 1) & b_mask); n];
                    for tier in vector_tiers() {
                        assert_tier_agrees(tier, &a, cols.each_ref().map(|c| &c[..]), &what);
                        assert_tier_agrees(tier, &a_max, [&b_max; 4], &what);
                    }
                }
            }
        }
    }

    #[test]
    fn simd_dispatched_matmul_and_matvec_match_naive() {
        let mut rng = StdRng::seed_from_u64(78);
        for (rows, inner, cols) in [(3, 1000, 5), (7, 96, 1), (128, 1024, 32)] {
            let a = Matrix::<Fp61>::random(rows, inner, &mut rng);
            let b = Matrix::<Fp61>::random(inner, cols, &mut rng);
            let x = Vector::<Fp61>::random(inner, &mut rng);
            assert_eq!(a.matmul(&b).unwrap(), matmul_naive(&a, &b).unwrap());
            assert_eq!(a.matvec(&x).unwrap(), matvec_naive(&a, &x).unwrap());
        }
        // Past the deferred-reduction bound no vector tier is offered.
        assert_eq!(select(MAX_LEN, [0; 3]), detected());
        assert_eq!(select(MAX_LEN + 1, [0; 3]), Tier::Scalar);
    }

    /// Threshold sweep, ignored by default: `cargo test --release -p
    /// scec-linalg -- --ignored threshold_sweep --nocapture` prints
    /// ns/multiplication per tier per length for both kernel shapes. The
    /// crossovers are recorded in the `DOT4_MIN` doc comment.
    #[test]
    #[ignore]
    fn simd_threshold_sweep_report() {
        let mut rng = StdRng::seed_from_u64(42);
        let time = |n: usize, mults: usize, f: &mut dyn FnMut()| {
            let reps = (1 << 22) / (n * mults).max(1);
            let best = (0..9).map(|_| {
                let start = std::time::Instant::now();
                (0..reps).for_each(|_| f());
                start.elapsed().as_nanos() as f64 / (reps * n * mults) as f64
            });
            best.fold(f64::INFINITY, f64::min)
        };
        for n in [8usize, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024] {
            let a = random(&mut rng, n);
            let cols: [Vec<Fp61>; 4] = std::array::from_fn(|_| random(&mut rng, n));
            let c = cols.each_ref().map(|c| &c[..]);
            let a = std::hint::black_box(&a[..]);
            let mut line = format!("n={n:<5}");
            for tier in std::iter::once(Tier::Scalar).chain(vector_tiers()) {
                let d1 = time(n, 1, &mut || {
                    std::hint::black_box(tier.dot(a, c[0]));
                });
                let d4 = time(n, 4, &mut || {
                    std::hint::black_box(tier.dot4(a, c));
                });
                line += &format!(" | {tier:?} dot {d1:.3} dot4 {d4:.3}");
            }
            println!("{line}");
        }
    }
}
