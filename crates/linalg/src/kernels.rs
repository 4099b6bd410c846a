//! Performance kernels: lazy-reduction arithmetic, cache blocking, and
//! row-band parallelism for the coded-computation hot paths.
//!
//! # Lazy reduction over GF(2⁶¹ − 1)
//!
//! A naive dot product over [`Fp61`](crate::Fp61) pays one Mersenne
//! reduction *per multiply*. The lazy kernels exploit the headroom a
//! 61-bit modulus leaves in 128-bit arithmetic: every product of canonical
//! representatives is at most `(p−1)² < 2^122`, so a `u128` accumulator
//! can absorb [`LAZY_BLOCK`](crate::fp::LAZY_BLOCK)` = 63` products plus a
//! folded carry (`< 2^61`) before it can overflow:
//!
//! ```text
//! 63·(p−1)² + (p−1)  <  63·2^122 + 2^61  =  2^128 − 2^122 + 2^61  <  2^128
//! ```
//!
//! That turns one reduction per multiply into one per 63 multiplies. The
//! dispatch point is the [`Scalar`] trait itself — [`Scalar::dot_slices`],
//! [`Scalar::fused_muladd`] and [`Scalar::fused_submul`] have naive
//! default bodies and `Fp61` overrides them — so generic code (`f64`,
//! [`FpGeneric`](crate::FpGeneric)) is untouched while `Fp61` gets the
//! fast path everywhere.
//!
//! # Parallelism
//!
//! The `parallel` cargo feature (on by default) lets the large kernels
//! fan work out across contiguous row bands with `std::thread::scope`.
//! (A `rayon` pool would be the conventional choice; this workspace
//! builds in offline environments where no external crates beyond the
//! seed set are available, so the band scheduler is hand-rolled on the
//! standard library — same shape, zero dependencies.) Work smaller than
//! two bands of [`PAR_THRESHOLD`] scalar multiply-adds always runs
//! serially (spawning and joining costs tens of microseconds), and the
//! band count is capped by `std::thread::available_parallelism`, so the
//! kernels degrade gracefully to the serial path on a single core or with
//! `--no-default-features`.
//!
//! Banding never changes results: each output row is computed by exactly
//! the same instruction sequence as in the serial path, so `f64` results
//! are bitwise identical and finite-field results are exact either way.
//!
//! # Reference kernels
//!
//! [`matmul_naive`], [`matvec_naive`], [`dot_naive`] and
//! [`transpose_naive`] preserve the pre-kernel implementations. They are
//! the ground truth for the agreement tests.

use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vector::Vector;

/// Minimum number of scalar multiply-adds per band: a kernel stays
/// serial below it and splits once there are two bands' worth
/// ([`threads_for`]). One `thread::scope` spawn + join of two bands costs
/// 40–90 µs here, a million multiply-adds 200–350 µs.
///
/// Measured with `par_threshold_report` (`matrix.rs`; Sapphire Rapids,
/// 2 vCPUs, unpinned, µs per call, serial → two bands, three runs).
/// Mat-vec, `rows × 1024`:
///
/// ```text
/// 2^15    6.7 →   86.0     7.7 →   97.5     8.6 →   74.1
/// 2^17   30.5 →   85.5    34.3 →  118.5    35.9 →  129.6
/// 2^19  162.9 →  161.7   188.9 →  235.2   202.5 →  240.4
/// 2^20  332.3 →  261.4   365.9 →  320.5   362.4 →  338.7
/// 2^21  691.5 →  486.7   691.8 →  447.5   806.0 →  560.5
/// 2^23 2691.7 → 1952.6  2691.9 → 1885.3  3030.2 → 1825.7
/// ```
///
/// Panel product, `rows × 1024 × 32`:
///
/// ```text
/// 2^18   91.6 →  222.9    76.4 →  169.8    85.3 →  192.1
/// 2^19  139.6 →  196.0   153.3 →  226.7   155.1 →  239.3
/// 2^20  255.2 →  295.8   257.2 →  240.9   279.2 →  264.7
/// 2^21  510.5 →  388.6   513.5 →  695.0   533.3 →  448.9
/// 2^22 1089.4 →  687.8  1110.3 →  886.7  1060.6 → 1196.2
/// ```
///
/// Banding loses at every size up to 2^19, is a wash at 2^20 and wins
/// from 2^21, so a band is worth 2^20. (The previous 2^15 dated from a
/// 2.7 ns multiply; at it a 128 × 1024 mat-vec took 82.7 µs unpinned
/// against 44.8 pinned to one CPU.) A device's k = 32 panel product at
/// l = 1024 (up to 128 rows, 2^22) still splits.
///
/// The constant also gates the two callers whose element costs more than
/// a lazy multiply-add: one [`Matrix::eliminate_below`] step (a fully
/// reduced `fused_submul`, 1.7 ns an element) and the encoder's
/// per-device blinding (`scec-coding`'s `Encoder::blind`: an add into a
/// fresh allocation, 1.0 ns; its loop replayed over eight devices).
/// `rows × 1024` elements, same report, three runs. Elimination:
///
/// ```text
/// 2^17  226.4 →  268.3   217.6 →  195.3   215.5 →  315.5
/// 2^19  850.1 →  552.8   899.2 →  538.6   925.5 →  580.7
/// 2^20 1730.8 →  999.0  2035.5 → 1689.7  1788.9 →  984.7
/// 2^21 3421.5 → 1937.4  3456.3 → 1982.1  3529.7 → 1937.3
/// 2^22 7078.4 → 3909.9  7226.9 → 4205.8  6843.5 → 4162.5
/// ```
///
/// Blinding:
///
/// ```text
/// 2^17  109.3 →  195.6   116.1 →  182.5   125.1 →  175.6
/// 2^19  519.8 →  611.3   504.9 →  672.1   506.5 →  624.2
/// 2^20 1069.5 →  652.1  1132.9 →  659.7  1006.5 →  639.6
/// 2^21 2142.5 → 1284.3  2054.0 → 1280.9  1986.4 → 1197.7
/// 2^22 4028.5 → 2273.8  4058.8 → 2972.5  4157.6 → 3208.7
/// ```
///
/// Elimination would gain from two bands already at 2^19 elements and
/// blinding at 2^20; under the one constant both stay serial up to 2^21.
/// That is the price of one number in lazy-multiply-add units, paid only
/// by an unpinned elimination of 512–2047 rows × 1024 or an encode of
/// 1024–2047; the benchmark's largest system (m + r = 384 square,
/// 2^17.2 elements) and largest encode (384 × 1024) sit under 2^19.
pub const PAR_THRESHOLD: usize = 1 << 20;

/// Upper bound on worker threads: `available_parallelism`, or 1 when the
/// `parallel` feature is disabled.
///
/// The core count is detected once and cached: `available_parallelism`
/// is a syscall, and the un-cached version showed up as a measurable
/// regression on single-core hosts (0.745 ns/op through the parallel
/// entry point vs 0.736 for the serial-pinned kernel, as recorded by the
/// since-removed `scec bench` harness on a machine where the parallel
/// path never spawns a thread). With the cache, the
/// `threads == 1` degradation path costs one relaxed atomic load.
pub fn max_threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

/// Number of threads a kernel performing `work` scalar multiply-adds
/// should use: 1 below [`PAR_THRESHOLD`], otherwise enough bands to give
/// each thread at least one threshold's worth of work, capped by
/// [`max_threads`].
pub fn threads_for(work: usize) -> usize {
    if work < PAR_THRESHOLD {
        return 1;
    }
    max_threads().min(work / PAR_THRESHOLD).max(1)
}

/// Splits `0..n` into `threads` contiguous bands of near-equal size.
/// Returns `(start, end)` pairs; empty bands are skipped.
fn bands(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        if len > 0 {
            out.push((start, start + len));
            start += len;
        }
    }
    out
}

/// Maps `f` over `0..n`, collecting results in order, fanning bands out
/// across up to `threads` scoped threads.
///
/// With `threads <= 1` (or a single band) this is a plain serial loop —
/// the degradation path for one core or `--no-default-features`.
pub fn par_map_collect<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Single-core / small-work early exit before any band bookkeeping:
    // on one core (or below the per-band threshold in the caller) the
    // spawn path must cost nothing.
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let bands = bands(n, threads);
    if bands.len() <= 1 {
        return (0..n).map(f).collect();
    }
    #[cfg(feature = "parallel")]
    {
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(bands.len());
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = bands
                .iter()
                .map(|&(s, e)| scope.spawn(move || (s..e).map(f).collect::<Vec<T>>()))
                .collect();
            for h in handles {
                chunks.push(h.join().expect("kernel worker panicked"));
            }
        });
        chunks.into_iter().flatten().collect()
    }
    #[cfg(not(feature = "parallel"))]
    {
        (0..n).map(f).collect()
    }
}

/// Runs `f(first_row, band)` over disjoint row bands of a row-major
/// buffer, in parallel across up to `threads` scoped threads.
///
/// `data.len()` must be a multiple of `cols`; each band is a contiguous
/// run of whole rows, so workers never alias.
pub fn for_row_bands<F, W>(data: &mut [F], cols: usize, threads: usize, f: W)
where
    F: Send,
    W: Fn(usize, &mut [F]) + Sync,
{
    if cols == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(data.len() % cols, 0);
    // Same single-core early exit as `par_map_collect`.
    if threads <= 1 {
        f(0, data);
        return;
    }
    let rows = data.len() / cols;
    let bands = bands(rows, threads);
    if bands.len() <= 1 {
        f(0, data);
        return;
    }
    #[cfg(feature = "parallel")]
    {
        std::thread::scope(|scope| {
            let mut rest = data;
            let mut handles = Vec::with_capacity(bands.len());
            for &(s, e) in &bands {
                let (band, tail) = rest.split_at_mut((e - s) * cols);
                rest = tail;
                let f = &f;
                handles.push(scope.spawn(move || f(s, band)));
            }
            for h in handles {
                h.join().expect("kernel worker panicked");
            }
        });
    }
    #[cfg(not(feature = "parallel"))]
    {
        f(0, data);
    }
}

/// Edge length of the square tiles used by the blocked transpose.
///
/// Picked empirically from a tile sweep (numbers recorded by the two
/// bench harnesses since removed): on the reference
/// hardware a 16×16 tile of `u64`-sized entries (2 KiB read + 2 KiB
/// write window) beat tiles 8/32/64/128 at 512², 1024², and 2048²
/// (1.66/1.68/5.71 ns per element vs 1.70/2.15/5.83 for the previous
/// tile of 32), and the write-contiguous inner loop in
/// [`transpose_blocked`] beat the old read-contiguous order (which
/// measured 4.78 ns/op at 1024²).
///
/// Re-swept after a later snapshot read 1.58 ns/op (via the in-tree
/// `transpose_tile_sweep_report` test): tile 16 still wins —
/// 1.67/1.76/4.67 ns per element at 512²/1024²/2048² vs 1.67/1.83/4.76
/// for tile 8 and 1.88/2.34/4.91 for tile 32 — so the regression was
/// measurement-environment drift, not a mistuned tile; the constant
/// stands.
pub(crate) const TRANSPOSE_TILE: usize = 16;

/// Tile-blocked transpose with a caller-chosen tile edge.
///
/// Walks square `tile`×`tile` blocks so both the read and the write
/// window stay cache-resident regardless of matrix shape. Within a block
/// the inner loop walks *output* rows, making the writes contiguous and
/// the (prefetch-friendlier) strided accesses reads. `tile == 0` is
/// treated as an untiled single block. [`Matrix::transpose`] delegates
/// here with [`TRANSPOSE_TILE`]; the in-tree tile sweep and the
/// agreement tests call this directly to compare tile sizes.
pub fn transpose_blocked<F: Scalar>(m: &Matrix<F>, tile: usize) -> Matrix<F> {
    let (rows, cols) = m.shape();
    let tile = if tile == 0 {
        rows.max(cols).max(1)
    } else {
        tile
    };
    let mut t = Matrix::zeros(cols, rows);
    let src = m.flat();
    let dst = t.flat_mut();
    for bj in (0..cols).step_by(tile) {
        let bj_end = (bj + tile).min(cols);
        for bi in (0..rows).step_by(tile) {
            let bi_end = (bi + tile).min(rows);
            for j in bj..bj_end {
                let out_row = &mut dst[j * rows..j * rows + rows];
                for i in bi..bi_end {
                    out_row[i] = src[i * cols + j];
                }
            }
        }
    }
    t
}

/// Reference matrix product: the pre-kernel i-k-j triple loop with one
/// reduction per multiply. Kept as the agreement-test oracle.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] when `a.ncols() != b.nrows()`.
pub fn matmul_naive<F: Scalar>(a: &Matrix<F>, b: &Matrix<F>) -> Result<Matrix<F>> {
    if a.ncols() != b.nrows() {
        return Err(Error::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (rows, inner, cols) = (a.nrows(), a.ncols(), b.ncols());
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for k in 0..inner {
            let f = a.at(i, k);
            if f.is_zero() {
                continue;
            }
            let rrow = b.row(k);
            let orow: &mut [F] = out.row_mut(i);
            for (o, &v) in orow.iter_mut().zip(rrow) {
                *o = o.add(f.mul(v));
            }
        }
    }
    Ok(out)
}

/// Reference matrix–vector product (per-element `add(mul(..))`).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] when `a.ncols() != x.len()`.
pub fn matvec_naive<F: Scalar>(a: &Matrix<F>, x: &Vector<F>) -> Result<Vector<F>> {
    if a.ncols() != x.len() {
        return Err(Error::ShapeMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    let mut out = Vec::with_capacity(a.nrows());
    for i in 0..a.nrows() {
        out.push(dot_naive(a.row(i), x.as_slice()));
    }
    Ok(Vector::from_vec(out))
}

/// Reference inner product (per-element `add(mul(..))`).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn dot_naive<F: Scalar>(a: &[F], b: &[F]) -> F {
    assert_eq!(a.len(), b.len(), "dot_naive length mismatch");
    a.iter()
        .zip(b)
        .fold(F::zero(), |acc, (&x, &y)| acc.add(x.mul(y)))
}

/// Reference strided transpose (the pre-kernel column-walking loop).
pub fn transpose_naive<F: Scalar>(m: &Matrix<F>) -> Matrix<F> {
    let (rows, cols) = m.shape();
    let mut t = Matrix::zeros(cols, rows);
    for i in 0..rows {
        for j in 0..cols {
            let v = m.at(i, j);
            *t.entry_mut(j, i) = v;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp61;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn bands_cover_range_without_overlap() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8, 200] {
                let bs = bands(n, threads);
                let mut next = 0;
                for (s, e) in bs {
                    assert_eq!(s, next);
                    assert!(e > s);
                    next = e;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn threads_for_respects_threshold_and_cap() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(PAR_THRESHOLD - 1), 1);
        assert!(threads_for(PAR_THRESHOLD) >= 1);
        assert!(threads_for(usize::MAX / 2) <= max_threads());
    }

    #[test]
    fn par_map_collect_preserves_order() {
        for threads in [1usize, 2, 5] {
            let got = par_map_collect(100, threads, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
        assert!(par_map_collect(0, 4, |i| i).is_empty());
    }

    #[test]
    fn for_row_bands_touches_every_row_once() {
        for threads in [1usize, 2, 3, 7] {
            let mut data = vec![0usize; 9 * 4];
            let counter = AtomicUsize::new(0);
            for_row_bands(&mut data, 4, threads, |first_row, band| {
                counter.fetch_add(band.len() / 4, Ordering::SeqCst);
                for (r, row) in band.chunks_mut(4).enumerate() {
                    for v in row.iter_mut() {
                        *v = first_row + r + 1;
                    }
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), 9);
            for r in 0..9 {
                assert!(data[r * 4..(r + 1) * 4].iter().all(|&v| v == r + 1));
            }
        }
        // Degenerate shapes are no-ops.
        for_row_bands(&mut [] as &mut [usize], 4, 2, |_, _| panic!("no rows"));
        for_row_bands(&mut [1usize], 0, 2, |_, _| panic!("no cols"));
    }

    /// Tile-size sweep for [`transpose_blocked`], ignored by default:
    /// `cargo test --release -p scec-linalg -- --ignored tile_sweep
    /// --nocapture` prints ns/element per tile per shape. The winner is
    /// recorded in the [`TRANSPOSE_TILE`] doc comment and DESIGN.md.
    #[test]
    #[ignore]
    fn transpose_tile_sweep_report() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [512usize, 1024, 2048] {
            let m = Matrix::<Fp61>::random(n, n, &mut rng);
            for tile in [8usize, 16, 24, 32, 64, 128] {
                let reps = (3usize).max(64 * 1024 * 1024 / (n * n));
                // Warmup + timed reps.
                let _ = transpose_blocked(&m, tile);
                let start = std::time::Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(transpose_blocked(std::hint::black_box(&m), tile));
                }
                let ns = start.elapsed().as_nanos() as f64 / (reps * n * n) as f64;
                println!("transpose {n}x{n} tile {tile:>3}: {ns:.3} ns/elem");
            }
        }
    }

    #[test]
    fn naive_kernels_agree_with_routed_paths() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = Matrix::<Fp61>::random(17, 23, &mut rng);
        let b = Matrix::<Fp61>::random(23, 11, &mut rng);
        let x = Vector::<Fp61>::random(23, &mut rng);
        assert_eq!(matmul_naive(&a, &b).unwrap(), a.matmul(&b).unwrap());
        assert_eq!(matvec_naive(&a, &x).unwrap(), a.matvec(&x).unwrap());
        assert_eq!(transpose_naive(&a), a.transpose());
        assert!(matmul_naive(&a, &a).is_err());
        assert!(matvec_naive(&b, &x).is_err());
    }
}
