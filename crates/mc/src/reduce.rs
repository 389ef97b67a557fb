//! Fixed-order f64 reductions.
//!
//! Float addition is not associative, so the *order* of a summation is part
//! of its value: reassociating the same terms — which is exactly what SIMD
//! lane splitting, tree reduction, or thread partitioning does — changes
//! the result by ulps that the workspace's bit-reproducibility contract
//! cannot absorb. The `ntv::reduction-order` lint denies raw sequential
//! accumulation on public paths; these helpers are the sanctioned
//! replacements:
//!
//! * [`sum_ordered`] / [`sum2_ordered`] — a *documented* left-to-right
//!   fold, bit-identical to the naive `for` loop it replaces. Migrating a
//!   loop here does not change a single bit; it marks the site as
//!   order-pinned so the vectorization pass knows the order is load-bearing
//!   and must be reproduced (e.g. by lane-invariant tree order) rather than
//!   discovered.
//!
//! Both are allocation-free single passes over any `f64` iterator.
//!
//! The batch variants [`add_assign_ordered`] and [`axpy_ordered`] are the
//! structure-of-arrays counterparts, used by the survival grid: each call
//! adds *one term* to every element of an accumulator slice, so a loop
//! over terms calling a batch helper is the loop-interchanged form of N
//! independent scalar folds. Element `i` still sees its terms strictly
//! left-to-right, which makes the interchange bit-identical to calling
//! [`sum_ordered`] per element. The inner loops are fixed-stride with no
//! cross-element dependence, so the compiler is free to vectorize them.

/// Left-to-right ordered sum: exactly `iter.fold(0.0, |a, x| a + x)`.
///
/// Bit-identical to the sequential `acc += x` loop and to
/// `Iterator::sum::<f64>()` over the same order — the point is the name:
/// a call site declares its summation order fixed and documented.
#[must_use]
pub fn sum_ordered(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.0;
    for x in values {
        acc += x; // ntv:allow(reduction-order): this IS the documented fixed-order helper
    }
    acc
}

/// Two ordered sums in one pass: `(Σ aᵢ, Σ bᵢ)` with each accumulator
/// folded left-to-right, bit-identical to the paired `+=` loop it
/// replaces. For kernels whose per-element work must not run twice
/// (side-effecting closures, expensive model evaluations).
#[must_use]
pub fn sum2_ordered(values: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
    let mut a = 0.0;
    let mut b = 0.0;
    for (x, y) in values {
        a += x; // ntv:allow(reduction-order): this IS the documented fixed-order helper
        b += y; // ntv:allow(reduction-order): this IS the documented fixed-order helper
    }
    (a, b)
}

/// Batch accumulate one term per element: `acc[i] += terms[i]`.
///
/// This is the loop-interchange primitive for vectorizing N independent
/// ordered sums: calling it once per term row reproduces, for every
/// element `i`, exactly the left-to-right fold [`sum_ordered`] performs
/// over that element's column — bit-identical, because each `acc[i]` is
/// its own accumulator and never reassociates with its neighbours.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn add_assign_ordered(acc: &mut [f64], terms: &[f64]) {
    assert_eq!(acc.len(), terms.len(), "batch accumulator length mismatch");
    for (a, &t) in acc.iter_mut().zip(terms) {
        *a += t;
    }
}

/// Batch scaled accumulate: `acc[i] += w * xs[i]`.
///
/// Same interchange contract as [`add_assign_ordered`], with the common
/// weighted-term shape fused in: the term added to element `i` is computed
/// as `w * xs[i]`, exactly the expression the scalar fold would form.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_ordered(acc: &mut [f64], w: f64, xs: &[f64]) {
    assert_eq!(acc.len(), xs.len(), "batch accumulator length mismatch");
    for (a, &x) in acc.iter_mut().zip(xs) {
        *a += w * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_ordered_is_bit_identical_to_the_naive_loop() {
        // An ill-conditioned mix of magnitudes: ordered summation must
        // reproduce the naive loop bit for bit, drift and all.
        let xs: Vec<f64> = (0..1000)
            .map(|i| {
                let i = f64::from(i);
                (i * 0.1).sin() * 10f64.powi((i as i32 % 7) - 3)
            })
            .collect();
        let mut naive = 0.0;
        for &x in &xs {
            naive += x;
        }
        assert_eq!(sum_ordered(xs.iter().copied()).to_bits(), naive.to_bits());
        let iter_sum: f64 = xs.iter().sum();
        assert_eq!(
            sum_ordered(xs.iter().copied()).to_bits(),
            iter_sum.to_bits()
        );
    }

    #[test]
    fn sum2_ordered_matches_paired_accumulators() {
        let pairs: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let i = f64::from(i);
                ((i * 0.31).cos(), (i * 0.17).sin() * 1e-8)
            })
            .collect();
        let (mut a, mut b) = (0.0, 0.0);
        for &(x, y) in &pairs {
            a += x;
            b += y;
        }
        let (sa, sb) = sum2_ordered(pairs.iter().copied());
        assert_eq!(sa.to_bits(), a.to_bits());
        assert_eq!(sb.to_bits(), b.to_bits());
    }

    #[test]
    fn batch_accumulators_are_bit_identical_to_per_element_scalar_folds() {
        // A (terms × elements) matrix of ill-conditioned values: the
        // interchanged batch accumulation must match, per element, the
        // scalar left-to-right fold over that element's column.
        let n = 37; // deliberately not a multiple of any lane width
        let rows = 24;
        let matrix: Vec<Vec<f64>> = (0..rows)
            .map(|j| {
                (0..n)
                    .map(|i| {
                        let v = f64::from(i as i32 * 31 + j * 7);
                        (v * 0.113).sin() * 10f64.powi((i as i32 + j) % 9 - 4)
                    })
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = (0..rows).map(|j| 0.3 + 0.1 * f64::from(j)).collect();

        // add_assign_ordered vs per-element sum_ordered.
        let mut acc = vec![0.0; n];
        for row in &matrix {
            add_assign_ordered(&mut acc, row);
        }
        for i in 0..n {
            let scalar = sum_ordered(matrix.iter().map(|row| row[i]));
            assert_eq!(acc[i].to_bits(), scalar.to_bits());
        }

        // axpy_ordered vs per-element weighted sum_ordered.
        let mut acc = vec![0.0; n];
        for (row, &w) in matrix.iter().zip(&weights) {
            axpy_ordered(&mut acc, w, row);
        }
        for i in 0..n {
            let scalar = sum_ordered(matrix.iter().zip(&weights).map(|(row, &w)| w * row[i]));
            assert_eq!(acc[i].to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn batch_accumulators_accept_empty_slices() {
        let mut acc: Vec<f64> = Vec::new();
        add_assign_ordered(&mut acc, &[]);
        axpy_ordered(&mut acc, 2.0, &[]);
        assert!(acc.is_empty());
    }

    #[test]
    fn empty_and_single_sums_are_exact() {
        assert_eq!(sum_ordered(std::iter::empty()), 0.0);
        assert_eq!(sum_ordered([42.5]), 42.5);
        assert_eq!(sum2_ordered(std::iter::empty()), (0.0, 0.0));
    }
}
