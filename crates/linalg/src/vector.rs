//! Dense vectors over a generic [`Scalar`] field.

use std::fmt;

use rand::Rng;

use crate::error::{Axis, Error, Result};
use crate::matrix::Matrix;
use crate::scalar::{DrawScalars, Scalar};

/// A dense column vector over a field `F`.
///
/// The user's input `x`, each device's intermediate result `B_j T x`, and
/// the recovered output `y = A x` are all `Vector` values.
///
/// # Example
///
/// ```
/// use scec_linalg::Vector;
///
/// let x = Vector::from_vec(vec![1.0, 2.0, 3.0]);
/// let y = Vector::from_vec(vec![1.0, 1.0, 1.0]);
/// assert_eq!(x.add(&y)?.as_slice(), &[2.0, 3.0, 4.0]);
/// assert_eq!(x.dot(&y)?, 6.0);
/// # Ok::<(), scec_linalg::Error>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Vector<F> {
    data: Vec<F>,
}

impl<F: Scalar> Vector<F> {
    /// Wraps an owned `Vec` as a vector.
    pub fn from_vec(data: Vec<F>) -> Self {
        Vector { data }
    }

    /// The zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector {
            data: vec![F::zero(); n],
        }
    }

    /// A vector of entries drawn by [`Scalar::sample`].
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Vector {
            data: rng.draw_scalars(n),
        }
    }

    /// Length of the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the entries.
    #[inline]
    pub fn as_slice(&self) -> &[F] {
        &self.data
    }

    /// Mutably borrow the entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [F] {
        &mut self.data
    }

    /// Consume into the underlying `Vec`.
    pub fn into_vec(self) -> Vec<F> {
        self.data
    }

    /// Checked element access.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] when `i >= self.len()`.
    pub fn get(&self, i: usize) -> Result<F> {
        self.data.get(i).copied().ok_or(Error::IndexOutOfBounds {
            index: i,
            bound: self.data.len(),
            axis: Axis::Row,
        })
    }

    /// Panicking element access.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn at(&self, i: usize) -> F {
        self.data[i]
    }

    /// Entry-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when lengths differ.
    pub fn add(&self, rhs: &Vector<F>) -> Result<Vector<F>> {
        self.zip_with(rhs, "add", F::add)
    }

    /// Entry-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when lengths differ.
    pub fn sub(&self, rhs: &Vector<F>) -> Result<Vector<F>> {
        self.zip_with(rhs, "sub", F::sub)
    }

    fn zip_with(
        &self,
        rhs: &Vector<F>,
        op: &'static str,
        f: impl Fn(F, F) -> F,
    ) -> Result<Vector<F>> {
        if self.len() != rhs.len() {
            return Err(Error::ShapeMismatch {
                op,
                lhs: (self.len(), 1),
                rhs: (rhs.len(), 1),
            });
        }
        Ok(Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: F) -> Vector<F> {
        Vector {
            data: self.data.iter().map(|&a| a.mul(s)).collect(),
        }
    }

    /// Inner product.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when lengths differ.
    pub fn dot(&self, rhs: &Vector<F>) -> Result<F> {
        if self.len() != rhs.len() {
            return Err(Error::ShapeMismatch {
                op: "dot",
                lhs: (self.len(), 1),
                rhs: (rhs.len(), 1),
            });
        }
        // Fused kernel: lazy reduction over Fp61, naive fold elsewhere.
        Ok(F::dot_slices(&self.data, &rhs.data))
    }

    /// Concatenates two vectors (used to stack per-device intermediate
    /// results into `B T x`).
    pub fn concat(&self, rhs: &Vector<F>) -> Vector<F> {
        let mut data = Vec::with_capacity(self.len() + rhs.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Vector { data }
    }

    /// The sub-vector `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] when the range exceeds the length.
    pub fn slice(&self, start: usize, end: usize) -> Result<Vector<F>> {
        if end > self.len() || start > end {
            return Err(Error::IndexOutOfBounds {
                index: end.max(start),
                bound: self.len(),
                axis: Axis::Row,
            });
        }
        Ok(Vector {
            data: self.data[start..end].to_vec(),
        })
    }

    /// Reinterprets the vector as an `n × 1` matrix.
    pub fn into_column_matrix(self) -> Matrix<F> {
        let n = self.len();
        Matrix::from_flat(n, 1, self.data).expect("length matches by construction")
    }

    /// Reinterprets the vector as a `1 × n` matrix.
    pub fn into_row_matrix(self) -> Matrix<F> {
        let n = self.len();
        Matrix::from_flat(1, n, self.data).expect("length matches by construction")
    }
}

impl<F: Scalar> FromIterator<F> for Vector<F> {
    fn from_iter<I: IntoIterator<Item = F>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<F: Scalar> Extend<F> for Vector<F> {
    fn extend<I: IntoIterator<Item = F>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<F: Scalar> fmt::Debug for Vector<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_SHOWN: usize = 12;
        write!(f, "Vector[{}](", self.data.len())?;
        for (i, v) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        if self.data.len() > MAX_SHOWN {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp61;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn basic_construction() {
        let v = Vector::from_vec(vec![1.0, 2.0]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert!(Vector::<f64>::zeros(0).is_empty());
        assert_eq!(Vector::<f64>::zeros(3).as_slice(), &[0.0; 3]);
    }

    #[test]
    fn get_and_at() {
        let v = Vector::from_vec(vec![5.0, 6.0]);
        assert_eq!(v.get(1).unwrap(), 6.0);
        assert!(v.get(2).is_err());
        assert_eq!(v.at(0), 5.0);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.dot(&b).unwrap(), 13.0);
        let short = Vector::from_vec(vec![1.0]);
        assert!(a.add(&short).is_err());
        assert!(a.sub(&short).is_err());
        assert!(a.dot(&short).is_err());
    }

    #[test]
    fn concat_slice() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0]);
        let c = a.concat(&b);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.slice(1, 3).unwrap().as_slice(), &[2.0, 3.0]);
        assert!(c.slice(2, 4).is_err());
        assert_eq!(c.slice(1, 1).unwrap().len(), 0);
    }

    #[test]
    fn matrix_conversions() {
        let v = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let col = v.clone().into_column_matrix();
        assert_eq!(col.shape(), (3, 1));
        let row = v.into_row_matrix();
        assert_eq!(row.shape(), (1, 3));
        assert_eq!(row.at(0, 2), 3.0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut v: Vector<f64> = (0..3).map(|i| i as f64).collect();
        v.extend([3.0, 4.0]);
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn random_fp_vector() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = Vector::<Fp61>::random(8, &mut rng);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn debug_is_clamped() {
        let v = Vector::<f64>::zeros(50);
        let s = format!("{v:?}");
        assert!(s.starts_with("Vector[50]("));
        assert!(s.contains('…'));
    }
}
