use crate::{Complex64, LinalgError};
use std::ops::{Mul, Sub};

/// An entry type [`Lu`] factorises: `f64` for the DC Newton Jacobian,
/// [`Complex64`] for the AC system `G + jωC`.
///
/// The pivot rule ("largest [`LuEntry::modulus`]") and the singularity
/// test are defined on the modulus. [`Lu`] decides both on the cheaper
/// [`LuEntry::key`] wherever the key provably gives the same answer, and
/// computes moduli only where it cannot: when two keys lie within
/// [`LuEntry::KEY_MARGIN`] of each other, when a key is not finite, or when
/// a square may have underflowed.
pub trait LuEntry: Copy + Sub<Output = Self> + Mul<Output = Self> {
    /// Relative distance between two keys below which their order may
    /// differ from the order of the moduli: zero where the key is the
    /// modulus itself.
    const KEY_MARGIN: f64;

    /// The magnitude the pivot rule and the singularity test are defined
    /// on.
    fn modulus(self) -> f64;

    /// A cheap stand-in for [`LuEntry::modulus`], increasing with it:
    /// wherever two keys differ by more than `KEY_MARGIN` relative (and the
    /// larger is finite and a normal number), the moduli order the same
    /// way, strictly.
    fn key(self) -> f64;

    /// The key of an entry of modulus `modulus`.
    fn key_of(modulus: f64) -> f64;

    /// The pivot in the form [`LuEntry::div_by`] divides by, computed once
    /// per pivot.
    fn divisor(self) -> Self;

    /// `self / pivot`, bit for bit, given `divisor = pivot.divisor()`.
    fn div_by(self, divisor: Self) -> Self;
}

impl LuEntry for f64 {
    const KEY_MARGIN: f64 = 0.0;

    fn modulus(self) -> f64 {
        self.abs()
    }

    /// The modulus itself, so every key decision is the exact one.
    fn key(self) -> f64 {
        self.abs()
    }

    fn key_of(modulus: f64) -> f64 {
        modulus
    }

    fn divisor(self) -> f64 {
        self
    }

    fn div_by(self, divisor: f64) -> f64 {
        self / divisor
    }
}

impl LuEntry for Complex64 {
    /// The computed `|z|²` is `|z|²·(1 + e)` with `|e| ≤ 2.01·2⁻⁵³`, plus
    /// at most 2⁻¹⁰⁷⁴ from squares that underflowed (under one ulp of a
    /// normal key), and `hypot` is within one ulp of `|z|`. Keys more than
    /// 1e-8 apart therefore bound moduli more than ~5e-9 apart, a million
    /// times wider than those rounding errors, and the computed moduli
    /// order the same way.
    const KEY_MARGIN: f64 = 1e-8;

    fn modulus(self) -> f64 {
        self.abs()
    }

    /// `|z|²`: two multiplies and an add, against a `hypot` call.
    fn key(self) -> f64 {
        self.abs_sq()
    }

    fn key_of(modulus: f64) -> f64 {
        modulus * modulus
    }

    /// The reciprocal: `Complex64`'s `/` is `self * o.recip()`, so
    /// multiplying by a reciprocal computed once is the same division.
    fn divisor(self) -> Complex64 {
        self.recip()
    }

    fn div_by(self, divisor: Complex64) -> Complex64 {
        self * divisor
    }
}

/// The offset in `column` of the pivot: its first entry of largest
/// modulus.
///
/// The entry with the largest key is that entry when every key is finite,
/// the largest is a normal number (no square in it underflowed), and the
/// runner-up is more than `KEY_MARGIN` below it: then every other modulus
/// is strictly smaller. Otherwise (a near tie, a NaN or infinity, a
/// possible underflow) the moduli are scanned.
fn pivot_offset<T: LuEntry>(column: impl Iterator<Item = T> + Clone) -> usize {
    let (mut lead, mut best, mut runner_up) = (0, f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut finite = true;
    for (i, z) in column.clone().enumerate() {
        let key = z.key();
        finite &= key.is_finite();
        if key > best {
            (runner_up, best, lead) = (best, key, i);
        } else if key > runner_up {
            runner_up = key;
        }
    }
    if finite && best >= f64::MIN_POSITIVE && runner_up < best * (1.0 - T::KEY_MARGIN) {
        return lead;
    }
    let mut moduli = column.map(T::modulus);
    let mut best = moduli.next().expect("a pivot column is never empty");
    let mut p = 0;
    for (i, v) in moduli.enumerate() {
        if v > best {
            best = v;
            p = i + 1;
        }
    }
    p
}

/// The singularity threshold `1e-13 × max(max|aᵢⱼ|, 1)`, equal to the one
/// computed by folding every modulus. One pass finds the largest key; then
///
/// - a key that is not finite (a NaN, an infinity, an overflowed square)
///   folds every modulus;
/// - a largest key more than `KEY_MARGIN` below `key_of(1)` bounds every
///   modulus below 1, so the scale is 1;
/// - otherwise an entry whose key is more than the margin below the
///   largest has a smaller modulus than the largest entry and cannot set
///   the scale, so only the entries within the margin are folded.
fn threshold<T: LuEntry>(a: &[T]) -> f64 {
    const TOL: f64 = 1e-13;
    let (mut lead, mut finite) = (0.0_f64, true);
    for z in a {
        let key = z.key();
        finite &= key.is_finite();
        lead = lead.max(key);
    }
    let scale = if !finite {
        a.iter().fold(0.0_f64, |m, z| m.max(z.modulus())).max(1.0)
    } else if lead < T::key_of(1.0) * (1.0 - T::KEY_MARGIN) {
        1.0
    } else {
        let cut = lead * (1.0 - T::KEY_MARGIN);
        a.iter()
            .filter(|z| z.key() >= cut)
            .fold(1.0_f64, |m, z| m.max(z.modulus()))
    };
    TOL * scale
}

/// `pivot.modulus() < threshold`, the singularity test, decided on keys
/// unless the pivot's key is within `KEY_MARGIN` of the threshold's (or
/// either is not finite). The threshold is at least `1e-13`, so its key
/// is a normal number and the margin argument of [`LuEntry::key`] applies.
fn below<T: LuEntry>(pivot: T, threshold: f64) -> bool {
    let (key, bound) = (pivot.key(), T::key_of(threshold));
    if key.is_finite() && bound.is_finite() {
        if key < bound * (1.0 - T::KEY_MARGIN) {
            return true;
        }
        if key > bound * (1.0 + T::KEY_MARGIN) {
            return false;
        }
    }
    pivot.modulus() < threshold
}

/// LU factorisation with partial pivoting, `P A = L U`, of a row-major
/// `n × n` buffer taken from the caller.
///
/// This is the one solver behind every MNA solve: the (unsymmetric) Newton
/// Jacobians of DC analysis and the complex small-signal systems of AC
/// analysis. Both entry types run the same operations in the same order.
/// The pivot is the entry of largest modulus in its column (the first on
/// a tie); [`LuEntry`] says how cheap keys pick it and run the
/// singularity test without changing either outcome. The caller hands in
/// the storage, the matrix and the row permutation, and
/// [`Lu::into_buffers`] hands both back, so a sweep refills them at the
/// next frequency instead of allocating anew.
///
/// # Example
///
/// ```
/// use kato_linalg::Lu;
///
/// # fn main() -> Result<(), kato_linalg::LinalgError> {
/// let lu = Lu::new(2, vec![0.0, 2.0, 1.0, 1.0], Vec::new())?; // needs pivoting
/// let x = lu.solve(&[2.0, 2.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// let mut work = [0.0; 2];
/// assert_eq!(lu.solve_row(&[2.0, 2.0], 1, &mut work), x[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T> {
    n: usize,
    /// Combined L (strict lower, unit diagonal implied) and U (upper)
    /// factors, row-major; U's diagonal is kept as each pivot's
    /// [`LuEntry::divisor`].
    lu: Vec<T>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl<T: LuEntry> Lu<T> {
    /// Factorises the row-major `n × n` matrix `a` in place, keeping the
    /// row permutation in `perm` (its contents are overwritten; pass
    /// `Vec::new()` when there is none to reuse).
    ///
    /// A pivot whose modulus falls below `1e-13 × max(max|aᵢⱼ|, 1)` makes
    /// the matrix singular.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if no acceptable pivot exists.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n * n`.
    pub fn new(n: usize, mut a: Vec<T>, mut perm: Vec<usize>) -> Result<Self, LinalgError> {
        assert_eq!(a.len(), n * n, "Lu::new: buffer is not n × n");
        let threshold = threshold(&a);
        perm.clear();
        perm.extend(0..n);
        for k in 0..n {
            let p = k + pivot_offset(a[k * n + k..].iter().step_by(n).copied());
            if below(a[p * n + k], threshold) {
                return Err(LinalgError::Singular);
            }
            if p != k {
                let (upper, lower) = a.split_at_mut(p * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, p);
            }
            let (head, tail) = a.split_at_mut((k + 1) * n);
            let pivot_row = &mut head[k * n + k..];
            let divisor = pivot_row[0].divisor();
            pivot_row[0] = divisor;
            let pivot_row = &pivot_row[1..];
            for row in tail.chunks_exact_mut(n) {
                let factor = row[k].div_by(divisor);
                row[k] = factor;
                for (x, &u) in row[k + 1..].iter_mut().zip(pivot_row) {
                    *x = *x - factor * u;
                }
            }
        }
        Ok(Lu { n, lu: a, perm })
    }

    /// Solves `A x = b`.
    ///
    /// The right-hand-side length must equal the matrix dimension
    /// (debug-asserted, matching the [`crate::CholeskyFactor`] solve
    /// contract: shape errors are caller bugs, not runtime conditions).
    #[must_use]
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        debug_assert_eq!(b.len(), self.n, "Lu::solve: rhs length mismatch");
        let mut y: Vec<T> = self.perm.iter().map(|&p| b[p]).collect();
        self.forward(&mut y);
        self.backward(&mut y, 0);
        y
    }

    /// Component `row` of the solution of `A x = b`, equal to
    /// `self.solve(b)[row]` bit for bit: the same forward substitution,
    /// then back-substitution from the last row up to `row` only. `work`
    /// (length `n`) is scratch, so a caller reading one component per
    /// system allocates nothing per solve.
    ///
    /// # Panics
    ///
    /// Panics if `row >= n`; lengths are debug-asserted as in
    /// [`Lu::solve`].
    #[must_use]
    pub fn solve_row(&self, b: &[T], row: usize, work: &mut [T]) -> T {
        debug_assert_eq!(b.len(), self.n, "Lu::solve_row: rhs length mismatch");
        debug_assert_eq!(work.len(), self.n, "Lu::solve_row: work length mismatch");
        for (w, &p) in work.iter_mut().zip(&self.perm) {
            *w = b[p];
        }
        self.forward(work);
        self.backward(work, row);
        work[row]
    }

    /// Forward substitution with the unit-diagonal L, in place on the
    /// permuted right-hand side `y = P b`.
    fn forward(&self, y: &mut [T]) {
        let n = self.n;
        for i in 1..n {
            let (solved, rest) = y.split_at_mut(i);
            let mut sum = rest[0];
            for (&l, &yk) in self.lu[i * n..i * n + i].iter().zip(&*solved) {
                sum = sum - l * yk;
            }
            rest[0] = sum;
        }
    }

    /// Back-substitution with U over rows `n - 1` down to `last`: those
    /// entries of `y` become the solution's.
    fn backward(&self, y: &mut [T], last: usize) {
        let n = self.n;
        for i in (last..n).rev() {
            let row = &self.lu[i * n..(i + 1) * n];
            let (head, solved) = y.split_at_mut(i + 1);
            let mut sum = head[i];
            for (&u, &xk) in row[i + 1..].iter().zip(&*solved) {
                sum = sum - u * xk;
            }
            head[i] = sum.div_by(row[i]);
        }
    }

    /// Hands the factored buffer and the permutation back, for the caller
    /// to refill with the next matrix of the same size.
    #[must_use]
    pub fn into_buffers(self) -> (Vec<T>, Vec<usize>) {
        (self.lu, self.perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solve_requires_pivot() {
        let lu = Lu::new(2, vec![0.0, 1.0, 1.0, 0.0], Vec::new()).unwrap();
        let x = lu.solve(&[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular() {
        assert!(matches!(
            Lu::new(2, vec![1.0, 2.0, 2.0, 4.0], Vec::new()),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    #[should_panic(expected = "buffer is not n × n")]
    fn rejects_rectangular() {
        let _ = Lu::new(2, vec![1.0; 6], Vec::new());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn rhs_length_checked() {
        let lu = Lu::new(
            3,
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            Vec::new(),
        )
        .unwrap();
        let _ = lu.solve(&[1.0, 2.0]);
    }

    #[test]
    fn empty_system_solves_to_nothing() {
        let lu = Lu::<Complex64>::new(0, Vec::new(), Vec::new()).unwrap();
        assert!(lu.solve(&[]).is_empty());
    }

    #[test]
    fn into_buffer_returns_the_storage_for_reuse() {
        let a = vec![4.0, 3.0, 6.0, 3.0];
        let perm = vec![7; 5];
        let (a_ptr, perm_ptr) = (a.as_ptr(), perm.as_ptr());
        let lu = Lu::new(2, a, perm).unwrap();
        let x = lu.solve(&[1.0, 2.0]);
        let (buffer, perm) = lu.into_buffers();
        assert_eq!(buffer.as_ptr(), a_ptr);
        assert_eq!(buffer.len(), 4);
        assert_eq!(perm.as_ptr(), perm_ptr);
        assert_eq!(perm, [1, 0]);
        let fresh = Lu::new(2, vec![4.0, 3.0, 6.0, 3.0], Vec::new()).unwrap();
        assert_eq!(fresh.solve(&[1.0, 2.0]), x);
    }

    /// Every component `solve_row` returns equals `solve`'s to the bit.
    fn assert_rows_match_solve<T: LuEntry>(
        n: usize,
        a: Vec<T>,
        b: &[T],
        bits: impl Fn(T) -> (u64, u64),
    ) {
        let Ok(lu) = Lu::new(n, a, Vec::new()) else {
            return;
        };
        let x = lu.solve(b);
        let mut work = b.to_vec();
        for (row, &xi) in x.iter().enumerate() {
            assert_eq!(bits(lu.solve_row(b, row, &mut work)), bits(xi), "row {row}");
        }
    }

    proptest! {
        /// Dense systems whose entries span six decades (so rows swap),
        /// real and complex, every `n` from 1 to 8.
        #[test]
        fn prop_solve_row_equals_the_full_solve_bitwise(
            mantissas in proptest::collection::vec(-1.0..1.0f64, 144),
            decades in proptest::collection::vec(-3.0..3.0f64, 144),
            n in 1usize..=8,
        ) {
            let v: Vec<f64> = mantissas
                .iter()
                .zip(&decades)
                .map(|(m, d)| m * 10f64.powf(*d))
                .collect();
            let real = |x: f64| (x.to_bits(), 0);
            assert_rows_match_solve(n, v[..n * n].to_vec(), &v[64..64 + n], real);
            let z: Vec<Complex64> = v.chunks_exact(2).map(|p| Complex64::new(p[0], p[1])).collect();
            let complex = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
            assert_rows_match_solve(n, z[..n * n].to_vec(), &z[64..64 + n], complex);
        }

        #[test]
        fn prop_solve_roundtrip(vals in proptest::collection::vec(-3.0..3.0f64, 16), n in 2usize..5) {
            // Diagonally dominant => nonsingular.
            let mut a: Vec<f64> = (0..n * n).map(|k| vals[k % vals.len()]).collect();
            for i in 0..n {
                let rowsum: f64 = a[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum();
                a[i * n + i] = rowsum + 1.0;
            }
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
            let b: Vec<f64> = a.chunks(n).map(|row| crate::dot(row, &x_true)).collect();
            let x = Lu::new(n, a, Vec::new()).unwrap().solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-8);
            }
        }
    }
}
