//! Stack-allocated scalar-multiplication ladders.
//!
//! The Curve-level ladders pay an [`field::FpContext`] call (and an
//! operation-counter update) per field operation. This module re-runs the
//! *same* formulas — the general and `a = -3` "dbl-2001-b" doublings and
//! the mixed-coordinate addition of [`crate::Curve::jacobian_double`] /
//! [`Curve::jacobian_add_mixed`] — directly on the field's
//! [`MontgomeryContext<4>`] and its [`bignum::fixed::Uint<4>`] stack words,
//! with zero heap allocation from the first doubling through the final
//! Fermat inversion, for every curve (the 160-bit reproduction curve as
//! much as the 256-bit standards curves).
//!
//! The backend computes in the field's own Montgomery context (see
//! [`field::FpContext::mont_context`]), so every intermediate here is the
//! *bit-identical* Montgomery residue the Curve-level ladder would have
//! produced; the differential suites in `tests/` pin this.
//!
//! [`FixedCurve`] is constructed by [`Curve`] itself during
//! [`Curve::from_spec`] — there is no public constructor — and
//! [`Curve::scalar_mul`] dispatches to it automatically, so callers keep
//! the typed [`Curve`] API. [`Curve::fixed_backend`] exposes the backend
//! for benchmarks and differential tests.

use std::sync::{Arc, OnceLock};

use bignum::fixed::{add_mod, neg_mod, sub_mod, MontgomeryContext, Uint};
use bignum::BigUint;
use field::FpElement;

use crate::curve::Curve;
use crate::point::AffinePoint;
use crate::scalar::{naf_digits, window_digits, ScalarMulAlgorithm};

/// A field residue in Montgomery form on the fixed backend.
type Residue = Uint<4>;

/// Comb tooth count: each ladder step assembles one bit from each of four
/// equally spaced scalar positions.
const COMB_TEETH: usize = 4;
/// Distance between comb teeth — also the number of doublings in the comb
/// ladder (vs 256 in double-and-add).
const COMB_SPACING: usize = 64;

/// A Lim–Lee fixed-base comb table: the 15 non-trivial sums of
/// `{P, 2^64·P, 2^128·P, 2^192·P}`, batch-normalized to affine form so the
/// comb ladder adds through the mixed-coordinate formulas only.
#[derive(Clone, Debug)]
struct CombTable {
    /// The base point this table was built for (Montgomery form).
    x: Residue,
    y: Residue,
    /// `entries[d - 1]` holds `sum_t (d >> t & 1) · 2^(64t) · P`.
    entries: [(Residue, Residue); (1 << COMB_TEETH) - 1],
}

/// A Jacobian point on the fixed backend; `z = 0` encodes infinity (with
/// `x = y = 1` in Montgomery form, mirroring the Curve-level convention).
#[derive(Clone, Copy)]
struct JPoint {
    x: Residue,
    y: Residue,
    z: Residue,
}

/// The fixed-width ladder backend of a [`Curve`].
///
/// Holds the field's [`MontgomeryContext`] plus the curve constants the
/// doubling formulas need, all as stack values. Built by
/// [`Curve::from_spec`] for every curve; retrieved via
/// [`Curve::fixed_backend`].
#[derive(Clone, Debug)]
pub struct FixedCurve {
    ctx: MontgomeryContext<4>,
    /// The coefficient `a` in Montgomery form.
    a_mont: Residue,
    /// The constant 3 in Montgomery form (the fast doubling's tangent
    /// factor).
    three_mont: Residue,
    a_is_minus_three: bool,
    /// Lazily built fixed-base comb table, shared across clones. Populated
    /// by the first [`FixedCurve::scalar_mul_comb`] call (the curve's base
    /// point, via [`Curve::scalar_mul`]'s `Window4` dispatch); `None`
    /// inside means construction degenerated (an entry hit infinity) and
    /// the comb path is permanently disabled for this curve.
    comb: Arc<OnceLock<Option<CombTable>>>,
}

impl FixedCurve {
    /// Builds the backend from the field context and curve coefficient.
    /// Crate-internal: curves construct this in [`Curve::from_spec`].
    pub(crate) fn new(ctx: MontgomeryContext<4>, a: &FpElement, a_is_minus_three: bool) -> Self {
        let a_mont = *a.mont_repr();
        let three_mont = ctx.to_mont(&Uint::from_u64(3));
        FixedCurve {
            ctx,
            a_mont,
            three_mont,
            a_is_minus_three,
            comb: Arc::new(OnceLock::new()),
        }
    }

    /// The fixed-width Montgomery context this backend computes in (the
    /// curve's [`field::FpContext::mont_context`]).
    pub fn context(&self) -> &MontgomeryContext<4> {
        &self.ctx
    }

    /// Whether the ladder uses the shortened `a = -3` doubling.
    pub fn a_is_minus_three(&self) -> bool {
        self.a_is_minus_three
    }

    #[inline]
    fn mul(&self, a: &Residue, b: &Residue) -> Residue {
        self.ctx.mont_mul(a, b)
    }

    #[inline]
    fn sqr(&self, a: &Residue) -> Residue {
        self.ctx.mont_mul(a, a)
    }

    #[inline]
    fn add(&self, a: &Residue, b: &Residue) -> Residue {
        add_mod(a, b, self.ctx.modulus())
    }

    #[inline]
    fn sub(&self, a: &Residue, b: &Residue) -> Residue {
        sub_mod(a, b, self.ctx.modulus())
    }

    #[inline]
    fn dbl(&self, a: &Residue) -> Residue {
        self.add(a, a)
    }

    fn infinity(&self) -> JPoint {
        JPoint {
            x: self.ctx.one_mont(),
            y: self.ctx.one_mont(),
            z: Residue::ZERO,
        }
    }

    /// Jacobian doubling, mirroring [`Curve::jacobian_double`]'s dispatch
    /// and formulas exactly.
    fn jacobian_double(&self, p: &JPoint) -> JPoint {
        if self.a_is_minus_three {
            return self.jacobian_double_fast(p);
        }
        if p.z.is_zero() || p.y.is_zero() {
            return self.infinity();
        }
        let a_sq = self.sqr(&p.x); // X1²
        let b_sq = self.sqr(&p.y); // Y1²
        let c = self.sqr(&b_sq); // Y1⁴
                                 // D = 2((X1 + B)² - A - C)
        let d = self.dbl(&self.sub(&self.sub(&self.sqr(&self.add(&p.x, &b_sq)), &a_sq), &c));
        // E = 3A + a·Z1⁴
        let z2 = self.sqr(&p.z);
        let e = self.add(
            &self.add(&self.dbl(&a_sq), &a_sq),
            &self.mul(&self.a_mont, &self.sqr(&z2)),
        );
        let f = self.sqr(&e);
        let x3 = self.sub(&f, &self.dbl(&d));
        let eight_c = self.dbl(&self.dbl(&self.dbl(&c)));
        let y3 = self.sub(&self.mul(&e, &self.sub(&d, &x3)), &eight_c);
        let z3 = self.dbl(&self.mul(&p.y, &p.z));
        JPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Shortened `a = -3` doubling ("dbl-2001-b"), mirroring
    /// [`Curve::jacobian_double_fast`].
    fn jacobian_double_fast(&self, p: &JPoint) -> JPoint {
        debug_assert!(self.a_is_minus_three, "fast doubling requires a = -3");
        if p.z.is_zero() || p.y.is_zero() {
            return self.infinity();
        }
        let delta = self.sqr(&p.z); // Z1²
        let gamma = self.sqr(&p.y); // Y1²
        let beta = self.mul(&p.x, &gamma); // X1·Y1²
        let alpha = self.mul(
            &self.three_mont,
            &self.mul(&self.sub(&p.x, &delta), &self.add(&p.x, &delta)),
        );
        let beta4 = self.dbl(&self.dbl(&beta));
        let x3 = self.sub(&self.sqr(&alpha), &self.dbl(&beta4));
        let y3 = self.sub(
            &self.mul(&alpha, &self.sub(&beta4, &x3)),
            &self.dbl(&self.dbl(&self.dbl(&self.sqr(&gamma)))),
        );
        let z3 = self.dbl(&self.mul(&p.y, &p.z));
        JPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed-coordinate addition of an affine addend (`Z2 = 1`), mirroring
    /// [`Curve::jacobian_add_mixed`] including its degenerate cases.
    fn jacobian_add_mixed(&self, p: &JPoint, x2: &Residue, y2: &Residue) -> JPoint {
        if p.z.is_zero() {
            return JPoint {
                x: *x2,
                y: *y2,
                z: self.ctx.one_mont(),
            };
        }
        let z1z1 = self.sqr(&p.z);
        let u2 = self.mul(x2, &z1z1);
        let s2 = self.mul(y2, &self.mul(&p.z, &z1z1));
        if u2 == p.x {
            if s2 == p.y {
                return self.jacobian_double(p);
            }
            return self.infinity();
        }
        let h = self.sub(&u2, &p.x);
        let i = self.sqr(&self.dbl(&h));
        let j = self.mul(&h, &i);
        let r = self.dbl(&self.sub(&s2, &p.y));
        let v = self.mul(&p.x, &i);
        let x3 = self.sub(&self.sub(&self.sqr(&r), &j), &self.dbl(&v));
        let y3 = self.sub(
            &self.mul(&r, &self.sub(&v, &x3)),
            &self.dbl(&self.mul(&p.y, &j)),
        );
        let z3 = self.dbl(&self.mul(&p.z, &h));
        JPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Normalizes back to affine form (one Fermat inversion, still on the
    /// stack); `None` is the point at infinity.
    fn to_affine(&self, p: &JPoint) -> Option<(Residue, Residue)> {
        if p.z.is_zero() {
            return None;
        }
        let z_inv = self
            .ctx
            .mont_inv_prime(&p.z)
            .expect("finite point has z != 0");
        let z_inv2 = self.sqr(&z_inv);
        let z_inv3 = self.mul(&z_inv2, &z_inv);
        Some((self.mul(&p.x, &z_inv2), self.mul(&p.y, &z_inv3)))
    }

    /// Left-to-right double-and-add ladder on Montgomery-form affine
    /// coordinates, mirroring the Curve-level `double_and_add` step for step.
    /// `None` is the point at infinity. Performs no heap allocation.
    pub fn scalar_mul(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        k: &Residue,
    ) -> Option<(Residue, Residue)> {
        let mut acc = self.infinity();
        for i in (0..k.bit_len()).rev() {
            acc = self.jacobian_double(&acc);
            if k.bit(i) {
                acc = self.jacobian_add_mixed(&acc, x_mont, y_mont);
            }
        }
        self.to_affine(&acc)
    }

    /// The signed-digit NAF ladder accumulated in Jacobian form; both
    /// addends (`±P`) are affine, so every addition is a mixed addition.
    /// Uses the **shared** recoding ([`crate::scalar::naf_digits`]) so the
    /// fixed and Curve-level ladders can never diverge on digit sequences.
    fn naf_ladder(&self, x_mont: &Residue, y_mont: &Residue, k: &Residue) -> JPoint {
        let digits = naf_digits(&k.to_biguint());
        let neg_y = neg_mod(y_mont, self.ctx.modulus());
        let mut acc = self.infinity();
        for &d in digits.iter().rev() {
            acc = self.jacobian_double(&acc);
            match d {
                1 => acc = self.jacobian_add_mixed(&acc, x_mont, y_mont),
                -1 => acc = self.jacobian_add_mixed(&acc, x_mont, &neg_y),
                _ => {}
            }
        }
        acc
    }

    /// Signed-digit NAF ladder: point additions on roughly one third of
    /// the digits instead of one half. Result bit-identical to
    /// [`FixedCurve::scalar_mul`] (affine coordinates of `k·P` are unique).
    pub fn scalar_mul_naf(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        k: &Residue,
    ) -> Option<(Residue, Residue)> {
        self.to_affine(&self.naf_ladder(x_mont, y_mont, k))
    }

    /// Normalizes a slice of *finite* Jacobian points to affine form with
    /// **one** batched inversion (Montgomery's trick: one Fermat inversion
    /// plus `3(n-1)` multiplications) instead of one inversion per point.
    /// Returns `None` if any point is at infinity — callers fall back to a
    /// table-free ladder in that (degenerate, large-prime-order-impossible)
    /// case rather than guessing.
    fn batch_to_affine(&self, points: &[JPoint]) -> Option<Vec<(Residue, Residue)>> {
        if points.iter().any(|p| p.z.is_zero()) {
            return None;
        }
        let mut zs: Vec<Residue> = points.iter().map(|p| p.z).collect();
        let mut scratch = vec![Residue::ZERO; zs.len()];
        if !self.ctx.mont_inv_batch(&mut zs, &mut scratch) {
            return None;
        }
        Some(
            points
                .iter()
                .zip(&zs)
                .map(|(p, z_inv)| {
                    let z_inv2 = self.sqr(z_inv);
                    (
                        self.mul(&p.x, &z_inv2),
                        self.mul(&p.y, &self.mul(&z_inv2, z_inv)),
                    )
                })
                .collect(),
        )
    }

    /// The windowed ladder's odd-and-even multiples table
    /// `[P, 2P, .., (2^w - 1)·P]` as affine pairs (index `d` at `d - 1`),
    /// batch-normalized. `None` on a degenerate (infinity-entry) chain.
    fn affine_table(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        window: usize,
    ) -> Option<Vec<(Residue, Residue)>> {
        let len = (1usize << window) - 1;
        let mut chain = Vec::with_capacity(len);
        chain.push(JPoint {
            x: *x_mont,
            y: *y_mont,
            z: self.ctx.one_mont(),
        });
        for i in 1..len {
            chain.push(self.jacobian_add_mixed(&chain[i - 1], x_mont, y_mont));
        }
        self.batch_to_affine(&chain)
    }

    /// Fixed 4-bit-window ladder with a per-call batch-normalized table:
    /// one table inversion total (vs 14 per-entry inversions) and one
    /// mixed addition per non-zero window. Result bit-identical to
    /// [`FixedCurve::scalar_mul`]. Uses the shared window recoding
    /// ([`crate::scalar::window_digits`]).
    pub fn scalar_mul_window(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        k: &Residue,
        window: usize,
    ) -> Option<(Residue, Residue)> {
        let Some(table) = self.affine_table(x_mont, y_mont, window) else {
            // Degenerate table (small-order point): the plain ladder needs
            // no precomputed multiples and still computes k·P exactly.
            return self.scalar_mul(x_mont, y_mont, k);
        };
        let digits = window_digits(&k.to_biguint(), window);
        let mut acc = self.infinity();
        for &digit in digits.iter().rev() {
            for _ in 0..window {
                acc = self.jacobian_double(&acc);
            }
            if digit != 0 {
                let (ex, ey) = table[digit - 1];
                acc = self.jacobian_add_mixed(&acc, &ex, &ey);
            }
        }
        self.to_affine(&acc)
    }

    /// Builds the Lim–Lee comb table for `P = (x, y)`: affine strides
    /// `2^(64t)·P` (192 doublings, batch-normalized), then the 15 subset
    /// sums, batch-normalized again — two inversions total for the whole
    /// table. `None` if any entry degenerates to infinity.
    fn build_comb(&self, x_mont: &Residue, y_mont: &Residue) -> Option<CombTable> {
        let mut strides = [(*x_mont, *y_mont); COMB_TEETH];
        let mut cur = JPoint {
            x: *x_mont,
            y: *y_mont,
            z: self.ctx.one_mont(),
        };
        let mut stride_chain = Vec::with_capacity(COMB_TEETH - 1);
        for _ in 1..COMB_TEETH {
            for _ in 0..COMB_SPACING {
                cur = self.jacobian_double(&cur);
            }
            stride_chain.push(cur);
        }
        for (slot, affine) in strides
            .iter_mut()
            .skip(1)
            .zip(self.batch_to_affine(&stride_chain)?)
        {
            *slot = affine;
        }
        let mut entry_chain = Vec::with_capacity((1 << COMB_TEETH) - 1);
        for d in 1usize..(1 << COMB_TEETH) {
            let mut acc = self.infinity();
            for (t, (sx, sy)) in strides.iter().enumerate() {
                if d & (1 << t) != 0 {
                    acc = self.jacobian_add_mixed(&acc, sx, sy);
                }
            }
            entry_chain.push(acc);
        }
        let normalized = self.batch_to_affine(&entry_chain)?;
        let mut entries = [(Residue::ZERO, Residue::ZERO); (1 << COMB_TEETH) - 1];
        for (slot, affine) in entries.iter_mut().zip(normalized) {
            *slot = affine;
        }
        Some(CombTable {
            x: *x_mont,
            y: *y_mont,
            entries,
        })
    }

    /// The comb ladder over a built table: 63 doublings plus at most 64
    /// mixed additions for a 256-bit scalar (vs ~256 + ~128 for
    /// double-and-add).
    fn comb_ladder(&self, table: &CombTable, k: &Residue) -> JPoint {
        let mut acc = self.infinity();
        for i in (0..COMB_SPACING).rev() {
            acc = self.jacobian_double(&acc);
            let mut digit = 0usize;
            for t in 0..COMB_TEETH {
                digit |= (k.bit(t * COMB_SPACING + i) as usize) << t;
            }
            if digit != 0 {
                let (ex, ey) = table.entries[digit - 1];
                acc = self.jacobian_add_mixed(&acc, &ex, &ey);
            }
        }
        acc
    }

    /// Fixed-base comb (Lim–Lee) ladder: the fastest repeated-base path,
    /// caching its two-inversion table on first use. [`Curve::scalar_mul`]
    /// routes `Window4` requests on the curve's base point here. A call
    /// with a *different* point than the cached one builds a throwaway
    /// table (correct, but pays construction every call). Result
    /// bit-identical to [`FixedCurve::scalar_mul`].
    pub fn scalar_mul_comb(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        k: &Residue,
    ) -> Option<(Residue, Residue)> {
        let cached = self.comb.get_or_init(|| self.build_comb(x_mont, y_mont));
        match cached {
            Some(table) if table.x == *x_mont && table.y == *y_mont => {
                self.to_affine(&self.comb_ladder(table, k))
            }
            _ => match self.build_comb(x_mont, y_mont) {
                Some(table) => self.to_affine(&self.comb_ladder(&table, k)),
                None => self.scalar_mul(x_mont, y_mont, k),
            },
        }
    }

    /// Batched scalar multiplication: every request runs the NAF ladder
    /// (affine addends — no per-request table inversions), or the cached
    /// comb ladder when the request's point is the comb's base, and the
    /// whole batch shares **one** final batched normalization
    /// ([`MontgomeryContext::mont_inv_batch`]). Each element of the result
    /// is bit-identical to the corresponding serial
    /// [`FixedCurve::scalar_mul`] call; `None` encodes infinity.
    pub fn scalar_mul_batch(
        &self,
        requests: &[(Residue, Residue, Residue)],
    ) -> Vec<Option<(Residue, Residue)>> {
        let comb = self.comb.get().and_then(|c| c.as_ref());
        let accs: Vec<JPoint> = requests
            .iter()
            .map(|(x, y, k)| match comb {
                Some(table) if table.x == *x && table.y == *y => self.comb_ladder(table, k),
                _ => self.naf_ladder(x, y, k),
            })
            .collect();
        let mut out = vec![None; requests.len()];
        let finite: Vec<usize> = (0..accs.len()).filter(|&i| !accs[i].z.is_zero()).collect();
        if finite.is_empty() {
            return out;
        }
        let mut zs: Vec<Residue> = finite.iter().map(|&i| accs[i].z).collect();
        let mut scratch = vec![Residue::ZERO; zs.len()];
        let ok = self.ctx.mont_inv_batch(&mut zs, &mut scratch);
        debug_assert!(ok, "finite points have non-zero z");
        for (&i, z_inv) in finite.iter().zip(&zs) {
            let z_inv2 = self.sqr(z_inv);
            out[i] = Some((
                self.mul(&accs[i].x, &z_inv2),
                self.mul(&accs[i].y, &self.mul(&z_inv2, z_inv)),
            ));
        }
        out
    }
}

/// Lowers a finite affine point and a ≤256-bit scalar to fixed residues.
fn to_fixed_request(point: &AffinePoint, k: &BigUint) -> Option<(Residue, Residue, Residue)> {
    let (x, y) = point.coordinates()?;
    Some((*x.mont_repr(), *y.mont_repr(), Residue::from_biguint(k)?))
}

/// Lifts a fixed ladder result back into the typed point representation.
fn from_fixed_result(result: Option<(Residue, Residue)>) -> AffinePoint {
    match result {
        None => AffinePoint::Infinity,
        Some((x, y)) => AffinePoint::Point {
            x: FpElement::from_mont_repr(x),
            y: FpElement::from_mont_repr(y),
        },
    }
}

impl Curve {
    /// Algorithm-dispatching fixed-backend entry, used when possible: the
    /// point is finite and the scalar fits in 256 bits — `None` when either
    /// precondition fails so the caller falls back to the Curve-level
    /// ladder. Double-and-add and NAF map to their
    /// fixed ladders, and `Window4` maps to the cached fixed-base comb
    /// when `point` is the curve's base point (the repeated-base case the
    /// comb's one-time table pays for) and to the per-call
    /// batch-normalized window ladder otherwise. All paths are
    /// result-identical to the Curve-level ladders because affine coordinates of
    /// `k · point` are unique.
    pub(crate) fn fixed_scalar_mul_with(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> Option<AffinePoint> {
        let backend = self.fixed_backend();
        let (x, y, k) = to_fixed_request(point, k)?;
        Some(from_fixed_result(match algorithm {
            ScalarMulAlgorithm::DoubleAndAdd => backend.scalar_mul(&x, &y, &k),
            ScalarMulAlgorithm::Naf => backend.scalar_mul_naf(&x, &y, &k),
            ScalarMulAlgorithm::Window4 => {
                if point == self.base_point() {
                    backend.scalar_mul_comb(&x, &y, &k)
                } else {
                    backend.scalar_mul_window(&x, &y, &k, 4)
                }
            }
        }))
    }

    /// Computes `k_i · P_i` for a whole batch of requests, amortizing host
    /// wall-clock the way [`Curve::scalar_mul`] cannot: fixed-eligible
    /// requests (finite point, ≤256-bit scalar) run through
    /// [`FixedCurve::scalar_mul_batch`] — NAF/comb ladders with one shared
    /// final batch inversion — and anything else falls back to the serial
    /// path, mirroring `scalar_mul`'s own dispatch. Every element is
    /// identical to a serial `scalar_mul` call on the same request.
    pub fn scalar_mul_batch(&self, requests: &[(AffinePoint, BigUint)]) -> Vec<AffinePoint> {
        let mut out: Vec<Option<AffinePoint>> = vec![None; requests.len()];
        let mut slots = Vec::new();
        let mut fixed_requests = Vec::new();
        for (i, (point, k)) in requests.iter().enumerate() {
            if k.is_zero() || point.is_infinity() {
                out[i] = Some(AffinePoint::Infinity);
            } else if let Some(request) = to_fixed_request(point, k) {
                slots.push(i);
                fixed_requests.push(request);
            }
        }
        for (i, result) in slots
            .into_iter()
            .zip(self.fixed_backend().scalar_mul_batch(&fixed_requests))
        {
            out[i] = Some(from_fixed_result(result));
        }
        for (i, (point, k)) in requests.iter().enumerate() {
            if out[i].is_none() {
                out[i] = Some(self.scalar_mul(point, k, ScalarMulAlgorithm::DoubleAndAdd));
            }
        }
        out.into_iter()
            .map(|p| p.expect("every slot filled"))
            .collect()
    }
}
