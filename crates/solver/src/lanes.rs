//! Explicit-lane arithmetic for the row-batched kernels.
//!
//! A [`Lanes`] value is a fixed group of [`LANES`] `f64`s. Every operator
//! acts elementwise, so LLVM lowers a chain of them to packed SIMD
//! instructions on any x86-64 target (two SSE2 registers per group, one
//! AVX register) without `unsafe` intrinsics. Each lane performs exactly
//! the IEEE operation the scalar code performs, in the same order; Rust
//! never contracts `a * b + c` into a fused multiply-add, so lane results
//! are bitwise identical to the scalar reference methods.
//!
//! Rows are walked in groups by `for_groups!`: full groups load with one
//! fixed-size slice, and the tail group (fewer than [`LANES`] elements
//! left) loads only the lanes that exist and pads the rest, so no row
//! method ever reads or writes past `lanes` of its inputs.

use std::ops::{Add, Div, Mul, Sub};

use crate::physics::MAX_VARS;

/// Lanes per group.
pub const LANES: usize = 4;

/// Value given to the lanes of a tail group that lie past the row end.
/// Their results are never stored; a benign value keeps them out of
/// subnormal and NaN slow paths.
const PAD: f64 = 1.0;

/// A group of [`LANES`] `f64`s with elementwise arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct Lanes(pub [f64; LANES]);

/// Per-lane booleans from a [`Lanes`] comparison.
pub type Mask = [bool; LANES];

impl Lanes {
    /// Every lane set to `x`.
    #[inline(always)]
    pub fn splat(x: f64) -> Self {
        Lanes([x; LANES])
    }

    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let mut r = self.0;
        for x in &mut r {
            *x = f(*x);
        }
        Lanes(r)
    }

    #[inline(always)]
    fn zip(self, o: Lanes, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut r = self.0;
        for i in 0..LANES {
            r[i] = f(r[i], o.0[i]);
        }
        Lanes(r)
    }

    #[inline(always)]
    fn cmp(self, o: Lanes, f: impl Fn(f64, f64) -> bool) -> Mask {
        let mut m = [false; LANES];
        for i in 0..LANES {
            m[i] = f(self.0[i], o.0[i]);
        }
        m
    }

    /// Elementwise [`f64::sqrt`].
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }

    /// Elementwise [`f64::abs`].
    #[inline(always)]
    pub fn abs(self) -> Self {
        self.map(f64::abs)
    }

    /// Elementwise [`f64::signum`].
    #[inline(always)]
    pub fn signum(self) -> Self {
        self.map(f64::signum)
    }

    /// Elementwise [`f64::max`].
    #[inline(always)]
    pub fn max(self, o: Lanes) -> Self {
        self.zip(o, f64::max)
    }

    /// Elementwise [`f64::min`].
    #[inline(always)]
    pub fn min(self, o: Lanes) -> Self {
        self.zip(o, f64::min)
    }

    /// Lanes where `self < o`.
    #[inline(always)]
    pub fn lt(self, o: Lanes) -> Mask {
        self.cmp(o, |a, b| a < b)
    }

    /// Lanes where `self <= o`.
    #[inline(always)]
    pub fn le(self, o: Lanes) -> Mask {
        self.cmp(o, |a, b| a <= b)
    }

    /// Lanes equal to zero (either sign).
    #[inline(always)]
    pub fn is_zero(self) -> Mask {
        self.cmp(self, |a, _| a == 0.0)
    }

    /// Per lane, `a` where `m` is set and `b` elsewhere.
    #[inline(always)]
    pub fn select(m: Mask, a: Lanes, b: Lanes) -> Self {
        let mut r = b.0;
        for i in 0..LANES {
            if m[i] {
                r[i] = a.0[i];
            }
        }
        Lanes(r)
    }
}

macro_rules! lane_op {
    ($tr:ident, $f:ident, $op:tt) => {
        impl $tr for Lanes {
            type Output = Lanes;
            #[inline(always)]
            fn $f(self, o: Lanes) -> Lanes {
                self.zip(o, |a, b| a $op b)
            }
        }
        impl $tr<f64> for Lanes {
            type Output = Lanes;
            #[inline(always)]
            fn $f(self, o: f64) -> Lanes {
                self.map(|a| a $op o)
            }
        }
        impl $tr<Lanes> for f64 {
            type Output = Lanes;
            #[inline(always)]
            fn $f(self, o: Lanes) -> Lanes {
                o.map(|b| self $op b)
            }
        }
    };
}

lane_op!(Add, add, +);
lane_op!(Sub, sub, -);
lane_op!(Mul, mul, *);
lane_op!(Div, div, /);

/// True if any lane of the mask is set.
#[inline(always)]
pub fn any(m: Mask) -> bool {
    m.iter().any(|&b| b)
}

/// Elementwise `a || b`.
#[inline(always)]
pub fn or(a: Mask, b: Mask) -> Mask {
    let mut m = a;
    for i in 0..LANES {
        m[i] |= b[i];
    }
    m
}

/// One lane group of a row: `n` lanes starting at lane `k` (`n` is
/// [`LANES`] except for the tail group).
#[derive(Clone, Copy, Debug)]
pub struct Group {
    /// First lane of the group.
    pub k: usize,
    /// Lanes that exist (`1..=LANES`).
    pub n: usize,
}

impl Group {
    /// Load lanes `k..k + n` of `s`, padding a tail group.
    #[inline(always)]
    pub fn load(self, s: &[f64]) -> Lanes {
        if self.n == LANES {
            Lanes(s[self.k..self.k + LANES].try_into().unwrap())
        } else {
            let mut a = [PAD; LANES];
            for (i, x) in a.iter_mut().enumerate().take(self.n) {
                *x = s[self.k + i];
            }
            Lanes(a)
        }
    }

    /// Store the group's existing lanes into `s[k..k + n]`.
    #[inline(always)]
    pub fn store(self, s: &mut [f64], x: Lanes) {
        if self.n == LANES {
            s[self.k..self.k + LANES].copy_from_slice(&x.0);
        } else {
            for i in 0..self.n {
                s[self.k + i] = x.0[i];
            }
        }
    }

    /// Load the first `n` variable planes of `p`.
    #[inline(always)]
    pub fn load_vars(self, p: &[&[f64]; MAX_VARS], n: usize) -> [Lanes; MAX_VARS] {
        let mut u = [Lanes::splat(PAD); MAX_VARS];
        for v in 0..n {
            u[v] = self.load(p[v]);
        }
        u
    }

    /// Store the first `n` variables into the planes of `p`.
    #[inline(always)]
    pub fn store_vars(self, p: &mut [&mut [f64]; MAX_VARS], n: usize, x: &[Lanes; MAX_VARS]) {
        for v in 0..n {
            self.store(p[v], x[v]);
        }
    }
}

/// Run a block once per lane group of a row of `lanes` lanes, in order,
/// with the [`Group`] bound to the given name: the full groups first, then
/// the tail group if `lanes` is not a multiple of [`LANES`].
///
/// A macro rather than a function taking a closure: the block is expanded
/// twice, and in the full-group copy `n == LANES` is a constant, so its
/// loads and stores compile to straight packed moves with no tail branch,
/// and the physics' constants (`nvar()`) stay visible. The block must not
/// `return` or `break`.
///
/// ```ignore
/// for_groups!(lanes, |g| {
///     g.store(out, g.load(a) * 2.0);
/// });
/// ```
macro_rules! for_groups {
    ($lanes:expr, |$g:ident| $body:block) => {{
        let lanes: usize = $lanes;
        let mut k = 0;
        while k + $crate::lanes::LANES <= lanes {
            let $g = $crate::lanes::Group { k, n: $crate::lanes::LANES };
            $body
            k += $crate::lanes::LANES;
        }
        if k < lanes {
            let $g = $crate::lanes::Group { k, n: lanes - k };
            $body
        }
    }};
}
pub(crate) use for_groups;

/// The first `n` variable planes of a variable-major slab or field row
/// (variable `v` starts at `v * stride`), each cut to `lanes` so the row
/// loops carry one bounds check per plane instead of one per element.
/// Planes past `n` are empty.
#[inline(always)]
pub fn planes(s: &[f64], stride: usize, n: usize, lanes: usize) -> [&[f64]; MAX_VARS] {
    let mut p: [&[f64]; MAX_VARS] = [&[]; MAX_VARS];
    for v in 0..n {
        p[v] = &s[v * stride..v * stride + lanes];
    }
    p
}

/// Mutable form of [`planes`].
#[inline(always)]
pub fn planes_mut(s: &mut [f64], stride: usize, n: usize, lanes: usize) -> [&mut [f64]; MAX_VARS] {
    let mut p: [&mut [f64]; MAX_VARS] = Default::default();
    let mut rest = s;
    for (v, slot) in p.iter_mut().enumerate().take(n) {
        let cur = std::mem::take(&mut rest);
        if v + 1 < n {
            let (a, b) = cur.split_at_mut(stride);
            *slot = &mut a[..lanes];
            rest = b;
        } else {
            *slot = &mut cur[..lanes];
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_cover_every_lane_once() {
        for lanes in 0..=11 {
            let mut seen = vec![0; lanes];
            for_groups!(lanes, |g| {
                assert!(g.n >= 1 && g.n <= LANES);
                for i in 0..g.n {
                    seen[g.k + i] += 1;
                }
            });
            assert!(seen.iter().all(|&c| c == 1), "lanes {lanes}");
        }
    }

    #[test]
    fn tail_groups_stay_in_bounds() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = [0.0; 6];
        for_groups!(6, |g| {
            let x = g.load(&s);
            g.store(&mut out, x * 2.0);
        });
        assert_eq!(out, [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn ops_match_scalar_bitwise() {
        let a = Lanes([0.0, -0.0, 1.5, f64::NAN]);
        let b = Lanes([-0.0, 0.0, -2.25, 3.0]);
        let r = (a + b) * 0.5 - a / b;
        for i in 0..LANES {
            let s = (a.0[i] + b.0[i]) * 0.5 - a.0[i] / b.0[i];
            assert_eq!(r.0[i].to_bits(), s.to_bits());
        }
        let m = a.lt(b);
        assert_eq!(m, [false, false, false, false]);
        assert_eq!(
            Lanes::select([true, false, true, false], a, b).0[1].to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn planes_split_disjoint() {
        let mut s: Vec<f64> = (0..20).map(|x| x as f64).collect();
        {
            let p = planes_mut(&mut s, 7, 3, 5);
            assert_eq!(p[2][0], 14.0);
            assert_eq!(p[2].len(), 5);
            assert!(p[3].is_empty());
        }
        let p = planes(&s, 7, 2, 4);
        assert_eq!(p[1], &[7.0, 8.0, 9.0, 10.0][..]);
    }
}
