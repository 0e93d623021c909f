//! The physics interface the finite-volume kernels are generic over.
//!
//! A [`Physics`] supplies conserved↔primitive conversions, the physical
//! flux, and characteristic speed estimates; the kernels in
//! [`crate::kernel`] turn any such system into a block update. The two
//! systems the paper's evaluation needs are [`crate::euler::Euler`] (gas
//! dynamics) and [`crate::mhd::IdealMhd`] (the solar-wind workload).

use crate::lanes::{any, for_groups, planes, planes_mut, Lanes, Mask, LANES};

/// Maximum conserved variables any supported system uses (ideal MHD: 8).
pub const MAX_VARS: usize = 8;

/// Lanes per chunk in the row-batched kernels: a sweep cuts each tile's
/// contiguous run of interfaces into chunks of at most this many lanes,
/// and the CFL scan and stage updates cut long rows the same way (a
/// chunk's floor flags fit one `u64`).
pub const ROW_CHUNK: usize = 64;

/// A hyperbolic system of conservation laws, `∂u/∂t + ∇·F(u) = S(u)`.
///
/// State slices passed in always have length `nvar()`. Implementations
/// must be cheap to clone (they are carried by value into kernels).
pub trait Physics: Clone + Send + Sync + 'static {
    /// Number of conserved variables.
    fn nvar(&self) -> usize;

    /// Physical flux along axis `dir` for conserved state `u`.
    fn flux(&self, u: &[f64], dir: usize, out: &mut [f64]);

    /// Fastest characteristic speed magnitude along `dir` (for CFL and
    /// Rusanov dissipation): `max_k |λ_k|`.
    fn max_speed(&self, u: &[f64], dir: usize) -> f64;

    /// Signal speed bounds `(λ_min, λ_max)` along `dir` (for HLL).
    /// The default derives them from [`Physics::max_speed`] symmetrically.
    fn signal_speeds(&self, u: &[f64], dir: usize) -> (f64, f64) {
        let s = self.max_speed(u, dir);
        (-s, s)
    }

    /// Conserved → primitive variables.
    fn cons_to_prim(&self, u: &[f64], w: &mut [f64]);

    /// Primitive → conserved variables.
    fn prim_to_cons(&self, w: &[f64], u: &mut [f64]);

    /// Human-readable names of the conserved variables (for output).
    fn var_names(&self) -> &'static [&'static str];

    /// Index triples of variables forming spatial vectors (momentum,
    /// magnetic field). Reflecting boundaries flip the normal component;
    /// `usize::MAX` marks an axis the system has no component along.
    fn vector_components(&self) -> &'static [[usize; 3]];

    /// True if the kernel should add the Powell 8-wave `-(∇·B)(0,B,u,u·B)`
    /// source term (ideal MHD only).
    fn powell_source(&self) -> bool {
        false
    }

    /// Indices `(bx, by, bz)` of the magnetic field components, if any.
    fn b_indices(&self) -> Option<[usize; 3]> {
        None
    }

    /// Clamp a conserved state back into the physically admissible set
    /// (density/pressure floors). Returns true if anything was clamped.
    fn apply_floors(&self, _u: &mut [f64]) -> bool {
        false
    }

    // --- Lane groups -------------------------------------------------------
    //
    // The lane forms take one group of `LANES` states per variable
    // (`u[v].0[i]` is variable `v` of lane `i`) and return the results the
    // same way. Only the first `nvar()` entries are meaningful. The
    // defaults run the scalar method once per lane — always correct.
    // Overrides must perform the *same IEEE operations in the same order*
    // as the scalar methods, lane by lane: the kernels, the golden digests
    // and the cross-backend differential suites rely on row and scalar
    // paths being bitwise identical (`crates/solver/tests/rows_vs_scalar.rs`
    // checks every override against its scalar method).

    /// Lane form of [`Physics::flux`] and [`Physics::max_speed`] along
    /// `DIR` together, sharing the per-lane subexpressions (density
    /// inverse, pressure) the two have in common.
    #[inline(always)]
    fn flux_speed_lanes<const DIR: usize>(
        &self,
        u: &[Lanes; MAX_VARS],
    ) -> ([Lanes; MAX_VARS], Lanes) {
        let n = self.nvar();
        let mut f = [Lanes::splat(0.0); MAX_VARS];
        let mut s = Lanes::splat(0.0);
        for i in 0..LANES {
            let uc = lane(u, n, i);
            let mut fc = [0.0; MAX_VARS];
            self.flux(&uc[..n], DIR, &mut fc[..n]);
            s.0[i] = self.max_speed(&uc[..n], DIR);
            for v in 0..n {
                f[v].0[i] = fc[v];
            }
        }
        (f, s)
    }

    /// Lane form of [`Physics::max_speed`] along `DIR`.
    #[inline(always)]
    fn max_speed_lanes<const DIR: usize>(&self, u: &[Lanes; MAX_VARS]) -> Lanes {
        let n = self.nvar();
        let mut s = Lanes::splat(0.0);
        for i in 0..LANES {
            s.0[i] = self.max_speed(&lane(u, n, i)[..n], DIR);
        }
        s
    }

    /// Lane form of [`Physics::cons_to_prim`].
    #[inline(always)]
    fn cons_to_prim_lanes(&self, u: &[Lanes; MAX_VARS]) -> [Lanes; MAX_VARS] {
        let n = self.nvar();
        per_lane(u, n, |uc, wc| self.cons_to_prim(uc, wc))
    }

    /// Lane form of [`Physics::prim_to_cons`].
    #[inline(always)]
    fn prim_to_cons_lanes(&self, w: &[Lanes; MAX_VARS]) -> [Lanes; MAX_VARS] {
        let n = self.nvar();
        per_lane(w, n, |wc, uc| self.prim_to_cons(wc, uc))
    }

    /// Lanes [`Physics::apply_floors`] may clamp. Unset lanes must be
    /// ones it leaves untouched; set lanes go through the scalar method,
    /// which decides. The default sets every lane.
    #[inline(always)]
    fn floor_lanes(&self, _u: &[Lanes; MAX_VARS]) -> Mask {
        [true; LANES]
    }

    // --- Rows ----------------------------------------------------------------
    //
    // Row forms over *variable-major slabs*: variable `v` of lane `k` lives
    // at `slab[v * stride + k]`, so each variable is a stride-1 run. Each
    // plane is cut to `lanes` once and walked in lane groups; nothing past
    // `lanes` is read or written. These are built on the lane forms above
    // and are not meant to be overridden.

    /// Row-batched [`Physics::flux`] and [`Physics::max_speed`] along
    /// `DIR`: `lanes` states in slab `u` (stride `su`), fluxes written to
    /// slab `f` (stride `sf`), speeds to `speed`.
    #[allow(clippy::too_many_arguments)]
    fn flux_speed_rows<const DIR: usize>(
        &self,
        u: &[f64],
        su: usize,
        f: &mut [f64],
        sf: usize,
        speed: &mut [f64],
        lanes: usize,
    ) {
        let n = self.nvar();
        let up = planes(u, su, n, lanes);
        let mut fp = planes_mut(f, sf, n, lanes);
        let speed = &mut speed[..lanes];
        for_groups!(lanes, |g| {
            let (fl, s) = self.flux_speed_lanes::<DIR>(&g.load_vars(&up, n));
            g.store_vars(&mut fp, n, &fl);
            g.store(speed, s);
        });
    }

    /// Row-batched [`Physics::max_speed`] along `DIR`: one speed per lane
    /// into `out`.
    fn max_speed_rows<const DIR: usize>(
        &self,
        u: &[f64],
        su: usize,
        out: &mut [f64],
        lanes: usize,
    ) {
        let n = self.nvar();
        let up = planes(u, su, n, lanes);
        let out = &mut out[..lanes];
        for_groups!(lanes, |g| {
            g.store(out, self.max_speed_lanes::<DIR>(&g.load_vars(&up, n)));
        });
    }

    /// Row-batched [`Physics::cons_to_prim`] with the kernel's ghost
    /// guard: lanes whose density (variable 0) is `<= 0` are left
    /// untouched in `w` (solid cells may hold zeros; their primitives are
    /// never used, but the scratch must not be clobbered with NaNs).
    fn cons_to_prim_rows(&self, u: &[f64], su: usize, w: &mut [f64], sw: usize, lanes: usize) {
        let n = self.nvar();
        let up = planes(u, su, n, lanes);
        let mut wp = planes_mut(w, sw, n, lanes);
        for_groups!(lanes, |g| {
            let uv = g.load_vars(&up, n);
            let wv = self.cons_to_prim_lanes(&uv);
            let skip = uv[0].le(Lanes::splat(0.0));
            if any(skip) {
                for v in 0..n {
                    let old = g.load(wp[v]);
                    g.store(wp[v], Lanes::select(skip, old, wv[v]));
                }
            } else {
                g.store_vars(&mut wp, n, &wv);
            }
        });
    }

    /// Row-batched [`Physics::prim_to_cons`].
    fn prim_to_cons_rows(&self, w: &[f64], sw: usize, u: &mut [f64], su: usize, lanes: usize) {
        let n = self.nvar();
        let wp = planes(w, sw, n, lanes);
        let mut up = planes_mut(u, su, n, lanes);
        for_groups!(lanes, |g| {
            g.store_vars(&mut up, n, &self.prim_to_cons_lanes(&g.load_vars(&wp, n)));
        });
    }
}

/// Lane `i` of a lane-group state, as a scalar state vector.
#[inline(always)]
fn lane(u: &[Lanes; MAX_VARS], n: usize, i: usize) -> [f64; MAX_VARS] {
    let mut c = [0.0; MAX_VARS];
    for v in 0..n {
        c[v] = u[v].0[i];
    }
    c
}

/// Apply a scalar state map to every lane of a group.
#[inline(always)]
fn per_lane(
    x: &[Lanes; MAX_VARS],
    n: usize,
    f: impl Fn(&[f64], &mut [f64]),
) -> [Lanes; MAX_VARS] {
    let mut y = [Lanes::splat(0.0); MAX_VARS];
    for i in 0..LANES {
        let xc = lane(x, n, i);
        let mut yc = [0.0; MAX_VARS];
        f(&xc[..n], &mut yc[..n]);
        for v in 0..n {
            y[v].0[i] = yc[v];
        }
    }
    y
}

/// Velocity vector from momentum and density (helper for implementations).
#[inline]
pub fn velocity3(rho: f64, m: &[f64]) -> [f64; 3] {
    let inv = 1.0 / rho;
    [m[0] * inv, m.get(1).copied().unwrap_or(0.0) * inv, m.get(2).copied().unwrap_or(0.0) * inv]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Scalar;
    impl Physics for Scalar {
        fn nvar(&self) -> usize {
            1
        }
        fn flux(&self, u: &[f64], _dir: usize, out: &mut [f64]) {
            out[0] = u[0];
        }
        fn max_speed(&self, _u: &[f64], _dir: usize) -> f64 {
            1.0
        }
        fn cons_to_prim(&self, u: &[f64], w: &mut [f64]) {
            w[0] = u[0];
        }
        fn prim_to_cons(&self, w: &[f64], u: &mut [f64]) {
            u[0] = w[0];
        }
        fn var_names(&self) -> &'static [&'static str] {
            &["q"]
        }
        fn vector_components(&self) -> &'static [[usize; 3]] {
            &[]
        }
    }

    #[test]
    fn default_signal_speeds_symmetric() {
        let s = Scalar;
        assert_eq!(s.signal_speeds(&[1.0], 0), (-1.0, 1.0));
        assert!(!s.powell_source());
        assert!(s.b_indices().is_none());
        assert!(!s.apply_floors(&mut [1.0]));
    }

    #[test]
    fn velocity_helper() {
        let v = velocity3(2.0, &[4.0, 6.0, 8.0]);
        assert_eq!(v, [2.0, 3.0, 4.0]);
        let v1 = velocity3(2.0, &[4.0]);
        assert_eq!(v1, [2.0, 0.0, 0.0]);
    }
}
