//! Interface reconstruction: first-order (Godunov) and second-order MUSCL
//! with slope limiters.
//!
//! The paper's ghost-cell discussion distinguishes first-order operators
//! (one ghost layer) from "so-called higher-resolution methods" (van Leer
//! ref. \[6\]; more layers). MUSCL reconstruction here needs two ghost
//! layers, matching the default `nghost = 2` of the grids.
//!
//! Reconstruction runs in primitive variables (robust near shocks) and
//! returns the left/right interface states; limiters are the classics:
//! minmod, monotonized central (MC), and van Leer's harmonic limiter.

use crate::lanes::{for_groups, Lanes};

/// Slope limiter for MUSCL reconstruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Limiter {
    /// Most dissipative; TVD.
    Minmod,
    /// Monotonized central-difference (van Leer 1977); sharper.
    MonotonizedCentral,
    /// Van Leer's harmonic-mean limiter.
    VanLeer,
}

/// Reconstruction scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Recon {
    /// Piecewise-constant: `uL = u_i`, `uR = u_{i+1}` (first order).
    FirstOrder,
    /// Piecewise-linear MUSCL with the given limiter (second order).
    Muscl(Limiter),
}

impl Recon {
    /// Ghost layers the scheme needs.
    pub fn required_ghosts(&self) -> i64 {
        match self {
            Recon::FirstOrder => 1,
            Recon::Muscl(_) => 2,
        }
    }
}

/// Limited slope for cell `i` given backward difference `db = u_i − u_{i−1}`
/// and forward difference `df = u_{i+1} − u_i` (undivided).
#[inline]
pub fn limited_slope(limiter: Limiter, db: f64, df: f64) -> f64 {
    match limiter {
        Limiter::Minmod => {
            if db * df <= 0.0 {
                0.0
            } else if db.abs() < df.abs() {
                db
            } else {
                df
            }
        }
        Limiter::MonotonizedCentral => {
            if db * df <= 0.0 {
                0.0
            } else {
                let c = 0.5 * (db + df);
                let lim = 2.0 * db.abs().min(df.abs());
                c.signum() * c.abs().min(lim)
            }
        }
        Limiter::VanLeer => {
            if db * df <= 0.0 {
                0.0
            } else {
                2.0 * db * df / (db + df)
            }
        }
    }
}

/// Limited slopes of one row: `out[j]` is the slope of cell `j` from its
/// backward neighbour `pm[j]`, itself `pc[j]` and its forward neighbour
/// `pp[j]` (all slices as long as `out`). Bitwise identical to
/// [`limited_slope`]`(limiter, pc[j] - pm[j], pp[j] - pc[j])` per cell; the
/// limiter is chosen once per row and each branch becomes a lane select.
pub fn limited_slope_row(limiter: Limiter, pm: &[f64], pc: &[f64], pp: &[f64], out: &mut [f64]) {
    match limiter {
        Limiter::Minmod => slope_row_with(pm, pc, pp, out, |db, df| {
            Lanes::select(db.abs().lt(df.abs()), db, df)
        }),
        Limiter::MonotonizedCentral => slope_row_with(pm, pc, pp, out, |db, df| {
            let c = 0.5 * (db + df);
            let lim = 2.0 * db.abs().min(df.abs());
            c.signum() * c.abs().min(lim)
        }),
        Limiter::VanLeer => slope_row_with(pm, pc, pp, out, |db, df| 2.0 * db * df / (db + df)),
    }
}

/// [`limited_slope_row`] for one limiter: `sloped(db, df)` is the
/// limiter's branch for differences of equal sign; lanes where
/// `db * df <= 0` get `0.0`.
#[inline(always)]
fn slope_row_with(
    pm: &[f64],
    pc: &[f64],
    pp: &[f64],
    out: &mut [f64],
    sloped: impl Fn(Lanes, Lanes) -> Lanes,
) {
    let len = out.len();
    let (pm, pc, pp) = (&pm[..len], &pc[..len], &pp[..len]);
    let zero = Lanes::splat(0.0);
    for_groups!(len, |g| {
        let c = g.load(pc);
        let db = c - g.load(pm);
        let df = g.load(pp) - c;
        g.store(out, Lanes::select((db * df).le(zero), zero, sloped(db, df)));
    });
}

/// Reconstruct the two states at the `i−1/2` interface from the four-cell
/// stencil `[u_{i−2}, u_{i−1}, u_i, u_{i+1}]`, one variable at a time:
/// `uL` extrapolated from cell `i−1`, `uR` from cell `i`. For
/// [`Recon::FirstOrder`] the outer cells are ignored.
#[inline]
pub fn reconstruct_interface(
    recon: Recon,
    umm: f64,
    um: f64,
    up: f64,
    upp: f64,
) -> (f64, f64) {
    match recon {
        Recon::FirstOrder => (um, up),
        Recon::Muscl(lim) => {
            let sl = limited_slope(lim, um - umm, up - um);
            let sr = limited_slope(lim, up - um, upp - up);
            (um + 0.5 * sl, up - 0.5 * sr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limiters_vanish_at_extrema() {
        for lim in [Limiter::Minmod, Limiter::MonotonizedCentral, Limiter::VanLeer] {
            assert_eq!(limited_slope(lim, 1.0, -1.0), 0.0);
            assert_eq!(limited_slope(lim, -2.0, 0.5), 0.0);
            assert_eq!(limited_slope(lim, 0.0, 3.0), 0.0);
        }
    }

    #[test]
    fn limiters_exact_on_linear_data() {
        for lim in [Limiter::Minmod, Limiter::MonotonizedCentral, Limiter::VanLeer] {
            let s = limited_slope(lim, 0.7, 0.7);
            assert!((s - 0.7).abs() < 1e-14, "{lim:?}");
        }
    }

    #[test]
    fn limiter_ordering_dissipation() {
        // minmod <= MC on a smooth monotone profile
        let db = 1.0;
        let df = 2.0;
        let mm = limited_slope(Limiter::Minmod, db, df);
        let mc = limited_slope(Limiter::MonotonizedCentral, db, df);
        let vl = limited_slope(Limiter::VanLeer, db, df);
        assert_eq!(mm, 1.0);
        assert_eq!(mc, 1.5); // central 1.5, cap 2*min = 2
        assert!((vl - 4.0 / 3.0).abs() < 1e-14);
        assert!(mm <= vl && vl <= mc);
    }

    #[test]
    fn mc_caps_at_twice_min_difference() {
        let s = limited_slope(Limiter::MonotonizedCentral, 0.1, 10.0);
        assert!((s - 0.2).abs() < 1e-14);
    }

    #[test]
    fn first_order_ignores_outer_cells() {
        let (l, r) = reconstruct_interface(Recon::FirstOrder, 99.0, 1.0, 2.0, -99.0);
        assert_eq!((l, r), (1.0, 2.0));
        assert_eq!(Recon::FirstOrder.required_ghosts(), 1);
    }

    #[test]
    fn muscl_reproduces_linear_interface_value() {
        // data u_i = 3i: interface at i-1/2 between cells 1 and 2 is 4.5
        let vals = [0.0, 3.0, 6.0, 9.0];
        for lim in [Limiter::Minmod, Limiter::MonotonizedCentral, Limiter::VanLeer] {
            let (l, r) =
                reconstruct_interface(Recon::Muscl(lim), vals[0], vals[1], vals[2], vals[3]);
            assert!((l - 4.5).abs() < 1e-14);
            assert!((r - 4.5).abs() < 1e-14);
            assert_eq!(Recon::Muscl(lim).required_ghosts(), 2);
        }
    }

    #[test]
    fn muscl_stays_monotone_at_jump() {
        // step data: reconstruction must not overshoot [0, 1]
        for lim in [Limiter::Minmod, Limiter::MonotonizedCentral, Limiter::VanLeer] {
            let (l, r) = reconstruct_interface(Recon::Muscl(lim), 0.0, 0.0, 1.0, 1.0);
            assert!((0.0..=1.0).contains(&l), "{lim:?} uL {l}");
            assert!((0.0..=1.0).contains(&r), "{lim:?} uR {r}");
        }
    }
}
