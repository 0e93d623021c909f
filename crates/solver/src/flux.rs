//! Approximate Riemann solvers.
//!
//! Two classics with very different dissipation/robustness trade-offs:
//!
//! * **Rusanov** (local Lax–Friedrichs) — maximally simple and robust; the
//!   default for the MHD runs (BATS-R-US shipped exactly this option for
//!   hard solar-wind states);
//! * **HLL** — two-wave solver; noticeably sharper on contacts moving with
//!   the flow, still positivity-friendly.
//!
//! Both operate on *conserved* interface states produced by the
//! reconstruction layer.

use crate::lanes::{for_groups, planes, planes_mut, Group, Lanes};
use crate::physics::{Physics, MAX_VARS};

/// Which approximate Riemann solver the kernel uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Riemann {
    /// Local Lax–Friedrichs.
    Rusanov,
    /// Harten–Lax–van Leer two-wave solver.
    Hll,
}

/// Numerical interface flux along `dir` from conserved left/right states.
pub fn numerical_flux<P: Physics>(
    phys: &P,
    riemann: Riemann,
    ul: &[f64],
    ur: &[f64],
    dir: usize,
    out: &mut [f64],
) {
    let n = phys.nvar();
    let mut fl = [0.0; MAX_VARS];
    let mut fr = [0.0; MAX_VARS];
    phys.flux(ul, dir, &mut fl[..n]);
    phys.flux(ur, dir, &mut fr[..n]);
    match riemann {
        Riemann::Rusanov => {
            let s = phys.max_speed(ul, dir).max(phys.max_speed(ur, dir));
            for v in 0..n {
                out[v] = 0.5 * (fl[v] + fr[v]) - 0.5 * s * (ur[v] - ul[v]);
            }
        }
        Riemann::Hll => {
            let (ll, lh) = phys.signal_speeds(ul, dir);
            let (rl, rh) = phys.signal_speeds(ur, dir);
            let sl = ll.min(rl).min(0.0);
            let sr = lh.max(rh).max(0.0);
            if sl >= 0.0 {
                out[..n].copy_from_slice(&fl[..n]);
            } else if sr <= 0.0 {
                out[..n].copy_from_slice(&fr[..n]);
            } else {
                let inv = 1.0 / (sr - sl);
                for v in 0..n {
                    out[v] = (sr * fl[v] - sl * fr[v] + sl * sr * (ur[v] - ul[v])) * inv;
                }
            }
        }
    }
}

/// The reconstructed states on one side of a run of interfaces, read in
/// place from variable-major planes of stride `stride` (variable `v` of
/// lane `k` at `[v * stride + k]`): the primitive state `prim`, moved half
/// a limited slope towards the interface when `slope` is given — `w = p +
/// ½s` on the left side, `w = p − ½s` on the right — and taken as is
/// (first order) otherwise.
#[derive(Clone, Copy, Debug)]
pub struct Side<'a> {
    /// Primitive planes of the cells on this side.
    pub prim: &'a [f64],
    /// Limited-slope planes of the same cells (MUSCL), or `None`.
    pub slope: Option<&'a [f64]>,
    /// Plane stride of `prim` and `slope`.
    pub stride: usize,
}

impl Side<'_> {
    /// The scalar primitive state of lane `k` (`left` adds the half slope,
    /// otherwise it is subtracted): the same operations as the lane form.
    pub(crate) fn state(&self, k: usize, n: usize, left: bool, w: &mut [f64]) {
        for (v, x) in w[..n].iter_mut().enumerate() {
            let p = self.prim[v * self.stride + k];
            *x = match self.slope {
                None => p,
                Some(s) if left => p + 0.5 * s[v * self.stride + k],
                Some(s) => p - 0.5 * s[v * self.stride + k],
            };
        }
    }
}

/// Row-batched interface fluxes over `lanes` interfaces along `DIR`, from
/// the reconstructed primitive states of the [`Side`]s left and right of
/// each interface; the fluxes go to `out` with plane stride `so` (variable
/// `v` of lane `k` at `[v * so + k]`). Rusanov runs fused in lane groups —
/// reconstruction, conversion to conserved states, both physical fluxes
/// and speeds, and the dissipation term without a round trip through
/// memory; HLL runs each lane through the scalar path (its three-way
/// upwind branch does not batch). Both are bitwise identical to
/// [`Physics::prim_to_cons`] and [`numerical_flux`] called once per lane
/// on the reconstructed states.
pub fn numerical_flux_rows<P: Physics, const DIR: usize>(
    phys: &P,
    riemann: Riemann,
    left: Side,
    right: Side,
    out: &mut [f64],
    so: usize,
    lanes: usize,
) {
    let n = phys.nvar();
    match riemann {
        Riemann::Rusanov => {
            let pl = planes(left.prim, left.stride, n, lanes);
            let pr = planes(right.prim, right.stride, n, lanes);
            let sl = left.slope.map(|s| planes(s, left.stride, n, lanes));
            let sr = right.slope.map(|s| planes(s, right.stride, n, lanes));
            let fp = planes_mut(out, so, n, lanes);
            for_groups!(lanes, |g| {
                let a = phys.prim_to_cons_lanes(&side_lanes(g, &pl, &sl, true, n));
                let b = phys.prim_to_cons_lanes(&side_lanes(g, &pr, &sr, false, n));
                let (fl, spl) = phys.flux_speed_lanes::<DIR>(&a);
                let (fr, spr) = phys.flux_speed_lanes::<DIR>(&b);
                let s = spl.max(spr);
                for v in 0..n {
                    g.store(fp[v], 0.5 * (fl[v] + fr[v]) - 0.5 * s * (b[v] - a[v]));
                }
            });
        }
        Riemann::Hll => {
            let mut w = [0.0; MAX_VARS];
            let (mut a, mut b, mut f) = ([0.0; MAX_VARS], [0.0; MAX_VARS], [0.0; MAX_VARS]);
            for k in 0..lanes {
                left.state(k, n, true, &mut w);
                phys.prim_to_cons(&w[..n], &mut a[..n]);
                right.state(k, n, false, &mut w);
                phys.prim_to_cons(&w[..n], &mut b[..n]);
                numerical_flux(phys, riemann, &a[..n], &b[..n], DIR, &mut f[..n]);
                for v in 0..n {
                    out[v * so + k] = f[v];
                }
            }
        }
    }
}

/// One lane group of a side's reconstructed primitive states.
#[inline(always)]
fn side_lanes(
    g: Group,
    prim: &[&[f64]; MAX_VARS],
    slope: &Option<[&[f64]; MAX_VARS]>,
    left: bool,
    n: usize,
) -> [Lanes; MAX_VARS] {
    let mut w = g.load_vars(prim, n);
    if let Some(s) = slope {
        for v in 0..n {
            let d = 0.5 * g.load(s[v]);
            w[v] = if left { w[v] + d } else { w[v] - d };
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Euler;

    fn cons(e: &Euler<1>, rho: f64, v: f64, p: f64) -> [f64; 3] {
        let mut u = [0.0; 3];
        e.prim_to_cons(&[rho, v, p], &mut u);
        u
    }

    #[test]
    fn consistency_equal_states() {
        // F(u, u) = F(u) for any consistent numerical flux.
        let e = Euler::<1>::new(1.4);
        let u = cons(&e, 1.3, 0.4, 0.9);
        let mut exact = [0.0; 3];
        e.flux(&u, 0, &mut exact);
        for r in [Riemann::Rusanov, Riemann::Hll] {
            let mut f = [0.0; 3];
            numerical_flux(&e, r, &u, &u, 0, &mut f);
            for v in 0..3 {
                assert!((f[v] - exact[v]).abs() < 1e-13, "{r:?} var {v}");
            }
        }
    }

    #[test]
    fn rusanov_adds_dissipation_proportional_to_jump() {
        let e = Euler::<1>::new(1.4);
        let ul = cons(&e, 1.0, 0.0, 1.0);
        let ur = cons(&e, 0.5, 0.0, 1.0);
        let mut f = [0.0; 3];
        numerical_flux(&e, Riemann::Rusanov, &ul, &ur, 0, &mut f);
        // central average of mass flux is 0; dissipation pushes mass
        // rightward (toward low density): f_rho = -0.5 s (rho_r - rho_l) > 0
        assert!(f[0] > 0.0);
    }

    #[test]
    fn hll_upwinds_supersonic_flow() {
        // Supersonic rightward flow: HLL must return the pure left flux.
        let e = Euler::<1>::new(1.4);
        let ul = cons(&e, 1.0, 5.0, 1.0);
        let ur = cons(&e, 0.3, 5.0, 0.4);
        let mut f = [0.0; 3];
        numerical_flux(&e, Riemann::Hll, &ul, &ur, 0, &mut f);
        let mut exact = [0.0; 3];
        e.flux(&ul, 0, &mut exact);
        for v in 0..3 {
            assert!((f[v] - exact[v]).abs() < 1e-13);
        }
        // and the mirrored case
        let ul2 = cons(&e, 0.3, -5.0, 0.4);
        let ur2 = cons(&e, 1.0, -5.0, 1.0);
        numerical_flux(&e, Riemann::Hll, &ul2, &ur2, 0, &mut f);
        e.flux(&ur2, 0, &mut exact);
        for v in 0..3 {
            assert!((f[v] - exact[v]).abs() < 1e-13);
        }
    }

    #[test]
    fn hll_less_dissipative_than_rusanov_on_contact() {
        // pure contact: velocity/pressure equal, density jump
        let e = Euler::<1>::new(1.4);
        let ul = cons(&e, 1.0, 0.1, 1.0);
        let ur = cons(&e, 0.125, 0.1, 1.0);
        let mut fr_ = [0.0; 3];
        let mut fh = [0.0; 3];
        numerical_flux(&e, Riemann::Rusanov, &ul, &ur, 0, &mut fr_);
        numerical_flux(&e, Riemann::Hll, &ul, &ur, 0, &mut fh);
        // exact contact mass flux = rho*u upwinded; compare deviation from
        // the upwind (left) physical flux
        let mut exact = [0.0; 3];
        e.flux(&ul, 0, &mut exact);
        let dev_r = (fr_[0] - exact[0]).abs();
        let dev_h = (fh[0] - exact[0]).abs();
        assert!(dev_h < dev_r, "HLL {dev_h} should beat Rusanov {dev_r}");
    }

    #[test]
    fn mhd_flux_consistency() {
        use crate::mhd::IdealMhd;
        let m = IdealMhd::new(5.0 / 3.0);
        let w = [1.0, 0.2, -0.1, 0.3, 0.8, -0.6, 0.2, 0.95];
        let mut u = [0.0; 8];
        m.prim_to_cons(&w, &mut u);
        let mut exact = [0.0; 8];
        let mut f = [0.0; 8];
        for dir in 0..3 {
            m.flux(&u, dir, &mut exact);
            for r in [Riemann::Rusanov, Riemann::Hll] {
                numerical_flux(&m, r, &u, &u, dir, &mut f);
                for v in 0..8 {
                    assert!((f[v] - exact[v]).abs() < 1e-12, "{r:?} dir {dir} var {v}");
                }
            }
        }
    }
}
