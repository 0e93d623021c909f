//! Compressible Euler equations (ideal gas).
//!
//! Conserved variables: `[ρ, ρu_0 … ρu_{D-1}, E]` (`nvar = D + 2`);
//! primitives: `[ρ, u_0 … u_{D-1}, p]`. The equation of state is a
//! γ-law: `p = (γ-1)(E − ½ρ|u|²)`.

use crate::lanes::{or, Lanes, Mask};
use crate::physics::{Physics, MAX_VARS};

// Lane forms below mirror the scalar methods operation for operation —
// the kernels require the batched and scalar paths to agree bitwise.

/// Euler gas dynamics in `D` dimensions.
#[derive(Clone, Debug)]
pub struct Euler<const D: usize> {
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Density floor applied by [`Physics::apply_floors`].
    pub rho_floor: f64,
    /// Pressure floor applied by [`Physics::apply_floors`].
    pub p_floor: f64,
}

impl<const D: usize> Euler<D> {
    /// Standard diatomic gas (γ = 1.4) with tiny positivity floors.
    pub fn new(gamma: f64) -> Self {
        Euler { gamma, rho_floor: 1e-12, p_floor: 1e-12 }
    }

    /// Pressure from a conserved state.
    #[inline]
    pub fn pressure(&self, u: &[f64]) -> f64 {
        let rho = u[0];
        let mut ke = 0.0;
        for d in 0..D {
            ke += u[1 + d] * u[1 + d];
        }
        ke *= 0.5 / rho;
        (self.gamma - 1.0) * (u[1 + D] - ke)
    }

    /// Adiabatic sound speed from a conserved state.
    #[inline]
    pub fn sound_speed(&self, u: &[f64]) -> f64 {
        (self.gamma * self.pressure(u).max(0.0) / u[0]).sqrt()
    }

    /// Lane form of [`Euler::pressure`].
    #[inline(always)]
    fn pressure_lanes(&self, u: &[Lanes; MAX_VARS]) -> Lanes {
        let mut ke = Lanes::splat(0.0);
        for d in 0..D {
            ke = ke + u[1 + d] * u[1 + d];
        }
        ke = ke * (0.5 / u[0]);
        (self.gamma - 1.0) * (u[1 + D] - ke)
    }

    /// Index of the energy variable.
    #[inline]
    pub const fn ie() -> usize {
        1 + D
    }
}

impl<const D: usize> Physics for Euler<D> {
    fn nvar(&self) -> usize {
        D + 2
    }

    fn flux(&self, u: &[f64], dir: usize, out: &mut [f64]) {
        let rho = u[0];
        let vd = u[1 + dir] / rho;
        let p = self.pressure(u);
        out[0] = u[1 + dir];
        for d in 0..D {
            out[1 + d] = u[1 + d] * vd;
        }
        out[1 + dir] += p;
        out[1 + D] = (u[1 + D] + p) * vd;
    }

    fn max_speed(&self, u: &[f64], dir: usize) -> f64 {
        let vd = (u[1 + dir] / u[0]).abs();
        vd + self.sound_speed(u)
    }

    fn signal_speeds(&self, u: &[f64], dir: usize) -> (f64, f64) {
        let vd = u[1 + dir] / u[0];
        let a = self.sound_speed(u);
        (vd - a, vd + a)
    }

    fn cons_to_prim(&self, u: &[f64], w: &mut [f64]) {
        w[0] = u[0];
        for d in 0..D {
            w[1 + d] = u[1 + d] / u[0];
        }
        w[1 + D] = self.pressure(u);
    }

    fn prim_to_cons(&self, w: &[f64], u: &mut [f64]) {
        u[0] = w[0];
        let mut ke = 0.0;
        for d in 0..D {
            u[1 + d] = w[0] * w[1 + d];
            ke += w[1 + d] * w[1 + d];
        }
        u[1 + D] = w[1 + D] / (self.gamma - 1.0) + 0.5 * w[0] * ke;
    }

    fn var_names(&self) -> &'static [&'static str] {
        match D {
            1 => &["rho", "mx", "E"],
            2 => &["rho", "mx", "my", "E"],
            _ => &["rho", "mx", "my", "mz", "E"],
        }
    }

    fn vector_components(&self) -> &'static [[usize; 3]] {
        match D {
            1 => &[[1, usize::MAX, usize::MAX]],
            2 => &[[1, 2, usize::MAX]],
            _ => &[[1, 2, 3]],
        }
    }

    #[inline(always)]
    fn flux_speed_lanes<const DIR: usize>(
        &self,
        u: &[Lanes; MAX_VARS],
    ) -> ([Lanes; MAX_VARS], Lanes) {
        let rho = u[0];
        let vd = u[1 + DIR] / rho;
        let p = self.pressure_lanes(u);
        let mut f = [Lanes::splat(0.0); MAX_VARS];
        f[0] = u[1 + DIR];
        for d in 0..D {
            f[1 + d] = u[1 + d] * vd;
        }
        f[1 + DIR] = f[1 + DIR] + p;
        f[1 + D] = (u[1 + D] + p) * vd;
        let speed = vd.abs() + (self.gamma * p.max(Lanes::splat(0.0)) / rho).sqrt();
        (f, speed)
    }

    #[inline(always)]
    fn max_speed_lanes<const DIR: usize>(&self, u: &[Lanes; MAX_VARS]) -> Lanes {
        let p = self.pressure_lanes(u);
        (u[1 + DIR] / u[0]).abs() + (self.gamma * p.max(Lanes::splat(0.0)) / u[0]).sqrt()
    }

    #[inline(always)]
    fn cons_to_prim_lanes(&self, u: &[Lanes; MAX_VARS]) -> [Lanes; MAX_VARS] {
        let mut w = [Lanes::splat(0.0); MAX_VARS];
        w[0] = u[0];
        for d in 0..D {
            w[1 + d] = u[1 + d] / u[0];
        }
        w[1 + D] = self.pressure_lanes(u);
        w
    }

    #[inline(always)]
    fn prim_to_cons_lanes(&self, w: &[Lanes; MAX_VARS]) -> [Lanes; MAX_VARS] {
        let mut u = [Lanes::splat(0.0); MAX_VARS];
        u[0] = w[0];
        let mut ke = Lanes::splat(0.0);
        for d in 0..D {
            u[1 + d] = w[0] * w[1 + d];
            ke = ke + w[1 + d] * w[1 + d];
        }
        u[1 + D] = w[1 + D] / (self.gamma - 1.0) + 0.5 * w[0] * ke;
        u
    }

    #[inline(always)]
    fn floor_lanes(&self, u: &[Lanes; MAX_VARS]) -> Mask {
        let p = self.pressure_lanes(u);
        or(u[0].lt(Lanes::splat(self.rho_floor)), p.lt(Lanes::splat(self.p_floor)))
    }

    fn apply_floors(&self, u: &mut [f64]) -> bool {
        let mut clamped = false;
        if u[0] < self.rho_floor {
            u[0] = self.rho_floor;
            clamped = true;
        }
        let p = self.pressure(u);
        if p < self.p_floor {
            // raise E to hit the pressure floor, keeping momentum
            let mut ke = 0.0;
            for d in 0..D {
                ke += u[1 + d] * u[1 + d];
            }
            ke *= 0.5 / u[0];
            u[1 + D] = self.p_floor / (self.gamma - 1.0) + ke;
            clamped = true;
        }
        clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_cons_roundtrip() {
        let e = Euler::<3>::new(1.4);
        let w = [1.2, 0.3, -0.5, 0.9, 2.5];
        let mut u = [0.0; 5];
        e.prim_to_cons(&w, &mut u);
        let mut w2 = [0.0; 5];
        e.cons_to_prim(&u, &mut w2);
        for v in 0..5 {
            assert!((w[v] - w2[v]).abs() < 1e-14);
        }
    }

    #[test]
    fn pressure_and_sound_speed() {
        let e = Euler::<1>::new(1.4);
        let mut u = [0.0; 3];
        e.prim_to_cons(&[1.0, 0.0, 1.0], &mut u);
        assert!((e.pressure(&u) - 1.0).abs() < 1e-14);
        assert!((e.sound_speed(&u) - 1.4f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn flux_at_rest_is_pressure_only() {
        let e = Euler::<2>::new(1.4);
        let mut u = [0.0; 4];
        e.prim_to_cons(&[2.0, 0.0, 0.0, 3.0], &mut u);
        let mut f = [0.0; 4];
        e.flux(&u, 0, &mut f);
        assert_eq!(f[0], 0.0);
        assert!((f[1] - 3.0).abs() < 1e-14);
        assert_eq!(f[2], 0.0);
        assert_eq!(f[3], 0.0);
    }

    #[test]
    fn flux_consistency_with_exact_advection() {
        // uniform velocity u, uniform p: flux_rho = rho*u
        let e = Euler::<1>::new(1.4);
        let mut u = [0.0; 3];
        e.prim_to_cons(&[1.5, 2.0, 1.0], &mut u);
        let mut f = [0.0; 3];
        e.flux(&u, 0, &mut f);
        assert!((f[0] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn signal_speeds_bracket_max() {
        let e = Euler::<2>::new(1.4);
        let mut u = [0.0; 4];
        e.prim_to_cons(&[1.0, 0.7, -0.2, 0.8], &mut u);
        for dir in 0..2 {
            let (lo, hi) = e.signal_speeds(&u, dir);
            let m = e.max_speed(&u, dir);
            assert!(lo < hi);
            assert!((m - lo.abs().max(hi.abs())).abs() < 1e-13);
        }
    }

    #[test]
    fn floors_restore_positive_pressure() {
        let e = Euler::<1>::new(1.4);
        let mut u = [1.0, 0.5, -10.0]; // negative pressure state
        assert!(e.apply_floors(&mut u));
        assert!(e.pressure(&u) >= e.p_floor * 0.999);
        assert_eq!(u[1], 0.5, "momentum untouched");
    }

    #[test]
    fn floors_restore_positive_density() {
        let e = Euler::<1>::new(1.4);
        let mut u = [-1e-3, 0.0, 1.0];
        assert!(e.apply_floors(&mut u));
        assert!(u[0] >= e.rho_floor);
        // a healthy state is left alone
        let mut ok = [1.0, 0.1, 2.0];
        assert!(!e.apply_floors(&mut ok));
    }

    #[test]
    fn vector_components_momentum() {
        let e = Euler::<2>::new(1.4);
        assert_eq!(e.vector_components(), &[[1, 2, usize::MAX]]);
        assert_eq!(e.var_names().len(), 4);
    }
}
