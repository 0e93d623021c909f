//! Ideal magnetohydrodynamics — the paper's production workload.
//!
//! Conserved variables (always 8, even in 1-D/2-D domains, following the
//! authors' BATS-R-US convention): `[ρ, ρu, ρv, ρw, Bx, By, Bz, E]`;
//! primitives `[ρ, u, v, w, Bx, By, Bz, p]`. Total energy includes the
//! magnetic term: `E = p/(γ-1) + ½ρ|u|² + ½|B|²`.
//!
//! The non-zero divergence of B that creeps into multi-dimensional
//! simulations is controlled with the Powell 8-wave source term
//! `S = −(∇·B) (0, B, u, u·B)` (Powell et al.), which the kernels add when
//! [`crate::physics::Physics::powell_source`] is true — the same approach
//! the paper's group used for the solar-wind runs.

use crate::lanes::{or, Lanes, Mask};
use crate::physics::{Physics, MAX_VARS};

/// Index of density.
pub const IRHO: usize = 0;
/// Index of x-momentum (y, z follow).
pub const IMX: usize = 1;
/// Index of Bx (By, Bz follow).
pub const IBX: usize = 4;
/// Index of total energy.
pub const IE: usize = 7;

/// Ideal MHD with a γ-law equation of state.
#[derive(Clone, Debug)]
pub struct IdealMhd {
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Density floor.
    pub rho_floor: f64,
    /// Pressure floor.
    pub p_floor: f64,
    /// Whether kernels add the Powell 8-wave source (on by default).
    pub powell: bool,
}

impl IdealMhd {
    /// MHD with the given γ, Powell source enabled.
    pub fn new(gamma: f64) -> Self {
        IdealMhd { gamma, rho_floor: 1e-12, p_floor: 1e-12, powell: true }
    }

    /// Gas pressure from a conserved state.
    #[inline]
    pub fn pressure(&self, u: &[f64]) -> f64 {
        let rho = u[IRHO];
        let ke = 0.5 * (u[IMX] * u[IMX] + u[IMX + 1] * u[IMX + 1] + u[IMX + 2] * u[IMX + 2]) / rho;
        let me = 0.5 * (u[IBX] * u[IBX] + u[IBX + 1] * u[IBX + 1] + u[IBX + 2] * u[IBX + 2]);
        (self.gamma - 1.0) * (u[IE] - ke - me)
    }

    /// Fast magnetosonic speed along `dir`.
    #[inline]
    pub fn fast_speed(&self, u: &[f64], dir: usize) -> f64 {
        let rho = u[IRHO];
        let p = self.pressure(u).max(0.0);
        let a2 = self.gamma * p / rho;
        let b2 = (u[IBX] * u[IBX] + u[IBX + 1] * u[IBX + 1] + u[IBX + 2] * u[IBX + 2]) / rho;
        let bn2 = u[IBX + dir] * u[IBX + dir] / rho;
        let s = a2 + b2;
        let disc = (s * s - 4.0 * a2 * bn2).max(0.0).sqrt();
        (0.5 * (s + disc)).max(0.0).sqrt()
    }

    /// Lane form of [`IdealMhd::pressure`].
    #[inline(always)]
    fn pressure_lanes(&self, u: &[Lanes; MAX_VARS]) -> Lanes {
        let rho = u[IRHO];
        let ke = 0.5 * (u[IMX] * u[IMX] + u[IMX + 1] * u[IMX + 1] + u[IMX + 2] * u[IMX + 2]) / rho;
        let me = 0.5 * (u[IBX] * u[IBX] + u[IBX + 1] * u[IBX + 1] + u[IBX + 2] * u[IBX + 2]);
        (self.gamma - 1.0) * (u[IE] - ke - me)
    }

    /// Lane form of [`IdealMhd::fast_speed`] along `DIR`, given the
    /// lanes' unclamped pressure `p` (as [`IdealMhd::pressure_lanes`]
    /// computes it).
    #[inline(always)]
    fn fast_speed_lanes<const DIR: usize>(&self, u: &[Lanes; MAX_VARS], p: Lanes) -> Lanes {
        let zero = Lanes::splat(0.0);
        let rho = u[IRHO];
        let p = p.max(zero);
        let a2 = self.gamma * p / rho;
        let b2 = (u[IBX] * u[IBX] + u[IBX + 1] * u[IBX + 1] + u[IBX + 2] * u[IBX + 2]) / rho;
        let bn2 = u[IBX + DIR] * u[IBX + DIR] / rho;
        let s = a2 + b2;
        let disc = (s * s - 4.0 * a2 * bn2).max(zero).sqrt();
        (0.5 * (s + disc)).max(zero).sqrt()
    }
}

impl Physics for IdealMhd {
    fn nvar(&self) -> usize {
        8
    }

    fn flux(&self, u: &[f64], dir: usize, out: &mut [f64]) {
        let rho = u[IRHO];
        let inv = 1.0 / rho;
        let v = [u[IMX] * inv, u[IMX + 1] * inv, u[IMX + 2] * inv];
        let b = [u[IBX], u[IBX + 1], u[IBX + 2]];
        let p = self.pressure(u);
        let ptot = p + 0.5 * (b[0] * b[0] + b[1] * b[1] + b[2] * b[2]);
        let vn = v[dir];
        let bn = b[dir];
        let vdotb = v[0] * b[0] + v[1] * b[1] + v[2] * b[2];

        out[IRHO] = rho * vn;
        for k in 0..3 {
            out[IMX + k] = rho * v[k] * vn - bn * b[k];
            out[IBX + k] = vn * b[k] - bn * v[k];
        }
        out[IMX + dir] += ptot;
        out[IBX + dir] = 0.0;
        out[IE] = (u[IE] + ptot) * vn - bn * vdotb;
    }

    fn max_speed(&self, u: &[f64], dir: usize) -> f64 {
        let vn = (u[IMX + dir] / u[IRHO]).abs();
        vn + self.fast_speed(u, dir)
    }

    fn signal_speeds(&self, u: &[f64], dir: usize) -> (f64, f64) {
        let vn = u[IMX + dir] / u[IRHO];
        let cf = self.fast_speed(u, dir);
        (vn - cf, vn + cf)
    }

    fn cons_to_prim(&self, u: &[f64], w: &mut [f64]) {
        let inv = 1.0 / u[IRHO];
        w[IRHO] = u[IRHO];
        for k in 0..3 {
            w[IMX + k] = u[IMX + k] * inv;
            w[IBX + k] = u[IBX + k];
        }
        w[IE] = self.pressure(u);
    }

    fn prim_to_cons(&self, w: &[f64], u: &mut [f64]) {
        u[IRHO] = w[IRHO];
        let mut ke = 0.0;
        let mut me = 0.0;
        for k in 0..3 {
            u[IMX + k] = w[IRHO] * w[IMX + k];
            ke += w[IMX + k] * w[IMX + k];
            u[IBX + k] = w[IBX + k];
            me += w[IBX + k] * w[IBX + k];
        }
        u[IE] = w[IE] / (self.gamma - 1.0) + 0.5 * w[IRHO] * ke + 0.5 * me;
    }

    fn var_names(&self) -> &'static [&'static str] {
        &["rho", "mx", "my", "mz", "bx", "by", "bz", "E"]
    }

    fn vector_components(&self) -> &'static [[usize; 3]] {
        &[[IMX, IMX + 1, IMX + 2], [IBX, IBX + 1, IBX + 2]]
    }

    fn powell_source(&self) -> bool {
        self.powell
    }

    fn b_indices(&self) -> Option<[usize; 3]> {
        Some([IBX, IBX + 1, IBX + 2])
    }

    // Lane forms mirror the scalar methods operation for operation — the
    // kernels require the batched and scalar paths to agree bitwise.

    #[inline(always)]
    fn flux_speed_lanes<const DIR: usize>(
        &self,
        u: &[Lanes; MAX_VARS],
    ) -> ([Lanes; MAX_VARS], Lanes) {
        let rho = u[IRHO];
        let inv = 1.0 / rho;
        let v = [u[IMX] * inv, u[IMX + 1] * inv, u[IMX + 2] * inv];
        let b = [u[IBX], u[IBX + 1], u[IBX + 2]];
        let p = self.pressure_lanes(u);
        let ptot = p + 0.5 * (b[0] * b[0] + b[1] * b[1] + b[2] * b[2]);
        let vn = v[DIR];
        let bn = b[DIR];
        let vdotb = v[0] * b[0] + v[1] * b[1] + v[2] * b[2];
        let mut f = [Lanes::splat(0.0); MAX_VARS];
        f[IRHO] = rho * vn;
        for k in 0..3 {
            f[IMX + k] = rho * v[k] * vn - bn * b[k];
            f[IBX + k] = vn * b[k] - bn * v[k];
        }
        f[IMX + DIR] = f[IMX + DIR] + ptot;
        f[IBX + DIR] = Lanes::splat(0.0);
        f[IE] = (u[IE] + ptot) * vn - bn * vdotb;
        let speed = (u[IMX + DIR] / rho).abs() + self.fast_speed_lanes::<DIR>(u, p);
        (f, speed)
    }

    #[inline(always)]
    fn max_speed_lanes<const DIR: usize>(&self, u: &[Lanes; MAX_VARS]) -> Lanes {
        (u[IMX + DIR] / u[IRHO]).abs() + self.fast_speed_lanes::<DIR>(u, self.pressure_lanes(u))
    }

    #[inline(always)]
    fn cons_to_prim_lanes(&self, u: &[Lanes; MAX_VARS]) -> [Lanes; MAX_VARS] {
        let inv = 1.0 / u[IRHO];
        let mut w = [Lanes::splat(0.0); MAX_VARS];
        w[IRHO] = u[IRHO];
        for k in 0..3 {
            w[IMX + k] = u[IMX + k] * inv;
            w[IBX + k] = u[IBX + k];
        }
        w[IE] = self.pressure_lanes(u);
        w
    }

    #[inline(always)]
    fn prim_to_cons_lanes(&self, w: &[Lanes; MAX_VARS]) -> [Lanes; MAX_VARS] {
        let mut u = [Lanes::splat(0.0); MAX_VARS];
        u[IRHO] = w[IRHO];
        let mut ke = Lanes::splat(0.0);
        let mut me = Lanes::splat(0.0);
        for k in 0..3 {
            u[IMX + k] = w[IRHO] * w[IMX + k];
            ke = ke + w[IMX + k] * w[IMX + k];
            u[IBX + k] = w[IBX + k];
            me = me + w[IBX + k] * w[IBX + k];
        }
        u[IE] = w[IE] / (self.gamma - 1.0) + 0.5 * w[IRHO] * ke + 0.5 * me;
        u
    }

    #[inline(always)]
    fn floor_lanes(&self, u: &[Lanes; MAX_VARS]) -> Mask {
        // `apply_floors` tests the pressure after clamping density, but a
        // lane whose density clamps is flagged either way
        let p = self.pressure_lanes(u);
        or(u[IRHO].lt(Lanes::splat(self.rho_floor)), p.lt(Lanes::splat(self.p_floor)))
    }

    fn apply_floors(&self, u: &mut [f64]) -> bool {
        let mut clamped = false;
        if u[IRHO] < self.rho_floor {
            u[IRHO] = self.rho_floor;
            clamped = true;
        }
        if self.pressure(u) < self.p_floor {
            let rho = u[IRHO];
            let ke =
                0.5 * (u[IMX] * u[IMX] + u[IMX + 1] * u[IMX + 1] + u[IMX + 2] * u[IMX + 2]) / rho;
            let me =
                0.5 * (u[IBX] * u[IBX] + u[IBX + 1] * u[IBX + 1] + u[IBX + 2] * u[IBX + 2]);
            u[IE] = self.p_floor / (self.gamma - 1.0) + ke + me;
            clamped = true;
        }
        clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(rho: f64, v: [f64; 3], b: [f64; 3], p: f64) -> [f64; 8] {
        let m = IdealMhd::new(5.0 / 3.0);
        let w = [rho, v[0], v[1], v[2], b[0], b[1], b[2], p];
        let mut u = [0.0; 8];
        m.prim_to_cons(&w, &mut u);
        u
    }

    #[test]
    fn prim_cons_roundtrip() {
        let m = IdealMhd::new(5.0 / 3.0);
        let w = [1.1, 0.2, -0.4, 0.6, 0.75, 1.0, -0.3, 0.95];
        let mut u = [0.0; 8];
        m.prim_to_cons(&w, &mut u);
        let mut w2 = [0.0; 8];
        m.cons_to_prim(&u, &mut w2);
        for v in 0..8 {
            assert!((w[v] - w2[v]).abs() < 1e-13, "var {v}: {} vs {}", w[v], w2[v]);
        }
    }

    #[test]
    fn reduces_to_euler_when_b_zero() {
        // With B = 0 the MHD flux must equal the Euler flux.
        let m = IdealMhd::new(1.4);
        let e = crate::euler::Euler::<3>::new(1.4);
        let u = state(1.3, [0.4, -0.2, 0.1], [0.0; 3], 0.77);
        let ue = [u[0], u[1], u[2], u[3], u[7]];
        let mut fm = [0.0; 8];
        let mut fe = [0.0; 5];
        for dir in 0..3 {
            m.flux(&u, dir, &mut fm);
            e.flux(&ue, dir, &mut fe);
            assert!((fm[0] - fe[0]).abs() < 1e-13);
            for k in 0..3 {
                assert!((fm[1 + k] - fe[1 + k]).abs() < 1e-13);
            }
            assert!((fm[7] - fe[4]).abs() < 1e-13);
            // B flux identically zero
            for k in 0..3 {
                assert_eq!(fm[IBX + k], 0.0);
            }
        }
    }

    #[test]
    fn fast_speed_exceeds_sound_and_alfven() {
        let m = IdealMhd::new(5.0 / 3.0);
        let u = state(1.0, [0.0; 3], [1.0, 0.5, 0.0], 0.6);
        let a = (m.gamma * 0.6 / 1.0f64).sqrt();
        let ca = 1.0; // |Bx|/sqrt(rho) along x
        let cf = m.fast_speed(&u, 0);
        assert!(cf >= a - 1e-14, "cf {cf} < a {a}");
        assert!(cf >= ca - 1e-14, "cf {cf} < ca {ca}");
    }

    #[test]
    fn fast_speed_perpendicular_is_magnetosonic() {
        // B purely transverse: cf^2 = a^2 + b^2 exactly.
        let m = IdealMhd::new(5.0 / 3.0);
        let u = state(2.0, [0.0; 3], [0.0, 1.2, 0.0], 0.9);
        let a2 = m.gamma * 0.9 / 2.0;
        let b2 = 1.2 * 1.2 / 2.0;
        let cf = m.fast_speed(&u, 0);
        assert!((cf * cf - (a2 + b2)).abs() < 1e-12);
    }

    #[test]
    fn normal_b_flux_is_zero() {
        let m = IdealMhd::new(5.0 / 3.0);
        let u = state(1.0, [0.3, 0.2, -0.7], [0.4, -0.5, 0.6], 1.1);
        let mut f = [0.0; 8];
        for dir in 0..3 {
            m.flux(&u, dir, &mut f);
            assert_eq!(f[IBX + dir], 0.0, "normal B component is advected by sources only");
        }
    }

    #[test]
    fn energy_includes_magnetic_term() {
        let m = IdealMhd::new(5.0 / 3.0);
        let u = state(1.0, [0.0; 3], [2.0, 0.0, 0.0], 1.0);
        // E = p/(g-1) + B^2/2 = 1.5 + 2.0
        assert!((u[IE] - 3.5).abs() < 1e-14);
        assert!((m.pressure(&u) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn floors_recover_negative_pressure() {
        let m = IdealMhd::new(5.0 / 3.0);
        let mut u = state(1.0, [0.1, 0.0, 0.0], [1.0, 0.0, 0.0], 0.5);
        u[IE] -= 10.0; // wreck the energy
        assert!(m.pressure(&u) < 0.0);
        assert!(m.apply_floors(&mut u));
        assert!(m.pressure(&u) > 0.0);
    }
}
