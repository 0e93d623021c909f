//! Row-batched physics and kernel rows against their scalar references.
//!
//! Every row method of `IdealMhd` and `Euler<D>` must equal the scalar
//! method applied lane by lane, bit for bit, for every direction and every
//! row length `1..=ROW_CHUNK` (so each tail-group size is covered). The
//! states mix exactly-zero and negative-zero momenta, near-floor and
//! negative pressures (so floors fire), and — for `cons_to_prim_rows` —
//! lanes with density `<= 0` that the row method must leave untouched.
//! Inputs that are not slabs are cut to exactly `lanes` in their last
//! plane, so a row method that read past its lanes would panic.

use ablock_solver::euler::Euler;
use ablock_solver::flux::{numerical_flux, numerical_flux_rows, Riemann, Side};
use ablock_solver::lanes::{Lanes, LANES};
use ablock_solver::mhd::IdealMhd;
use ablock_solver::physics::{Physics, MAX_VARS, ROW_CHUNK};
use ablock_solver::recon::{limited_slope, limited_slope_row, Limiter};
use ablock_testkit::Rng;

/// Stride of the non-slab test rows: not a multiple of the lane width.
const STRIDE: usize = ROW_CHUNK + 3;
const SENTINEL: f64 = 12345.0;

fn same(a: f64, b: f64, what: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what}: row {a:e} vs scalar {b:e}"
    );
}

/// A primitive state: `nv` velocity components, the rest of the vector
/// (field components) random, pressure last.
fn prim(rng: &mut Rng, n: usize, nv: usize) -> Vec<f64> {
    let mut w = vec![0.0; n];
    w[0] = rng.f64_in(0.1, 2.0);
    for x in w.iter_mut().take(n - 1).skip(1) {
        *x = rng.f64_in(-2.0, 2.0);
    }
    for x in w.iter_mut().skip(1).take(nv) {
        match rng.usize_below(6) {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
    w[n - 1] = match rng.usize_below(5) {
        0 => 1e-13,
        1 => -0.3,
        _ => rng.f64_in(0.01, 3.0),
    };
    w
}

/// `lanes` conserved (`cons`) or primitive states as a variable-major row
/// of stride [`STRIDE`], cut to exactly `lanes` in the last plane.
fn row<P: Physics>(phys: &P, rng: &mut Rng, nv: usize, lanes: usize, cons: bool) -> Vec<f64> {
    let n = phys.nvar();
    let mut r = vec![0.0; (n - 1) * STRIDE + lanes];
    let mut u = vec![0.0; n];
    for k in 0..lanes {
        let w = prim(rng, n, nv);
        phys.prim_to_cons(&w, &mut u);
        let x = if cons { &u } else { &w };
        for v in 0..n {
            r[v * STRIDE + k] = x[v];
        }
    }
    r
}

fn lane_state(r: &[f64], s: usize, n: usize, k: usize) -> Vec<f64> {
    (0..n).map(|v| r[v * s + k]).collect()
}

fn check_dir<P: Physics, const DIR: usize>(phys: &P, nv: usize, seed: u64) {
    let n = phys.nvar();
    let mut rng = Rng::new(seed);
    for lanes in 1..=ROW_CHUNK {
        let u = row(phys, &mut rng, nv, lanes, true);
        let mut f = vec![SENTINEL; n * STRIDE];
        let mut speed = vec![SENTINEL; ROW_CHUNK];
        phys.flux_speed_rows::<DIR>(&u, STRIDE, &mut f, STRIDE, &mut speed, lanes);
        let mut ms = vec![SENTINEL; ROW_CHUNK];
        phys.max_speed_rows::<DIR>(&u, STRIDE, &mut ms, lanes);
        let mut fc = vec![0.0; n];
        for k in 0..lanes {
            let uc = lane_state(&u, STRIDE, n, k);
            phys.flux(&uc, DIR, &mut fc);
            for v in 0..n {
                same(
                    f[v * STRIDE + k],
                    fc[v],
                    &format!("flux dir {DIR} lanes {lanes} lane {k} var {v}"),
                );
            }
            let s = phys.max_speed(&uc, DIR);
            same(
                speed[k],
                s,
                &format!("fused speed dir {DIR} lanes {lanes} lane {k}"),
            );
            same(
                ms[k],
                s,
                &format!("max_speed dir {DIR} lanes {lanes} lane {k}"),
            );
        }
        for v in 0..n {
            assert!(f[v * STRIDE + lanes..(v + 1) * STRIDE]
                .iter()
                .all(|&x| x == SENTINEL));
        }
        assert!(speed[lanes..]
            .iter()
            .chain(&ms[lanes..])
            .all(|&x| x == SENTINEL));

        // Riemann rows over primitive and slope planes, against the
        // reconstruction, prim_to_cons and numerical_flux per lane
        let (pl, pr) = (
            row(phys, &mut rng, nv, lanes, false),
            row(phys, &mut rng, nv, lanes, false),
        );
        let slopes: Vec<f64> = (0..(n - 1) * STRIDE + lanes + 1)
            .map(|_| rng.f64_in(-0.5, 0.5))
            .collect();
        let (sl, sr) = (&slopes[..], &slopes[1..]);
        for muscl in [false, true] {
            let side = |prim, slope| Side {
                prim,
                slope: muscl.then_some(slope),
                stride: STRIDE,
            };
            for riemann in [Riemann::Rusanov, Riemann::Hll] {
                // output planes of stride STRIDE, cut to exactly `lanes`
                let mut out = vec![SENTINEL; (n - 1) * STRIDE + lanes];
                numerical_flux_rows::<P, DIR>(
                    phys,
                    riemann,
                    side(&pl, sl),
                    side(&pr, sr),
                    &mut out,
                    STRIDE,
                    lanes,
                );
                let (mut wa, mut wb) = (vec![0.0; n], vec![0.0; n]);
                let (mut a, mut b, mut fx) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                for k in 0..lanes {
                    for v in 0..n {
                        let i = v * STRIDE + k;
                        (wa[v], wb[v]) = if muscl {
                            (pl[i] + 0.5 * sl[i], pr[i] - 0.5 * sr[i])
                        } else {
                            (pl[i], pr[i])
                        };
                    }
                    phys.prim_to_cons(&wa, &mut a);
                    phys.prim_to_cons(&wb, &mut b);
                    numerical_flux(phys, riemann, &a, &b, DIR, &mut fx);
                    for v in 0..n {
                        let what = format!(
                            "{riemann:?} muscl {muscl} dir {DIR} lanes {lanes} lane {k} var {v}"
                        );
                        same(out[v * STRIDE + k], fx[v], &what);
                    }
                }
                for v in 0..n - 1 {
                    assert!(out[v * STRIDE + lanes..(v + 1) * STRIDE]
                        .iter()
                        .all(|&x| x == SENTINEL));
                }
            }
        }
    }
}

/// Conversions and the floor flags, which do not depend on a direction.
fn check_conversions<P: Physics>(phys: &P, nv: usize, seed: u64) {
    let n = phys.nvar();
    let mut rng = Rng::new(seed);
    let mut floors_fired = 0;
    for lanes in 1..=ROW_CHUNK {
        let mut u = row(phys, &mut rng, nv, lanes, true);
        // density <= 0 lanes (unfilled or solid cells) must be skipped
        for k in 0..lanes {
            match rng.usize_below(8) {
                0 => u[k] = 0.0,
                1 => u[k] = -0.0,
                2 => u[k] = -0.5,
                _ => {}
            }
        }
        let mut w = vec![SENTINEL; n * STRIDE];
        phys.cons_to_prim_rows(&u, STRIDE, &mut w, STRIDE, lanes);
        let mut wc = vec![0.0; n];
        for k in 0..lanes {
            let uc = lane_state(&u, STRIDE, n, k);
            if uc[0] <= 0.0 {
                for v in 0..n {
                    same(
                        w[v * STRIDE + k],
                        SENTINEL,
                        &format!("skipped lane {k} var {v}"),
                    );
                }
                continue;
            }
            phys.cons_to_prim(&uc, &mut wc);
            for v in 0..n {
                same(
                    w[v * STRIDE + k],
                    wc[v],
                    &format!("cons_to_prim lanes {lanes} lane {k} var {v}"),
                );
            }
        }
        for v in 0..n {
            assert!(w[v * STRIDE + lanes..(v + 1) * STRIDE]
                .iter()
                .all(|&x| x == SENTINEL));
        }

        let wp = row(phys, &mut rng, nv, lanes, false);
        let mut uo = vec![SENTINEL; n * STRIDE];
        phys.prim_to_cons_rows(&wp, STRIDE, &mut uo, STRIDE, lanes);
        let mut uc = vec![0.0; n];
        for k in 0..lanes {
            phys.prim_to_cons(&lane_state(&wp, STRIDE, n, k), &mut uc);
            for v in 0..n {
                same(
                    uo[v * STRIDE + k],
                    uc[v],
                    &format!("prim_to_cons lanes {lanes} lane {k} var {v}"),
                );
            }
        }
        for v in 0..n {
            assert!(uo[v * STRIDE + lanes..(v + 1) * STRIDE]
                .iter()
                .all(|&x| x == SENTINEL));
        }

        // floor flags: a lane the scalar floors would clamp is flagged
        for k0 in (0..lanes).step_by(LANES) {
            let mut g = [Lanes::splat(1.0); MAX_VARS];
            for v in 0..n {
                for i in 0..LANES.min(lanes - k0) {
                    g[v].0[i] = u[v * STRIDE + k0 + i];
                }
            }
            let flags = phys.floor_lanes(&g);
            for i in 0..LANES.min(lanes - k0) {
                let mut uc = lane_state(&u, STRIDE, n, k0 + i);
                let clamped = phys.apply_floors(&mut uc);
                assert_eq!(
                    flags[i],
                    clamped,
                    "floor flag lanes {lanes} lane {}",
                    k0 + i
                );
                floors_fired += usize::from(clamped);
            }
        }
    }
    assert!(floors_fired > 0, "no state exercised the floors");
}

#[test]
fn mhd_rows_match_scalar_bitwise() {
    let m = IdealMhd::new(5.0 / 3.0);
    check_dir::<_, 0>(&m, 3, 0x40);
    check_dir::<_, 1>(&m, 3, 0x41);
    check_dir::<_, 2>(&m, 3, 0x42);
    check_conversions(&m, 3, 0x43);
}

#[test]
fn euler_rows_match_scalar_bitwise() {
    let e1 = Euler::<1>::new(1.4);
    check_dir::<_, 0>(&e1, 1, 0xE10);
    check_conversions(&e1, 1, 0xE11);
    let e2 = Euler::<2>::new(1.4);
    check_dir::<_, 0>(&e2, 2, 0xE20);
    check_dir::<_, 1>(&e2, 2, 0xE21);
    check_conversions(&e2, 2, 0xE22);
    let e3 = Euler::<3>::new(5.0 / 3.0);
    check_dir::<_, 0>(&e3, 3, 0xE30);
    check_dir::<_, 1>(&e3, 3, 0xE31);
    check_dir::<_, 2>(&e3, 3, 0xE32);
    check_conversions(&e3, 3, 0xE33);
}

#[test]
fn slope_rows_match_scalar_bitwise() {
    let mut rng = Rng::new(0x510);
    let pick = |rng: &mut Rng| match rng.usize_below(6) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        _ => rng.f64_in(-3.0, 3.0),
    };
    for lim in [
        Limiter::Minmod,
        Limiter::MonotonizedCentral,
        Limiter::VanLeer,
    ] {
        for len in 1..=ROW_CHUNK {
            let p: Vec<f64> = (0..len + 2).map(|_| pick(&mut rng)).collect();
            let mut out = vec![SENTINEL; len];
            limited_slope_row(lim, &p[..len], &p[1..len + 1], &p[2..], &mut out);
            for j in 0..len {
                let s = limited_slope(lim, p[j + 1] - p[j], p[j + 2] - p[j + 1]);
                same(out[j], s, &format!("{lim:?} len {len} cell {j}"));
            }
        }
    }
}
