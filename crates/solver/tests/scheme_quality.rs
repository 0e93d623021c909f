//! Scheme-quality comparisons: the knobs the paper's "options within the
//! field of adaptive mesh refinement" paragraph leaves open, measured.
//!
//! * HLL resolves contacts no worse than Rusanov at equal cost class;
//! * sharper limiters (MC) beat minmod on smooth profiles;
//! * first-order vs MUSCL on the Sod problem;
//! * Powell source on/off: ∇·B growth in a 2-D MHD problem.

use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::mhd::IdealMhd;
use ablock_solver::problems;
use ablock_solver::recon::{Limiter, Recon};
use ablock_solver::stepper::Stepper;
use ablock_solver::SolverConfig;
use ablock_solver::Riemann;

fn sod_l1_error(scheme: Scheme) -> f64 {
    // against a fine-grid reference profile computed with the same scheme
    // family's converged result? Simpler: against a very fine MUSCL run.
    let run = |nblocks: i64, scheme: Scheme| -> Vec<(f64, f64)> {
        let e = Euler::<1>::new(1.4);
        let mut g = BlockGrid::<1>::new(
            RootLayout::unit([nblocks], Boundary::Outflow),
            GridParams::new([8], 2, 3, 0),
        );
        problems::sod(&mut g, &e, 0.5);
        let mut st = Stepper::new(SolverConfig::new(e, scheme));
        st.run_until(&mut g, 0.0, 0.2, None);
        let m = g.params().block_dims;
        let layout = g.layout().clone();
        let mut prof = Vec::new();
        for (_, node) in g.blocks() {
            for c in node.field().shape().interior_box().iter() {
                let x = layout.cell_center(node.key(), m, c)[0];
                prof.push((x, node.field().at(c, 0)));
            }
        }
        prof.sort_by(|a, b| a.0.total_cmp(&b.0));
        prof
    };
    let reference = run(128, Scheme::muscl_rusanov()); // 1024 cells
    let coarse = run(16, scheme); // 128 cells
    // L1 against the reference sampled at the coarse centers (8:1 ratio)
    let mut l1 = 0.0;
    for (i, (_, rho)) in coarse.iter().enumerate() {
        // each coarse cell covers 8 reference cells; compare to their mean
        let lo = i * 8;
        let mean: f64 = reference[lo..lo + 8].iter().map(|p| p.1).sum::<f64>() / 8.0;
        l1 += (rho - mean).abs();
    }
    l1 / coarse.len() as f64
}

#[test]
fn muscl_beats_first_order_on_sod() {
    let fo = sod_l1_error(Scheme::first_order());
    let muscl = sod_l1_error(Scheme::muscl_rusanov());
    assert!(
        muscl < 0.6 * fo,
        "MUSCL ({muscl}) must clearly beat first order ({fo})"
    );
}

#[test]
fn hll_not_worse_than_rusanov_on_sod() {
    let rus = sod_l1_error(Scheme {
        recon: Recon::Muscl(Limiter::Minmod),
        riemann: Riemann::Rusanov,
    });
    let hll = sod_l1_error(Scheme {
        recon: Recon::Muscl(Limiter::Minmod),
        riemann: Riemann::Hll,
    });
    assert!(hll <= rus * 1.05, "HLL {hll} vs Rusanov {rus}");
}

#[test]
fn limiter_ordering_on_smooth_advection() {
    // smooth pulse advected one period: MC < minmod in L1 (sharper slopes)
    let l1 = |lim: Limiter| -> f64 {
        let e = Euler::<1>::new(1.4);
        let mut g = BlockGrid::<1>::new(
            RootLayout::unit([8], Boundary::Periodic),
            GridParams::new([16], 2, 3, 0),
        );
        problems::set_initial(&mut g, &e, |x, w| {
            w[0] = 1.0 + 0.3 * (-((x[0] - 0.5) / 0.12).powi(2)).exp();
            w[1] = 1.0;
            w[2] = 1.0;
        });
        let mut st = Stepper::new(SolverConfig::new(
            e,
            Scheme { recon: Recon::Muscl(lim), riemann: Riemann::Rusanov },
        ));
        st.run_until(&mut g, 0.0, 1.0, None);
        let m = g.params().block_dims;
        let layout = g.layout().clone();
        let mut err = 0.0;
        let mut n = 0;
        for (_, node) in g.blocks() {
            for c in node.field().shape().interior_box().iter() {
                let x = layout.cell_center(node.key(), m, c)[0];
                let exact = 1.0 + 0.3 * (-((x - 0.5) / 0.12).powi(2)).exp();
                err += (node.field().at(c, 0) - exact).abs();
                n += 1;
            }
        }
        err / n as f64
    };
    let minmod = l1(Limiter::Minmod);
    let mc = l1(Limiter::MonotonizedCentral);
    let vl = l1(Limiter::VanLeer);
    assert!(mc < minmod, "MC ({mc}) must beat minmod ({minmod}) on smooth data");
    assert!(vl < minmod, "van Leer ({vl}) must beat minmod ({minmod})");
}

#[test]
fn powell_source_limits_divb_growth() {
    // 2-D rotating flow with an initially divergence-free B that the
    // scheme slowly corrupts: the 8-wave source keeps the max |divB|
    // bounded lower than the uncorrected run.
    let divb_after = |powell: bool| -> f64 {
        let mut mhd = IdealMhd::new(5.0 / 3.0);
        mhd.powell = powell;
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([4, 4], Boundary::Periodic),
            GridParams::new([8, 8], 2, 8, 0),
        );
        problems::orszag_tang(&mut g, &mhd);
        let cfg = SolverConfig::new(mhd, Scheme::muscl_rusanov()).with_cfl(0.3);
        let mut st = Stepper::new(cfg);
        st.run_until(&mut g, 0.0, 0.15, None);
        let m = g.params().block_dims;
        st.fill_ghosts(&mut g, None);
        let mut worst: f64 = 0.0;
        for (_, n) in g.blocks() {
            let h = g.layout().cell_size(n.key().level, m);
            let f = n.field();
            for c in f.shape().interior_box().iter() {
                let mut divb = 0.0;
                for d in 0..2 {
                    let mut cp = c;
                    cp[d] += 1;
                    let mut cm = c;
                    cm[d] -= 1;
                    divb += (f.at(cp, 4 + d) - f.at(cm, 4 + d)) / (2.0 * h[d]);
                }
                worst = worst.max(divb.abs() * h[0]);
            }
        }
        worst
    };
    let with = divb_after(true);
    let without = divb_after(false);
    assert!(
        with < without,
        "Powell source must reduce divB: with {with} vs without {without}"
    );
    assert!(with.is_finite() && with > 0.0);
}

#[test]
fn refluxing_cost_is_modest() {
    // enabling refluxing must not blow up runtime (it is O(faces), not
    // O(cells)); compare flux_evals bookkeeping instead of wall-clock for
    // determinism: same evals either way.
    let run = |reflux: bool| -> usize {
        let e = Euler::<2>::new(1.4);
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([2, 2], Boundary::Periodic),
            GridParams::new([8, 8], 2, 4, 1),
        );
        problems::advected_gaussian(&mut g, &e, [1.0, 0.0], [0.5, 0.5], 0.15);
        let id = g.block_ids()[0];
        g.refine(
            id,
            ablock_core::grid::Transfer::Conservative(ablock_core::ops::ProlongOrder::Constant),
        )
        .unwrap();
        let cfg = SolverConfig::new(e, Scheme::muscl_rusanov()).with_refluxing(reflux);
        let mut st = Stepper::new(cfg);
        for _ in 0..3 {
            st.step(&mut g, 1e-3, None);
        }
        st.flux_evals
    };
    assert_eq!(run(true), run(false), "refluxing reuses the recorded fluxes");
}
