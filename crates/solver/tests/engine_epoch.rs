//! Regression tests for the stale-plan footgun: adapting a grid and then
//! stepping WITHOUT calling `invalidate()` must behave exactly like a
//! brand-new stepper, because the engine revalidates its plan cache off
//! the grid's topology epoch.

use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::problems;
use ablock_solver::stepper::Stepper;
use ablock_solver::SolverConfig;

fn build() -> (BlockGrid<2>, Euler<2>) {
    let e = Euler::<2>::new(1.4);
    let mut g = BlockGrid::new(
        RootLayout::unit([4, 4], Boundary::Periodic),
        GridParams::new([4, 4], 2, 4, 3),
    );
    problems::advected_gaussian(&mut g, &e, [1.0, -0.5], [0.4, 0.6], 0.15);
    (g, e)
}

fn refine_center(g: &mut BlockGrid<2>) {
    let id = g.find(BlockKey::new(0, [1, 1])).unwrap();
    g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
}

fn collect(g: &BlockGrid<2>) -> Vec<(BlockKey<2>, Vec<f64>)> {
    let mut v: Vec<_> = g
        .blocks()
        .map(|(_, n)| (n.key(), n.field().as_slice().to_vec()))
        .collect();
    v.sort_by_key(|(k, _)| *k);
    v
}

#[test]
fn adapt_then_step_without_invalidate_matches_fresh_stepper() {
    let dt = 1e-3;

    // run A: one stepper lives across the adapt, never invalidated
    let (mut ga, e) = build();
    let mut sta = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
    for _ in 0..2 {
        sta.step(&mut ga, dt, None);
    }
    refine_center(&mut ga);
    for _ in 0..2 {
        sta.step(&mut ga, dt, None);
    }

    // run B: identical, but a brand-new stepper takes over after the adapt
    let (mut gb, e2) = build();
    let mut stb = Stepper::new(SolverConfig::new(e2.clone(), Scheme::muscl_rusanov()));
    for _ in 0..2 {
        stb.step(&mut gb, dt, None);
    }
    refine_center(&mut gb);
    let mut stb2 = Stepper::new(SolverConfig::new(e2, Scheme::muscl_rusanov()));
    for _ in 0..2 {
        stb2.step(&mut gb, dt, None);
    }

    // bitwise identical interiors, block by block
    let a = collect(&ga);
    let b = collect(&gb);
    assert_eq!(a.len(), b.len());
    let shape = ga.params().field_shape();
    for ((ka, fa), (kb, fb)) in a.iter().zip(&b) {
        assert_eq!(ka, kb);
        for c in shape.interior_box().iter() {
            let i = shape.lin(c);
            for v in 0..4 {
                assert_eq!(
                    fa[i + v].to_bits(),
                    fb[i + v].to_bits(),
                    "block {ka:?} cell {c:?} var {v}: {} vs {}",
                    fa[i + v],
                    fb[i + v]
                );
            }
        }
    }
    // the surviving stepper rebuilt exactly once — for the adapt
    assert_eq!(sta.engine().stats().rebuilds, 2);
}

#[test]
fn plans_are_reused_across_steps_and_rebuilt_once_per_adapt() {
    let (mut g, e) = build();
    let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
    for _ in 0..5 {
        st.step(&mut g, 1e-3, None);
    }
    // each RK2 step revalidates twice (one ghost fill per stage): 10 sweeps,
    // one plan build
    let s = st.engine().stats();
    assert_eq!(s.rebuilds, 1);
    assert_eq!(s.reuses, 9);

    refine_center(&mut g);
    for _ in 0..5 {
        st.step(&mut g, 1e-3, None);
    }
    let s = st.engine().stats();
    assert_eq!(s.rebuilds, 2, "exactly one rebuild per topology change");
    assert_eq!(s.reuses, 18);
}
