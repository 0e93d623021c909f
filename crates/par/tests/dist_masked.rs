//! Feature-interaction coverage: the distributed machine running on a
//! masked (non-Cartesian) root layout — the combination a real
//! flow-around-a-body production run needs.

use std::collections::HashMap;

use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_par::{DistSim, Machine, Partitioner};
use ablock_core::sfc::Curve;
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::problems;
use ablock_solver::stepper::Stepper;
use ablock_solver::SolverConfig;

fn build() -> (BlockGrid<2>, Euler<2>) {
    let e = Euler::<2>::new(1.4);
    // 4x4 lattice with a 2x1 solid bite, reflecting walls
    let layout = RootLayout::unit([4, 4], Boundary::Outflow)
        .with_mask(|c| !((1..3).contains(&c[0]) && c[1] == 1))
        .with_hole_boundary(Boundary::Reflect);
    let mut g = BlockGrid::new(layout, GridParams::new([4, 4], 2, 4, 1));
    problems::advected_gaussian(&mut g, &e, [0.5, 0.5], [0.5, 0.8], 0.15);
    (g, e)
}

#[test]
fn distributed_masked_grid_matches_serial() {
    let dt = 1.5e-3;
    let steps = 4;
    let (mut gs, e) = build();
    assert_eq!(gs.num_blocks(), 14, "two roots are masked out");
    let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
    for _ in 0..steps {
        st.step(&mut gs, dt, None);
    }
    let serial: HashMap<BlockKey<2>, Vec<f64>> = gs
        .blocks()
        .map(|(_, n)| (n.key(), n.field().as_slice().to_vec()))
        .collect();

    let results = Machine::run(3, move |comm| {
        let (g, e) = build();
        let mut sim = DistSim::partitioned(g, 3, SolverConfig::new(e, Scheme::muscl_rusanov()));
        for _ in 0..steps {
            sim.advance(&comm, dt);
        }
        sim.owned_ids(comm.rank())
            .into_iter()
            .map(|id| {
                let n = sim.grid.block(id);
                (n.key(), n.field().as_slice().to_vec())
            })
            .collect::<Vec<_>>()
    }).unwrap();
    let shape = gs.params().field_shape();
    let mut checked = 0;
    for (key, data) in results.into_iter().flatten() {
        let sref = &serial[&key];
        for c in shape.interior_box().iter() {
            let i = shape.lin(c);
            for v in 0..4 {
                assert!(
                    (data[i + v] - sref[i + v]).abs() < 1e-13,
                    "block {key:?} cell {c:?} var {v}"
                );
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 14);
}

#[test]
fn masked_grid_walls_reflect_momentum_distributed() {
    // a pulse moving straight at the solid bite bounces: total vertical
    // momentum reverses sign over time instead of escaping through it
    Machine::run(2, |comm| {
        let e = Euler::<2>::new(1.4);
        let layout = RootLayout::unit([2, 2], Boundary::Reflect)
            .with_mask(|c| c != [1, 1])
            .with_hole_boundary(Boundary::Reflect);
        let mut g = BlockGrid::new(layout, GridParams::new([8, 8], 2, 4, 1));
        // gas moving toward the hole (up-right)
        problems::set_initial(&mut g, &e, |_, w| {
            w[0] = 1.0;
            w[1] = 0.4;
            w[2] = 0.4;
            w[3] = 1.0;
        });
        let mut sim = DistSim::partitioned(
            g,
            2,
            SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_partitioner(Partitioner::sfc(Curve::Morton)),
        );
        for _ in 0..40 {
            let dt = sim.stable_dt(&comm);
            sim.advance(&comm, dt);
        }
        let me = comm.rank();
        let mut mass = 0.0;
        for id in sim.owned_ids(me) {
            let n = sim.grid.block(id);
            mass += n.field().interior_sum(0);
            for c in n.field().shape().interior_box().iter() {
                assert!(n.field().cell(c).iter().all(|x| x.is_finite()));
                assert!(n.field().at(c, 0) > 0.0);
            }
        }
        // fully closed box (walls + solid bite): mass exactly conserved
        let total = comm.allreduce_sum(mass);
        let expected = 3.0 * 64.0; // 3 blocks x 64 cells x rho 1 initially
        assert!(
            (total - expected).abs() < 1e-9 * expected,
            "closed-box mass {total} vs {expected}"
        );
    }).unwrap();
}
