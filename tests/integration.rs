//! Cross-crate integration tests: the whole stack exercised end to end.
//!
//! These tests go through the facade crate and span multiple workspace
//! crates at once — grid + solver + AMR driver + parallel substrates +
//! baseline — checking the equivalences DESIGN.md §8 promises.

use std::collections::HashMap;

use adaptive_blocks::amr::{AmrConfig, AmrSimulation, GradientCriterion};
use adaptive_blocks::celltree::{advection_flux, step_fv, CellTree};
use adaptive_blocks::par::{DistSim, Machine, ParStepper};
use adaptive_blocks::prelude::*;
use adaptive_blocks::solver::stepper::total_conserved;

/// Helper: a periodic 2-D Euler pulse grid.
fn pulse_grid(roots: [i64; 2], m: i64, max_level: u8) -> (BlockGrid<2>, Euler<2>) {
    let e = Euler::<2>::new(1.4);
    let mut g = BlockGrid::new(
        RootLayout::unit(roots, Boundary::Periodic),
        GridParams::new([m, m], 2, 4, max_level),
    );
    problems::advected_gaussian(&mut g, &e, [0.8, 0.4], [0.5, 0.5], 0.12);
    (g, e)
}

#[test]
fn uniform_vs_refined_blocks_converge_to_same_solution() {
    // The same physical problem on (a) a coarse uniform block grid and
    // (b) the same grid refined everywhere once (so resolution doubles)
    // must agree to the discretization order after a short time.
    let (mut coarse, e) = pulse_grid([2, 2], 8, 1);
    let (mut fine, _) = pulse_grid([2, 2], 8, 1);
    fine.refine_all(Transfer::Conservative(ProlongOrder::LinearMinmod));
    problems::advected_gaussian(&mut fine, &e, [0.8, 0.4], [0.5, 0.5], 0.12);

    let cfg = SolverConfig::new(e.clone(), Scheme::muscl_rusanov()).with_cfl(0.4);
    let mut st_c = Stepper::new(cfg.clone());
    let mut st_f = Stepper::new(cfg);
    st_c.run_until(&mut coarse, 0.0, 0.1, None);
    st_f.run_until(&mut fine, 0.0, 0.1, None);

    // restrict the fine solution onto the coarse lattice (coarsen every
    // fine block conservatively) and compare cell averages in L1 — the
    // honest multi-resolution comparison
    let parents: Vec<BlockKey<2>> = fine
        .blocks()
        .filter_map(|(_, n)| n.key().parent())
        .collect::<std::collections::HashSet<_>>()
        .into_iter()
        .collect();
    for p in parents {
        fine.coarsen(p, Transfer::Conservative(ProlongOrder::Constant)).unwrap();
    }
    let mut l1 = 0.0;
    let mut n_cells = 0usize;
    for (_, nc) in coarse.blocks() {
        let nf_id = fine.find(nc.key()).expect("same layout after coarsen");
        let nf = fine.block(nf_id);
        for c in nc.field().shape().interior_box().iter() {
            l1 += (nc.field().at(c, 0) - nf.field().at(c, 0)).abs();
            n_cells += 1;
        }
    }
    l1 /= n_cells as f64;
    assert!(l1 < 0.006, "resolutions disagree in L1: {l1}");
}

#[test]
fn shared_memory_executor_matches_serial_through_amr_cycle() {
    // step serially, adapt, step with the pool executor: identical grids.
    let (mut ga, e) = pulse_grid([2, 2], 8, 2);
    let (mut gb, _) = pulse_grid([2, 2], 8, 2);
    let dt = 1e-3;

    let cfg = SolverConfig::new(e.clone(), Scheme::muscl_rusanov());
    let mut serial = Stepper::new(cfg.clone());
    let mut par = ParStepper::new(cfg);
    for _ in 0..2 {
        serial.step(&mut ga, dt, None);
        par.step(&mut gb, dt);
    }
    // adapt both identically (by key, not id)
    for g in [&mut ga, &mut gb] {
        let id = g.find(BlockKey::new(0, [1, 1])).unwrap();
        adapt(
            g,
            &[(id, Flag::Refine)].into_iter().collect(),
            Transfer::Conservative(ProlongOrder::LinearMinmod),
        );
    }
    // no invalidate: both engines revalidate off the bumped topology epoch
    for _ in 0..2 {
        serial.step(&mut ga, dt, None);
        par.step(&mut gb, dt);
    }
    // compare every interior cell by key
    let by_key: HashMap<BlockKey<2>, BlockId> =
        gb.blocks().map(|(id, n)| (n.key(), id)).collect();
    for (_, na) in ga.blocks() {
        let nb = gb.block(by_key[&na.key()]);
        for c in na.field().shape().interior_box().iter() {
            for v in 0..4 {
                let (x, y) = (na.field().at(c, v), nb.field().at(c, v));
                assert!(
                    (x - y).abs() < 1e-13,
                    "{:?} cell {c:?} var {v}: {x} vs {y}",
                    na.key()
                );
            }
        }
    }
}

#[test]
fn distributed_machine_matches_serial_with_adaptive_grid() {
    // refine a block, then run serial vs 3-rank distributed: equal fields.
    let dt = 1.2e-3;
    let steps = 3;
    let build = || {
        let (mut g, e) = pulse_grid([2, 2], 8, 2);
        let id = g.find(BlockKey::new(0, [0, 0])).unwrap();
        g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        (g, e)
    };
    let (mut gs, e) = build();
    let mut st = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
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
    assert_eq!(checked, gs.num_blocks());
}

#[test]
fn amr_simulation_beats_uniform_cost_at_equal_front_resolution() {
    // The headline efficiency claim: tracking a blast front adaptively
    // uses a fraction of the uniform grid's cells.
    let e = Euler::<2>::new(1.4);
    let grid = BlockGrid::new(
        RootLayout::unit([2, 2], Boundary::Outflow),
        GridParams::new([8, 8], 2, 4, 3),
    );
    let mut sim = AmrSimulation::new(
        grid,
        SolverConfig::new(e.clone(), Scheme::muscl_rusanov()).with_cfl(0.3),
        GradientCriterion::new(3, 0.08, 0.03),
        AmrConfig { adapt_every: 4, max_steps: 20_000 },
    );
    problems::sedov_blast(&mut sim.grid, &e, [0.5, 0.5], 0.08, 30.0);
    sim.initial_adapt_with(4, None, |g| {
        problems::sedov_blast(g, &e, [0.5, 0.5], 0.08, 30.0)
    });
    sim.run_until(0.04, None);
    assert!(sim.grid.max_level_present() >= 2);
    assert!(
        sim.compression() < 0.6,
        "AMR must use well under the uniform cell count: {}",
        sim.compression()
    );
    adaptive_blocks::core::verify::check_grid(&sim.grid).unwrap();
}

#[test]
fn blocks_and_celltree_agree_on_first_order_advection() {
    // same uniform-resolution problem, two data structures, one scheme:
    // answers must match to tight tolerance (they are the same method).
    let n = 32i64;
    // celltree: 32 root cells in 1-D
    let mut tree = CellTree::<1>::new(RootLayout::unit([n], Boundary::Periodic), 1, 0);
    for id in tree.leaf_ids() {
        let x = tree.cell_center(tree.node(id).key)[0];
        tree.node_mut(id).u[0] = 1.0 + 0.5 * (2.0 * std::f64::consts::PI * x).sin();
    }
    // blocks: 4 blocks of 8 cells — same cells, same centers
    let mut grid = BlockGrid::<1>::new(
        RootLayout::unit([4], Boundary::Periodic),
        GridParams::new([8], 1, 1, 0),
    );
    let layout = grid.layout().clone();
    for id in grid.block_ids() {
        let key = grid.block(id).key();
        grid.block_mut(id).field_mut().for_each_interior(|c, u| {
            let x = layout.cell_center(key, [8], c)[0];
            u[0] = 1.0 + 0.5 * (2.0 * std::f64::consts::PI * x).sin();
        });
    }
    let dt = 0.4 / n as f64;
    let steps = 20;
    let flux = advection_flux::<1>([1.0]);
    for _ in 0..steps {
        step_fv(&mut tree, dt, &flux, &[]);
    }
    // an upwind step on the block grid: first-order scalar "physics" via a
    // hand-rolled loop using ghosts (the kernels need a Physics; advection
    // is simpler done directly and keeps this test independent of them)
    let plan = GhostExchange::build(&grid, GhostConfig { prolong_order: ProlongOrder::Constant, vector_components: vec![], corners: false });
    for _ in 0..steps {
        plan.fill(&mut grid);
        for id in grid.block_ids() {
            let node = grid.block_mut(id);
            let m = 8i64;
            let h = 1.0 / n as f64;
            let mut new = vec![0.0f64; m as usize];
            for i in 0..m {
                let u = node.field().at([i], 0);
                let ul = node.field().at([i - 1], 0);
                new[i as usize] = u - dt / h * (u - ul);
            }
            for i in 0..m {
                *node.field_mut().at_mut([i], 0) = new[i as usize];
            }
        }
    }
    // compare cell by cell
    for (j, id) in tree.leaf_ids().into_iter().enumerate() {
        let tv = tree.node(id).u[0];
        let block = j as i64 / 8;
        let cell = j as i64 % 8;
        let bid = grid.find(BlockKey::new(0, [block])).unwrap();
        let bv = grid.block(bid).field().at([cell], 0);
        assert!(
            (tv - bv).abs() < 1e-12,
            "cell {j}: tree {tv} vs blocks {bv}"
        );
    }
}

#[test]
fn conservation_through_full_pipeline() {
    // AMR + adapts + many steps on a periodic box: mass and energy exact.
    let (g, e) = pulse_grid([2, 2], 8, 2);
    let mut sim = AmrSimulation::new(
        g,
        SolverConfig::new(e, Scheme::muscl_rusanov()).with_cfl(0.35),
        GradientCriterion::new(0, 0.03, 0.01),
        AmrConfig { adapt_every: 3, max_steps: 10_000 },
    );
    sim.adapt_now(None);
    let m0 = total_conserved(&sim.grid, 0);
    sim.run_until(0.15, None);
    let m1 = total_conserved(&sim.grid, 0);
    // periodic box: the only conservation defect is the coarse/fine flux
    // mismatch (no refluxing) — must stay tiny
    assert!(
        (m1 - m0).abs() < 2e-4 * m0.abs(),
        "mass drift: {m0} -> {m1}"
    );
    assert!(sim.stats.adapts >= 1);
}

#[test]
fn wind_source_mhd_pipeline_smoke() {
    use adaptive_blocks::solver::problems::WindSource;
    let mhd = IdealMhd::new(5.0 / 3.0);
    let mut g = BlockGrid::<2>::new(
        RootLayout::new([2, 2], [-1.0, -1.0], [2.0, 2.0], [Boundary::Outflow; 6]),
        GridParams::new([8, 8], 2, 8, 2),
    );
    problems::set_initial(&mut g, &mhd, |_, w| {
        w[0] = 0.05;
        w[7] = 0.01;
    });
    let wind = WindSource {
        center: [0.0, 0.0],
        r_src: 0.2,
        v_wind: 1.0,
        rho: 1.0,
        p: 0.3,
        b: 0.1,
        pulse: None,
    };
    wind.apply(&mut g, &mhd, 0.0);
    let mut st = Stepper::new(SolverConfig::new(mhd.clone(), Scheme::muscl_rusanov()).with_cfl(0.3));
    let mut t = 0.0;
    for _ in 0..30 {
        let dt = st.stable_dt(&mut g);
        st.step(&mut g, dt, None);
        t += dt;
        wind.apply(&mut g, &mhd, t);
    }
    // the wind must have pushed density outward beyond the source ball
    let probe = g.find_leaf_at([0.35, 0.0]).unwrap();
    let node = g.block(probe);
    let mut max_rho: f64 = 0.0;
    for c in node.field().shape().interior_box().iter() {
        max_rho = max_rho.max(node.field().at(c, 0));
        assert!(node.field().cell(c).iter().all(|x| x.is_finite()));
    }
    assert!(max_rho > 0.06, "wind should raise density outside the ball: {max_rho}");
}

#[test]
fn one_driver_steps_every_backend_bitwise() {
    // Serial, pool and 2-rank distributed backends all run the one
    // time-stepping driver: one refluxed step of a two-level grid, in
    // global and subcycled mode, leaves bitwise-equal interiors.
    let build = || {
        let (mut g, e) = pulse_grid([4, 4], 4, 1);
        for coords in [[1, 1], [2, 2]] {
            let id = g.find(BlockKey::new(0, coords)).unwrap();
            g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        }
        (g, e)
    };
    let interiors = |g: &BlockGrid<2>| -> Vec<(BlockKey<2>, Vec<u64>)> {
        let mut v: Vec<_> = g
            .blocks()
            .map(|(_, n)| {
                let f = n.field();
                let bits = f
                    .shape()
                    .interior_box()
                    .iter()
                    .flat_map(|c| f.cell(c).iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    .collect();
                (n.key(), bits)
            })
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    };
    for mode in [TimeStepMode::Global, TimeStepMode::Subcycled] {
        let cfg = SolverConfig::new(Euler::<2>::new(1.4), Scheme::muscl_rusanov())
            .with_refluxing(true)
            .with_time_step_mode(mode)
            .with_partitioner(adaptive_blocks::par::Partitioner::round_robin());
        let (mut gs, _) = build();
        let mut st = Stepper::new(cfg.clone());
        let dt = st.stable_dt(&mut gs);
        st.step(&mut gs, dt, None);
        let serial = interiors(&gs);

        let (mut gp, _) = build();
        let mut par = ParStepper::new(cfg.clone());
        let dt_par = par.stable_dt(&mut gp);
        assert_eq!(dt.to_bits(), dt_par.to_bits(), "{mode:?}: pool dt");
        par.step(&mut gp, dt_par);
        assert!(serial == interiors(&gp), "{mode:?}: Stepper vs ParStepper interiors differ");

        let dist = Machine::run(2, |comm| {
            let (g, _) = build();
            let mut sim = DistSim::partitioned(g, comm.nranks(), cfg.clone());
            let dt = sim.stable_dt(&comm);
            sim.advance(&comm, dt);
            sim.gather_full(&comm);
            (dt, interiors(&sim.grid))
        })
        .unwrap();
        for (dt_dist, state) in dist {
            assert_eq!(dt.to_bits(), dt_dist.to_bits(), "{mode:?}: dist dt");
            assert!(serial == state, "{mode:?}: Stepper vs DistSim interiors differ");
        }
    }
}
