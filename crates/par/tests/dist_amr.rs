//! End-to-end distributed AMR: a blast tracked by a gradient criterion on
//! the message-passing machine, with replicated adapts and SFC
//! rebalancing mid-run, checked bit-for-bit against the serial driver.

use std::collections::HashMap;

use ablock_core::balance::{adapt, Flag};
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_par::{DistSim, Machine, Partitioner};
use ablock_core::sfc::Curve;
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::problems;
use ablock_solver::SolverConfig;
use ablock_solver::stepper::Stepper;

fn build() -> (BlockGrid<2>, Euler<2>) {
    let e = Euler::<2>::new(1.4);
    let mut g = BlockGrid::new(
        RootLayout::unit([4, 4], Boundary::Periodic),
        GridParams::new([4, 4], 2, 4, 2),
    );
    problems::sedov_blast(&mut g, &e, [0.5, 0.5], 0.12, 8.0);
    (g, e)
}

/// Deterministic per-block refine flags from the energy gradient (the
/// criterion used by both serial and distributed runs). Requires filled
/// ghosts.
fn energy_flags(grid: &BlockGrid<2>) -> HashMap<ablock_core::arena::BlockId, Flag> {
    let mut flags = HashMap::new();
    for (id, node) in grid.blocks() {
        if node.key().level >= grid.params().max_level {
            continue;
        }
        let f = node.field();
        let mut worst: f64 = 0.0;
        for c in f.shape().interior_box().iter() {
            for d in 0..2 {
                let mut cp = c;
                cp[d] += 1;
                let mut cm = c;
                cm[d] -= 1;
                worst = worst.max((f.at(cp, 3) - f.at(cm, 3)).abs() / (f.at(c, 3).abs() + 1e-12));
            }
        }
        if worst > 0.25 {
            flags.insert(id, Flag::Refine);
        }
    }
    flags
}

const DT: f64 = 1.0e-3;
const ROUNDS: usize = 3;
const STEPS_PER_ROUND: usize = 2;

/// Serial reference: step, adapt on cadence, step.
fn serial_run() -> (Vec<(BlockKey<2>, Vec<f64>)>, usize) {
    let (mut g, e) = build();
    let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
    for _ in 0..ROUNDS {
        for _ in 0..STEPS_PER_ROUND {
            st.step(&mut g, DT, None);
        }
        st.fill_ghosts(&mut g, None);
        let flags = energy_flags(&g);
        adapt(&mut g, &flags, Transfer::Conservative(ProlongOrder::LinearMinmod));
    }
    let mut out: Vec<(BlockKey<2>, Vec<f64>)> = g
        .blocks()
        .map(|(_, n)| (n.key(), n.field().as_slice().to_vec()))
        .collect();
    out.sort_by_key(|(k, _)| *k);
    (out, g.num_blocks())
}

#[test]
fn distributed_amr_blast_matches_serial() {
    let (serial, serial_blocks) = serial_run();
    let serial_map: HashMap<BlockKey<2>, Vec<f64>> = serial.into_iter().collect();

    for nranks in [2usize, 3] {
        let results = Machine::run(nranks, |comm| {
            let (g, e) = build();
            let mut sim =
                DistSim::partitioned(g, nranks, SolverConfig::new(e, Scheme::muscl_rusanov()));
            for _ in 0..ROUNDS {
                for _ in 0..STEPS_PER_ROUND {
                    sim.advance(&comm, DT);
                }
                // flags from owned blocks only (ghosts refreshed first)
                sim.fill_ghosts(&comm);
                let me = comm.rank();
                let all_flags = energy_flags(&sim.grid);
                let my_flags: HashMap<_, _> = all_flags
                    .into_iter()
                    .filter(|(id, _)| sim.owner[id] == me)
                    .collect();
                sim.adapt_rebalance(&comm, &my_flags);
            }
            ablock_core::verify::check_grid(&sim.grid).unwrap();
            let me = comm.rank();
            // every rank must agree on the topology
            let nb = sim.grid.num_blocks() as f64;
            let nb_max = comm.allreduce_max(nb);
            assert_eq!(nb, nb_max, "ranks disagree on topology");
            sim.owned_ids(me)
                .into_iter()
                .map(|id| {
                    let n = sim.grid.block(id);
                    (n.key(), n.field().as_slice().to_vec())
                })
                .collect::<Vec<_>>()
        }).unwrap();
        let flat: Vec<(BlockKey<2>, Vec<f64>)> = results.into_iter().flatten().collect();
        assert_eq!(
            flat.len(),
            serial_blocks,
            "P={nranks}: ownership must cover each block exactly once"
        );
        let shape = ablock_core::field::FieldShape::<2>::new([4, 4], 2, 4);
        for (key, data) in flat {
            let sref = serial_map
                .get(&key)
                .unwrap_or_else(|| panic!("P={nranks}: topology mismatch at {key:?}"));
            for c in shape.interior_box().iter() {
                let i = shape.lin(c);
                for v in 0..4 {
                    assert!(
                        (data[i + v] - sref[i + v]).abs() < 1e-12,
                        "P={nranks} block {key:?} cell {c:?} var {v}: {} vs {}",
                        data[i + v],
                        sref[i + v]
                    );
                }
            }
        }
    }
}

#[test]
fn distributed_amr_conserves_mass() {
    let totals = Machine::run(2, |comm| {
        let (g, e) = build();
        let total0 = ablock_solver::stepper::total_conserved(&g, 0);
        let mut sim = DistSim::partitioned(
            g,
            2,
            SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_partitioner(Partitioner::sfc(Curve::Morton)),
        );
        for _ in 0..2 {
            for _ in 0..2 {
                let dt = sim.stable_dt(&comm);
                sim.advance(&comm, dt);
            }
            sim.fill_ghosts(&comm);
            let me = comm.rank();
            let flags: HashMap<_, _> = energy_flags(&sim.grid)
                .into_iter()
                .filter(|(id, _)| sim.owner[id] == me)
                .collect();
            sim.adapt_rebalance(&comm, &flags);
        }
        // owned-mass reduction
        let me = comm.rank();
        let m = sim.grid.params().block_dims;
        let mut local = 0.0;
        for id in sim.owned_ids(me) {
            let n = sim.grid.block(id);
            let h = sim.grid.layout().cell_size(n.key().level, m);
            local += n.field().interior_sum(0) * h[0] * h[1];
        }
        (comm.allreduce_sum(local), total0)
    }).unwrap();
    for (total, total0) in totals {
        // periodic box; only the coarse/fine flux mismatch leaks
        assert!(
            (total - total0).abs() < 5e-4 * total0,
            "mass {total0} -> {total}"
        );
    }
}
