//! Parallel demo: real threads + the 512-PE cost model, side by side.
//!
//! ```text
//! cargo run --release --example parallel_scaling
//! ```
//!
//! Part 1 runs the same MHD blast on 1, 2, and 4 *real* ranks of the
//! message-passing machine and checks the answers agree — the distributed
//! substrate is exact, not approximate. Part 2 swaps silicon for the BSP
//! cost model and sweeps to 512 ranks, printing the weak-scaling
//! efficiency column of the paper's Fig. 6.

use std::collections::HashMap;

use adaptive_blocks::par::{model_step, CostParams, DistSim, Machine, Partitioner};
use adaptive_blocks::prelude::*;

fn build_grid(roots: [i64; 2]) -> BlockGrid<2> {
    BlockGrid::new(
        RootLayout::unit(roots, Boundary::Periodic),
        GridParams::new([8, 8], 2, 8, 2),
    )
}

fn main() {
    let mhd = IdealMhd::new(5.0 / 3.0);

    // ---------- part 1: real ranks, exact agreement -------------------
    println!("== part 1: message-passing machine (threads) ==");
    let mut checksums = Vec::new();
    for nranks in [1usize, 2, 4] {
        let mhd = mhd.clone();
        let sums = Machine::run(nranks, |comm| {
            let mut g = build_grid([4, 4]);
            problems::mhd_blast(&mut g, &mhd, [0.5, 0.5], 0.15, 5.0, 0.3);
            let mut sim = DistSim::partitioned(
                g,
                nranks,
                SolverConfig::new(mhd.clone(), Scheme::muscl_rusanov()).with_cfl(0.3),
            );
            for _ in 0..5 {
                let dt = sim.stable_dt(&comm);
                sim.advance(&comm, dt);
            }
            // checksum of owned interiors
            let mut local = 0.0;
            for id in sim.owned_ids(comm.rank()) {
                local += sim.grid.block(id).field().interior_sum(0);
            }
            comm.allreduce_sum(local)
        }).unwrap();
        println!("  P = {nranks}: total density checksum = {:.12}", sums[0]);
        checksums.push(sums[0]);
    }
    let spread = checksums
        .iter()
        .map(|c| (c - checksums[0]).abs())
        .fold(0.0f64, f64::max);
    println!("  max deviation across rank counts: {spread:.3e} (exact modulo fp roundoff)");

    // ---------- part 2: the 512-PE cost model --------------------------
    println!("\n== part 2: BSP cost model, weak scaling to 512 ranks (Fig. 6 shape) ==");
    println!("  {:>5}  {:>8}  {:>10}  {:>10}", "P", "blocks", "T_step(ms)", "efficiency");
    // topology blocks are 4^3 cells; the model charges for 16^3 MHD blocks
    let params = CostParams::t3d_like(2.0e-6, 16.0, 4.0, 8.0);
    for p in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        // 8 blocks per rank: grow the root lattice with P
        let total_blocks = 8 * p;
        let side = (total_blocks as f64).cbrt().round() as i64;
        let (rx, ry, rz) = pick_roots(total_blocks, side);
        let g = BlockGrid::<3>::new(
            RootLayout::unit([rx, ry, rz], Boundary::Periodic),
            GridParams::new([4, 4, 4], 2, 1, 1),
        );
        let plan = ablock_core::ghost::GhostExchange::build(
            &g,
            ablock_core::ghost::GhostConfig::default(),
        );
        let owner: HashMap<_, _> = Partitioner::default().partition_grid(&g, p);
        let cost = model_step(&g, &plan, &owner, p, &params);
        println!(
            "  {:>5}  {:>8}  {:>10.3}  {:>10.4}",
            p,
            g.num_blocks(),
            cost.time * 1e3,
            cost.efficiency()
        );
    }
    println!("\n(the full Fig. 6/7 harness lives in `cargo run -p ablock-bench --bin fig6_weak_scaling`)");
}

/// Factor `n` into three near-equal root counts whose product is `n`.
fn pick_roots(n: usize, hint: i64) -> (i64, i64, i64) {
    let mut best = (1i64, 1i64, n as i64);
    let mut best_score = i64::MAX;
    for a in 1..=(n as i64) {
        if n as i64 % a != 0 {
            continue;
        }
        let rest = n as i64 / a;
        for b in 1..=rest {
            if rest % b != 0 {
                continue;
            }
            let c = rest / b;
            let score = (a - hint).abs() + (b - hint).abs() + (c - hint).abs();
            if score < best_score {
                best_score = score;
                best = (a, b, c);
            }
        }
    }
    best
}
