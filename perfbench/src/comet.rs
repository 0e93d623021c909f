//! `comet_subcycled`: the `examples/comet_tracking.rs` bullet (Mach ≈ 2
//! through still gas on the periodic box [0,2]×[0,1]) on 8×4 roots of
//! 8×8 cells up to level 3, Berger–Oliger subcycling with refluxing. The
//! benchmark adapts every 2 coarse cycles and writes an incremental
//! snapshot every 4, so this is the workload where the grid changes
//! while stepping reads it.

use std::time::Instant;

use ablock_amr::{AmrConfig, AmrSimulation, GradientCriterion};
use ablock_core::ghost::GhostExchange;
use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::verify::check_grid;
use ablock_io::snapshot::{write_snapshot, NodeStore};
use ablock_obs::Metrics;
use ablock_solver::stepper::total_conserved;
use ablock_solver::{problems, Euler, Scheme, SolverConfig, TimeStepMode};
use ablock_testkit::{grid_digest, Rng};

use crate::check;
use crate::probe::{self, leaf_ms, path_ms, ratio};
use crate::run::{measure, timed, Layers, Opts, Pass, Rep};
use crate::stats::mean;
use crate::trace::{summarize, Tracer};

const EXTENT: [f64; 2] = [2.0, 1.0];
const ADAPT_EVERY: usize = 2;
const SNAPSHOT_EVERY: usize = 4;

struct Shape {
    roots: [i64; 2],
    max_level: u8,
    cycles: usize,
}

fn shape(tiny: bool) -> Shape {
    if tiny {
        Shape {
            roots: [4, 2],
            max_level: 2,
            cycles: 4,
        }
    } else {
        Shape {
            roots: [8, 4],
            max_level: 3,
            cycles: 40,
        }
    }
}

type Sim = AmrSimulation<2, Euler<2>, GradientCriterion>;

/// The bullet of `examples/comet_tracking.rs`, launched from a point the
/// seed shifts by whole root blocks. On the periodic box such a shift
/// moves the whole problem by a lattice vector, so every seed does the
/// same work on differently numbered blocks.
fn launch_point(sh: &Shape, seed: u64) -> [f64; 2] {
    let mut rng = Rng::new(seed);
    let mut x0 = [0.3, 0.5];
    for d in 0..2 {
        let shift = rng.i64_in(0, sh.roots[d]) as f64 * EXTENT[d] / sh.roots[d] as f64;
        x0[d] = (x0[d] + shift) % EXTENT[d];
    }
    x0
}

fn bullet(grid: &mut BlockGrid<2>, e: &Euler<2>, x0: [f64; 2]) {
    problems::set_initial(grid, e, |x, w| {
        let mut r2 = 0.0;
        for d in 0..2 {
            let mut dx = x[d] - x0[d];
            dx -= EXTENT[d] * (dx / EXTENT[d]).round();
            r2 += dx * dx;
        }
        if r2 < 0.09 * 0.09 {
            w[0] = 8.0;
            w[1] = 2.0;
            w[3] = 2.0;
        } else {
            w[0] = 1.0;
            w[3] = 1.0;
        }
    });
}

fn setup(sh: &Shape, seed: u64, cfg: SolverConfig<Euler<2>>) -> Sim {
    let e = cfg.physics.clone();
    let layout = RootLayout::new(sh.roots, [0.0, 0.0], EXTENT, [Boundary::Periodic; 6]);
    let grid = BlockGrid::new(layout, GridParams::new([8, 8], 2, 4, sh.max_level));
    // the benchmark calls adapt_now itself; AmrSimulation's own cadence is off
    let amr = AmrConfig {
        adapt_every: usize::MAX,
        max_steps: usize::MAX,
    };
    let mut sim = AmrSimulation::new(grid, cfg, GradientCriterion::new(0, 0.1, 0.04), amr);
    let x0 = launch_point(sh, seed);
    sim.initial_adapt_with(4, None, |g| bullet(g, &e, x0));
    // first ghost-plan build: the engine plan and the per-level plans
    sim.stepper.stable_dt(&mut sim.grid);
    sim
}

/// Refluxing makes the subcycled update conservative at coarse/fine
/// faces, and adaptation transfers conservatively.
fn totals(grid: &BlockGrid<2>) -> [(&'static str, f64); 2] {
    [
        ("mass", total_conserved(grid, 0)),
        ("energy", total_conserved(grid, 3)),
    ]
}

/// Interior cell updates of one subcycled coarse cycle: a level-`l` block
/// takes `2^(l - lmin)` substeps.
fn cycle_updates(grid: &BlockGrid<2>) -> f64 {
    let hist = grid.level_histogram();
    let lmin = hist.iter().position(|&n| n > 0).unwrap_or(0);
    let cells = grid.params().field_shape().interior_cells() as f64;
    hist.iter()
        .enumerate()
        .skip(lmin)
        .map(|(l, &n)| n as f64 * cells * (1u64 << (l - lmin)) as f64)
        .sum()
}

pub fn pass(opts: &Opts, seconds: f64, traced: bool) -> (Pass, Layers) {
    let sh = shape(opts.tiny);
    let base = SolverConfig::new(Euler::<2>::new(5.0 / 3.0), Scheme::muscl_rusanov())
        .with_cfl(0.35)
        .with_time_step_mode(TimeStepMode::Subcycled)
        .with_refluxing(true);
    let origin = Instant::now();
    let mut last_grid = None;
    let mut pass = measure(seconds, sh.cycles, |setup_only| {
        let mut rep = Rep::default();
        let metrics = if traced {
            Metrics::recording()
        } else {
            Metrics::null()
        };
        let mut tr = Tracer::new(traced, 0, origin);
        let open = tr.begin("setup");
        let (s, mut sim) =
            timed(|| setup(&sh, opts.seed, base.clone().with_metrics(metrics.clone())));
        tr.end(open);
        rep.setup_s = s;
        rep.state_bytes = sim.grid.field_bytes() as u64;
        if setup_only {
            return rep;
        }
        let at_setup = metrics.snapshot();
        // check_grid is the from-scratch oracle; it runs untimed, here
        // after the initial adapt and below after every adapt_now
        if let Err(e) = check_grid(&sim.grid) {
            rep.fail(format!("check_grid after the initial adapt: {e}"));
        }
        let before = totals(&sim.grid);
        let mut store = NodeStore::new();
        let (mut adapts, mut writes) = (0usize, 0usize);
        let (mut bytes_new, mut bytes_all) = (0u64, 0u64);
        let mut blocks = Vec::with_capacity(sh.cycles);
        for i in 0..sh.cycles {
            let open = tr.begin("cycle");
            let adapt = i > 0 && i % ADAPT_EVERY == 0;
            if adapt {
                let (s, _) = timed(|| tr.time("adapt_now", || sim.adapt_now(None)));
                rep.between_ms += s * 1e3;
                adapts += 1;
                if let Err(e) = check_grid(&sim.grid) {
                    rep.fail(format!("cycle {i}: check_grid after adapt: {e}"));
                }
            }
            blocks.push(sim.grid.num_blocks() as f64);
            rep.cell_updates += cycle_updates(&sim.grid);
            let t0 = Instant::now();
            let dt = tr.time("stable_dt", || sim.stepper.stable_dt(&mut sim.grid));
            tr.time("advance", || sim.stepper.step(&mut sim.grid, dt, None));
            rep.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            sim.time += dt;
            if i % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
                let (s, r) = timed(|| {
                    tr.time("write_snapshot", || {
                        write_snapshot(&mut store, &sim.grid, i as u64)
                    })
                });
                rep.between_ms += s * 1e3;
                match r {
                    Ok(st) => {
                        writes += 1;
                        bytes_new += st.bytes_new;
                        bytes_all += st.bytes_new + st.bytes_shared;
                    }
                    Err(e) => rep.fail(format!("cycle {i}: write_snapshot: {e}")),
                }
            }
            tr.end(open);
            if opts.inject_nan == Some(i) {
                let id = sim.grid.block_ids()[0];
                check::corrupt(&mut sim.grid, id);
            }
            let ids = sim.grid.block_ids();
            if let Err(e) = check::admissible(&sim.grid, &sim.stepper.config().physics, &ids) {
                rep.fail(format!("cycle {i}: {e}"));
                rep.failed += (sh.cycles - i - 1) as u64;
                break;
            }
        }
        if rep.failed == 0 {
            if let Err(e) = check::conservation(&before, &totals(&sim.grid)) {
                rep.fail(e);
            }
        }
        rep.digest = grid_digest(&sim.grid);
        rep.layers.insert("grid.blocks_mean", mean(&blocks));
        rep.layers.insert("amr.adapt_calls", adapts as f64);
        rep.layers.insert(
            "snapshot.bytes_new_per_write",
            ratio(bytes_new as f64, writes as f64),
        );
        rep.layers.insert(
            "snapshot.dedup_ratio",
            ratio(bytes_all as f64, bytes_new as f64),
        );
        rep.spans = vec![tr.into_spans()];
        if traced && rep.samples_ms.len() == sh.cycles {
            rep.snapshots
                .push(probe::since(&metrics.snapshot(), &at_setup));
            last_grid = Some(sim.grid);
        }
        rep
    });
    let mut layers = Layers::new();
    if let (Some(rep), Some(mut grid)) = (pass.last_full(), last_grid) {
        let cycles = sh.cycles as f64;
        let snap = &rep.snapshots[0];
        probe::engine_and_phases(&mut layers, snap, cycles);
        let spans = summarize(&rep.spans);
        let span_ms = |name: &str| spans.get(name).map_or(0.0, |s| s.1 as f64 / 1e6);
        let span_mean_ms = |name: &str| {
            spans
                .get(name)
                .map_or(0.0, |s| s.1 as f64 / 1e6 / s.0 as f64)
        };
        layers.insert("stepper.dt_ms_per_step", span_ms("stable_dt") / cycles);
        let updates = snap.counter("subcycle.cell_updates") as f64;
        let uniform = snap.counter("subcycle.cell_updates_uniform") as f64;
        layers.insert("subcycle.update_frac", ratio(updates, uniform));
        for (l, name) in [
            "subcycle.lvl0_ms_per_cycle",
            "subcycle.lvl1_ms_per_cycle",
            "subcycle.lvl2_ms_per_cycle",
            "subcycle.lvl3_ms_per_cycle",
        ]
        .into_iter()
        .enumerate()
        {
            layers.insert(
                name,
                leaf_ms(snap, ablock_solver::subcycle::level_span(l as u8)) / cycles,
            );
        }
        layers.insert("reflux.ms_per_cycle", leaf_ms(snap, "reflux") / cycles);
        let adapts = rep.layers["amr.adapt_calls"];
        layers.insert("amr.adapt_ms", span_mean_ms("adapt_now"));
        layers.insert("amr.flag_ms", ratio(path_ms(snap, "adapt/flag"), adapts));
        layers.insert(
            "amr.cascade_ms",
            ratio(path_ms(snap, "adapt/cascade"), adapts),
        );
        layers.insert(
            "amr.adapt_ghost_fill_ms",
            ratio(path_ms(snap, "adapt/ghost_fill"), adapts),
        );
        let refined = snap.counter("amr.blocks_refined") as f64;
        let coarsened = snap.counter("amr.groups_coarsened") as f64;
        layers.insert("amr.blocks_refined_per_adapt", ratio(refined, adapts));
        layers.insert("amr.groups_coarsened_per_adapt", ratio(coarsened, adapts));
        layers.insert("snapshot.write_ms", span_mean_ms("write_snapshot"));
        for key in [
            "grid.blocks_mean",
            "snapshot.bytes_new_per_write",
            "snapshot.dedup_ratio",
        ] {
            layers.insert(key, rep.layers[key]);
        }
        let mut tr = Tracer::new(true, 0, origin);
        // Per cycle, level l fills its own sub-level plan once per RK2
        // stage of each of its 2^(l - lmin) substeps.
        let per_cycle = |grid: &BlockGrid<2>, _| {
            let plan = GhostExchange::build(grid, base.ghost.clone());
            let hist = grid.level_histogram();
            let lmin = hist.iter().position(|&n| n > 0).unwrap_or(0);
            (lmin..hist.len())
                .filter(|&l| hist[l] > 0)
                .map(|l| {
                    let fills = 2.0 * (1u64 << (l - lmin)) as f64;
                    fills * plan.sublevel_plan(grid, l as u8).comm_volume(grid) as f64
                })
                .sum()
        };
        probe::grid_layers(&mut layers, &mut grid, &base, per_cycle, &mut tr);
        pass.probe_spans.push(tr.into_spans());
    }
    (pass, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_launch_point_does_the_same_work() {
        let sh = shape(true);
        let updates = |seed| {
            let cfg = SolverConfig::new(Euler::<2>::new(5.0 / 3.0), Scheme::muscl_rusanov())
                .with_time_step_mode(TimeStepMode::Subcycled)
                .with_refluxing(true);
            let mut sim = setup(&sh, seed, cfg);
            let mut total = 0.0;
            for i in 0..sh.cycles {
                if i > 0 && i % ADAPT_EVERY == 0 {
                    sim.adapt_now(None);
                }
                total += cycle_updates(&sim.grid);
                let dt = sim.stepper.stable_dt(&mut sim.grid);
                sim.stepper.step(&mut sim.grid, dt, None);
            }
            total
        };
        let first = updates(1);
        for seed in 2..8 {
            assert_eq!(updates(seed), first, "seed {seed}");
        }
    }
}
