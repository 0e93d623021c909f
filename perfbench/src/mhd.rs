//! `mhd3d_m16` and `mhd3d_m4`: the 3-D ideal-MHD blast on periodic
//! boundaries, 110,592 cells either as 27 blocks of 16³ (serial
//! `Stepper`, FIG5's operating point) or as 1,728 blocks of 4³
//! (`ParStepper`, where per-block overhead and ghost traffic dominate).
//! MUSCL + Rusanov, SSP-RK2 at `stable_dt`, no adaptation.

use std::time::Instant;

use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_obs::Metrics;
use ablock_par::ParStepper;
use ablock_solver::mhd::IdealMhd;
use ablock_solver::stepper::total_conserved;
use ablock_solver::{problems, Scheme, SolverConfig, Stepper};
use ablock_testkit::{grid_digest, Rng};

use crate::check;
use crate::probe;
use crate::run::{measure, timed, Layers, Opts, Pass, Rep};
use crate::trace::{summarize, Tracer};

struct Shape {
    roots: [i64; 3],
    m: i64,
    pool: bool,
    steps: usize,
}

fn shape(pool: bool, tiny: bool) -> Shape {
    match (pool, tiny) {
        (false, false) => Shape {
            roots: [3, 3, 3],
            m: 16,
            pool,
            steps: 16,
        },
        (true, false) => Shape {
            roots: [12, 12, 12],
            m: 4,
            pool,
            steps: 8,
        },
        (false, true) => Shape {
            roots: [2, 2, 2],
            m: 8,
            pool,
            steps: 3,
        },
        (true, true) => Shape {
            roots: [4, 4, 4],
            m: 4,
            pool,
            steps: 3,
        },
    }
}

enum Exec {
    Serial(Stepper<3, IdealMhd>),
    Pool(ParStepper<3, IdealMhd>),
}

impl Exec {
    fn stable_dt(&mut self, grid: &mut BlockGrid<3>) -> f64 {
        match self {
            Exec::Serial(s) => s.stable_dt(grid),
            Exec::Pool(p) => p.stable_dt(grid),
        }
    }

    fn step(&mut self, grid: &mut BlockGrid<3>, dt: f64) {
        match self {
            Exec::Serial(s) => s.step(grid, dt, None),
            Exec::Pool(p) => p.step(grid, dt),
        }
    }

    fn build_plan(&mut self, grid: &BlockGrid<3>) {
        match self {
            Exec::Serial(s) => s.engine_mut().revalidate(grid),
            Exec::Pool(p) => p.engine_mut().revalidate(grid),
        };
    }
}

/// The grid of `ablock_bench::mhd_grid_3d(roots, m, 0, 0)` with the blast
/// drawn from the seed: the centre moves by whole cells (on the periodic
/// box that relabels cells without changing the problem) and the inner
/// pressure varies by 1%. Work per step grows as the Powell source
/// switches on where div B leaves zero, so larger changes to the blast
/// would change the work the schedule does.
fn setup(sh: &Shape, seed: u64, cfg: &SolverConfig<IdealMhd>) -> (BlockGrid<3>, Exec) {
    let mut rng = Rng::new(seed);
    let cells = sh.roots[0] * sh.m;
    let mut center = [0.5; 3];
    for c in &mut center {
        *c += rng.i64_in(-cells / 6, cells / 6 + 1) as f64 / cells as f64;
    }
    let p_in = 10.0 * rng.f64_in(0.99, 1.01);
    let params = GridParams::new([sh.m; 3], 2, 8, 0);
    let mut grid = BlockGrid::new(RootLayout::unit(sh.roots, Boundary::Periodic), params);
    problems::mhd_blast(&mut grid, &cfg.physics, center, 0.25, p_in, 0.5);
    let mut exec = if sh.pool {
        Exec::Pool(ParStepper::new(cfg.clone()))
    } else {
        Exec::Serial(Stepper::new(cfg.clone()))
    };
    exec.build_plan(&grid);
    (grid, exec)
}

/// Mass only: the Powell 8-wave source term adds `-(div B)(u.B)` to the
/// energy equation, so total energy is not conserved by this scheme.
fn totals(grid: &BlockGrid<3>) -> [(&'static str, f64); 1] {
    [("mass", total_conserved(grid, 0))]
}

pub fn pass(pool: bool, opts: &Opts, seconds: f64, traced: bool) -> (Pass, Layers) {
    let sh = shape(pool, opts.tiny);
    let base = SolverConfig::new(IdealMhd::new(5.0 / 3.0), Scheme::muscl_rusanov());
    let origin = Instant::now();
    let mut last_grid = None;
    let mut pass = measure(seconds, sh.steps, |setup_only| {
        let mut rep = Rep::default();
        let metrics = if traced {
            Metrics::recording()
        } else {
            Metrics::null()
        };
        let cfg = base.clone().with_metrics(metrics.clone());
        let mut tr = Tracer::new(traced, 0, origin);
        let open = tr.begin("setup");
        let (s, (mut grid, mut exec)) = timed(|| setup(&sh, opts.seed, &cfg));
        tr.end(open);
        rep.setup_s = s;
        rep.state_bytes = grid.field_bytes() as u64;
        if setup_only {
            return rep;
        }
        let at_setup = metrics.snapshot();
        let before = totals(&grid);
        let ids = grid.block_ids();
        let cells = grid.num_cells() as f64;
        for i in 0..sh.steps {
            let open = tr.begin("step");
            let t0 = Instant::now();
            let dt = tr.time("stable_dt", || exec.stable_dt(&mut grid));
            tr.time("advance", || exec.step(&mut grid, dt));
            rep.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tr.end(open);
            rep.cell_updates += cells;
            if opts.inject_nan == Some(i) {
                check::corrupt(&mut grid, ids[0]);
            }
            if let Err(e) = check::admissible(&grid, &cfg.physics, &ids) {
                rep.fail(format!("step {i}: {e}"));
                rep.failed += (sh.steps - i - 1) as u64;
                break;
            }
        }
        if rep.failed == 0 {
            if let Err(e) = check::conservation(&before, &totals(&grid)) {
                rep.fail(e);
            }
        }
        rep.digest = grid_digest(&grid);
        rep.spans = vec![tr.into_spans()];
        if traced && rep.samples_ms.len() == sh.steps {
            rep.snapshots
                .push(probe::since(&metrics.snapshot(), &at_setup));
            last_grid = Some(grid);
        }
        rep
    });
    let mut layers = Layers::new();
    if let (Some(rep), Some(mut grid)) = (pass.last_full(), last_grid) {
        let steps = sh.steps as f64;
        probe::engine_and_phases(&mut layers, &rep.snapshots[0], steps);
        let dt_ns = summarize(&rep.spans).get("stable_dt").map_or(0, |s| s.1) as f64;
        layers.insert("stepper.dt_ms_per_step", dt_ns / 1e6 / steps);
        let mut tr = Tracer::new(true, 0, origin);
        // one fill per SSP-RK2 stage
        probe::grid_layers(&mut layers, &mut grid, &base, |_, v| 2.0 * v, &mut tr);
        layers.insert("grid.blocks_mean", grid.num_blocks() as f64);
        pass.probe_spans.push(tr.into_spans());
    }
    (pass, layers)
}
