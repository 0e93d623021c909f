//! `dist2_tracking`: `DistSim` over `Machine::run` with `min(2, nproc)`
//! ranks. A 2-D Euler Sedov blast on 8×8 periodic roots of 16×16 cells,
//! max level 2, global SSP-RK2 at `stable_dt`, comm overlap at its
//! default. Every 8 steps a `BallCriterion` region that sweeps across the
//! domain flags owned blocks and `adapt_rebalance` runs. This is the only
//! workload that runs the aggregated pack/send/unpack, the CFL allreduce,
//! incremental rebalance and migration, and the replicated per-rank grid.
//!
//! Its output check is the bitwise serial replay, not conservation:
//! `DistSim`'s global step does no refluxing, so mass and energy move at
//! coarse/fine faces by design.

use std::collections::HashMap;
use std::time::Instant;

use ablock_amr::criteria::flag_blocks;
use ablock_amr::BallCriterion;
use ablock_core::arena::BlockId;
use ablock_core::balance::{adapt, Flag};
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_core::verify::check_grid;
use ablock_obs::{Metrics, MetricsSnapshot};
use ablock_par::{model_step_cached, Comm, CostParams, DistSim, Machine};
use ablock_solver::{problems, Euler, Scheme, SolverConfig, Stepper};
use ablock_testkit::{grid_digest, Rng};

use crate::check;
use crate::probe::{self, leaf_ms, ratio};
use crate::run::{measure, timed, Layers, Opts, Pass, Rep};
use crate::stats::mean;
use crate::trace::{summarize, SpanRec, Tracer};

/// The conservative transfer `DistSim::adapt_rebalance` uses for MUSCL.
const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);
/// Ball radius; not a dyadic fraction, so the ball never touches a block
/// edge exactly and flags do not hinge on rounding.
const BALL_RADIUS: f64 = 0.11;
/// Initial adapt rounds (one level each) before the schedule.
const INITIAL_ADAPTS: usize = 2;
/// Virtual ranks of the cost-model efficiency figure.
const MODEL_RANKS: usize = 64;

struct Shape {
    roots: [i64; 2],
    m: i64,
    max_level: u8,
    steps: usize,
    adapt_every: usize,
}

fn shape(tiny: bool) -> Shape {
    if tiny {
        Shape {
            roots: [4, 4],
            m: 8,
            max_level: 2,
            steps: 8,
            adapt_every: 4,
        }
    } else {
        Shape {
            roots: [8, 8],
            m: 16,
            max_level: 2,
            steps: 64,
            adapt_every: 8,
        }
    }
}

/// Seeded inputs: blast centre and pressure, and the ball's path.
struct Inputs {
    center: [f64; 2],
    p_blast: f64,
    /// Ball centre at adapt `k` is `start + k * step`.
    start: [f64; 2],
    step: [f64; 2],
}

/// The ball runs along one axis, in one direction, on a lane the seed
/// picks; every such path is the same path moved by whole root blocks
/// or mirrored, so every seed refines the same number of blocks. The
/// path stays at least one radius inside the box.
fn inputs(sh: &Shape, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let center = [rng.f64_in(0.3, 0.7), rng.f64_in(0.3, 0.7)];
    let p_blast = rng.f64_in(5.0, 10.0);
    let axis = rng.usize_below(2);
    let forward = rng.coin();
    let root = 1.0 / sh.roots[1 - axis] as f64;
    // lanes centred half a root block inside the middle roots
    let lanes = (sh.roots[1 - axis] as usize / 2).max(1);
    let lane = rng.usize_below(lanes) as f64;
    let lateral = (sh.roots[1 - axis] as f64 / 4.0 + lane + 0.5) * root;
    let adapts = (sh.steps / sh.adapt_every) as f64;
    let travel = 0.5 / adapts;
    let mut start = [0.0; 2];
    let mut step = [0.0; 2];
    start[1 - axis] = lateral;
    start[axis] = if forward { 0.25 } else { 0.75 };
    step[axis] = if forward { travel } else { -travel };
    Inputs {
        center,
        p_blast,
        start,
        step,
    }
}

fn ball(inp: &Inputs, k: usize) -> BallCriterion<2> {
    let c = [
        inp.start[0] + k as f64 * inp.step[0],
        inp.start[1] + k as f64 * inp.step[1],
    ];
    BallCriterion {
        center: c,
        radius: BALL_RADIUS,
    }
}

fn initial_grid(sh: &Shape, inp: &Inputs, e: &Euler<2>) -> BlockGrid<2> {
    let layout = RootLayout::unit(sh.roots, Boundary::Periodic);
    let mut grid = BlockGrid::new(layout, GridParams::new([sh.m, sh.m], 2, 4, sh.max_level));
    problems::sedov_blast(&mut grid, e, inp.center, 0.1, inp.p_blast);
    grid
}

fn owned_flags(
    sim: &DistSim<2, Euler<2>>,
    me: usize,
    crit: &BallCriterion<2>,
) -> HashMap<BlockId, Flag> {
    let mut flags = flag_blocks(&sim.grid, crit);
    flags.retain(|id, _| sim.owner[id] == me);
    flags
}

/// What one rank brings back from one repetition.
#[derive(Default)]
struct RankOut {
    setup_s: f64,
    samples_ms: Vec<f64>,
    between_ms: f64,
    cell_updates: f64,
    failed: u64,
    errors: Vec<String>,
    digest: u64,
    state_bytes: u64,
    spans: Vec<SpanRec>,
    snapshot: Option<MetricsSnapshot>,
    /// Rank 0's grid after `gather_full`: authoritative everywhere.
    grid: Option<BlockGrid<2>>,
    msgs: u64,
    values: u64,
    wait_ms: f64,
    owned_bytes: f64,
    blocks: Vec<f64>,
}

/// Point-to-point messages and values this rank has sent so far.
fn traffic(comm: &Comm) -> (u64, u64) {
    (comm.sent_msgs.get(), comm.sent_values.get())
}

impl RankOut {
    /// Count the traffic of the library calls made since `since`.
    fn add_traffic(&mut self, comm: &Comm, since: (u64, u64)) {
        let now = traffic(comm);
        self.msgs += now.0 - since.0;
        self.values += now.1 - since.1;
    }
}

/// What every rank of a repetition shares.
struct Ctx<'a> {
    sh: &'a Shape,
    inp: &'a Inputs,
    base: &'a SolverConfig<Euler<2>>,
    opts: &'a Opts,
    traced: bool,
    origin: Instant,
}

/// One repetition on one rank. Every branch that decides whether to go
/// on is taken on all ranks alike (checks are reduced first), so no rank
/// is left waiting in a collective.
fn rank_rep(comm: &Comm, ctx: &Ctx, setup_only: bool) -> RankOut {
    let Ctx {
        sh,
        inp,
        base,
        opts,
        traced,
        origin,
    } = *ctx;
    let me = comm.rank();
    let mut out = RankOut::default();
    let metrics = if traced {
        Metrics::recording()
    } else {
        Metrics::null()
    };
    let cfg = base.clone().with_metrics(metrics.clone());
    let mut tr = Tracer::new(traced, me, origin);
    comm.barrier();
    let open = tr.begin("setup");
    let (s, mut sim) = timed(|| {
        let grid = initial_grid(sh, inp, &cfg.physics);
        let mut sim = DistSim::partitioned(grid, comm.nranks(), cfg.clone());
        for _ in 0..INITIAL_ADAPTS {
            let flags = owned_flags(&sim, me, &ball(inp, 0));
            sim.adapt_rebalance(comm, &flags);
        }
        // DistSim builds its ghost plan and aggregated exchange lazily
        // in the first step; no public call builds them alone
        sim
    });
    tr.end(open);
    out.setup_s = comm.allreduce_max(s);
    out.state_bytes = sim.grid.field_bytes() as u64;
    if setup_only {
        return out;
    }
    let at_setup = metrics.snapshot();
    // check_grid (untimed) after the initial adapt and after every adapt
    let mut topology = check_grid(&sim.grid).err();
    for i in 0..sh.steps {
        comm.barrier();
        if i > 0 && i % sh.adapt_every == 0 {
            let flags = owned_flags(&sim, me, &ball(inp, i / sh.adapt_every));
            let sent = traffic(comm);
            let (s, _) = timed(|| tr.time("adapt_rebalance", || sim.adapt_rebalance(comm, &flags)));
            out.add_traffic(comm, sent);
            out.between_ms += comm.allreduce_max(s * 1e3);
            topology = check_grid(&sim.grid).err();
            // a rank done early would otherwise wait inside the step
            comm.barrier();
        }
        let sent = traffic(comm);
        let open = tr.begin("step");
        let t0 = Instant::now();
        let dt = tr.time("stable_dt", || sim.stable_dt(comm));
        tr.time("advance", || sim.advance(comm, dt));
        let local_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.end(open);
        out.add_traffic(comm, sent);
        if traced {
            let (w, ()) = tr.time("barrier", || timed(|| comm.barrier()));
            out.wait_ms += w * 1e3;
        }
        out.samples_ms.push(comm.allreduce_max(local_ms));
        out.cell_updates += sim.grid.num_cells() as f64;
        out.blocks.push(sim.grid.num_blocks() as f64);
        let owned = sim.owned_ids(me);
        if opts.inject_nan == Some(i) && me == 0 && !owned.is_empty() {
            check::corrupt(&mut sim.grid, owned[0]);
        }
        let bad = match topology.take() {
            Some(e) => Err(format!("check_grid: {e}")),
            None => check::admissible(&sim.grid, &cfg.physics, &owned),
        };
        if let Err(e) = &bad {
            out.errors.push(format!("rank {me} step {i}: {e}"));
        }
        if comm.allreduce_max(if bad.is_err() { 1.0 } else { 0.0 }) > 0.0 {
            out.failed = (sh.steps - i) as u64;
            break;
        }
    }
    let shape_len = sim.grid.field_shape().len();
    out.owned_bytes = (sim.owned_ids(me).len() * shape_len * 8) as f64;
    sim.gather_full(comm);
    out.spans = tr.into_spans();
    out.snapshot = traced.then(|| probe::since(&metrics.snapshot(), &at_setup));
    if me == 0 {
        out.digest = grid_digest(&sim.grid);
        out.grid = Some(sim.grid);
    }
    out
}

/// The same inputs and flag schedule on the serial `Stepper`: the oracle
/// the gathered distributed state must equal bitwise.
fn serial_replay(sh: &Shape, inp: &Inputs, base: &SolverConfig<Euler<2>>) -> BlockGrid<2> {
    let mut grid = initial_grid(sh, inp, &base.physics);
    let mut stepper: Stepper<2, Euler<2>> = Stepper::new(base.clone());
    for _ in 0..INITIAL_ADAPTS {
        let flags = flag_blocks(&grid, &ball(inp, 0));
        adapt(&mut grid, &flags, TRANSFER);
    }
    for i in 0..sh.steps {
        if i > 0 && i % sh.adapt_every == 0 {
            let flags = flag_blocks(&grid, &ball(inp, i / sh.adapt_every));
            adapt(&mut grid, &flags, TRANSFER);
        }
        let dt = stepper.stable_dt(&mut grid);
        stepper.step(&mut grid, dt, None);
    }
    grid
}

fn nranks() -> usize {
    ablock_par::pool::nthreads().min(2)
}

pub fn pass(opts: &Opts, seconds: f64, traced: bool) -> (Pass, Layers) {
    let sh = shape(opts.tiny);
    let inp = inputs(&sh, opts.seed);
    let base = SolverConfig::new(Euler::<2>::new(1.4), Scheme::muscl_rusanov());
    let origin = Instant::now();
    let mut replayed = false;
    let mut last: Option<(BlockGrid<2>, Vec<RankOut>)> = None;
    let mut pass = measure(seconds, sh.steps, |setup_only| {
        let mut rep = Rep::default();
        let ctx = Ctx {
            sh: &sh,
            inp: &inp,
            base: &base,
            opts,
            traced,
            origin,
        };
        let result = Machine::run(nranks(), |comm| rank_rep(&comm, &ctx, setup_only));
        let mut outs = match result {
            Ok(outs) => outs,
            Err(e) => {
                rep.failed = sh.steps as u64;
                rep.errors.push(format!("machine run failed: {e}"));
                return rep;
            }
        };
        rep.setup_s = outs[0].setup_s;
        rep.state_bytes = outs.iter().map(|o| o.state_bytes).sum();
        if setup_only {
            return rep;
        }
        rep.samples_ms = std::mem::take(&mut outs[0].samples_ms);
        rep.between_ms = outs[0].between_ms;
        rep.cell_updates = outs[0].cell_updates;
        rep.failed = outs[0].failed;
        rep.digest = outs[0].digest;
        rep.errors = outs
            .iter_mut()
            .flat_map(|o| std::mem::take(&mut o.errors))
            .collect();
        rep.spans = outs
            .iter_mut()
            .map(|o| std::mem::take(&mut o.spans))
            .collect();
        rep.snapshots = outs.iter_mut().filter_map(|o| o.snapshot.take()).collect();
        let grid = outs[0]
            .grid
            .take()
            .expect("rank 0 returns its gathered grid");
        // the bitwise oracle runs once per run, outside any timing
        if !replayed && rep.failed == 0 {
            replayed = true;
            let serial = serial_replay(&sh, &inp, &base);
            match check::bitwise_diff(&grid, &serial) {
                Some(diff) => rep.fail(format!(
                    "gather_full differs from the serial replay: {diff}"
                )),
                None => println!(
                    "serial replay: gathered state bitwise equal to the serial Stepper ({} blocks)",
                    serial.num_blocks()
                ),
            }
        }
        if traced && rep.samples_ms.len() == sh.steps {
            last = Some((grid, outs));
        }
        rep
    });
    let mut layers = Layers::new();
    if let (Some(rep), Some((mut grid, outs))) = (pass.last_full(), last) {
        let steps = sh.steps as f64;
        let snap0 = &rep.snapshots[0];
        probe::engine_and_phases(&mut layers, snap0, steps);
        // the slowest rank sets the step time
        let max_leaf = |leaf: &str| {
            rep.snapshots
                .iter()
                .map(|s| leaf_ms(s, leaf))
                .fold(0.0, f64::max)
        };
        layers.insert("kernel.flux_ms_per_step", max_leaf("flux") / steps);
        layers.insert("dist.pack_ms_per_step", max_leaf("pack") / steps);
        layers.insert("dist.unpack_ms_per_step", max_leaf("unpack") / steps);
        layers.insert("dist.overlap_flux_ms_per_step", max_leaf("overlap") / steps);
        let per_lane: Vec<_> = rep
            .spans
            .iter()
            .map(|l| summarize(std::slice::from_ref(l)))
            .collect();
        let max_span = |name: &str, per_call: bool| {
            per_lane
                .iter()
                .filter_map(|s| s.get(name))
                .map(|&(n, total, _)| total as f64 / 1e6 / if per_call { n as f64 } else { steps })
                .fold(0.0, f64::max)
        };
        layers.insert("dist.reduce_ms_per_step", max_span("stable_dt", false));
        layers.insert("stepper.dt_ms_per_step", max_span("stable_dt", false));
        layers.insert("dist.rebalance_ms", max_span("adapt_rebalance", true));
        layers.insert(
            "dist.wait_ms_per_step",
            outs.iter().map(|o| o.wait_ms).fold(0.0, f64::max) / steps,
        );
        let msgs: u64 = outs.iter().map(|o| o.msgs).sum();
        let values: u64 = outs.iter().map(|o| o.values).sum();
        layers.insert("comm.msgs_per_step", msgs as f64 / steps);
        layers.insert("comm.bytes_per_step", values as f64 * 8.0 / steps);
        let migrated = snap0.counter("dist.rebalance.migrated_blocks") as f64;
        let rebalances = snap0.counter("dist.rebalance.count") as f64;
        layers.insert(
            "dist.migrated_blocks_per_rebalance",
            ratio(migrated, rebalances),
        );
        layers.insert("dist.field_bytes_per_rank", grid.field_bytes() as f64);
        layers.insert(
            "dist.owned_field_bytes_per_rank",
            outs.iter().map(|o| o.owned_bytes).fold(0.0, f64::max),
        );
        layers.insert("grid.blocks_mean", mean(&outs[0].blocks));
        // modeled parallel efficiency of the final grid at 64 ranks,
        // costed with the same T3D-era rates as the phase-breakdown bench
        let owner = base.partitioner.partition_grid(&grid, MODEL_RANKS);
        let m = sh.m as f64;
        let params = CostParams::t3d_like(700.0 / 33.0e6, m, m, 4.0);
        let mut engine = base.engine();
        let cost = model_step_cached(&grid, &mut engine, &owner, MODEL_RANKS, &params);
        layers.insert("model.eff_64rank", cost.efficiency());
        let mut tr = Tracer::new(true, 0, origin);
        // one fill per SSP-RK2 stage
        probe::grid_layers(&mut layers, &mut grid, &base, |_, v| 2.0 * v, &mut tr);
        pass.probe_spans.push(tr.into_spans());
    }
    (pass, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_refines_the_same_number_of_blocks() {
        let sh = shape(false);
        let e = Euler::<2>::new(1.4);
        let count = |seed| {
            let inp = inputs(&sh, seed);
            let mut g = initial_grid(&sh, &inp, &e);
            let mut n = Vec::new();
            for k in 0..=sh.steps / sh.adapt_every {
                let rounds = if k == 0 { INITIAL_ADAPTS } else { 1 };
                for _ in 0..rounds {
                    let flags = flag_blocks(&g, &ball(&inp, k));
                    adapt(&mut g, &flags, TRANSFER);
                }
                n.push(g.num_blocks());
            }
            n
        };
        let first = count(1);
        for seed in 2..12 {
            assert_eq!(count(seed), first, "seed {seed}");
        }
    }
}
