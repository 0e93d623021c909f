//! Per-layer probes run by the traced pass on a workload's final grid,
//! and helpers that turn the library's recorded spans into per-step
//! figures.

use ablock_core::field::{FieldBlock, FieldShape};
use ablock_core::ghost::{GhostConfig, GhostExchange};
use ablock_core::grid::BlockGrid;
use ablock_obs::MetricsSnapshot;
use ablock_solver::kernel::compute_rhs_block;
use ablock_solver::physics::Physics;
use ablock_solver::SolverConfig;

use crate::run::{timed, Layers};
use crate::stats::median;
use crate::trace::Tracer;

const PROBE_REPS: usize = 5;

/// Total ms of every recorded span path whose last component is `leaf`.
pub fn leaf_ms(s: &MetricsSnapshot, leaf: &str) -> f64 {
    s.span_total_ns(leaf) as f64 / 1e6
}

/// Total ms of one exact span path.
pub fn path_ms(s: &MetricsSnapshot, path: &str) -> f64 {
    s.spans.get(path).map_or(0.0, |x| x.total_ns as f64 / 1e6)
}

/// What a recording sink took in between two of its snapshots, so that
/// set-up work stays out of the per-step figures.
pub fn since(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    for (k, v) in d.counters.iter_mut() {
        *v -= before.counter(k);
    }
    for (k, s) in d.spans.iter_mut() {
        if let Some(b) = before.spans.get(k) {
            s.count -= b.count;
            s.total_ns -= b.total_ns;
        }
    }
    d
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Ghost and kernel layers, probed on a workload's final grid. The
/// caller turns the plan's values per full fill into values per step
/// (`values_per_step`), which scales the probed fill cost to a step.
pub fn grid_layers<const D: usize, P: Physics>(
    layers: &mut Layers,
    grid: &mut BlockGrid<D>,
    cfg: &SolverConfig<P>,
    values_per_step: impl FnOnce(&BlockGrid<D>, f64) -> f64,
    tr: &mut Tracer,
) {
    let (build_ms, ns_per_value, volume) = ghost(grid, &cfg.ghost, tr);
    let values = values_per_step(grid, volume);
    layers.insert("ghost.plan_build_ms", build_ms);
    layers.insert("ghost.fill_ns_per_value", ns_per_value);
    layers.insert("ghost.values_per_step", values);
    layers.insert("ghost.fill_ms_per_step", ns_per_value * values / 1e6);
    let rhs_ns = kernel(grid, cfg, tr);
    layers.insert("kernel.rhs_ns_per_cell", rhs_ns);
    layers.insert(
        "kernel.bytes_per_cell_computed",
        bytes_per_cell_computed(grid.field_shape()),
    );
}

/// Ghost layer: time `GhostExchange::build` and `GhostExchange::fill` on
/// `grid` and relate the fill to the plan's `comm_volume`. Returns
/// (plan build ms, fill ns per value, values per fill).
fn ghost<const D: usize>(
    grid: &mut BlockGrid<D>,
    config: &GhostConfig,
    tr: &mut Tracer,
) -> (f64, f64, f64) {
    let mut build_ms = Vec::new();
    let mut plan = None;
    for _ in 0..PROBE_REPS {
        let (s, p) = tr.time("probe.ghost_build", || {
            timed(|| GhostExchange::build(grid, config.clone()))
        });
        build_ms.push(s * 1e3);
        plan = Some(p);
    }
    let plan = plan.expect("PROBE_REPS > 0");
    let volume = plan.comm_volume(grid) as f64;
    let mut fill_ns = Vec::new();
    for _ in 0..PROBE_REPS {
        let (s, ()) = tr.time("probe.ghost_fill", || timed(|| plan.fill(grid)));
        fill_ns.push(s * 1e9);
    }
    (median(&build_ms), ratio(median(&fill_ns), volume), volume)
}

/// Kernel layer: after one ghost fill, time `compute_rhs_block` over
/// every block; ns per interior cell, median of a few sweeps.
fn kernel<const D: usize, P: Physics>(
    grid: &mut BlockGrid<D>,
    cfg: &SolverConfig<P>,
    tr: &mut Tracer,
) -> f64 {
    let (phys, scheme) = (&cfg.physics, cfg.scheme);
    GhostExchange::build(grid, cfg.ghost.clone()).fill(grid);
    let mut rhs = FieldBlock::zeros(grid.field_shape());
    let mut scratch = Vec::new();
    let dims = grid.params().block_dims;
    let ids = grid.block_ids();
    let mut per_cell = Vec::new();
    for _ in 0..PROBE_REPS {
        let open = tr.begin("probe.rhs_sweep");
        let (s, ()) = timed(|| {
            for &id in &ids {
                let node = grid.block(id);
                let h = grid.layout().cell_size(node.key().level, dims);
                compute_rhs_block(phys, scheme, node.field(), h, &mut rhs, &mut scratch);
            }
        });
        tr.end(open);
        per_cell.push(s * 1e9 / grid.num_cells() as f64);
    }
    median(&per_cell)
}

/// Bytes one `compute_rhs_block` call touches per interior cell, computed
/// from the field shape (the ghosted input block is read once and the
/// RHS block written once); not measured.
fn bytes_per_cell_computed<const D: usize>(shape: FieldShape<D>) -> f64 {
    (2 * shape.len() * std::mem::size_of::<f64>()) as f64 / shape.interior_cells() as f64
}

/// Layer figures shared by the single-process workloads, from the
/// library's recording sink and the benchmark's own timings.
pub fn engine_and_phases(layers: &mut Layers, snap: &MetricsSnapshot, steps: f64) {
    let rebuilds = snap.counter("engine.plan_rebuilds") as f64;
    let reuses = snap.counter("engine.plan_reuses") as f64;
    layers.insert("engine.plan_rebuilds", rebuilds);
    layers.insert("engine.plan_reuse_frac", ratio(reuses, reuses + rebuilds));
    layers.insert(
        "kernel.flux_ms_per_step",
        ratio(leaf_ms(snap, "flux"), steps),
    );
    layers.insert(
        "stepper.update_ms_per_step",
        ratio(leaf_ms(snap, "update"), steps),
    );
    let busy = snap.counter("pool.busy_ns") as f64;
    let idle = snap.counter("pool.idle_ns") as f64;
    layers.insert("pool.busy_ms_per_step", ratio(busy / 1e6, steps));
    layers.insert("pool.idle_frac", ratio(idle, busy + idle));
}
