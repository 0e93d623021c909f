//! Shared-memory parallel executor (scoped std threads).
//!
//! The paper claims the data structure is "particularly well suited to
//! high-performance machines, both serial and parallel". This module is
//! the shared-memory side of that claim: blocks are the natural
//! parallelization unit — RHS kernels per block are embarrassingly
//! parallel, and ghost exchange becomes a two-phase **gather/scatter**
//! (gather reads only sources, scatter writes only destinations), each
//! phase running over the [`crate::pool`] helpers with no locks.
//!
//! `ParStepper` is the pool [`Backend`] of the one time-stepping driver
//! in `ablock_solver::driver`: the driver decides the integrator stages,
//! refluxing, subcycling and the CFL reduction, so results match the
//! serial `Stepper` bitwise (the tests below and the differential suites
//! check it); only the execution order across blocks differs, and no
//! arithmetic crosses block boundaries outside the ghost plan. Flux
//! sweeps are issued in the [`SolverConfig`] partitioner's
//! space-filling-curve order (cached by topology epoch), so spatially
//! adjacent blocks land on the same worker's contiguous chunk — a
//! bitwise-neutral permutation that improves ghost-source cache reuse.

use std::collections::HashMap;

use crate::pool;

use ablock_core::arena::BlockId;
use ablock_core::field::{FieldBlock, FieldShape};
use ablock_core::ghost::{synthesize_boundary, GhostConfig, GhostExchange, GhostTask};
use ablock_core::grid::{BlockGrid, BlockNode};
use ablock_core::index::{IBox, IVec};
use ablock_core::layout::RootLayout;
use ablock_core::ops::{prolong, restrict_avg, ProlongOrder};
use ablock_core::partition::CurveWalk;
use ablock_obs::{phase, Metrics};

use ablock_solver::config::SolverConfig;
use ablock_solver::driver::{self, Backend, BlockStage, Plan, UpdateFn};
use ablock_solver::engine::{BcFn, SweepEngine};
use ablock_solver::kernel::{compute_rhs_block_fluxes, FaceFluxStore};
use ablock_solver::physics::Physics;
use ablock_solver::subcycle::SubcycleState;

/// Disjoint mutable references `out[i] = &mut v[ids[i].index()]`;
/// `ids` must be strictly increasing by index (arena order is).
fn indexed_refs<'a, T>(v: &'a mut [T], ids: &[BlockId]) -> Vec<&'a mut T> {
    let mut out = Vec::with_capacity(ids.len());
    let mut rest = v;
    let mut offset = 0usize;
    for &id in ids {
        let idx = id.index();
        debug_assert!(idx >= offset, "ids must be strictly increasing");
        let (_, tail) = rest.split_at_mut(idx - offset);
        let (item, tail2) = tail.split_first_mut().expect("scratch too small");
        out.push(item);
        rest = tail2;
        offset = idx + 1;
    }
    out
}

/// Ghost values computed in the gather phase, ready to be written into one
/// destination block. `data` is variable-major (variable planes outer,
/// region cells x-fastest within a plane) — the natural order of both the
/// SoA field storage and the staging blocks the transfer operators fill.
struct ReadyOp<const D: usize> {
    region: IBox<D>,
    data: Vec<f64>,
}

/// Gather one non-physical task's destination values by reading only the
/// source block.
fn gather_task<const D: usize>(
    grid: &BlockGrid<D>,
    task: &GhostTask<D>,
    order: ProlongOrder,
) -> Option<(BlockId, ReadyOp<D>)> {
    let nvar = grid.params().nvar;
    match task {
        GhostTask::Physical { .. } | GhostTask::ClampCopy { .. } => None,
        GhostTask::Same { dst, src, region, shift } => {
            if region.is_empty() {
                return None;
            }
            let sf = grid.block(*src).field();
            let shape = *sf.shape();
            let ps = shape.plane_stride();
            let s = sf.as_slice();
            let mut data = Vec::with_capacity(region.volume() as usize * nvar);
            // plane by plane, x-row by x-row: rows are contiguous in the
            // source regardless of padding
            let mut row = *region;
            row.hi[0] = region.lo[0] + 1;
            let row_len = (region.hi[0] - region.lo[0]) as usize;
            for v in 0..nvar {
                for c in row.iter() {
                    let mut sc = c;
                    for d in 0..D {
                        sc[d] += shift[d];
                    }
                    let i0 = shape.lin(sc) + v * ps;
                    data.extend_from_slice(&s[i0..i0 + row_len]);
                }
            }
            Some((*dst, ReadyOp { region: *region, data }))
        }
        GhostTask::Restrict { dst, src, region, q, ratio } => {
            let extent = region.extent();
            let shape = FieldShape::new(extent, 0, nvar);
            let mut tmp = FieldBlock::zeros(shape);
            // temp coords c' = c - region.lo  =>  q' = ratio*region.lo + q
            let mut qp = *q;
            for d in 0..D {
                qp[d] += ratio * region.lo[d];
            }
            restrict_avg(&mut tmp, IBox::from_dims(extent), grid.block(*src).field(), qp, *ratio);
            Some((*dst, ReadyOp { region: *region, data: tmp.as_slice().to_vec() }))
        }
        GhostTask::Prolong { dst, src, region, p, a, ratio, valid } => {
            let extent = region.extent();
            let shape = FieldShape::new(extent, 0, nvar);
            let mut tmp = FieldBlock::zeros(shape);
            let mut pp = *p;
            for d in 0..D {
                pp[d] += region.lo[d];
            }
            prolong(
                &mut tmp,
                IBox::from_dims(extent),
                grid.block(*src).field(),
                pp,
                *a,
                *ratio,
                order,
                *valid,
            );
            Some((*dst, ReadyOp { region: *region, data: tmp.as_slice().to_vec() }))
        }
    }
}

/// Parallel ghost fill: each phase is gather (parallel over tasks, reads
/// only) then scatter (parallel over destination blocks, writes only).
pub fn par_fill_ghosts<const D: usize>(
    grid: &mut BlockGrid<D>,
    plan: &GhostExchange<D>,
    config: &GhostConfig,
) {
    par_fill_ghosts_with(grid, plan, config, &Metrics::null());
}

/// [`par_fill_ghosts`] with a metrics sink: the write-side scatter phase
/// (the inter-block data movement) is recorded under a
/// [`phase::COMM`] span, nested inside whatever span the caller holds.
pub fn par_fill_ghosts_with<const D: usize>(
    grid: &mut BlockGrid<D>,
    plan: &GhostExchange<D>,
    config: &GhostConfig,
    metrics: &Metrics,
) {
    for tasks in [plan.phase1(), plan.phase2()] {
        fill_phase(grid, tasks, config, metrics);
    }
}

/// Gather + scatter one phase of a ghost plan (the loop body of
/// [`par_fill_ghosts_with`], also used standalone by the comm/compute
/// overlap path, which scatters phase 2 itself).
fn fill_phase<const D: usize>(
    grid: &mut BlockGrid<D>,
    tasks: &[GhostTask<D>],
    config: &GhostConfig,
    metrics: &Metrics,
) {
    let layout = grid.layout().clone();
    let m = grid.params().block_dims;
    let ng = grid.params().nghost;
    // gather (immutable grid)
    let ready: Vec<(BlockId, ReadyOp<D>)> =
        pool::par_map(tasks, |t| gather_task(grid, t, config.prolong_order))
            .into_iter()
            .flatten()
            .collect();
    // group by destination
    let mut by_dst: HashMap<BlockId, Vec<ReadyOp<D>>> = HashMap::new();
    for (dst, op) in ready {
        by_dst.entry(dst).or_default().push(op);
    }
    let mut phys_by_dst: HashMap<BlockId, Vec<&GhostTask<D>>> = HashMap::new();
    for t in tasks {
        match t {
            GhostTask::Physical { dst, .. } | GhostTask::ClampCopy { dst, .. } => {
                phys_by_dst.entry(*dst).or_default().push(t);
            }
            _ => {}
        }
    }
    // scatter (mutable, one block per work item)
    let _comm = metrics.span(phase::COMM);
    let mut nodes: Vec<_> = grid.blocks_mut().collect();
    pool::par_for_each_mut(&mut nodes, |(id, node)| {
        if let Some(ops) = by_dst.get(id) {
            for op in ops {
                scatter_op(node.field_mut(), op);
            }
        }
        if let Some(ts) = phys_by_dst.get(id) {
            for t in ts {
                match t {
                    GhostTask::Physical { face, bc, .. } => {
                        let key = node.key();
                        synthesize_boundary(
                            &layout,
                            m,
                            ng,
                            key,
                            node.field_mut(),
                            *face,
                            *bc,
                            config,
                            &|_, _, _| {},
                        );
                    }
                    GhostTask::ClampCopy { region, .. } => {
                        for c in region.iter() {
                            let mut src = c;
                            for d in 0..D {
                                src[d] = src[d].clamp(0, m[d] - 1);
                            }
                            let u = node.field().cell(src).to_vec();
                            node.field_mut().set_cell(c, &u);
                        }
                    }
                    _ => {}
                }
            }
        }
    });
}

/// Write one gathered ghost region into a destination field.
fn scatter_op<const D: usize>(field: &mut FieldBlock<D>, op: &ReadyOp<D>) {
    if op.region.is_empty() {
        return;
    }
    let shape = *field.shape();
    let ps = shape.plane_stride();
    let out = field.as_mut_slice();
    let mut row = op.region;
    row.hi[0] = op.region.lo[0] + 1;
    let row_len = (op.region.hi[0] - op.region.lo[0]) as usize;
    let mut off = 0;
    for v in 0..shape.nvar {
        for c in row.iter() {
            let i0 = shape.lin(c) + v * ps;
            out[i0..i0 + row_len].copy_from_slice(&op.data[off..off + row_len]);
            off += row_len;
        }
    }
}

/// A sweep work item: the block, its RHS scratch, and its face-flux
/// store when refluxing.
type SweepItem<'a, const D: usize> =
    (BlockId, &'a mut BlockNode<D>, &'a mut FieldBlock<D>, Option<&'a mut FaceFluxStore<D>>);

/// `(id, node)` pairs of the ascending subset `ids`, in arena order.
fn nodes_for<'g, const D: usize>(
    grid: &'g mut BlockGrid<D>,
    ids: &[BlockId],
) -> Vec<(BlockId, &'g mut BlockNode<D>)> {
    let nodes: Vec<_> = grid.blocks_mut().filter(|(id, _)| ids.binary_search(id).is_ok()).collect();
    debug_assert_eq!(nodes.len(), ids.len(), "ids must be ascending leaves");
    nodes
}

/// Shared-memory parallel executor: the pool [`Backend`] of the
/// time-stepping driver. Ghost fills run as parallel gather/scatter,
/// flux sweeps and stage updates run over the pool, and the CFL scan is
/// a parallel max — all with the per-block arithmetic of the serial
/// `Stepper`. The engine's epoch-keyed cache makes stepping safe across
/// grid adaptation without manual invalidation.
pub struct ParStepper<const D: usize, P: Physics> {
    cfg: SolverConfig<P>,
    engine: SweepEngine<D>,
    sub: SubcycleState<D>,
    /// Flux-sweep issue order: block id -> SFC position under the
    /// config partitioner's curve, rebuilt when the topology epoch moves.
    sweep_pos: HashMap<BlockId, usize>,
    sweep_epoch: Option<u64>,
}

impl<const D: usize, P: Physics> ParStepper<D, P> {
    /// New parallel stepper from a [`SolverConfig`] (the same bundle the
    /// serial stepper and the distributed executor consume).
    pub fn new(cfg: SolverConfig<P>) -> Self {
        let engine = cfg.engine();
        ParStepper {
            cfg,
            engine,
            sub: SubcycleState::new(),
            sweep_pos: HashMap::new(),
            sweep_epoch: None,
        }
    }

    /// The configuration this stepper was built from.
    pub fn config(&self) -> &SolverConfig<P> {
        &self.cfg
    }

    /// The underlying sweep engine (plan cache stats).
    pub fn engine(&self) -> &SweepEngine<D> {
        &self.engine
    }

    /// Mutable engine access — the single escape hatch for out-of-band
    /// invalidation ([`SweepEngine::invalidate`]); never needed after grid
    /// adaptation (the topology epoch covers that).
    pub fn engine_mut(&mut self) -> &mut SweepEngine<D> {
        &mut self.engine
    }

    /// Rebuild the SFC sweep order if the grid restructured since the
    /// last sweep. The order is a pure work-scheduling permutation: it
    /// never changes which blocks are swept or any per-block arithmetic.
    fn refresh_sweep_order(&mut self, grid: &BlockGrid<D>) {
        if self.sweep_epoch == Some(grid.epoch()) {
            return;
        }
        let walk = CurveWalk::build(grid, self.cfg.partitioner.curve());
        self.sweep_pos =
            walk.entries().iter().enumerate().map(|(pos, e)| (e.id, pos)).collect();
        self.sweep_epoch = Some(grid.epoch());
    }

    /// SFC position of a block in the current sweep order (for tests and
    /// instrumentation; blocks unknown to the cached order sort last).
    pub fn sweep_position(&self, id: BlockId) -> Option<usize> {
        self.sweep_pos.get(&id).copied()
    }

    /// Largest stable step for the configured mode (see
    /// [`driver::stable_dt`]).
    pub fn stable_dt(&mut self, grid: &mut BlockGrid<D>) -> f64 {
        driver::stable_dt(self, grid)
    }

    /// Advance by `dt` honoring [`SolverConfig::time_step_mode`] and
    /// [`SolverConfig::time_scheme`] (see [`driver::step`]). The pool
    /// executor has no custom-bc path; the plan's default boundary
    /// synthesis applies.
    pub fn step(&mut self, grid: &mut BlockGrid<D>, dt: f64) {
        driver::step(self, grid, dt, None);
    }
}

/// Flux sweep of `work` on the pool, issued in SFC order (`pos`):
/// spatially adjacent blocks share ghost sources, so contiguous worker
/// chunks reuse cache lines — a pure permutation, bitwise-neutral. With a
/// recording sink, also reports per-worker busy/idle time.
fn run_flux<const D: usize, P: Physics>(
    cfg: &SolverConfig<P>,
    pos: &HashMap<BlockId, usize>,
    layout: &RootLayout<D>,
    m: IVec<D>,
    work: &mut [SweepItem<'_, D>],
) {
    let metrics = &cfg.metrics;
    let _f = metrics.span(phase::FLUX);
    work.sort_by_key(|(id, ..)| pos.get(id).copied().unwrap_or(usize::MAX));
    let (phys, scheme) = (&cfg.physics, cfg.scheme);
    let body = |scratch: &mut Vec<f64>, (_, node, rhs, store): &mut SweepItem<'_, D>| {
        let h = layout.cell_size(node.key().level, m);
        compute_rhs_block_fluxes(phys, scheme, node.field(), h, rhs, scratch, store.as_deref_mut());
    };
    if metrics.is_enabled() {
        let t0 = std::time::Instant::now();
        let busy = pool::par_for_each_mut_init_timed(work, Vec::new, body);
        let wall = t0.elapsed().as_nanos() as u64;
        let total_busy: u64 = busy.iter().sum();
        for b in &busy {
            metrics.observe("pool.worker_busy_ns", *b);
        }
        metrics.incr("pool.busy_ns", total_busy);
        metrics.incr("pool.idle_ns", (wall * busy.len() as u64).saturating_sub(total_busy));
    } else {
        pool::par_for_each_mut_init(work, Vec::new, body);
    }
}

impl<const D: usize, P: Physics> Backend<D> for ParStepper<D, P> {
    type Phys = P;

    fn cfg(&self) -> &SolverConfig<P> {
        &self.cfg
    }

    fn cfg_engine(&mut self) -> (&SolverConfig<P>, &mut SweepEngine<D>) {
        (&self.cfg, &mut self.engine)
    }

    fn sub_state(&mut self) -> &mut SubcycleState<D> {
        &mut self.sub
    }

    /// Each ghost phase is a parallel gather then scatter. With
    /// `comm_overlap` (the default), a global fill gathers phase 2 and
    /// scatters it on a background thread while the pool sweeps every
    /// block whose ghosts are final after phase 1; halo blocks (phase-2
    /// destinations) are swept after the join. Bitwise-identical to the
    /// fill-then-sweep order: the background scatter writes only halo
    /// blocks' ghosts, disjoint from every interior-block read.
    fn fill_sweep(
        &mut self,
        grid: &mut BlockGrid<D>,
        plan: Plan<'_, D>,
        ids: &[BlockId],
        _bc: Option<&BcFn<D>>,
    ) {
        let overlap = self.cfg.comm_overlap && matches!(plan, Plan::Global);
        if let Plan::Global = plan {
            self.engine.revalidate(grid);
        }
        self.refresh_sweep_order(grid);
        let metrics = self.cfg.metrics.clone();
        let ghost_span = metrics.span(phase::GHOST_FILL);
        let plan = match plan {
            Plan::Global => self.engine.plan(),
            Plan::Level(_, plan) => plan,
        };
        let config = self.engine.config();
        fill_phase(grid, plan.phase1(), config, &metrics);
        // phase 2: scattered now, or gathered now and scattered during
        // the interior sweep
        let deferred = if overlap {
            let order = config.prolong_order;
            let mut by_dst: HashMap<BlockId, Vec<ReadyOp<D>>> = HashMap::new();
            for (dst, op) in pool::par_map(plan.phase2(), |t| gather_task(grid, t, order))
                .into_iter()
                .flatten()
            {
                by_dst.entry(dst).or_default().push(op);
            }
            Some((by_dst, plan.phase2_dsts()))
        } else {
            fill_phase(grid, plan.phase2(), config, &metrics);
            None
        };
        let m = grid.params().block_dims;
        let layout = grid.layout().clone();
        let sw = self.engine.sweep();
        let mut rhs = indexed_refs(sw.rhs, ids).into_iter();
        let mut stores = self.cfg.refluxing.then(|| indexed_refs(sw.flux_stores, ids).into_iter());
        let mut items: Vec<SweepItem<'_, D>> = nodes_for(grid, ids)
            .into_iter()
            .map(|(id, node)| {
                let store = stores.as_mut().map(|s| s.next().expect("one store per id"));
                (id, node, rhs.next().expect("one rhs per id"), store)
            })
            .collect();
        let (cfg, pos) = (&self.cfg, &self.sweep_pos);
        let Some((by_dst, halo_dsts)) = deferred else {
            drop(ghost_span);
            run_flux(cfg, pos, &layout, m, &mut items);
            return;
        };
        // a global sweep covers every block, so every scatter has an item
        debug_assert!(by_dst.keys().all(|id| ids.binary_search(id).is_ok()));
        let (halo, mut interior): (Vec<_>, Vec<_>) =
            items.into_iter().partition(|(id, ..)| halo_dsts.binary_search(id).is_ok());
        let by_dst = &by_dst;
        let (mut halo, ()) = pool::overlap_join(
            move || {
                let mut halo = halo;
                for (id, node, ..) in halo.iter_mut() {
                    for op in by_dst.get(id).into_iter().flatten() {
                        scatter_op(node.field_mut(), op);
                    }
                }
                halo
            },
            || {
                let _o = metrics.span(phase::OVERLAP);
                run_flux(cfg, pos, &layout, m, &mut interior);
            },
        );
        drop(ghost_span);
        run_flux(cfg, pos, &layout, m, &mut halo);
    }

    fn max_blocks(&self, ids: &[BlockId], f: &(dyn Fn(BlockId) -> f64 + Sync)) -> f64 {
        pool::par_max_f64(ids, 0.0, |&id| f(id))
    }

    fn update_blocks(
        &mut self,
        grid: &mut BlockGrid<D>,
        ids: &[BlockId],
        f: &UpdateFn<'_, D, P>,
    ) -> usize {
        let phys = &self.cfg.physics;
        let sw = self.engine.sweep();
        let rhs: &[FieldBlock<D>] = sw.rhs;
        let mut work: Vec<_> = nodes_for(grid, ids)
            .into_iter()
            .zip(indexed_refs(sw.stage, ids))
            .map(|((id, node), stage)| (id, node, stage, 0usize))
            .collect();
        pool::par_for_each_mut(&mut work, |(id, node, stage, floored)| {
            let field = node.field_mut();
            *floored = f(phys, BlockStage { field, rhs: &rhs[id.index()], stage: &mut **stage });
        });
        work.iter().map(|w| w.3).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ablock_core::grid::{GridParams, Transfer};
    use ablock_core::key::BlockKey;
    use ablock_core::layout::{Boundary, RootLayout};
    use ablock_solver::euler::Euler;
    use ablock_solver::kernel::Scheme;
    use ablock_solver::problems;
    use ablock_solver::stepper::Stepper;

    fn build() -> (BlockGrid<2>, Euler<2>) {
        let e = Euler::<2>::new(1.4);
        let mut g = BlockGrid::new(
            RootLayout::unit([4, 4], Boundary::Periodic),
            GridParams::new([4, 4], 2, 4, 3),
        );
        problems::advected_gaussian(&mut g, &e, [1.0, -0.5], [0.4, 0.6], 0.15);
        (g, e)
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
    fn parallel_matches_serial_uniform() {
        let (mut gs, e) = build();
        let (mut gp, _) = build();
        let mut serial = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
        let mut par = ParStepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        let dt = 1.5e-3;
        for _ in 0..4 {
            serial.step(&mut gs, dt, None);
            par.step(&mut gp, dt);
        }
        let a = collect(&gs);
        let b = collect(&gp);
        let shape = gs.params().field_shape();
        for ((ka, fa), (kb, fb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            for c in shape.interior_box().iter() {
                let i = shape.lin(c);
                for v in 0..4 {
                    assert!(
                        (fa[i + v] - fb[i + v]).abs() < 1e-14,
                        "block {ka:?} cell {c:?} var {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_refined() {
        let (mut gs, e) = build();
        let id = gs.find(BlockKey::new(0, [1, 1])).unwrap();
        gs.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        let (mut gp, _) = build();
        let id = gp.find(BlockKey::new(0, [1, 1])).unwrap();
        gp.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();

        let mut serial = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
        let mut par = ParStepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        let dt = 1e-3;
        for _ in 0..3 {
            serial.step(&mut gs, dt, None);
            par.step(&mut gp, dt);
        }
        let a = collect(&gs);
        let b = collect(&gp);
        let shape = gs.params().field_shape();
        for ((ka, fa), (kb, fb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            for c in shape.interior_box().iter() {
                let i = shape.lin(c);
                for v in 0..4 {
                    assert!(
                        (fa[i + v] - fb[i + v]).abs() < 1e-13,
                        "block {ka:?} cell {c:?} var {v}: {} vs {}",
                        fa[i + v],
                        fb[i + v]
                    );
                }
            }
        }
    }

    #[test]
    fn max_dt_matches_serial() {
        let (mut g, e) = build();
        let mut serial = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
        let mut par = ParStepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        let a = serial.stable_dt(&mut g);
        let b = par.stable_dt(&mut g);
        assert!((a - b).abs() < 1e-16);
    }

    #[test]
    fn sweep_order_follows_partitioner_curve() {
        let (mut g, e) = build();
        let mut par = ParStepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        par.step(&mut g, 1e-3);
        let walk = CurveWalk::build(&g, par.config().partitioner.curve());
        for (pos, entry) in walk.entries().iter().enumerate() {
            assert_eq!(par.sweep_position(entry.id), Some(pos), "SFC order mismatch");
        }
        // cached: a refine bumps the epoch and forces a rebuild
        let id = g.block_ids()[0];
        g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        par.step(&mut g, 1e-3);
        let walk = CurveWalk::build(&g, par.config().partitioner.curve());
        assert_eq!(walk.len(), g.num_blocks());
        for (pos, entry) in walk.entries().iter().enumerate() {
            assert_eq!(par.sweep_position(entry.id), Some(pos), "stale order after adapt");
        }
    }

    #[test]
    fn indexed_refs_disjoint() {
        let mut v = vec![0i32; 10];
        let ids: Vec<BlockId> = {
            // build ids with indices 1, 4, 7 through an arena
            let mut a = ablock_core::arena::Arena::new();
            let all: Vec<BlockId> = (0..8).map(|i| a.insert(i)).collect();
            vec![all[1], all[4], all[7]]
        };
        let refs = indexed_refs(&mut v, &ids);
        assert_eq!(refs.len(), 3);
        for r in refs {
            *r += 1;
        }
        assert_eq!(v, vec![0, 1, 0, 0, 1, 0, 0, 1, 0, 0]);
    }
}
