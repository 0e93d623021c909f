//! The shared sweep engine: epoch-keyed plan cache + reusable scratch.
//!
//! Every stepper stack in the workspace (serial [`crate::stepper::Stepper`],
//! the shared-memory and distributed executors in `ablock-par`, multigrid
//! smoothers in [`crate::poisson`]) needs the same three things to sweep a
//! grid: a [`GhostExchange`] plan matching the current topology, per-block
//! RHS/stage scratch, and a primitive-variable buffer. A [`SweepEngine`]
//! owns all of them once, keyed on the grid's
//! [topology epoch](BlockGrid::epoch):
//!
//! * [`SweepEngine::revalidate`] compares the cached plan's epoch against
//!   the grid and rebuilds plan + scratch only on mismatch — callers never
//!   invalidate manually on the hot step path; adapting the grid bumps the
//!   epoch and the next sweep notices.
//! * Scratch is *resized* on epoch change, not reallocated per step:
//!   surviving per-block buffers keep their allocations, and a shape change
//!   (different block dims / nvar) clears them first.
//! * [`SweepEngine::stats`] exposes rebuild/reuse counters so tests and
//!   benches can assert the paper's amortization claim — adaptation is
//!   infrequent, stepping is hot, so `reuses >> rebuilds`.
//!
//! The per-block stage-update helpers ([`fe_update_block`],
//! [`rk2_stage1_block`], [`rk2_stage2_block`]) are the single source of the
//! update arithmetic; the time-stepping driver ([`crate::driver`]) is their
//! only caller, on every backend, which is what keeps serial, pool, and
//! distributed results bitwise identical.

use ablock_core::arena::BlockId;
use ablock_core::field::{FieldBlock, FieldShape};
use ablock_core::ghost::{BoundaryCtx, GhostConfig, GhostExchange};
use ablock_core::grid::BlockGrid;
use ablock_core::index::IVec;
use ablock_core::ops::ProlongOrder;
use ablock_obs::{phase, Metrics};

use crate::kernel::{FaceFluxStore, Scheme};
use crate::lanes::{for_groups, planes, planes_mut, Lanes};
use crate::physics::{Physics, MAX_VARS, ROW_CHUNK};
use crate::recon::Recon;

/// Custom physical-boundary ghost synthesizer.
pub type BcFn<const D: usize> = dyn Fn(&BoundaryCtx<D>, IVec<D>, &mut [f64]);

/// Ghost config consistent with a physics system and spatial scheme:
/// prolongation order matches the reconstruction order, and the physics'
/// vector triples get their normal components flipped at reflecting walls.
pub fn ghost_config_for<P: Physics>(phys: &P, scheme: Scheme) -> GhostConfig {
    GhostConfig {
        prolong_order: match scheme.recon {
            Recon::FirstOrder => ProlongOrder::Constant,
            Recon::Muscl(_) => ProlongOrder::LinearMinmod,
        },
        vector_components: phys.vector_components().to_vec(),
        corners: false,
    }
}

/// Plan-cache observability: how often [`SweepEngine::revalidate`] rebuilt
/// versus reused the cached exchange plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Plan + scratch rebuilds (one per topology epoch the engine has seen).
    pub rebuilds: u64,
    /// Sweeps served by the cached plan without touching topology.
    pub reuses: u64,
    /// Blocks scanned by CFL max-wavespeed reductions routed through the
    /// engine ([`SweepEngine::note_rate_scans`]). The subcycled driver
    /// scans every block exactly once per outer step (one per-level
    /// reduction), never rescanning coarse blocks per fine substep —
    /// tests assert the count.
    pub rate_block_scans: u64,
}

/// Mutable views of the engine's per-block scratch, split per field so a
/// caller can hold `rhs` and `stage` (and the grid) simultaneously.
/// Slices are indexed by `BlockId::index()`.
pub struct Sweep<'a, const D: usize> {
    /// `L(u)` accumulator per block.
    pub rhs: &'a mut [FieldBlock<D>],
    /// Stage copy (`u^n` for RK2) per block.
    pub stage: &'a mut [FieldBlock<D>],
    /// Block-face flux records for refluxing; empty unless enabled via
    /// [`SweepEngine::with_flux_stores`].
    pub flux_stores: &'a mut [FaceFluxStore<D>],
    /// Shared primitive-variable buffer for serial kernels.
    pub prim_scratch: &'a mut Vec<f64>,
}

/// An interior/halo partition of a sweep for comm/compute overlap:
/// `interior` blocks' ghost fill has no dependency on in-flight data, so
/// their fluxes may be computed while the exchange proceeds; `halo`
/// blocks join after it completes. Both halves preserve the input order.
#[derive(Clone, Debug, Default)]
pub struct SweepSplit {
    /// Blocks safe to sweep during the exchange.
    pub interior: Vec<BlockId>,
    /// Blocks whose sweep must wait for the exchange to complete.
    pub halo: Vec<BlockId>,
}

/// Epoch-keyed ghost-plan cache plus reusable sweep scratch.
pub struct SweepEngine<const D: usize> {
    config: GhostConfig,
    want_flux_stores: bool,
    plan: Option<GhostExchange<D>>,
    shape: Option<FieldShape<D>>,
    rhs: Vec<FieldBlock<D>>,
    stage: Vec<FieldBlock<D>>,
    flux_stores: Vec<FaceFluxStore<D>>,
    prim_scratch: Vec<f64>,
    stats: EngineStats,
    metrics: Metrics,
}

impl<const D: usize> SweepEngine<D> {
    /// New engine with an explicit ghost config (e.g. multigrid levels).
    pub fn new(config: GhostConfig) -> Self {
        SweepEngine {
            config,
            want_flux_stores: false,
            plan: None,
            shape: None,
            rhs: Vec::new(),
            stage: Vec::new(),
            flux_stores: Vec::new(),
            prim_scratch: Vec::new(),
            stats: EngineStats::default(),
            metrics: Metrics::null(),
        }
    }

    /// New engine whose ghost config is derived from physics + scheme
    /// (see [`ghost_config_for`]).
    pub fn for_scheme<P: Physics>(phys: &P, scheme: Scheme) -> Self {
        SweepEngine::new(ghost_config_for(phys, scheme))
    }

    /// Builder: also maintain per-block [`FaceFluxStore`] scratch (needed
    /// by Berger–Colella refluxing).
    pub fn with_flux_stores(mut self, on: bool) -> Self {
        self.want_flux_stores = on;
        self
    }

    /// Builder: install a metrics sink (plan rebuild/reuse counters and a
    /// [`phase::GHOST_FILL`] span flow into it). Null by default.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Setter form of [`SweepEngine::with_metrics`] for engines that are
    /// already built (e.g. the per-level multigrid engines).
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The installed metrics sink (the null sink unless overridden).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The ghost config plans are built with.
    pub fn config(&self) -> &GhostConfig {
        &self.config
    }

    /// Rebuild/reuse counters since construction.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Record `n` block scans by a CFL max-wavespeed reduction (see
    /// [`EngineStats::rate_block_scans`]).
    pub fn note_rate_scans(&mut self, n: u64) {
        self.stats.rate_block_scans += n;
        self.metrics.incr("engine.rate_block_scans", n);
    }

    /// Force the next [`SweepEngine::revalidate`] to rebuild, regardless of
    /// epoch. Never needed after grid adaptation (the epoch covers that);
    /// only for out-of-band field-shape or config changes.
    pub fn invalidate(&mut self) {
        self.plan = None;
    }

    /// Make the cached plan and scratch match the grid's current topology.
    /// Cheap when the [epoch](BlockGrid::epoch) is unchanged (one integer
    /// compare); otherwise rebuilds the plan and resizes scratch in place.
    /// Returns `true` if a rebuild happened.
    pub fn revalidate(&mut self, grid: &BlockGrid<D>) -> bool {
        if self.plan.as_ref().is_some_and(|p| p.is_current(grid)) {
            self.stats.reuses += 1;
            self.metrics.incr("engine.plan_reuses", 1);
            return false;
        }
        self.plan = Some(GhostExchange::build(grid, self.config.clone()));
        let cap = grid
            .block_ids()
            .iter()
            .map(|id| id.index() + 1)
            .max()
            .unwrap_or(0);
        // grid.field_shape() (not params().field_shape()): includes the
        // solid-mask plane when a geometry is installed, so stage snapshots
        // can copy whole allocations.
        let shape = grid.field_shape();
        if self.shape != Some(shape) {
            self.rhs.clear();
            self.stage.clear();
            self.flux_stores.clear();
            self.shape = Some(shape);
        }
        self.rhs.resize_with(cap, || FieldBlock::zeros(shape));
        self.stage.resize_with(cap, || FieldBlock::zeros(shape));
        if self.want_flux_stores {
            let dims = grid.params().block_dims;
            self.flux_stores
                .resize_with(cap, || FaceFluxStore::new(dims, shape.nvar));
        }
        self.stats.rebuilds += 1;
        self.metrics.incr("engine.plan_rebuilds", 1);
        true
    }

    /// The cached plan. Panics if [`SweepEngine::revalidate`] has never run;
    /// the plan may be stale if the grid adapted since the last revalidate.
    pub fn plan(&self) -> &GhostExchange<D> {
        self.plan
            .as_ref()
            .expect("SweepEngine::plan before revalidate")
    }

    /// Revalidate, then fill ghosts with the cached plan.
    pub fn fill_ghosts(&mut self, grid: &mut BlockGrid<D>, bc: Option<&BcFn<D>>) {
        self.revalidate(grid);
        let _span = self.metrics.span(phase::GHOST_FILL);
        let plan = self.plan.as_ref().unwrap();
        match bc {
            Some(f) => plan.fill_with(grid, f),
            None => plan.fill(grid),
        }
    }

    /// Split `ids` for distributed comm/compute overlap: a block is
    /// `halo` iff its ghost fill depends on remote data, directly or one
    /// hop through a phase-2 source's restriction-filled slab (see
    /// [`GhostExchange::remote_halo_dsts`]). Both halves preserve the
    /// order of `ids`. Panics before [`SweepEngine::revalidate`].
    pub fn split_remote(
        &self,
        ids: &[BlockId],
        is_remote: &dyn Fn(BlockId) -> bool,
    ) -> SweepSplit {
        let halo = self.plan().remote_halo_dsts(is_remote);
        let (halo, interior) = ids.iter().partition(|id| halo.binary_search(id).is_ok());
        SweepSplit { interior, halo }
    }

    /// Split-borrow the scratch arena. Call after
    /// [`SweepEngine::revalidate`] so sizes match the grid.
    pub fn sweep(&mut self) -> Sweep<'_, D> {
        Sweep {
            rhs: &mut self.rhs,
            stage: &mut self.stage,
            flux_stores: &mut self.flux_stores,
            prim_scratch: &mut self.prim_scratch,
        }
    }
}

/// Apply `op(u, r, s)` to every interior value of `field` (`r` from
/// `rhs`, `s` from `stage` when given) in lane groups, one x-row chunk at
/// a time, flagging the cells the positivity floors may clamp from the
/// new values while they are still in registers; flagged cells then go
/// through the scalar floors. Solid-masked cells keep their value: it is
/// written back unchanged, so even a zero RHS cannot flip a `-0.0` sign
/// bit and immersed-solid state stays bitwise frozen (DESIGN.md §18).
/// Every cell sees its update before its floor check, as when the two
/// passes ran over the whole block, so results are bitwise the same.
/// Returns cells floored.
fn update_rows<const D: usize, P: Physics>(
    phys: &P,
    field: &mut FieldBlock<D>,
    rhs: &FieldBlock<D>,
    stage: Option<&FieldBlock<D>>,
    op: impl Fn(Lanes, Lanes, Lanes) -> Lanes,
) -> usize {
    let shape = *field.shape();
    // the physics' constant, so the per-variable loops unroll
    let n = phys.nvar();
    debug_assert_eq!(n, shape.nvar);
    let ps = shape.plane_stride();
    let ib = shape.interior_box();
    let mut rowbox = ib;
    rowbox.hi[0] = ib.lo[0] + 1;
    let len = (ib.hi[0] - ib.lo[0]) as usize;
    let (us, mask) = field.as_mut_slice().split_at_mut(n * ps);
    let mask: Option<&[f64]> = shape.mask_plane.then_some(mask);
    let rs = rhs.as_slice();
    let ss = stage.map(|s| s.as_slice());
    let mut floored = 0;
    for rc in rowbox.iter() {
        let i0 = shape.lin(rc);
        let mut k0 = 0;
        while k0 < len {
            let lanes = (len - k0).min(ROW_CHUNK);
            let o = i0 + k0;
            let mut flagged = 0u64;
            {
                let rp = planes(&rs[o..], ps, n, lanes);
                // forward Euler ignores `s`; any planes of the right length do
                let sp = ss.map_or(rp, |s| planes(&s[o..], ps, n, lanes));
                let up = planes_mut(&mut us[o..], ps, n, lanes);
                let solid = mask.map(|m| &m[o..o + lanes]);
                for_groups!(lanes, |g| {
                    let mut new = [Lanes::splat(0.0); MAX_VARS];
                    for v in 0..n {
                        let x = g.load(up[v]);
                        let y = op(x, g.load(rp[v]), g.load(sp[v]));
                        new[v] = match solid {
                            Some(m) => Lanes::select(g.load(m).is_zero(), y, x),
                            None => y,
                        };
                        g.store(up[v], new[v]);
                    }
                    let f = phys.floor_lanes(&new);
                    for i in 0..g.n {
                        flagged |= u64::from(f[i]) << (g.k + i);
                    }
                });
            }
            floored += clamp_flagged(phys, us, ps, o, flagged, mask);
            k0 += lanes;
        }
    }
    floored
}

/// Run the scalar [`Physics::apply_floors`] on the cells at offsets
/// `i0 + k` of `data` (plane stride `ps`) for every bit `k` set in
/// `flagged`, skipping solid cells; returns cells clamped.
fn clamp_flagged<P: Physics>(
    phys: &P,
    data: &mut [f64],
    ps: usize,
    i0: usize,
    mut flagged: u64,
    mask: Option<&[f64]>,
) -> usize {
    let n = phys.nvar();
    let mut count = 0;
    while flagged != 0 {
        let i = i0 + flagged.trailing_zeros() as usize;
        flagged &= flagged - 1;
        if mask.is_some_and(|m| m[i] != 0.0) {
            continue;
        }
        let mut buf = [0.0; MAX_VARS];
        for (v, b) in buf[..n].iter_mut().enumerate() {
            *b = data[i + v * ps];
        }
        if phys.apply_floors(&mut buf[..n]) {
            count += 1;
            for (v, &b) in buf[..n].iter().enumerate() {
                data[i + v * ps] = b;
            }
        }
    }
    count
}

/// Forward-Euler update of one block: `u += dt·r` over the interior, then
/// positivity floors. Returns cells floored. Solid-masked cells keep
/// their value bitwise — even a zero RHS would flip `-0.0` sign bits — so
/// immersed-solid state stays frozen (DESIGN.md §18).
pub fn fe_update_block<const D: usize, P: Physics>(
    phys: &P,
    field: &mut FieldBlock<D>,
    rhs: &FieldBlock<D>,
    dt: f64,
) -> usize {
    update_rows(phys, field, rhs, None, |u, r, _| u + dt * r)
}

/// SSP-RK2 stage 1 on one block: snapshot `u^n` into `stage`, then
/// `u* = u + dt·L(u)` with floors. Returns cells floored.
pub fn rk2_stage1_block<const D: usize, P: Physics>(
    phys: &P,
    field: &mut FieldBlock<D>,
    rhs: &FieldBlock<D>,
    stage: &mut FieldBlock<D>,
    dt: f64,
) -> usize {
    stage.as_mut_slice().copy_from_slice(field.as_slice());
    fe_update_block(phys, field, rhs, dt)
}

/// SSP-RK2 stage 2 on one block:
/// `u^{n+1} = ½u^n + ½(u* + dt·L(u*))` with floors. Returns cells floored.
/// Solid cells keep `u* == u^n` untouched.
pub fn rk2_stage2_block<const D: usize, P: Physics>(
    phys: &P,
    field: &mut FieldBlock<D>,
    rhs: &FieldBlock<D>,
    stage: &FieldBlock<D>,
    dt: f64,
) -> usize {
    update_rows(phys, field, rhs, Some(stage), |u, r, s| 0.5 * s + 0.5 * (u + dt * r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Euler;
    use ablock_core::grid::{GridParams, Transfer};
    use ablock_core::layout::{Boundary, RootLayout};

    fn grid_1d() -> BlockGrid<1> {
        BlockGrid::new(
            RootLayout::unit([4], Boundary::Periodic),
            GridParams::new([8], 2, 3, 3),
        )
    }

    #[test]
    fn revalidate_rebuilds_only_on_epoch_change() {
        let e = Euler::<1>::new(1.4);
        let mut g = grid_1d();
        let mut eng = SweepEngine::for_scheme(&e, Scheme::muscl_rusanov());
        assert!(eng.revalidate(&g));
        for _ in 0..5 {
            assert!(!eng.revalidate(&g));
        }
        assert_eq!(eng.stats(), EngineStats { rebuilds: 1, reuses: 5, ..Default::default() });

        let id = g.block_ids()[0];
        g.refine(id, Transfer::Conservative(ProlongOrder::Constant)).unwrap();
        assert!(eng.revalidate(&g));
        assert!(!eng.revalidate(&g));
        assert_eq!(eng.stats(), EngineStats { rebuilds: 2, reuses: 6, ..Default::default() });
        assert!(eng.plan().is_current(&g));
    }

    #[test]
    fn scratch_resizes_with_grid() {
        let e = Euler::<1>::new(1.4);
        let mut g = grid_1d();
        let mut eng = SweepEngine::for_scheme(&e, Scheme::muscl_rusanov())
            .with_flux_stores(true);
        eng.revalidate(&g);
        let n0 = eng.sweep().rhs.len();
        let id = g.block_ids()[0];
        g.refine(id, Transfer::Conservative(ProlongOrder::Constant)).unwrap();
        eng.revalidate(&g);
        let sw = eng.sweep();
        assert!(sw.rhs.len() > n0);
        assert_eq!(sw.rhs.len(), sw.stage.len());
        assert_eq!(sw.rhs.len(), sw.flux_stores.len());
    }

    #[test]
    fn invalidate_forces_rebuild() {
        let e = Euler::<1>::new(1.4);
        let g = grid_1d();
        let mut eng = SweepEngine::for_scheme(&e, Scheme::muscl_rusanov());
        eng.revalidate(&g);
        eng.invalidate();
        assert!(eng.revalidate(&g));
        assert_eq!(eng.stats().rebuilds, 2);
    }
}
