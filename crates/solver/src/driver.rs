//! The one time-stepping driver, generic over an executor [`Backend`].
//!
//! Serial ([`Stepper`](crate::stepper::Stepper)), shared-memory
//! (`ablock_par::ParStepper`) and distributed (`ablock_par::DistSim`)
//! execution differ only in *how* blocks are visited: which blocks a
//! process owns, whether ghost fills and sweeps run on a thread pool or
//! exchange messages, and whether a max reduction crosses ranks. *What*
//! a time step does is decided here, once:
//!
//! * [`stable_dt`], [`step`] and [`run_until`] dispatch on
//!   [`TimeStepMode`] and [`TimeScheme`];
//! * the global forward-Euler / SSP-RK2 stage loop, including the
//!   Berger–Colella `reflux_rhs` correction when refluxing is on;
//! * the Berger–Oliger subcycled recursion with time-interpolated ghost
//!   fills and state-space refluxing (see [`crate::subcycle`]);
//! * the global CFL `dt` and the subcycled coarsest-level `dt₀`;
//! * every call of the per-block update helpers
//!   ([`fe_update_block`], [`rk2_stage1_block`], [`rk2_stage2_block`]).
//!
//! A backend fills ghosts for a [`Plan`] and sweeps a list of block ids
//! (it may overlap the two), reduces a max, and runs a per-block closure
//! over blocks it owns. Because the stage arithmetic, the reflux order
//! and the block sets come from this module alone, every backend
//! advances each block with identical arithmetic — the basis of the
//! bitwise cross-backend differential suites.

use ablock_core::arena::BlockId;
use ablock_core::field::FieldBlock;
use ablock_core::ghost::GhostExchange;
use ablock_core::grid::BlockGrid;
use ablock_obs::phase;

use crate::config::{SolverConfig, TimeStepMode};
use crate::engine::{fe_update_block, rk2_stage1_block, rk2_stage2_block, BcFn, SweepEngine};
use crate::kernel::{compute_rhs_block_fluxes, max_rate_block, FaceFluxStore};
use crate::physics::Physics;
use crate::reflux::{reflux_rhs, reflux_state};
use crate::stepper::TimeScheme;
use crate::subcycle::{level_span, SubcycleState};

/// The exchange plan a [`Backend::fill_sweep`] call fills.
#[derive(Clone, Copy)]
pub enum Plan<'a, const D: usize> {
    /// The engine's full cached plan (global stages). The sweep is over
    /// every owned block, and backends may overlap the exchange with it
    /// ([`SolverConfig::comm_overlap`]).
    Global,
    /// The filtered plan of subcycle level index `.0`; the driver has
    /// already time-interpolated its prolongation sources.
    Level(usize, &'a GhostExchange<D>),
}

/// The face-flux array a coming reflux reads (see
/// [`Backend::pre_reflux`]).
pub enum RefluxStores<'a, const D: usize> {
    /// The engine's per-stage `flux_stores` (global `reflux_rhs`).
    Stage,
    /// The subcycled fine-side accumulators (`reflux_state`).
    AccumPar(&'a mut [FaceFluxStore<D>]),
}

/// The per-block views one stage update reads and writes.
pub struct BlockStage<'a, const D: usize> {
    /// The block's conserved state.
    pub field: &'a mut FieldBlock<D>,
    /// Its freshly swept `L(u)`.
    pub rhs: &'a FieldBlock<D>,
    /// Its stage copy (`u^n` under SSP-RK2).
    pub stage: &'a mut FieldBlock<D>,
}

/// A per-block stage update: returns cells clamped by positivity floors.
pub type UpdateFn<'f, const D: usize, P> = dyn Fn(&P, BlockStage<'_, D>) -> usize + Sync + 'f;

/// What the driver needs from an executor.
pub trait Backend<const D: usize> {
    /// The physics system being integrated.
    type Phys: Physics;

    /// The solver configuration.
    fn cfg(&self) -> &SolverConfig<Self::Phys>;

    /// Split-borrow the config and the engine (plan cache + scratch).
    fn cfg_engine(&mut self) -> (&SolverConfig<Self::Phys>, &mut SweepEngine<D>);

    /// The executor's subcycling scratch; the driver takes it out for the
    /// duration of a call.
    fn sub_state(&mut self) -> &mut SubcycleState<D>;

    /// Whether this executor owns (advances) `id`. Serial and
    /// shared-memory executors own everything.
    fn is_owned(&self, _id: BlockId) -> bool {
        true
    }

    /// Owned blocks in arena order (ascending ids).
    fn owned_ids(&self, grid: &BlockGrid<D>) -> Vec<BlockId> {
        grid.block_ids()
            .into_iter()
            .filter(|&id| self.is_owned(id))
            .collect()
    }

    /// Fill ghosts with `plan`, then compute `L(u)` (and face fluxes iff
    /// refluxing) into the engine's scratch for `ids`. A backend may
    /// overlap the fill with the sweep of blocks whose ghosts do not
    /// depend on data still in flight.
    fn fill_sweep(
        &mut self,
        grid: &mut BlockGrid<D>,
        plan: Plan<'_, D>,
        ids: &[BlockId],
        bc: Option<&BcFn<D>>,
    );

    /// Local max of `f` over `ids` (`0.0` when empty).
    fn max_blocks(&self, ids: &[BlockId], f: &(dyn Fn(BlockId) -> f64 + Sync)) -> f64 {
        ids.iter().fold(0.0, |m, &id| m.max(f(id)))
    }

    /// Reduce a local max across processes (identity unless distributed).
    fn reduce_max(&self, local: f64) -> f64 {
        local
    }

    /// Run `f` on every block of `ids`; returns the summed floor count.
    fn update_blocks(
        &mut self,
        grid: &mut BlockGrid<D>,
        ids: &[BlockId],
        f: &UpdateFn<'_, D, Self::Phys>,
    ) -> usize {
        let (cfg, engine) = self.cfg_engine();
        let sw = engine.sweep();
        let mut floored = 0;
        for &id in ids {
            let i = id.index();
            let field = grid.block_mut(id).field_mut();
            floored += f(
                &cfg.physics,
                BlockStage {
                    field,
                    rhs: &sw.rhs[i],
                    stage: &mut sw.stage[i],
                },
            );
        }
        floored
    }

    /// Hook before a reflux of coarse `level` (`None`: every level):
    /// distributed backends fetch the fine-side faces of `stores` that
    /// other ranks own. No-op otherwise.
    fn pre_reflux(
        &mut self,
        _grid: &BlockGrid<D>,
        _stores: RefluxStores<'_, D>,
        _level: Option<u8>,
    ) {
    }
}

/// Serial RHS sweep over `ids` under a [`phase::FLUX`] span, recording
/// face fluxes iff refluxing. Returns interface flux evaluations.
pub fn sweep_serial<const D: usize, P: Physics>(
    cfg: &SolverConfig<P>,
    engine: &mut SweepEngine<D>,
    grid: &BlockGrid<D>,
    ids: &[BlockId],
) -> usize {
    let _span = cfg.metrics.span(phase::FLUX);
    let m = grid.params().block_dims;
    let sw = engine.sweep();
    let mut evals = 0;
    for &id in ids {
        let node = grid.block(id);
        let h = grid.layout().cell_size(node.key().level, m);
        let store = if cfg.refluxing {
            Some(&mut sw.flux_stores[id.index()])
        } else {
            None
        };
        evals += compute_rhs_block_fluxes(
            &cfg.physics,
            cfg.scheme,
            node.field(),
            h,
            &mut sw.rhs[id.index()],
            sw.prim_scratch,
            store,
        );
    }
    evals
}

/// Run `f` with the backend's subcycling scratch taken out of it.
fn with_state<const D: usize, B: Backend<D>, R>(
    b: &mut B,
    f: impl FnOnce(&mut B, &mut SubcycleState<D>) -> R,
) -> R {
    let mut state = std::mem::take(b.sub_state());
    let r = f(b, &mut state);
    *b.sub_state() = state;
    r
}

/// The stable step for the configured [`TimeStepMode`]: the global CFL
/// `dt`, or the coarsest-level `dt₀` under subcycling. Installs the
/// config's immersed geometry first so solid cells never constrain it.
pub fn stable_dt<const D: usize, B: Backend<D>>(b: &mut B, grid: &mut BlockGrid<D>) -> f64 {
    grid.ensure_geometry(&b.cfg().geometry);
    match b.cfg().time_step_mode {
        TimeStepMode::Global => {
            let ids = b.owned_ids(grid);
            let rate = b.reduce_max(max_rate(b, grid, &ids));
            b.cfg_engine().1.note_rate_scans(ids.len() as u64);
            if rate > 0.0 {
                b.cfg().cfl / rate
            } else {
                f64::INFINITY
            }
        }
        TimeStepMode::Subcycled => with_state(b, |b, state| max_dt0(b, grid, state)),
    }
}

/// Advance by `dt` with the configured [`TimeStepMode`] and
/// [`TimeScheme`] (`dt` is the coarsest-level `dt₀` when subcycling).
/// Returns cells clamped by positivity floors.
pub fn step<const D: usize, B: Backend<D>>(
    b: &mut B,
    grid: &mut BlockGrid<D>,
    dt: f64,
    bc: Option<&BcFn<D>>,
) -> usize {
    grid.ensure_geometry(&b.cfg().geometry);
    match b.cfg().time_step_mode {
        TimeStepMode::Global => step_global(b, grid, dt, bc),
        TimeStepMode::Subcycled => with_state(b, |b, state| step_subcycled(b, grid, state, dt, bc)),
    }
}

/// Advance from `t0` to `t_end` with [`stable_dt`]-limited [`step`]s;
/// returns `(steps, floored cells)`.
pub fn run_until<const D: usize, B: Backend<D>>(
    b: &mut B,
    grid: &mut BlockGrid<D>,
    t0: f64,
    t_end: f64,
    bc: Option<&BcFn<D>>,
) -> (usize, usize) {
    let mut t = t0;
    let (mut steps, mut floored) = (0, 0);
    while t < t_end - 1e-14 {
        let dt = stable_dt(b, grid).min(t_end - t);
        assert!(dt.is_finite() && dt > 0.0, "non-positive dt at t = {t}");
        floored += step(b, grid, dt, bc);
        t += dt;
        steps += 1;
        assert!(steps < 1_000_000, "step explosion before t_end");
    }
    (steps, floored)
}

/// Max wavespeed/`h` rate over `ids` on this process.
fn max_rate<const D: usize, B: Backend<D>>(b: &B, grid: &BlockGrid<D>, ids: &[BlockId]) -> f64 {
    let phys = &b.cfg().physics;
    let m = grid.params().block_dims;
    b.max_blocks(ids, &|id| {
        let node = grid.block(id);
        max_rate_block(
            phys,
            node.field(),
            grid.layout().cell_size(node.key().level, m),
        )
    })
}

/// Stage `s` of the configured integrator on `ids`, from the swept RHS.
fn update<const D: usize, B: Backend<D>>(
    b: &mut B,
    grid: &mut BlockGrid<D>,
    ids: &[BlockId],
    s: usize,
    dt: f64,
) -> usize {
    let metrics = b.cfg().metrics.clone();
    let _span = metrics.span(phase::UPDATE);
    match b.cfg().time_scheme {
        TimeScheme::ForwardEuler => {
            b.update_blocks(grid, ids, &|p, u| fe_update_block(p, u.field, u.rhs, dt))
        }
        TimeScheme::SspRk2 if s == 0 => b.update_blocks(grid, ids, &|p, u| {
            rk2_stage1_block(p, u.field, u.rhs, u.stage, dt)
        }),
        TimeScheme::SspRk2 => b.update_blocks(grid, ids, &|p, u| {
            rk2_stage2_block(p, u.field, u.rhs, u.stage, dt)
        }),
    }
}

/// Stage weights of the configured integrator (Heun: `½, ½`).
fn stage_weights(ts: TimeScheme) -> &'static [f64] {
    match ts {
        TimeScheme::ForwardEuler => &[1.0],
        TimeScheme::SspRk2 => &[0.5, 0.5],
    }
}

/// One global step: every owned block advances by `dt`, each stage
/// filling the full plan, sweeping, refluxing the RHS, and updating.
fn step_global<const D: usize, B: Backend<D>>(
    b: &mut B,
    grid: &mut BlockGrid<D>,
    dt: f64,
    bc: Option<&BcFn<D>>,
) -> usize {
    let ids = b.owned_ids(grid);
    let metrics = b.cfg().metrics.clone();
    let mut floored = 0;
    for s in 0..stage_weights(b.cfg().time_scheme).len() {
        b.fill_sweep(grid, Plan::Global, &ids, bc);
        if b.cfg().refluxing {
            b.pre_reflux(grid, RefluxStores::Stage, None);
            let _span = metrics.span(phase::REFLUX);
            let sw = b.cfg_engine().1.sweep();
            reflux_rhs(grid, sw.flux_stores, sw.rhs, &|id| {
                ids.binary_search(&id).is_ok()
            });
        }
        floored += update(b, grid, &ids, s, dt);
    }
    floored
}

fn interior_cells<const D: usize>(grid: &BlockGrid<D>) -> u64 {
    let dims = grid.params().block_dims;
    (0..D).map(|a| dims[a] as u64).product()
}

/// Largest stable `dt₀` for the *coarsest* level: each level ℓ must
/// satisfy its own CFL limit at `dt₀ / 2^(ℓ-ℓ₀)`, so
/// `dt₀ = min_ℓ 2^(ℓ-ℓ₀) · cfl / rate_ℓ`. One scan of every owned block
/// per call, one reduction per level.
fn max_dt0<const D: usize, B: Backend<D>>(
    b: &mut B,
    grid: &BlockGrid<D>,
    state: &mut SubcycleState<D>,
) -> f64 {
    state.revalidate(b, grid);
    let cfl = b.cfg().cfl;
    let mut dt0 = f64::INFINITY;
    let mut scanned = 0u64;
    for li in 0..state.levels().len() {
        let ids = state.ids(li);
        scanned += ids.len() as u64;
        // f64 max is exact and order-independent: every backend and
        // every rank sees the same per-level rate, bit for bit.
        let rate = b.reduce_max(max_rate(b, grid, ids));
        if rate > 0.0 {
            // units(0)/units(li) = 2^(lvl_li - lvl_0), an exact power of
            // two, so dt_li = dt0 / scale reproduces cfl/rate exactly.
            let scale = (state.units_at(0) / state.units_at(li)) as f64;
            dt0 = dt0.min(scale * cfl / rate);
        }
    }
    b.cfg_engine().1.note_rate_scans(scanned);
    dt0
}

/// Advance the whole hierarchy by one coarsest-level step `dt₀`,
/// subcycling finer levels. Returns cells clamped by positivity floors.
fn step_subcycled<const D: usize, B: Backend<D>>(
    b: &mut B,
    grid: &mut BlockGrid<D>,
    state: &mut SubcycleState<D>,
    dt0: f64,
    bc: Option<&BcFn<D>>,
) -> usize {
    state.revalidate(b, grid);
    let metrics = b.cfg().metrics.clone();
    metrics.incr("subcycle.steps", 1);
    // What a global-dt step at the finest level's dt would cost over the
    // same interval — the denominator of the subcycling efficiency.
    let nblocks = grid.block_ids().len() as u64;
    metrics.incr(
        "subcycle.cell_updates_uniform",
        nblocks * interior_cells(grid) * state.units_at(0),
    );
    advance_level(b, grid, state, 0, 0, 0, 0, dt0, bc)
}

/// One substep of level index `li` covering `[u0, u0 + units(li))` in
/// finest-granularity units, recursing into the finer levels; `parent_u0`
/// and `parent_units` locate this substep inside the parent's cycle for
/// the ghost-fill time interpolation.
#[allow(clippy::too_many_arguments)]
fn advance_level<const D: usize, B: Backend<D>>(
    b: &mut B,
    grid: &mut BlockGrid<D>,
    state: &mut SubcycleState<D>,
    li: usize,
    u0: u64,
    parent_u0: u64,
    parent_units: u64,
    dt0: f64,
    bc: Option<&BcFn<D>>,
) -> usize {
    let nlv = state.levels().len();
    let units = state.units_at(li);
    // Exact: units/units(0) is a negative power of two.
    let dt = dt0 * (units as f64 / state.units_at(0) as f64);
    let theta_at = |u: u64| -> f64 {
        if parent_units == 0 {
            0.0
        } else {
            (u - parent_u0) as f64 / parent_units as f64
        }
    };
    let refluxing = b.cfg().refluxing;
    let metrics = b.cfg().metrics.clone();
    let mut floored = 0usize;
    {
        let _span = metrics.span(level_span(state.levels()[li]));
        let ids: Vec<BlockId> = state.ids(li).to_vec();
        if refluxing {
            state.zero_accum(li, true);
        }
        // Old-time snapshot of the finer level's prolongation sources,
        // taken before this level moves off the old time.
        if li + 1 < nlv {
            state.snapshot_level(grid, li + 1);
        }
        for (s, &w) in stage_weights(b.cfg().time_scheme).iter().enumerate() {
            // Heun stage 1 evaluates at the substep's start, stage 2 at
            // its end (u* lives at u0 + units). The sweep reads only
            // level-`li` blocks, never the interpolated coarser sources.
            let u_fill = if s == 0 { u0 } else { u0 + units };
            state.with_lerped_sources(grid, li, theta_at(u_fill), |grid, plan| {
                b.fill_sweep(grid, Plan::Level(li, plan), &ids, bc)
            });
            if refluxing {
                let sw = b.cfg_engine().1.sweep();
                for &id in &ids {
                    let store = &sw.flux_stores[id.index()];
                    state.accum_own[id.index()].add_scaled(store, w * dt);
                    state.accum_par[id.index()].add_scaled(store, w * dt);
                }
            }
            floored += update(b, grid, &ids, s, dt);
        }
        metrics.incr("subcycle.substeps", 1);
        metrics.incr(
            "subcycle.cell_updates",
            ids.len() as u64 * interior_cells(grid),
        );
    }
    if li + 1 < nlv {
        if refluxing {
            state.zero_accum(li + 1, false);
        }
        let child_units = state.units_at(li + 1);
        for k in 0..units / child_units {
            floored += advance_level(
                b,
                grid,
                state,
                li + 1,
                u0 + k * child_units,
                u0,
                units,
                dt0,
                bc,
            );
        }
        if refluxing {
            let level = state.levels()[li];
            b.pre_reflux(
                grid,
                RefluxStores::AccumPar(&mut state.accum_par),
                Some(level),
            );
            let _span = metrics.span(phase::REFLUX);
            let owned = |id: BlockId| b.is_owned(id);
            let n = reflux_state(grid, &state.accum_own, &state.accum_par, level, &owned);
            metrics.incr("subcycle.refluxed_cells", n as u64);
        }
    }
    floored
}
