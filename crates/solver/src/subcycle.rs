//! Berger–Oliger local time stepping (subcycling) over the level hierarchy.
//!
//! Under [`TimeStepMode::Global`](crate::config::TimeStepMode::Global)
//! every block advances with the globally CFL-limited `dt`, so the
//! finest level's cell size throttles the whole grid. Subcycling instead
//! advances level ℓ with `dt₀ / 2^(ℓ-ℓ₀)`: one coarse step spawns two
//! half-length steps on the next finer level, recursively, so each level
//! runs at *its own* CFL limit and coarse blocks stop paying for fine
//! resolution they don't have. On a grid where refinement covers a small
//! fraction of the domain this is the paper's dominant savings after
//! adaptivity itself.
//!
//! Three couplings make the recursion correct:
//!
//! 1. **Time-interpolated ghost fills.** A fine substep at interior time
//!    `t₀ + θ·Δt_coarse` needs coarse ghost data *at that time*. The
//!    driver snapshots the interiors of every prolongation-source block
//!    before the coarse level advances, then linearly blends
//!    `(1-θ)·old + θ·new` into those blocks around each fine ghost fill
//!    (restoring the true state afterwards). `θ = 0` installs the
//!    snapshot verbatim and `θ = 1` is a no-op, so no roundoff enters at
//!    the endpoints.
//! 2. **Per-level exchange plans.** Filling the whole grid's ghosts per
//!    fine substep would erase the savings. [`GhostExchange::sublevel_plan`]
//!    filters the cached full plan to the tasks one level's fill needs
//!    (its own destinations plus the restriction tasks feeding its
//!    prolongation sources); plans are cached per topology epoch in
//!    [`SubcycleState`].
//! 3. **Flux-accumulated refluxing.** With stages and substeps at
//!    different cadences, conservation requires comparing *time-integrated*
//!    face fluxes: each level accumulates `Σ_s w_s Δt_ℓ F_s` into its own
//!    per-substep accumulator (`accum_own`) and into a parent-cycle
//!    accumulator (`accum_par`); when a coarse substep's fine children
//!    finish, [`reflux_state`](crate::reflux::reflux_state) replaces the
//!    coarse face flux by the area- and time-averaged fine flux directly
//!    on the conserved state. The two accumulators exist because their
//!    reset schedules conflict: `accum_own` resets every own substep,
//!    `accum_par` once per parent cycle.
//!
//! This module holds the epoch-keyed scratch those couplings need; the
//! recursion itself is part of the one time-stepping driver in
//! [`crate::driver`], so serial, pool and distributed backends all run
//! it. On a single-level grid it reduces to the global path bitwise
//! (asserted below), and on refined grids the differential suites check
//! every backend against the serial one bitwise.

use ablock_core::arena::BlockId;
use ablock_core::ghost::{extract_box, insert_box, GhostExchange, GhostTask};
use ablock_core::grid::BlockGrid;

use crate::driver::Backend;
use crate::kernel::FaceFluxStore;

/// Span names for per-level substep timing (`Metrics::span` wants
/// `&'static str`); levels ≥ 15 share the last slot.
const LEVEL_SPANS: [&str; 16] = [
    "step.lvl0",
    "step.lvl1",
    "step.lvl2",
    "step.lvl3",
    "step.lvl4",
    "step.lvl5",
    "step.lvl6",
    "step.lvl7",
    "step.lvl8",
    "step.lvl9",
    "step.lvl10",
    "step.lvl11",
    "step.lvl12",
    "step.lvl13",
    "step.lvl14",
    "step.lvl15",
];

/// The static span name for one level's substeps.
pub fn level_span(level: u8) -> &'static str {
    LEVEL_SPANS[(level as usize).min(LEVEL_SPANS.len() - 1)]
}

/// Epoch-keyed scratch for the subcycled driver: the level table, one
/// filtered exchange plan per level, prolongation-source snapshots for
/// time interpolation, and the two flux accumulators feeding
/// [`reflux_state`](crate::reflux::reflux_state). Owned by each executor
/// next to its [`SweepEngine`](crate::engine::SweepEngine);
/// [`SubcycleState::revalidate`] rebuilds everything when the grid's
/// topology epoch moves, exactly like the engine's plan cache.
#[derive(Default)]
pub struct SubcycleState<const D: usize> {
    epoch: Option<u64>,
    /// Distinct refinement levels present, ascending.
    levels: Vec<u8>,
    /// Blocks of each level, in arena order (filtered to owned blocks by
    /// distributed backends).
    level_ids: Vec<Vec<BlockId>>,
    /// Per-level filtered exchange plan (see
    /// [`GhostExchange::sublevel_plan`]).
    plans: Vec<GhostExchange<D>>,
    /// Prolongation-source blocks of each level's plan — the coarse
    /// blocks whose interiors get time-interpolated around fine fills.
    p2src: Vec<Vec<BlockId>>,
    /// Old-time interior data of `p2src[li]`, refreshed by the parent
    /// level at the start of each of its substeps.
    snapshots: Vec<Vec<Vec<f64>>>,
    /// Substep length of each level in finest-granularity units
    /// (`2^(lvl_max - lvl)`); exact powers of two so every `dt_ℓ` and
    /// every θ is an exact binary fraction.
    units: Vec<u64>,
    /// Time-integrated face fluxes of the *current own substep* of each
    /// block (coarse side of the reflux correction).
    pub accum_own: Vec<FaceFluxStore<D>>,
    /// Time-integrated face fluxes over the *parent's current cycle*
    /// (fine side of the reflux correction; zeroed by the parent before
    /// it recurses).
    pub accum_par: Vec<FaceFluxStore<D>>,
}

impl<const D: usize> SubcycleState<D> {
    /// Empty state; first [`SubcycleState::revalidate`] populates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the cached tables match the grid's topology epoch.
    pub fn is_current(&self, grid: &BlockGrid<D>) -> bool {
        self.epoch == Some(grid.epoch())
    }

    /// Distinct levels present, ascending.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Blocks the backend advances at level index `li`.
    pub fn ids(&self, li: usize) -> &[BlockId] {
        &self.level_ids[li]
    }

    /// The filtered exchange plan for level index `li`.
    pub fn plan(&self, li: usize) -> &GhostExchange<D> {
        &self.plans[li]
    }

    /// Substep length of level index `li` in finest-granularity units.
    pub fn units_at(&self, li: usize) -> u64 {
        self.units[li]
    }

    /// Zero level index `li`'s `accum_own` (`own`) or `accum_par`
    /// accumulators.
    pub fn zero_accum(&mut self, li: usize, own: bool) {
        let acc = if own { &mut self.accum_own } else { &mut self.accum_par };
        for id in &self.level_ids[li] {
            acc[id.index()].zero();
        }
    }

    /// Level index of refinement level `level`, if present.
    pub fn level_index(&self, level: u8) -> Option<usize> {
        self.levels.binary_search(&level).ok()
    }

    /// Rebuild the level tables, per-level plans, prolongation-source
    /// lists, and (iff refluxing) the flux accumulators for the grid's
    /// current topology. Cheap no-op when the epoch is unchanged. Also
    /// revalidates the backend's engine so `plan()` is current.
    pub fn revalidate<B: Backend<D>>(&mut self, backend: &mut B, grid: &BlockGrid<D>) {
        if self.is_current(grid) {
            // The engine still counts a reuse per outer step so the
            // amortization stats match the global path.
            backend.cfg_engine().1.revalidate(grid);
            return;
        }
        let refluxing;
        {
            let (cfg, engine) = backend.cfg_engine();
            refluxing = cfg.refluxing;
            engine.revalidate(grid);
            let mut levels: Vec<u8> = grid.blocks().map(|(_, n)| n.key().level).collect();
            levels.sort_unstable();
            levels.dedup();
            let plan = engine.plan();
            self.plans = levels.iter().map(|&l| plan.sublevel_plan(grid, l)).collect();
            self.levels = levels;
        }
        self.p2src = self
            .plans
            .iter()
            .map(|p| {
                let mut srcs: Vec<BlockId> = p
                    .phase2()
                    .iter()
                    .filter_map(|t| match t {
                        GhostTask::Prolong { src, .. } => Some(*src),
                        _ => None,
                    })
                    .collect();
                srcs.sort_unstable();
                srcs.dedup();
                // Distributed backends interpolate only blocks they own;
                // mirrors carry owner-interpolated data via the exchange.
                srcs.retain(|&id| backend.is_owned(id));
                srcs
            })
            .collect();
        let owned = backend.owned_ids(grid);
        self.level_ids = self
            .levels
            .iter()
            .map(|&l| {
                let on_level = |id: &&BlockId| grid.block(**id).key().level == l;
                owned.iter().filter(on_level).copied().collect()
            })
            .collect();
        self.snapshots = vec![Vec::new(); self.levels.len()];
        let lmax = *self.levels.last().expect("grid has no blocks");
        self.units = self.levels.iter().map(|&l| 1u64 << (lmax - l)).collect();
        if refluxing {
            let cap = grid
                .block_ids()
                .iter()
                .map(|id| id.index() + 1)
                .max()
                .unwrap_or(0);
            let dims = grid.params().block_dims;
            let nvar = grid.params().nvar;
            self.accum_own.clear();
            self.accum_own.resize_with(cap, || FaceFluxStore::new(dims, nvar));
            self.accum_par.clear();
            self.accum_par.resize_with(cap, || FaceFluxStore::new(dims, nvar));
        }
        self.epoch = Some(grid.epoch());
    }

    /// Record the old-time interiors of level `li`'s prolongation
    /// sources — called by the *parent* level at the start of each of
    /// its substeps, before it advances.
    pub fn snapshot_level(&mut self, grid: &BlockGrid<D>, li: usize) {
        let SubcycleState { p2src, snapshots, .. } = self;
        let snaps = &mut snapshots[li];
        snaps.clear();
        for &id in &p2src[li] {
            let f = grid.block(id).field();
            snaps.push(extract_box(f, f.shape().interior_box()));
        }
    }

    /// Run `f` (a ghost fill with level `li`'s plan) with every
    /// prolongation source's interior temporarily set to
    /// `(1-θ)·old + θ·current`, restoring the current state afterwards.
    /// `θ = 1` runs `f` directly (current *is* the new time) and `θ = 0`
    /// installs the snapshot verbatim, so the endpoints are exact.
    pub fn with_lerped_sources<R>(
        &self,
        grid: &mut BlockGrid<D>,
        li: usize,
        theta: f64,
        f: impl FnOnce(&mut BlockGrid<D>, &GhostExchange<D>) -> R,
    ) -> R {
        let plan = &self.plans[li];
        let srcs = &self.p2src[li];
        if theta == 1.0 || srcs.is_empty() {
            return f(grid, plan);
        }
        let snaps = &self.snapshots[li];
        debug_assert_eq!(srcs.len(), snaps.len(), "fill before parent snapshot");
        let mut saved: Vec<Vec<f64>> = Vec::with_capacity(srcs.len());
        for (k, &id) in srcs.iter().enumerate() {
            let ib = grid.block(id).field().shape().interior_box();
            let cur = extract_box(grid.block(id).field(), ib);
            let old = &snaps[k];
            debug_assert_eq!(cur.len(), old.len());
            if theta == 0.0 {
                insert_box(grid.block_mut(id).field_mut(), ib, old);
            } else {
                let blend: Vec<f64> = old
                    .iter()
                    .zip(&cur)
                    .map(|(&a, &b)| (1.0 - theta) * a + theta * b)
                    .collect();
                insert_box(grid.block_mut(id).field_mut(), ib, &blend);
            }
            saved.push(cur);
        }
        let r = f(grid, plan);
        for (k, &id) in srcs.iter().enumerate() {
            let ib = grid.block(id).field().shape().interior_box();
            insert_box(grid.block_mut(id).field_mut(), ib, &saved[k]);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Euler;
    use crate::config::{SolverConfig, TimeStepMode};
    use crate::kernel::Scheme;
    use crate::physics::Physics;
    use crate::stepper::{total_conserved, Stepper};
    use ablock_core::grid::{GridParams, Transfer};
    use ablock_core::key::BlockKey;
    use ablock_core::layout::{Boundary, RootLayout};
    use ablock_core::ops::ProlongOrder;

    fn periodic_grid_1d(nblocks: i64, m: i64) -> BlockGrid<1> {
        BlockGrid::new(
            RootLayout::unit([nblocks], Boundary::Periodic),
            GridParams::new([m], 2, 3, 3),
        )
    }

    fn set_sine_density(grid: &mut BlockGrid<1>, e: &Euler<1>, v0: f64) {
        let m = grid.params().block_dims;
        let layout = grid.layout().clone();
        for id in grid.block_ids() {
            let key = grid.block(id).key();
            let e = e.clone();
            grid.block_mut(id).field_mut().for_each_interior(|c, u| {
                let x = layout.cell_center(key, m, c)[0];
                let w = [1.0 + 0.2 * (2.0 * std::f64::consts::PI * x).sin(), v0, 1.0];
                e.prim_to_cons(&w, u);
            });
        }
    }

    fn interiors(grid: &BlockGrid<1>) -> Vec<f64> {
        grid.block_ids()
            .iter()
            .flat_map(|&id| {
                let f = grid.block(id).field();
                extract_box(f, f.shape().interior_box())
            })
            .collect()
    }

    #[test]
    fn single_level_subcycled_is_bitwise_global() {
        // With one level the sub-plan is the full plan, θ never differs
        // from its endpoints, and no reflux runs: the subcycled driver
        // must reduce to the global path bit for bit.
        let run = |mode: TimeStepMode| -> Vec<f64> {
            let e = Euler::<1>::new(1.4);
            let mut g = periodic_grid_1d(4, 8);
            set_sine_density(&mut g, &e, 0.7);
            let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_refluxing(true)
                .with_time_step_mode(mode);
            let mut st = Stepper::new(cfg);
            for _ in 0..8 {
                let dt = st.stable_dt(&mut g);
                st.step(&mut g, dt, None);
            }
            interiors(&g)
        };
        let global = run(TimeStepMode::Global);
        let sub = run(TimeStepMode::Subcycled);
        assert_eq!(global.len(), sub.len());
        for (a, b) in global.iter().zip(&sub) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn subcycled_refluxed_run_conserves_to_roundoff() {
        // Two-level advection: per-level flux accumulation + reflux_state
        // must keep Σρ and ΣE at roundoff, while the refluxing-off
        // control shows the coarse-fine defect ("teeth").
        let run = |reflux: bool| -> (f64, f64) {
            let e = Euler::<1>::new(1.4);
            let mut g = periodic_grid_1d(4, 8);
            set_sine_density(&mut g, &e, 0.5);
            let id = g.find(BlockKey::new(0, [1])).unwrap();
            g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
            let m0 = total_conserved(&g, 0);
            let e0 = total_conserved(&g, 2);
            let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_refluxing(reflux)
                .with_time_step_mode(TimeStepMode::Subcycled);
            let mut st = Stepper::new(cfg);
            st.run_until(&mut g, 0.0, 0.1, None);
            (
                (total_conserved(&g, 0) - m0).abs() / m0.abs(),
                (total_conserved(&g, 2) - e0).abs() / e0.abs(),
            )
        };
        let (m_with, e_with) = run(true);
        let (m_without, _) = run(false);
        assert!(m_with < 1e-13, "refluxed mass drift {m_with}");
        assert!(e_with < 1e-13, "refluxed energy drift {e_with}");
        assert!(m_without > 1e-8, "control must show the defect: {m_without}");
    }

    #[test]
    fn subcycled_fine_level_takes_halved_steps() {
        let e = Euler::<1>::new(1.4);
        let mut g = periodic_grid_1d(4, 8);
        set_sine_density(&mut g, &e, 0.5);
        let id = g.find(BlockKey::new(0, [1])).unwrap();
        g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        let metrics = ablock_obs::Metrics::recording();
        let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
            .with_refluxing(true)
            .with_time_step_mode(TimeStepMode::Subcycled)
            .with_metrics(metrics.clone());
        let mut st = Stepper::new(cfg);
        let dt0 = st.stable_dt(&mut g);
        st.step(&mut g, dt0, None);
        let s = metrics.snapshot();
        // 1 coarse substep + 2 fine substeps per outer step.
        assert_eq!(s.counter("subcycle.steps"), 1);
        assert_eq!(s.counter("subcycle.substeps"), 3);
        assert_eq!(s.spans[level_span(0)].count, 1);
        assert_eq!(s.spans[level_span(1)].count, 2);
        // 3 coarse + 2 fine blocks of 8 cells: 3·8 + 2·(2·8) = 56 cell
        // updates versus 5·8·2 = 80 at a uniform finest dt.
        assert_eq!(s.counter("subcycle.cell_updates"), 56);
        assert_eq!(s.counter("subcycle.cell_updates_uniform"), 80);
        // dt0 was computed by one scan of every block, not one per level
        // per substep.
        assert_eq!(s.counter("engine.rate_block_scans"), 5);
        assert_eq!(st.engine().stats().rate_block_scans, 5);
    }

    #[test]
    fn subcycled_survives_adapt_and_matches_accuracy() {
        // Adapt mid-run: the epoch-keyed SubcycleState must rebuild, and
        // the subcycled solution must stay close to the global one (the
        // time interpolation is O(dt²), same order as the scheme).
        let e = Euler::<1>::new(1.4);
        let run = |mode: TimeStepMode| -> Vec<f64> {
            let mut g = periodic_grid_1d(4, 8);
            set_sine_density(&mut g, &e, 0.5);
            let id = g.find(BlockKey::new(0, [1])).unwrap();
            g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
            let cfg = SolverConfig::new(e.clone(), Scheme::muscl_rusanov())
                .with_refluxing(true)
                .with_time_step_mode(mode);
            let mut st = Stepper::new(cfg);
            st.run_until(&mut g, 0.0, 0.05, None);
            let id = g.find(BlockKey::new(0, [3])).unwrap();
            g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
            st.run_until(&mut g, 0.05, 0.1, None);
            interiors(&g)
        };
        let global = run(TimeStepMode::Global);
        let sub = run(TimeStepMode::Subcycled);
        let err: f64 = global
            .iter()
            .zip(&sub)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 5e-3, "subcycled deviates too much: {err}");
        assert!(err > 0.0, "subcycled must actually take different steps");
    }
}
