//! Flux correction (refluxing) at coarse/fine block faces.
//!
//! Without correction, the flux a coarse block computes at a refinement
//! boundary differs from the area-weighted sum of the fine blocks' fluxes
//! through the same physical interface, so the scheme leaks conserved
//! quantities there (the small drift EXPERIMENTS.md documents). The
//! classical remedy (Berger & Colella) replaces the coarse flux by the
//! fine average. We apply it as an **RHS correction** after the kernels
//! run:
//!
//! ```text
//! rhs[coarse cell adjacent to face] ±= (F_coarse − ⟨F_fine⟩) / h_coarse
//! ```
//!
//! applied per stage, which makes multi-stage integrators exactly
//! conservative too. The fine side is untouched — fine fluxes are the
//! truth; only the coarse neighbor's view is corrected.
//!
//! Only one-level jumps are corrected (`max_level_jump = 1`, the paper's
//! configuration); the pass asserts if it meets a deeper jump.

use ablock_core::arena::BlockId;
use ablock_core::field::FieldBlock;
use ablock_core::grid::{BlockGrid, FaceConn};
use ablock_core::index::{Face, IBox, IVec};

use crate::kernel::FaceFluxStore;

/// One coarse-fine face pairing: the geometry both reflux variants share.
/// `region` is the coarse face-adjacent cell row covered by `fine`;
/// coarse cell `c` maps to the `2^(D-1)` fine interface cells at
/// transverse coordinates `2*c[d] + q[d] + {0,1}`.
struct CfFace<const D: usize> {
    coarse: BlockId,
    fine: BlockId,
    face: Face,
    region: IBox<D>,
    q: IVec<D>,
    /// Coarse cell size along the face normal.
    h: f64,
    /// `+1` on high faces, `−1` on low faces.
    sign: f64,
}

/// Visit every (coarse block, face, finer neighbor) pairing of the grid,
/// in block-arena order — the single source of the coverage arithmetic
/// used by [`reflux_rhs`] and [`reflux_state`]. Panics on level jumps
/// deeper than one (the paper's `max_level_jump = 1` configuration).
fn for_each_coarse_fine_face<const D: usize>(
    grid: &BlockGrid<D>,
    mut visit: impl FnMut(&CfFace<D>),
) {
    let m = grid.params().block_dims;
    for (cid, node) in grid.blocks() {
        let ck = node.key();
        for f in Face::all::<D>() {
            let FaceConn::Blocks(list) = node.face(f) else { continue };
            // only faces whose neighbors are finer
            let finer: Vec<BlockId> = list
                .iter()
                .copied()
                .filter(|&n| grid.block(n).key().level > ck.level)
                .collect();
            if finer.is_empty() {
                continue;
            }
            let dir = f.dim as usize;
            let h = grid.layout().cell_size(ck.level, m)[dir];
            let sign = if f.high { 1.0 } else { -1.0 };
            for &nid in &finer {
                let nk = grid.block(nid).key();
                assert_eq!(
                    nk.level,
                    ck.level + 1,
                    "refluxing supports one-level jumps (paper configuration)"
                );
                let nu = unwrap_neighbor(ck, f, nk);
                // coarse transverse coverage of this fine neighbor (same
                // arithmetic as the ghost-plan restriction tasks)
                let mut cov_lo = [0i64; D];
                let mut cov_hi = [0i64; D];
                let mut q = [0i64; D];
                for d in 0..D {
                    cov_lo[d] = nu.coords[d] * m[d] / 2 - ck.coords[d] * m[d];
                    cov_hi[d] = (nu.coords[d] + 1) * m[d] / 2 - ck.coords[d] * m[d];
                    q[d] = 2 * ck.coords[d] * m[d] - nu.coords[d] * m[d];
                }
                let mut region = IBox::new(cov_lo, cov_hi).intersect(&IBox::from_dims(m));
                // collapse the normal axis to the face-adjacent cell row
                let adj = if f.high { m[dir] - 1 } else { 0 };
                region.lo[dir] = adj;
                region.hi[dir] = adj + 1;
                visit(&CfFace { coarse: cid, fine: nid, face: f, region, q, h, sign });
            }
        }
    }
}

/// Area-weighted average of the fine store's interface fluxes covering
/// coarse cell `c` — overwrites `favg`.
fn fine_face_avg<const D: usize>(
    store: &FaceFluxStore<D>,
    cf: &CfFace<D>,
    c: IVec<D>,
    favg: &mut [f64],
) {
    let dir = cf.face.dim as usize;
    let weight = 1.0 / (1u32 << (D - 1)) as f64;
    let fine_face = cf.face.opposite();
    favg.fill(0.0);
    // the 2^(D-1) fine interface cells covering coarse cell c
    for t in 0..(1usize << D) {
        if (t >> dir) & 1 != 0 {
            continue;
        }
        let mut fc: IVec<D> = [0; D];
        for d in 0..D {
            if d == dir {
                fc[d] = 0; // ignored by the store
            } else {
                fc[d] = 2 * c[d] + cf.q[d] + ((t >> d) & 1) as i64;
            }
        }
        let ff = store.flux(fine_face, fc);
        for (a, &x) in favg.iter_mut().zip(ff) {
            *a += x * weight;
        }
    }
}

/// Apply the reflux correction to every coarse block's RHS.
///
/// `stores` holds each block's recorded face fluxes (from
/// [`crate::kernel::compute_rhs_block_fluxes`]) and `rhs` each block's
/// RHS field, both indexed by `BlockId::index()`. `apply_to` filters the
/// corrected coarse blocks (ownership in the distributed executor;
/// `|_| true` elsewhere). Returns the number of corrected coarse
/// interface cells.
pub fn reflux_rhs<const D: usize>(
    grid: &BlockGrid<D>,
    stores: &[FaceFluxStore<D>],
    rhs: &mut [FieldBlock<D>],
    apply_to: &dyn Fn(BlockId) -> bool,
) -> usize {
    let nvar = grid.params().nvar;
    let mut corrected = 0usize;
    let mut favg = vec![0.0; nvar];
    for_each_coarse_fine_face(grid, |cf| {
        if !apply_to(cf.coarse) {
            return;
        }
        let coarse_store = &stores[cf.coarse.index()];
        let fine_store = &stores[cf.fine.index()];
        let rhs_block = &mut rhs[cf.coarse.index()];
        for c in cf.region.iter() {
            fine_face_avg(fine_store, cf, c, &mut favg);
            let fcoarse = coarse_store.flux(cf.face, c);
            for v in 0..nvar {
                *rhs_block.at_mut(c, v) += cf.sign * (fcoarse[v] - favg[v]) / cf.h;
            }
            corrected += 1;
        }
    });
    corrected
}

/// State-space reflux for the subcycled stepper: correct the **solution**
/// of coarse blocks on `level` by the mismatch between their own
/// *time-integrated* face fluxes (`accum_own`) and the area-weighted
/// fine-side accumulation over the same parent interval (`accum_par`,
/// indexed by the fine block):
///
/// ```text
/// u[coarse cell adjacent to face] ±= (A_own − ⟨A_par⟩) / h_coarse
/// ```
///
/// The accumulators already carry `Σ_s w_s Δt F_s` (stage-weighted,
/// time-integrated), so no `dt` factor appears here. No positivity floors
/// run after the correction — it is a pure conservation fix-up whose
/// magnitude vanishes with the flux mismatch (DESIGN.md §17).
/// `apply_to` filters the corrected coarse blocks (ownership in the
/// distributed executor; `|_| true` elsewhere). Returns corrected cells.
pub fn reflux_state<const D: usize>(
    grid: &mut BlockGrid<D>,
    accum_own: &[FaceFluxStore<D>],
    accum_par: &[FaceFluxStore<D>],
    level: u8,
    apply_to: &dyn Fn(BlockId) -> bool,
) -> usize {
    let nvar = grid.params().nvar;
    let mut corrected = 0usize;
    let mut favg = vec![0.0; nvar];
    // collect corrections under the shared (immutable) traversal, apply
    // after — same per-cell arithmetic order as the RHS variant
    let mut fixes: Vec<(BlockId, IVec<D>, Vec<f64>)> = Vec::new();
    for_each_coarse_fine_face(grid, |cf| {
        if grid.block(cf.coarse).key().level != level || !apply_to(cf.coarse) {
            return;
        }
        let own = &accum_own[cf.coarse.index()];
        let par = &accum_par[cf.fine.index()];
        for c in cf.region.iter() {
            fine_face_avg(par, cf, c, &mut favg);
            let fcoarse = own.flux(cf.face, c);
            let fix: Vec<f64> = (0..nvar)
                .map(|v| cf.sign * (fcoarse[v] - favg[v]) / cf.h)
                .collect();
            fixes.push((cf.coarse, c, fix));
        }
    });
    for (id, c, fix) in fixes {
        let field = grid.block_mut(id).field_mut();
        // Solid coarse cells stay bitwise frozen (DESIGN.md §18): the fine
        // side's wall fluxes carry no mass/energy across the interface, so
        // skipping the correction loses nothing conserved.
        if field.is_solid(c) {
            continue;
        }
        for (v, dx) in fix.iter().enumerate() {
            *field.at_mut(c, v) += dx;
        }
        corrected += 1;
    }
    corrected
}

/// The (coarse, fine, coarse-side face) triples [`reflux_rhs`] and
/// [`reflux_state`] visit for coarse blocks on `level` (`None`: every
/// level), in the shared traversal order. Distributed executors use this
/// to plan fetches of remote fine-side flux faces before refluxing: the
/// coarse owner needs the fine block's fluxes on `face.opposite()`.
pub fn coarse_fine_fetch_list<const D: usize>(
    grid: &BlockGrid<D>,
    level: Option<u8>,
) -> Vec<(BlockId, BlockId, Face)> {
    let mut out = Vec::new();
    for_each_coarse_fine_face(grid, |cf| {
        if level.is_none_or(|l| grid.block(cf.coarse).key().level == l) {
            out.push((cf.coarse, cf.fine, cf.face));
        }
    });
    out
}

/// The neighbor's key translated adjacent to `kb` across `f` (undoing
/// periodic wrap) — same arithmetic the ghost planner uses.
fn unwrap_neighbor<const D: usize>(
    kb: ablock_core::key::BlockKey<D>,
    f: Face,
    nk: ablock_core::key::BlockKey<D>,
) -> ablock_core::key::BlockKey<D> {
    let adj = kb.face_neighbor(f);
    let j = (nk.level - kb.level) as u32;
    let anc = nk.at_coarser_level(kb.level);
    let mut c = nk.coords;
    for d in 0..D {
        c[d] += (adj.coords[d] - anc.coords[d]) << j;
    }
    ablock_core::key::BlockKey::new(nk.level, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Euler;
    use crate::kernel::{compute_rhs_block_fluxes, Scheme};
    use crate::physics::Physics;
    use crate::problems;
    use ablock_core::ghost::{GhostConfig, GhostExchange};
    use ablock_core::grid::{GridParams, Transfer};
    use ablock_core::key::BlockKey;
    use ablock_core::layout::{Boundary, RootLayout};
    use ablock_core::ops::ProlongOrder;

    /// Evaluate all RHS with flux recording and apply refluxing; return the
    /// volume-weighted RHS sum per variable (zero iff exactly conservative).
    fn rhs_budget(grid: &mut BlockGrid<2>, e: &Euler<2>) -> Vec<f64> {
        let plan = GhostExchange::build(
            grid,
            GhostConfig {
                prolong_order: ProlongOrder::LinearMinmod,
                vector_components: e.vector_components(),
                corners: false,
            },
        );
        plan.fill(grid);
        let ids = grid.block_ids();
        let shape = grid.params().field_shape();
        let cap = ids.iter().map(|i| i.index() + 1).max().unwrap();
        let mut rhs: Vec<FieldBlock<2>> = (0..cap).map(|_| FieldBlock::zeros(shape)).collect();
        let mut stores: Vec<FaceFluxStore<2>> = (0..cap)
            .map(|_| FaceFluxStore::new(grid.params().block_dims, e.nvar()))
            .collect();
        let mut scratch = Vec::new();
        for &id in &ids {
            let node = grid.block(id);
            let h = grid.layout().cell_size(node.key().level, grid.params().block_dims);
            compute_rhs_block_fluxes(
                e,
                Scheme::muscl_rusanov(),
                node.field(),
                h,
                &mut rhs[id.index()],
                &mut scratch,
                Some(&mut stores[id.index()]),
            );
        }
        let n = reflux_rhs(grid, &stores, &mut rhs, &|_| true);
        assert!(n > 0, "test grids must have coarse/fine faces");
        // budget: sum over blocks of rhs * cell volume
        let mut budget = vec![0.0; e.nvar()];
        for &id in &ids {
            let lvl = grid.block(id).key().level;
            let h = grid.layout().cell_size(lvl, grid.params().block_dims);
            let vol: f64 = h.iter().product();
            for (v, b) in budget.iter_mut().enumerate() {
                *b += rhs[id.index()].interior_sum(v) * vol;
            }
        }
        budget
    }

    fn refined_pulse_grid() -> (BlockGrid<2>, Euler<2>) {
        let e = Euler::<2>::new(1.4);
        let mut g = BlockGrid::new(
            RootLayout::unit([2, 2], Boundary::Periodic),
            GridParams::new([8, 8], 2, 4, 2),
        );
        problems::advected_gaussian(&mut g, &e, [0.7, 0.3], [0.4, 0.45], 0.15);
        let id = g.find(BlockKey::new(0, [0, 0])).unwrap();
        g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        (g, e)
    }

    #[test]
    fn refluxed_rhs_is_exactly_conservative() {
        let (mut g, e) = refined_pulse_grid();
        let budget = rhs_budget(&mut g, &e);
        for (v, b) in budget.iter().enumerate() {
            assert!(
                b.abs() < 1e-12,
                "var {v}: refluxed RHS budget {b} (must telescope to zero)"
            );
        }
    }

    #[test]
    fn unrefluxed_rhs_leaks() {
        // sanity: without the correction the budget is NOT zero, so the
        // test above is actually measuring something.
        let (mut g, e) = refined_pulse_grid();
        let plan = GhostExchange::build(&g, GhostConfig::default());
        plan.fill(&mut g);
        let ids = g.block_ids();
        let shape = g.params().field_shape();
        let mut scratch = Vec::new();
        let mut budget = vec![0.0; e.nvar()];
        let mut rhs = FieldBlock::zeros(shape);
        for &id in &ids {
            let node = g.block(id);
            let h = g.layout().cell_size(node.key().level, g.params().block_dims);
            crate::kernel::compute_rhs_block(
                &e,
                Scheme::muscl_rusanov(),
                node.field(),
                h,
                &mut rhs,
                &mut scratch,
            );
            let vol: f64 = h.iter().product();
            for (v, b) in budget.iter_mut().enumerate() {
                *b += rhs.interior_sum(v) * vol;
            }
        }
        let leak: f64 = budget.iter().map(|b| b.abs()).sum();
        assert!(leak > 1e-10, "expected a visible flux mismatch, got {leak}");
    }

    #[test]
    fn flux_store_layout_roundtrip() {
        let mut s = FaceFluxStore::<3>::new([4, 6, 8], 2);
        let f = Face::new(1, true);
        s.flux_mut(f, [3, 99, 7])[0] = 42.0; // normal comp ignored
        assert_eq!(s.flux(f, [3, 0, 7])[0], 42.0);
        assert_eq!(s.face(f).len(), 4 * 8 * 2);
        // distinct transverse cells map to distinct slots
        let mut seen = std::collections::HashSet::new();
        for x in 0..4 {
            for z in 0..8 {
                assert!(seen.insert(s.offset(f, [x, 0, z])));
            }
        }
    }
}
