//! Ghost-cell exchange.
//!
//! Every block carries `nghost` layers of ghost cells mirroring its
//! neighbors' interiors (paper, *Adaptive Blocks*): a same-level neighbor
//! is copied directly, a finer neighbor is **restricted** (conservative
//! averaging), a coarser neighbor is **prolonged** (constant or limited
//! linear interpolation), and physical domain faces are synthesized from
//! the boundary condition.
//!
//! The exchange is driven by a cached **plan** ([`GhostExchange`]): a flat
//! task list recomputed only when the grid adapts, so the per-step cost is
//! pure data movement amortized over whole faces — the paper's point about
//! amortizing communication over blocks rather than cells.
//!
//! Tasks execute in two phases:
//!
//! * **phase 1** — physical boundaries, same-level copies, restrictions.
//!   These read only interiors, so they are order-independent.
//! * **phase 2** — prolongations. These may also read the coarse block's
//!   ghost slab facing the fine block (restriction-filled in phase 1) for
//!   centered slopes at the refinement boundary.
//!
//! Slope stencils in phase 2 are confined to `interior ∪ that one slab`;
//! at transverse block edges the operator falls back to one-sided slopes,
//! which keeps phase 2 order-independent as well (no prolongation ever
//! reads another prolongation's output).

use crate::field::FieldBlock;
use crate::grid::{BlockGrid, FaceConn};
use crate::index::{Face, IBox, IVec};
use crate::key::BlockKey;
use crate::layout::{Boundary, Resolved};
use crate::ops::{prolong, restrict_avg, ProlongOrder};
use crate::arena::BlockId;

/// Context handed to custom boundary fills.
pub struct BoundaryCtx<'a, const D: usize> {
    /// Block whose ghosts are being filled.
    pub key: BlockKey<D>,
    /// Domain face being synthesized.
    pub face: Face,
    /// Boundary tag from [`Boundary::Custom`].
    pub tag: u16,
    /// Physical center of the ghost cell being filled.
    pub position: [f64; D],
    /// Nearest interior cell's state (often the starting point).
    pub interior: &'a [f64],
}

/// One ghost-fill task. All regions are in the destination block's
/// interior-relative coordinates; field meanings are given per variant.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum GhostTask<const D: usize> {
    /// Same-level copy: `dst[region] = src[region + shift]`.
    Same { dst: BlockId, src: BlockId, region: IBox<D>, shift: IVec<D> },
    /// Restriction from a finer neighbor: destination cell `c` averages the
    /// `ratio^D` source cells at `ratio*c + q`.
    Restrict { dst: BlockId, src: BlockId, region: IBox<D>, q: IVec<D>, ratio: i64 },
    /// Prolongation from a coarser neighbor: destination cell `c` reads
    /// source cell `(c+p) div ratio - a`; `valid` bounds slope stencils.
    Prolong {
        dst: BlockId,
        src: BlockId,
        region: IBox<D>,
        p: IVec<D>,
        a: IVec<D>,
        ratio: i64,
        valid: IBox<D>,
    },
    /// Physical boundary synthesis over the face's ghost slab.
    Physical { dst: BlockId, face: Face, bc: Boundary },
    /// Fill a ghost region by clamped copy of the nearest interior cell
    /// (corner regions bordering physical boundaries, and fallbacks where
    /// a diagonal refinement jump exceeds what restriction can source).
    ClampCopy { dst: BlockId, region: IBox<D> },
}

/// Options controlling ghost synthesis.
#[derive(Clone, Debug)]
pub struct GhostConfig {
    /// Interpolation order for coarse→fine ghost fill.
    pub prolong_order: ProlongOrder,
    /// Variable index triples forming spatial vectors (momentum, B, …);
    /// reflecting boundaries flip the component normal to the face.
    /// Entries beyond `D` components are ignored for lower dimensions.
    pub vector_components: Vec<[usize; 3]>,
    /// Also fill edge/corner ghost regions from the blocks sharing those
    /// lower-dimensional boundaries (the paper's extended-pointer
    /// generalization). Needed by unsplit/diagonal stencils; the default
    /// dimension-by-dimension solvers do not require it.
    pub corners: bool,
}

impl Default for GhostConfig {
    fn default() -> Self {
        GhostConfig {
            prolong_order: ProlongOrder::LinearMinmod,
            vector_components: Vec::new(),
            corners: false,
        }
    }
}

impl GhostConfig {
    /// Builder: enable corner/edge ghost fill.
    pub fn with_corners(mut self, on: bool) -> Self {
        self.corners = on;
        self
    }
}

/// A cached exchange plan for one grid topology.
///
/// The plan records the grid's [topology epoch](BlockGrid::epoch) it was
/// built at; [`GhostExchange::is_current`] tells a cache holder whether
/// the plan still matches the grid without comparing any tasks.
pub struct GhostExchange<const D: usize> {
    phase1: Vec<GhostTask<D>>,
    phase2: Vec<GhostTask<D>>,
    config: GhostConfig,
    epoch: u64,
}

impl<const D: usize> GhostExchange<D> {
    /// Build the plan for the grid's current topology.
    pub fn build(grid: &BlockGrid<D>, config: GhostConfig) -> Self {
        let m = grid.params().block_dims;
        let ng = grid.params().nghost;
        let interior = IBox::from_dims(m);
        let mut phase1 = Vec::new();
        let mut phase2 = Vec::new();

        for (id, node) in grid.blocks() {
            let kb = node.key();
            if config.corners {
                emit_corner_tasks(grid, id, kb, &mut phase1, &mut phase2);
            }
            for f in Face::all::<D>() {
                match node.face(f) {
                    FaceConn::Boundary(bc) => {
                        phase1.push(GhostTask::Physical { dst: id, face: f, bc: *bc });
                    }
                    FaceConn::Blocks(list) => {
                        let ghost_slab = interior.outer_face_slab(f, ng);
                        for &nid in list {
                            let nk = grid.block(nid).key();
                            let nu = unwrapped_neighbor_key(kb, f, nk);
                            let lb = kb.level as i32;
                            let ln = nk.level as i32;
                            if ln == lb {
                                // shift = (b_glob - n_glob) in cells
                                let mut shift = [0i64; D];
                                for d in 0..D {
                                    shift[d] = (kb.coords[d] - nu.coords[d]) * m[d];
                                }
                                phase1.push(GhostTask::Same {
                                    dst: id,
                                    src: nid,
                                    region: ghost_slab,
                                    shift,
                                });
                            } else if ln > lb {
                                // finer: restrict; clip slab to nf coverage
                                let j = (ln - lb) as u32;
                                let r = 1i64 << j;
                                let mut cov_lo = [0i64; D];
                                let mut cov_hi = [0i64; D];
                                let mut q = [0i64; D];
                                for d in 0..D {
                                    // nf covers fine cells [nu*m, (nu+1)*m);
                                    // in level-lb cells: divide by r
                                    cov_lo[d] = nu.coords[d] * m[d] / r - kb.coords[d] * m[d];
                                    cov_hi[d] =
                                        (nu.coords[d] + 1) * m[d] / r - kb.coords[d] * m[d];
                                    q[d] = r * kb.coords[d] * m[d] - nu.coords[d] * m[d];
                                }
                                let region =
                                    ghost_slab.intersect(&IBox::new(cov_lo, cov_hi));
                                if !region.is_empty() {
                                    phase1.push(GhostTask::Restrict {
                                        dst: id,
                                        src: nid,
                                        region,
                                        q,
                                        ratio: r,
                                    });
                                }
                            } else {
                                // coarser: prolong in phase 2
                                let j = (lb - ln) as u32;
                                let r = 1i64 << j;
                                let mut p = [0i64; D];
                                let mut a = [0i64; D];
                                for d in 0..D {
                                    p[d] = kb.coords[d] * m[d];
                                    a[d] = nu.coords[d] * m[d];
                                }
                                // slope stencils may read the coarse block's
                                // ghost slab facing back toward us (filled by
                                // restriction in phase 1)
                                let toward_us = f.opposite();
                                let mut valid = interior;
                                let d = toward_us.dim as usize;
                                if toward_us.high {
                                    valid.hi[d] += ng;
                                } else {
                                    valid.lo[d] -= ng;
                                }
                                phase2.push(GhostTask::Prolong {
                                    dst: id,
                                    src: nid,
                                    region: ghost_slab,
                                    p,
                                    a,
                                    ratio: r,
                                    valid,
                                });
                            }
                        }
                    }
                }
            }
        }
        GhostExchange { phase1, phase2, config, epoch: grid.epoch() }
    }

    /// The grid topology epoch this plan was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when the plan still matches the grid's topology (no refine,
    /// coarsen, or explicit epoch bump since the plan was built).
    pub fn is_current(&self, grid: &BlockGrid<D>) -> bool {
        self.epoch == grid.epoch()
    }

    /// The config the plan was built with.
    pub fn config(&self) -> &GhostConfig {
        &self.config
    }

    /// Number of tasks (both phases).
    pub fn num_tasks(&self) -> usize {
        self.phase1.len() + self.phase2.len()
    }

    /// Total f64s moved per fill — the communication volume a distributed
    /// run would send; used by the BSP cost model.
    pub fn comm_volume(&self, grid: &BlockGrid<D>) -> usize {
        let nvar = grid.params().nvar;
        self.phase1
            .iter()
            .chain(self.phase2.iter())
            .map(|t| match t {
                GhostTask::Same { region, .. } => region.volume() as usize * nvar,
                GhostTask::Restrict { region, .. } => region.volume() as usize * nvar,
                GhostTask::Prolong { region, .. } => region.volume() as usize * nvar,
                GhostTask::Physical { .. } | GhostTask::ClampCopy { .. } => 0,
            })
            .sum()
    }

    /// Tasks of phase 1 (boundary, same-level, restriction).
    pub fn phase1(&self) -> &[GhostTask<D>] {
        &self.phase1
    }

    /// Tasks of phase 2 (prolongation).
    pub fn phase2(&self) -> &[GhostTask<D>] {
        &self.phase2
    }

    /// Restrict the plan to the tasks a **level-`level` sweep** needs
    /// (the per-substep ghost fill of the subcycled time stepper):
    ///
    /// * every task whose destination block sits on `level`, plus
    /// * the phase-1 `Restrict` tasks refilling the ghost slabs of the
    ///   *coarser* blocks that level-`level` prolongations read — a
    ///   prolongation's `valid` box covers the source's interior and the
    ///   one ghost slab facing the fine destination, and that slab is
    ///   restriction-filled, so it must be refreshed from current fine
    ///   data before the prolongation runs.
    ///
    /// Faces between two level-`level` blocks are covered by the `Same`
    /// tasks kept above; faces toward finer levels by the kept `Restrict`
    /// tasks; faces toward coarser levels by the kept `Prolong` tasks
    /// (whose coarse sources the caller time-interpolates). Task order
    /// within each phase is preserved, so running the sub-plan writes the
    /// same values the full plan would (for the destinations it keeps).
    /// The sub-plan inherits this plan's epoch and config.
    pub fn sublevel_plan(&self, grid: &BlockGrid<D>, level: u8) -> GhostExchange<D> {
        let lvl = |id: BlockId| grid.block(id).key().level;
        let phase2: Vec<GhostTask<D>> = self
            .phase2
            .iter()
            .filter(|t| lvl(task_dst(t)) == level)
            .cloned()
            .collect();
        // coarse blocks whose ghost slab a kept prolongation may read
        let mut p2src: Vec<BlockId> = phase2
            .iter()
            .filter_map(|t| match t {
                GhostTask::Prolong { src, .. } => Some(*src),
                _ => None,
            })
            .collect();
        p2src.sort();
        p2src.dedup();
        let phase1: Vec<GhostTask<D>> = self
            .phase1
            .iter()
            .filter(|t| {
                let dst = task_dst(t);
                lvl(dst) == level
                    || (matches!(t, GhostTask::Restrict { .. })
                        && p2src.binary_search(&dst).is_ok())
            })
            .cloned()
            .collect();
        GhostExchange { phase1, phase2, config: self.config.clone(), epoch: self.epoch }
    }

    /// Execute the plan serially.
    pub fn fill(&self, grid: &mut BlockGrid<D>) {
        self.fill_with(grid, &|_ctx, _cell, u| {
            // default custom handler: zero-gradient
            let _ = u;
        });
    }

    /// Execute the plan, synthesizing [`Boundary::Custom`] ghosts with
    /// `custom(ctx, ghost_cell_coords, state)`. The state arrives
    /// pre-filled with the nearest interior cell (outflow) and may be
    /// overwritten.
    pub fn fill_with(
        &self,
        grid: &mut BlockGrid<D>,
        custom: &dyn Fn(&BoundaryCtx<D>, IVec<D>, &mut [f64]),
    ) {
        for t in &self.phase1 {
            self.run_task(grid, t, custom);
        }
        for t in &self.phase2 {
            self.run_task(grid, t, custom);
        }
    }

    /// Execute one task of this plan with default (outflow) custom-boundary
    /// handling. Used by the distributed halo exchange once remote source
    /// data has been staged into the local copy of the source block.
    pub fn run_single(&self, grid: &mut BlockGrid<D>, task: &GhostTask<D>) {
        self.run_task(grid, task, &|_, _, _| {});
    }

    /// Execute one task with a custom-boundary synthesizer.
    pub fn run_single_with(
        &self,
        grid: &mut BlockGrid<D>,
        task: &GhostTask<D>,
        custom: &dyn Fn(&BoundaryCtx<D>, IVec<D>, &mut [f64]),
    ) {
        self.run_task(grid, task, custom);
    }

    fn run_task(
        &self,
        grid: &mut BlockGrid<D>,
        task: &GhostTask<D>,
        custom: &dyn Fn(&BoundaryCtx<D>, IVec<D>, &mut [f64]),
    ) {
        match *task {
            GhostTask::Same { dst, src, region, shift } => {
                if dst == src {
                    copy_region_within(grid.block_mut(dst).field_mut(), region, shift);
                } else {
                    let (db, sb) = grid.block2_mut(dst, src);
                    db.field_mut().copy_region_from(region, sb.field(), shift);
                }
            }
            GhostTask::Restrict { dst, src, region, q, ratio } => {
                let (db, sb) = grid.block2_mut(dst, src);
                restrict_avg(db.field_mut(), region, sb.field(), q, ratio);
            }
            GhostTask::Prolong { dst, src, region, p, a, ratio, valid } => {
                let (db, sb) = grid.block2_mut(dst, src);
                prolong(
                    db.field_mut(),
                    region,
                    sb.field(),
                    p,
                    a,
                    ratio,
                    self.config.prolong_order,
                    valid,
                );
            }
            GhostTask::Physical { dst, face, bc } => {
                self.fill_physical(grid, dst, face, bc, custom);
            }
            GhostTask::ClampCopy { dst, region } => {
                let m = grid.params().block_dims;
                let field = grid.block_mut(dst).field_mut();
                for c in region.iter() {
                    let mut src = c;
                    for d in 0..D {
                        src[d] = src[d].clamp(0, m[d] - 1);
                    }
                    let u = field.cell(src).to_vec();
                    field.set_cell(c, &u);
                }
            }
        }
    }

    fn fill_physical(
        &self,
        grid: &mut BlockGrid<D>,
        dst: BlockId,
        face: Face,
        bc: Boundary,
        custom: &dyn Fn(&BoundaryCtx<D>, IVec<D>, &mut [f64]),
    ) {
        let m = grid.params().block_dims;
        let ng = grid.params().nghost;
        let key = grid.block(dst).key();
        let layout = grid.layout().clone();
        let field = grid.block_mut(dst).field_mut();
        synthesize_boundary(&layout, m, ng, key, field, face, bc, &self.config, custom);
    }
}

/// Fill one physical-boundary ghost slab of one block. Free function so
/// both the serial plan execution and the shared-memory parallel executor
/// (`ablock-par`) share the exact same boundary semantics.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_boundary<const D: usize>(
    layout: &crate::layout::RootLayout<D>,
    m: IVec<D>,
    ng: i64,
    key: BlockKey<D>,
    field: &mut FieldBlock<D>,
    face: Face,
    bc: Boundary,
    config: &GhostConfig,
    custom: &dyn Fn(&BoundaryCtx<D>, IVec<D>, &mut [f64]),
) {
    let nvar = field.shape().nvar;
    let d = face.dim as usize;
    let interior = IBox::from_dims(m);
    let slab = interior.outer_face_slab(face, ng);
    let mut state = vec![0.0; nvar];
    for c in slab.iter() {
        // nearest / mirrored interior partner along the normal
        let mut near = c;
        near[d] = near[d].clamp(0, m[d] - 1);
        let mut mirror = c;
        mirror[d] = if face.high { 2 * m[d] - 1 - c[d] } else { -1 - c[d] };
        match bc {
            Boundary::Outflow => {
                let u = field.cell(near).to_vec();
                field.set_cell(c, &u);
            }
            Boundary::Reflect => {
                state.copy_from_slice(&field.cell(mirror));
                for vc in &config.vector_components {
                    if d < 3 {
                        let v = vc[d];
                        if v < nvar {
                            state[v] = -state[v];
                        }
                    }
                }
                field.set_cell(c, &state);
            }
            Boundary::Custom(tag) => {
                state.copy_from_slice(&field.cell(near));
                let pos = layout.cell_center(key, m, c);
                {
                    let interior_state = field.cell(near);
                    let ctx = BoundaryCtx {
                        key,
                        face,
                        tag,
                        position: pos,
                        interior: &interior_state,
                    };
                    custom(&ctx, c, &mut state);
                }
                field.set_cell(c, &state);
            }
            Boundary::Periodic => {
                unreachable!("periodic faces resolve to block connections")
            }
        }
    }
}

/// All diagonal direction vectors (two or more non-zero components) in
/// `{-1,0,1}^D` — the edge/corner neighbors of the paper's extended
/// pointer generalization.
fn diagonal_offsets<const D: usize>() -> Vec<IVec<D>> {
    let mut out = Vec::new();
    let n = 3usize.pow(D as u32);
    for code in 0..n {
        let mut s = [0i64; D];
        let mut c = code;
        let mut nonzero = 0;
        for x in s.iter_mut() {
            *x = (c % 3) as i64 - 1;
            c /= 3;
            if *x != 0 {
                nonzero += 1;
            }
        }
        if nonzero >= 2 {
            out.push(s);
        }
    }
    out
}

/// Collect the leaves descending from `key` that touch the side of `key`
/// selected by `s` (for each dim with `s[d] != 0`, the child on the
/// `-s[d]` side — the side facing back toward the querying block).
fn collect_leaves_on_corner<const D: usize>(
    grid: &BlockGrid<D>,
    key: BlockKey<D>,
    s: IVec<D>,
    out: &mut Vec<(BlockKey<D>, BlockId)>,
) {
    if let Some(id) = grid.find(key) {
        out.push((key, id));
        return;
    }
    for ci in 0..(1usize << D) {
        let mut ok = true;
        for d in 0..D {
            if s[d] == 1 && (ci >> d) & 1 != 0 {
                ok = false; // want the low-side child
            }
            if s[d] == -1 && (ci >> d) & 1 == 0 {
                ok = false; // want the high-side child
            }
        }
        if ok {
            collect_leaves_on_corner(grid, key.child(ci), s, out);
        }
    }
}

/// Emit the ghost tasks for every edge/corner region of block `id`.
fn emit_corner_tasks<const D: usize>(
    grid: &BlockGrid<D>,
    id: BlockId,
    kb: BlockKey<D>,
    phase1: &mut Vec<GhostTask<D>>,
    phase2: &mut Vec<GhostTask<D>>,
) {
    let m = grid.params().block_dims;
    let ng = grid.params().nghost;
    let interior = IBox::from_dims(m);
    for sdir in diagonal_offsets::<D>() {
        // the corner ghost region selected by sdir
        let mut region = interior;
        for d in 0..D {
            match sdir[d] {
                1 => {
                    region.lo[d] = m[d];
                    region.hi[d] = m[d] + ng;
                }
                -1 => {
                    region.lo[d] = -ng;
                    region.hi[d] = 0;
                }
                _ => {}
            }
        }
        let target = kb.offset(sdir);
        match grid.layout().resolve(target) {
            Resolved::Outside(..) => {
                phase1.push(GhostTask::ClampCopy { dst: id, region });
            }
            Resolved::InDomain(nk) => {
                if let Some((nid, found_key)) = grid.find_covering(nk) {
                    // same level or coarser leaf covers the whole region
                    let nu = if found_key.level == kb.level {
                        target
                    } else {
                        target.at_coarser_level(found_key.level)
                    };
                    if found_key.level == kb.level {
                        let mut shift = [0i64; D];
                        for d in 0..D {
                            shift[d] = (kb.coords[d] - nu.coords[d]) * m[d];
                        }
                        phase1.push(GhostTask::Same { dst: id, src: nid, region, shift });
                    } else {
                        let j = (kb.level - found_key.level) as u32;
                        let r = 1i64 << j;
                        let mut p = [0i64; D];
                        let mut a = [0i64; D];
                        for d in 0..D {
                            p[d] = kb.coords[d] * m[d];
                            a[d] = nu.coords[d] * m[d];
                        }
                        phase2.push(GhostTask::Prolong {
                            dst: id,
                            src: nid,
                            region,
                            p,
                            a,
                            ratio: r,
                            valid: interior,
                        });
                    }
                } else {
                    // subdivided: restrict from each fine leaf on the
                    // corner side
                    let mut leaves = Vec::new();
                    collect_leaves_on_corner(grid, nk, sdir, &mut leaves);
                    leaves.sort_by_key(|(k, _)| *k);
                    for (fk, fid) in leaves {
                        let j = (fk.level - kb.level) as u32;
                        let r = 1i64 << j;
                        // translate the fine leaf adjacent to kb (undo wrap)
                        let anc = fk.at_coarser_level(kb.level);
                        let mut fu = fk.coords;
                        for d in 0..D {
                            fu[d] += (target.coords[d] - anc.coords[d]) << j;
                        }
                        let mut cov_lo = [0i64; D];
                        let mut cov_hi = [0i64; D];
                        let mut q = [0i64; D];
                        for d in 0..D {
                            cov_lo[d] = fu[d] * m[d] / r - kb.coords[d] * m[d];
                            cov_hi[d] = (fu[d] + 1) * m[d] / r - kb.coords[d] * m[d];
                            q[d] = r * kb.coords[d] * m[d] - fu[d] * m[d];
                        }
                        let sub = region.intersect(&IBox::new(cov_lo, cov_hi));
                        if sub.is_empty() {
                            continue;
                        }
                        if m.iter().any(|&md| md < ng * r) {
                            // fine interior too shallow to source the
                            // ratio-r restriction: degrade gracefully
                            phase1.push(GhostTask::ClampCopy { dst: id, region: sub });
                        } else {
                            phase1.push(GhostTask::Restrict {
                                dst: id,
                                src: fid,
                                region: sub,
                                q,
                                ratio: r,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Copy `region` of a block's own field from `region + shift` (periodic
/// self-neighbor in single-root axes). Ghost destinations never alias the
/// interior source, but Rust cannot see that, so stage through a buffer.
fn copy_region_within<const D: usize>(field: &mut FieldBlock<D>, region: IBox<D>, shift: IVec<D>) {
    if region.is_empty() {
        return;
    }
    let shape = *field.shape();
    let ps = shape.plane_stride();
    // Plane by plane, x-row by x-row: rows are contiguous in each plane.
    let mut row = region;
    row.hi[0] = row.lo[0] + 1;
    let row_len = (region.hi[0] - region.lo[0]) as usize;
    let mut buf = vec![0.0; region.volume() as usize * shape.nvar];
    let data = field.as_mut_slice();
    let mut k = 0;
    for c in row.iter() {
        let mut sc = c;
        for d in 0..D {
            sc[d] += shift[d];
        }
        let mut si = shape.lin(sc);
        for _ in 0..shape.nvar {
            buf[k..k + row_len].copy_from_slice(&data[si..si + row_len]);
            si += ps;
            k += row_len;
        }
    }
    let mut k = 0;
    for c in row.iter() {
        let mut di = shape.lin(c);
        for _ in 0..shape.nvar {
            data[di..di + row_len].copy_from_slice(&buf[k..k + row_len]);
            di += ps;
            k += row_len;
        }
    }
}

/// The neighbor's key translated to sit adjacent to `kb` across `f`,
/// undoing any periodic wrap: the returned key may have out-of-domain
/// coordinates but correct *relative* position, which is what the copy
/// offset arithmetic needs.
fn unwrapped_neighbor_key<const D: usize>(
    kb: BlockKey<D>,
    f: Face,
    nk: BlockKey<D>,
) -> BlockKey<D> {
    let adj = kb.face_neighbor(f); // unwrapped, level of kb
    if nk.level == kb.level {
        return adj;
    }
    if nk.level < kb.level {
        return adj.at_coarser_level(nk.level);
    }
    // finer: translate nk by the wrap offset of its level-kb ancestor
    let j = (nk.level - kb.level) as u32;
    let anc = nk.at_coarser_level(kb.level);
    let mut c = nk.coords;
    for d in 0..D {
        c[d] += (adj.coords[d] - anc.coords[d]) << j;
    }
    BlockKey::new(nk.level, c)
}

/// Convenience: build a plan and fill once (small tests / examples).
pub fn fill_ghosts<const D: usize>(grid: &mut BlockGrid<D>, config: GhostConfig) {
    GhostExchange::build(grid, config).fill(grid);
}

// ---------------------------------------------------------------------------
// per-rank-pair aggregation
// ---------------------------------------------------------------------------

/// The source cells a ghost task reads, in the **source** block's
/// interior-relative coordinates, as `(dst, src, src_box)`. `None` for
/// tasks without a source block ([`GhostTask::Physical`],
/// [`GhostTask::ClampCopy`]). This is the region a distributed runtime
/// must stage into its mirror copy of `src` before the task can run —
/// and therefore the region aggregation packs into pair buffers.
pub fn task_source_box<const D: usize>(
    task: &GhostTask<D>,
) -> Option<(BlockId, BlockId, IBox<D>)> {
    match task {
        GhostTask::Same { dst, src, region, shift } => Some((*dst, *src, region.shift(*shift))),
        GhostTask::Restrict { dst, src, region, q, ratio } => {
            Some((*dst, *src, region.scale(*ratio).shift(*q)))
        }
        GhostTask::Prolong { dst, src, region, p, a, ratio, valid } => {
            let mut lo = [0i64; D];
            let mut hi = [0i64; D];
            for d in 0..D {
                lo[d] = (region.lo[d] + p[d]).div_euclid(*ratio) - a[d];
                hi[d] = (region.hi[d] - 1 + p[d]).div_euclid(*ratio) - a[d] + 1;
            }
            let bx = IBox::new(lo, hi).grow(1).intersect(valid);
            Some((*dst, *src, bx))
        }
        GhostTask::Physical { .. } | GhostTask::ClampCopy { .. } => None,
    }
}

/// The destination block a task writes ghosts into (every variant has one).
pub fn task_dst<const D: usize>(task: &GhostTask<D>) -> BlockId {
    match task {
        GhostTask::Same { dst, .. }
        | GhostTask::Restrict { dst, .. }
        | GhostTask::Prolong { dst, .. }
        | GhostTask::Physical { dst, .. }
        | GhostTask::ClampCopy { dst, .. } => *dst,
    }
}

/// Extract a box of cells (all variables, variable-major: one full box per
/// variable plane, x-rows contiguous) into a flat payload. The payload
/// order is a wire format shared by [`insert_box`] and the aggregated
/// [`PairMessage`] pack/unpack on both ends of an exchange; it is **not**
/// the checkpoint/snapshot byte order (those stay cell-major on disk).
pub fn extract_box<const D: usize>(field: &FieldBlock<D>, bx: IBox<D>) -> Vec<f64> {
    let n = field.shape().nvar;
    let mut out = Vec::with_capacity(bx.volume() as usize * n);
    if bx.is_empty() {
        return out;
    }
    let ps = field.shape().plane_stride();
    let mut row = bx;
    row.hi[0] = row.lo[0] + 1;
    let row_len = (bx.hi[0] - bx.lo[0]) as usize;
    let data = field.as_slice();
    for v in 0..n {
        for c in row.iter() {
            let i = field.shape().lin(c) + v * ps;
            out.extend_from_slice(&data[i..i + row_len]);
        }
    }
    out
}

/// Write a flat payload produced by [`extract_box`] back into a box.
pub fn insert_box<const D: usize>(field: &mut FieldBlock<D>, bx: IBox<D>, data: &[f64]) {
    let n = field.shape().nvar;
    debug_assert_eq!(data.len(), bx.volume() as usize * n);
    if bx.is_empty() {
        return;
    }
    let shape = *field.shape();
    let ps = shape.plane_stride();
    let mut row = bx;
    row.hi[0] = row.lo[0] + 1;
    let row_len = (bx.hi[0] - bx.lo[0]) as usize;
    let dst = field.as_mut_slice();
    let mut off = 0;
    for v in 0..n {
        for c in row.iter() {
            let i = shape.lin(c) + v * ps;
            dst[i..i + row_len].copy_from_slice(&data[off..off + row_len]);
            off += row_len;
        }
    }
}

/// One packed segment of a [`PairMessage`]: the source region of exactly
/// one ghost task, at a fixed offset in the pair buffer.
#[derive(Clone, Debug)]
pub struct AggSegment<const D: usize> {
    /// Index of the task within its phase's task slice
    /// ([`GhostExchange::phase1`] or [`GhostExchange::phase2`]).
    pub task: usize,
    /// Source block (owned by the sending rank).
    pub src: BlockId,
    /// Destination block (owned by the receiving rank).
    pub dst: BlockId,
    /// Source region, in the source block's coordinates.
    pub src_box: IBox<D>,
    /// Payload length in f64s (`src_box.volume() * nvar`).
    pub values: usize,
}

/// All ghost traffic from one rank to another within one exchange phase,
/// packed into a single message.
///
/// Segments are ordered by `(dst key, src key, task index)` — a stable
/// ordering derived from block keys, never from ids, hashes, or
/// iteration order — so every rank of a replicated topology computes the
/// byte-identical packing and the receiver's unpack schedule is simply
/// the same segment list read back in order.
#[derive(Clone, Debug)]
pub struct PairMessage<const D: usize> {
    /// Sending rank (owner of every segment's `src`).
    pub from: usize,
    /// Receiving rank (owner of every segment's `dst`).
    pub to: usize,
    /// Packed segments, in the deterministic key-derived order.
    pub segments: Vec<AggSegment<D>>,
    /// Total payload length in f64s (sum of segment lengths).
    pub values: usize,
}

impl<const D: usize> PairMessage<D> {
    /// Per-segment payload lengths, in packing order. The receiver
    /// derives the identical split from its replicated plan, which is
    /// what lets a single vectored receive reconstruct the segments.
    pub fn lens(&self) -> Vec<usize> {
        self.segments.iter().map(|s| s.values).collect()
    }

    /// Sender side: extract every segment's source region from `grid`
    /// into per-segment payloads, in packing order.
    pub fn pack_parts(&self, grid: &BlockGrid<D>) -> Vec<Vec<f64>> {
        self.segments
            .iter()
            .map(|s| extract_box(grid.block(s.src).field(), s.src_box))
            .collect()
    }

    /// Receiver side: stage the received per-segment payloads into the
    /// local mirror copies of the source blocks. After this, the matching
    /// ghost tasks can run exactly as in the serial path. Each plan
    /// writes every staged cell at most once per exchange, so unpack
    /// order cannot affect the result.
    pub fn unpack(&self, grid: &mut BlockGrid<D>, parts: &[Vec<f64>]) {
        debug_assert_eq!(parts.len(), self.segments.len());
        for (s, data) in self.segments.iter().zip(parts) {
            insert_box(grid.block_mut(s.src).field_mut(), s.src_box, data);
        }
    }
}

/// The per-rank-pair aggregated form of a [`GhostExchange`] plan: one
/// [`PairMessage`] per `(from, to)` rank pair per phase, instead of one
/// message per remote task. Epoch-stamped like the plan it was
/// derived from, so cache holders can revalidate with one compare.
#[derive(Clone, Debug)]
pub struct AggregatedExchange<const D: usize> {
    /// Phase-1 pair messages (same-level copies and restrictions),
    /// sorted by `(from, to)`.
    pub phase1: Vec<PairMessage<D>>,
    /// Phase-2 pair messages (prolongation sources), sorted by
    /// `(from, to)`.
    pub phase2: Vec<PairMessage<D>>,
    epoch: u64,
}

impl<const D: usize> AggregatedExchange<D> {
    /// The grid topology epoch the underlying plan was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when the aggregation still matches the grid's topology.
    pub fn is_current(&self, grid: &BlockGrid<D>) -> bool {
        self.epoch == grid.epoch()
    }

    /// Messages one full exchange moves: exactly one per active rank pair
    /// per phase (the invariant the aggregated path is asserted against).
    pub fn num_messages(&self) -> usize {
        self.phase1.len() + self.phase2.len()
    }

    /// Pair messages of one phase (`0` or `1`).
    pub fn phase(&self, p: usize) -> &[PairMessage<D>] {
        if p == 0 {
            &self.phase1
        } else {
            &self.phase2
        }
    }
}

fn aggregate_phase<const D: usize>(
    grid: &BlockGrid<D>,
    tasks: &[GhostTask<D>],
    owner: &dyn Fn(BlockId) -> usize,
) -> Vec<PairMessage<D>> {
    let nvar = grid.params().nvar;
    let mut pairs: std::collections::BTreeMap<(usize, usize), Vec<AggSegment<D>>> =
        std::collections::BTreeMap::new();
    for (i, t) in tasks.iter().enumerate() {
        if let Some((dst, src, bx)) = task_source_box(t) {
            let (from, to) = (owner(src), owner(dst));
            if from == to {
                continue;
            }
            pairs.entry((from, to)).or_default().push(AggSegment {
                task: i,
                src,
                dst,
                src_box: bx,
                values: bx.volume() as usize * nvar,
            });
        }
    }
    pairs
        .into_iter()
        .map(|((from, to), mut segments)| {
            segments.sort_by_key(|s| {
                (grid.block(s.dst).key(), grid.block(s.src).key(), s.task)
            });
            let values = segments.iter().map(|s| s.values).sum();
            PairMessage { from, to, segments, values }
        })
        .collect()
}

impl<const D: usize> GhostExchange<D> {
    /// Aggregate this plan into per-rank-pair messages under an ownership
    /// map. Every rank of a replicated topology calls this with the
    /// identical grid, plan, and owner map and obtains the byte-identical
    /// aggregation — sender packing order and receiver unpack schedule
    /// agree by construction (see [`PairMessage`]).
    pub fn aggregate(
        &self,
        grid: &BlockGrid<D>,
        owner: &dyn Fn(BlockId) -> usize,
    ) -> AggregatedExchange<D> {
        AggregatedExchange {
            phase1: aggregate_phase(grid, &self.phase1, owner),
            phase2: aggregate_phase(grid, &self.phase2, owner),
            epoch: self.epoch,
        }
    }

    /// Destination blocks whose ghost fill depends on data from blocks
    /// where `is_remote` holds — directly (a phase-1 or phase-2 task with
    /// a remote source) or one hop through phase 2 (a prolongation whose
    /// coarse source block has any remote-sourced phase-1 task, because
    /// prolongation slopes may read that block's restriction-filled ghost
    /// slab). Sorted and deduplicated. The complement can complete its
    /// ghost fill from purely local data, which makes it the interior of
    /// a comm/compute overlap split. The one-hop closure is conservative:
    /// over-classifying a block as halo delays its flux to the join but
    /// never changes any value.
    pub fn remote_halo_dsts(&self, is_remote: &dyn Fn(BlockId) -> bool) -> Vec<BlockId> {
        use std::collections::BTreeSet;
        let mut remote_p1_dst: BTreeSet<BlockId> = BTreeSet::new();
        let mut halo: BTreeSet<BlockId> = BTreeSet::new();
        for t in &self.phase1 {
            if let Some((dst, src, _)) = task_source_box(t) {
                if is_remote(src) {
                    remote_p1_dst.insert(dst);
                    halo.insert(dst);
                }
            }
        }
        for t in &self.phase2 {
            if let Some((dst, src, _)) = task_source_box(t) {
                if is_remote(src) || remote_p1_dst.contains(&src) {
                    halo.insert(dst);
                }
            }
        }
        halo.into_iter().collect()
    }

    /// Destination blocks receiving any phase-2 (prolongation) task,
    /// sorted and deduplicated. In a shared-memory overlap split these
    /// are the halo: their ghost fill completes only with the phase-2
    /// scatter, while every other block's ghosts are final after phase 1.
    pub fn phase2_dsts(&self) -> Vec<BlockId> {
        let mut dsts: Vec<BlockId> = self
            .phase2
            .iter()
            .filter_map(|t| task_source_box(t).map(|(dst, _, _)| dst))
            .collect();
        dsts.sort();
        dsts.dedup();
        dsts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridParams, Transfer};
    use crate::layout::RootLayout;

    /// Fill every block's interior with a globally smooth linear function of
    /// the physical cell center: ghost exchange must reproduce it exactly
    /// (linear fields are invariant under copy, averaging, and limited
    /// linear interpolation with centered stencils).
    fn fill_global_linear<const D: usize>(grid: &mut BlockGrid<D>, coef: [f64; D], c0: f64) {
        let m = grid.params().block_dims;
        let layout = grid.layout().clone();
        let ids = grid.block_ids();
        for id in ids {
            let key = grid.block(id).key();
            grid.block_mut(id).field_mut().for_each_interior(|c, u| {
                let x = layout.cell_center(key, m, c);
                let mut v = c0;
                for d in 0..D {
                    v += coef[d] * x[d];
                }
                u[0] = v;
            });
        }
    }

    #[test]
    fn same_level_exchange_periodic() {
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([2, 2], Boundary::Periodic),
            GridParams::new([4, 4], 2, 1, 2),
        );
        // constant-per-block marker
        let ids = g.block_ids();
        for (i, id) in ids.iter().enumerate() {
            g.block_mut(*id).field_mut().for_each_interior(|_, u| u[0] = i as f64 + 1.0);
        }
        fill_ghosts(&mut g, GhostConfig::default());
        // block (0,0)'s x+ ghosts hold block (1,0)'s value
        let a = g.find(BlockKey::new(0, [0, 0])).unwrap();
        let b = g.find(BlockKey::new(0, [1, 0])).unwrap();
        let want = {
            let mut v = 0.0;
            g.block_mut(b).field_mut().for_each_interior(|_, u| v = u[0]);
            v
        };
        assert_eq!(g.block(a).field().at([4, 0], 0), want);
        // and its x- ghosts wrap around to the same block
        assert_eq!(g.block(a).field().at([-1, 2], 0), want);
    }

    #[test]
    fn self_neighbor_periodic_single_root() {
        let mut g = BlockGrid::<1>::new(
            RootLayout::unit([1], Boundary::Periodic),
            GridParams::new([8], 2, 1, 1),
        );
        let id = g.block_ids()[0];
        g.block_mut(id).field_mut().for_each_interior(|c, u| u[0] = c[0] as f64);
        fill_ghosts(&mut g, GhostConfig::default());
        let f = g.block(id).field();
        assert_eq!(f.at([-1], 0), 7.0);
        assert_eq!(f.at([-2], 0), 6.0);
        assert_eq!(f.at([8], 0), 0.0);
        assert_eq!(f.at([9], 0), 1.0);
    }

    #[test]
    fn linear_field_reproduced_across_refinement_2d() {
        // Outflow faces: a linear-in-x,y field is incompatible with
        // periodic wrap. The second refinement cascades into the
        // neighboring roots.
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([2, 2], Boundary::Outflow),
            GridParams::new([8, 8], 2, 1, 3),
        );
        let a = g.find(BlockKey::new(0, [0, 0])).unwrap();
        g.refine(a, Transfer::None).unwrap();
        let b = g.find(BlockKey::new(1, [1, 1])).unwrap();
        crate::balance::adapt(
            &mut g,
            &[(b, crate::balance::Flag::Refine)].into_iter().collect(),
            Transfer::None,
        );
        fill_global_linear(&mut g, [2.0, -1.0], 0.25);
        fill_ghosts(&mut g, GhostConfig::default());
        // Interior-adjacent ghosts must reproduce the linear field exactly;
        // physical-boundary ghosts (outflow) are only zero-gradient, so
        // check interior faces only.
        let m = g.params().block_dims;
        let ng = g.params().nghost;
        for (id, node) in g.blocks() {
            for f in Face::all::<2>() {
                if node.face(f).is_boundary() {
                    continue;
                }
                let slab = IBox::from_dims(m).outer_face_slab(f, ng);
                for c in slab.iter() {
                    let x = g.layout().cell_center(node.key(), m, c);
                    let want = 2.0 * x[0] - 1.0 * x[1] + 0.25;
                    let got = node.field().at(c, 0);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "block {:?} (id {id:?}) ghost {c:?}: got {got}, want {want}",
                        node.key()
                    );
                }
            }
        }
    }

    #[test]
    fn linear_field_reproduced_3d() {
        let mut g = BlockGrid::<3>::new(
            RootLayout::unit([2, 1, 1], Boundary::Outflow),
            GridParams::new([4, 4, 4], 2, 1, 2),
        );
        let a = g.find(BlockKey::new(0, [0, 0, 0])).unwrap();
        g.refine(a, Transfer::None).unwrap();
        fill_global_linear(&mut g, [1.0, 2.0, 3.0], -0.5);
        fill_ghosts(&mut g, GhostConfig::default());
        let m = g.params().block_dims;
        let ng = g.params().nghost;
        for (_, node) in g.blocks() {
            for f in Face::all::<3>() {
                if node.face(f).is_boundary() {
                    continue;
                }
                let slab = IBox::from_dims(m).outer_face_slab(f, ng);
                for c in slab.iter() {
                    let x = g.layout().cell_center(node.key(), m, c);
                    let want = x[0] + 2.0 * x[1] + 3.0 * x[2] - 0.5;
                    let got = node.field().at(c, 0);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "block {:?} ghost {c:?}: got {got}, want {want}",
                        node.key()
                    );
                }
            }
        }
    }

    #[test]
    fn restriction_is_conservative_average() {
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([2, 1], Boundary::Outflow),
            GridParams::new([4, 4], 2, 1, 2),
        );
        let a = g.find(BlockKey::new(0, [0, 0])).unwrap();
        g.refine(a, Transfer::None).unwrap();
        // fine blocks hold distinct constants; coarse ghost = their average
        // where segments meet? No - each ghost cell averages cells of ONE
        // fine block (2x2 fine per coarse ghost), so ghost = that constant.
        for (i, key) in [
            BlockKey::new(1, [1, 0]),
            BlockKey::new(1, [1, 1]),
        ]
        .iter()
        .enumerate()
        {
            let id = g.find(*key).unwrap();
            g.block_mut(id)
                .field_mut()
                .for_each_interior(|_, u| u[0] = 10.0 * (i as f64 + 1.0));
        }
        fill_ghosts(&mut g, GhostConfig::default());
        let b = g.find(BlockKey::new(0, [1, 0])).unwrap();
        let fb = g.block(b).field();
        // b's x- ghosts: lower half from (1,[1,0]) = 10, upper from (1,[1,1]) = 20
        assert_eq!(fb.at([-1, 0], 0), 10.0);
        assert_eq!(fb.at([-2, 1], 0), 10.0);
        assert_eq!(fb.at([-1, 2], 0), 20.0);
        assert_eq!(fb.at([-2, 3], 0), 20.0);
    }

    #[test]
    fn outflow_boundary_zero_gradient() {
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([1, 1], Boundary::Outflow),
            GridParams::new([4, 4], 2, 1, 0),
        );
        let id = g.block_ids()[0];
        g.block_mut(id).field_mut().for_each_interior(|c, u| u[0] = (c[0] + 1) as f64);
        fill_ghosts(&mut g, GhostConfig::default());
        let f = g.block(id).field();
        assert_eq!(f.at([-1, 2], 0), 1.0);
        assert_eq!(f.at([-2, 2], 0), 1.0);
        assert_eq!(f.at([4, 1], 0), 4.0);
        assert_eq!(f.at([5, 1], 0), 4.0);
    }

    #[test]
    fn reflect_boundary_mirrors_and_flips() {
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([1, 1], Boundary::Reflect),
            GridParams::new([4, 4], 2, 3, 0),
        );
        let id = g.block_ids()[0];
        // vars: 0 = scalar, 1 = vx, 2 = vy
        g.block_mut(id).field_mut().for_each_interior(|c, u| {
            u[0] = 1.0 + c[0] as f64;
            u[1] = 2.0 + c[0] as f64;
            u[2] = 3.0 + c[1] as f64;
        });
        let cfg = GhostConfig {
            prolong_order: ProlongOrder::Constant,
            vector_components: vec![[1, 2, usize::MAX]],
            corners: false,
        };
        fill_ghosts(&mut g, cfg);
        let f = g.block(id).field();
        // x- face: ghost (-1, j) mirrors interior (0, j); vx flips
        assert_eq!(f.at([-1, 1], 0), 1.0);
        assert_eq!(f.at([-1, 1], 1), -2.0);
        assert_eq!(f.at([-1, 1], 2), f.at([0, 1], 2));
        assert_eq!(f.at([-2, 1], 0), 2.0, "second ghost mirrors cell 1");
        // y- face: vy flips, vx does not
        assert_eq!(f.at([1, -1], 2), -3.0);
        assert_eq!(f.at([1, -1], 1), f.at([1, 0], 1));
    }

    #[test]
    fn custom_boundary_callback() {
        let mut g = BlockGrid::<1>::new(
            RootLayout::new([2], [0.0], [1.0], [Boundary::Custom(7); 6]),
            GridParams::new([4], 2, 1, 0),
        );
        let ids = g.block_ids();
        for id in ids {
            g.block_mut(id).field_mut().for_each_interior(|_, u| u[0] = 5.0);
        }
        let ex = GhostExchange::build(&g, GhostConfig::default());
        ex.fill_with(&mut g, &|ctx, _c, u| {
            assert_eq!(ctx.tag, 7);
            assert_eq!(ctx.interior[0], 5.0);
            u[0] = ctx.position[0] * 100.0;
        });
        let a = g.find(BlockKey::new(0, [0])).unwrap();
        // ghost -1 center: x = -0.0625 (cell width 1/8)
        let f = g.block(a).field();
        assert!((f.at([-1], 0) - (-6.25)).abs() < 1e-12);
        let b = g.find(BlockKey::new(0, [1])).unwrap();
        assert!((g.block(b).field().at([4], 0) - 106.25).abs() < 1e-12);
    }

    #[test]
    fn comm_volume_counts_interfaces() {
        let g = BlockGrid::<2>::new(
            RootLayout::unit([2, 1], Boundary::Periodic),
            GridParams::new([4, 4], 2, 1, 1),
        );
        let ex = GhostExchange::build(&g, GhostConfig::default());
        // two blocks, each with 4 faces: x faces are block copies (4 tasks
        // of 2*4 cells), y faces wrap to self (4 tasks of 4*2 cells)
        assert_eq!(ex.num_tasks(), 8);
        assert_eq!(ex.comm_volume(&g), 8 * 8);
    }

    #[test]
    fn plan_rebuild_after_adapt_changes_tasks() {
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([2, 1], Boundary::Outflow),
            GridParams::new([4, 4], 2, 1, 2),
        );
        let before = GhostExchange::build(&g, GhostConfig::default()).num_tasks();
        let a = g.find(BlockKey::new(0, [0, 0])).unwrap();
        g.refine(a, Transfer::None).unwrap();
        let after = GhostExchange::build(&g, GhostConfig::default()).num_tasks();
        assert!(after > before);
    }
}
