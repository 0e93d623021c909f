//! Block update kernels — the hot loops of the whole repository.
//!
//! Everything Fig. 5 of the paper measures happens here: a block is a
//! regular array with ghost layers, so the kernel runs dense loops with
//! unit-stride inner dimension, no indirection, and all neighbor data
//! already resident in the ghost cells. Compare `ablock_celltree::fv`,
//! which must traverse the tree per face.
//!
//! The kernel is a dimension-by-dimension finite-volume update:
//! primitives are precomputed over the ghosted box once, each interface is
//! reconstructed (first-order or MUSCL), fed to the chosen approximate
//! Riemann solver, and accumulated into the RHS. Ideal MHD additionally
//! receives the Powell 8-wave `−(∇·B)(0, B, u, u·B)` source evaluated with
//! central differences.

use ablock_core::field::{FieldBlock, FieldShape};
use ablock_core::index::{Face, IBox, IVec};

use crate::flux::{numerical_flux, numerical_flux_rows, Riemann, Side};
use crate::lanes::{for_groups, planes, planes_mut, Lanes};
use crate::physics::{Physics, MAX_VARS, ROW_CHUNK};
use crate::recon::{limited_slope_row, Limiter, Recon};

/// Full spatial scheme: reconstruction plus Riemann solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheme {
    /// Interface reconstruction.
    pub recon: Recon,
    /// Approximate Riemann solver.
    pub riemann: Riemann,
}

impl Scheme {
    /// Second-order MUSCL/minmod + Rusanov — the workhorse configuration.
    pub fn muscl_rusanov() -> Self {
        Scheme { recon: Recon::Muscl(crate::recon::Limiter::Minmod), riemann: Riemann::Rusanov }
    }

    /// First-order Godunov + Rusanov (one ghost layer suffices).
    pub fn first_order() -> Self {
        Scheme { recon: Recon::FirstOrder, riemann: Riemann::Rusanov }
    }
}

/// Interface fluxes recorded on the six faces of one block, used by the
/// refluxing pass (`crate::reflux`) to make coarse/fine interfaces exactly
/// conservative.
///
/// Layout per face: `nvar` values per interface cell, interface cells in
/// row-major order over the transverse axes (lowest axis fastest).
#[derive(Clone, Debug)]
pub struct FaceFluxStore<const D: usize> {
    nvar: usize,
    dims: IVec<D>,
    faces: Vec<Vec<f64>>,
}

impl<const D: usize> FaceFluxStore<D> {
    /// Zeroed store for a block of `dims` interior cells.
    pub fn new(dims: IVec<D>, nvar: usize) -> Self {
        let mut faces = Vec::with_capacity(2 * D);
        for fi in 0..2 * D {
            let dir = fi / 2;
            let cells: i64 = (0..D).filter(|&a| a != dir).map(|a| dims[a]).product();
            faces.push(vec![0.0; cells as usize * nvar]);
        }
        FaceFluxStore { nvar, dims, faces }
    }

    /// Linear offset of the interface cell with transverse coordinates
    /// taken from `c` (the normal component of `c` is ignored).
    #[inline]
    pub fn offset(&self, face: Face, c: IVec<D>) -> usize {
        let dir = face.dim as usize;
        let mut idx = 0i64;
        let mut stride = 1i64;
        for a in 0..D {
            if a == dir {
                continue;
            }
            idx += c[a] * stride;
            stride *= self.dims[a];
        }
        idx as usize * self.nvar
    }

    /// Flux vector of one interface cell on one face.
    pub fn flux(&self, face: Face, c: IVec<D>) -> &[f64] {
        let o = self.offset(face, c);
        &self.faces[face.index()][o..o + self.nvar]
    }

    /// Mutable flux vector of one interface cell.
    pub fn flux_mut(&mut self, face: Face, c: IVec<D>) -> &mut [f64] {
        let o = self.offset(face, c);
        &mut self.faces[face.index()][o..o + self.nvar]
    }

    /// All flux values of one face.
    pub fn face(&self, face: Face) -> &[f64] {
        &self.faces[face.index()]
    }

    /// All flux values of one face, mutably (the distributed subcycled
    /// path writes fetched fine-side accumulator faces here).
    pub fn face_mut(&mut self, face: Face) -> &mut [f64] {
        &mut self.faces[face.index()]
    }

    /// Reset every face to zero (accumulator reuse between substeps).
    pub fn zero(&mut self) {
        for f in &mut self.faces {
            f.fill(0.0);
        }
    }

    /// Accumulate `w * other` face-by-face — the stage-weighted sum that
    /// turns per-stage instantaneous fluxes into a time-integrated face
    /// flux (`Σ_s w_s Δt F_s`).
    pub fn add_scaled(&mut self, other: &FaceFluxStore<D>, w: f64) {
        debug_assert_eq!(self.dims, other.dims);
        debug_assert_eq!(self.nvar, other.nvar);
        for (dst, src) in self.faces.iter_mut().zip(&other.faces) {
            for (x, y) in dst.iter_mut().zip(src) {
                *x += w * y;
            }
        }
    }
}

/// The cells of box `b` on tile `t`: for 3-D blocks the `z = t` slice of
/// `b`, otherwise `b` itself (a 1-D or 2-D block is one tile).
fn tile<const D: usize>(mut b: IBox<D>, t: i64) -> IBox<D> {
    if D == 3 {
        b.lo[2] = t;
        b.hi[2] = t + 1;
    }
    b
}

/// The tiles of box `b`: its z range for 3-D blocks, one tile otherwise.
fn tiles<const D: usize>(b: IBox<D>) -> std::ops::Range<i64> {
    if D == 3 {
        b.lo[2]..b.hi[2]
    } else {
        0..1
    }
}

/// The contiguous run of plane offsets `[a, b)` that covers every cell of
/// the nonempty single-tile box `bx`: its rows plus the ghost cells
/// between them.
fn span<const D: usize>(shape: &FieldShape<D>, bx: IBox<D>) -> (usize, usize) {
    let mut last = bx.hi;
    for x in &mut last {
        *x -= 1;
    }
    (shape.lin(bx.lo), shape.lin(last) + 1)
}

/// Convert the conserved field to primitives into `prim` (same
/// variable-major layout and plane stride as the field's storage) over the
/// cells the dimension-split stencil reads — the interior plus, per axis,
/// the ghost slabs on its two faces — as a few contiguous runs per tile:
/// interior-z tiles convert their full-width interior rows and the two
/// y-face slabs, ghost-z tiles their interior rows. The ghost corners are
/// never converted; the runs pick up only the short ghost-edge stretches
/// between consecutive face rows (a 4³ block with two ghost layers converts
/// 336 of its 512 cells, in 16 runs).
fn primitives<const D: usize, P: Physics>(phys: &P, field: &FieldBlock<D>, prim: &mut [f64]) {
    let shape = *field.shape();
    let ps = shape.plane_stride();
    let u = field.as_slice();
    let ng = shape.nghost;
    let ib = shape.interior_box();
    let mut convert = |bx: IBox<D>| {
        let (a, b) = span(&shape, bx);
        phys.cons_to_prim_rows(&u[a..], ps, &mut prim[a..], ps, b - a);
    };
    for t in tiles(shape.ghosted_box()) {
        let tb = tile(ib, t);
        if D == 3 && (t < 0 || t >= shape.dims[2]) {
            convert(tb);
            continue;
        }
        // full-width interior rows: interior plus both x-face slabs
        let mut rows = tb;
        rows.lo[0] -= ng;
        rows.hi[0] += ng;
        convert(rows);
        if D >= 2 {
            let mut lo = tb;
            lo.lo[1] = -ng;
            lo.hi[1] = 0;
            convert(lo);
            let mut hi = tb;
            hi.lo[1] = shape.dims[1];
            hi.hi[1] = shape.dims[1] + ng;
            convert(hi);
        }
    }
}

/// Accumulate `∂u/∂t` for one block into `rhs` (interior cells only; `rhs`
/// must have the same shape as `field`). Ghosts of `field` must be filled.
/// `h` is the physical cell size of this block's level. Returns the number
/// of interface flux evaluations (one per interface per direction).
pub fn compute_rhs_block<const D: usize, P: Physics>(
    phys: &P,
    scheme: Scheme,
    field: &FieldBlock<D>,
    h: [f64; D],
    rhs: &mut FieldBlock<D>,
    prim_scratch: &mut Vec<f64>,
) -> usize {
    compute_rhs_block_fluxes(phys, scheme, field, h, rhs, prim_scratch, None)
}

/// [`compute_rhs_block`] with optional recording of the block-face
/// interface fluxes (needed by the refluxing pass).
#[allow(clippy::too_many_arguments)]
pub fn compute_rhs_block_fluxes<const D: usize, P: Physics>(
    phys: &P,
    scheme: Scheme,
    field: &FieldBlock<D>,
    h: [f64; D],
    rhs: &mut FieldBlock<D>,
    prim_scratch: &mut Vec<f64>,
    flux_store: Option<&mut FaceFluxStore<D>>,
) -> usize {
    let n = phys.nvar();
    debug_assert_eq!(field.shape(), rhs.shape());
    debug_assert!(field.shape().nghost >= scheme.recon.required_ghosts());
    let shape = *field.shape();
    let ps = shape.plane_stride();
    // Immersed-solid handling (DESIGN.md §18): when the shape carries a
    // mask plane, interfaces between two solid cells get zero flux and
    // solid/fluid interfaces get a reflective-wall flux built by mirroring
    // the fluid state. The maskless path is bitwise untouched.
    let mask: &[f64] = field.mask().unwrap_or(&[]);

    // zero the RHS interior, plane by plane (x rows are contiguous in
    // every variable plane)
    {
        let ib = shape.interior_box();
        let mut rowbox = ib;
        rowbox.hi[0] = ib.lo[0] + 1;
        let row_len = (ib.hi[0] - ib.lo[0]) as usize;
        let rhs_s = rhs.as_mut_slice();
        for rc in rowbox.iter() {
            let i0 = shape.lin(rc);
            for v in 0..n {
                rhs_s[v * ps + i0..v * ps + i0 + row_len].fill(0.0);
            }
        }
    }

    // The scratch holds the primitive planes, the slope planes (MUSCL:
    // each cell's limited slope is computed once per direction and reused
    // by both interfaces that touch the cell — the inputs are exactly the
    // per-interface stencil differences, so results are bitwise identical
    // to recomputing them at each interface) and two tile flux buffers.
    // It keeps its length from block to block of one shape, so a call
    // allocates and clears nothing.
    let field_len = field.as_slice().len();
    let fs = if D == 3 { shape.strides()[2] as usize } else { shape.allocated_cells() };
    prim_scratch.resize(2 * field_len + 2 * n * fs, 0.0);
    let (prim, rest) = prim_scratch.split_at_mut(field_len);
    let (slope, rest) = rest.split_at_mut(field_len);
    let (fcur, fprev) = rest.split_at_mut(n * fs);
    primitives(phys, field, prim);

    let mut sweep = Sweep {
        phys,
        scheme,
        shape,
        h,
        prim,
        slope,
        mask,
        rhs: rhs.as_mut_slice(),
        flux_store,
        fcur,
        fprev,
        fs,
    };
    let mut nflux = 0;
    for dir in 0..D {
        // one monomorphic sweep per direction: `DIR` is a constant in
        // every row method below
        nflux += match dir {
            0 => sweep.run::<0>(),
            1 => sweep.run::<1>(),
            _ => sweep.run::<2>(),
        };
    }

    if phys.powell_source() {
        add_powell_source(phys, field, h, rhs);
    }
    nflux
}

/// Everything one block's directional sweeps share.
///
/// A sweep walks the block tile by tile (z-planes of a 3-D block; a 1-D or
/// 2-D block is one tile). The interfaces of a tile form one contiguous
/// run of plane offsets — the interface rows plus the few ghost positions
/// between them — so the run is cut into [`ROW_CHUNK`]-lane chunks that
/// pack several short rows each, and every load is stride-1 with no
/// per-row gather. The ghost lanes between rows are computed and never
/// read. A tile's fluxes land in a flux buffer indexed like the tile's
/// cells, from which each cell's RHS takes its left and right interface.
struct Sweep<'a, const D: usize, P: Physics> {
    phys: &'a P,
    scheme: Scheme,
    shape: FieldShape<D>,
    h: [f64; D],
    prim: &'a [f64],
    slope: &'a mut [f64],
    /// The solid-mask plane, empty when the block has none.
    mask: &'a [f64],
    rhs: &'a mut [f64],
    flux_store: Option<&'a mut FaceFluxStore<D>>,
    /// Interface fluxes of the current tile: variable `v` of the interface
    /// whose right cell has offset `a + i` (`a` the tile's first
    /// interface) at `[v * fs + i]`.
    fcur: &'a mut [f64],
    /// The previous tile's fluxes (the z sweep pairs consecutive tiles).
    fprev: &'a mut [f64],
    fs: usize,
}

impl<const D: usize, P: Physics> Sweep<'_, D, P> {
    /// The sweep along `DIR`: slopes, then the interface fluxes and the RHS
    /// accumulation tile by tile. Returns the interfaces evaluated.
    fn run<const DIR: usize>(&mut self) -> usize {
        let shape = self.shape;
        if let Recon::Muscl(lim) = self.scheme.recon {
            self.slopes::<DIR>(lim);
        }
        // interface index i in [0, m]: between cells i-1 and i along DIR
        let ib = shape.interior_box();
        let mut ibox = ib;
        ibox.hi[DIR] += 1;
        // the x and y sweeps find both interfaces of every cell in one
        // tile; the z sweep pairs the interface planes of consecutive tiles
        let across = D == 3 && DIR == 2;
        let mut a_prev = 0;
        for t in tiles(ibox) {
            let tb = tile(ibox, t);
            let (a, b) = span(&shape, tb);
            self.tile_fluxes::<DIR>(a, b);
            if self.flux_store.is_some() {
                self.record::<DIR>(tb, a);
            }
            if across {
                if t > 0 {
                    self.accumulate::<DIR>(tile(ib, t - 1), a_prev, true);
                }
                std::mem::swap(&mut self.fcur, &mut self.fprev);
                a_prev = a;
            } else {
                self.accumulate::<DIR>(tile(ib, t), a, false);
            }
        }
        (0..D).map(|a| (ibox.hi[a] - ibox.lo[a]) as usize).product()
    }

    /// Fill the slope planes for `DIR` over every cell an interface
    /// extrapolates from (interior grown by one along `DIR`), one
    /// contiguous run per tile.
    fn slopes<const DIR: usize>(&mut self, lim: Limiter) {
        let shape = self.shape;
        let n = self.phys.nvar();
        let ps = shape.plane_stride();
        let step = shape.strides()[DIR] as usize;
        let mut sbox = shape.interior_box();
        sbox.lo[DIR] -= 1;
        sbox.hi[DIR] += 1;
        for t in tiles(sbox) {
            let (a, b) = span(&shape, tile(sbox, t));
            for v in 0..n {
                let p = &self.prim[v * ps..];
                limited_slope_row(
                    lim,
                    &p[a - step..b - step],
                    &p[a..b],
                    &p[a + step..b + step],
                    &mut self.slope[v * ps + a..v * ps + b],
                );
            }
        }
        if !self.mask.is_empty() {
            // First order at walls: a cell whose slope stencil touches a
            // solid cell extrapolates constantly. The check uses the ghost
            // masks too, so neighboring blocks make the bitwise-same
            // decision at shared interfaces.
            let mask = self.mask;
            let mut rows = sbox;
            rows.hi[0] = sbox.lo[0] + 1;
            let len = (sbox.hi[0] - sbox.lo[0]) as usize;
            for rc in rows.iter() {
                let b = shape.lin(rc);
                for j in b..b + len {
                    if mask[j - step] != 0.0 || mask[j] != 0.0 || mask[j + step] != 0.0 {
                        for v in 0..n {
                            self.slope[v * ps + j] = 0.0;
                        }
                    }
                }
            }
        }
    }

    /// Fluxes of the interfaces whose right cells are the offsets `[a, b)`
    /// into `fcur`, in chunks of at most [`ROW_CHUNK`] lanes. The
    /// reconstruction reads the primitive and slope planes in place: uL
    /// extrapolates from the left cells (offset `c0 - step`), uR from the
    /// right cells (offset `c0`).
    fn tile_fluxes<const DIR: usize>(&mut self, a: usize, b: usize) {
        let ps = self.shape.plane_stride();
        let step = self.shape.strides()[DIR] as usize;
        let muscl = matches!(self.scheme.recon, Recon::Muscl(_));
        let mut c0 = a;
        while c0 < b {
            let lanes = (b - c0).min(ROW_CHUNK);
            let side = |o: usize| Side {
                prim: &self.prim[o..],
                slope: muscl.then(|| &self.slope[o..]),
                stride: ps,
            };
            let (left, right) = (side(c0 - step), side(c0));
            let out = &mut self.fcur[c0 - a..];
            let (phys, riemann, fs) = (self.phys, self.scheme.riemann, self.fs);
            numerical_flux_rows::<P, DIR>(phys, riemann, left, right, out, fs, lanes);
            if !self.mask.is_empty() {
                let solid = (&self.mask[c0 - step..], &self.mask[c0..]);
                wall_fluxes::<DIR, P>(phys, riemann, solid, left, right, out, fs, lanes);
            }
            c0 += lanes;
        }
    }

    /// Record the block-face fluxes of interface tile `tb` (first interface
    /// at offset `a`) in the flux store.
    fn record<const DIR: usize>(&mut self, tb: IBox<D>, a: usize) {
        let Some(store) = self.flux_store.as_deref_mut() else { return };
        let m = self.shape.dims[DIR];
        for i in [0, m] {
            let mut fb = tb;
            fb.lo[DIR] = fb.lo[DIR].max(i);
            fb.hi[DIR] = fb.hi[DIR].min(i + 1);
            if fb.is_empty() {
                continue;
            }
            for c in fb.iter() {
                let o = self.shape.lin(c) - a;
                for (v, x) in store.flux_mut(Face::new(DIR, i == m), c).iter_mut().enumerate() {
                    *x = self.fcur[v * self.fs + o];
                }
            }
        }
    }

    /// Add the flux differences of the interior cells `cells` (one tile)
    /// to the RHS: `r = (r + F_left / h) - F_right / h`, written as
    /// `(r + F_left * inv_h) - F_right * inv_h` — the gain from the cell's
    /// left interface before the loss to its right one, the
    /// interface-ascending order of the scalar kernel. Both interfaces are
    /// in `fcur` (first interface at offset `a`), except for the z sweep
    /// (`across`), where the left ones are the previous tile's in `fprev`
    /// and the right ones the current tile's.
    fn accumulate<const DIR: usize>(&mut self, cells: IBox<D>, a: usize, across: bool) {
        let n = self.phys.nvar();
        let ps = self.shape.plane_stride();
        let fs = self.fs;
        let inv_h = 1.0 / self.h[DIR];
        // offset of a cell's right interface relative to its left one in
        // the buffer(s)
        let (left, right, shift): (&[f64], &[f64], usize) = if across {
            (&*self.fprev, &*self.fcur, 0)
        } else {
            (&*self.fcur, &*self.fcur, self.shape.strides()[DIR] as usize)
        };
        let mut rows = cells;
        rows.hi[0] = cells.lo[0] + 1;
        let len = (cells.hi[0] - cells.lo[0]) as usize;
        for rc in rows.iter() {
            let c = self.shape.lin(rc);
            for v in 0..n {
                let r = &mut self.rhs[v * ps + c..v * ps + c + len];
                let fl = &left[v * fs + c - a..][..len];
                let fr = &right[v * fs + c - a + shift..][..len];
                for ((x, &l), &rt) in r.iter_mut().zip(fl).zip(fr) {
                    *x = *x + l * inv_h - rt * inv_h;
                }
            }
        }
    }
}

/// Override the lanes of a chunk that touch a solid cell BEFORE the
/// flux-store recording and the RHS accumulation, so the refluxing pass
/// sees wall fluxes too. `solid` holds the mask planes of the left and
/// right cells. Solid/solid interfaces carry nothing; solid/fluid
/// interfaces get the reflective-wall flux from the mirrored fluid state
/// (the fluid-side reconstruction is first-order here because its slope
/// was zeroed), whose mass and energy components are exactly ±0.0 — only
/// the normal momentum (wall pressure) survives. The fluid state is
/// reconstructed and converted with the scalar forms, bitwise equal to the
/// lane forms. `out` holds the chunk's fluxes with plane stride `so`.
#[allow(clippy::too_many_arguments)]
fn wall_fluxes<const DIR: usize, P: Physics>(
    phys: &P,
    riemann: Riemann,
    solid: (&[f64], &[f64]),
    left: Side,
    right: Side,
    out: &mut [f64],
    so: usize,
    lanes: usize,
) {
    let n = phys.nvar();
    for k in 0..lanes {
        let solid_l = solid.0[k] != 0.0;
        let solid_r = solid.1[k] != 0.0;
        if !solid_l && !solid_r {
            continue;
        }
        if solid_l && solid_r {
            for v in 0..n {
                out[v * so + k] = 0.0;
            }
            continue;
        }
        let mut w = [0.0; MAX_VARS];
        if solid_l {
            right.state(k, n, false, &mut w);
        } else {
            left.state(k, n, true, &mut w);
        }
        let mut uf = [0.0; MAX_VARS];
        phys.prim_to_cons(&w[..n], &mut uf[..n]);
        let mut um = uf;
        for t in phys.vector_components() {
            um[t[DIR]] = -um[t[DIR]];
        }
        let mut fw = [0.0; MAX_VARS];
        if solid_l {
            numerical_flux(phys, riemann, &um[..n], &uf[..n], DIR, &mut fw[..n]);
        } else {
            numerical_flux(phys, riemann, &uf[..n], &um[..n], DIR, &mut fw[..n]);
        }
        for v in 0..n {
            out[v * so + k] = fw[v];
        }
    }
}

/// Add the Powell 8-wave source `−(∇·B)(0, B, u, u·B)` over the interior,
/// with `∇·B` from central differences (requires one valid ghost layer).
/// Cells where `∇·B` is exactly zero are left untouched.
pub fn add_powell_source<const D: usize, P: Physics>(
    phys: &P,
    field: &FieldBlock<D>,
    h: [f64; D],
    rhs: &mut FieldBlock<D>,
) {
    let b_idx = phys.b_indices().expect("powell source requires B field");
    let shape = *field.shape();
    let strides = shape.strides();
    let ps = shape.plane_stride();
    let n = phys.nvar();
    let ie = n - 1;
    let u = field.as_slice();
    let rhs_s = rhs.as_mut_slice();
    let ib = shape.interior_box();
    let mut rowbox = ib;
    rowbox.hi[0] = ib.lo[0] + 1;
    let len = (ib.hi[0] - ib.lo[0]) as usize;
    let two_h = h.map(|hd| 2.0 * hd);
    for rc in rowbox.iter() {
        let i0 = shape.lin(rc);
        let up = planes(&u[i0..], ps, n, len);
        let rp = planes_mut(&mut rhs_s[i0..], ps, n, len);
        // the ±strides[d] neighbours of the row's field components, both
        // x-contiguous
        let bn: [(&[f64], &[f64]); D] = std::array::from_fn(|d| {
            let (o, s) = (b_idx[d] * ps + i0, strides[d] as usize);
            (&u[o - s..o - s + len], &u[o + s..o + s + len])
        });
        for_groups!(len, |g| {
            let mut db = Lanes::splat(0.0);
            for d in 0..D {
                db = db + (g.load(bn[d].1) - g.load(bn[d].0)) / two_h[d];
            }
            let skip = db.is_zero();
            if !skip.iter().all(|&z| z) {
                let uv = g.load_vars(&up, n);
                let rho = uv[0];
                let v = [uv[1] / rho, uv[2] / rho, uv[3] / rho];
                let b = [uv[b_idx[0]], uv[b_idx[1]], uv[b_idx[2]]];
                let vdotb = v[0] * b[0] + v[1] * b[1] + v[2] * b[2];
                let terms = [
                    (1, db * b[0]),
                    (2, db * b[1]),
                    (3, db * b[2]),
                    (b_idx[0], db * v[0]),
                    (b_idx[1], db * v[1]),
                    (b_idx[2], db * v[2]),
                    (ie, db * vdotb),
                ];
                for (var, x) in terms {
                    let old = g.load(rp[var]);
                    g.store(rp[var], Lanes::select(skip, old, old - x));
                }
            }
        });
    }
}

/// The `DIR` lane form of [`Physics::max_speed`] for a runtime `dir`.
#[inline(always)]
fn max_speed_dir<P: Physics>(phys: &P, dir: usize, u: &[Lanes; MAX_VARS]) -> Lanes {
    match dir {
        0 => phys.max_speed_lanes::<0>(u),
        1 => phys.max_speed_lanes::<1>(u),
        _ => phys.max_speed_lanes::<2>(u),
    }
}

/// Maximum of `Σ_d max_speed_d / h_d` over the interior — the reciprocal
/// of the largest stable forward-Euler `dt` (times the CFL number).
pub fn max_rate_block<const D: usize, P: Physics>(
    phys: &P,
    field: &FieldBlock<D>,
    h: [f64; D],
) -> f64 {
    let shape = *field.shape();
    let ps = shape.plane_stride();
    let n = phys.nvar();
    let u = field.as_slice();
    let mask = field.mask();
    let mut rate: f64 = 0.0;
    let ib = shape.interior_box();
    let mut rowbox = ib;
    rowbox.hi[0] = ib.lo[0] + 1;
    let len = (ib.hi[0] - ib.lo[0]) as usize;
    let mut rates = [0.0; ROW_CHUNK];
    for rc in rowbox.iter() {
        let base = shape.lin(rc);
        let mut k0 = 0;
        while k0 < len {
            let lanes = (len - k0).min(ROW_CHUNK);
            let up = planes(&u[base + k0..], ps, n, lanes);
            let out = &mut rates[..lanes];
            for_groups!(lanes, |g| {
                let uv = g.load_vars(&up, n);
                let mut r = Lanes::splat(0.0);
                for d in 0..D {
                    r = r + max_speed_dir(phys, d, &uv) / h[d];
                }
                g.store(out, r);
            });
            for (k, &r) in out.iter().enumerate() {
                // solid cells never constrain dt (their frozen state may
                // be arbitrary, e.g. all-zero)
                if !mask.is_some_and(|m| m[base + k0 + k] != 0.0) {
                    rate = rate.max(r);
                }
            }
            k0 += lanes;
        }
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Euler;
    use crate::mhd::IdealMhd;
    use ablock_core::field::FieldShape;

    /// Fill an isolated block (ghosts included) with uniform flow.
    fn uniform_block<P: Physics>(phys: &P, shape: FieldShape<2>, w: &[f64]) -> FieldBlock<2> {
        let mut f = FieldBlock::zeros(shape);
        let n = phys.nvar();
        let mut u = vec![0.0; n];
        phys.prim_to_cons(w, &mut u);
        f.for_each_ghosted(|_, cell| cell.copy_from_slice(&u));
        f
    }

    #[test]
    fn uniform_state_has_zero_rhs() {
        // Free-stream preservation: uniform flow must produce rhs = 0.
        let e = Euler::<2>::new(1.4);
        let shape = FieldShape::new([8, 6], 2, 4);
        let field = uniform_block(&e, shape, &[1.0, 0.3, -0.2, 0.8]);
        let mut rhs = FieldBlock::zeros(shape);
        let mut scratch = Vec::new();
        for scheme in [Scheme::first_order(), Scheme::muscl_rusanov()] {
            compute_rhs_block(&e, scheme, &field, [0.1, 0.1], &mut rhs, &mut scratch);
            for c in shape.interior_box().iter() {
                for v in 0..4 {
                    assert!(
                        rhs.at(c, v).abs() < 1e-13,
                        "{scheme:?} cell {c:?} var {v}: {}",
                        rhs.at(c, v)
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_mhd_state_preserved_with_powell() {
        let m = IdealMhd::new(5.0 / 3.0);
        let shape = FieldShape::new([6, 6], 2, 8);
        let field = uniform_block(&m, shape, &[1.0, 0.2, 0.1, -0.3, 0.5, 0.4, 0.6, 0.9]);
        let mut rhs = FieldBlock::zeros(shape);
        let mut scratch = Vec::new();
        compute_rhs_block(&m, Scheme::muscl_rusanov(), &field, [0.05, 0.05], &mut rhs, &mut scratch);
        for c in shape.interior_box().iter() {
            for v in 0..8 {
                assert!(rhs.at(c, v).abs() < 1e-12, "cell {c:?} var {v}: {}", rhs.at(c, v));
            }
        }
    }

    #[test]
    fn flux_count_matches_interfaces() {
        let e = Euler::<2>::new(1.4);
        let shape = FieldShape::new([4, 4], 2, 4);
        let field = uniform_block(&e, shape, &[1.0, 0.0, 0.0, 1.0]);
        let mut rhs = FieldBlock::zeros(shape);
        let mut scratch = Vec::new();
        let n = compute_rhs_block(&e, Scheme::first_order(), &field, [1.0, 1.0], &mut rhs, &mut scratch);
        // x: 5 interfaces * 4 rows; y: 5 * 4 columns
        assert_eq!(n, 40);
    }

    #[test]
    fn rhs_is_conservative_interior() {
        // The interior sum of the RHS telescopes to the boundary fluxes;
        // with periodic-identical ghosts on both sides the net is zero.
        let e = Euler::<1>::new(1.4);
        let shape = FieldShape::<1>::new([16], 2, 3);
        let mut field = FieldBlock::zeros(shape);
        // periodic-ish data: sin profile whose ghosts mirror the wrap
        let nvar = 3;
        let mut u = vec![0.0; nvar];
        for c in shape.ghosted_box().iter() {
            let x = (c[0].rem_euclid(16)) as f64 / 16.0;
            let w = [1.0 + 0.3 * (2.0 * std::f64::consts::PI * x).sin(), 0.7, 1.0];
            e.prim_to_cons(&w, &mut u);
            field.set_cell(c, &u);
        }
        let mut rhs = FieldBlock::zeros(shape);
        let mut scratch = Vec::new();
        compute_rhs_block(&e, Scheme::muscl_rusanov(), &field, [1.0 / 16.0], &mut rhs, &mut scratch);
        for v in 0..3 {
            let s = rhs.interior_sum(v);
            assert!(s.abs() < 1e-11, "var {v} rhs sum {s}");
        }
    }

    #[test]
    fn powell_source_activates_on_divb() {
        let m = IdealMhd::new(5.0 / 3.0);
        let shape = FieldShape::new([4, 4], 2, 8);
        let mut field = uniform_block(&m, shape, &[1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        // impose Bx = x -> divB = 1 everywhere
        for c in shape.ghosted_box().iter() {
            *field.at_mut(c, 4) = c[0] as f64 * 0.1;
        }
        let mut rhs = FieldBlock::zeros(shape);
        rhs.fill(0.0);
        add_powell_source(&m, &field, [0.1, 0.1], &mut rhs);
        // S_mx = -divB * Bx; divB = 1.0/0.1... central diff: (0.1)/(2*0.1)*2 = 1
        let c = [2i64, 2];
        let divb = 1.0;
        let bx = 0.2;
        assert!((rhs.at(c, 1) + divb * bx).abs() < 1e-12);
        // S_bx = -divB * vx = -0.5
        assert!((rhs.at(c, 4) + 0.5).abs() < 1e-12);
        // rho source is zero
        assert_eq!(rhs.at(c, 0), 0.0);
    }

    #[test]
    fn max_rate_scales_with_resolution() {
        let e = Euler::<2>::new(1.4);
        let shape = FieldShape::new([4, 4], 2, 4);
        let field = uniform_block(&e, shape, &[1.0, 0.0, 0.0, 1.0]);
        let r1 = max_rate_block(&e, &field, [0.1, 0.1]);
        let r2 = max_rate_block(&e, &field, [0.05, 0.05]);
        assert!((r2 / r1 - 2.0).abs() < 1e-12);
        let a = 1.4f64.sqrt();
        assert!((r1 - 2.0 * a / 0.1).abs() < 1e-10);
    }

    #[test]
    fn floors_applied_per_cell() {
        let e = Euler::<1>::new(1.4);
        let shape = FieldShape::<1>::new([8], 1, 3);
        let mut field = FieldBlock::zeros(shape);
        field.for_each_interior(|c, u| {
            u[0] = if c[0] == 3 { -1.0 } else { 1.0 };
            u[2] = 1.0;
        });
        // a zero-dt forward-Euler update leaves the state and floors it
        let rhs = FieldBlock::zeros(shape);
        let n = crate::engine::fe_update_block(&e, &mut field, &rhs, 0.0);
        assert_eq!(n, 1);
        assert!(field.at([3], 0) > 0.0);
    }
}
