//! Checkpoint / restart: serialize a block grid (topology + fields) to a
//! compact binary stream and reconstruct it exactly.
//!
//! Production AMR runs live and die by restart files; this is the
//! no-dependencies version, and it is the foundation of the fault-recovery
//! driver in `ablock-par`, so a corrupt or truncated stream must **error,
//! never panic**. Format v2 (little-endian):
//!
//! ```text
//! magic "ABLK" | version u32 | D u32
//! section "LAYT": roots, origin, size, boundaries[6], hole_bc, mask
//! section "PRMS": block_dims, nghost, nvar, max_level, max_level_jump, pad
//! section "LEAF": leaf count u64, then per leaf (sorted by key):
//!   level u8, coords i64 x D, interior cell data f64 x (cells*nvar)
//! ```
//!
//! Each section is framed as `tag [u8;4] | len u64 | bytes | fnv1a64 u64`:
//! the checksum covers the section bytes, so any bit flip anywhere in the
//! stream is detected (a flip in the frame itself fails the tag, length
//! cap, or checksum comparison). Section lengths are capped before
//! allocation and every count in the payload is validated against the
//! framed length, so hostile streams cannot trigger huge allocations or
//! out-of-bounds indexing.
//!
//! Ghost cells are *not* stored — they are derived state; callers refill
//! after loading. Reconstruction refines the fresh root grid level by
//! level toward the saved leaf set, which preserves the jump invariant at
//! every intermediate step (any level-truncation of a legal grid is
//! legal).
//!
//! Version 3 streams carry a content-addressed node archive instead of a
//! flat leaf section (see [`crate::snapshot`]); [`load_grid`] dispatches
//! on the version field and reads both formats.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};

use ablock_core::geom::Geometry;
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::index::IVec;
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};

pub(crate) const MAGIC: &[u8; 4] = b"ABLK";
const VERSION: u32 = 2;
/// Content-addressed node-archive streams (see [`crate::snapshot`]).
pub(crate) const VERSION_SNAPSHOT: u32 = 3;
/// Hard cap on a framed section length: guards allocation size when the
/// length field itself is corrupt. Far above any realistic checkpoint.
pub(crate) const MAX_SECTION: u64 = 1 << 28;

const SEC_LAYOUT: &[u8; 4] = b"LAYT";
const SEC_PARAMS: &[u8; 4] = b"PRMS";
const SEC_LEAVES: &[u8; 4] = b"LEAF";

/// Cap on the serialized geometry expression-tree depth: rejects
/// unboundedly recursive hostile input before the decoder recurses.
const MAX_GEOM_DEPTH: usize = 64;

const GT_SPHERE: u8 = 1;
const GT_HALF_SPACE: u8 = 2;
const GT_CUBOID: u8 = 3;
const GT_CYLINDER: u8 = 4;
const GT_UNION: u8 = 5;
const GT_INTERSECT: u8 = 6;
const GT_INVERT: u8 = 7;

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a 64-bit over raw bytes (the same hash the reliable transport in
/// `ablock-par` uses for message envelopes).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

pub(crate) fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
pub(crate) fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
pub(crate) fn w_i64(w: &mut impl Write, v: i64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
pub(crate) fn w_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
pub(crate) fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
pub(crate) fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
pub(crate) fn r_i64(r: &mut impl Read) -> io::Result<i64> {
    let mut b = [0; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}
pub(crate) fn r_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn encode_bc(bc: Boundary) -> u32 {
    match bc {
        Boundary::Periodic => 0,
        Boundary::Outflow => 1,
        Boundary::Reflect => 2,
        Boundary::Custom(tag) => 3 | ((tag as u32) << 16),
    }
}

fn decode_bc(v: u32) -> io::Result<Boundary> {
    Ok(match v & 0xFFFF {
        0 => Boundary::Periodic,
        1 => Boundary::Outflow,
        2 => Boundary::Reflect,
        3 => Boundary::Custom((v >> 16) as u16),
        other => return Err(bad(format!("unknown boundary code {other}"))),
    })
}

/// Frame `bytes` as a checksummed section.
pub(crate) fn write_section(w: &mut impl Write, tag: &[u8; 4], bytes: &[u8]) -> io::Result<()> {
    w.write_all(tag)?;
    w_u64(w, bytes.len() as u64)?;
    w.write_all(bytes)?;
    w_u64(w, fnv1a64(bytes))
}

/// Read one section, verifying tag, length cap, and checksum.
pub(crate) fn read_section(r: &mut impl Read, tag: &[u8; 4]) -> io::Result<Vec<u8>> {
    let mut t = [0u8; 4];
    r.read_exact(&mut t)?;
    if &t != tag {
        return Err(bad(format!(
            "expected section {:?}, found {:?}",
            String::from_utf8_lossy(tag),
            String::from_utf8_lossy(&t)
        )));
    }
    let len = r_u64(r)?;
    if len > MAX_SECTION {
        return Err(bad(format!(
            "section {:?} length {len} exceeds cap {MAX_SECTION}",
            String::from_utf8_lossy(tag)
        )));
    }
    let mut bytes = vec![0u8; len as usize];
    r.read_exact(&mut bytes)?;
    let stored = r_u64(r)?;
    let computed = fnv1a64(&bytes);
    if stored != computed {
        return Err(bad(format!(
            "section {:?} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}",
            String::from_utf8_lossy(tag)
        )));
    }
    Ok(bytes)
}

/// Error unless a fully-parsed section has no trailing bytes.
pub(crate) fn expect_drained(rest: &[u8], tag: &[u8; 4]) -> io::Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(bad(format!(
            "section {:?} has {} unparsed trailing byte(s)",
            String::from_utf8_lossy(tag),
            rest.len()
        )))
    }
}

/// Encode one geometry expression tree: a variant tag byte followed by
/// the variant's parameters, children in preorder.
pub(crate) fn encode_geometry(sec: &mut Vec<u8>, g: &Geometry) -> io::Result<()> {
    match g {
        Geometry::Sphere { center, radius } => {
            sec.push(GT_SPHERE);
            for &x in center {
                w_f64(sec, x)?;
            }
            w_f64(sec, *radius)?;
        }
        Geometry::HalfSpace { normal, offset } => {
            sec.push(GT_HALF_SPACE);
            for &x in normal {
                w_f64(sec, x)?;
            }
            w_f64(sec, *offset)?;
        }
        Geometry::Cuboid { lo, hi } => {
            sec.push(GT_CUBOID);
            for &x in lo {
                w_f64(sec, x)?;
            }
            for &x in hi {
                w_f64(sec, x)?;
            }
        }
        Geometry::Cylinder { axis, center, radius } => {
            sec.push(GT_CYLINDER);
            sec.push(*axis as u8);
            for &x in center {
                w_f64(sec, x)?;
            }
            w_f64(sec, *radius)?;
        }
        Geometry::Union(a, b) => {
            sec.push(GT_UNION);
            encode_geometry(sec, a)?;
            encode_geometry(sec, b)?;
        }
        Geometry::Intersect(a, b) => {
            sec.push(GT_INTERSECT);
            encode_geometry(sec, a)?;
            encode_geometry(sec, b)?;
        }
        Geometry::Invert(a) => {
            sec.push(GT_INVERT);
            encode_geometry(sec, a)?;
        }
    }
    Ok(())
}

/// Decode a geometry expression tree. Builds enum variants directly
/// (constructors assert on bad parameters and must never see untrusted
/// input); the caller validates the finished tree with
/// [`Geometry::validate`].
pub(crate) fn decode_geometry(r: &mut &[u8], depth: usize) -> io::Result<Geometry> {
    if depth > MAX_GEOM_DEPTH {
        return Err(bad(format!("geometry tree deeper than {MAX_GEOM_DEPTH}")));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        GT_SPHERE => {
            let mut center = [0.0; 3];
            for x in center.iter_mut() {
                *x = r_f64(r)?;
            }
            Geometry::Sphere { center, radius: r_f64(r)? }
        }
        GT_HALF_SPACE => {
            let mut normal = [0.0; 3];
            for x in normal.iter_mut() {
                *x = r_f64(r)?;
            }
            Geometry::HalfSpace { normal, offset: r_f64(r)? }
        }
        GT_CUBOID => {
            let mut lo = [0.0; 3];
            for x in lo.iter_mut() {
                *x = r_f64(r)?;
            }
            let mut hi = [0.0; 3];
            for x in hi.iter_mut() {
                *x = r_f64(r)?;
            }
            Geometry::Cuboid { lo, hi }
        }
        GT_CYLINDER => {
            let mut axis = [0u8; 1];
            r.read_exact(&mut axis)?;
            let mut center = [0.0; 3];
            for x in center.iter_mut() {
                *x = r_f64(r)?;
            }
            Geometry::Cylinder {
                axis: axis[0] as usize,
                center,
                radius: r_f64(r)?,
            }
        }
        GT_UNION => {
            let a = decode_geometry(r, depth + 1)?;
            let b = decode_geometry(r, depth + 1)?;
            Geometry::Union(Box::new(a), Box::new(b))
        }
        GT_INTERSECT => {
            let a = decode_geometry(r, depth + 1)?;
            let b = decode_geometry(r, depth + 1)?;
            Geometry::Intersect(Box::new(a), Box::new(b))
        }
        GT_INVERT => Geometry::Invert(Box::new(decode_geometry(r, depth + 1)?)),
        other => return Err(bad(format!("unknown geometry tag {other}"))),
    })
}

/// Encode the layout section payload (shared with the snapshot format).
pub(crate) fn encode_layout<const D: usize>(
    sec: &mut Vec<u8>,
    layout: &RootLayout<D>,
) -> io::Result<()> {
    for d in 0..D {
        w_i64(sec, layout.roots[d])?;
    }
    for d in 0..D {
        w_f64(sec, layout.origin[d])?;
    }
    for d in 0..D {
        w_f64(sec, layout.size[d])?;
    }
    for b in layout.boundaries.iter() {
        w_u32(sec, encode_bc(*b))?;
    }
    w_u32(sec, encode_bc(layout.hole_boundary))?;
    match &layout.mask {
        None => w_u32(sec, 0)?,
        Some(m) => {
            w_u32(sec, 1)?;
            w_u64(sec, m.len() as u64)?;
            for &a in m {
                sec.push(a as u8);
            }
        }
    }
    // Immersed geometry rides as an optional tail after the root-mask
    // field: geometry-free layouts stay byte-identical to the format
    // before geometries existed, so pre-geometry streams still parse
    // (and pre-geometry readers reject geometric streams as trailing
    // garbage instead of misreading them).
    if let Some(g) = &layout.geometry {
        w_u32(sec, 1)?;
        encode_geometry(sec, g)?;
    }
    Ok(())
}

/// Encode the params section payload (shared with the snapshot format).
pub(crate) fn encode_params<const D: usize>(
    sec: &mut Vec<u8>,
    p: &GridParams<D>,
) -> io::Result<()> {
    for d in 0..D {
        w_i64(sec, p.block_dims[d])?;
    }
    w_i64(sec, p.nghost)?;
    w_u64(sec, p.nvar as u64)?;
    w_u32(sec, p.max_level as u32)?;
    w_u32(sec, p.max_level_jump as u32)?;
    w_i64(sec, p.pad)
}

/// Serialize the grid (layout, params, leaf keys, interior fields).
pub fn save_grid<const D: usize>(w: &mut impl Write, grid: &BlockGrid<D>) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w_u32(w, VERSION)?;
    w_u32(w, D as u32)?;

    let mut sec = Vec::new();
    encode_layout(&mut sec, grid.layout())?;
    write_section(w, SEC_LAYOUT, &sec)?;

    sec.clear();
    encode_params(&mut sec, grid.params())?;
    write_section(w, SEC_PARAMS, &sec)?;

    sec.clear();
    let mut leaves: Vec<BlockKey<D>> = grid.blocks().map(|(_, n)| n.key()).collect();
    leaves.sort();
    w_u64(&mut sec, leaves.len() as u64)?;
    for key in leaves {
        sec.push(key.level);
        for d in 0..D {
            w_i64(&mut sec, key.coords[d])?;
        }
        let id = grid
            .find(key)
            .ok_or_else(|| bad(format!("grid inconsistent: leaf {key:?} has no block")))?;
        let f = grid.block(id).field();
        for c in f.shape().interior_box().iter() {
            // gather across the SoA planes: the on-disk payload stays
            // cell-major (vars innermost), independent of the memory layout
            for &v in f.cell(c).iter() {
                w_f64(&mut sec, v)?;
            }
        }
    }
    write_section(w, SEC_LEAVES, &sec)
}

/// Parse and sanity-check the layout section.
pub(crate) fn parse_layout<const D: usize>(bytes: &[u8]) -> io::Result<RootLayout<D>> {
    let mut r = bytes;
    let mut roots: IVec<D> = [0; D];
    for x in roots.iter_mut() {
        *x = r_i64(&mut r)?;
        if !(1..=1 << 20).contains(x) {
            return Err(bad(format!("root count {x} out of range")));
        }
    }
    let mut origin = [0.0; D];
    for x in origin.iter_mut() {
        *x = r_f64(&mut r)?;
        if !x.is_finite() {
            return Err(bad("non-finite domain origin"));
        }
    }
    let mut size = [0.0; D];
    for x in size.iter_mut() {
        *x = r_f64(&mut r)?;
        if !x.is_finite() || *x <= 0.0 {
            return Err(bad(format!("invalid domain size {x}")));
        }
    }
    let mut boundaries = [Boundary::Outflow; 6];
    for b in boundaries.iter_mut() {
        *b = decode_bc(r_u32(&mut r)?)?;
    }
    let hole = decode_bc(r_u32(&mut r)?)?;
    let mut layout = RootLayout::new(roots, origin, size, boundaries);
    layout.hole_boundary = hole;
    let has_mask = r_u32(&mut r)?;
    match has_mask {
        0 => {}
        1 => {
            let n = r_u64(&mut r)? as usize;
            let nroots: u64 = roots.iter().map(|&x| x as u64).product();
            if n as u64 != nroots {
                return Err(bad(format!("mask length {n} != root cell count {nroots}")));
            }
            if n > r.len() {
                return Err(bad("mask extends past section end"));
            }
            let mut mask = vec![false; n];
            for m in mask.iter_mut() {
                let mut b = [0u8; 1];
                r.read_exact(&mut b)?;
                *m = b[0] != 0;
            }
            layout.mask = Some(mask);
        }
        other => return Err(bad(format!("invalid mask flag {other}"))),
    }
    if !r.is_empty() {
        let flag = r_u32(&mut r)?;
        if flag != 1 {
            return Err(bad(format!("invalid geometry flag {flag}")));
        }
        let g = decode_geometry(&mut r, 1)?;
        if !g.validate() {
            return Err(bad("geometry has non-finite or degenerate parameters"));
        }
        layout.geometry = Some(g);
    }
    expect_drained(r, SEC_LAYOUT)?;
    Ok(layout)
}

/// Parse and sanity-check the params section.
pub(crate) fn parse_params<const D: usize>(bytes: &[u8]) -> io::Result<GridParams<D>> {
    let mut r = bytes;
    let mut block_dims: IVec<D> = [0; D];
    for x in block_dims.iter_mut() {
        *x = r_i64(&mut r)?;
        if !(1..=1024).contains(x) {
            return Err(bad(format!("block dimension {x} out of range")));
        }
    }
    let nghost = r_i64(&mut r)?;
    if !(0..=16).contains(&nghost) {
        return Err(bad(format!("ghost width {nghost} out of range")));
    }
    let nvar = r_u64(&mut r)? as usize;
    if !(1..=64).contains(&nvar) {
        return Err(bad(format!("variable count {nvar} out of range")));
    }
    let max_level = r_u32(&mut r)?;
    if max_level > 32 {
        return Err(bad(format!("max level {max_level} out of range")));
    }
    let max_level_jump = r_u32(&mut r)?;
    if !(1..=8).contains(&max_level_jump) {
        return Err(bad(format!("max level jump {max_level_jump} out of range")));
    }
    let pad = r_i64(&mut r)?;
    if !(0..=64).contains(&pad) {
        return Err(bad(format!("pad {pad} out of range")));
    }
    expect_drained(r, SEC_PARAMS)?;
    Ok(GridParams::new(block_dims, nghost, nvar, max_level as u8)
        .with_max_jump(max_level_jump as u8)
        .with_pad(pad))
}

/// Deserialize a grid saved with [`save_grid`]. Ghosts are zero; refill
/// with a ghost exchange before stepping.
///
/// Any malformed input — truncation, bit flips, hostile counts — returns
/// an [`io::Error`] of kind [`io::ErrorKind::InvalidData`]; this function
/// does not panic on bad data. (Truncation surfaces from `read_exact` as
/// `UnexpectedEof`; it is remapped here because for a checkpoint a short
/// read *is* malformed data, and callers should have one kind to match.)
pub fn load_grid<const D: usize>(r: &mut impl Read) -> io::Result<BlockGrid<D>> {
    load_grid_inner(r).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            bad(format!("truncated checkpoint: {e}"))
        } else {
            e
        }
    })
}

/// Validate one leaf key against the level cap and the root domain.
pub(crate) fn validate_key<const D: usize>(
    key: BlockKey<D>,
    layout: &RootLayout<D>,
    max_level: u8,
) -> io::Result<()> {
    if key.level > max_level {
        return Err(bad(format!("leaf level {} above max level {max_level}", key.level)));
    }
    let per_level = 1i64 << key.level;
    for d in 0..D {
        let max = layout.roots[d].saturating_mul(per_level);
        if key.coords[d] < 0 || key.coords[d] >= max {
            return Err(bad(format!("leaf {key:?} outside the domain")));
        }
    }
    Ok(())
}

/// Rebuild a grid topology holding exactly the leaf set `targets`:
/// refine every ancestor level by level (which preserves the jump
/// invariant at each intermediate step). Field data is left untouched
/// (`Transfer::None` on the initial condition, i.e. zeros).
pub(crate) fn rebuild_topology<const D: usize>(
    layout: RootLayout<D>,
    params: GridParams<D>,
    targets: &BTreeSet<BlockKey<D>>,
) -> io::Result<BlockGrid<D>> {
    let mut grid = BlockGrid::new(layout, params);
    let mut to_split: Vec<BTreeSet<BlockKey<D>>> =
        vec![BTreeSet::new(); params.max_level as usize + 1];
    for key in targets {
        let mut k = *key;
        while let Some(p) = k.parent() {
            to_split[p.level as usize].insert(p);
            k = p;
        }
    }
    for level_set in &to_split {
        let keys: Vec<BlockKey<D>> = level_set.iter().copied().collect();
        for key in keys {
            if let Some(id) = grid.find(key) {
                grid.refine(id, Transfer::None)
                    .map_err(|e| bad(format!("topology rebuild: {e}")))?;
            }
        }
    }
    if grid.num_blocks() != targets.len() {
        return Err(bad(format!(
            "leaf set is not a valid tree cut: rebuilt {} block(s) from {} key(s)",
            grid.num_blocks(),
            targets.len()
        )));
    }
    Ok(grid)
}

fn load_grid_inner<const D: usize>(r: &mut impl Read) -> io::Result<BlockGrid<D>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = r_u32(r)?;
    if version != VERSION && version != VERSION_SNAPSHOT {
        return Err(bad(format!("unsupported checkpoint version {version}")));
    }
    let dims = r_u32(r)? as usize;
    if dims != D {
        return Err(bad(format!("checkpoint is {dims}-D, expected {D}-D")));
    }
    if version == VERSION_SNAPSHOT {
        return crate::snapshot::read_archive_body::<D>(r);
    }

    let layout = parse_layout::<D>(&read_section(r, SEC_LAYOUT)?)?;
    let params = parse_params::<D>(&read_section(r, SEC_PARAMS)?)?;
    let leaf_bytes = read_section(r, SEC_LEAVES)?;

    // read the leaf set and data, validating the count against the framed
    // section length before any allocation
    let mut lr = leaf_bytes.as_slice();
    let nleaves = r_u64(&mut lr)? as usize;
    let cells = params.field_shape().interior_cells();
    let nvar = params.nvar;
    let record = 1 + 8 * D + 8 * cells * nvar;
    if (nleaves as u128) * (record as u128) != lr.len() as u128 {
        return Err(bad(format!(
            "leaf section holds {} byte(s), expected {nleaves} records of {record}",
            lr.len()
        )));
    }
    let mut saved: Vec<(BlockKey<D>, Vec<f64>)> = Vec::with_capacity(nleaves);
    let mut targets: BTreeSet<BlockKey<D>> = BTreeSet::new();
    for _ in 0..nleaves {
        let mut lv = [0u8; 1];
        lr.read_exact(&mut lv)?;
        let mut coords: IVec<D> = [0; D];
        for x in coords.iter_mut() {
            *x = r_i64(&mut lr)?;
        }
        let key = BlockKey::new(lv[0], coords);
        validate_key(key, &layout, params.max_level)?;
        if !targets.insert(key) {
            return Err(bad(format!("duplicate leaf key {key:?}")));
        }
        let mut data = Vec::with_capacity(cells * nvar);
        for _ in 0..cells * nvar {
            data.push(r_f64(&mut lr)?);
        }
        saved.push((key, data));
    }
    expect_drained(lr, SEC_LEAVES)?;

    // rebuild the topology, then pour the data back
    let mut grid = rebuild_topology(layout, params, &targets)?;
    for (key, data) in saved {
        let id = grid
            .find(key)
            .ok_or_else(|| bad(format!("leaf {key:?} not rebuilt")))?;
        let field = grid.block_mut(id).field_mut();
        let mut off = 0;
        let interior = field.shape().interior_box();
        for c in interior.iter() {
            field.set_cell(c, &data[off..off + nvar]);
            off += nvar;
        }
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ablock_core::balance::refine_ball_to_level;
    use ablock_core::verify;

    fn sample_grid() -> BlockGrid<2> {
        let layout = RootLayout::new(
            [2, 2],
            [-1.0, 0.5],
            [2.0, 1.0],
            [
                Boundary::Periodic,
                Boundary::Periodic,
                Boundary::Reflect,
                Boundary::Custom(9),
                Boundary::Outflow,
                Boundary::Outflow,
            ],
        );
        let mut g = BlockGrid::new(layout, GridParams::new([4, 4], 2, 3, 3));
        refine_ball_to_level(&mut g, [-0.4, 1.0], 0.15, 2, Transfer::None);
        let lay = g.layout().clone();
        let m = g.params().block_dims;
        for id in g.block_ids() {
            let key = g.block(id).key();
            g.block_mut(id).field_mut().for_each_interior(|c, u| {
                let x = lay.cell_center(key, m, c);
                u[0] = x[0] * 3.0 + x[1];
                u[1] = (x[0] * x[1]).sin();
                u[2] = key.level as f64;
            });
        }
        g
    }

    #[test]
    fn roundtrip_exact() {
        let g = sample_grid();
        let mut buf = Vec::new();
        save_grid(&mut buf, &g).unwrap();
        let g2: BlockGrid<2> = load_grid(&mut buf.as_slice()).unwrap();
        verify::check_grid(&g2).unwrap();
        assert_eq!(g.num_blocks(), g2.num_blocks());
        // every leaf matches key and interior data exactly
        for (_, n) in g.blocks() {
            let id2 = g2.find(n.key()).expect("key present after reload");
            let f2 = g2.block(id2).field();
            for c in n.field().shape().interior_box().iter() {
                assert_eq!(n.field().cell(c), f2.cell(c), "block {:?} cell {c:?}", n.key());
            }
        }
        // layout round-trips including the exotic boundaries
        assert_eq!(g2.layout().boundaries, g.layout().boundaries);
        assert_eq!(g2.layout().origin, g.layout().origin);
    }

    #[test]
    fn roundtrip_masked_layout() {
        let layout = RootLayout::unit([2, 2], Boundary::Outflow)
            .with_mask(|c| c != [1, 1])
            .with_hole_boundary(Boundary::Reflect);
        let mut g = BlockGrid::new(layout, GridParams::new([4, 4], 2, 1, 2));
        let id = g.block_ids()[0];
        g.refine(id, Transfer::None).unwrap();
        let mut buf = Vec::new();
        save_grid(&mut buf, &g).unwrap();
        let g2: BlockGrid<2> = load_grid(&mut buf.as_slice()).unwrap();
        assert_eq!(g2.num_blocks(), g.num_blocks());
        assert_eq!(g2.layout().mask, g.layout().mask);
        assert_eq!(g2.layout().hole_boundary, Boundary::Reflect);
        verify::check_grid(&g2).unwrap();
    }

    #[test]
    fn wrong_dimension_rejected() {
        let g = sample_grid();
        let mut buf = Vec::new();
        save_grid(&mut buf, &g).unwrap();
        let err = match load_grid::<3>(&mut buf.as_slice()) {
            Err(e) => e,
            Ok(_) => panic!("3-D load of a 2-D checkpoint must fail"),
        };
        assert!(err.to_string().contains("2-D"));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let buf = b"NOPE****".to_vec();
        assert!(load_grid::<2>(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let g = sample_grid();
        let mut buf = Vec::new();
        save_grid(&mut buf, &g).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_grid::<2>(&mut buf.as_slice()).is_err());
    }

    /// Truncation at *every* prefix length errors cleanly — no panic, no
    /// bogus success.
    #[test]
    fn truncation_sweep_never_panics() {
        let g = sample_grid();
        let mut buf = Vec::new();
        save_grid(&mut buf, &g).unwrap();
        for len in 0..buf.len() {
            let cut = &buf[..len];
            let result = std::panic::catch_unwind(|| load_grid::<2>(&mut &cut[..]));
            let loaded = result.unwrap_or_else(|_| panic!("panicked at truncation {len}"));
            assert!(loaded.is_err(), "truncation to {len} bytes loaded successfully");
        }
    }

    /// Flipping any single bit is either detected (checksum / validation
    /// error) — and in particular never panics. The header bytes before
    /// the first section frame are each validated directly.
    #[test]
    fn bit_flip_sweep_never_panics() {
        let g = sample_grid();
        let mut buf = Vec::new();
        save_grid(&mut buf, &g).unwrap();
        // every byte, one flipped bit per byte (rotating position)
        for i in 0..buf.len() {
            let mut evil = buf.clone();
            evil[i] ^= 1 << (i % 8);
            let result = std::panic::catch_unwind(|| load_grid::<2>(&mut evil.as_slice()));
            let loaded = result.unwrap_or_else(|_| panic!("panicked on bit flip at byte {i}"));
            assert!(loaded.is_err(), "bit flip at byte {i} went undetected");
        }
    }

    #[test]
    fn oversized_section_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(SEC_LAYOUT);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd length
        let err = match load_grid::<2>(&mut buf.as_slice()) {
            Err(e) => e,
            Ok(_) => panic!("absurd section length must be rejected"),
        };
        assert!(err.to_string().contains("exceeds cap"), "{err}");
    }

    #[test]
    fn restart_continues_physics() {
        // save mid-run, reload, continue: identical to an uninterrupted run
        use ablock_solver::euler::Euler;
        use ablock_solver::kernel::Scheme;
        use ablock_solver::stepper::Stepper;
        use ablock_solver::SolverConfig;
        let e = Euler::<2>::new(1.4);
        let mut g = BlockGrid::new(
            RootLayout::unit([2, 2], Boundary::Periodic),
            GridParams::new([4, 4], 2, 4, 2),
        );
        ablock_solver::problems::advected_gaussian(&mut g, &e, [1.0, 0.0], [0.5, 0.5], 0.15);
        let mut st = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
        let dt = 2e-3;
        for _ in 0..3 {
            st.step(&mut g, dt, None);
        }
        // checkpoint
        let mut buf = Vec::new();
        save_grid(&mut buf, &g).unwrap();
        // continue original
        for _ in 0..3 {
            st.step(&mut g, dt, None);
        }
        // reload and continue with a fresh stepper
        let mut g2: BlockGrid<2> = load_grid(&mut buf.as_slice()).unwrap();
        let mut st2 = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        for _ in 0..3 {
            st2.step(&mut g2, dt, None);
        }
        for (_, n) in g.blocks() {
            let id2 = g2.find(n.key()).unwrap();
            let f2 = g2.block(id2).field();
            for c in n.field().shape().interior_box().iter() {
                for v in 0..4 {
                    assert!(
                        (n.field().at(c, v) - f2.at(c, v)).abs() < 1e-14,
                        "restart diverged at {:?} {c:?} var {v}",
                        n.key()
                    );
                }
            }
        }
    }
}
