//! Output checks: admissible state after every step, conservation over a
//! run, and the bitwise grid signature the distributed replay compares.

use ablock_core::arena::BlockId;
use ablock_core::grid::BlockGrid;
use ablock_core::key::BlockKey;
use ablock_solver::physics::Physics;

/// Relative drift allowed in a conserved total over one repetition. The
/// workloads are periodic, so only round-off moves what the scheme
/// conserves.
pub const DRIFT_TOL: f64 = 1e-12;

/// Every interior value finite, density and pressure positive, on the
/// given blocks. Pressure is the last primitive variable for both Euler
/// `[rho, u.., p]` and MHD `[rho, u, B, p]`.
pub fn admissible<const D: usize, P: Physics>(
    grid: &BlockGrid<D>,
    phys: &P,
    ids: &[BlockId],
) -> Result<(), String> {
    let nvar = phys.nvar();
    let mut u = vec![0.0; nvar];
    let mut w = vec![0.0; nvar];
    for &id in ids {
        let node = grid.block(id);
        let f = node.field();
        for c in f.shape().interior_box().iter() {
            for (v, x) in u.iter_mut().enumerate() {
                *x = f.at(c, v);
            }
            if let Some(v) = u.iter().position(|x| !x.is_finite()) {
                return Err(format!(
                    "non-finite var {v} in block {:?} cell {c:?}",
                    node.key()
                ));
            }
            phys.cons_to_prim(&u, &mut w);
            if !(w[0] > 0.0 && w[nvar - 1] > 0.0) {
                return Err(format!(
                    "non-positive density {:e} or pressure {:e} in block {:?} cell {c:?}",
                    w[0],
                    w[nvar - 1],
                    node.key()
                ));
            }
        }
    }
    Ok(())
}

/// Relative change of a conserved total.
pub fn drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before.abs().max(f64::MIN_POSITIVE)
}

/// Check the drift of each named total over one repetition.
pub fn conservation(before: &[(&str, f64)], after: &[(&str, f64)]) -> Result<(), String> {
    for ((name, b), (_, a)) in before.iter().zip(after) {
        let d = drift(*b, *a);
        if d.is_nan() || d > DRIFT_TOL {
            return Err(format!("{name} drifted by {d:.3e} (> {DRIFT_TOL:e})"));
        }
    }
    Ok(())
}

/// Overwrite one interior value of block `id` with NaN (the checks' own
/// negative test).
pub fn corrupt<const D: usize>(grid: &mut BlockGrid<D>, id: BlockId) {
    let f = grid.block_mut(id).field_mut();
    let c = f.shape().interior_box().lo;
    *f.at_mut(c, 0) = f64::NAN;
}

/// Sorted `(key, interior bit patterns)`: bitwise identity of a grid's
/// state, independent of arena id assignment.
pub fn signature<const D: usize>(grid: &BlockGrid<D>) -> Vec<(BlockKey<D>, Vec<u64>)> {
    let mut v: Vec<(BlockKey<D>, Vec<u64>)> = grid
        .blocks()
        .map(|(_, n)| {
            let f = n.field();
            let mut bits = Vec::with_capacity(f.shape().interior_cells() * f.shape().nvar);
            for c in f.shape().interior_box().iter() {
                for var in 0..f.shape().nvar {
                    bits.push(f.at(c, var).to_bits());
                }
            }
            (n.key(), bits)
        })
        .collect();
    v.sort_by_key(|(k, _)| *k);
    v
}

/// First difference between two grids' signatures, if any.
pub fn bitwise_diff<const D: usize>(a: &BlockGrid<D>, b: &BlockGrid<D>) -> Option<String> {
    let (sa, sb) = (signature(a), signature(b));
    if sa.len() != sb.len() {
        return Some(format!("{} vs {} leaves", sa.len(), sb.len()));
    }
    for ((ka, da), (kb, db)) in sa.iter().zip(&sb) {
        if ka != kb {
            return Some(format!("leaf sets differ at {ka:?} / {kb:?}"));
        }
        if let Some(i) = da.iter().zip(db).position(|(x, y)| x != y) {
            return Some(format!(
                "block {ka:?} word {i}: {:.17e} != {:.17e}",
                f64::from_bits(da[i]),
                f64::from_bits(db[i])
            ));
        }
    }
    None
}
