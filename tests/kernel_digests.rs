//! Frozen block-kernel arithmetic: bitwise digests of the per-block
//! kernels on fixed inputs.
//!
//! The golden fuzzer streams (`ablock_testkit::golden`) run Euler only, so
//! nothing else pins the ideal-MHD kernel bit for bit. Each case here
//! builds one ghosted block from a seeded state generator, runs
//! `compute_rhs_block_fluxes` (RHS and every recorded face flux),
//! `max_rate_block` and one SSP-RK2 step (`rk2_stage1_block`, a second
//! RHS, `rk2_stage2_block`), and hashes every output's raw `f64` bits.
//! The digests were recorded before the kernel's row layer was
//! vectorized; any change to the order or kind of floating-point
//! operations changes them.
//!
//! Cases cover 3-D ideal MHD (Powell source on) at 4³ and 16³, 2-D Euler on
//! a padded shape, and 1-D Euler with rows longer than one row chunk;
//! first-order and MUSCL with each limiter; Rusanov and HLL; with and
//! without an immersed-solid mask; every combination at each size. Ghost
//! edges and corners are left zero, as an exchange without corner fill
//! leaves them, and one cell in five sits near the pressure floor with a
//! large `dt`, so the stage updates clamp.
//!
//! Re-record (only for an intended arithmetic change):
//! `cargo test --release --test kernel_digests -- --ignored --nocapture`

use ablock_testkit::{Fnv64, Rng};
use adaptive_blocks::core::field::{FieldBlock, FieldShape};
use adaptive_blocks::core::index::Face;
use adaptive_blocks::solver::engine::{rk2_stage1_block, rk2_stage2_block};
use adaptive_blocks::solver::{
    compute_rhs_block_fluxes, max_rate_block, Euler, FaceFluxStore, IdealMhd, Limiter, Physics,
    Recon, Riemann, Scheme,
};

const RECONS: [(&str, Recon); 4] = [
    ("first", Recon::FirstOrder),
    ("minmod", Recon::Muscl(Limiter::Minmod)),
    ("mc", Recon::Muscl(Limiter::MonotonizedCentral)),
    ("vanleer", Recon::Muscl(Limiter::VanLeer)),
];
const RIEMANNS: [(&str, Riemann); 2] = [("rusanov", Riemann::Rusanov), ("hll", Riemann::Hll)];

/// One block problem: physics, shape, cell size and a seed.
struct Block<const D: usize, P> {
    phys: P,
    shape: FieldShape<D>,
    h: [f64; D],
    seed: u64,
}

/// True when `c` lies outside the interior along two or more axes (a
/// ghost edge or corner, which a face-only exchange never fills).
fn is_edge_ghost<const D: usize>(shape: &FieldShape<D>, c: [i64; D]) -> bool {
    (0..D)
        .filter(|&d| c[d] < 0 || c[d] >= shape.dims[d])
        .count()
        >= 2
}

/// Solid cells of the masked cases: a ball off the block centre.
fn is_solid<const D: usize>(shape: &FieldShape<D>, c: [i64; D]) -> bool {
    let mut r2 = 0.0;
    for d in 0..D {
        let x = (c[d] as f64 + 0.5) / shape.dims[d] as f64 - 0.4;
        r2 += x * x;
    }
    r2 < 0.09
}

/// Primitive state of one cell: a blast (high pressure inside a ball)
/// with random velocity and field, some exactly-zero and negative-zero
/// velocity components, and a few near-floor pressures.
fn prim_state<const D: usize>(
    shape: &FieldShape<D>,
    c: [i64; D],
    rng: &mut Rng,
    w: &mut [f64],
    nv: usize,
) {
    let mut r2 = 0.0;
    for d in 0..D {
        let x = (c[d] as f64 + 0.5) / shape.dims[d] as f64 - 0.55;
        r2 += x * x;
    }
    w[0] = 1.0 + 0.5 * rng.f64();
    for x in w.iter_mut().take(1 + nv).skip(1) {
        *x = match rng.usize_below(10) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.f64_in(-1.5, 1.5),
        };
    }
    let ie = w.len() - 1;
    w[ie] = if r2 < 0.06 { 10.0 } else { 0.1 };
    if rng.usize_below(5) == 0 {
        w[ie] = 1e-11;
    }
}

fn digest_slice(h: &mut Fnv64, xs: &[f64]) {
    for x in xs {
        h.write_u64(x.to_bits());
    }
}

/// Run one case and return its digest. `nv` is the number of velocity
/// components in the primitive vector; MHD fills its three field
/// components from the same generator.
fn run_case<const D: usize, P: Physics>(
    b: &Block<D, P>,
    scheme: Scheme,
    masked: bool,
    nv: usize,
    scratch: &mut Vec<f64>,
) -> (u64, usize) {
    let n = b.phys.nvar();
    let shape = b.shape.with_mask_plane(masked);
    let mut field = FieldBlock::zeros(shape);
    let mut rng = Rng::new(b.seed);
    let mut w = vec![0.0; n];
    let mut u = vec![0.0; n];
    for c in shape.ghosted_box().iter() {
        prim_state(&shape, c, &mut rng, &mut w, nv);
        for x in w.iter_mut().take(n - 1).skip(1 + nv) {
            *x = rng.f64_in(-1.0, 1.0);
        }
        if is_edge_ghost(&shape, c) || (masked && is_solid(&shape, c)) {
            continue;
        }
        b.phys.prim_to_cons(&w, &mut u);
        field.set_cell(c, &u);
    }
    if masked {
        let cells: Vec<_> = shape.ghosted_box().iter().collect();
        for c in cells {
            if is_solid(&shape, c) {
                let i = shape.lin(c);
                field.mask_mut()[i] = 1.0;
            }
        }
    }

    let mut hash = Fnv64::new();
    let mut rhs = FieldBlock::zeros(shape);
    let mut store = FaceFluxStore::new(shape.dims, n);
    let nflux = compute_rhs_block_fluxes(
        &b.phys,
        scheme,
        &field,
        b.h,
        &mut rhs,
        scratch,
        Some(&mut store),
    );
    hash.write_u64(nflux as u64);
    for c in shape.interior_box().iter() {
        for v in 0..n {
            hash.write_u64(rhs.at(c, v).to_bits());
        }
    }
    for fi in 0..2 * D {
        digest_slice(&mut hash, store.face(Face::new(fi / 2, fi % 2 == 1)));
    }
    let rate = max_rate_block(&b.phys, &field, b.h);
    hash.write_u64(rate.to_bits());

    let dt = 2.0 / rate;
    let mut stage = FieldBlock::zeros(shape);
    let f1 = rk2_stage1_block(&b.phys, &mut field, &rhs, &mut stage, dt);
    compute_rhs_block_fluxes(&b.phys, scheme, &field, b.h, &mut rhs, scratch, None);
    let f2 = rk2_stage2_block(&b.phys, &mut field, &rhs, &stage, dt);
    hash.write_u64(f1 as u64);
    hash.write_u64(f2 as u64);
    digest_slice(&mut hash, field.as_slice());
    (hash.finish(), f1 + f2)
}

fn sweep<const D: usize, P: Physics>(
    name: &str,
    b: &Block<D, P>,
    nv: usize,
    scratch: &mut Vec<f64>,
    out: &mut Vec<(String, u64, usize)>,
) {
    for (rn, recon) in RECONS {
        for (sn, riemann) in RIEMANNS {
            for masked in [false, true] {
                let (d, floors) = run_case(b, Scheme { recon, riemann }, masked, nv, scratch);
                let m = if masked { "masked" } else { "open" };
                out.push((format!("{name}/{rn}/{sn}/{m}"), d, floors));
            }
        }
    }
}

/// Every case's `(name, digest, cells floored)`, in table order. One
/// primitive scratch is shared by all cases, as an engine shares it across
/// blocks, so a kernel that read stale scratch would show.
fn all_cases() -> Vec<(String, u64, usize)> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mhd = IdealMhd::new(5.0 / 3.0);
    let m4 = Block {
        phys: mhd.clone(),
        shape: FieldShape::new([4, 4, 4], 2, 8),
        h: [0.25, 0.25, 0.2],
        seed: 0x6D34,
    };
    sweep("mhd3_m4", &m4, 3, &mut scratch, &mut out);
    let m16 = Block {
        phys: mhd,
        shape: FieldShape::new([16, 16, 16], 2, 8),
        h: [1.0 / 16.0, 1.0 / 16.0, 0.05],
        seed: 0x6D16,
    };
    sweep("mhd3_m16", &m16, 3, &mut scratch, &mut out);
    let e2 = Block {
        phys: Euler::<2>::new(1.4),
        shape: FieldShape::padded([13, 7], 2, 4, 1).with_plane_pad(3),
        h: [0.1, 0.125],
        seed: 0xE2,
    };
    sweep("euler2_13x7", &e2, 2, &mut scratch, &mut out);
    let e1 = Block {
        phys: Euler::<1>::new(1.4),
        shape: FieldShape::new([100], 2, 3),
        h: [0.01],
        seed: 0xE1,
    };
    sweep("euler1_100", &e1, 1, &mut scratch, &mut out);
    out
}

/// Digests recorded before the row layer was vectorized.
const RECORDED: &[(&str, u64)] = &[
    ("mhd3_m4/first/rusanov/open", 0x25106370715e0014),
    ("mhd3_m4/first/rusanov/masked", 0x8215427c99579deb),
    ("mhd3_m4/first/hll/open", 0x7c018d1797ccb485),
    ("mhd3_m4/first/hll/masked", 0x0d88e947582effbc),
    ("mhd3_m4/minmod/rusanov/open", 0x88ebab291d31dcce),
    ("mhd3_m4/minmod/rusanov/masked", 0x10b55236e82d1313),
    ("mhd3_m4/minmod/hll/open", 0xe2055bd5f9951812),
    ("mhd3_m4/minmod/hll/masked", 0x915abb06f3003f09),
    ("mhd3_m4/mc/rusanov/open", 0x3d21ed62309c5f60),
    ("mhd3_m4/mc/rusanov/masked", 0xd867ca3a89da7b9b),
    ("mhd3_m4/mc/hll/open", 0xdc242a504cb063af),
    ("mhd3_m4/mc/hll/masked", 0x074d6a5d2b18e28a),
    ("mhd3_m4/vanleer/rusanov/open", 0xf1b144f9acb24190),
    ("mhd3_m4/vanleer/rusanov/masked", 0x40a8fb95d5430bb5),
    ("mhd3_m4/vanleer/hll/open", 0x6981fae3a2f7e453),
    ("mhd3_m4/vanleer/hll/masked", 0x19162fec944ae63e),
    ("mhd3_m16/first/rusanov/open", 0x0da6335fc80998bc),
    ("mhd3_m16/first/rusanov/masked", 0x50810cefb1b64c58),
    ("mhd3_m16/first/hll/open", 0xeb54747109e29aa0),
    ("mhd3_m16/first/hll/masked", 0x23fd654f496088bd),
    ("mhd3_m16/minmod/rusanov/open", 0x1c66d1400d6a8fe6),
    ("mhd3_m16/minmod/rusanov/masked", 0xf013c5a589866e60),
    ("mhd3_m16/minmod/hll/open", 0xc1d6e236894c7012),
    ("mhd3_m16/minmod/hll/masked", 0xb186d5e38a8674cd),
    ("mhd3_m16/mc/rusanov/open", 0x743eb547c99c8f33),
    ("mhd3_m16/mc/rusanov/masked", 0xac667cfc64c88171),
    ("mhd3_m16/mc/hll/open", 0x0e9051b2284d2a42),
    ("mhd3_m16/mc/hll/masked", 0xcb65ce86ba6de660),
    ("mhd3_m16/vanleer/rusanov/open", 0x40311d34d01eb2f4),
    ("mhd3_m16/vanleer/rusanov/masked", 0x87d4817608e1a7ec),
    ("mhd3_m16/vanleer/hll/open", 0x94086a6d924d37dc),
    ("mhd3_m16/vanleer/hll/masked", 0xb419ee40a2606f06),
    ("euler2_13x7/first/rusanov/open", 0x4b606e4aa7e1b411),
    ("euler2_13x7/first/rusanov/masked", 0xd73b4574d88f6694),
    ("euler2_13x7/first/hll/open", 0x277333e5001ccf13),
    ("euler2_13x7/first/hll/masked", 0xa988af8df5f073df),
    ("euler2_13x7/minmod/rusanov/open", 0x7bc03dba2e3667b0),
    ("euler2_13x7/minmod/rusanov/masked", 0xc79f71798cb1834a),
    ("euler2_13x7/minmod/hll/open", 0x81e056da8392ecb2),
    ("euler2_13x7/minmod/hll/masked", 0xcd1dd00675bfbeca),
    ("euler2_13x7/mc/rusanov/open", 0x8b1b2a15e31b57ca),
    ("euler2_13x7/mc/rusanov/masked", 0xd98955ee2076dcb6),
    ("euler2_13x7/mc/hll/open", 0xe285fb535fe7b4ee),
    ("euler2_13x7/mc/hll/masked", 0x6ef0ac8b8777f981),
    ("euler2_13x7/vanleer/rusanov/open", 0x3ee503cd30818072),
    ("euler2_13x7/vanleer/rusanov/masked", 0x47483a8a8d64138e),
    ("euler2_13x7/vanleer/hll/open", 0x977e48b4ca9cefde),
    ("euler2_13x7/vanleer/hll/masked", 0x5afbff7806e8dcbe),
    ("euler1_100/first/rusanov/open", 0xcab4f9444ecee569),
    ("euler1_100/first/rusanov/masked", 0xe3825da21ae8ec8f),
    ("euler1_100/first/hll/open", 0x9af792a8cf45944c),
    ("euler1_100/first/hll/masked", 0x1b0c76c49bd3ec14),
    ("euler1_100/minmod/rusanov/open", 0x1e39593207e619d0),
    ("euler1_100/minmod/rusanov/masked", 0x63ed4e30551899c0),
    ("euler1_100/minmod/hll/open", 0x798e6b1d4ddc5d79),
    ("euler1_100/minmod/hll/masked", 0xdc32edb16d9afefe),
    ("euler1_100/mc/rusanov/open", 0x4b7b086e836dd094),
    ("euler1_100/mc/rusanov/masked", 0x4694c5982a54e9f3),
    ("euler1_100/mc/hll/open", 0xcf4f107eefc88916),
    ("euler1_100/mc/hll/masked", 0x37541b06a51b5d8c),
    ("euler1_100/vanleer/rusanov/open", 0x5ea99086ea5a886b),
    ("euler1_100/vanleer/rusanov/masked", 0x63644673095460f7),
    ("euler1_100/vanleer/hll/open", 0xfb26fc456e05fcea),
    ("euler1_100/vanleer/hll/masked", 0xf135ed89f5786e08),
];

#[test]
fn kernel_digests_are_frozen() {
    let got = all_cases();
    assert_eq!(got.len(), RECORDED.len(), "case list changed");
    let mut bad = Vec::new();
    for ((name, d, _), (rname, rd)) in got.iter().zip(RECORDED) {
        assert_eq!(name, rname, "case order changed");
        if d != rd {
            bad.push(format!("{name}: got {d:#018x}, recorded {rd:#018x}"));
        }
    }
    assert!(
        bad.is_empty(),
        "kernel arithmetic changed:\n{}",
        bad.join("\n")
    );
    // the floor path is part of what the digests pin
    assert!(got.iter().any(|c| c.2 > 0), "no case exercised the floors");
}

#[test]
#[ignore = "recording mode: prints the RECORDED table"]
fn record_kernel_digests() {
    for (name, d, floors) in all_cases() {
        println!("    (\"{name}\", {d:#018x}), // floors {floors}");
    }
}
