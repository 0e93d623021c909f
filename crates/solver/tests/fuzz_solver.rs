//! Plan-cache differential fuzz (DESIGN.md §12): a single cached-engine
//! [`Stepper`] driven through a random adapt+step schedule must be
//! **bitwise identical** to throwing the stepper away before every step.
//! The cached engine revalidates its sweep plans off the grid's topology
//! epoch, so the only way these can diverge is a stale-plan bug — this is
//! the fuzzed generalization of the hand-written `engine_epoch` cases.

use std::collections::HashMap;

use ablock_core::arena::BlockId;
use ablock_core::balance::{adapt, Flag};
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_core::verify::check_grid;
use ablock_solver::{problems, Euler, Scheme, SolverConfig, Stepper};
use ablock_testkit::{cases, flag_for_key, gen_schedule, Schedule};

const DT: f64 = 1e-3;
const MAX_LEVEL: u8 = 2;
const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);

fn cfg<const D: usize>() -> SolverConfig<Euler<D>> {
    SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov())
}

fn base_grid<const D: usize>() -> BlockGrid<D> {
    let layout = RootLayout::unit([2; D], Boundary::Periodic);
    let mut g = BlockGrid::new(layout, GridParams::new([4; D], 2, D + 2, MAX_LEVEL));
    let mut vel = [0.0; D];
    vel[0] = 0.4;
    if D > 1 {
        vel[1] = 0.3;
    }
    problems::advected_gaussian(&mut g, &Euler::new(1.4), vel, [0.5; D], 0.2);
    g
}

fn apply_adapt<const D: usize>(grid: &mut BlockGrid<D>, seed: u64, density: u8) {
    let flags: HashMap<BlockId, Flag> = grid
        .block_ids()
        .into_iter()
        .filter_map(|id| {
            let key = grid.block(id).key();
            match flag_for_key(seed, key, MAX_LEVEL, density) {
                Flag::Keep => None,
                f => Some((id, f)),
            }
        })
        .collect();
    adapt(grid, &flags, TRANSFER);
}

fn signature<const D: usize>(grid: &BlockGrid<D>) -> Vec<(BlockKey<D>, Vec<u64>)> {
    let mut v: Vec<(BlockKey<D>, Vec<u64>)> = grid
        .blocks()
        .map(|(_, n)| {
            let f = n.field();
            let mut bits = Vec::new();
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

/// Run the schedule with one long-lived stepper (plan cache carries
/// across every adapt); returns the final signature plus engine stats.
fn run_cached<const D: usize>(schedule: &Schedule) -> (Vec<(BlockKey<D>, Vec<u64>)>, u64, u64) {
    let mut grid = base_grid::<D>();
    let mut stepper: Stepper<D, Euler<D>> = Stepper::new(cfg());
    for round in &schedule.rounds {
        apply_adapt(&mut grid, round.flag_seed, round.density);
        for _ in 0..round.steps {
            stepper.step(&mut grid, DT, None);
        }
    }
    check_grid(&grid).unwrap();
    let stats = stepper.engine().stats();
    (signature(&grid), stats.rebuilds, stats.reuses)
}

/// Same schedule, but every single step gets a brand-new stepper — the
/// no-cache oracle.
fn run_fresh<const D: usize>(schedule: &Schedule) -> Vec<(BlockKey<D>, Vec<u64>)> {
    let mut grid = base_grid::<D>();
    for round in &schedule.rounds {
        apply_adapt(&mut grid, round.flag_seed, round.density);
        for _ in 0..round.steps {
            let mut stepper: Stepper<D, Euler<D>> = Stepper::new(cfg());
            stepper.step(&mut grid, DT, None);
        }
    }
    signature(&grid)
}

fn differential_case<const D: usize>(schedule: &Schedule) {
    let (cached, rebuilds, reuses) = run_cached::<D>(schedule);
    let fresh = run_fresh::<D>(schedule);
    let keys_a: Vec<_> = cached.iter().map(|(k, _)| *k).collect();
    let keys_b: Vec<_> = fresh.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys_a, keys_b, "leaf sets differ");
    for ((k, da), (_, db)) in cached.iter().zip(&fresh) {
        for (i, (&x, &y)) in da.iter().zip(db).enumerate() {
            assert!(
                x == y,
                "cached vs fresh stepper: block {k:?} word {i}: {:.17e} != {:.17e}",
                f64::from_bits(x),
                f64::from_bits(y)
            );
        }
    }
    // the cache must actually be exercised: at most one rebuild per adapt
    // round (plus the initial build), everything else a reuse
    let total_steps: u64 = schedule.rounds.iter().map(|r| r.steps as u64).sum();
    assert!(
        rebuilds <= schedule.rounds.len() as u64 + 1,
        "{rebuilds} rebuilds for {} rounds",
        schedule.rounds.len()
    );
    if total_steps > schedule.rounds.len() as u64 {
        assert!(reuses > 0, "no plan reuse across {total_steps} steps");
    }
}

#[test]
fn cached_stepper_matches_fresh_stepper_2d() {
    cases(25, 0x5EED_0030, |_, rng| {
        let schedule = gen_schedule(rng);
        differential_case::<2>(&schedule);
    });
}

#[test]
fn cached_stepper_matches_fresh_stepper_3d() {
    cases(8, 0x5EED_0031, |_, rng| {
        let schedule = gen_schedule(rng);
        differential_case::<3>(&schedule);
    });
}
