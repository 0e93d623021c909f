//! Differential proof that comm/compute overlap is bitwise-safe
//! (DESIGN.md §13): identical adapt+step schedules through the serial
//! [`Stepper`], [`ParStepper`] and [`DistSim`] with `comm_overlap` on
//! *and* off — plus a fault-injected `run_resilient_with` run under
//! overlap — must all produce bitwise-identical state and matching
//! topology-epoch deltas. A separate test pins the aggregation message
//! invariant: one message per active rank pair per exchange phase.

use std::collections::HashMap;

use ablock_core::balance::{adapt, Flag};
use ablock_core::ghost::task_source_box;
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_core::verify::check_grid;
use ablock_obs::Metrics;
use ablock_par::{
    run_resilient_with, DistSim, FaultPlan, Machine, MachineConfig, ParStepper, Policy,
    RecoverConfig,
};
use ablock_solver::{problems, Euler, Geometry, Scheme, SolverConfig, Stepper, TimeStepMode};
use ablock_testkit::{cases, flag_for_key, gen_schedule, random_geometry, Schedule};

const DT: f64 = 1e-3;
const MAX_LEVEL: u8 = 2;
const POLICY: Policy = Policy::SfcHilbert;
const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);

fn cfg(overlap: bool, geom: &Option<Geometry>) -> SolverConfig<Euler<2>> {
    let mut c = SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov())
        .with_comm_overlap(overlap)
        .with_partitioner(POLICY.partitioner());
    if let Some(g) = geom {
        c = c.with_geometry(g.clone());
    }
    c
}

/// Subcycled variant: refluxing + local time stepping on top of the
/// overlap knob under test.
fn sub_cfg(overlap: bool) -> SolverConfig<Euler<2>> {
    cfg(overlap, &None)
        .with_refluxing(true)
        .with_time_step_mode(TimeStepMode::Subcycled)
}

fn base_grid() -> BlockGrid<2> {
    let layout = RootLayout::unit([2, 2], Boundary::Periodic);
    let mut g = BlockGrid::new(layout, GridParams::new([4, 4], 2, 4, MAX_LEVEL));
    problems::advected_gaussian(&mut g, &Euler::new(1.4), [0.4, 0.3], [0.5, 0.5], 0.2);
    g
}

fn flags_for(
    grid: &BlockGrid<2>,
    seed: u64,
    density: u8,
    only: Option<&[ablock_core::arena::BlockId]>,
) -> HashMap<ablock_core::arena::BlockId, Flag> {
    let pick = |id: ablock_core::arena::BlockId| {
        let key = grid.block(id).key();
        match flag_for_key(seed, key, MAX_LEVEL, density) {
            Flag::Keep => None,
            f => Some((id, f)),
        }
    };
    match only {
        Some(ids) => ids.iter().copied().filter_map(pick).collect(),
        None => grid.block_ids().into_iter().filter_map(pick).collect(),
    }
}

/// Sorted (key, interior bit pattern) signature — the bitwise identity of
/// a grid's state, independent of arena id assignment.
fn signature(grid: &BlockGrid<2>) -> Vec<(BlockKey<2>, Vec<u64>)> {
    let mut v: Vec<(BlockKey<2>, Vec<u64>)> = grid
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

fn assert_bitwise_eq(a: &BlockGrid<2>, b: &BlockGrid<2>, what: &str) {
    let (sa, sb) = (signature(a), signature(b));
    let keys_a: Vec<_> = sa.iter().map(|(k, _)| *k).collect();
    let keys_b: Vec<_> = sb.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys_a, keys_b, "{what}: leaf sets differ");
    for ((k, da), (_, db)) in sa.iter().zip(&sb) {
        for (i, (&x, &y)) in da.iter().zip(db).enumerate() {
            assert!(
                x == y,
                "{what}: block {k:?} word {i}: {:.17e} != {:.17e}",
                f64::from_bits(x),
                f64::from_bits(y)
            );
        }
    }
}

fn adapt_serial(grid: &mut BlockGrid<2>, seed: u64, density: u8) -> u64 {
    let flags = flags_for(grid, seed, density, None);
    let before = grid.epoch();
    adapt(grid, &flags, TRANSFER);
    grid.epoch() - before
}

/// Serial reference (`comm_overlap` has no serial meaning; the `Stepper`
/// ignores it by construction).
fn run_serial(schedule: &Schedule, geom: &Option<Geometry>) -> (BlockGrid<2>, Vec<u64>) {
    let mut grid = base_grid();
    // masks must exist before the round-0 adapt on every backend
    // (DistSim binarizes them at construction)
    grid.ensure_geometry(geom);
    let mut stepper: Stepper<2, Euler<2>> = Stepper::new(cfg(true, geom));
    let mut deltas = Vec::new();
    for round in &schedule.rounds {
        deltas.push(adapt_serial(&mut grid, round.flag_seed, round.density));
        for _ in 0..round.steps {
            stepper.step(&mut grid, DT, None);
        }
    }
    check_grid(&grid).unwrap();
    (grid, deltas)
}

fn run_shared(
    schedule: &Schedule,
    overlap: bool,
    geom: &Option<Geometry>,
) -> (BlockGrid<2>, Vec<u64>) {
    let mut grid = base_grid();
    grid.ensure_geometry(geom);
    let mut stepper: ParStepper<2, Euler<2>> = ParStepper::new(cfg(overlap, geom));
    let mut deltas = Vec::new();
    for round in &schedule.rounds {
        deltas.push(adapt_serial(&mut grid, round.flag_seed, round.density));
        for _ in 0..round.steps {
            stepper.step(&mut grid, DT);
        }
    }
    (grid, deltas)
}

fn run_dist(
    schedule: &Schedule,
    nranks: usize,
    overlap: bool,
    geom: &Option<Geometry>,
) -> (BlockGrid<2>, Vec<u64>) {
    let results = Machine::run(nranks, |comm| {
        let mut sim = DistSim::partitioned(base_grid(), comm.nranks(), cfg(overlap, geom));
        let mut deltas = Vec::new();
        for round in &schedule.rounds {
            let owned = sim.owned_ids(comm.rank());
            let flags = flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
            let before = sim.grid.epoch();
            sim.adapt_rebalance(&comm, &flags);
            deltas.push(sim.grid.epoch() - before);
            for _ in 0..round.steps {
                sim.advance(&comm, DT);
            }
        }
        sim.gather_full(&comm);
        if comm.rank() == 0 {
            Some((sim.grid, deltas))
        } else {
            None
        }
    })
    .expect("fault-free machine run");
    results.into_iter().flatten().next().expect("rank 0 returns state")
}

/// Fault-tolerant backend under a given overlap setting (mirrors the
/// schedule translation in `differential_backends.rs`).
fn run_resilient_backend(
    schedule: &Schedule,
    nranks: usize,
    faults: Option<std::sync::Arc<FaultPlan>>,
    overlap: bool,
    geom: &Option<Geometry>,
) -> BlockGrid<2> {
    let rounds = schedule.rounds.clone();
    let round0 = rounds[0];
    let g0 = geom.clone();
    let make_grid = move || {
        let mut g = base_grid();
        g.ensure_geometry(&g0);
        adapt_serial(&mut g, round0.flag_seed, round0.density);
        g
    };
    let mut boundaries: HashMap<usize, usize> = HashMap::new();
    let mut cum = rounds[0].steps as usize;
    for (r, round) in rounds.iter().enumerate().skip(1) {
        boundaries.insert(cum, r);
        cum += round.steps as usize;
    }
    let rcfg = RecoverConfig {
        checkpoint_every: 2,
        machine: MachineConfig::fast(),
        max_restarts: 3,
    };
    let outcome = run_resilient_with(
        nranks,
        cum,
        DT,
        cfg(overlap, geom),
        make_grid,
        rcfg,
        faults,
        |sim, comm, done| {
            if let Some(&r) = boundaries.get(&done) {
                let round = rounds[r];
                let owned = sim.owned_ids(comm.rank());
                let flags = flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
                sim.adapt_rebalance(comm, &flags);
            }
        },
    )
    .expect("resilient run must recover");
    outcome.grid
}

/// Shared-memory overlap: on and off both match the serial stepper
/// bitwise, with identical epoch-delta traces.
#[test]
fn shared_overlap_on_off_matches_serial() {
    cases(6, 0x5EED_0050, |_, rng| {
        let schedule = gen_schedule(rng);
        let (serial, d_serial) = run_serial(&schedule, &None);
        for overlap in [true, false] {
            let (shared, d_shared) = run_shared(&schedule, overlap, &None);
            assert_eq!(d_serial, d_shared, "epoch deltas serial vs shared overlap={overlap}");
            assert_bitwise_eq(&serial, &shared, &format!("Stepper vs ParStepper overlap={overlap}"));
        }
    });
}

/// Distributed overlap: the aggregated exchange with and without the
/// overlapped interior sweep matches the serial stepper bitwise; structural
/// epoch deltas match serial, with at most one extra bump per round when
/// the incremental rebalance actually migrates blocks.
#[test]
fn dist_overlap_on_off_matches_serial() {
    cases(4, 0x5EED_0051, |_, rng| {
        let schedule = gen_schedule(rng);
        let (serial, d_serial) = run_serial(&schedule, &None);
        for overlap in [true, false] {
            let (dist, d_dist) = run_dist(&schedule, 2, overlap, &None);
            assert_eq!(d_serial.len(), d_dist.len(), "round counts overlap={overlap}");
            for (i, (&ds, &dd)) in d_serial.iter().zip(&d_dist).enumerate() {
                assert!(
                    dd == ds || dd == ds + 1,
                    "epoch delta round {i} overlap={overlap}: serial {ds} vs dist {dd}"
                );
            }
            assert_bitwise_eq(&serial, &dist, &format!("Stepper vs DistSim overlap={overlap}"));
        }
    });
}

/// The masked-geometry axis: a random immersed SDF rides the same
/// schedules. Wall fluxes, frozen solid cells, and mask-aware
/// prolongation are all rank-local and deterministic, so flipping
/// `comm_overlap` (and distributing across ranks, and crashing a rank)
/// must stay bitwise-invisible on masked worlds too.
#[test]
fn overlap_on_off_matches_serial_masked_geometry() {
    cases(3, 0x5EED_0054, |_, rng| {
        let geom = Some(random_geometry(rng, 2));
        let schedule = gen_schedule(rng);
        let (serial, d_serial) = run_serial(&schedule, &geom);
        for overlap in [true, false] {
            let (shared, d_shared) = run_shared(&schedule, overlap, &geom);
            assert_eq!(d_serial, d_shared, "masked epoch deltas serial vs shared overlap={overlap}");
            assert_bitwise_eq(
                &serial,
                &shared,
                &format!("masked Stepper vs ParStepper overlap={overlap}"),
            );
            let (dist, d_dist) = run_dist(&schedule, 2, overlap, &geom);
            for (i, (&ds, &dd)) in d_serial.iter().zip(&d_dist).enumerate() {
                assert!(
                    dd == ds || dd == ds + 1,
                    "masked epoch delta round {i} overlap={overlap}: serial {ds} vs dist {dd}"
                );
            }
            assert_bitwise_eq(
                &serial,
                &dist,
                &format!("masked Stepper vs DistSim overlap={overlap}"),
            );
        }
        let resilient = run_resilient_backend(&schedule, 2, None, true, &geom);
        assert_bitwise_eq(&serial, &resilient, "masked Stepper vs resilient overlap=on");
    });
}

/// A resilient run that crashes rank 1 mid-schedule and recovers on fewer
/// ranks, with overlap on, still matches the serial reference bitwise.
#[test]
fn resilient_crash_under_overlap_matches_serial() {
    cases(3, 0x5EED_0052, |seed, rng| {
        let schedule = gen_schedule(rng);
        let (serial, _) = run_serial(&schedule, &None);
        let faults = std::sync::Arc::new(FaultPlan::new(seed).crash_rank(1, 30));
        let resilient = run_resilient_backend(&schedule, 2, Some(faults), true, &None);
        assert_bitwise_eq(&serial, &resilient, "Stepper vs faulted resilient overlap=on");
    });
}

/// The aggregation invariant, asserted against live comm counters: with
/// overlap on or off, every exchange moves exactly one message per active
/// rank pair per phase (`comm.agg.messages` == plan-derived pair count ==
/// `comm.agg.pair_msgs_expected`), and at least 25% fewer halo messages
/// than a per-task exchange would send (one message per non-physical
/// plan task whose source and destination ranks differ).
#[test]
fn aggregated_messages_equal_active_pairs() {
    const NRANKS: usize = 3;
    const STEPS: usize = 3;
    let run = |overlap: bool| {
        Machine::run(NRANKS, move |comm| {
            let metrics = Metrics::recording();
            let mut sim = DistSim::partitioned(
                base_grid(),
                comm.nranks(),
                cfg(overlap, &None).with_metrics(metrics.clone()),
            );
            // one adapt round so prolongation (phase-2) traffic exists
            let owned = sim.owned_ids(comm.rank());
            let flags = flags_for(&sim.grid, 0xA11CE, 60, Some(&owned));
            sim.adapt_rebalance(&comm, &flags);
            for _ in 0..STEPS {
                sim.advance(&comm, DT);
            }
            // independently derive the active-pair and per-task message
            // counts from the plan
            let mut owner: HashMap<ablock_core::arena::BlockId, usize> = HashMap::new();
            for r in 0..comm.nranks() {
                for id in sim.owned_ids(r) {
                    owner.insert(id, r);
                }
            }
            let plan = sim.engine().plan();
            let pairs = plan.aggregate(&sim.grid, &|id| owner[&id]).num_messages();
            let per_task = plan
                .phase1()
                .iter()
                .chain(plan.phase2())
                .filter_map(task_source_box)
                .filter(|(dst, src, _)| owner[dst] != owner[src])
                .count();
            (metrics.snapshot(), pairs, per_task)
        })
        .expect("fault-free machine run")
    };

    let on = run(true);
    let (pairs, per_task) = (on[0].1, on[0].2);
    assert!(pairs > 0, "test topology must have cross-rank traffic");
    assert!(
        on.iter().all(|(_, p, t)| (*p, *t) == (pairs, per_task)),
        "replicated plans disagree on message counts"
    );
    let sum = |snaps: &[(ablock_obs::MetricsSnapshot, usize, usize)], key: &str| -> u64 {
        snaps.iter().map(|(s, ..)| s.counter(key)).sum()
    };
    // RK2 = two ghost exchanges per step
    let exchanges = (2 * STEPS) as u64;
    let agg_msgs = sum(&on, "comm.agg.messages");
    assert_eq!(
        agg_msgs,
        exchanges * pairs as u64,
        "aggregated path must move exactly one message per active rank pair per phase"
    );
    assert_eq!(
        agg_msgs,
        sum(&on, "comm.agg.pair_msgs_expected"),
        "sent messages must match the plan-derived expectation"
    );

    let off = run(false);
    assert_eq!(
        sum(&off, "comm.agg.messages"),
        agg_msgs,
        "overlap on and off must run the same aggregated exchange"
    );
    let halo_msgs = exchanges * per_task as u64;
    assert!(
        4 * agg_msgs <= 3 * halo_msgs,
        "aggregation must cut halo messages by >= 25%: {agg_msgs} vs {halo_msgs}"
    );
    // both settings deliver the same payload volume to ghost cells
    assert_eq!(
        sum(&on, "dist.halo_values_recv"),
        sum(&off, "dist.halo_values_recv"),
        "overlap on and off must move identical halo volumes"
    );
}

/// Subcycled local time stepping under both overlap settings (DESIGN.md
/// §17): the per-sublevel ghost fills always ride the aggregated
/// exchange, so flipping `comm_overlap` must not perturb a subcycled run
/// — shared and distributed backends match the serial subcycled stepper
/// bitwise either way.
#[test]
fn subcycled_overlap_on_off_matches_serial() {
    cases(4, 0x5EED_0053, |_, rng| {
        let schedule = gen_schedule(rng);
        // serial subcycled reference
        let mut serial = base_grid();
        let mut st: Stepper<2, Euler<2>> = Stepper::new(sub_cfg(true));
        for round in &schedule.rounds {
            adapt_serial(&mut serial, round.flag_seed, round.density);
            for _ in 0..round.steps {
                st.step(&mut serial, DT, None);
            }
        }
        check_grid(&serial).unwrap();
        for overlap in [true, false] {
            let mut shared = base_grid();
            let mut ps: ParStepper<2, Euler<2>> = ParStepper::new(sub_cfg(overlap));
            for round in &schedule.rounds {
                adapt_serial(&mut shared, round.flag_seed, round.density);
                for _ in 0..round.steps {
                    ps.step(&mut shared, DT);
                }
            }
            assert_bitwise_eq(
                &serial,
                &shared,
                &format!("subcycled Stepper vs ParStepper overlap={overlap}"),
            );
            let results = Machine::run(2, |comm| {
                let mut sim = DistSim::partitioned(base_grid(), comm.nranks(), sub_cfg(overlap));
                for round in &schedule.rounds {
                    let owned = sim.owned_ids(comm.rank());
                    let flags = flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
                    sim.adapt_rebalance(&comm, &flags);
                    for _ in 0..round.steps {
                        sim.advance(&comm, DT);
                    }
                }
                sim.gather_full(&comm);
                (comm.rank() == 0).then_some(sim.grid)
            })
            .expect("fault-free machine run");
            let dist = results.into_iter().flatten().next().expect("rank 0 returns state");
            assert_bitwise_eq(
                &serial,
                &dist,
                &format!("subcycled Stepper vs DistSim overlap={overlap}"),
            );
        }
    });
}
