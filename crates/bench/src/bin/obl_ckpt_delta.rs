//! OBL: incremental-checkpoint delta sizes and recovery traffic
//! (`BENCH_ckpt.json`).
//!
//! Three measurements of the content-addressed snapshot layer
//! (`ablock_io::snapshot`) on a localized 2-D Euler blast in a large
//! mostly-uniform domain — the regime incremental checkpoints exist for:
//!
//! 1. **Every-step cadence**: snapshot the grid after every RK2 step into
//!    one persistent [`NodeStore`] and compare each delta (`bytes_new`)
//!    against a full v2 checkpoint of the same state. Far-field blocks
//!    are bitwise unchanged by the flux step, so their leaf nodes
//!    deduplicate; the run asserts an overall dedup ratio > 1 and that
//!    every step changing <= 10% of the blocks writes <= 25% of the full
//!    checkpoint's bytes.
//! 2. **Adapt step**: mid-run, two pulse-adjacent blocks (<= 10% of the
//!    grid) are refined before the step. The snapshot after it must still
//!    write <= 25% of the full bytes — structural change stays
//!    delta-proportional too.
//! 3. **Peer recovery**: a 3-rank resilient run with an injected crash
//!    (same scenario as the `fault_tolerance` suite). The
//!    [`ablock_par::RecoveryReport`] live counters show the restart fetched only the
//!    dead rank's blocks from peers — recovery bytes scale with lost
//!    state, never with grid size — and the durable store was never
//!    needed.
//!
//! `--quick` shrinks step counts for CI.

use std::collections::BTreeMap;
use std::sync::Arc;

use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_io::snapshot::{content_hash, encode_leaf, leaf_values};
use ablock_io::{save_grid, write_snapshot, NodeHash, NodeStore};
use ablock_par::{FaultPlan, MachineConfig, RecoverConfig, RecoverOutcome};
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::{problems, SolverConfig, Stepper};

const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);
const DT: f64 = 2e-4;

/// Per-leaf content hashes in sorted-key order (the incremental writer's
/// own view of what changed).
fn leaf_hashes(g: &BlockGrid<2>) -> BTreeMap<BlockKey<2>, NodeHash> {
    let mut keys: Vec<_> = g.blocks().map(|(_, n)| n.key()).collect();
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let bytes = encode_leaf(&leaf_values(g, k).expect("leaf present"));
            (k, content_hash(&bytes))
        })
        .collect()
}

fn full_checkpoint_bytes(g: &BlockGrid<2>) -> u64 {
    let mut buf = Vec::new();
    save_grid(&mut buf, g).expect("writing to a Vec cannot fail");
    buf.len() as u64
}

struct StepRecord {
    step: usize,
    changed: usize,
    leaves: usize,
    adapted: bool,
    bytes_new: u64,
    bytes_shared: u64,
    full_bytes: u64,
}

/// The recovery scenario from the `fault_tolerance` suite: 3 ranks, a
/// seeded crash of rank 1 mid-run, checkpoints every 2 of 8 steps.
fn recovery_run() -> RecoverOutcome<2> {
    let make_grid = || {
        let e = Euler::<2>::new(1.4);
        let mut g = BlockGrid::new(
            RootLayout::unit([4, 4], Boundary::Periodic),
            GridParams::new([4, 4], 2, 4, 1),
        );
        problems::advected_gaussian(&mut g, &e, [0.6, -0.3], [0.5, 0.5], 0.15);
        g
    };
    let plan = Arc::new(FaultPlan::new(0xBE7C_0001).crash_rank(1, 30));
    ablock_par::run_resilient(
        3,
        8,
        1.0e-3,
        SolverConfig::new(Euler::<2>::new(1.4), Scheme::muscl_rusanov()),
        make_grid,
        RecoverConfig {
            checkpoint_every: 2,
            machine: MachineConfig::fast(),
            max_restarts: 3,
        },
        Some(plan),
    )
    .expect("resilient run must complete")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let steps = if quick { 6 } else { 12 };
    let adapt_at = steps / 2;

    // localized blast: ~4-12 of the 100 root blocks change per step
    let e = Euler::<2>::new(1.4);
    let mut grid = BlockGrid::new(
        RootLayout::unit([10, 10], Boundary::Outflow),
        GridParams::new([8, 8], 2, 4, 2),
    );
    problems::sedov_blast(&mut grid, &e, [0.25, 0.25], 0.05, 20.0);
    let mut stepper = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));

    let mut store = NodeStore::new();
    let baseline = write_snapshot(&mut store, &grid, 0).expect("baseline snapshot");
    let mut prev = leaf_hashes(&grid);
    println!(
        "baseline snapshot: {} leaves, {} nodes, {} bytes (full v2: {} bytes)",
        prev.len(),
        baseline.nodes_new,
        baseline.bytes_new,
        full_checkpoint_bytes(&grid)
    );

    let mut records: Vec<StepRecord> = Vec::new();
    let mut last_changed: Vec<BlockKey<2>> = Vec::new();
    for step in 1..=steps {
        let mut adapted = false;
        if step == adapt_at {
            // refine two pulse-adjacent level-0 blocks (the ones the last
            // step actually changed) — well under 10% of the grid — so
            // this step's snapshot covers a structural delta, not just
            // payload churn
            let targets: Vec<BlockKey<2>> =
                last_changed.iter().filter(|k| k.level == 0).take(2).copied().collect();
            assert_eq!(targets.len(), 2, "the pulse must be active at the adapt step");
            assert!(
                targets.len() * 10 <= grid.num_blocks(),
                "adapt must touch <= 10% of blocks: {} of {}",
                targets.len(),
                grid.num_blocks()
            );
            for key in targets {
                let id = grid.find(key).expect("leaf key present");
                grid.refine(id, TRANSFER).expect("level-0 refine is legal");
            }
            adapted = true;
        }
        stepper.step(&mut grid, DT, None);
        let cur = leaf_hashes(&grid);
        let changed =
            cur.iter().filter(|(k, h)| prev.get(*k) != Some(h)).count();
        last_changed =
            cur.iter().filter(|(k, h)| prev.get(*k) != Some(h)).map(|(k, _)| *k).collect();
        let stats = write_snapshot(&mut store, &grid, step as u64).expect("snapshot");
        records.push(StepRecord {
            step,
            changed,
            leaves: cur.len(),
            adapted,
            bytes_new: stats.bytes_new,
            bytes_shared: stats.bytes_shared,
            full_bytes: full_checkpoint_bytes(&grid),
        });
        prev = cur;
    }

    println!("\nevery-step incremental cadence ({steps} steps):");
    println!("  step  changed/leaves  delta bytes  full bytes  delta/full  note");
    for r in &records {
        println!(
            "  {:4}  {:7}/{:<6}  {:11}  {:10}  {:9.1}%  {}",
            r.step,
            r.changed,
            r.leaves,
            r.bytes_new,
            r.full_bytes,
            100.0 * r.bytes_new as f64 / r.full_bytes as f64,
            if r.adapted { "adapt (2 blocks refined)" } else { "" }
        );
    }

    // acceptance: dedup ratio of the whole cadence (what a full writer
    // would have written / what the incremental writer wrote)
    let total_new: u64 =
        baseline.bytes_new + records.iter().map(|r| r.bytes_new).sum::<u64>();
    let total_shared: u64 =
        baseline.bytes_shared + records.iter().map(|r| r.bytes_shared).sum::<u64>();
    let dedup_ratio = (total_new + total_shared) as f64 / total_new as f64;
    println!(
        "\ndedup: {total_new} bytes written, {total_shared} bytes shared \
         -> ratio {dedup_ratio:.2}"
    );
    assert!(
        dedup_ratio > 1.0,
        "every-step cadence must deduplicate unchanged far-field blocks"
    );

    // acceptance: every quiet step (<= 10% of blocks changed) writes
    // <= 25% of the full checkpoint — and at least one such step exists
    let mut quiet_steps = 0;
    for r in &records {
        if 10 * r.changed <= r.leaves {
            quiet_steps += 1;
            assert!(
                4 * r.bytes_new <= r.full_bytes,
                "step {} changed {}/{} blocks but wrote {} of {} full bytes",
                r.step,
                r.changed,
                r.leaves,
                r.bytes_new,
                r.full_bytes
            );
        }
    }
    assert!(quiet_steps > 0, "scenario must produce a <=10%-changed step");
    println!("{quiet_steps} quiet steps (<=10% changed) all wrote <=25% of full bytes");

    // acceptance: the adapt step stays delta-proportional too
    let adapt_rec = records.iter().find(|r| r.adapted).expect("adapt step recorded");
    assert!(
        4 * adapt_rec.bytes_new <= adapt_rec.full_bytes,
        "adapt step wrote {} of {} full bytes",
        adapt_rec.bytes_new,
        adapt_rec.full_bytes
    );
    println!(
        "adapt step {} wrote {:.1}% of the full checkpoint",
        adapt_rec.step,
        100.0 * adapt_rec.bytes_new as f64 / adapt_rec.full_bytes as f64
    );

    // ---- peer recovery traffic ------------------------------------------
    let outcome = recovery_run();
    assert_eq!(outcome.restarts, 1, "the injected crash must fire exactly once");
    let rec = outcome.recoveries[0];
    assert_eq!(
        rec.nodes_local + rec.nodes_peer,
        rec.total_blocks,
        "buddy replicas must cover recovery without the durable store: {rec:?}"
    );
    assert_eq!(rec.nodes_store, 0, "{rec:?}");
    let lost = rec.total_blocks - rec.nodes_local;
    let peer_bytes = 8 * rec.peer_values;
    println!(
        "\npeer recovery after a 1-of-3 rank crash (resumed step {}):\n  \
         {} of {} blocks restored locally, {lost} lost blocks fetched from \
         peers ({peer_bytes} bytes), 0 from the durable store\n  \
         snapshot totals: {} snapshots, {} nodes new / {} shared, \
         {} replica nodes shipped",
        rec.from_step,
        rec.nodes_local,
        rec.total_blocks,
        outcome.snapshots.snapshots,
        outcome.snapshots.nodes_new,
        outcome.snapshots.nodes_shared,
        outcome.snapshots.replica_nodes,
    );

    // ---- export ----------------------------------------------------------
    let per_step: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"step\": {}, \"changed\": {}, \"leaves\": {}, \
                 \"adapted\": {}, \"bytes_new\": {}, \"bytes_shared\": {}, \
                 \"full_bytes\": {}}}",
                r.step, r.changed, r.leaves, r.adapted, r.bytes_new, r.bytes_shared,
                r.full_bytes
            )
        })
        .collect();
    let json = format!(
        "{{\n\"dedup_ratio\": {dedup_ratio:.4},\n\
         \"bytes_written\": {total_new},\n\
         \"bytes_shared\": {total_shared},\n\
         \"steps\": [\n{}\n],\n\
         \"recovery\": {{\"from_step\": {}, \"total_blocks\": {}, \
         \"nodes_local\": {}, \"nodes_peer\": {}, \"nodes_store\": {}, \
         \"peer_bytes\": {peer_bytes}, \"fetch_timeouts\": {}, \
         \"hash_mismatches\": {}}}\n}}\n",
        per_step.join(",\n"),
        rec.from_step,
        rec.total_blocks,
        rec.nodes_local,
        rec.nodes_peer,
        rec.nodes_store,
        rec.fetch_timeouts,
        rec.hash_mismatches,
    );
    std::fs::write("BENCH_ckpt.json", &json).expect("write BENCH_ckpt.json");
    println!("\nwrote BENCH_ckpt.json ({} bytes)", json.len());
}
