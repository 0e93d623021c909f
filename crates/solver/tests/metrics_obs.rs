//! Observability must be free: a recording metrics sink may add wall
//! time, but it must not perturb the numerics. Two identical runs — one
//! through the default null sink, one recording every span and counter —
//! have to produce bitwise-identical fields.

use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_obs::{phase, Metrics};
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::problems;
use ablock_solver::stepper::Stepper;
use ablock_solver::SolverConfig;

fn pulse_grid(e: &Euler<2>) -> BlockGrid<2> {
    let mut g = BlockGrid::new(
        RootLayout::unit([2, 2], Boundary::Periodic),
        GridParams::new([8, 8], 2, 4, 1),
    );
    problems::advected_gaussian(&mut g, e, [0.7, 0.4], [0.5, 0.5], 0.12);
    g
}

fn run(metrics: Metrics) -> (Vec<f64>, Metrics) {
    let e = Euler::<2>::new(1.4);
    let mut g = pulse_grid(&e);
    let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
        .with_cfl(0.4)
        .with_metrics(metrics.clone());
    let mut st = Stepper::new(cfg);
    for _ in 0..4 {
        let dt = st.stable_dt(&mut g);
        st.step(&mut g, dt, None);
    }
    let mut fields = Vec::new();
    for (_, n) in g.blocks() {
        fields.extend_from_slice(n.field().as_slice());
    }
    (fields, metrics)
}

#[test]
fn null_sink_leaves_step_rk2_bitwise_identical() {
    let (null_fields, null_metrics) = run(Metrics::null());
    let (rec_fields, rec_metrics) = run(Metrics::recording());

    assert_eq!(null_fields.len(), rec_fields.len());
    for (i, (a, b)) in null_fields.iter().zip(&rec_fields).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "field value {i} differs between null and recording runs: {a} vs {b}"
        );
    }

    // the null sink recorded nothing at all
    let null_snap = null_metrics.snapshot();
    assert!(null_snap.counters.is_empty());
    assert!(null_snap.spans.is_empty());

    // while the recording sink saw every solver phase
    let snap = rec_metrics.snapshot();
    for ph in [phase::GHOST_FILL, phase::FLUX, phase::UPDATE] {
        assert!(
            snap.span_total_ns(ph) > 0,
            "recording run missing phase '{ph}': {:?}",
            snap.spans.keys().collect::<Vec<_>>()
        );
    }
    assert!(snap.counter("engine.plan_rebuilds") >= 1);
    assert!(snap.counter("engine.plan_reuses") >= 1);
}
