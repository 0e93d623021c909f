//! The repetition loop every workload shares, and what it collects.
//!
//! One repetition is: set up from the seed, run the workload's fixed
//! schedule, check the outputs. A run repeats until its time is spent,
//! so the end-to-end figures are medians over repetitions and the step
//! percentiles are over every schedule iteration of every repetition.
//! The host gauge is read before the first repetition and after each, and
//! each repetition's times are adjusted by the readings around it (see
//! [`crate::host`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ablock_obs::MetricsSnapshot;

use crate::host;
use crate::trace::SpanRec;

/// Command-line options a workload sees.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Tiny grids and schedules, for the benchmark's own tests.
    pub tiny: bool,
    /// Corrupt one cell after this schedule iteration (checks self-test).
    pub inject_nan: Option<usize>,
}

/// Per-layer metrics of a traced pass, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one repetition produced.
#[derive(Default)]
pub struct Rep {
    /// Set-up seconds: grid build, initial conditions, initial adapt,
    /// first ghost-plan build.
    pub setup_s: f64,
    /// Wall ms of each step: `stable_dt` and the `step`/`advance` call
    /// (checks excluded).
    pub samples_ms: Vec<f64>,
    /// Wall ms of the schedule's other calls between steps: `adapt_now`,
    /// `write_snapshot`, `adapt_rebalance`.
    pub between_ms: f64,
    /// Interior cell updates the schedule performed.
    pub cell_updates: f64,
    /// Schedule iterations that failed a check, plus those never run
    /// because the repetition aborted.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Final-state digest (`ablock_testkit::grid_digest`).
    pub digest: u64,
    /// Field bytes the workload allocates, all ranks together.
    pub state_bytes: u64,
    /// Benchmark spans, one vector per lane.
    pub spans: Vec<Vec<SpanRec>>,
    /// The library's recording sink after the repetition, one per rank
    /// (traced pass only; each repetition records into a fresh sink).
    pub snapshots: Vec<MetricsSnapshot>,
    /// Workload-specific per-layer figures of this repetition.
    pub layers: Layers,
    /// Mean of the host gauge readings just before and just after this
    /// repetition, in ms.
    pub gauge_ms: f64,
}

impl Rep {
    /// Time to solution: the schedule's steps and the calls between
    /// them, in seconds.
    pub fn seconds(&self) -> f64 {
        (self.samples_ms.iter().sum::<f64>() + self.between_ms) / 1e3
    }

    /// Record a failed check; the caller decides whether to abort.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }
}

/// All repetitions of one pass (untraced or traced).
#[derive(Default)]
pub struct Pass {
    pub reps: Vec<Rep>,
    /// Set-up-only repetitions (see [`measure`]): set-up seconds and
    /// gauge ms, as in [`Rep`].
    pub extra_setups: Vec<(f64, f64)>,
    /// Every host gauge reading of the pass, in ms.
    pub gauge_ms: Vec<f64>,
    pub schedule_len: usize,
    /// Spans of the traced pass's per-layer probes.
    pub probe_spans: Vec<Vec<SpanRec>>,
}

impl Pass {
    /// Set-up seconds and gauge ms of every repetition.
    pub fn setups(&self) -> Vec<(f64, f64)> {
        self.reps
            .iter()
            .map(|r| (r.setup_s, r.gauge_ms))
            .chain(self.extra_setups.iter().copied())
            .collect()
    }

    /// The repetitions that ran their whole schedule.
    pub fn full_reps(&self) -> Vec<&Rep> {
        self.reps
            .iter()
            .filter(|r| r.samples_ms.len() == self.schedule_len)
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        (self.reps.len() * self.schedule_len) as u64
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    pub fn steps(&self) -> usize {
        self.reps.iter().map(|r| r.samples_ms.len()).sum()
    }

    /// The last repetition that ran its whole schedule; per-layer
    /// figures come from it, so counts do not depend on run length.
    pub fn last_full(&self) -> Option<&Rep> {
        self.reps
            .iter()
            .rev()
            .find(|r| r.samples_ms.len() == self.schedule_len)
    }
}

/// Set-up samples every run takes, so `setup_s` is a median of at least
/// this many even when only a few schedules fit in the run.
pub const MIN_SETUPS: usize = 5;

/// Repeat `rep` for about `seconds`: a new repetition starts only while
/// the mean repetition so far still fits in the remaining time (at least
/// one always runs). `rep(false)` runs set-up and schedule; `rep(true)`
/// runs set-up only. A panicking repetition counts as aborted: every
/// iteration it did not time is failed. The host gauge is read before
/// the first repetition and after every one.
pub fn measure(seconds: f64, schedule_len: usize, mut rep: impl FnMut(bool) -> Rep) -> Pass {
    let mut pass = Pass {
        schedule_len,
        ..Default::default()
    };
    let start = Instant::now();
    let mut before = host::reading_ms();
    pass.gauge_ms.push(before);
    loop {
        let mut r = match catch_unwind(AssertUnwindSafe(|| rep(false))) {
            Ok(r) => r,
            Err(p) => Rep {
                failed: schedule_len as u64,
                errors: vec![format!(
                    "repetition aborted: {}",
                    ablock_testkit::payload_str(&*p)
                )],
                ..Default::default()
            },
        };
        let after = host::reading_ms();
        pass.gauge_ms.push(after);
        r.gauge_ms = 0.5 * (before + after);
        before = after;
        let aborted = r.samples_ms.len() < schedule_len;
        pass.reps.push(r);
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / pass.reps.len() as f64;
        if aborted || elapsed + per_rep > seconds {
            break;
        }
    }
    while pass.setups().len() < MIN_SETUPS {
        let Ok(r) = catch_unwind(AssertUnwindSafe(|| rep(true))) else {
            break;
        };
        let after = host::reading_ms();
        pass.gauge_ms.push(after);
        pass.extra_setups.push((r.setup_s, 0.5 * (before + after)));
        before = after;
    }
    pass
}

/// Peak resident set (`VmHWM`) of this process in MiB, less the host
/// gauge's buffer, which is resident from start to end.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| {
            (kb * 1024.0 - host::GAUGE_BYTES as f64) / (1 << 20) as f64
        })
}

/// Seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}
