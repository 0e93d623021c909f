//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--size full|tiny] [--inject-nan STEP] [--commit ID]
//!           [--source DIGEST] [--out DIR]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics with the
//! library's default null metrics sink. A traced run (`--trace 1`) spends
//! half its time on an untraced pass and half on a pass that installs
//! `Metrics::recording()`, and reports the per-layer metrics (including
//! the tracing overhead between the two passes); it also writes the
//! benchmark's spans as Chrome trace-event JSON under `--out`. The last
//! line of standard output is always the result object. End-to-end times
//! are adjusted to a reference host by the host gauge (see [`host`]); the
//! same figures unadjusted are printed on the line before the result.

mod check;
mod comet;
mod dist;
mod host;
mod mhd;
mod probe;
mod run;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{peak_rss_mb, Layers, Opts, Pass};
use stats::{median, quantile};

/// Version of the printed record layout.
const SCHEMA: u32 = 1;
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = ["mhd3d_m16", "mhd3d_m4", "comet_subcycled", "dist2_tracking"];

/// End-to-end metrics of an untraced run: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("time_to_solution_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("ns_per_cell_update", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: name and unit. A metric whose
/// layer the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("ghost.fill_ms_per_step", "ms"),
    ("ghost.fill_ns_per_value", "ns"),
    ("ghost.values_per_step", "count"),
    ("ghost.plan_build_ms", "ms"),
    ("engine.plan_rebuilds", "count"),
    ("engine.plan_reuse_frac", "frac"),
    ("kernel.rhs_ns_per_cell", "ns"),
    ("kernel.flux_ms_per_step", "ms"),
    ("kernel.bytes_per_cell_computed", "B"),
    ("stepper.update_ms_per_step", "ms"),
    ("stepper.dt_ms_per_step", "ms"),
    ("subcycle.update_frac", "frac"),
    ("subcycle.lvl0_ms_per_cycle", "ms"),
    ("subcycle.lvl1_ms_per_cycle", "ms"),
    ("subcycle.lvl2_ms_per_cycle", "ms"),
    ("subcycle.lvl3_ms_per_cycle", "ms"),
    ("reflux.ms_per_cycle", "ms"),
    ("amr.adapt_ms", "ms"),
    ("amr.flag_ms", "ms"),
    ("amr.cascade_ms", "ms"),
    ("amr.adapt_ghost_fill_ms", "ms"),
    ("amr.blocks_refined_per_adapt", "count"),
    ("amr.groups_coarsened_per_adapt", "count"),
    ("grid.blocks_mean", "count"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.bytes_new_per_write", "B"),
    ("snapshot.dedup_ratio", "ratio"),
    ("pool.busy_ms_per_step", "ms"),
    ("pool.idle_frac", "frac"),
    ("comm.msgs_per_step", "count"),
    ("comm.bytes_per_step", "B"),
    ("dist.pack_ms_per_step", "ms"),
    ("dist.unpack_ms_per_step", "ms"),
    ("dist.overlap_flux_ms_per_step", "ms"),
    ("dist.reduce_ms_per_step", "ms"),
    ("dist.wait_ms_per_step", "ms"),
    ("dist.rebalance_ms", "ms"),
    ("dist.migrated_blocks_per_rebalance", "count"),
    ("dist.field_bytes_per_rank", "B"),
    ("dist.owned_field_bytes_per_rank", "B"),
    ("model.eff_64rank", "frac"),
    ("obs.trace_overhead_frac", "frac"),
    ("failed_step_frac", "frac"),
];

struct Args {
    workload: &'static str,
    opts: Opts,
    seconds: f64,
    trace: bool,
    commit: String,
    source: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        tiny: false,
        inject_nan: None,
    };
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut commit = String::from("unknown");
    let mut source = String::from("unknown");
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == v)
                        .ok_or(format!("unknown workload {v:?}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--size" => {
                opts.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    v => return Err(format!("--size takes full or tiny, not {v:?}")),
                }
            }
            "--inject-nan" => {
                opts.inject_nan = Some(value()?.parse().map_err(|e| format!("--inject-nan: {e}"))?)
            }
            "--commit" => commit = value()?,
            "--source" => source = value()?,
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        opts,
        seconds,
        trace,
        commit,
        source,
        out,
    })
}

fn run_pass(workload: &str, opts: &Opts, seconds: f64, traced: bool) -> (Pass, Layers) {
    match workload {
        "mhd3d_m16" => mhd::pass(false, opts, seconds, traced),
        "mhd3d_m4" => mhd::pass(true, opts, seconds, traced),
        "comet_subcycled" => comet::pass(opts, seconds, traced),
        "dist2_tracking" => dist::pass(opts, seconds, traced),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit `{}` prints; `null` if not finite.
fn jn(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// `(level, bytes)` of the data and unified caches of CPU 0.
fn cache_sizes() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            break;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<u64>().ok())
                .map(|m| m << 20),
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), bytes) {
            out.push((level, bytes));
        }
    }
    out
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else on this machine's virtual CPUs.
fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(
    args: &Args,
    state_bytes: u64,
    reps: usize,
    samples: usize,
    steal_frac: f64,
    gauge_ms: f64,
) -> String {
    let caches = cache_sizes();
    let level = |l: u32| caches.iter().find(|c| c.0 == l).map_or(0, |c| c.1);
    let (l2, l3) = (level(2), level(3));
    let fits = |cache: u64| cache > 0 && state_bytes <= cache;
    format!(
        "{{\"provenance\": {{\"schema\": {SCHEMA}, \"workload\": {}, \"seed\": {}, \"traced\": {}, \
         \"run_seconds\": {}, \"size\": {}, \"commit\": {}, \"source_digest\": {}, \"nproc\": {}, \
         \"cpu_model\": {}, \"l2_bytes\": {l2}, \"l3_bytes\": {l3}, \"state_bytes\": {state_bytes}, \
         \"state_fits_l2\": {}, \"state_fits_l3\": {}, \"reps\": {reps}, \"step_samples\": {samples}, \"host_steal_frac\": {}, \
         \"host_gauge_ms\": {}}}}}",
        js(args.workload),
        args.opts.seed,
        args.trace,
        jn(args.seconds),
        js(if args.opts.tiny { "tiny" } else { "full" }),
        js(&args.commit),
        js(&args.source),
        ablock_par::pool::nthreads(),
        js(&cpu_model()),
        fits(l2),
        fits(l3),
        jn(steal_frac),
        jn(gauge_ms),
    )
}

/// Errors common to every pass: digests must agree across repetitions
/// (same seed, same inputs, deterministic program).
fn digest_errors(passes: &[Pass]) -> (Option<u64>, Vec<String>) {
    let mut errors: Vec<String> = passes
        .iter()
        .flat_map(|p| p.reps.iter())
        .flat_map(|r| r.errors.clone())
        .collect();
    let digests: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.reps.iter())
        .filter(|r| r.failed == 0 && r.errors.is_empty())
        .map(|r| r.digest)
        .collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        errors.push(format!(
            "final-state digests differ between repetitions: {digests:x?}"
        ));
    }
    (digests.first().copied(), errors)
}

/// Values of the [`END_TO_END`] metrics, in that order: times adjusted
/// to the reference host, or as measured.
fn end_to_end(pass: &Pass, adjusted: bool) -> [f64; 6] {
    let reps = pass.full_reps();
    let k = |gauge_ms: f64| {
        if adjusted {
            host::adjustment(gauge_ms)
        } else {
            1.0
        }
    };
    let per_rep: Vec<Vec<f64>> = pass
        .reps
        .iter()
        .filter(|r| !r.samples_ms.is_empty())
        .map(|r| r.samples_ms.iter().map(|ms| ms * k(r.gauge_ms)).collect())
        .collect();
    let samples: Vec<f64> = per_rep.concat();
    // A burst of host load slows every step it covers, so the 90th
    // percentile of all samples moves with the share of the run a burst
    // covered. Each repetition's 90th percentile keeps the steps the
    // schedule makes slow (plan rebuilds after an adapt), and their
    // median drops the repetitions a burst hit.
    let p90s: Vec<f64> = per_rep.iter().map(|v| quantile(v, 0.9)).collect();
    let updates: Vec<f64> = pass.reps.iter().map(|r| r.cell_updates).collect();
    let seconds: Vec<f64> = reps.iter().map(|r| r.seconds() * k(r.gauge_ms)).collect();
    let setups: Vec<f64> = pass.setups().iter().map(|&(s, g)| s * k(g)).collect();
    let t = median(&seconds);
    [
        t,
        median(&samples),
        median(&p90s),
        t * 1e9 / median(&updates),
        median(&setups),
        peak_rss_mb(),
    ]
}

/// Adjusted time to solution of a pass.
fn tts(pass: &Pass) -> f64 {
    end_to_end(pass, true)[0]
}

fn write_trace(args: &Args, pass: &Pass) -> std::io::Result<PathBuf> {
    let lanes: Vec<Vec<trace::SpanRec>> = pass
        .reps
        .iter()
        .flat_map(|r| r.spans.iter().cloned())
        .chain(pass.probe_spans.iter().cloned())
        .collect();
    for (name, (n, total, own)) in trace::summarize(&lanes) {
        println!(
            "span {name:<18} n={n:<6} total={:>10.3} ms  self={:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!(
        "trace-{}-seed{}.json",
        args.workload, args.opts.seed
    ));
    std::fs::write(&path, trace::chrome_json(&lanes))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    host::init();
    let steal0 = cpu_steal();
    let (passes, layers) = if args.trace {
        let (plain, _) = run_pass(args.workload, opts, args.seconds / 2.0, false);
        let (traced, mut layers) = run_pass(args.workload, opts, args.seconds / 2.0, true);
        layers.insert("obs.trace_overhead_frac", tts(&traced) / tts(&plain) - 1.0);
        match write_trace(&args, &traced) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write trace: {e}"),
        }
        (vec![plain, traced], Some(layers))
    } else {
        (
            vec![run_pass(args.workload, opts, args.seconds, false).0],
            None,
        )
    };
    let (digest, errors) = digest_errors(&passes);
    let attempted: u64 = passes.iter().map(Pass::attempted).sum();
    let failed = passes.iter().map(Pass::failed).sum::<u64>().min(attempted);
    // (name, unit, value) of every reported metric
    let metrics: Vec<(&str, &str, f64)> = match layers {
        None => END_TO_END
            .iter()
            .zip(end_to_end(&passes[0], true))
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        Some(mut layers) => {
            layers.insert("failed_step_frac", failed as f64 / attempted.max(1) as f64);
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)))
                .collect()
        }
    };
    for pass in &passes {
        let secs: Vec<String> = pass
            .reps
            .iter()
            .map(|r| format!("{:.4}", r.seconds()))
            .collect();
        println!("repetition seconds: [{}]", secs.join(", "));
        let gauge: Vec<String> = pass
            .reps
            .iter()
            .map(|r| format!("{:.3}", r.gauge_ms))
            .collect();
        println!("repetition gauge ms: [{}]", gauge.join(", "));
    }
    let samples: usize = passes.iter().map(Pass::steps).sum();
    let reps: usize = passes.iter().map(|p| p.reps.len()).sum();
    let state_bytes = passes
        .iter()
        .flat_map(|p| p.reps.iter())
        .map(|r| r.state_bytes)
        .max()
        .unwrap_or(0);
    for e in errors.iter().take(10) {
        println!("check failed: {e}");
    }
    println!(
        "{} seed {}: {reps} repetitions, {samples} step samples, {failed}/{attempted} steps failed, \
         final-state digest {}",
        args.workload,
        opts.seed,
        digest.map_or("none".into(), |d| format!("{d:016x}"))
    );
    let raw = end_to_end(&passes[0], false);
    let gauge: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.gauge_ms.iter().copied())
        .collect();
    println!(
        "unadjusted: time_to_solution_s {} step_ms_p50 {} step_ms_p90 {} setup_s {}; \
         host gauge median {} ms",
        jn(raw[0]),
        jn(raw[1]),
        jn(raw[2]),
        jn(raw[4]),
        jn(median(&gauge)),
    );
    let steal1 = cpu_steal();
    let steal_frac = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    println!(
        "{}",
        provenance(
            &args,
            state_bytes,
            reps,
            samples,
            steal_frac,
            median(&gauge),
        )
    );
    let correct = errors.is_empty() && failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            js(name),
            jn(*value),
            js(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
