//! Host gauge: how loaded is the shared host?
//!
//! The benchmark runs on a few virtual CPUs of a shared host whose memory
//! system other tenants load. In slow phases, which last from seconds to
//! many minutes, the same repetition of the same workload runs up to twice
//! as long, and a ten-run set spread over a few minutes mixes phases. A
//! fixed kernel that reads scattered cache lines of a buffer it has just
//! flushed from every cache level slows down with the host, by more than
//! the workloads do. The run reads it before the first repetition and
//! after every one, and adjusts each repetition's times by
//! [`adjustment`] of the mean reading around it. The kernel belongs to
//! the benchmark and runs while no workload code does, after a flush, so
//! no change to the library moves it.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Bytes of the buffer the kernel walks.
pub const GAUGE_BYTES: usize = 8 << 20;
/// Reading, in ms, of a quiet host: there [`adjustment`] is 1.
pub const REFERENCE_MS: f64 = 1.4;
/// Share of a repetition's time taken to slow down with the gauge.
pub const MEMORY_SHARE: f64 = 0.5;
/// Passes per reading; a reading is their median.
const PASSES: usize = 3;

static BUF: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Allocate and touch the buffer. Called once, before any workload runs,
/// so the buffer is resident for the whole process and `peak_rss_mb`
/// can subtract exactly `GAUGE_BYTES`.
pub fn init() {
    let mut buf = BUF.lock().unwrap_or_else(|p| p.into_inner());
    if buf.is_empty() {
        *buf = vec![1.0; GAUGE_BYTES / 8];
    }
}

/// Write every cache line of `v` back to memory and drop it from every
/// cache level, so a pass starts from memory whatever ran before it.
fn flush(v: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_clflush, _mm_mfence};
        for line in v.chunks(8) {
            // SAFETY: the pointer is to a live element of `v`.
            unsafe { _mm_clflush(line.as_ptr().cast()) };
        }
        // SAFETY: a fence has no preconditions.
        unsafe { _mm_mfence() };
    }
    #[cfg(not(target_arch = "x86_64"))]
    black_box(v);
}

/// One reading: the median wall ms of `PASSES` passes of the kernel, each
/// starting from memory ([`flush`]), writing one word per cache line in
/// order and reading one word from a scattered line.
pub fn reading_ms() -> f64 {
    init();
    let mut buf = BUF.lock().unwrap_or_else(|p| p.into_inner());
    let v = &mut buf[..];
    let n = v.len();
    let mut passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            flush(v);
            let t0 = Instant::now();
            for i in (0..n).step_by(8) {
                v[i] = v[i] * 0.999 + v[(i * 7919) % n] * 0.001;
            }
            black_box(&mut *v);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[PASSES / 2]
}

/// Factor taking a time measured while the gauge read `gauge_ms` to the
/// reference host: the time is modelled as a part `1 - MEMORY_SHARE` that
/// the host's load leaves alone and a part `MEMORY_SHARE` that grows in
/// proportion to the reading.
pub fn adjustment(gauge_ms: f64) -> f64 {
    1.0 / (1.0 - MEMORY_SHARE + MEMORY_SHARE * gauge_ms / REFERENCE_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_adjustment_is_one_at_the_reference() {
        let r = reading_ms();
        assert!(r > 0.0 && r.is_finite());
        assert_eq!(adjustment(REFERENCE_MS), 1.0);
        assert!(adjustment(3.0 * REFERENCE_MS) < 1.0);
    }
}
