//! Small statistics and process probes shared by every workload.

use policysmith_obs::LatencyHistogram;

/// Median of `values` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Minimum samples a quantile needs: at least ten samples must lie beyond
/// it, so p50 needs 20, p99 needs 1000.
pub fn min_samples_for(q: f64) -> u64 {
    assert!((0.0..1.0).contains(&q), "quantile {q} must lie in [0, 1)");
    (10.0 / (1.0 - q) - 1e-9).ceil() as u64
}

/// Does a sample of `n` support quantile `q` (ten samples beyond it)?
pub fn supports(n: u64, q: f64) -> bool {
    n >= min_samples_for(q)
}

/// Quantile `q` of raw samples by linear interpolation between order
/// statistics, or `None` when the sample is too small to support it.
pub fn sample_quantile(values: &[f64], q: f64) -> Option<f64> {
    if !supports(values.len() as u64, q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Width of the histogram bucket whose lower bound is `lower`. Mirrors
/// the layout documented in `policysmith_obs::hist`: exact below 16 ns,
/// then 16 linear sub-buckets per power-of-two octave.
fn bucket_width(lower: u64) -> f64 {
    if lower < 16 {
        1.0
    } else {
        let exp = 63 - lower.leading_zeros();
        (1u64 << (exp - 4)) as f64
    }
}

/// Quantile `q` of a [`LatencyHistogram`], linearly interpolated inside
/// the bucket that holds it (the histogram itself reports bucket lower
/// bounds, which would read identically run after run). `None` when the
/// histogram holds too few samples to support `q`.
pub fn hist_quantile(h: &LatencyHistogram, q: f64) -> Option<f64> {
    let n = h.count();
    if !supports(n, q) {
        return None;
    }
    // `quantile(x)` answers rank ceil(x·n); (r − ½)/n hits rank r exactly.
    let at_rank = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let lower = at_rank(rank);
    // first and last rank that fall in the same bucket
    let (mut lo, mut hi) = (1u64, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at_rank(mid) < lower {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at_rank(mid) > lower {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let frac = (rank - first) as f64 + 0.5;
    Some(lower as f64 + bucket_width(lower) * frac / (last - first + 1) as f64)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock ids: CPU time of every thread of the process (exited ones
/// too), and of the calling thread. Both exclude time the hypervisor
/// stole from the vCPU.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of the
    // 64-bit Linux targets this benchmark builds for (time_t and long are
    // both 64 bits), and clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used, all threads included (nanosecond
/// resolution).
pub fn process_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MB of 10^6 bytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .unwrap_or(0.0)
}
