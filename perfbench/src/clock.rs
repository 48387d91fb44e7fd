//! Host-side measurements: process CPU time, peak resident set, and the
//! calibration kernel that tracks how fast the host runs right now.
//!
//! Runs are single-threaded, so CPU time excludes the time the scheduler
//! gave other tenants of the machine; wall time would not.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc; build it on 64-bit Linux");

/// `struct timespec` on 64-bit Linux: `time_t` and `long` are both 64 bits.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) used so far by every thread of this process,
/// in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of the
    // target (checked by the `compile_error!` gate above), and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds spent running `f`, with its result.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = process_cpu_s();
    let out = f();
    (process_cpu_s() - start, out)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fixed, benchmark-owned kernel shaped like the simulators' event
/// loops: pops the earliest key off a 4096-entry binary heap, reads a
/// pseudo-random slot of a 512 KiB table, and pushes a later key. Its CPU
/// time tracks how fast the host runs that kind of code right now; it
/// shares no code with the program under test. The table is built once
/// and stays resident, so the kernel adds a small constant to the peak
/// resident set instead of a peak of its own.
pub fn calibration_kernel() -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::OnceLock;

    const TABLE: usize = 1 << 16;
    const STEPS: u64 = 100_000;
    static TABLE_DATA: OnceLock<Vec<u64>> = OnceLock::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let table = TABLE_DATA.get_or_init(|| {
        let mut y = 0x2545_F491_4F6C_DD1Du64;
        (0..TABLE)
            .map(|_| {
                y ^= y << 13;
                y ^= y >> 7;
                y ^= y << 17;
                y
            })
            .collect()
    });
    let mut heap: BinaryHeap<Reverse<u64>> = (0..4096).map(|_| Reverse(next() >> 40)).collect();
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Reverse(t) = heap.pop().expect("heap stays full");
        let v = table[(next() ^ t) as usize % TABLE];
        acc = acc.wrapping_add(v);
        heap.push(Reverse(t + 1 + (v >> 52)));
    }
    std::hint::black_box(acc)
}

/// Calibration-kernel samples taken through one lap of a run.
#[derive(Debug, Default)]
pub struct Calibration {
    /// CPU seconds of each kernel run, in run order.
    pub samples: Vec<f64>,
    /// CPU seconds spent in the kernel so far; a body that samples between
    /// its calls leaves this out of its own time.
    pub cpu_s: f64,
}

impl Calibration {
    /// Runs the calibration kernel `reps` times.
    pub fn sample(&mut self, reps: usize) {
        for _ in 0..reps {
            let (dt, _) = cpu_timed(calibration_kernel);
            self.samples.push(dt);
            self.cpu_s += dt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let (dt, sum) = cpu_timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(dt > 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(peak_rss_mib() > 0.0);
    }
}
