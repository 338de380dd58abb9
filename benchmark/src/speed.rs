//! Host speed: a fixed kernel, owned by the benchmark, timed between the
//! measured phases so that time metrics can be stated at a reference
//! host speed.
//!
//! On a small shared virtual machine, neighbours contend for caches and
//! memory bandwidth. For seconds at a time that slows every
//! memory-bound instruction stream — vqd's and this kernel's alike — by
//! up to 40 %, while a pure arithmetic loop barely moves. The kernel
//! (random updates to a hash map of vectors) slows in step with vqd's
//! hash-join and parsing code, so a phase's time multiplied by
//! [`REFERENCE_MS`] over the kernel's time around that phase is the
//! phase's time on an uncontended host. The kernel never calls vqd, so
//! no change to vqd moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::os::raw::{c_int, c_long};

/// The kernel's time on the uncontended 2-vCPU machine the benchmark was
/// built on, ms. Corrected times read as raw times would there.
pub const REFERENCE_MS: f64 = 1.0;

/// Kernel runs per sample; the sample is their median.
const REPS: usize = 7;

/// `struct timespec` on Linux: `time_t` and the nanoseconds are both C
/// `long`s.
#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time of the calling thread, ms. Being descheduled does not count,
/// so a busy server or load thread cannot make the kernel read slow.
fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// 20 000 pseudo-random appends into 5 000 vectors keyed in a hash map
/// with a fixed hasher: the same work on every call.
fn kernel() -> usize {
    let mut map: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..20_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 5_000).or_default().push(i);
    }
    map.values().map(Vec::len).sum()
}

/// One sample: the kernel's median thread-CPU time over [`REPS`] runs,
/// ms.
pub fn sample() -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = thread_cpu_ms();
            std::hint::black_box(kernel());
            thread_cpu_ms() - t0
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

/// Samples taken at the boundaries of consecutive phases: phase `i` runs
/// between sample `i` and sample `i + 1`.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<f64>,
}

impl Speed {
    /// Takes the first boundary sample.
    pub fn start() -> Speed {
        Speed {
            samples: vec![sample()],
        }
    }

    /// Closes the current phase by sampling its end boundary; returns the
    /// phase's index for [`Speed::correction`].
    pub fn lap(&mut self) -> usize {
        self.samples.push(sample());
        self.samples.len() - 2
    }

    /// The factor that turns phase `phase`'s measured times into
    /// reference-speed times (below 1 when the host ran slow):
    /// [`REFERENCE_MS`] over the median of the four samples nearest the
    /// phase — its two ends and one more either side — so one stray
    /// sample cannot move it.
    pub fn correction(&self, phase: usize) -> f64 {
        let last = self.samples.len() - 1;
        let window = &self.samples[phase.saturating_sub(1)..=(phase + 2).min(last)];
        let mut near = window.to_vec();
        near.sort_by(f64::total_cmp);
        let n = near.len();
        REFERENCE_MS / ((near[(n - 1) / 2] + near[n / 2]) / 2.0)
    }

    /// Every sample so far, ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_fixed_work_and_samples_are_positive() {
        assert_eq!(kernel(), 20_000);
        let mut speed = Speed::start();
        assert_eq!(speed.lap(), 0);
        let factor = speed.correction(0);
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(speed.samples().len(), 2);
        assert!(speed.samples().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn correction_is_robust_to_one_stray_sample() {
        let speed = Speed {
            samples: vec![2.0, 2.0, 50.0, 2.0, 2.0, 2.0],
        };
        // Phase 1 runs between samples 1 and 2; its window is 0..=3.
        assert_eq!(speed.correction(1), REFERENCE_MS / 2.0);
        assert_eq!(speed.correction(4), REFERENCE_MS / 2.0);
        let speed = Speed {
            samples: vec![1.0, 3.0],
        };
        assert_eq!(speed.correction(0), REFERENCE_MS / 2.0);
    }
}
