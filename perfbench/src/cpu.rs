//! CPU time of this process, the clock of the end-to-end timings.
//!
//! On a virtual machine the host may stop a vCPU for whole seconds to
//! run other guests; wall time counts those pauses, and on a shared host
//! they come in states long enough to move a whole run by half. The
//! kernel's per-process CPU clock counts user and system time of every
//! thread and, with paravirtual steal accounting, leaves the stolen time
//! out. What remains is the work the program did.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, over all its threads.
pub fn now_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the clock
    // id is one every Linux kernel since 2.6.12 accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU time since it was started.
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: std::time::Instant::now(),
            cpu: now_s(),
        }
    }

    /// (wall, CPU) seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), now_s() - self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn cpu_time_advances_with_work() {
        // Other tests run in this process at the same time, so only a
        // lower bound holds.
        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.elapsed_s().0 < 0.05 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (wall, cpu) = sw.elapsed_s();
        assert!(wall >= 0.05 && cpu > 0.01, "cpu {cpu} wall {wall}");
    }
}
