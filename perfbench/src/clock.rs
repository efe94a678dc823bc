//! The benchmark's clock: on-CPU time of the calling thread.
//!
//! Every cell runs on one thread, so the thread's CPU time is the host
//! time the cell's work took. Unlike wall time, it leaves out stretches
//! in which the VM's vCPU is stolen by the hypervisor or the thread waits
//! for a core; on a small shared VM those stretches set the tail of the
//! cell times. It also leaves out time the thread blocks (disk waits,
//! sleeps); the run prints wall-clock figures beside it for that reason.

use std::os::raw::{c_int, c_long};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time consumed by the calling thread so far, in nanoseconds.
pub fn thread_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` laid out as the C
    // library expects on 64-bit Linux, and `clock_gettime` writes only
    // through the pointer it is given, for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// A stopwatch on [`thread_ns`].
#[derive(Debug, Clone, Copy)]
pub struct Cpu(u64);

impl Cpu {
    pub fn start() -> Self {
        Cpu(thread_ns())
    }

    pub fn elapsed_ns(self) -> u64 {
        thread_ns().saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_time_advances_with_work_not_with_sleep() {
        let t = Cpu::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = t.elapsed_ns();
        assert!(busy > 0);
        let t = Cpu::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(t.elapsed_ns() < 10_000_000, "sleeping costs no CPU time");
    }
}
