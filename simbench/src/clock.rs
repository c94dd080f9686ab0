//! CPU-time clocks.
//!
//! The benchmark times host work in CPU time, not wall time: on a shared
//! host other tenants deschedule the simulating thread for long
//! stretches, which moves wall time by tens of percent between passes
//! while the CPU time of the same work stays put. Wall times are still
//! recorded and reported beside them.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("simbench reads the Linux CPU-time clocks of 64-bit targets");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPUTIME: i32 = 3;

fn read(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets the `compile_error!` above
    // admits); `clock_gettime` writes it and keeps no pointer.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (every thread, running or exited), ns.
pub fn process_cpu_ns() -> u64 {
    read(PROCESS_CPUTIME)
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    read(THREAD_CPUTIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
        assert!(process_cpu_ns() >= thread_cpu_ns());
    }
}
