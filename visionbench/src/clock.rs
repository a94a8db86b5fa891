//! CPU clocks.
//!
//! The benchmark runs on shared virtual machines, where a vCPU can be
//! descheduled (stolen) for milliseconds at a time. Wall-clock samples
//! then measure the neighbours as much as the simulator, so every host
//! time the benchmark reports is CPU time: the stepping thread's clock
//! for a single tick or step, the process clock for a whole batch,
//! episode or fleet run. Both advance only while a thread runs; blocked
//! waits (barriers, joins, locks) cost nothing, which is why the
//! wall-clock percentiles are printed beside the CPU ones.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn read(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; both clock ids are
    // constants every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time this thread has consumed, ns.
pub fn thread_cpu_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has consumed, ns.
pub fn process_cpu_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_clock_advances_with_work_only() {
        let a = super::thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = super::thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let c = super::thread_cpu_ns();
        assert!(b > a, "work consumed no CPU time");
        assert!(c - b < 20_000_000, "sleeping consumed {} ns of CPU", c - b);
    }
}
