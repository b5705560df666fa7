//! Processor-time clocks and peak memory, read from the operating system.
//!
//! Per-thread processor time is what lets a span say how much of its wall
//! time the thread was actually running. `/proc/thread-self/schedstat`
//! would give it without foreign calls, but the kernel only refreshes that
//! figure at a scheduler tick or a context switch: measured on this
//! repository's box, a thread that spins for 1 ms reads a 2 µs delta. Spans
//! here are tens of microseconds long, so every compute span would read as
//! zero and its time would be charged to the next blocking call.
//! `clock_gettime` brings the figure up to date before returning it, and
//! costs less (≈ 0.23 µs against ≈ 0.30 µs a read).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux clocks and /proc; it supports 64-bit Linux only");

/// `struct timespec` on 64-bit Linux: two 64-bit signed fields.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout the
    // 64-bit Linux C library expects (checked by the `cfg` above), and
    // `clock_gettime` writes nothing else. Both clock ids are always valid
    // for the calling thread, so the call cannot fail.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Processor time the calling thread has consumed, user and system.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Processor time of the whole process: every live thread plus every
/// thread that has exited.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_tracks_a_short_spin() {
        let wall = std::time::Instant::now();
        let before = thread_cpu_ns();
        let mut x = 0u64;
        while wall.elapsed().as_micros() < 500 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = thread_cpu_ns() - before;
        // The whole point of this clock: a sub-tick spin is visible.
        assert!(spent > 100_000, "500 µs spin read as {spent} ns");
        assert!(process_cpu_ns() >= spent);
    }

    #[test]
    fn parses_status_line() {
        let status = "Name:\tx\nVmPeak:\t  10 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
