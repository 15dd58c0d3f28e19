//! Host time on two clocks: the wall clock, and the CPU time of the calling
//! thread. On a shared machine the thread clock leaves out the time the
//! thread was not running, so whole phases (set-up, replay) are reported
//! on it; single calls are too short to read it for (one read costs about
//! as much as a RAM-buffer hit) and use the wall clock.

use std::ops::AddAssign;
use std::time::Instant;

/// Host time of a phase on both clocks, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Host {
    /// Wall-clock time.
    pub wall_ns: u64,
    /// CPU time of the thread that ran the phase.
    pub cpu_ns: u64,
}

impl AddAssign for Host {
    fn add_assign(&mut self, other: Host) {
        self.wall_ns += other.wall_ns;
        self.cpu_ns += other.cpu_ns;
    }
}

impl Host {
    /// `self` minus `other`, clamped at zero on each clock.
    pub fn minus(self, other: Host) -> Host {
        Host {
            wall_ns: self.wall_ns.saturating_sub(other.wall_ns),
            cpu_ns: self.cpu_ns.saturating_sub(other.cpu_ns),
        }
    }
}

/// A start point on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu_ns: u64,
}

impl Mark {
    /// Now.
    pub fn now() -> Mark {
        Mark {
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
        }
    }

    /// Host time since the mark.
    pub fn elapsed(self) -> Host {
        Host {
            wall_ns: self.wall.elapsed().as_nanos() as u64,
            cpu_ns: thread_cpu_ns().saturating_sub(self.cpu_ns),
        }
    }
}

/// CPU time the calling thread has used, in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's, linked by std on Linux; it
    // writes one `struct timespec` through the pointer, which is valid and
    // writable for exactly that type on this target.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elsewhere the thread clock falls back to the wall clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn the_thread_clock_counts_work_not_sleep() {
        let mark = Mark::now();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let t = mark.elapsed();
        assert!(t.wall_ns >= 30_000_000);
        assert!(t.cpu_ns > 0);
        assert!(t.cpu_ns < t.wall_ns - 20_000_000, "{t:?}");
    }
}
