//! Host facts recorded with every run: a parallel speed-up means nothing
//! without the parallelism the host actually delivered.

use crate::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// Throughput of two concurrent spin loops relative to one (2.0 on two
    /// free cores, about 1.0 when the host delivers one core).
    pub effective_parallelism: f64,
    /// `sfq_netlist::par::workers()` as this process resolves it.
    pub workers: usize,
    pub git_rev: String,
    pub profile: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            effective_parallelism: effective_parallelism(),
            workers: sfq_netlist::par::workers(),
            git_rev: git_rev(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            (
                "effective_parallelism",
                Json::Num(self.effective_parallelism),
            ),
            ("workers", Json::Num(self.workers as f64)),
            ("git_rev", Json::str(self.git_rev.as_str())),
            ("profile", Json::str(self.profile)),
        ])
    }

    pub fn summary(&self) -> String {
        format!(
            "host nproc={} effective_parallelism={:.2} workers={} profile={} git_rev={}",
            self.nproc, self.effective_parallelism, self.workers, self.profile, self.git_rev
        )
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("reps > 0")
}

/// Two-spin-loop probe: one loop alone, then two at once on two threads.
fn effective_parallelism() -> f64 {
    const ITERS: u64 = 20_000_000;
    let solo = best_of(3, || {
        spin(ITERS);
    });
    let pair = best_of(3, || {
        std::thread::scope(|s| {
            let other = s.spawn(|| spin(ITERS));
            spin(ITERS);
            other.join().expect("spin loop cannot panic");
        });
    });
    2.0 * solo.as_secs_f64() / pair.as_secs_f64()
}

/// The commit the benchmark runs on, read from `.git` without spawning
/// anything; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU time this process has consumed so far, summed over its threads
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`). Unlike wall time it
/// excludes time the host gave to other tenants.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux) that outlives the call, and CLOCK_PROCESS_CPUTIME_ID is a
    // clock every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
