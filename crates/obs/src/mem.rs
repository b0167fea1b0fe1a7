//! Memory accounting: a counting global allocator plus Linux peak-RSS.
//!
//! Past toy scale, "did it fit in RAM" is as much a result as wall time —
//! blocked evaluation exists precisely to bound the working set, and a
//! claim like "blocked peak < 50% of the materialized path" needs a
//! measurement, not an estimate. This module provides two complementary
//! ones:
//!
//! * **Allocator counters.** [`CountingAlloc`] wraps the [`System`]
//!   allocator and keeps four relaxed atomics: bytes ever allocated,
//!   live bytes, the high-water mark of live bytes, and the allocation
//!   count. [`reset_peak`] rebases the high-water mark to the current
//!   live size, so a benchmark can measure the peak of *one phase* in
//!   isolation — something process-wide RSS can never give (RSS only
//!   grows). Counting costs a handful of relaxed atomic ops per
//!   allocation and can be switched off with `SDEA_MEM=0` (strict
//!   spelling, like `SDEA_OBS`); the switch is consulted lazily from the
//!   reporting paths, **never** inside the allocator itself — reading an
//!   environment variable allocates, and an allocator that allocates
//!   recurses.
//! * **Kernel truth.** [`vm_hwm_bytes`] samples `VmHWM` from
//!   `/proc/self/status` — the kernel's peak-resident-set figure,
//!   covering everything the counters cannot see (thread stacks, code
//!   pages, allocator slack). `None` off Linux or when the read fails.
//!
//! Like the rest of `sdea-obs`, nothing here feeds back into any
//! computation: the counters measure, they never steer. Peaks observed
//! under concurrent allocation are accurate to the interleaving of the
//! add and max operations — exact when one thread allocates at a time,
//! and a tight lower bound elsewhere.

// lint: the GlobalAlloc impl below is the workspace's one sanctioned use
// of `unsafe` — a counting pass-through to the System allocator. The obs
// crate root carries #![deny(unsafe_code)] (see lib.rs) so everything
// outside this module still rejects unsafe at compile time.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Whether allocations are being counted. Defaults to on; `SDEA_MEM=0`
/// (applied lazily, see module docs) or [`set_counting`] turn it off.
static COUNTING: AtomicBool = AtomicBool::new(true);
/// Bytes ever handed out (never decremented).
static TOTAL: AtomicU64 = AtomicU64::new(0);
/// Number of allocations ever made (never decremented).
static COUNT: AtomicU64 = AtomicU64::new(0);
/// Live bytes right now. Signed: toggling counting mid-run can make a
/// dealloc observe bytes whose alloc was never counted.
static CURRENT: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`CURRENT`] since process start or [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The counting allocator installed as `#[global_allocator]` for every
/// binary in the workspace (all of them link `sdea-obs`).
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn on_alloc(size: usize) {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        TOTAL.fetch_add(size as u64, Ordering::Relaxed);
        COUNT.fetch_add(1, Ordering::Relaxed);
        let live = CURRENT.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(size: usize) {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        CURRENT.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Applies the `SDEA_MEM` kill-switch exactly once, from a reporting path
/// (never from the allocator — see module docs). Malformed values abort
/// with exit code 2, the workspace's strict-env policy.
fn apply_env() {
    static APPLIED: OnceLock<()> = OnceLock::new();
    APPLIED.get_or_init(|| {
        if let Some(on) = crate::env::bool_or_exit("SDEA_MEM") {
            COUNTING.store(on, Ordering::Relaxed);
        }
    });
}

/// Whether the allocator counters are live.
pub fn counting_enabled() -> bool {
    apply_env();
    COUNTING.load(Ordering::Relaxed)
}

/// Turns allocation counting on or off at runtime (overrides `SDEA_MEM`).
pub fn set_counting(on: bool) {
    apply_env();
    COUNTING.store(on, Ordering::Relaxed);
}

/// Live heap bytes right now, as counted by the allocator.
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed).max(0) as u64
}

/// High-water mark of live heap bytes since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Total bytes ever allocated (monotonic; deallocation never lowers it).
pub fn total_allocated_bytes() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Number of heap allocations ever made (monotonic).
pub fn allocation_count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Rebases the peak to the current live size, so the next [`peak_bytes`]
/// reading reflects only allocations made after this call — the primitive
/// behind per-phase peak measurement in `bench_scale`.
pub fn reset_peak() {
    apply_env();
    PEAK.store(CURRENT.load(Ordering::Relaxed).max(0), Ordering::Relaxed);
}

/// One coherent snapshot of every memory figure this module tracks.
#[derive(Clone, Copy, Debug)]
pub struct MemStats {
    /// Whether the allocator counters were live when sampled.
    pub counting: bool,
    /// Bytes ever allocated.
    pub total_allocated_bytes: u64,
    /// Live heap bytes.
    pub current_bytes: u64,
    /// High-water mark of live heap bytes.
    pub peak_bytes: u64,
    /// Number of allocations ever made.
    pub allocations: u64,
    /// Kernel peak RSS (`VmHWM`), when available.
    pub vm_hwm_bytes: Option<u64>,
}

/// Samples all counters plus the kernel's `VmHWM`.
pub fn stats() -> MemStats {
    MemStats {
        counting: counting_enabled(),
        total_allocated_bytes: total_allocated_bytes(),
        current_bytes: current_bytes(),
        peak_bytes: peak_bytes(),
        allocations: allocation_count(),
        vm_hwm_bytes: vm_hwm_bytes(),
    }
}

/// The process's peak resident set size in bytes, from the `VmHWM` line of
/// `/proc/self/status`. `None` when the file or the line is unavailable
/// (non-Linux platforms) — callers report it as absent, never fail.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parses `VmHWM:   123456 kB` out of a `/proc/<pid>/status` document.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters and the counting flag are process globals; tests that
    /// toggle or assert on them must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_observe_a_large_allocation() {
        let _g = lock();
        set_counting(true);
        let before_total = total_allocated_bytes();
        let before_count = allocation_count();
        const N: usize = 1 << 20;
        let v = std::hint::black_box(vec![7u8; N]);
        assert!(
            total_allocated_bytes() >= before_total + N as u64,
            "1 MiB allocation missing from the total counter"
        );
        assert!(allocation_count() > before_count);
        assert!(current_bytes() >= N as u64);
        assert!(peak_bytes() >= current_bytes());
        drop(v);
    }

    #[test]
    fn reset_peak_rebases_to_current() {
        let _g = lock();
        set_counting(true);
        {
            let _big = std::hint::black_box(vec![1u8; 1 << 21]);
        }
        let spike = peak_bytes();
        assert!(spike >= 1 << 21, "the 2 MiB spike must register in the peak");
        reset_peak();
        assert!(peak_bytes() < spike, "reset must shed the dropped spike");
        let small = std::hint::black_box(vec![2u8; 1 << 10]);
        assert!(peak_bytes() >= current_bytes().min(1 << 10));
        drop(small);
    }

    #[test]
    fn disabled_counting_freezes_the_counters() {
        let _g = lock();
        set_counting(false);
        let before = total_allocated_bytes();
        let v = std::hint::black_box(vec![3u8; 1 << 16]);
        assert_eq!(total_allocated_bytes(), before, "64 KiB counted while disabled");
        drop(v);
        set_counting(true);
    }

    #[test]
    fn parse_vm_hwm_reads_the_kb_line() {
        let status = "Name:\tsdea\nVmPeak:\t  999 kB\nVmHWM:\t   2048 kB\nThreads:\t8\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tsdea\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn vm_hwm_is_available_on_linux() {
        let hwm = vm_hwm_bytes().expect("VmHWM readable on Linux");
        assert!(hwm > 0);
    }

    #[test]
    fn stats_snapshot_is_coherent() {
        set_counting(true);
        let s = stats();
        assert!(s.total_allocated_bytes > 0);
        assert!(s.peak_bytes >= 1);
    }
}
