//! Deterministic fork-join execution layer.
//!
//! Every compute hot path in the system (dense matmul, cosine scoring,
//! batched transformer inference, top-k retrieval) parallelizes through the
//! two scoped helpers here instead of hand-rolling `thread::scope` blocks:
//!
//! * [`par_row_chunks`] — split a row-major output buffer into contiguous
//!   row blocks and fill each block on its own worker;
//! * [`par_map_collect`] — map an index range to values, preserving index
//!   order in the returned `Vec`.
//!
//! **Determinism guarantee.** Each result is placed by its position, and
//! each item (an output row, a mapped index) is computed whole by one
//! worker: it sees exactly the same scalar operations in exactly the same
//! order regardless of the thread budget or of which worker claims it, so
//! results are bit-identical between `SDEA_THREADS=1` and `SDEA_THREADS=N`
//! (enforced by the `par_equivalence` test suites). The only thing the
//! budget changes is wall-clock time.
//!
//! **Thread budget.** A process-wide budget is resolved in priority order:
//! programmatic override ([`set_thread_budget`], wired to
//! `SdeaConfig::threads`), the `SDEA_THREADS` environment variable (capped
//! at `std::thread::available_parallelism()` — an env budget past the
//! hardware only buys spawn and context-switch overhead), then
//! `available_parallelism()` itself. Programmatic overrides are taken
//! literally so the equivalence suites can force real fan-outs on any
//! machine. Helpers additionally cap the fan-out by the amount of work
//! (`cost` hints), so small inputs never pay spawn overhead, and nested
//! parallel regions run serially instead of oversubscribing (a worker that
//! calls back into `par_*` executes inline).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Minimum work (in ~multiply-adds or elements touched) per spawned
/// worker; a helper stays serial below twice this. Measured on a 2-vCPU
/// x86-64-v3 VM: a two-worker `std::thread::scope` region costs 43–56 µs
/// (median about 49 µs), and the tiled matmul runs about 15G
/// multiply-adds/s per core (`results/BENCH_pr3_kernels.json`), so 2^20
/// multiply-adds (about 70 µs) is about the least share that outweighs
/// its spawn.
const MIN_COST_PER_THREAD: usize = 1 << 20;

/// Programmatic thread-budget override; 0 = unset (fall through to the
/// environment / hardware).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside worker closures so nested parallel regions stay serial.
    static IN_PARALLEL_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Regions this thread fanned out to more than one worker.
    static FANOUTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Strict parse: a malformed value (`SDEA_THREADS=banana`) used to be
        // silently ignored, leaving a server running on the default budget —
        // now it is a hard startup error. `0`, unset and blank mean "auto".
        match sdea_obs::env::parse_or_exit::<usize>(
            "SDEA_THREADS",
            "a non-negative integer worker count (0 = auto)",
        ) {
            // The env var expresses "use up to N": budgets past the hardware
            // would only buy spawn + context-switch overhead (measured ~25%
            // of a pipeline run on a 1-core container), so it is capped.
            // Programmatic overrides stay literal — the equivalence suites
            // use them to force real fan-outs regardless of the machine.
            Some(n) if n > 0 => n.min(hw),
            _ => 0,
        }
    })
}

/// The current process-wide thread budget: the [`set_thread_budget`]
/// override if set, else `SDEA_THREADS`, else the hardware parallelism.
/// Always at least 1; exactly 1 inside a parallel worker (nested regions
/// serialize instead of oversubscribing).
pub fn max_threads() -> usize {
    if IN_PARALLEL_REGION.with(|f| f.get()) {
        return 1;
    }
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    let e = env_threads();
    if e != 0 {
        return e;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Sets (n >= 1) or clears (n = 0) the process-wide thread budget override.
/// Takes precedence over `SDEA_THREADS`.
pub fn set_thread_budget(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Runs `f` under a temporary thread budget, restoring the previous
/// override afterwards. Calls are serialized on a global lock so
/// concurrent tests never observe each other's budget; safe to use from
/// `#[test]`s.
pub fn with_thread_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static GUARD: Mutex<()> = Mutex::new(());
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let prev = OVERRIDE.swap(n, Ordering::Relaxed);
    let out = f();
    OVERRIDE.store(prev, Ordering::Relaxed);
    out
}

/// Cached `sdea_obs` counters for the fork-join layer: total parallel-region
/// entries, entries that actually fanned out, and workers spawned. Handles
/// are pre-registered so the hot path pays one atomic add and no lock
/// (and only a relaxed load when observability is disabled).
fn obs_counters() -> &'static (sdea_obs::Counter, sdea_obs::Counter, sdea_obs::Counter) {
    static C: OnceLock<(sdea_obs::Counter, sdea_obs::Counter, sdea_obs::Counter)> = OnceLock::new();
    C.get_or_init(|| {
        (
            sdea_obs::counter("par.regions"),
            sdea_obs::counter("par.regions_parallel"),
            sdea_obs::counter("par.workers_spawned"),
        )
    })
}

/// Decides the fan-out for a task of `units` independent pieces whose total
/// cost is `total_cost`: 1 when the work wouldn't amortize a spawn, else at
/// most the budget and at most one thread per `MIN_COST_PER_THREAD` of work.
fn fanout(units: usize, total_cost: usize) -> usize {
    let budget = max_threads();
    let threads = if budget <= 1 || units <= 1 || total_cost < 2 * MIN_COST_PER_THREAD {
        1
    } else {
        budget.min(units).min((total_cost / MIN_COST_PER_THREAD).max(1))
    };
    let (regions, parallel, workers) = obs_counters();
    regions.add(1);
    if threads > 1 {
        parallel.add(1);
        workers.add(threads as u64);
        FANOUTS.with(|f| f.set(f.get() + 1));
    }
    threads
}

/// How many parallel regions the calling thread has fanned out to more
/// than one worker so far. The equivalence suites read it to prove that
/// their parallel runs did not fall under the serial cutoff (a case that
/// does would compare serial with serial).
pub fn fanouts_on_this_thread() -> u64 {
    FANOUTS.with(|f| f.get())
}

/// Fills the row-major buffer `out` (`rows` rows of `row_width` elements)
/// by calling `fill(first_row, block)` on contiguous row blocks, one block
/// per worker. `cost_per_row` is an order-of-magnitude estimate of the
/// scalar operations needed per row and controls the fan-out.
///
/// `fill` receives the index of its block's first row and the mutable
/// sub-slice covering the block's rows; blocks are disjoint, so no
/// synchronization is needed and the result is bit-identical to a serial
/// `fill(0, out)`.
pub fn par_row_chunks<F>(
    out: &mut [f32],
    rows: usize,
    row_width: usize,
    cost_per_row: usize,
    fill: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(out.len(), rows * row_width, "out buffer must be rows * row_width");
    let threads = fanout(rows, cost_per_row.saturating_mul(rows));
    if threads <= 1 || row_width == 0 {
        fill(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut row0 = 0usize;
        while row0 < rows {
            let take = chunk_rows.min(rows - row0);
            let (block, tail) = rest.split_at_mut(take * row_width);
            rest = tail;
            let first = row0;
            let fill = &fill;
            scope.spawn(move || {
                IN_PARALLEL_REGION.with(|f| f.set(true));
                fill(first, block);
            });
            row0 += take;
        }
    });
}

/// Maps `0..n` through `f` and collects the results in index order.
/// `cost_per_item` is an order-of-magnitude per-item work estimate
/// controlling the fan-out.
///
/// Workers claim indices one at a time from a shared counter, so items of
/// uneven cost (length-sorted encoder batches, say) balance across workers
/// instead of one worker drawing every cheap item of a contiguous range.
/// Each `f(i)` runs whole on one worker and lands at position `i`: output
/// is always `f(0), f(1), .., f(n-1)` regardless of the thread budget.
pub fn par_map_collect<R, F>(n: usize, cost_per_item: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = fanout(n, cost_per_item.saturating_mul(n));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (f, next) = (&f, &next);
                scope.spawn(move || {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("par_map_collect worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    // Every index in 0..n is claimed exactly once, so no slot is empty.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_resolution_order() {
        with_thread_budget(3, || assert_eq!(max_threads(), 3));
        // override cleared -> env or hardware, both >= 1
        assert!(max_threads() >= 1);
    }

    #[test]
    fn row_chunks_cover_every_row_once() {
        let rows = 117;
        let width = 13;
        let mut out = vec![0.0f32; rows * width];
        with_thread_budget(8, || {
            // huge cost estimate to force the threaded path
            par_row_chunks(&mut out, rows, width, 1 << 20, |row0, block| {
                for (r, row) in block.chunks_mut(width).enumerate() {
                    for v in row.iter_mut() {
                        *v += (row0 + r) as f32;
                    }
                }
            });
        });
        for r in 0..rows {
            assert!(out[r * width..(r + 1) * width].iter().all(|&v| v == r as f32), "row {r}");
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        for budget in [1, 2, 5, 16] {
            let got = with_thread_budget(budget, || par_map_collect(100, 1 << 20, |i| i * i));
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "budget {budget}");
        }
    }

    #[test]
    fn small_work_stays_serial() {
        // cost below the spawn threshold: must not panic and must be exact
        let mut out = vec![0.0f32; 8];
        par_row_chunks(&mut out, 4, 2, 1, |row0, block| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = (row0 * 2 + i) as f32;
            }
        });
        assert_eq!(out, (0..8).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn nested_regions_serialize() {
        let nested_budgets =
            with_thread_budget(8, || par_map_collect(4, 1 << 20, |_| max_threads()));
        assert_eq!(nested_budgets, vec![1; 4], "workers must see a budget of 1");
    }

    #[test]
    fn zero_rows_and_zero_width_are_safe() {
        let mut empty: Vec<f32> = Vec::new();
        par_row_chunks(&mut empty, 0, 5, 100, |_, _| {});
        par_row_chunks(&mut empty, 5, 0, 100, |_, block| assert!(block.is_empty()));
        assert!(par_map_collect(0, 100, |i| i).is_empty());
    }
}
