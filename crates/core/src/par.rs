//! A minimal scoped-thread parallel map (std only — the workspace is
//! deliberately dependency-free, so this is the in-tree stand-in for
//! rayon's `par_iter().map().collect()`).
//!
//! Work is handed out through one atomic index, results land in their
//! input slot, so the output order is **deterministic** — identical to
//! the serial `items.into_iter().map(f).collect()` — regardless of
//! thread count or scheduling. That property is what lets the bench
//! sweep runner and the robustness matrix parallelize without changing
//! a single byte of their output.
//!
//! Nested calls degrade to serial execution (a global in-flight counter)
//! so fan-out over tasks that themselves fan out cannot explode the
//! thread count. `DATASYNC_THREADS` caps or disables parallelism
//! (`DATASYNC_THREADS=1` forces serial — useful for baselines and
//! debugging). A request above the machine's available parallelism is
//! capped at it: the workers are pure CPU-bound simulation loops, so
//! oversubscription buys nothing and costs scheduler churn — on a
//! one-core host it made the "parallel" sweep measurably *slower* than
//! serial while still being reported as a multi-thread run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of [`par_map`] calls currently executing (nested calls run
/// serially instead of spawning threads-of-threads).
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Parses a `DATASYNC_THREADS` value. Errors on anything that is not a
/// positive integer — including `0`, which used to be silently promoted
/// to 1 and made "parallelism off" indistinguishable from a typo.
///
/// # Errors
///
/// Returns a human-readable message naming the bad value.
pub fn threads_from_env(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "DATASYNC_THREADS={raw:?} is invalid: use 1 to force serial execution, \
             or unset the variable for auto-detection"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "DATASYNC_THREADS={raw:?} is not a positive integer; \
             unset it or set a thread count like DATASYNC_THREADS=4"
        )),
    }
}

/// The machine's available hardware parallelism (always `>= 1`).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Caps a requested worker count at the hardware parallelism.
///
/// The workers are CPU-bound simulation loops; running more of them than
/// the machine has cores adds context-switch churn without adding
/// throughput. This is the pure core of [`default_threads`], split out so
/// the clamp is testable without mutating process environment.
#[must_use]
pub fn effective_threads(requested: usize, available: usize) -> usize {
    requested.min(available.max(1)).max(1)
}

/// The default worker count: `DATASYNC_THREADS` if set and valid (capped
/// at [`available_threads`]), else the available parallelism, else 1.
///
/// An invalid `DATASYNC_THREADS` (unparsable, or `0`) is **not**
/// silently ignored: a warning naming the bad value is printed to
/// stderr and auto-detection takes over, so a typo degrades loudly
/// instead of quietly running on the wrong thread count. A valid value
/// above the hardware parallelism is likewise clamped with a warning —
/// oversubscribed workers made a "4-thread" sweep on a one-core host
/// come out *slower* than serial while the report still claimed
/// `threads: 4`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("DATASYNC_THREADS") {
        match threads_from_env(&v) {
            Ok(n) => {
                let avail = available_threads();
                let eff = effective_threads(n, avail);
                if eff < n {
                    // Once per process: every par_map re-reads the
                    // default, and a sweep would otherwise repeat the
                    // warning hundreds of times.
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "warning: DATASYNC_THREADS={n} exceeds the {avail} available \
                             hardware thread(s); capping at {eff}"
                        );
                    });
                }
                return eff;
            }
            Err(msg) => eprintln!("warning: {msg}; falling back to auto-detection"),
        }
    }
    available_threads()
}

/// Maps `f` over `items` on up to [`default_threads`] scoped threads;
/// results keep input order. See [`par_map_threads`].
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_threads(default_threads(), items, f)
}

/// Maps `f` over `items` on up to `threads` scoped threads, returning
/// results in input order (bit-identical to the serial map). Runs
/// serially when `threads <= 1`, when there is at most one item, or when
/// called from inside another `par_map` (nested-parallelism guard).
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins every worker first).
pub fn par_map_threads<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 || IN_FLIGHT.load(Ordering::Relaxed) > 0 {
        return items.into_iter().map(f).collect();
    }
    IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
    // Each slot is locked exactly once by exactly one worker; the
    // mutexes only exist to hand owned items across the scope safely.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i].lock().expect("slot lock").take().expect("slot taken once");
                    let r = f(item);
                    *results[i].lock().expect("result lock") = Some(r);
                });
            }
        });
    }));
    IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    if let Err(p) = run {
        std::panic::resume_unwind(p);
    }
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that enter `par_map_threads`: the
    /// `IN_FLIGHT` guard is process-wide, so `panic_propagates` can only
    /// assert it is back to zero while no sibling test is inside a call.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn thread_env_parsing_is_strict() {
        assert_eq!(threads_from_env("1"), Ok(1));
        assert_eq!(threads_from_env(" 8 "), Ok(8));
        let zero = threads_from_env("0").unwrap_err();
        assert!(zero.contains("DATASYNC_THREADS"), "{zero}");
        assert!(zero.contains("serial"), "{zero}");
        for bad in ["", "four", "2.5", "-1", "1 2"] {
            let e = threads_from_env(bad).unwrap_err();
            assert!(e.contains("positive integer"), "{bad:?}: {e}");
        }
    }

    #[test]
    fn effective_threads_clamps_oversubscription() {
        // Request within the hardware budget: honored as-is.
        assert_eq!(effective_threads(2, 8), 2);
        assert_eq!(effective_threads(8, 8), 8);
        // Request above it: capped (the one-core CI host bug — a
        // requested 4 ran as 4 oversubscribed workers and lost to the
        // serial baseline).
        assert_eq!(effective_threads(4, 1), 1);
        assert_eq!(effective_threads(64, 8), 8);
        // Degenerate inputs never yield zero workers.
        assert_eq!(effective_threads(1, 0), 1);
        assert_eq!(effective_threads(0, 4), 1);
        // And default_threads always lands inside the hardware budget.
        assert!(default_threads() >= 1);
        assert!(default_threads() <= available_threads());
    }

    #[test]
    fn preserves_order_and_results() {
        let _serial = serial();
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 7] {
            let got = par_map_threads(threads, items.clone(), |x| x * x + 1);
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let _serial = serial();
        assert_eq!(par_map_threads(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map_threads(4, vec![9], |x: u32| x + 1), vec![10]);
    }

    #[test]
    fn nested_calls_run_serially() {
        let _serial = serial();
        let outer = par_map_threads(2, vec![1u64, 2, 3, 4], |x| {
            let inner = par_map_threads(2, vec![10u64, 20], move |y| y + x);
            inner.iter().sum::<u64>()
        });
        assert_eq!(outer, vec![32, 34, 36, 38]);
    }

    #[test]
    fn moves_non_clone_items() {
        let _serial = serial();
        let items: Vec<Box<u64>> = (0..16).map(Box::new).collect();
        let got = par_map_threads(3, items, |b| *b * 2);
        assert_eq!(got, (0..16).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn panic_propagates() {
        let _serial = serial();
        let r = std::panic::catch_unwind(|| {
            par_map_threads(2, vec![0u32, 1, 2, 3], |x| {
                assert_ne!(x, 2, "boom");
                x
            })
        });
        assert!(r.is_err());
        // The guard must be released despite the panic.
        assert_eq!(IN_FLIGHT.load(Ordering::Relaxed), 0);
        assert_eq!(par_map_threads(2, vec![1u32, 2], |x| x), vec![1, 2]);
    }
}
