//! Deterministic scoped-thread parallelism for per-client work.
//!
//! A shared session holds one isolated delivery state per client
//! (buffer, scaler, video streams), so translating and compressing
//! updates for different clients never touches shared mutable state.
//! [`for_each_mut`] exploits that: it runs a closure over every item
//! of a slice on `std::thread::scope` workers, each worker owning a
//! contiguous chunk.
//!
//! **What belongs on the workers.** A round of scoped threads costs
//! its spawns and joins — about 110 µs for two workers where it was
//! measured (`docs/PERFORMANCE.md`, "Flush once per class") — so the
//! session hands the pool only work that is heavier than that per
//! item: rendering a scale class, and the flush of a viewer that
//! clips, hashes and compresses (the leader of a class's flush plan,
//! or a viewer that has diverged from its class). A viewer in step
//! with its class does bookkeeping — pops, ledger, pipe, counters, a
//! few microseconds — and runs inline on the caller's thread, as do
//! queue pushes; spread over threads that work measured *slower* than
//! on one. [`contain`] gives inline work the same per-item panic
//! containment the pool has.
//!
//! **Determinism guarantee:** the closure runs exactly once per item
//! and sees only that item (plus shared read-only captures), so the
//! final state of the slice is identical for every worker count —
//! including `workers == 1`, which runs inline with no threads at
//! all. Callers that collect outputs merge them by slice index, never
//! by completion order.

/// Runs `f(index, item)` for every item of `items`, splitting the
/// slice across at most `workers` scoped threads.
///
/// Items are processed exactly once; `index` is the item's position
/// in `items`. With `workers <= 1` (or a single item) everything runs
/// inline on the caller's thread. Panics in `f` propagate.
///
/// The caller waits for its workers and takes no chunk itself: a
/// variant that spawned `workers − 1` and ran the last chunk on the
/// calling thread measured no different end to end
/// (`docs/PERFORMANCE.md`, "Flush once per class").
///
/// ```
/// let mut totals = [1u64, 2, 3, 4, 5];
/// thinc_core::parallel::for_each_mut(&mut totals, 3, |i, t| *t += i as u64 * 10);
/// assert_eq!(totals, [1, 12, 23, 34, 45]);
/// ```
pub fn for_each_mut<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, part) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (j, item) in part.iter_mut().enumerate() {
                    f(ci * chunk + j, item);
                }
            });
        }
    });
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` on the caller's thread, containing a panic: `Err` holds
/// the panic's message. Whatever `f` was mutating when it panicked is
/// in an unspecified state — the caller must set it aside, as
/// [`try_for_each_mut`] documents for its items.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

/// Runs `f(index, item)` for every item like [`for_each_mut`], but
/// contains panics per item instead of propagating them.
///
/// Returns one slot per item: `None` when `f` completed, or
/// `Some(message)` holding the panic payload when it did not. A panic
/// in item `i` never disturbs any other item — the same worker simply
/// moves on to the rest of its chunk — and the slice itself survives,
/// so the caller can quarantine the poisoned item and keep serving
/// the others. An item that panicked may have been mutated partway;
/// callers must treat its state as unspecified.
///
/// ```
/// let mut totals = [1u64, 2, 3];
/// let caught = thinc_core::parallel::try_for_each_mut(&mut totals, 2, |i, t| {
///     if i == 1 {
///         panic!("poisoned");
///     }
///     *t += 10;
/// });
/// assert_eq!(totals, [11, 2, 13]);
/// assert_eq!(caught[1].as_deref(), Some("poisoned"));
/// ```
pub fn try_for_each_mut<T, F>(items: &mut [T], workers: usize, f: F) -> Vec<Option<String>>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let mut caught: Vec<Option<String>> = (0..n).map(|_| None).collect();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            caught[i] = contain(|| f(i, item)).err();
        }
        return caught;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for ((ci, part), outs) in items
            .chunks_mut(chunk)
            .enumerate()
            .zip(caught.chunks_mut(chunk))
        {
            let f = &f;
            scope.spawn(move || {
                for ((j, item), out) in part.iter_mut().enumerate().zip(outs.iter_mut()) {
                    *out = contain(|| f(ci * chunk + j, item)).err();
                }
            });
        }
    });
    caught
}

/// Test support: runs `f` with the default panic hook silenced, so
/// deliberate contained panics don't spam stderr. Hook swaps are
/// process-global, so a lock serializes the tests that use this.
#[cfg(test)]
pub(crate) fn silence_panics<R>(f: impl FnOnce() -> R) -> R {
    use std::sync::Mutex;
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_item_exactly_once_with_correct_index() {
        for workers in [0, 1, 2, 3, 7, 64] {
            let mut items: Vec<u64> = vec![0; 13];
            for_each_mut(&mut items, workers, |i, v| *v += i as u64 + 1);
            let expect: Vec<u64> = (1..=13).collect();
            assert_eq!(items, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_slice_is_a_no_op() {
        let mut items: Vec<u64> = Vec::new();
        for_each_mut(&mut items, 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn try_for_each_contains_panics_per_item() {
        silence_panics(|| {
            for workers in [1, 2, 4, 16] {
                let mut items: Vec<u64> = (0..9).collect();
                let caught = try_for_each_mut(&mut items, workers, |i, v| {
                    if i % 4 == 2 {
                        panic!("poisoned item {i}");
                    }
                    *v += 100;
                });
                for (i, (v, c)) in items.iter().zip(&caught).enumerate() {
                    if i % 4 == 2 {
                        assert_eq!(c.as_deref(), Some(format!("poisoned item {i}").as_str()));
                        assert_eq!(*v, i as u64, "poisoned item untouched, workers={workers}");
                    } else {
                        assert!(c.is_none(), "item {i} must not be flagged");
                        assert_eq!(*v, i as u64 + 100, "workers={workers}");
                    }
                }
            }
        });
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // A stateful per-item computation whose result would expose
        // any cross-item interference or reordering.
        let run = |workers: usize| {
            let mut items: Vec<Vec<u64>> = (0..17).map(|i| vec![i]).collect();
            for_each_mut(&mut items, workers, |i, v| {
                for k in 0..50 {
                    let prev = *v.last().unwrap();
                    v.push(prev.wrapping_mul(6364136223846793005).wrapping_add(i as u64 + k));
                }
            });
            items
        };
        let serial = run(1);
        for workers in [2, 4, 16] {
            assert_eq!(run(workers), serial, "workers={workers}");
        }
    }
}
