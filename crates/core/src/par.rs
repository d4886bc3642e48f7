//! Scoped worker-pool fan-out for pure per-item work.
//!
//! The simulator's hot paths — offline training sweeps and the per-round
//! detection work of [`crate::simulation::Simulation::run`] — are
//! embarrassingly parallel: each item's result depends only on that item.
//! [`par_map_indexed`] fans such work over a small pool of scoped threads
//! (vendored `crossbeam::thread::scope`), collects into index-addressed
//! slots, and returns results in input order. Training and test-set
//! evaluation consume them in exactly the sequence a serial loop would
//! have produced. A mission's rounds use the pool only to fill keyed
//! detection slots, which the serial replay then reads by (camera,
//! frame, algorithm), so their order does not matter there at all.
//! Determinism of the overall simulation only requires that `f` itself
//! is pure.

/// How many worker threads a pool request resolves to: `workers == 0`
/// means "auto" (the host's available parallelism), and the pool is never
/// larger than the number of items.
pub fn resolve_workers(workers: usize, items: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let requested = if workers == 0 { auto } else { workers };
    requested.min(items.max(1))
}

/// Applies `f` to every index in `0..n` on a pool of `workers` scoped
/// threads (`0` = auto) and returns the results in index order.
///
/// This is [`par_map_streamed`] with a sink that fills index-addressed
/// slots: work is claimed dynamically, so slow items do not stall the
/// pool, and with one worker (or one item) the loop runs inline with no
/// threads spawned, making the serial path literally serial.
pub fn par_map_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    par_map_streamed(n, workers, f, |i, v| {
        slots[i] = Some(v);
        true
    });
    slots
        .into_iter()
        .map(|o| o.expect("every index processed"))
        .collect()
}

/// [`par_map_indexed`] over the elements of `items`, each task with
/// exclusive access to its own element: `f(i, &mut items[i])`. The
/// elements stay where the caller allocated them — a worker writes into
/// a buffer but never allocates or frees it, so the memory stays in the
/// calling thread's allocator arena.
pub fn par_map_mut<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let cells: Vec<std::sync::Mutex<&mut T>> =
        items.iter_mut().map(std::sync::Mutex::new).collect();
    par_map_indexed(cells.len(), workers, |i| {
        f(i, &mut cells[i].lock().expect("element lock"))
    })
}

/// Applies `f` to every index in `0..n` on a pool of `workers` scoped
/// threads (`0` = auto) and streams each result to `sink` **on the calling
/// thread**, in completion order.
///
/// This is the nested-pool primitive behind the scenario-sweep engine:
/// the outer pool claims whole jobs dynamically, each job may itself fan
/// out via [`par_map_indexed`] (scoped threads nest freely), and the sink
/// — which appends to a manifest file — runs serially without any locking
/// discipline on the caller's side.
///
/// `sink` returns `true` to keep going; returning `false` stops the pool
/// from claiming further indices (an orderly abort: items already in
/// flight are finished and discarded, and `sink` is not called again).
/// With one worker (or one item) everything runs inline on the calling
/// thread and the early-stop is exact: no extra `f` call is made.
pub fn par_map_streamed<T, F, S>(n: usize, workers: usize, f: F, mut sink: S)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    S: FnMut(usize, T) -> bool,
{
    let workers = resolve_workers(workers, n);
    if workers <= 1 || n <= 1 {
        for i in 0..n {
            if !sink(i, f(i)) {
                return;
            }
        }
        return;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, stop, f) = (&next, &stop, &f);
            s.spawn(move |_| loop {
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                if tx.send((i, v)).is_err() {
                    break;
                }
            });
        }
        // The workers hold the remaining senders; once each exits, the
        // channel closes and the drain loop below ends.
        drop(tx);
        let mut draining = false;
        for (i, v) in rx {
            if draining {
                continue; // in-flight stragglers after an abort
            }
            if !sink(i, v) {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                draining = true;
            }
        }
    })
    .expect("pool workers do not panic");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = par_map_indexed(100, 0, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = par_map_indexed(37, 1, |i| (i, i * i));
        let parallel = par_map_indexed(37, 8, |i| (i, i * i));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn map_mut_writes_each_element_in_place() {
        for workers in [0, 1, 2, 3] {
            let mut items: Vec<Vec<usize>> = (0..9).map(|i| vec![0; i]).collect();
            let ptrs: Vec<*const usize> = items.iter().map(|v| v.as_ptr()).collect();
            let lens = par_map_mut(&mut items, workers, |i, v| {
                v.iter_mut().for_each(|x| *x = i);
                v.len()
            });
            assert_eq!(lens, (0..9).collect::<Vec<_>>());
            for (i, v) in items.iter().enumerate() {
                assert!(v.iter().all(|&x| x == i));
                assert_eq!(v.as_ptr(), ptrs[i], "no element was reallocated");
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = par_map_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn streamed_covers_every_index_exactly_once() {
        for workers in [1, 2, 8] {
            let mut seen = vec![0usize; 50];
            par_map_streamed(
                50,
                workers,
                |i| i * 2,
                |i, v| {
                    assert_eq!(v, i * 2);
                    seen[i] += 1;
                    true
                },
            );
            assert!(seen.iter().all(|&c| c == 1), "workers={workers}");
        }
    }

    #[test]
    fn streamed_early_stop_claims_no_more_after_false() {
        // Serial path: the stop is exact.
        let mut got = Vec::new();
        par_map_streamed(
            100,
            1,
            |i| i,
            |i, _| {
                got.push(i);
                got.len() < 3
            },
        );
        assert_eq!(got, vec![0, 1, 2]);

        // Parallel path: the sink never fires again after returning false
        // (how many items the workers still *compute* before observing the
        // stop flag is scheduling-dependent; the delivery contract is not).
        let mut delivered = 0usize;
        par_map_streamed(
            10_000,
            4,
            |i| i,
            |_, _| {
                delivered += 1;
                delivered < 5
            },
        );
        assert_eq!(delivered, 5);
    }

    #[test]
    fn streamed_empty_input_is_fine() {
        par_map_streamed(0, 4, |i| i, |_, _| panic!("no items, no sink calls"));
    }

    #[test]
    fn resolve_workers_bounds() {
        assert_eq!(resolve_workers(3, 100), 3);
        assert_eq!(resolve_workers(8, 2), 2);
        assert!(resolve_workers(0, 100) >= 1);
        assert_eq!(resolve_workers(0, 0), 1);
    }
}
