//! Block-range work-stealing pool that returns results in item order.
//!
//! Every experiment in [`crate::experiments`] is an embarrassingly
//! parallel grid — benchmark × mode × interconnect × memory model ×
//! unit mix — of independent compile/simulate/validate pipelines, but
//! the cells are wildly uneven: an LUD run under Mem2 costs orders of
//! magnitude more than a tiny Matrix run. Fixed chunking lets a worker
//! that drew the long cells finish last while the rest idle; one shared
//! claim counter interleaves neighbouring cells across workers, so they
//! wait on each other's compiles of the same program. This pool keeps
//! neighbours together: each worker owns a **contiguous block** of the
//! grid and walks it from the front; a worker whose block is empty
//! **steals one item from the back** of the first victim with work. An
//! owner and a thief meet only when a block is nearly drained.
//!
//! Results come back **in item order**: the pool holds a result
//! that finished ahead of an earlier item until that item is delivered,
//! so [`par_map`], the sweep engine's JSONL writer and every experiment
//! table see the serial order whatever the workers did, and the first
//! panic a caller is handed is the lowest-indexed one. (rayon/crossbeam
//! are unavailable offline; each worker's block is a mutex-guarded
//! `Range`, and each lock guards an index bump, never a simulation.)

use pc_metrics::{Gauge, Lanes};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Live pool metrics, shared with a [`crate::sweep::SweepTelemetry`]
/// registry. All handles are lock-free; workers write their own lanes
/// only, so a monitor thread can read concurrently.
///
/// Conservation contract: every executed item is counted in exactly one
/// of `pops` (taken from the front of the worker's own block) or
/// `steals` (taken from the back of a victim's), so
/// `pops.total() + steals.total()` equals the number of items executed.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Items taken from the worker's own block, per worker.
    pub pops: Arc<Lanes>,
    /// Items stolen from a victim's block, per worker.
    pub steals: Arc<Lanes>,
    /// Host nanoseconds inside the work closure, per worker.
    pub busy_ns: Arc<Lanes>,
    /// Host lifetime of each worker thread, recorded once at exit.
    pub wall_ns: Arc<Lanes>,
    /// Results currently held back because an earlier item is still in
    /// flight.
    pub reorder_depth: Arc<Gauge>,
    /// High-water mark of `reorder_depth`.
    pub reorder_depth_peak: Arc<Gauge>,
}

/// Number of worker threads to use by default: the host's available
/// parallelism, or 1 if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over every item on up to `jobs` workers, delivering
/// `(item index, result)` pairs to `sink` **on the caller's thread in
/// ascending item order**, each as soon as it and every earlier item
/// have finished. Worker panics are caught and delivered in order as
/// `Err` payloads; the caller decides how to re-raise. `jobs <= 1` runs
/// inline with no spawning, no buffering and no panic catching — a
/// serial panic propagates exactly as the plain loop would.
///
/// This is the streaming primitive under [`par_map`] and the sweep
/// engine's JSONL writer.
pub(crate) fn run_pool<I, O, F>(
    items: &[I],
    jobs: usize,
    f: F,
    mut sink: impl FnMut(usize, std::thread::Result<O>),
    metrics: Option<&PoolMetrics>,
) where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        let t_start = metrics.map(|_| Instant::now());
        for (i, item) in items.iter().enumerate() {
            if let Some(m) = metrics {
                m.pops.add(0, 1);
                let t0 = Instant::now();
                let out = f(item);
                m.busy_ns.add(0, t0.elapsed().as_nanos() as u64);
                sink(i, Ok(out));
            } else {
                sink(i, Ok(f(item)));
            }
        }
        if let (Some(m), Some(t)) = (metrics, t_start) {
            m.wall_ns.add(0, t.elapsed().as_nanos() as u64);
        }
        return;
    }
    // Each worker owns a contiguous block of the grid.
    let blocks: Vec<Mutex<Range<usize>>> = (0..jobs)
        .map(|w| Mutex::new(w * items.len() / jobs..(w + 1) * items.len() / jobs))
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<O>)>();
    std::thread::scope(|s| {
        for w in 0..jobs {
            let tx = tx.clone();
            let blocks = &blocks;
            let f = &f;
            s.spawn(move || {
                let t_spawn = metrics.map(|_| Instant::now());
                loop {
                    let own = blocks[w].lock().expect("block lock").next();
                    let (i, taken) = match own {
                        Some(i) => (i, metrics.map(|m| &m.pops)),
                        None => {
                            // Own block dry: steal one item off the back of
                            // the first victim with work, scanning round-robin
                            // from our right-hand neighbour. Blocks only
                            // shrink, so an all-empty scan means the grid is
                            // fully claimed and we can retire.
                            let Some(i) = (1..jobs).find_map(|v| {
                                blocks[(w + v) % jobs]
                                    .lock()
                                    .expect("block lock")
                                    .next_back()
                            }) else {
                                break;
                            };
                            (i, metrics.map(|m| &m.steals))
                        }
                    };
                    if let Some(lanes) = taken {
                        lanes.add(w, 1);
                    }
                    let item = &items[i];
                    // A panicking item must not tear down the scope with a
                    // payload-less "scoped thread panicked": the payload is
                    // caught and shipped to the caller's thread in order.
                    let t0 = metrics.map(|_| Instant::now());
                    let out = catch_unwind(AssertUnwindSafe(|| f(item)));
                    if let (Some(m), Some(t)) = (metrics, t0) {
                        m.busy_ns.add(w, t.elapsed().as_nanos() as u64);
                    }
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                }
                if let (Some(m), Some(t)) = (metrics, t_spawn) {
                    m.wall_ns.add(w, t.elapsed().as_nanos() as u64);
                }
            });
        }
        drop(tx);
        // Results that finished ahead of an earlier item wait here.
        let mut waiting = BTreeMap::new();
        let mut next = 0;
        for (i, out) in rx {
            waiting.insert(i, out);
            while let Some(out) = waiting.remove(&next) {
                sink(next, out);
                next += 1;
            }
            if let Some(m) = metrics {
                m.reorder_depth.set(waiting.len() as u64);
                m.reorder_depth_peak.set_max(waiting.len() as u64);
            }
        }
    });
}

/// Applies `f` to every item on up to `jobs` worker threads of the
/// block-stealing pool, returning the results **in item order** (the
/// scheduling of workers never leaks into the output). `jobs <= 1`
/// runs inline on the caller's thread with no spawning at all.
///
/// # Panics
/// Re-raises the panic of the **lowest-indexed** panicking item — with
/// its original payload — after all workers finish, mirroring
/// [`try_par_map`]'s deterministic error choice. Other items still run
/// to completion (no cancellation).
pub fn par_map<I, O, F>(items: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let mut panic = None;
    run_pool(
        items,
        jobs,
        f,
        |_, result| match result {
            Ok(v) => out.push(v),
            Err(payload) => {
                panic.get_or_insert(payload);
            }
        },
        None,
    );
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    out
}

/// [`par_map`] for fallible work: collects `Ok` results in item order,
/// or returns the error of the **lowest-indexed** failing item — not the
/// first to fail on the wall clock — so error reporting is deterministic
/// too. Later items still run to completion (no cancellation), keeping
/// behaviour identical to the serial `?`-free sweep of the same grid.
///
/// # Errors
/// The error of the lowest-indexed item whose `f` returned `Err`.
pub fn try_par_map<I, O, E, F>(items: &[I], jobs: usize, f: F) -> Result<Vec<O>, E>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(&I) -> Result<O, E> + Sync,
{
    par_map(items, jobs, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        // Make late items finish first to stress the reordering.
        let out = par_map(&items, 8, |&x| {
            std::thread::sleep(std::time::Duration::from_micros(64 - x));
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u32> = (0..100).collect();
        let serial = par_map(&items, 1, |&x| x.wrapping_mul(2654435761));
        let parallel = par_map(&items, 7, |&x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u8> = vec![];
        assert_eq!(par_map(&none, 4, |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_behaves_like_one() {
        assert_eq!(par_map(&[1, 2, 3], 0, |&x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map(&items, 64, |&x| x + 1), vec![1, 2, 3]);
    }

    #[test]
    fn stealing_rebalances_an_unbalanced_block() {
        // One long item at the front of worker 0's block; with block
        // seeding and no stealing, worker 0 would also run the rest of
        // its block afterwards. Stealing lets the other workers drain
        // it, so total wall-clock stays near the long pole. Ordering
        // must hold regardless.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(&items, 4, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 100
        });
        assert_eq!(out, (100..132).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_reports_lowest_indexed_error() {
        let items: Vec<u32> = (0..32).collect();
        // Items 5 and 20 both fail; 5 must win regardless of timing.
        let err = try_par_map(&items, 8, |&x| {
            if x == 5 || x == 20 {
                // Let the higher-indexed failure race ahead.
                if x == 5 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(x)
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err, 5);
    }

    #[test]
    fn try_par_map_ok_keeps_order() {
        let items: Vec<u32> = (0..16).collect();
        let out: Vec<u32> = try_par_map(&items, 4, |&x| Ok::<_, ()>(x + 1)).unwrap();
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn run_pool_streams_every_result_exactly_once() {
        let items: Vec<u32> = (0..50).collect();
        let mut seen = vec![0u32; items.len()];
        run_pool(
            &items,
            6,
            |&x| x * 3,
            |i, out| {
                seen[i] += 1;
                assert_eq!(out.unwrap(), items[i] * 3);
            },
            None,
        );
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn run_pool_delivers_in_ascending_item_order() {
        // Item 0 waits until every other item has started, so at least
        // 60 later results (all but one in flight per other worker) are
        // handed to the pool before it. The sink must still see 0, 1, 2,
        // ... and those results must have waited.
        let items: Vec<u64> = (0..64).collect();
        let (started, starts) = mpsc::channel();
        let starts = Mutex::new(starts);
        let m = test_metrics(4);
        let mut seen = Vec::new();
        run_pool(
            &items,
            4,
            |&x| {
                if x == 0 {
                    let starts = starts.lock().expect("start lock");
                    for _ in 1..items.len() {
                        starts.recv().expect("every other item starts");
                    }
                } else {
                    started.send(()).expect("item 0 is listening");
                }
                x
            },
            |i, out| {
                assert_eq!(out.unwrap(), items[i]);
                seen.push(i);
            },
            Some(&m),
        );
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
        assert_eq!(m.reorder_depth.get(), 0, "nothing waits once drained");
        assert!(
            m.reorder_depth_peak.get() >= 60,
            "{}",
            m.reorder_depth_peak.get()
        );
    }

    fn test_metrics(jobs: usize) -> PoolMetrics {
        let r = pc_metrics::Registry::new();
        PoolMetrics {
            pops: r.lanes("pops", "", jobs),
            steals: r.lanes("steals", "", jobs),
            busy_ns: r.lanes("busy", "", jobs),
            wall_ns: r.lanes("wall", "", jobs),
            reorder_depth: r.gauge("depth", ""),
            reorder_depth_peak: r.gauge("peak", ""),
        }
    }

    #[test]
    fn metrics_conserve_pops_plus_steals_under_stealing() {
        // An unbalanced grid forces steals; however the OS schedules the
        // workers, every item is counted exactly once as a pop or a
        // steal, and busy time never exceeds the worker's wall time.
        let items: Vec<u64> = (0..48).collect();
        let jobs = 4;
        let m = test_metrics(jobs);
        let mut delivered = 0usize;
        run_pool(
            &items,
            jobs,
            |&x| {
                if x % 12 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                x
            },
            |_, out| {
                out.unwrap();
                delivered += 1;
            },
            Some(&m),
        );
        assert_eq!(delivered, items.len());
        assert_eq!(
            m.pops.total() + m.steals.total(),
            items.len() as u64,
            "pops {:?} steals {:?}",
            m.pops.per_lane(),
            m.steals.per_lane(),
        );
        for (b, w) in m.busy_ns.per_lane().iter().zip(m.wall_ns.per_lane()) {
            assert!(*b <= w, "busy {b} > wall {w}");
        }
    }

    #[test]
    fn metrics_serial_path_counts_everything_as_pops() {
        let items: Vec<u32> = (0..9).collect();
        let m = test_metrics(1);
        run_pool(&items, 1, |&x| x, |_, _| {}, Some(&m));
        assert_eq!(m.pops.total(), 9);
        assert_eq!(m.steals.total(), 0);
        assert!(m.busy_ns.get(0) <= m.wall_ns.get(0));
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..32).collect();
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |&x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("formatted payload");
        assert_eq!(msg, "boom at 13");
        // No cancellation: every other item still ran.
        assert_eq!(survivors.load(Ordering::Relaxed), items.len() - 1);
    }

    #[test]
    fn panic_choice_is_the_lowest_indexed_item() {
        let items: Vec<u32> = (0..32).collect();
        // Items 5 and 20 both panic; 5 must win even when 20 finishes
        // first on the wall clock.
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 8, |&x| {
                if x == 5 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    panic!("low");
                }
                if x == 20 {
                    panic!("high");
                }
                x
            })
        }));
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"low"));
    }

    #[test]
    fn try_par_map_survivors_keep_input_order_alongside_a_panic() {
        // A panic in one item and errors in others must not disturb the
        // deterministic Ok ordering of an unaffected run of the same
        // shape (the grid sweeps rely on this for bit-identical output).
        let items: Vec<u32> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            try_par_map(&items, 4, |&x| {
                if x == 9 {
                    panic!("nine");
                }
                Ok::<_, ()>(x)
            })
        }));
        assert_eq!(result.unwrap_err().downcast_ref::<&str>(), Some(&"nine"));
        let clean: Vec<u32> = try_par_map(&items, 4, |&x| Ok::<_, ()>(x)).unwrap();
        assert_eq!(clean, items);
    }
}
