//! A persistent worker pool for per-tick phases.
//!
//! Both orchestration mechanisms of Ch. 4 keep their worker threads
//! alive across time steps — H-Dispatch explicitly selects "as many
//! worker threads as cores … always active" (§4.3.5), and the CCR
//! dispatcher underneath the classic Scatter-Gather likewise persists.
//! Spawning OS threads per tick would swamp both mechanisms with setup
//! cost, so [`PhasePool`] parks a fixed set of workers between phases
//! and wakes them with a generation counter.
//!
//! A *phase* is a bag of `units` independent work items; workers (and
//! the calling thread) pull unit indices from a shared atomic cursor —
//! the paper's "Pull mechanism that makes worker threads request work
//! from a global queue" — and the call returns when every unit is done.
//! [`PhasePool::run_chunks`] cuts a slice (or an index list into it)
//! into such units of `chunk` items each: chunk 1 is Scatter-Gather's
//! one work item per agent (Table 4.1), chunk `agent_set` is an
//! H-Dispatch agent set (Table 4.2), and the sharded engine runs one
//! whole shard per unit.
//!
//! # Safety
//! The phase closure is type-erased to a raw pointer so parked workers
//! can call it without a `'static` bound. This is sound because
//! [`PhasePool::run`] does not return until every worker has finished
//! the phase (the same blocking-scope argument `std::thread::scope`
//! relies on). [`PhasePool::run_chunks`] hands out `&mut` items through
//! a base pointer; its own doc states why no two are ever aliased.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` and `run` keeps it alive while any
// worker can observe it.
unsafe impl Send for TaskPtr {}

struct State {
    generation: u64,
    units: usize,
    task: Option<TaskPtr>,
    done_workers: usize,
}

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    cursor: AtomicUsize,
    shutdown: AtomicBool,
    n_workers: usize,
}

/// A persistent pool executing phases of independent work units.
pub struct PhasePool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// Held by the caller for a whole parallel phase: the workers serve
    /// one phase at a time, so concurrent callers take turns.
    phase: Mutex<()>,
}

impl std::fmt::Debug for PhasePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasePool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// A work unit's escaped panic, caught by the pool so the phase barrier
/// still completes: the unit index plus the original panic payload.
pub struct UnitPanic {
    /// Index of the unit whose closure panicked (of the item, under
    /// [`PhasePool::run_chunks`]). Only the first panic observed in a
    /// phase is kept.
    pub unit: usize,
    /// The payload `panic!` carried, for rethrow or display.
    pub payload: Box<dyn std::any::Any + Send + 'static>,
}

/// Best-effort human-readable form of a panic payload: the `&str` or
/// `String` message when the panic carried one, a placeholder otherwise.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl PhasePool {
    /// Creates a pool contributing `threads` total execution streams:
    /// the calling thread plus `threads - 1` parked workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "phase pool needs at least one thread");
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                generation: 0,
                units: 0,
                task: None,
                done_workers: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            n_workers: threads - 1,
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("gdisim-phase-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn phase worker")
            })
            .collect();
        PhasePool {
            inner,
            workers,
            phase: Mutex::new(()),
        }
    }

    /// Total execution streams (workers + caller).
    pub fn threads(&self) -> usize {
        self.inner.n_workers + 1
    }

    /// Runs one phase of `units` work items; `f(i)` is called exactly
    /// once for every `i < units`, from the caller or a worker. Returns
    /// when all units are complete. A panicking unit is caught at the
    /// unit boundary (see [`Self::run_caught`]) and rethrown here after
    /// the barrier — the phase protocol always completes, so a panic
    /// can neither wedge the barrier wait nor leave a worker reading a
    /// dead closure pointer.
    pub fn run(&self, units: usize, f: &(dyn Fn(usize) + Sync)) {
        if let Err(p) = self.run_caught(units, f) {
            std::panic::resume_unwind(p.payload);
        }
    }

    /// [`Self::run`], but a unit's escaped panic is returned instead of
    /// rethrown: every other unit still runs to completion and every
    /// worker reaches the barrier, so the pool stays usable and the
    /// caller can supervise — report the crash, checkpoint survivors,
    /// exit cleanly. Only the first observed panic is kept.
    pub fn run_caught(&self, units: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), UnitPanic> {
        let first = Mutex::new(None);
        self.run_protocol(units, &|u| catch_first(&first, u, || f(u)));
        first.into_inner().map_or(Ok(()), Err)
    }

    /// Runs `f(i, &mut items[i])` once for every selected item: every
    /// `i < items.len()`, or every `i` in `indices`, which must be
    /// strictly ascending and in range. The selection is cut into work
    /// units of `chunk` consecutive selected items (the last may be
    /// shorter), pulled from the shared cursor like any other phase;
    /// one unit, or a one-thread pool, runs inline on the caller.
    ///
    /// A panicking item is caught like a [`Self::run_caught`] unit,
    /// reported with its item index `i`: every other item still runs
    /// and the pool stays usable.
    ///
    /// # Panics
    /// Panics on the caller, before any item runs, if `chunk == 0` or
    /// `indices` breaks its order or range contract.
    pub fn run_chunks<T, F>(
        &self,
        items: &mut [T],
        indices: Option<&[u32]>,
        chunk: usize,
        f: F,
    ) -> Result<(), UnitPanic>
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        assert!(chunk > 0, "chunk length must be positive");
        if let Some(indices) = indices {
            validate_indices(indices, items.len());
        }
        let selected = indices.map_or(items.len(), <[u32]>::len);
        let base = items.as_mut_ptr() as usize;
        let first = Mutex::new(None);
        self.run_protocol(selected.div_ceil(chunk), &|u| {
            let start = u * chunk;
            for k in start..(start + chunk).min(selected) {
                let i = indices.map_or(k, |ix| ix[k] as usize);
                // SAFETY: `i < items.len()` (the full range, or checked
                // by `validate_indices`), and each `i` is selected once:
                // units are disjoint ranges of the selection, the cursor
                // hands out every unit exactly once, and validated
                // indices are strictly ascending, hence distinct. So no
                // two calls alias one item, and every such `&mut` ends
                // before `run_protocol` returns, within our borrow of
                // `items`.
                let item = unsafe { &mut *(base as *mut T).add(i) };
                catch_first(&first, i, || f(i, item));
            }
        });
        first.into_inner().map_or(Ok(()), Err)
    }

    /// The raw phase protocol: publish, pull, barrier. `f` must not
    /// panic (the public entry points wrap it in a catch). Generic so
    /// the inline path calls `f` directly; only the parallel path
    /// erases it for the workers.
    fn run_protocol<F: Fn(usize) + Sync>(&self, units: usize, f: &F) {
        // A single unit cannot be parallelized: run it inline instead of
        // waking every parked worker just to watch the caller take it.
        if self.inner.n_workers == 0 || units <= 1 {
            for i in 0..units {
                f(i);
            }
            return;
        }
        let _turn = self.phase.lock();
        // Publish the phase.
        {
            let mut st = self.inner.state.lock();
            // SAFETY: see module docs — `f` outlives the phase because we
            // block below until every worker reports done.
            let f: &(dyn Fn(usize) + Sync) = f;
            let erased: TaskPtr = TaskPtr(unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
            });
            st.task = Some(erased);
            st.units = units;
            st.generation += 1;
            st.done_workers = 0;
            self.inner.cursor.store(0, Ordering::Release);
            self.inner.work_cv.notify_all();
        }
        // The caller pulls units alongside the workers.
        loop {
            let i = self.inner.cursor.fetch_add(1, Ordering::AcqRel);
            if i >= units {
                break;
            }
            f(i);
        }
        // Wait for every worker to leave the phase.
        let mut st = self.inner.state.lock();
        while st.done_workers < self.inner.n_workers {
            self.inner.done_cv.wait(&mut st);
        }
        st.task = None;
    }
}

impl Drop for PhasePool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Runs `body`, keeping the phase's first escaped panic in `first`
/// tagged with `unit`.
fn catch_first(first: &Mutex<Option<UnitPanic>>, unit: usize, body: impl FnOnce()) {
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        first.lock().get_or_insert(UnitPanic { unit, payload });
    }
}

/// Checks that `indices` is strictly ascending and within `len`.
/// [`PhasePool::run_chunks`] relies on this: strictly ascending implies
/// every index is distinct, which is what makes handing out one `&mut`
/// per selected item across worker threads sound.
///
/// # Panics
/// Panics (with the messages the engine's callers pin in tests) when the
/// order or range contract is violated.
pub(crate) fn validate_indices(indices: &[u32], len: usize) {
    let mut prev: Option<u32> = None;
    for &i in indices {
        assert!(
            prev.is_none_or(|p| p < i),
            "active-set indices must be strictly ascending"
        );
        assert!((i as usize) < len, "active-set index out of range");
        prev = Some(i);
    }
}

fn worker_loop(inner: &Inner) {
    let mut last_gen = 0u64;
    loop {
        let (task, units) = {
            let mut st = inner.state.lock();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if st.generation > last_gen {
                    if let Some(task) = st.task {
                        last_gen = st.generation;
                        break (task, st.units);
                    }
                }
                inner.work_cv.wait(&mut st);
            }
        };
        // Pull work units until the global cursor is exhausted.
        loop {
            let i = inner.cursor.fetch_add(1, Ordering::AcqRel);
            if i >= units {
                break;
            }
            // SAFETY: `run` keeps the closure alive until we report done.
            let f = unsafe { &*task.0 };
            f(i);
        }
        let mut st = inner.state.lock();
        st.done_workers += 1;
        if st.done_workers == inner.n_workers {
            inner.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_unit_runs_exactly_once() {
        let pool = PhasePool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_phases() {
        let pool = PhasePool::new(3);
        let counter = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(17, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1700);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = PhasePool::new(1);
        assert_eq!(pool.threads(), 1);
        let counter = AtomicU64::new(0);
        pool.run(5, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn empty_phase_is_a_noop() {
        let pool = PhasePool::new(2);
        pool.run(0, &|_| panic!("no units to run"));
    }

    #[test]
    fn panicking_unit_does_not_wedge_the_barrier() {
        let pool = PhasePool::new(4);
        let done = AtomicU64::new(0);
        let err = pool
            .run_caught(64, &|i| {
                if i == 13 {
                    panic!("unit 13 exploded");
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("panic must surface");
        assert_eq!(err.unit, 13);
        assert_eq!(panic_message(err.payload.as_ref()), "unit 13 exploded");
        assert_eq!(done.load(Ordering::Relaxed), 63, "survivors all ran");
        // The pool survives for the next phase.
        let counter = AtomicU64::new(0);
        pool.run(10, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn run_rethrows_the_unit_panic() {
        let pool = PhasePool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        let payload = r.expect_err("panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "boom");
    }

    #[test]
    fn panic_message_handles_string_and_opaque_payloads() {
        let owned: Box<dyn std::any::Any + Send> = Box::new("text".to_string());
        assert_eq!(panic_message(owned.as_ref()), "text");
        let opaque: Box<dyn std::any::Any + Send> = Box::new(42u64);
        assert_eq!(panic_message(opaque.as_ref()), "non-string panic payload");
    }

    #[test]
    fn mutating_disjoint_slices_is_sound() {
        let pool = PhasePool::new(4);
        let mut data = vec![0u64; 4096];
        assert!(pool
            .run_chunks(&mut data, None, 64, |i, v| *v = i as u64)
            .is_ok());
        assert!(data.iter().enumerate().all(|(i, v)| *v == i as u64));
    }

    #[test]
    fn crashed_shard_reports_while_survivors_reach_the_barrier() {
        let pool = PhasePool::new(4);
        let mut shards: Vec<u64> = vec![0; 8];
        let err = pool
            .run_chunks(&mut shards, None, 1, |i, s| {
                if i == 5 {
                    panic!("shard 5 died");
                }
                *s = 1;
            })
            .expect_err("panic must surface");
        assert_eq!(err.unit, 5);
        assert_eq!(panic_message(err.payload.as_ref()), "shard 5 died");
        // Every surviving shard completed its window.
        for (i, s) in shards.iter().enumerate() {
            if i != 5 {
                assert_eq!(*s, 1, "shard {i} never reached the barrier");
            }
        }
        // The pool stays usable after the crash.
        assert!(pool
            .run_chunks(&mut shards, None, 1, |_, s| *s += 10)
            .is_ok());
        assert!(shards.iter().all(|s| *s >= 10));
    }

    #[test]
    fn results_are_independent_of_worker_count() {
        let work = |threads: usize| {
            let pool = PhasePool::new(threads);
            let mut shards: Vec<u64> = (0..16).map(|i| i * 7 + 3).collect();
            for _ in 0..20 {
                // An LCG step per window: order within the window must
                // not matter, only that each shard advanced.
                let stepped = pool.run_chunks(&mut shards, None, 1, |_, s| {
                    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                });
                assert!(stepped.is_ok());
            }
            shards
        };
        assert_eq!(work(1), work(4));
    }

    #[test]
    fn concurrent_callers_take_turns() {
        // Clones of one executor share its pool. Two callers publishing
        // phases at once used to let a worker run one caller's closure
        // on the other's cursor: items ran twice or never.
        let pool = PhasePool::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..300 {
                        let mut items = vec![0u32; 256];
                        let ran = pool.run_chunks(&mut items, None, 1, |_, v| *v += 1);
                        assert!(ran.is_ok());
                        assert!(items.iter().all(|&v| v == 1), "an item ran twice or never");
                    }
                });
            }
        });
    }
}
