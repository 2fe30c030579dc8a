//! Engine-facing execution strategy.
//!
//! The simulation engine drives three phases per time step (time
//! increment, agent interaction, measurement collection; §4.3.5) and is
//! agnostic to how each phase's per-agent work is spread over cores.
//! [`Executor`] selects the strategy: serial (the fast default for small
//! models and tests), classic Scatter-Gather, or H-Dispatch.
//!
//! The two pooled mechanisms of Ch. 4 are one [`PhasePool`] phase with
//! different chunk lengths:
//!
//! * **Scatter-Gather** (§4.2.3, Table 4.1) makes one work item per
//!   agent per signal. The per-item dispatch overhead (a shared-cursor
//!   round trip and an indirect call for every agent) is why Table 4.1
//!   shows no speedup: the work inside each item is too small to
//!   amortize it (§4.3.4).
//! * **H-Dispatch** (§4.3.5, Table 4.2) has persistent workers *pull*
//!   sets of `agent_set` agents (64 "delivered the best results") from
//!   the global queue until it is empty, amortizing queue traffic over
//!   the whole set.

use crate::pool::{validate_indices, PhasePool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot of a pooled executor's dispatch activity since creation.
///
/// `items` counts the work items a phase is cut into: one per *agent*
/// under Scatter-Gather's full phase, one per *index range* under its
/// indexed phase, one per *agent set* under H-Dispatch — counted on the
/// inline path too, so the count reflects the strategy's granularity,
/// not which path executed it. `items / phases` is therefore the mean
/// dispatch batch count per phase — a value near the active-set size on
/// the indexed path means range batching has regressed to per-agent
/// dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Phase invocations dispatched.
    pub phases: u64,
    /// Work items dispatched across all phases.
    pub items: u64,
}

/// Shared atomic counters behind [`ExecutorStats`]. Cloned executors (a
/// branched simulation, or one executor handed to several runs) share
/// one instance through an `Arc`, so stats aggregate per pool, not per
/// clone.
#[derive(Debug, Default)]
struct DispatchCounters {
    phases: AtomicU64,
    items: AtomicU64,
}

/// How a pooled executor cuts a phase into work items.
#[derive(Debug, Clone, Copy)]
enum Chunking {
    /// Classic Scatter-Gather: one work item per agent (Table 4.1).
    PerAgent,
    /// H-Dispatch: agent sets of this many agents (Table 4.2).
    AgentSet(usize),
}

/// How per-agent phase work is executed.
#[derive(Debug, Clone, Default)]
pub enum Executor {
    /// Single-threaded in-place iteration.
    #[default]
    Serial,
    /// Phases cut into chunks pulled by persistent workers: classic
    /// Scatter-Gather or H-Dispatch.
    Pooled(Pooled),
}

/// A pooled executor: a [`PhasePool`], the mechanism's chunk policy
/// and its dispatch counters, all shared by clones. Built by
/// [`Executor::scatter_gather`] and [`Executor::hdispatch`].
#[derive(Debug, Clone)]
pub struct Pooled {
    pool: Arc<PhasePool>,
    chunking: Chunking,
    stats: Arc<DispatchCounters>,
}

impl Executor {
    /// The serial executor.
    pub fn serial() -> Self {
        Executor::Serial
    }

    /// Classic Scatter-Gather over `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn scatter_gather(threads: usize) -> Self {
        Executor::Pooled(Pooled::new(threads, Chunking::PerAgent))
    }

    /// H-Dispatch over `threads` workers with the given agent-set size.
    ///
    /// # Panics
    /// Panics if `threads == 0` or `agent_set == 0`.
    pub fn hdispatch(threads: usize, agent_set: usize) -> Self {
        assert!(agent_set > 0, "agent set must be non-empty");
        Executor::Pooled(Pooled::new(threads, Chunking::AgentSet(agent_set)))
    }

    /// A short name for reports ("serial", "scatter-gather", "h-dispatch").
    pub fn name(&self) -> &'static str {
        match self {
            Executor::Serial => "serial",
            Executor::Pooled(p) => match p.chunking {
                Chunking::PerAgent => "scatter-gather",
                Chunking::AgentSet(_) => "h-dispatch",
            },
        }
    }

    /// Worker-thread count (1 for serial).
    pub fn threads(&self) -> usize {
        match self {
            Executor::Serial => 1,
            Executor::Pooled(p) => p.pool.threads(),
        }
    }

    /// Dispatch stats accumulated by the pooled strategies since pool
    /// creation (`None` for serial, which has no dispatch machinery).
    pub fn stats(&self) -> Option<ExecutorStats> {
        match self {
            Executor::Serial => None,
            Executor::Pooled(p) => Some(ExecutorStats {
                phases: p.stats.phases.load(Ordering::Relaxed),
                items: p.stats.items.load(Ordering::Relaxed),
            }),
        }
    }

    /// Applies `f` to every agent under this strategy. The phase returns
    /// only when all agents have been processed (the gather barrier /
    /// time-synchronization port of Fig. 4-3 and 4-5).
    pub fn run_phase<A, F>(&self, agents: &mut [A], f: F)
    where
        A: Send,
        F: Fn(&mut A) + Sync,
    {
        match self {
            Executor::Serial => {
                for a in agents.iter_mut() {
                    f(a);
                }
            }
            Executor::Pooled(p) => p.run(agents, None, f),
        }
    }

    /// Applies `f` to the agents selected by `indices` (strictly
    /// ascending) under this strategy — the engine's active-agent fast
    /// path, which ticks only agents that hold work. No per-step view is
    /// materialized: each strategy addresses the selected agents in
    /// place, so the hot loop allocates nothing.
    ///
    /// # Panics
    /// Panics if `indices` is not strictly ascending or out of range.
    pub fn run_phase_indexed<A, F>(&self, agents: &mut [A], indices: &[u32], f: F)
    where
        A: Send,
        F: Fn(&mut A) + Sync,
    {
        match self {
            Executor::Serial => {
                validate_indices(indices, agents.len());
                for &i in indices {
                    f(&mut agents[i as usize]);
                }
            }
            Executor::Pooled(p) => p.run(agents, Some(indices), f),
        }
    }
}

impl Pooled {
    fn new(threads: usize, chunking: Chunking) -> Self {
        Pooled {
            pool: Arc::new(PhasePool::new(threads)),
            chunking,
            stats: Arc::default(),
        }
    }

    /// Work-item length for a phase over every agent (`indexed: None`)
    /// or over an index list of the given length.
    ///
    /// Scatter-Gather's indexed phase batches the index list into ranges
    /// of `max(len / (threads · 4), 16)` indices: four waves per worker
    /// leave the shared cursor slack to load-balance uneven ranges, and
    /// the floor collapses tiny active sets to one or two items instead
    /// of paying per-agent dispatch. Only its full-population phase
    /// keeps the paper's literal per-agent granularity.
    fn chunk(&self, indexed: Option<usize>) -> usize {
        match (self.chunking, indexed) {
            (Chunking::PerAgent, None) => 1,
            (Chunking::PerAgent, Some(len)) => (len / (self.pool.threads() * 4)).max(16),
            (Chunking::AgentSet(set), _) => set,
        }
    }

    /// Counts and runs one phase, rethrowing a unit's panic after the
    /// barrier.
    fn run<A, F>(&self, agents: &mut [A], indices: Option<&[u32]>, f: F)
    where
        A: Send,
        F: Fn(&mut A) + Sync,
    {
        let chunk = self.chunk(indices.map(<[u32]>::len));
        let selected = indices.map_or(agents.len(), <[u32]>::len);
        self.stats.phases.fetch_add(1, Ordering::Relaxed);
        self.stats
            .items
            .fetch_add(selected.div_ceil(chunk) as u64, Ordering::Relaxed);
        if let Err(p) = self.pool.run_chunks(agents, indices, chunk, |_, a| f(a)) {
            std::panic::resume_unwind(p.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_produce_identical_results() {
        let work = |a: &mut u64| *a = a.wrapping_mul(2654435761).rotate_left(7);
        let make = || (0..500u64).collect::<Vec<_>>();

        let mut serial = make();
        Executor::serial().run_phase(&mut serial, work);

        let mut sg = make();
        Executor::scatter_gather(4).run_phase(&mut sg, work);

        let mut hd = make();
        Executor::hdispatch(4, 16).run_phase(&mut hd, work);

        assert_eq!(serial, sg);
        assert_eq!(serial, hd);
    }

    #[test]
    fn indexed_phase_touches_only_selected_agents() {
        let work = |a: &mut u64| *a += 1;
        let indices = [0u32, 3, 4, 499];
        for ex in [
            Executor::serial(),
            Executor::scatter_gather(4),
            Executor::hdispatch(4, 2),
        ] {
            let mut agents = vec![0u64; 500];
            ex.run_phase_indexed(&mut agents, &indices, work);
            for (i, v) in agents.iter().enumerate() {
                let expected = u64::from(indices.contains(&(i as u32)));
                assert_eq!(*v, expected, "agent {i} under {}", ex.name());
            }
        }
    }

    #[test]
    fn indexed_phase_is_identical_across_strategies() {
        let work = |a: &mut u64| *a = a.wrapping_mul(2654435761).rotate_left(7) + 1;
        // Every third agent of 1000 — large enough that both pools take
        // their parallel paths (SG: > 1 item; HD: > agent_set).
        let indices: Vec<u32> = (0..1000u32).filter(|i| i % 3 == 0).collect();
        let make = || (0..1000u64).collect::<Vec<_>>();

        let mut serial = make();
        Executor::serial().run_phase_indexed(&mut serial, &indices, work);

        let mut sg = make();
        Executor::scatter_gather(4).run_phase_indexed(&mut sg, &indices, work);

        let mut hd = make();
        Executor::hdispatch(4, 16).run_phase_indexed(&mut hd, &indices, work);

        assert_eq!(serial, sg);
        assert_eq!(serial, hd);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn indexed_phase_rejects_unsorted_indices() {
        let mut agents = vec![0u64; 8];
        Executor::serial().run_phase_indexed(&mut agents, &[3, 1], |_| {});
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn indexed_phase_rejects_duplicate_indices() {
        // Duplicates would alias two `&mut` to one agent under the pools.
        let mut agents = vec![0u64; 8];
        Executor::scatter_gather(2).run_phase_indexed(&mut agents, &[2, 2, 5], |_| {});
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexed_phase_rejects_out_of_range_indices() {
        let mut agents = vec![0u64; 8];
        Executor::hdispatch(2, 4).run_phase_indexed(&mut agents, &[1, 9], |_| {});
    }

    #[test]
    fn stats_count_phases_and_items() {
        assert_eq!(Executor::serial().stats(), None);

        let sg = Executor::scatter_gather(2);
        let mut agents = vec![0u64; 100];
        sg.run_phase(&mut agents, |a| *a += 1);
        sg.run_phase_indexed(&mut agents, &[0, 5, 9], |a| *a += 1);
        let s = sg.stats().unwrap();
        assert_eq!(s.phases, 2);
        // 100 per-agent items for the full phase + 1 batched range item
        // for the 3-index phase.
        assert_eq!(s.items, 101, "full phase per-agent, indexed batched");

        let hd = Executor::hdispatch(2, 16);
        hd.run_phase(&mut agents, |a| *a += 1); // 100/16 -> 7 sets
        let indices: Vec<u32> = (0..33).collect();
        hd.run_phase_indexed(&mut agents, &indices, |a| *a += 1); // 3 sets
        let s = hd.stats().unwrap();
        assert_eq!(s.phases, 2);
        assert_eq!(s.items, 10, "one item per agent set under HD");

        // Clones share the same counters.
        let clone = sg.clone();
        clone.run_phase(&mut agents, |a| *a += 1);
        assert_eq!(sg.stats().unwrap().phases, 3);
    }

    #[test]
    fn indexed_phase_batches_ranges_not_agents() {
        let sg = Executor::scatter_gather(4);
        let mut agents: Vec<u64> = vec![0; 4096];
        let indices: Vec<u32> = (0..4096).collect();
        sg.run_phase_indexed(&mut agents, &indices, |a| *a += 1);
        let s = sg.stats().unwrap();
        assert_eq!(s.phases, 1);
        // 4096 indices / (4 threads * 4) = 256 per range -> 16 items,
        // not 4096.
        assert_eq!(s.items, 16, "indexed dispatch regressed to per-agent");
        assert!(agents.iter().all(|a| *a == 1));
    }

    #[test]
    fn tiny_indexed_phase_is_a_single_inline_item() {
        let sg = Executor::scatter_gather(4);
        let mut agents: Vec<u64> = vec![0; 64];
        sg.run_phase_indexed(&mut agents, &[1, 7, 40], |a| *a += 1);
        let s = sg.stats().unwrap();
        // 3 indices fit one minimum-length range: inline, one item.
        assert_eq!((s.phases, s.items), (1, 1));
        assert_eq!(agents.iter().sum::<u64>(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        Executor::scatter_gather(0);
    }

    #[test]
    #[should_panic(expected = "agent set must be non-empty")]
    fn zero_agent_set_panics() {
        Executor::hdispatch(1, 0);
    }

    #[test]
    fn names_and_threads() {
        assert_eq!(Executor::serial().name(), "serial");
        assert_eq!(Executor::serial().threads(), 1);
        assert_eq!(Executor::scatter_gather(3).name(), "scatter-gather");
        assert_eq!(Executor::scatter_gather(3).threads(), 3);
        assert_eq!(Executor::hdispatch(5, 64).name(), "h-dispatch");
        assert_eq!(Executor::hdispatch(5, 64).threads(), 5);
    }
}
