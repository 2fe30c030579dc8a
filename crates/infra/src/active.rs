//! Active-agent-set bookkeeping for the engine's fast path.
//!
//! Most agents in a large topology are idle at any instant: a mostly-idle
//! mid-size deployment keeps thousands of component queues empty for long
//! stretches. Ticking an empty queue only records idle time on its
//! meters, so the engine can skip it entirely and credit the idle span in
//! one bulk, bit-for-bit-identical addition later (see
//! `Station::account_idle`). [`ActiveSet`] tracks which agents currently
//! hold work and since when the idle ones have been empty.
//!
//! Most ticks of a busy agent are quiet, too: they finish no job and
//! admit no job, and only subtract a fixed budget from each job. An
//! agent whose `Station::quiet_ticks` horizon is non-zero therefore
//! *sleeps*: it leaves the awake list for a calendar sorted by wake time
//! and replays its owed ticks (`Station::replay_quiet`) when it is next
//! touched. Members are thus split in two:
//!
//! * the **awake list**, kept incrementally sorted: insertion
//!   binary-inserts (with an O(1) append fast path for the common
//!   ascending-activation case) and the end-of-step sweep compacts in one
//!   order-preserving pass, so a snapshot is a plain copy — no per-step
//!   `sort_unstable`;
//! * the **calendar** of sleepers, sorted by `(wake_at, agent)`
//!   descending so the next due sleeper is popped from the end.
//!
//! Invariants maintained together with the engine:
//!
//! * an agent is a member iff its `in_system() > 0` *or* it received a
//!   token since the last sweep;
//! * every member is in exactly one of the awake list and the calendar;
//! * the awake list is strictly ascending at all times — phase 2's
//!   non-aliasing argument and phase 3's deterministic drain order both
//!   rest on this;
//! * a sleeper holds work and owes only quiet ticks;
//! * `idle_from[i]` is meaningful only for non-members and records the
//!   tick boundary at which agent `i` last went (or started) empty;
//! * non-members and sleepers always have empty outboxes — an awake
//!   agent's outbox is drained every step, and an agent only leaves the
//!   awake list right after a drain.

use gdisim_types::{SimDuration, SimTime};

/// What the end-of-step sweep does with an awake member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Went empty: leaves the set, idle from the sweep boundary.
    Retire,
    /// Keeps ticking every step.
    Stay,
    /// Quiet until the given tick boundary: moves to the calendar.
    Sleep(SimTime),
}

/// Dense membership bookkeeping: a flag per agent, the awake members in
/// strictly ascending agent order, and the sleepers by wake time.
#[derive(Clone)]
pub struct ActiveSet {
    flags: Vec<bool>,
    awake: Vec<u32>,
    calendar: Vec<(SimTime, u32)>,
    idle_from: Vec<SimTime>,
}

impl ActiveSet {
    /// Creates a set over `n` agents, all idle since time zero.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            flags: vec![false; n],
            awake: Vec::new(),
            calendar: Vec::new(),
            idle_from: vec![SimTime::ZERO; n],
        }
    }

    /// Whether the agent is currently a member (awake or asleep).
    pub fn contains(&self, agent: usize) -> bool {
        self.flags[agent]
    }

    /// Number of members, awake and asleep.
    pub fn len(&self) -> usize {
        self.awake.len() + self.calendar.len()
    }

    /// Whether no agent is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The awake members, strictly ascending.
    pub fn awake(&self) -> &[u32] {
        &self.awake
    }

    /// The sleepers as `(wake_at, agent)`, latest wake first.
    pub fn sleepers(&self) -> &[(SimTime, u32)] {
        &self.calendar
    }

    /// Marks the agent active, returning `Some(idle_since)` when this
    /// call changed the membership (the caller must then credit the idle
    /// span ending now) and `None` when the agent was already a member.
    /// A new member starts awake.
    pub fn activate(&mut self, agent: usize) -> Option<SimTime> {
        if self.flags[agent] {
            return None;
        }
        self.flags[agent] = true;
        self.insert_awake(agent as u32);
        Some(self.idle_from[agent])
    }

    /// Inserts into the awake list, keeping it sorted: an agent above the
    /// current maximum is appended (routing visits agents in ascending
    /// order, so this is the common case); anything else binary-searches
    /// its slot.
    pub(crate) fn insert_awake(&mut self, a: u32) {
        match self.awake.last() {
            Some(&last) if last > a => {
                let pos = self.awake.partition_point(|&m| m < a);
                self.awake.insert(pos, a);
            }
            _ => self.awake.push(a),
        }
    }

    /// The awake members in strictly ascending agent order, copied into
    /// `buf`. Ascending order is what keeps phase-2 iteration and the
    /// phase-3 outbox drain deterministic regardless of activation order.
    pub fn snapshot_into(&self, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend_from_slice(&self.awake);
    }

    /// Applies `fate` to every awake member in one order-preserving
    /// compaction pass, so the ascending invariant survives without a
    /// re-sort: retired agents are stamped idle from `t`, sleepers are
    /// filed in the calendar. `fate` receives the agent index.
    pub fn sweep<F: FnMut(usize) -> Fate>(&mut self, t: SimTime, mut fate: F) {
        let flags = &mut self.flags;
        let idle_from = &mut self.idle_from;
        let calendar = &mut self.calendar;
        self.awake.retain(|&m| {
            let agent = m as usize;
            match fate(agent) {
                Fate::Stay => true,
                Fate::Retire => {
                    flags[agent] = false;
                    idle_from[agent] = t;
                    false
                }
                Fate::Sleep(wake_at) => {
                    file(calendar, wake_at, m);
                    false
                }
            }
        });
    }

    /// Moves a sleeper filed under `wake_at` back to the awake list
    /// ahead of its wake time.
    pub fn wake(&mut self, agent: usize, wake_at: SimTime) {
        self.unfile(agent, wake_at);
        self.insert_awake(agent as u32);
    }

    /// Refiles a sleeper from `wake_at` to `new_wake`.
    pub fn reschedule(&mut self, agent: usize, wake_at: SimTime, new_wake: SimTime) {
        self.unfile(agent, wake_at);
        file(&mut self.calendar, new_wake, agent as u32);
    }

    /// Removes a sleeper's calendar entry.
    fn unfile(&mut self, agent: usize, wake_at: SimTime) {
        let entry = (wake_at, agent as u32);
        let pos = self.calendar.partition_point(|&e| e > entry);
        debug_assert_eq!(self.calendar.get(pos), Some(&entry), "not a sleeper");
        self.calendar.remove(pos);
    }

    /// Moves every sleeper due at or before `t` back to the awake list,
    /// calling `woken(agent)` for each.
    pub fn wake_due<F: FnMut(usize)>(&mut self, t: SimTime, mut woken: F) {
        while let Some(&(wake_at, agent)) = self.calendar.last() {
            if wake_at > t {
                break;
            }
            self.calendar.pop();
            self.insert_awake(agent);
            woken(agent as usize);
        }
    }

    /// Calls `credit(agent, ticks)` for every non-member whose idle span
    /// `[max(idle_from, epoch), t)` is non-empty, where `ticks` is that
    /// span divided by `dt`. Used at collection time so skipped agents
    /// still account the full interval; `epoch` is the previous
    /// collection boundary (idle time before it was already credited).
    pub fn credit_idle<F: FnMut(usize, u64)>(
        &self,
        epoch: SimTime,
        t: SimTime,
        dt: SimDuration,
        mut credit: F,
    ) {
        for agent in 0..self.flags.len() {
            if self.flags[agent] {
                continue;
            }
            let from = self.idle_from[agent].max(epoch);
            if let Some(ticks) = ticks_between(from, t, dt) {
                credit(agent, ticks);
            }
        }
    }
}

/// Files `agent` in the calendar under `wake_at`, keeping it sorted
/// descending.
fn file(calendar: &mut Vec<(SimTime, u32)>, wake_at: SimTime, agent: u32) {
    let entry = (wake_at, agent);
    let pos = calendar.partition_point(|&e| e > entry);
    calendar.insert(pos, entry);
}

/// Whole ticks between two tick boundaries; `None` when the span is empty.
///
/// # Panics
/// Debug-asserts that the span divides evenly: every activation,
/// retirement and collection happens on a tick boundary, so a remainder
/// means the engine lost alignment (which would break the bit-for-bit
/// idle-accounting argument).
pub fn ticks_between(from: SimTime, to: SimTime, dt: SimDuration) -> Option<u64> {
    if to <= from {
        return None;
    }
    let span = to.as_micros() - from.as_micros();
    let dt = dt.as_micros();
    debug_assert_eq!(span % dt, 0, "idle span must be whole ticks");
    Some(span / dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    /// Sweep fate that retires the agents `idle` picks and keeps the rest.
    fn retire_if(idle: impl Fn(usize) -> bool) -> impl FnMut(usize) -> Fate {
        move |a| if idle(a) { Fate::Retire } else { Fate::Stay }
    }

    #[test]
    fn activate_is_idempotent_and_reports_idle_start() {
        let mut s = ActiveSet::new(4);
        assert_eq!(s.activate(2), Some(SimTime::ZERO));
        assert_eq!(s.activate(2), None);
        assert!(s.contains(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn snapshot_is_ascending_regardless_of_activation_order() {
        let mut s = ActiveSet::new(8);
        for agent in [5, 1, 7, 0, 3] {
            s.activate(agent);
        }
        let mut buf = Vec::new();
        s.snapshot_into(&mut buf);
        assert_eq!(buf, vec![0, 1, 3, 5, 7]);
    }

    #[test]
    fn members_stay_sorted_after_every_single_operation() {
        // The list must be ascending *between* operations, not just at
        // snapshot time — phase 2 reads it without a sorting step.
        let mut s = ActiveSet::new(16);
        let mut buf = Vec::new();
        for agent in [9, 2, 11, 2, 0, 15, 7, 9, 3] {
            s.activate(agent);
            s.snapshot_into(&mut buf);
            let mut sorted = buf.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(buf, sorted, "unsorted after activating {agent}");
        }
        s.sweep(SimTime::from_millis(10), retire_if(|a| a % 2 == 1));
        s.snapshot_into(&mut buf);
        assert_eq!(buf, vec![0, 2]);
    }

    #[test]
    fn retire_drops_idle_members_and_stamps_time() {
        let mut s = ActiveSet::new(4);
        s.activate(0);
        s.activate(1);
        s.activate(3);
        let t = SimTime::from_millis(30);
        s.sweep(t, retire_if(|agent| agent != 1));
        let mut buf = Vec::new();
        s.snapshot_into(&mut buf);
        assert_eq!(buf, vec![1]);
        // Re-activating a retired agent reports the retire boundary.
        assert_eq!(s.activate(0), Some(t));
    }

    #[test]
    fn credit_idle_spans_whole_ticks_since_epoch() {
        let mut s = ActiveSet::new(3);
        s.activate(1); // members are never credited
        s.sweep(SimTime::from_millis(20), retire_if(|agent| agent == 1)); // 1 idle from 20 ms
        let mut credited = Vec::new();
        s.credit_idle(
            SimTime::ZERO,
            SimTime::from_millis(50),
            DT,
            |agent, ticks| {
                credited.push((agent, ticks));
            },
        );
        // Agents 0 and 2 idle the full 5 ticks; agent 1 only the last 3.
        assert_eq!(credited, vec![(0, 5), (1, 3), (2, 5)]);
        // After a collection the epoch advances; earlier idle time is not
        // re-credited.
        let mut credited = Vec::new();
        s.credit_idle(
            SimTime::from_millis(50),
            SimTime::from_millis(70),
            DT,
            |agent, ticks| {
                credited.push((agent, ticks));
            },
        );
        assert_eq!(credited, vec![(0, 2), (1, 2), (2, 2)]);
    }

    #[test]
    fn sleepers_leave_the_awake_list_and_wake_in_time_order() {
        let mut s = ActiveSet::new(8);
        for agent in [1, 2, 4, 6] {
            s.activate(agent);
        }
        let ms = SimTime::from_millis;
        s.sweep(ms(10), |a| match a {
            1 => Fate::Sleep(ms(50)),
            4 => Fate::Sleep(ms(30)),
            6 => Fate::Sleep(ms(30)),
            _ => Fate::Stay,
        });
        // Sleepers stay members, off the awake list.
        assert_eq!(s.awake(), &[2]);
        assert_eq!(s.len(), 4);
        assert!([1, 4, 6].iter().all(|&a| s.contains(a)));
        assert_eq!(s.sleepers(), &[(ms(50), 1), (ms(30), 6), (ms(30), 4)]);
        // Early wake of one sleeper; the rest wake when due, in order.
        s.wake(6, ms(30));
        assert_eq!(s.awake(), &[2, 6]);
        let mut woken = Vec::new();
        s.wake_due(ms(20), |a| woken.push(a));
        assert!(woken.is_empty());
        s.wake_due(ms(30), |a| woken.push(a));
        assert_eq!(woken, vec![4]);
        assert_eq!(s.awake(), &[2, 4, 6]);
        assert_eq!(s.sleepers(), &[(ms(50), 1)]);
    }

    #[test]
    fn ticks_between_handles_empty_and_whole_spans() {
        assert_eq!(
            ticks_between(SimTime::from_millis(10), SimTime::from_millis(10), DT),
            None
        );
        assert_eq!(
            ticks_between(SimTime::from_millis(10), SimTime::from_millis(40), DT),
            Some(3)
        );
    }
}

// Checkpoint support: the set's membership, its awake/asleep split and
// the idle-from stamps are load-bearing for the fast path.
gdisim_snap::snap_struct!(ActiveSet {
    flags,
    awake,
    calendar,
    idle_from,
});
