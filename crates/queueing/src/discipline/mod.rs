//! Discrete-time fluid queue disciplines.
//!
//! Every discipline implements [`Station`]: jobs are enqueued with a scalar
//! demand, and at each tick the station performs up to
//! `servers × rate × dt` work, handing back the tokens of the jobs whose
//! demand was fully served. Service within a tick is *work-conserving*: a
//! server that finishes a job mid-tick immediately continues with the next
//! waiting job, so no capacity is lost to tick granularity.

mod delay;
mod fcfs;
mod forkjoin;
mod infinite;
mod ps;

pub use delay::DelayLine;
pub use fcfs::FcfsMulti;
pub use forkjoin::{Bypass, ForkJoin, Tandem};
pub use infinite::InfiniteServer;
pub use ps::PsQueue;

use crate::job::JobToken;
use gdisim_types::{SimDuration, SimTime};

/// Numerical tolerance for "demand fully served" decisions. Demands are
/// cycles (≤ 1e10) or bytes (≤ 1e10); f64 gives ~6 digits of slack beyond
/// this threshold.
pub(crate) const EPS: f64 = 1e-6;

/// Longest quiet horizon [`quiet_horizon`] promises. Far below the
/// `2^26` ticks up to which its rounding argument holds, and already
/// 46 simulated hours at a 10 ms tick.
const HORIZON_CAP: u64 = 1 << 24;

/// A lower bound on the number of upcoming ticks during which a job
/// with `remaining` demand, losing `step` per tick, neither completes
/// nor runs short of a full step: after each of those ticks the job
/// holds more than `EPS + step`.
///
/// Every job of a station loses the same `step` per tick and
/// floating-point subtraction is monotone, so the job with the least
/// remaining demand finishes first, and one bound per station suffices.
/// The bound is closed-form, so it costs O(1) however long the job is.
///
/// Why it holds: let `q = (remaining - EPS) / step` and `h = q - 2`
/// whole ticks. Exactly, `remaining - i·step >= EPS + 2·step` for every
/// `i <= h`. Each rounded subtraction errs by at most `2^-53` of a
/// value that never exceeds `remaining`, so `i` of them drift by at most
/// `i · 2^-53 · remaining`. For `q < 2^26` that is under `step / 2`,
/// which leaves more than `EPS + step`. Larger `q` is capped at
/// [`HORIZON_CAP`] ticks, where the drift is a `2^-29` fraction of
/// `remaining` while at most a quarter of it has been served. Waking
/// early is always safe, so the two-tick margin costs nothing but a
/// slightly earlier wake. `as u64` (not `floor`, a libcall) truncates,
/// and maps a NaN to 0.
pub(crate) fn quiet_horizon(remaining: f64, step: f64) -> u64 {
    if step <= EPS {
        return 0;
    }
    let q = (remaining - EPS) / step;
    if q >= (1u64 << 26) as f64 {
        HORIZON_CAP
    } else {
        (q as u64).saturating_sub(2)
    }
}

/// The shortest of the parts' quiet horizons (`u64::MAX` for none),
/// stopping at the first part that cannot sleep at all: a composite
/// station is quiet only while every part is, since an internal
/// hand-off is a completion too.
pub(crate) fn shortest_horizon(horizons: impl IntoIterator<Item = u64>) -> u64 {
    let mut shortest = u64::MAX;
    for h in horizons {
        if h == 0 {
            return 0;
        }
        shortest = shortest.min(h);
    }
    shortest
}

/// A queueing station processing scalar-demand jobs tick by tick.
///
/// Besides ticking, every station can say how many of its upcoming
/// ticks are *quiet* — ticks that complete no job and admit no job into
/// service — and replay such ticks later in one call. The engine uses
/// the pair to let a busy agent sleep through its quiet ticks and catch
/// up on them only when something touches it (DESIGN §4.1). Both
/// methods are required, so no station can opt out by accident.
pub trait Station {
    /// Submits a job with `demand` units of service required.
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime);

    /// Advances the station by one tick, pushing the tokens of completed
    /// jobs onto `completed` (in completion order).
    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>);

    /// Accounts `ticks` consecutive empty ticks to the station's meters in
    /// one bulk addition — bit-for-bit equivalent to calling
    /// [`tick`](Self::tick) that many times with an empty system. The
    /// engine's active-agent fast path skips idle stations entirely and
    /// credits the elapsed idle time through this method just before a
    /// collection or re-activation, so utilization and gauge averages stay
    /// identical to the always-tick loop.
    ///
    /// Callers must only invoke this while `in_system() == 0`.
    fn account_idle(&mut self, ticks: u64, dt: SimDuration);

    /// Returns the utilization since the previous collection and resets
    /// the meter. For delay lines (which model no contention) this is the
    /// average number of in-flight jobs instead.
    fn collect_utilization(&mut self) -> f64;

    /// A proven lower bound on how many ticks, starting with the one
    /// that begins at `next`, complete no job and admit no job into
    /// service (an internal stage hand-off counts as a completion).
    /// `0` means the next tick must run for real. The result is
    /// `u64::MAX` exactly when the station holds no job, so the engine
    /// learns emptiness from the same call. Callers must not rely on
    /// more than the bound: it errs low on purpose.
    fn quiet_ticks(&self, next: SimTime, dt: SimDuration) -> u64;

    /// Applies `ticks` quiet ticks of length `dt` at once. It performs
    /// the same floating-point operations as that many calls of
    /// [`tick`](Self::tick), in the same order per variable, so the state
    /// ends bit-identical. Only valid for `ticks <=`
    /// [`quiet_ticks`](Self::quiet_ticks) as evaluated at the first of
    /// them, with nothing enqueued in between.
    fn replay_quiet(&mut self, ticks: u64, dt: SimDuration);

    /// Number of jobs currently in the system (waiting + in service).
    fn in_system(&self) -> usize;

    /// Removes every job from the station, pushing the evicted tokens onto
    /// `into` in a deterministic order (service slots first, then waiters
    /// in FIFO order; composite stations emit their canonical job set in
    /// ascending token order). Afterwards `in_system() == 0`, so the
    /// active-set fast path may resume bulk idle accounting via
    /// [`account_idle`](Self::account_idle). Used by fault injection to
    /// drain a component that just went down.
    fn evict_all(&mut self, into: &mut Vec<JobToken>);
}
