//! The [`Executor`] interface and the unified schedule drivers.
//!
//! The paper reasons about two very different machines — Algorithm 1 over
//! linearizable shared objects (Level A, `gam_core::Runtime`) and automata
//! over an asynchronous message-passing network (Level B,
//! `gam_kernel::Simulator`) — but quantifies both over the same adversary:
//! *which enabled move happens next*. [`Executor`] is that common shape.
//! Everything downstream of the substrates (the explorer, replay, the bench
//! bins, equivalence checks) is written once against it, and every
//! [`ScheduleSource`] drives either substrate through the same
//! [`run_with_source`] loop.
//!
//! The driver owns exactly one reusable options buffer, consults the source,
//! and forwards the pick; substrate specifics (what a sub-choice means, when
//! the clock may idle) live behind the trait.

use crate::Observer;
use gam_kernel::schedule::{ChoiceStep, RecordInto, RecordingSource, ReplaySource, RotatingSource};
use gam_kernel::{ProcessId, RunOutcome, ScheduleSource};

/// A steppable execution substrate: a state machine exposing its current
/// choice space, accepting scheduling decisions, and reporting quiescence
/// and an incremental run digest.
///
/// Implementations exist for both substrates ([`RuntimeExecutor`] and
/// [`KernelExecutor`]); see the crate docs for how to add a new one.
///
/// Executors over owned substrate state are `Send` (asserted at compile
/// time for both built-in substrates), so parallel explorers can build and
/// drive one executor per worker thread. Observers cross the same boundary,
/// hence the `Send` bound on [`Executor::attach`].
///
/// [`RuntimeExecutor`]: crate::RuntimeExecutor
/// [`KernelExecutor`]: crate::KernelExecutor
pub trait Executor {
    /// Writes the current choice space into `out`: each process eligible to
    /// step, in ascending process order, paired with its positive option
    /// arity. Sub-choice `0` is always the substrate's "default" option
    /// (oldest message / least enabled action), the invariant the shrinker
    /// and the fair tail rely on.
    fn enabled_actions(&mut self, out: &mut Vec<(ProcessId, usize)>);

    /// Executes one scheduling decision. Out-of-range sub-choices clamp to
    /// the last option (replay tolerance); a decision for a process that
    /// crashes at the very tick of its step is consumed without effect.
    fn step(&mut self, action: ChoiceStep);

    /// The incremental digest of the run so far: folds every step taken (and
    /// every substrate-observable effect) in order, so two runs agree on
    /// their digests iff they agree on their observable histories.
    fn state_digest(&self) -> u64;

    /// A digest of the substrate's **current state** (as opposed to
    /// [`Executor::state_digest`], which hashes the *history* that led
    /// there): two executors with equal fingerprints behave identically
    /// under any deterministic continuation, even when they got to that
    /// state along different schedules. This is the key the explorer's
    /// visited-set dedup prunes on — converging prefixes (e.g. two
    /// interleavings of independent actions) collide here but never on the
    /// history digest.
    ///
    /// The default falls back to the history digest, which is always sound
    /// (equal histories ⇒ equal states) but never detects convergence;
    /// substrates that want dedup to bite override it with a real state
    /// walk.
    fn state_fingerprint(&self) -> u64 {
        self.state_digest()
    }

    /// Returns `true` when the run is over: the choice space is empty and no
    /// option can ever become enabled again (for substrates whose guards
    /// wait on time, this includes "no obligations remain").
    fn is_quiescent(&self) -> bool;

    /// Advances the substrate clock without a step, for substrates whose
    /// guards can become enabled by the passage of time alone. Returns
    /// `false` if the substrate has no notion of idling (the message-passing
    /// kernel: an empty choice space there is final).
    fn idle_tick(&mut self) -> bool;

    /// One step of the fair round-robin tail: fires sub-choice `0` of the
    /// process [`RotatingSource`] picks from rotation position `cursor`,
    /// advances `cursor`, and returns the step taken — or `None`, with
    /// nothing changed, when the choice space is empty. `cursor` is opaque
    /// to callers; `0` starts a fresh rotation.
    ///
    /// The provided implementation is the generic path and the oracle:
    /// [`Executor::enabled_actions`], the rotating pick, then
    /// [`Executor::step`]. An override must be indistinguishable from it:
    /// the same picks, digest words and published events.
    fn fire_fair(&mut self, cursor: &mut u32) -> Option<ChoiceStep> {
        fire_rotating(self, cursor, &mut Vec::new())
    }

    /// Subscribes `observer` to the substrate's trace bus (see
    /// [`TraceEvent`](crate::TraceEvent)). Executors publish nothing until
    /// the first observer is attached, keeping the hot loop allocation- and
    /// branch-free in the common case. Observers are `Send` so an observed
    /// executor can still move to a worker thread.
    fn attach(&mut self, observer: Box<dyn Observer + Send>);
}

/// Checkpoint/restore extension of [`Executor`] — the capability the
/// prefix-sharing DFS explorer is built on.
///
/// A snapshot captures **everything** that determines future behaviour *and*
/// future digests: the substrate state (logs, oracles, scheduler cursors,
/// clocks, in-flight messages, RNG) plus the executor's own incremental
/// history [`Digest`](crate::digest::Digest). After `restore`, the executor must be
/// bit-for-bit indistinguishable from one that reached the checkpoint
/// fresh: the same `enabled_actions`, and — after any continuation — the
/// same `state_digest` and `state_fingerprint`. That is what lets the DFS
/// engine prove its runs byte-identical to the restart-from-scratch
/// odometer engine.
///
/// Attached observers are *not* part of a snapshot: `restore` rewinds the
/// machine, not the audience. Observed explorations therefore see each
/// shared prefix published once, at first execution.
///
/// Snapshots are `Send` so the parallel DFS can hold them in per-worker
/// stacks (asserted at compile time for both built-in substrates).
pub trait SnapshotExec: Executor {
    /// The checkpoint type — a deep copy of the substrate + digest state.
    type Snapshot: Send;

    /// Captures the current state as a checkpoint.
    fn snapshot(&self) -> Self::Snapshot;

    /// Rewinds to a checkpoint previously taken on this executor (or an
    /// identical twin). Restoring a snapshot from a *different* scenario is
    /// not meaningful and yields an unspecified (but memory-safe) state.
    fn restore(&mut self, snap: &Self::Snapshot);

    /// Analytic cost of taking a snapshot *right now*, in bytes, as
    /// `(copied, deep)`: what [`SnapshotExec::snapshot`] actually copies
    /// versus what a deep per-element copy of the same logical state would
    /// have copied. The explorer sums both at every branch point; their
    /// ratio is the copy-on-write saving the DFS bench gates on.
    /// Substrates without cost accounting report `(0, 0)`.
    fn snapshot_cost(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl<E: Executor + ?Sized> Executor for &mut E {
    fn enabled_actions(&mut self, out: &mut Vec<(ProcessId, usize)>) {
        (**self).enabled_actions(out);
    }
    fn step(&mut self, action: ChoiceStep) {
        (**self).step(action);
    }
    fn state_digest(&self) -> u64 {
        (**self).state_digest()
    }
    fn state_fingerprint(&self) -> u64 {
        (**self).state_fingerprint()
    }
    fn is_quiescent(&self) -> bool {
        (**self).is_quiescent()
    }
    fn idle_tick(&mut self) -> bool {
        (**self).idle_tick()
    }
    fn fire_fair(&mut self, cursor: &mut u32) -> Option<ChoiceStep> {
        (**self).fire_fair(cursor)
    }
    fn attach(&mut self, observer: Box<dyn Observer + Send>) {
        (**self).attach(observer);
    }
}

/// The generic fair step behind the provided [`Executor::fire_fair`]:
/// writes the choice space into `options`, takes the [`RotatingSource`]
/// pick from `cursor`, and [`Executor::step`]s sub-choice `0`. An executor
/// that keeps this path can pass a reusable options buffer.
pub(crate) fn fire_rotating<E: Executor + ?Sized>(
    exec: &mut E,
    cursor: &mut u32,
    options: &mut Vec<(ProcessId, usize)>,
) -> Option<ChoiceStep> {
    exec.enabled_actions(options);
    let idx = RotatingSource::pick(cursor, options)?;
    let step = ChoiceStep {
        pid: options[idx].0,
        choice: 0,
    };
    exec.step(step);
    Some(step)
}

/// Runs `exec` with every scheduling decision delegated to `source`, until
/// quiescence, budget exhaustion, or the source stopping. Idle ticks (on
/// substrates that have them) count toward the budget, exactly as in the
/// substrates' native loops.
pub fn run_with_source<E, S>(exec: &mut E, source: &mut S, max_steps: u64) -> RunOutcome
where
    E: Executor + ?Sized,
    S: ScheduleSource + ?Sized,
{
    run_with_source_counted(exec, source, max_steps).0
}

/// [`run_with_source`], additionally returning how much of `max_steps` the
/// run consumed (scheduled steps plus idle ticks). Resumable: a run driven
/// in two phases — a prefix under one source, then a tail under another with
/// the *remaining* budget — takes exactly the steps of the equivalent
/// single-phase run. The explorer's dedup pruning relies on this to split a
/// run at the end of its enumerated prefix.
pub fn run_with_source_counted<E, S>(
    exec: &mut E,
    source: &mut S,
    max_steps: u64,
) -> (RunOutcome, u64)
where
    E: Executor + ?Sized,
    S: ScheduleSource + ?Sized,
{
    let mut options: Vec<(ProcessId, usize)> = Vec::new();
    let mut taken = 0u64;
    loop {
        if taken >= max_steps {
            return (RunOutcome::BudgetExhausted, taken);
        }
        exec.enabled_actions(&mut options);
        if options.is_empty() {
            if exec.is_quiescent() || !exec.idle_tick() {
                return (RunOutcome::Quiescent, taken);
            }
            taken += 1;
            continue;
        }
        let Some((idx, choice)) = source.next_choice(&options) else {
            return (RunOutcome::Stopped, taken);
        };
        exec.step(ChoiceStep {
            pid: options[idx].0,
            choice,
        });
        taken += 1;
    }
}

/// Runs `exec` under the deterministic fair round-robin policy
/// ([`RotatingSource`]) — the canonical "just run it" driver.
pub fn run_fair<E: Executor + ?Sized>(exec: &mut E, max_steps: u64) -> RunOutcome {
    run_fair_counted(exec, max_steps, None).0
}

/// The fair round-robin driver: the run [`run_with_source_counted`] takes
/// under a fresh [`RotatingSource`], stepped through
/// [`Executor::fire_fair`]. Returns the outcome and the budget consumed,
/// and appends every step taken to `record` when given — the fair tail
/// that completes an enumerated or replayed prefix.
pub fn run_fair_counted<E: Executor + ?Sized>(
    exec: &mut E,
    max_steps: u64,
    mut record: Option<&mut Vec<ChoiceStep>>,
) -> (RunOutcome, u64) {
    let mut cursor = 0u32;
    let mut taken = 0u64;
    loop {
        if taken >= max_steps {
            return (RunOutcome::BudgetExhausted, taken);
        }
        match exec.fire_fair(&mut cursor) {
            Some(step) => {
                if let Some(log) = record.as_deref_mut() {
                    log.push(step);
                }
            }
            None if exec.is_quiescent() || !exec.idle_tick() => {
                return (RunOutcome::Quiescent, taken);
            }
            None => {}
        }
        taken += 1;
    }
}

/// Runs `exec` under `prefix` until the source stops, then completes the
/// run with the fair round-robin tail on the remaining budget — the
/// run-completion policy of replay and the explorer: any enumerated or
/// replayed prefix is extended to a *fair* run, so quiescence (and hence
/// the spec checkers) is meaningful. Returns the outcome and the budget
/// consumed by both phases, and appends every step taken to `record` when
/// given.
pub fn run_with_fair_tail<E, S>(
    exec: &mut E,
    prefix: &mut S,
    max_steps: u64,
    mut record: Option<&mut Vec<ChoiceStep>>,
) -> (RunOutcome, u64)
where
    E: Executor + ?Sized,
    S: ScheduleSource + ?Sized,
{
    let (out, taken) = match record.as_deref_mut() {
        Some(log) => run_with_source_counted(exec, &mut RecordInto::new(prefix, log), max_steps),
        None => run_with_source_counted(exec, prefix, max_steps),
    };
    if out != RunOutcome::Stopped {
        return (out, taken);
    }
    let (out, tail) = run_fair_counted(exec, max_steps - taken, record);
    (out, taken + tail)
}

/// Runs `exec` under `source`, recording every decision taken. Returns the
/// outcome together with the recorded schedule, which [`replay`]s to the
/// identical run.
pub fn run_recorded<E, S>(exec: &mut E, source: S, max_steps: u64) -> (RunOutcome, Vec<ChoiceStep>)
where
    E: Executor + ?Sized,
    S: ScheduleSource,
{
    let mut rec = RecordingSource::new(source);
    let outcome = run_with_source(exec, &mut rec, max_steps);
    (outcome, rec.into_log())
}

/// Replays a recorded `schedule` on `exec`, completing with the fair
/// round-robin tail once the schedule is exhausted (see
/// [`run_with_fair_tail`]).
pub fn replay<E: Executor + ?Sized>(
    exec: &mut E,
    schedule: &[ChoiceStep],
    max_steps: u64,
) -> RunOutcome {
    let mut source = ReplaySource::new(schedule.to_vec());
    run_with_fair_tail(exec, &mut source, max_steps, None).0
}
