//! # gam-explore — schedule-space exploration with shrinking repros
//!
//! The paper's correctness claims are universally quantified over schedules;
//! the fixed-seed integration tests only sample a handful of them. This
//! crate turns the quantifier into tooling:
//!
//! - [`explore_exhaustive`] enumerates **every** schedule of a bounded
//!   choice depth (completing each prefix with a deterministic fair tail to
//!   quiescence, so every terminal state is checkable) and verifies each
//!   terminal state against [`gam_core::spec::check_all`];
//! - [`explore_swarm`] drives a seeded random swarm over the full run,
//!   recording each schedule as it goes;
//! - [`explore_exhaustive_par`] / [`explore_swarm_par`] scale both across
//!   a worker pool (prefix-partitioned tree / striped seed range) with a
//!   deterministic merge — the reported counterexample is independent of
//!   the thread count — plus visited-set dedup of converged prefixes (see
//!   [`ExploreConfig`]);
//! - [`explore_exhaustive_dfs`] / [`explore_exhaustive_dfs_par`] walk the
//!   *same* tree as a snapshotting depth-first search — shared schedule
//!   prefixes execute once, checkpoints are restored on backtrack — and
//!   are verified byte-identical to the odometer engines;
//! - on a violation, [`shrink`] delta-debugs the failing run — dropping
//!   crashes and submissions, truncating the schedule, collapsing choices
//!   toward the round-robin default — down to a minimal counterexample;
//! - the result is a [`Repro`]: a self-contained, text-serializable bundle
//!   (topology + failure pattern + schedule + seed) that replays
//!   byte-identically and can be checked into `tests/fixtures/`.
//!
//! The same [`ScheduleSource`] machinery also drives the message-passing
//! Level-B deployment (`gam_core::distributed`) through the kernel
//! simulator — see [`kernel`]. Both substrates run through the *same*
//! [`gam_engine::Executor`] stepping layer; this crate only decides what
//! to run and what to check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dfs;
mod explorer;
pub mod hunt;
pub mod independence;
pub mod kernel;
mod par;
mod repro;
mod shrink;

pub use dfs::{explore_exhaustive_dfs, explore_exhaustive_dfs_par};
pub use explorer::{
    explore_exhaustive, explore_swarm, Counterexample, ExploreStats, Outcome, DEFAULT_SHRINK_BUDGET,
};
pub use gam_engine::digest::{self, fnv1a, trace_hash};
pub use hunt::{hunt, hunt_one, HuntConfig, HuntFinding, HuntOutcome, HuntReport};
pub use independence::{actions_commute, por_applicable};
pub use par::{explore_exhaustive_par, explore_swarm_par, ExploreConfig};
pub use repro::Repro;
pub use shrink::shrink;

use gam_core::spec::{check_all, SpecViolation};
use gam_core::{MessageId, RunReport, Runtime, RuntimeConfig, Variant};
use gam_engine::RuntimeExecutor;
use gam_groups::{GroupId, GroupSystem};
use gam_kernel::schedule::{ChoiceStep, ScheduleSource};
use gam_kernel::{FailurePattern, ProcessId, RunOutcome, Time};

/// A closed, runnable test case: everything about a run except its
/// schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The group topology.
    pub system: GroupSystem,
    /// Crash injections `(process, time)` of the failure pattern.
    pub crashes: Vec<(ProcessId, Time)>,
    /// Up-front submissions `(src, group, payload)`, in order.
    pub submissions: Vec<(ProcessId, GroupId, u64)>,
    /// The problem variation to check against.
    pub variant: Variant,
    /// Step budget of a single run (schedule prefix + fair tail).
    pub max_steps: u64,
    /// Consensus batching width of the Level-A runtime (`1` = unbatched;
    /// the Level-B kernel substrate always runs unbatched).
    pub batch_max: u32,
}

impl Scenario {
    /// A failure-free scenario over `system` with one message per group
    /// (from its least member) and the given budget.
    pub fn one_per_group(system: &GroupSystem, max_steps: u64) -> Self {
        let submissions = system
            .iter()
            .map(|(g, members)| (members.min().expect("non-empty group"), g, g.0 as u64))
            .collect();
        Scenario {
            system: system.clone(),
            crashes: Vec::new(),
            submissions,
            variant: Variant::Standard,
            max_steps,
            batch_max: 1,
        }
    }

    /// The same scenario with the Level-A consensus batching width set to
    /// `batch_max` (clamped to at least 1 by the runtime).
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: u32) -> Self {
        self.batch_max = batch_max;
        self
    }

    /// The scenario addressed by a `gam-scn v1` descriptor: generated
    /// topology, crash schedule and traffic trace, checked under the
    /// descriptor's variant within the descriptor's budget. Deterministic —
    /// equal descriptors yield equal scenarios on any thread or host.
    pub fn from_descriptor(descriptor: &gam_scenarios::ScnDescriptor) -> Self {
        let generated = descriptor.generate();
        Scenario {
            system: generated.system,
            crashes: generated.crashes,
            submissions: generated.submissions,
            variant: descriptor.variant,
            max_steps: descriptor.budget,
            batch_max: 1,
        }
    }

    /// The failure pattern of the scenario.
    pub fn pattern(&self) -> FailurePattern {
        FailurePattern::from_crashes(self.system.universe(), self.crashes.iter().copied())
    }

    /// The Level-A (shared objects) executor of the scenario: Algorithm 1
    /// runtime built, submissions applied, ready to drive through any
    /// `gam_engine` driver.
    pub fn runtime_executor(&self) -> RuntimeExecutor {
        let mut rt = Runtime::new(
            &self.system,
            self.pattern(),
            RuntimeConfig {
                variant: self.variant,
                batch_max: self.batch_max,
                ..Default::default()
            },
        );
        for (src, g, payload) in &self.submissions {
            rt.multicast(*src, *g, *payload);
        }
        RuntimeExecutor::new(rt)
    }

    /// Runs the scenario once, with every scheduling decision taken by
    /// `source`. The report is quiescent iff the run quiesced within
    /// [`Scenario::max_steps`].
    pub fn run<S: ScheduleSource>(&self, source: &mut S) -> RunReport {
        let mut exec = self.runtime_executor();
        let out = gam_engine::run_with_source(&mut exec, source, self.max_steps);
        exec.report(out == RunOutcome::Quiescent)
    }

    /// Replays `schedule` on the scenario, completing the run with the fair
    /// round-robin tail once the schedule is exhausted (see
    /// [`gam_engine::replay`]).
    pub fn replay(&self, schedule: &[ChoiceStep]) -> RunReport {
        let mut exec = self.runtime_executor();
        let out = gam_engine::replay(&mut exec, schedule, self.max_steps);
        exec.report(out == RunOutcome::Quiescent)
    }

    /// Runs the scenario and checks it, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecViolation`] found by `spec::check_all`.
    pub fn run_checked<S: ScheduleSource>(
        &self,
        source: &mut S,
    ) -> Result<RunReport, SpecViolation> {
        let report = self.run(source);
        check_all(&report, self.variant)?;
        Ok(report)
    }

    /// The submitted messages, by id (submission order).
    pub fn message_ids(&self) -> Vec<MessageId> {
        (0..self.submissions.len() as u64).map(MessageId).collect()
    }
}
