//! Pluggable schedule sources: record, replay and enumerate scheduling
//! choices.
//!
//! The paper's claims are universally quantified over schedules ("for every
//! fair run..."), and its necessity arguments (§5) are schedule-perturbation
//! constructions. A [`ScheduleSource`] reifies the adversary: at every step
//! it is shown the current *choice space* — the eligible processes and how
//! many distinct receive/action options each has — and picks one option.
//! Both the message-passing [`Simulator`](crate::Simulator) and the
//! shared-memory runtime of `gam-core` consult a source through the same
//! interface, so one explorer, one recorded schedule format and one shrinker
//! serve both levels.
//!
//! The choice space at a step is a slice of `(ProcessId, usize)` pairs in
//! ascending process order: process `p` with arity `k` offers sub-choices
//! `0..k`. What a sub-choice *means* is decided by the driver: the simulator
//! maps `c < pending` to [`Receive::Nth(c)`](crate::Receive) and
//! `c == pending` to the null message; the runtime maps `c` to its `c`-th
//! enabled action in the deterministic action order. Sub-choice `0` is
//! always the driver's "default" option (oldest message / least action), so
//! collapsing a schedule entry to `0` moves it toward the round-robin
//! schedule — the normalisation the shrinker exploits.

use crate::process::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One recorded scheduling decision: which process stepped and which of its
/// options it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoiceStep {
    /// The stepping process.
    pub pid: ProcessId,
    /// The index of the taken option in the process's option list.
    pub choice: usize,
}

/// A scheduling policy consulted once per step.
pub trait ScheduleSource {
    /// Picks from `options` (non-empty, ascending process order; each entry
    /// is an eligible process and its positive option arity). Returns the
    /// index into `options` plus the sub-choice, or `None` to stop the run
    /// (the driver reports [`RunOutcome::Stopped`](crate::RunOutcome)).
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)>;
}

impl<S: ScheduleSource + ?Sized> ScheduleSource for &mut S {
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)> {
        (**self).next_choice(options)
    }
}

/// Round-robin over processes, always taking sub-choice `0` (the driver's
/// default option). Deterministic and fair — the canonical tail used to
/// complete an explored prefix to quiescence.
#[derive(Debug, Clone, Copy, Default)]
pub struct RotatingSource {
    cursor: u32,
}

impl RotatingSource {
    /// The round-robin pick over `options` from rotation position
    /// `cursor`: the first option whose process is at or after `cursor`,
    /// wrapping to the first option, with `cursor` left just past the
    /// picked process. `None` on an empty choice space.
    pub fn pick(cursor: &mut u32, options: &[(ProcessId, usize)]) -> Option<usize> {
        let idx = options
            .iter()
            .position(|(p, _)| p.0 >= *cursor)
            .unwrap_or(0);
        let (p, _) = options.get(idx)?;
        *cursor = p.0 + 1;
        Some(idx)
    }
}

impl ScheduleSource for RotatingSource {
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)> {
        RotatingSource::pick(&mut self.cursor, options).map(|idx| (idx, 0))
    }
}

/// Uniformly random choices: a process uniformly among the eligible, then a
/// sub-choice uniformly among its options. Seeded and replayable.
#[derive(Debug, Clone)]
pub struct RandomSource {
    rng: StdRng,
}

impl RandomSource {
    /// A source seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        RandomSource {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ScheduleSource for RandomSource {
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)> {
        let idx = self.rng.gen_range(0..options.len());
        let (_, arity) = options[idx];
        Some((idx, self.rng.gen_range(0..arity)))
    }
}

/// Replays a recorded schedule step by step, tolerantly: entries whose
/// process is no longer eligible are skipped (mirroring how crashed
/// processes silently skip scheduled steps), and out-of-range sub-choices
/// are clamped to the current arity. On a faithful replay of a
/// deterministic run neither fallback fires; the tolerance is what lets the
/// shrinker mutate schedules without re-deriving them.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    steps: Vec<ChoiceStep>,
    cursor: usize,
}

impl ReplaySource {
    /// A source replaying `steps` in order, then stopping.
    pub fn new(steps: Vec<ChoiceStep>) -> Self {
        ReplaySource { steps, cursor: 0 }
    }

    /// Number of entries not yet consumed.
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.cursor
    }
}

impl ScheduleSource for ReplaySource {
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)> {
        while self.cursor < self.steps.len() {
            let step = self.steps[self.cursor];
            self.cursor += 1;
            if let Some(idx) = options.iter().position(|(p, _)| *p == step.pid) {
                let arity = options[idx].1;
                return Some((idx, step.choice.min(arity - 1)));
            }
        }
        None
    }
}

/// Wraps a source, recording every `(process, sub-choice)` it emits. The
/// record replays through [`ReplaySource`] to the identical run.
#[derive(Debug)]
pub struct RecordingSource<S> {
    inner: S,
    log: Vec<ChoiceStep>,
}

impl<S: ScheduleSource> RecordingSource<S> {
    /// Records the choices of `inner`.
    pub fn new(inner: S) -> Self {
        RecordingSource {
            inner,
            log: Vec::new(),
        }
    }

    /// The choices recorded so far.
    pub fn log(&self) -> &[ChoiceStep] {
        &self.log
    }

    /// Consumes the wrapper, returning the recorded schedule.
    pub fn into_log(self) -> Vec<ChoiceStep> {
        self.log
    }
}

impl<S: ScheduleSource> ScheduleSource for RecordingSource<S> {
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)> {
        let (idx, choice) = self.inner.next_choice(options)?;
        self.log.push(ChoiceStep {
            pid: options[idx].0,
            choice,
        });
        Some((idx, choice))
    }
}

/// Like [`RecordingSource`], but appending into a caller-owned log buffer —
/// the allocation-free form the exhaustive explorer's per-run loop uses
/// (clear the buffer, run, read it back; no `Vec` is created per run).
#[derive(Debug)]
pub struct RecordInto<'a, S> {
    inner: S,
    log: &'a mut Vec<ChoiceStep>,
}

impl<'a, S: ScheduleSource> RecordInto<'a, S> {
    /// Records the choices of `inner` by appending to `log` (which is *not*
    /// cleared — the caller owns its lifecycle).
    pub fn new(inner: S, log: &'a mut Vec<ChoiceStep>) -> Self {
        RecordInto { inner, log }
    }
}

impl<S: ScheduleSource> ScheduleSource for RecordInto<'_, S> {
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)> {
        let (idx, choice) = self.inner.next_choice(options)?;
        self.log.push(ChoiceStep {
            pid: options[idx].0,
            choice,
        });
        Some((idx, choice))
    }
}

/// Follows a prescribed *path* through the choice tree, recording the
/// branching factor met at every depth — the cursor of the bounded
/// exhaustive explorer.
///
/// At depth `d` the flat choice space is `0..Σ arity_i`; the source takes
/// flat index `path[d]` (or stops if the path is exhausted). After the run,
/// [`PathSource::branching`] tells the explorer how wide each visited level
/// was, which is exactly what it needs to advance the path
/// odometer-style and enumerate every schedule of bounded depth.
#[derive(Debug, Clone)]
pub struct PathSource {
    path: Vec<usize>,
    cursor: usize,
    branching: Vec<usize>,
}

impl PathSource {
    /// A source following `path` (flat choice indices, one per depth).
    pub fn new(path: Vec<usize>) -> Self {
        PathSource {
            path,
            cursor: 0,
            branching: Vec::new(),
        }
    }

    /// Rewinds the source onto a new `path` without reallocating: the path
    /// buffer is overwritten in place, the cursor returns to depth 0 and the
    /// recorded branching factors are cleared. Equivalent to (but cheaper
    /// than) constructing `PathSource::new(path.to_vec())` — the exhaustive
    /// explorer calls this once per enumerated run.
    pub fn reset_to(&mut self, path: &[usize]) {
        self.path.clear();
        self.path.extend_from_slice(path);
        self.cursor = 0;
        self.branching.clear();
    }

    /// The branching factor (total flat options) met at each visited depth.
    pub fn branching(&self) -> &[usize] {
        &self.branching
    }

    /// Depths actually consumed (< path length when the run ended early).
    pub fn depth_reached(&self) -> usize {
        self.cursor
    }
}

impl ScheduleSource for PathSource {
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)> {
        if self.cursor >= self.path.len() {
            return None;
        }
        let total: usize = options.iter().map(|(_, a)| a).sum();
        self.branching.push(total);
        let mut flat = self.path[self.cursor].min(total - 1);
        self.cursor += 1;
        for (idx, (_, arity)) in options.iter().enumerate() {
            if flat < *arity {
                return Some((idx, flat));
            }
            flat -= arity;
        }
        unreachable!("flat index clamped below total arity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(v: &[(u32, usize)]) -> Vec<(ProcessId, usize)> {
        v.iter().map(|(p, a)| (ProcessId(*p), *a)).collect()
    }

    #[test]
    fn rotating_cycles_fairly() {
        let mut s = RotatingSource::default();
        let o = opts(&[(0, 1), (1, 2), (2, 1)]);
        assert_eq!(s.next_choice(&o), Some((0, 0)));
        assert_eq!(s.next_choice(&o), Some((1, 0)));
        assert_eq!(s.next_choice(&o), Some((2, 0)));
        assert_eq!(s.next_choice(&o), Some((0, 0)), "wraps around");
        // with a hole, the cursor lands on the next eligible process
        let o2 = opts(&[(0, 1), (2, 1)]);
        assert_eq!(s.next_choice(&o2), Some((1, 0)), "skips ineligible p1");
        assert_eq!(s.next_choice(&o2), Some((0, 0)), "wraps past the hole");
    }

    #[test]
    fn random_is_seed_deterministic_and_in_range() {
        let o = opts(&[(0, 3), (4, 1), (7, 2)]);
        let run = |seed| {
            let mut s = RandomSource::new(seed);
            (0..50)
                .map(|_| s.next_choice(&o).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        for (idx, c) in run(3) {
            assert!(idx < o.len());
            assert!(c < o[idx].1);
        }
    }

    #[test]
    fn replay_skips_missing_and_clamps() {
        let steps = vec![
            ChoiceStep {
                pid: ProcessId(1),
                choice: 1,
            },
            ChoiceStep {
                pid: ProcessId(9),
                choice: 0,
            }, // never eligible
            ChoiceStep {
                pid: ProcessId(0),
                choice: 5,
            }, // clamped to 0
        ];
        let mut s = ReplaySource::new(steps);
        let o = opts(&[(0, 1), (1, 2)]);
        assert_eq!(s.next_choice(&o), Some((1, 1)));
        assert_eq!(s.next_choice(&o), Some((0, 0)), "skips p9, clamps p0");
        assert_eq!(s.next_choice(&o), None, "exhausted");
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn recording_round_trips_through_replay() {
        let o = opts(&[(0, 2), (3, 1)]);
        let mut rec = RecordingSource::new(RandomSource::new(11));
        let picked: Vec<_> = (0..20).map(|_| rec.next_choice(&o).unwrap()).collect();
        let mut rep = ReplaySource::new(rec.into_log());
        let replayed: Vec<_> = (0..20).map(|_| rep.next_choice(&o).unwrap()).collect();
        assert_eq!(picked, replayed);
    }

    #[test]
    fn record_into_appends_to_caller_buffer() {
        let o = opts(&[(0, 2), (3, 1)]);
        let mut log = Vec::new();
        let picked: Vec<_> = {
            let mut rec = RecordInto::new(RandomSource::new(11), &mut log);
            (0..20).map(|_| rec.next_choice(&o).unwrap()).collect()
        };
        // byte-for-byte the same record an owning RecordingSource produces
        let mut owning = RecordingSource::new(RandomSource::new(11));
        for _ in 0..20 {
            owning.next_choice(&o).unwrap();
        }
        assert_eq!(log, owning.into_log());
        let mut rep = ReplaySource::new(log);
        let replayed: Vec<_> = (0..20).map(|_| rep.next_choice(&o).unwrap()).collect();
        assert_eq!(picked, replayed);
    }

    #[test]
    fn path_source_reset_to_matches_fresh_construction() {
        let o = opts(&[(0, 2), (1, 3)]);
        let mut reused = PathSource::new(vec![9, 9, 9]);
        let _ = reused.next_choice(&o);
        let _ = reused.next_choice(&o);
        reused.reset_to(&[0, 1, 2, 4, 99]);
        let mut fresh = PathSource::new(vec![0, 1, 2, 4, 99]);
        for _ in 0..6 {
            assert_eq!(reused.next_choice(&o), fresh.next_choice(&o));
        }
        assert_eq!(reused.branching(), fresh.branching());
        assert_eq!(reused.depth_reached(), fresh.depth_reached());
    }

    #[test]
    fn path_source_decodes_flat_indices() {
        let o = opts(&[(0, 2), (1, 3)]);
        let mut s = PathSource::new(vec![0, 1, 2, 4, 99]);
        assert_eq!(s.next_choice(&o), Some((0, 0)));
        assert_eq!(s.next_choice(&o), Some((0, 1)));
        assert_eq!(s.next_choice(&o), Some((1, 0)));
        assert_eq!(s.next_choice(&o), Some((1, 2)));
        assert_eq!(
            s.next_choice(&o),
            Some((1, 2)),
            "clamped to last flat option"
        );
        assert_eq!(s.next_choice(&o), None, "path exhausted");
        assert_eq!(s.branching(), &[5, 5, 5, 5, 5]);
        assert_eq!(s.depth_reached(), 5);
    }
}
