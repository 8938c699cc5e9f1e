//! The amortized fair driver is the generic round-robin loop, only cheaper.
//!
//! Every fair tail — `run_fair`, `replay`, the explorers' tails — runs
//! through `run_fair_counted`, which steps with `Executor::fire_fair`. The
//! Level-A executor overrides that method with the runtime's cursor-resumed
//! round-robin scan instead of enumerating every process's options per
//! step. The reference kept here is the generic path: the source-driven
//! loop `run_with_source_counted` under a `RotatingSource`. Both must take
//! the same run: the same outcome, budget consumed, recorded schedule,
//! history digest, state fingerprint, folded runtime state, and the same
//! events on an attached observer.

use std::sync::{Arc, Mutex};

use gam_kernel::schedule::{ChoiceStep, RandomSource, RecordingSource, RotatingSource};
use gam_kernel::RunOutcome;
use genuine_multicast::engine::{self, EventLog, Executor, TraceEvent};
use genuine_multicast::prelude::*;
use genuine_multicast::scenarios::corpus;

/// Everything a fair tail can be observed by.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    outcome: RunOutcome,
    taken: u64,
    schedule: Vec<ChoiceStep>,
    digest: u64,
    fingerprint: u64,
    events: Vec<TraceEvent>,
}

/// Which fair driver to run after the prefix.
#[derive(Clone, Copy)]
enum Driver {
    Reference,
    Amortized,
}

/// Drives a fresh, observed `exec` through `prefix_len` steps of the
/// seeded random source, then to the end under `driver` with the rest of
/// `budget`.
fn drive<E: Executor>(
    mut exec: E,
    prefix_seed: u64,
    prefix_len: u64,
    budget: u64,
    driver: Driver,
) -> (E, Observed) {
    let log = Arc::new(Mutex::new(EventLog::new()));
    exec.attach(Box::new(Arc::clone(&log)));
    let (_, used) = engine::run_with_source_counted(
        &mut exec,
        &mut RandomSource::new(prefix_seed),
        prefix_len.min(budget),
    );
    let rest = budget - used;
    let (outcome, taken, schedule) = match driver {
        Driver::Reference => {
            let mut source = RecordingSource::new(RotatingSource::default());
            let (outcome, taken) = engine::run_with_source_counted(&mut exec, &mut source, rest);
            (outcome, taken, source.into_log())
        }
        Driver::Amortized => {
            let mut schedule = Vec::new();
            let (outcome, taken) = engine::run_fair_counted(&mut exec, rest, Some(&mut schedule));
            (outcome, taken, schedule)
        }
    };
    let observed = Observed {
        outcome,
        taken,
        schedule,
        digest: exec.state_digest(),
        fingerprint: exec.state_fingerprint(),
        events: log.lock().unwrap().events().to_vec(),
    };
    (exec, observed)
}

fn fold(exec: &RuntimeExecutor) -> Vec<u64> {
    let mut words = Vec::new();
    exec.runtime().fold_state(&mut |w| words.push(w));
    words
}

/// Steps whose process is crashed at the step's own tick: consumed
/// without effect, the corner the amortized scan must not skip.
fn steps_at_crash_tick(scenario: &Scenario, events: &[TraceEvent]) -> usize {
    let pattern = scenario.pattern();
    events
        .iter()
        .filter(|ev| {
            matches!(ev, TraceEvent::Step { time, pid, .. }
                if pattern.faulty_at(*time).contains(*pid))
        })
        .count()
}

/// Runs both drivers on the Level-A substrate and asserts they agree,
/// returning the run's steps at a crash tick.
fn check_runtime(
    label: &str,
    scenario: &Scenario,
    set: Option<ProcessSet>,
    prefix: (u64, u64),
    budget: u64,
) -> usize {
    let build = || {
        let exec = scenario.runtime_executor();
        match set {
            Some(set) => RuntimeExecutor::with_set(exec.into_runtime(), set),
            None => exec,
        }
    };
    let (seed, len) = prefix;
    let (ref_exec, reference) = drive(build(), seed, len, budget, Driver::Reference);
    let (new_exec, amortized) = drive(build(), seed, len, budget, Driver::Amortized);
    assert_eq!(amortized, reference, "{label}: Level A fair tails diverge");
    assert_eq!(
        fold(&new_exec),
        fold(&ref_exec),
        "{label}: Level A states diverge"
    );
    steps_at_crash_tick(scenario, &amortized.events)
}

/// Runs both drivers on the Level-B substrate and asserts they agree.
fn check_kernel(label: &str, scenario: &Scenario, prefix: (u64, u64), budget: u64) {
    let (seed, len) = prefix;
    let (_, reference) = drive(
        scenario.kernel_executor(),
        seed,
        len,
        budget,
        Driver::Reference,
    );
    let (_, amortized) = drive(
        scenario.kernel_executor(),
        seed,
        len,
        budget,
        Driver::Amortized,
    );
    assert_eq!(amortized, reference, "{label}: Level B fair tails diverge");
}

/// Prefixes: none, then seeded random prefixes of a few lengths.
const PREFIXES: [(u64, u64); 3] = [(0, 0), (7, 5), (21, 40)];

/// The corpus (every template, two seeds) at batching widths 1 and 16,
/// from the initial state and after seeded random prefixes, on both
/// substrates.
#[test]
fn amortized_fair_driver_matches_the_rotating_source_on_the_corpus() {
    let grid: Vec<_> = corpus()
        .iter()
        .flat_map(|(name, t)| (0..2).map(move |seed| (*name, t.with_seed(seed))))
        .collect();
    assert!(grid.iter().any(|(name, _)| *name == "chain_crash"));
    assert!(grid.iter().any(|(name, _)| *name == "rand_churn"));

    let mut crash_ticks = 0;
    for (name, d) in &grid {
        let scenario = Scenario::from_descriptor(d);
        for prefix in PREFIXES {
            for batch in [1, 16] {
                let label = format!("{name} {d} batch={batch} prefix={prefix:?}");
                let scenario = scenario.clone().with_batch_max(batch);
                crash_ticks += check_runtime(&label, &scenario, None, prefix, scenario.max_steps);
            }
            check_kernel(
                &format!("{name} {d} prefix={prefix:?}"),
                &scenario,
                prefix,
                scenario.max_steps,
            );
        }
    }
    assert!(
        crash_ticks > 0,
        "the grid must step some process at the tick it crashes"
    );
}

/// Scheduling a strict subset of the processes: the amortized scan skips
/// the unscheduled ones exactly as the option enumeration leaves them out,
/// including when the subset's obligations can never resolve and the run
/// idles until its budget is spent.
#[test]
fn amortized_fair_driver_matches_on_a_scheduled_subset() {
    for (name, t) in corpus() {
        let scenario = Scenario::from_descriptor(&t);
        let universe = scenario.system.universe();
        let halves: [ProcessSet; 2] = [
            universe.iter().filter(|p| p.0 % 2 == 0).collect(),
            universe.iter().filter(|p| p.0 % 2 == 1).collect(),
        ];
        for (i, set) in halves.into_iter().enumerate() {
            for prefix in PREFIXES {
                for batch in [1, 16] {
                    let label = format!("{name} half={i} batch={batch} prefix={prefix:?}");
                    let scenario = scenario.clone().with_batch_max(batch);
                    check_runtime(&label, &scenario, Some(set), prefix, 5_000);
                }
            }
        }
    }
}
