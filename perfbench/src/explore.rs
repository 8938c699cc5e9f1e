//! The exploration workload: Figure 1, one message per group, explored
//! exhaustively to choice depth 5 by the snapshotting DFS engine with
//! sleep-set POR and fair-tail dedup, on one thread — the configuration
//! the counterexample hunt uses. The instance is fixed, so the workload
//! takes no seed.

use std::time::{Duration, Instant};

use gam_core::{Runtime, RuntimeConfig};
use gam_explore::{
    explore_exhaustive_dfs_par, ExploreConfig, ExploreStats, Outcome as Stop, Scenario,
};
use gam_scenarios::fixture;

use crate::trace::{self, Probes};
use crate::{
    deliveries, fast_end, fold_words, latencies, median, quantile_u64, HostSpeed, Layers, Metric,
    Outcome, Tally, Traced, REFERENCE_KERNEL_S,
};

/// Set-up is microseconds here, so one set-up sample is the mean of this
/// many builds.
const SETUP_REPS: u32 = 64;

/// Leaf traces per exploration in a traced run.
const LEAF_TRACES: usize = 400;

/// The exploration instance and engine settings.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// Choice depth of the exhaustive tree.
    pub depth: usize,
    /// Run cap; the tree must be exhausted well below it.
    pub run_cap: u64,
    /// Step budget of one run (prefix plus fair tail).
    pub max_steps: u64,
    /// Visited-set capacity per worker.
    pub dedup_capacity: usize,
}

impl ExploreSpec {
    /// The benchmark's instance: Figure 1 at depth 5.
    pub fn fig1() -> ExploreSpec {
        ExploreSpec {
            depth: 5,
            run_cap: 2_000_000,
            max_steps: 200_000,
            dedup_capacity: 1 << 18,
        }
    }

    /// The scenario, built from the `fig1` fixture descriptor.
    pub fn scenario(&self) -> Scenario {
        Scenario::one_per_group(&fixture("fig1").system(), self.max_steps)
    }

    fn config(&self) -> ExploreConfig {
        ExploreConfig {
            threads: 1,
            dedup_capacity: self.dedup_capacity,
            por: true,
            ..ExploreConfig::default()
        }
    }

    /// One exhaustive exploration.
    pub fn explore(&self, scenario: &Scenario) -> ExploreStats {
        explore_exhaustive_dfs_par(scenario, self.depth, self.run_cap, &self.config())
    }
}

/// The loaded runtime of `scenario`, timing the set-up layers.
fn build(scenario: &Scenario, layers: &mut Layers) -> Runtime {
    let t = Instant::now();
    let system = fixture("fig1").system();
    layers.time("scenarios.generate_s", t.elapsed());
    let t = Instant::now();
    let mut rt = Runtime::new(
        &system,
        scenario.pattern(),
        RuntimeConfig {
            variant: scenario.variant,
            batch_max: scenario.batch_max,
            ..RuntimeConfig::default()
        },
    );
    layers.time("core.new_s", t.elapsed());
    let t = Instant::now();
    for (src, g, payload) in &scenario.submissions {
        rt.multicast(*src, *g, *payload);
    }
    layers.time("core.multicast_s", t.elapsed());
    rt
}

/// The deterministic counts of an exploration, in `PER_LAYER` names.
fn stats_counts(stats: &ExploreStats) -> [(&'static str, u64); 8] {
    [
        ("explore.runs", stats.runs),
        ("explore.steps_executed", stats.steps_executed),
        ("explore.steps_avoided", stats.steps_avoided),
        ("explore.snapshots", stats.snapshots_taken),
        ("explore.snapshot_bytes", stats.snapshot_bytes),
        ("explore.snapshot_bytes_deep", stats.snapshot_deep_bytes),
        ("explore.por_pruned", stats.por_pruned),
        ("explore.dedup_hits", stats.dedup_hits),
    ]
}

/// Checks an exploration: no violation, tree exhausted (not run-capped),
/// and the same exact counts as the first exploration of the invocation.
fn check(stats: &ExploreStats, first: Option<&ExploreStats>) -> Option<String> {
    if !stats.violations.is_empty() {
        return Some(format!(
            "exploration found a violation: {:?}",
            stats.violations[0].violation
        ));
    }
    if stats.outcome != Stop::Exhausted {
        return Some(format!("exploration stopped early: {:?}", stats.outcome));
    }
    let first = first?;
    (stats_counts(stats) != stats_counts(first))
        .then(|| "exploration counts differ from the first exploration".to_string())
}

/// The fair run of the scenario (round-robin `run_sustained`), whose
/// deliveries and latencies are those of one fully delivered leaf.
struct FairRun {
    fold: Vec<u64>,
    deliveries: u64,
    latency_p50: u64,
    latency_p99: u64,
}

fn fair_run(spec_: &ExploreSpec, scenario: &Scenario, tally: &mut Tally) -> FairRun {
    let mut rt = build(scenario, &mut Layers::default());
    let set = rt.system().universe();
    let quiescent = rt.run_sustained(set, spec_.max_steps);
    let report = rt.report(quiescent);
    let verdict = gam_core::spec::check_all(&report, scenario.variant);
    tally.record(match (quiescent, verdict) {
        (false, _) => Some("fair fig1 run did not quiesce".into()),
        (true, Err(v)) => Some(format!("fair fig1 run violates the spec: {v:?}")),
        (true, Ok(())) => None,
    });
    let lat = latencies(&report);
    FairRun {
        fold: fold_words(&rt),
        deliveries: deliveries(&report),
        latency_p50: quantile_u64(lat.clone(), 0.50),
        latency_p99: quantile_u64(lat, 0.99),
    }
}

/// Timed mode: explores repeatedly for `budget` of wall time, each
/// exploration and its set-up builds on the wall clock, each reported at
/// its [`fast_end`] and scaled to the reference speed measured before
/// each exploration ([`HostSpeed`]).
pub fn timed(spec_: &ExploreSpec, budget: Duration) -> Outcome {
    let mut tally = Tally::default();
    let scenario = spec_.scenario();
    let fair = fair_run(spec_, &scenario, &mut tally);
    let mut setup = Vec::new();
    let mut times = Vec::new();
    let mut host = HostSpeed::default();
    let mut first: Option<ExploreStats> = None;
    let start = Instant::now();
    while times.len() < 3 || start.elapsed() < budget {
        host.sample();
        let t = Instant::now();
        for _ in 0..SETUP_REPS {
            let scenario = spec_.scenario();
            std::hint::black_box(build(&scenario, &mut Layers::default()));
        }
        setup.push(t.elapsed().as_secs_f64() / f64::from(SETUP_REPS));
        let t = Instant::now();
        let stats = spec_.explore(&scenario);
        times.push(t.elapsed().as_secs_f64());
        tally.record(check(&stats, first.as_ref()));
        first.get_or_insert(stats);
    }
    let first = first.expect("at least one exploration");
    let peak_rss = host.program_peak_rss_mb();
    let scale = host.scale();
    let raw_s = fast_end(&times);
    let raw_median_s = median(&times);
    for t in setup.iter_mut().chain(times.iter_mut()) {
        *t *= scale;
    }
    // One item, the fixed tree: the tail over items is its own time.
    let explore_s = fast_end(&times);
    let metrics: Vec<Metric> = vec![
        (
            "deliveries_per_s",
            (first.runs * fair.deliveries) as f64 / explore_s,
            "1/s",
        ),
        ("drain_ms_p90", explore_s * 1e3, "ms"),
        ("latency_ticks_p50", fair.latency_p50 as f64, "ticks"),
        ("latency_ticks_p99", fair.latency_p99 as f64, "ticks"),
        ("explore_s", explore_s, "s"),
        ("setup_s", fast_end(&setup), "s"),
        ("peak_rss_mb", peak_rss, "MB"),
    ];
    let notes = vec![
        format!(
            "fig1 one message per group, depth {}, 1 thread, dedup {}, POR on",
            spec_.depth, spec_.dedup_capacity
        ),
        format!(
            "exploration: {:.1} ms at reference speed; unscaled {:.1} ms fast end, \
             {:.1} ms median; reference kernel {:.4} ms (reference {:.4} ms)",
            explore_s * 1e3,
            raw_s * 1e3,
            raw_median_s * 1e3,
            host.kernel_s() * 1e3,
            REFERENCE_KERNEL_S * 1e3
        ),
        format!(
            "exploration ms at reference speed: {}",
            times
                .iter()
                .map(|t| format!("{:.0}", t * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "explorations={} runs={} steps={} deliveries/leaf={}",
            times.len(),
            first.runs,
            first.steps_executed,
            fair.deliveries
        ),
    ];
    Outcome::new(tally, metrics, notes, Default::default())
}

/// Traced mode: for `budget` of wall time, alternates one exploration
/// (exact counters, steps per second) with a batch of traced leaf runs —
/// the fair run replayed call by call, with the explorer's branch-point
/// snapshots along the first `depth` fires kept alive to the leaf's end.
pub fn traced(spec_: &ExploreSpec, budget: Duration) -> Outcome {
    let mut tally = Tally::default();
    let scenario = spec_.scenario();
    let fair = fair_run(spec_, &scenario, &mut tally);
    let mut first: Option<ExploreStats> = None;
    let mut explore_s = Vec::new();
    let mut samples: Vec<Layers> = Vec::new();
    let start = Instant::now();
    while explore_s.len() < 2 || start.elapsed() < budget {
        let t = Instant::now();
        let stats = spec_.explore(&scenario);
        explore_s.push(t.elapsed().as_secs_f64());
        tally.record(check(&stats, first.as_ref()));
        first.get_or_insert(stats);

        let mut problem = None;
        for _ in 0..LEAF_TRACES {
            let mut layers = Layers::default();
            let mut rt = build(&scenario, &mut layers);
            let set = rt.system().universe();
            let t = Instant::now();
            let q = rt.run_sustained(set, spec_.max_steps);
            layers.time("trace.untraced_s", t.elapsed());
            let mut rt_traced = build(&scenario, &mut Layers::default());
            let quiescent = trace::replay(
                &mut rt_traced,
                spec_.max_steps,
                Probes::FirstKept(spec_.depth as u64),
                &mut layers,
            );
            if let Err(e) =
                trace::final_layers(&rt_traced, quiescent, scenario.variant, 1, &mut layers)
            {
                problem.get_or_insert(e);
            }
            if !q || !quiescent || fold_words(&rt_traced) != fair.fold {
                problem.get_or_insert_with(|| {
                    "traced leaf fold_state differs from the untraced fair run".into()
                });
            }
            layers.count("trace.fidelity_checks", 1);
            samples.push(layers);
        }
        tally.record(problem);
    }
    let first = first.expect("at least one exploration");
    let mut traced = Traced::from_samples(&samples, &mut tally);
    for (name, v) in stats_counts(&first) {
        traced.counts.insert(name, v);
    }
    traced.times.insert("explore.s", median(&explore_s));
    let notes = vec![
        format!(
            "fig1 depth {}: explorations={} leaf traces={}",
            spec_.depth,
            explore_s.len(),
            traced.replays
        ),
        format!(
            "per-leaf costs; per-exploration counts runs={} steps={}",
            first.runs, first.steps_executed
        ),
    ];
    Outcome::new(tally, traced.metrics(), notes, traced.counts.clone())
}
