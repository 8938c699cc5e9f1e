//! Small-input runs of every workload shape: the deterministic counters of
//! a traced run repeat exactly from run to run, every run passes its
//! output checks, and both modes print exactly the metrics
//! `BENCHMARK.json` names.

use std::time::Duration;

use gam_perfbench::explore::{self, ExploreSpec};
use gam_perfbench::serve::{self, ServeSpec};
use gam_perfbench::{Outcome, Workload, END_TO_END, PER_LAYER};

/// Scaled-down instances of the three serve workloads: the same families,
/// crash plans, batching and drivers, sized to finish in well under a
/// second unoptimised.
fn small_serve() -> Vec<(&'static str, ServeSpec)> {
    let line = |family: &str, seed: u64, crash: &str, traffic: &str| {
        format!(
            "gam-scn v1 family={family} seed={seed} crash={crash} traffic={traffic} \
             variant=standard budget=2000000"
        )
    };
    vec![
        (
            "tree_crash",
            ServeSpec::new(
                &[
                    line("randacyclic(16,2)", 9, "isect(2)", "zipf(80,32)"),
                    line("randacyclic(16,2)", 10, "isect(2)", "zipf(80,32)"),
                ],
                1,
                1,
            ),
        ),
        (
            "dense",
            ServeSpec::new(&[line("rand(12,4,450)", 7, "none", "zipf(90,40)")], 16, 1),
        ),
        (
            "shards",
            ServeSpec::new(
                &[line("multichain(4,3,3)", 11, "none", "uniform(160)")],
                16,
                2,
            ),
        ),
    ]
}

fn small_explore() -> ExploreSpec {
    ExploreSpec {
        depth: 3,
        ..ExploreSpec::fig1()
    }
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.0).collect()
}

fn assert_clean(what: &str, outcome: &Outcome) {
    assert!(
        outcome.correct && outcome.failed == 0 && outcome.attempted > 0,
        "{what}: {:?}",
        outcome.problems
    );
}

#[test]
fn traced_counters_repeat_exactly() {
    for (what, spec) in small_serve() {
        let a = serve::traced(&spec, Duration::ZERO);
        let b = serve::traced(&spec, Duration::ZERO);
        assert_clean(what, &a);
        assert_clean(what, &b);
        assert_eq!(a.counts, b.counts, "{what}: counters differ between runs");
        for key in [
            "guards.evals",
            "apply.inject.n",
            "apply.deliver.n",
            "consensus.units",
            "digest.words",
            "snapshot.bytes_deep",
            "latency_ticks_p50",
            "latency_ticks_p99",
        ] {
            assert!(
                a.counts.get(key).copied().unwrap_or(0) > 0,
                "{what}: {key} is 0"
            );
        }
        let shards = a.counts.get("shard.count").copied().unwrap_or(0);
        if spec.threads > 1 {
            assert_eq!(shards, 4, "{what}: one shard per chain");
            // Traced replay plus phase replay, per instance.
            assert_eq!(a.counts.get("trace.fidelity_checks"), Some(&2));
        } else {
            assert!(shards >= 1, "{what}: shard count recorded");
        }
    }
    let spec = small_explore();
    let a = explore::traced(&spec, Duration::ZERO);
    let b = explore::traced(&spec, Duration::ZERO);
    assert_clean("explore", &a);
    assert_clean("explore", &b);
    assert_eq!(a.counts, b.counts, "explore: counters differ between runs");
    for key in [
        "explore.runs",
        "explore.steps_executed",
        "explore.snapshots",
    ] {
        assert!(
            a.counts.get(key).copied().unwrap_or(0) > 0,
            "explore: {key} is 0"
        );
    }
}

#[test]
fn timed_smoke_prints_every_end_to_end_metric() {
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let mut outcomes: Vec<(&str, Outcome)> = small_serve()
        .into_iter()
        .map(|(what, spec)| (what, serve::timed(&spec, Duration::ZERO)))
        .collect();
    outcomes.push(("explore", explore::timed(&small_explore(), Duration::ZERO)));
    for (what, outcome) in &outcomes {
        assert_clean(what, outcome);
        assert_eq!(names(outcome), want, "{what}");
        for (name, value, _) in &outcome.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{what}: {name} = {value}"
            );
        }
        let json = outcome.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(!json.contains('\n'), "one line");
    }
}

#[test]
fn traced_smoke_prints_every_per_layer_metric() {
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    let (what, spec) = small_serve().swap_remove(2);
    let outcome = serve::traced(&spec, Duration::ZERO);
    assert_clean(what, &outcome);
    assert_eq!(names(&outcome), want);
    for name in [
        "shard.record_s",
        "shard.merge_s",
        "guards.s",
        "apply.commit.s",
    ] {
        let v = outcome.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        assert!(v.is_some_and(|v| v > 0.0), "{name} measured: {v:?}");
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
        assert_eq!(w.serve_spec(3).is_none(), w == Workload::ExploreFig1);
    }
    assert_eq!(Workload::parse("serve"), None);
    let spec = Workload::ServeDense.serve_spec(2).expect("serve workload");
    let seeds: Vec<u64> = spec.instances.iter().map(|d| d.seed).collect();
    let k = serve::INSTANCES;
    assert_eq!(seeds, (2 * k..3 * k).collect::<Vec<_>>());
}
