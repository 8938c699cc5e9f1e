//! The three serve workloads: a preloaded backlog drained to quiescence.
//!
//! Closed loop: each measured run builds the runtime from the descriptor
//! (descriptor generation, `Runtime::new`, submission ingest — the set-up
//! time), then drains the whole backlog with the workload's driver. The
//! drain is the only thing on the clock; every check runs after it.

use std::time::{Duration, Instant};

use gam_core::{spec, Runtime, RuntimeConfig, ShardRun, ShardSpec};
use gam_engine::{run_sustained_par, shard_specs};
use gam_kernel::FailurePattern;
use gam_scenarios::ScnDescriptor;

use crate::trace::{self, Probes};
use crate::{
    deliveries, descriptor, fast_end, fold_words, latencies, quantile, quantile_u64, Digest,
    HostSpeed, Layers, Metric, Outcome, Tally, Traced, REFERENCE_KERNEL_S,
};

/// Descriptor instances per seed. Topology, crash plan and traffic all
/// follow the descriptor seed, and single instances of one family differ
/// by up to 40% in drain time; a pass over 32 of them keeps that input
/// variation from swamping the seed-to-seed comparison.
pub const INSTANCES: u64 = 32;

/// Snapshot probes a traced serve replay takes, spread evenly over the
/// drain.
const SERVE_PROBES: u64 = 16;

/// One serve workload: its descriptor instances and driver settings.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// The `gam-scn v1` descriptors (topology, crashes, traffic), one per
    /// instance.
    pub instances: Vec<ScnDescriptor>,
    /// Consensus batching width.
    pub batch_max: u32,
    /// Driver workers: 1 is `Runtime::run_sustained`, more is the sharded
    /// `run_sustained_par`.
    pub threads: usize,
}

impl ServeSpec {
    /// A spec from descriptor lines.
    pub fn new(lines: &[String], batch_max: u32, threads: usize) -> ServeSpec {
        ServeSpec {
            instances: lines.iter().map(|l| descriptor(l)).collect(),
            batch_max,
            threads,
        }
    }

    /// Builds the loaded runtime of instance `d`, timing the three set-up
    /// layers into `layers` (`scenarios.generate_s`, `core.new_s`,
    /// `core.multicast_s`).
    pub fn build(&self, d: &ScnDescriptor, layers: &mut Layers) -> Runtime {
        let t = Instant::now();
        let generated = d.generate();
        layers.time("scenarios.generate_s", t.elapsed());
        let t = Instant::now();
        let pattern = FailurePattern::from_crashes(generated.system.universe(), generated.crashes);
        let mut rt = Runtime::new(
            &generated.system,
            pattern,
            RuntimeConfig {
                variant: d.variant,
                batch_max: self.batch_max,
                ..RuntimeConfig::default()
            },
        );
        layers.time("core.new_s", t.elapsed());
        let t = Instant::now();
        for (src, g, payload) in generated.submissions {
            rt.multicast(src, g, payload);
        }
        layers.time("core.multicast_s", t.elapsed());
        rt
    }

    /// Drains `rt` (built from `d`) with the workload's driver; `true` on
    /// quiescence.
    pub fn drain(&self, d: &ScnDescriptor, rt: &mut Runtime) -> bool {
        let set = rt.system().universe();
        if self.threads > 1 {
            run_sustained_par(rt, set, d.budget, self.threads)
        } else {
            rt.run_sustained(set, d.budget)
        }
    }
}

/// What the reference drain of one instance established; every later run
/// of the instance is checked against it.
struct Reference {
    fold: Vec<u64>,
    deliveries: u64,
    fires: u64,
    latencies: Vec<u64>,
}

/// Builds, drains and fully checks one instance's reference run:
/// quiescence within the budget, `spec::check_all`, and — for the sharded
/// driver — identity with a sequential twin.
fn reference(spec_: &ServeSpec, d: &ScnDescriptor, tally: &mut Tally) -> Reference {
    let mut rt = spec_.build(d, &mut Layers::default());
    let quiescent = spec_.drain(d, &mut rt);
    let report = rt.report(quiescent);
    let mut problem = None;
    if !quiescent {
        problem = Some(format!("{}: did not quiesce within its budget", d.render()));
    } else if let Err(v) = spec::check_all(&report, d.variant) {
        problem = Some(format!("{}: spec violation {v:?}", d.render()));
    }
    let fold = fold_words(&rt);
    if spec_.threads > 1 {
        let mut twin = spec_.build(d, &mut Layers::default());
        let set = twin.system().universe();
        let seq = twin.run_sustained(set, d.budget);
        if seq != quiescent || fold_words(&twin) != fold {
            problem.get_or_insert_with(|| {
                format!("{}: sharded drain differs from run_sustained", d.render())
            });
        }
    }
    tally.record(problem);
    Reference {
        fold,
        deliveries: deliveries(&report),
        fires: report.actions_of.iter().sum(),
        latencies: latencies(&report),
    }
}

fn references(spec_: &ServeSpec, tally: &mut Tally) -> Vec<Reference> {
    spec_
        .instances
        .iter()
        .map(|d| reference(spec_, d, tally))
        .collect()
}

/// Timed mode: passes over every instance — build, then drain — for
/// `budget` of wall time, both on the wall clock and scaled to the
/// reference speed measured at the start of every pass ([`HostSpeed`]).
/// On `serve_shards` the drain is the sharded driver's elapsed time,
/// workers overlapped, so its critical path is what is measured.
///
/// An instance's time is its [`fast_end`] over the passes, and a pass's
/// time is the sum of those: hypervisor steal gaps and neighbours' bursts
/// that hit some drains of an instance do not move it. Peak RSS is read right
/// after the passes, before the reference runs and their spec checks
/// allocate; each drain's `fold_state` digest is checked against the
/// instance's first drain, and that one against the fully checked
/// reference run.
pub fn timed(spec_: &ServeSpec, budget: Duration) -> Outcome {
    let n = spec_.instances.len();
    let mut tally = Tally::default();
    let mut digests: Vec<Option<Digest>> = vec![None; n];
    let mut builds = vec![Vec::new(); n];
    let mut drains = vec![Vec::new(); n];
    let mut host = HostSpeed::default();
    let mut passes = 0usize;
    let start = Instant::now();
    while passes < 3 || start.elapsed() < budget {
        host.sample();
        for (i, d) in spec_.instances.iter().enumerate() {
            let t = Instant::now();
            let mut rt = spec_.build(d, &mut Layers::default());
            builds[i].push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let quiescent = spec_.drain(d, &mut rt);
            drains[i].push(t.elapsed().as_secs_f64());
            let digest = Digest::of_state(&rt);
            let ok = quiescent && *digests[i].get_or_insert(digest) == digest;
            tally.record(
                (!ok).then(|| format!("{}: drain diverged from its first drain", d.render())),
            );
        }
        passes += 1;
    }
    let peak_rss = host.program_peak_rss_mb();
    let refs = references(spec_, &mut tally);
    for ((d, r), digest) in spec_.instances.iter().zip(&refs).zip(&digests) {
        if Some(Digest::of_words(&r.fold)) != *digest {
            tally.record(Some(format!(
                "{}: timed drains differ from the checked reference run",
                d.render()
            )));
        }
    }
    let scale = host.scale();
    let instance_drain: Vec<f64> = drains.iter().map(|v| fast_end(v) * scale).collect();
    let pass_s: f64 = instance_drain.iter().sum();
    let setup_s = builds.iter().map(|v| fast_end(v)).sum::<f64>() * scale;
    // The tail over the backlog's instances, each at its fast-end drain: a
    // tail over repeated drains of one instance would mostly report how
    // often the host's bursts hit them, which the host decides.
    let drain_p90 = quantile(&instance_drain, 0.90);
    let deliveries: u64 = refs.iter().map(|r| r.deliveries).sum();
    let lat: Vec<u64> = refs
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let metrics: Vec<Metric> = vec![
        ("deliveries_per_s", deliveries as f64 / pass_s, "1/s"),
        ("drain_ms_p90", drain_p90 * 1e3, "ms"),
        (
            "latency_ticks_p50",
            quantile_u64(lat.clone(), 0.50) as f64,
            "ticks",
        ),
        ("latency_ticks_p99", quantile_u64(lat, 0.99) as f64, "ticks"),
        ("explore_s", pass_s, "s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss, "MB"),
    ];
    let instance_ms: Vec<String> = instance_drain
        .iter()
        .map(|t| format!("{:.2}", t * 1e3))
        .collect();
    let notes = vec![
        format!("first instance: {}", spec_.instances[0].render()),
        format!(
            "fast-end drain ms per instance at reference speed: {}",
            instance_ms.join(" ")
        ),
        format!(
            "pass: {:.2} ms at reference speed; unscaled {:.2} ms fast end, {:.2} ms median \
             (sums over instances); reference kernel {:.4} ms (reference {:.4} ms)",
            pass_s * 1e3,
            pass_s / scale * 1e3,
            drains.iter().map(|v| crate::median(v)).sum::<f64>() * 1e3,
            host.kernel_s() * 1e3,
            REFERENCE_KERNEL_S * 1e3
        ),
        format!(
            "instances={} batch_max={} threads={} passes={passes} drains={} deliveries/pass={}",
            n,
            spec_.batch_max,
            spec_.threads,
            passes * n,
            deliveries
        ),
    ];
    Outcome::new(tally, metrics, notes, Default::default())
}

/// Replays the sharded driver's phases on instance `d` single-threaded,
/// with a stopwatch on each: `shard_specs`, one `Runtime::clone` per
/// worker, `run_shard_record` per shard (in the driver's worker
/// assignment), and `commit_merge`; then `run_sustained` on a twin as the
/// reference. Returns the merged state's fold, checked equal to the
/// twin's.
fn shard_phases(
    spec_: &ServeSpec,
    d: &ScnDescriptor,
    layers: &mut Layers,
) -> Result<Vec<u64>, String> {
    let mut base = spec_.build(d, &mut Layers::default());
    let set = base.system().universe();
    let max_actions = d.budget;
    let t = Instant::now();
    let specs = shard_specs(&base, set);
    layers.time("shard.specs_s", t.elapsed());
    layers.count("shard.count", specs.len() as u64);
    let live: Vec<ShardSpec> = specs.into_iter().filter(|s| !s.pids.is_empty()).collect();
    if !base.par_eligible() || live.len() <= 1 || spec_.threads <= 1 {
        return Err("workload is not eligible for the sharded driver".into());
    }
    let workers = spec_.threads.min(live.len());
    let mut clones = Vec::with_capacity(workers);
    for _ in 0..workers {
        let t = Instant::now();
        clones.push(base.clone());
        layers.time("shard.clone_s", t.elapsed());
    }
    let mut runs: Vec<Vec<ShardRun>> = vec![Vec::new(); workers];
    let mut worker_s = vec![0.0f64; workers];
    let mut fired = 0u64;
    for (i, shard) in live.iter().enumerate() {
        let w = i % workers;
        let t = Instant::now();
        let run = clones[w].run_shard_record(&shard.pids, || {
            fired += 1;
            fired <= max_actions
        });
        let took = t.elapsed();
        layers.time("shard.record_s", took);
        worker_s[w] += took.as_secs_f64();
        runs[w].push(run);
    }
    layers.time(
        "shard.record_max_worker_s",
        Duration::from_secs_f64(worker_s.iter().copied().fold(0.0, f64::max)),
    );
    let quiesced = runs.iter().flatten().all(|r| r.quiesced);
    let total: u64 = runs
        .iter()
        .flatten()
        .map(|r| r.fired_slots.len() as u64)
        .sum();
    if !quiesced || total >= max_actions {
        return Err("a shard did not quiesce within the budget".into());
    }
    let mut parts: Vec<(&Runtime, &ShardSpec, &ShardRun)> = Vec::with_capacity(live.len());
    for (w, clone) in clones.iter().enumerate() {
        for (j, run) in runs[w].iter().enumerate() {
            parts.push((clone, &live[w + j * workers], run));
        }
    }
    let t = Instant::now();
    base.commit_merge(&parts);
    layers.time("shard.merge_s", t.elapsed());

    let mut twin = spec_.build(d, &mut Layers::default());
    let t = Instant::now();
    let seq = twin.run_sustained(set, max_actions);
    layers.time("shard.seq_ref_s", t.elapsed());
    let merged = fold_words(&base);
    if !seq || fold_words(&twin) != merged {
        return Err("merged shard replay differs from its run_sustained twin".into());
    }
    Ok(merged)
}

/// One traced pass over instance `d`: an untraced sequential drain, the
/// traced replay, and on the sharded workload the phase replay, each
/// checked against the instance's reference. Adds into `layers`.
fn traced_instance(
    spec_: &ServeSpec,
    d: &ScnDescriptor,
    r: &Reference,
    layers: &mut Layers,
) -> Option<String> {
    let mut rt = spec_.build(d, &mut Layers::default());
    let set = rt.system().universe();
    let t = Instant::now();
    let q = rt.run_sustained(set, d.budget);
    layers.time("trace.untraced_s", t.elapsed());
    let mut problem = (!q || fold_words(&rt) != r.fold).then(|| {
        format!(
            "{}: untraced sequential drain differs from the reference",
            d.render()
        )
    });

    let mut rt = spec_.build(d, layers);
    let every = (r.fires / SERVE_PROBES).max(1);
    let quiescent = trace::replay(&mut rt, d.budget, Probes::Every(every), layers);
    if let Err(e) = trace::final_layers(&rt, quiescent, d.variant, spec_.batch_max, layers) {
        problem.get_or_insert(e);
    }
    if !quiescent || fold_words(&rt) != r.fold {
        problem.get_or_insert_with(|| {
            format!(
                "{}: traced replay fold_state differs from untraced",
                d.render()
            )
        });
    }
    layers.count("trace.fidelity_checks", 1);

    if spec_.threads > 1 {
        match shard_phases(spec_, d, layers) {
            Ok(merged) if merged == r.fold => layers.count("trace.fidelity_checks", 1),
            Ok(_) => {
                problem.get_or_insert_with(|| {
                    format!(
                        "{}: shard phase replay differs from the reference",
                        d.render()
                    )
                });
            }
            Err(e) => {
                problem.get_or_insert(format!("{}: {e}", d.render()));
            }
        }
    } else {
        layers.count("shard.count", shard_specs(&rt, set).len() as u64);
    }
    problem
}

/// Traced mode: traced passes over every instance for `budget` of wall
/// time; reports the per-layer metrics as per-pass totals (counters from
/// the first pass, times as medians over passes).
pub fn traced(spec_: &ServeSpec, budget: Duration) -> Outcome {
    let mut tally = Tally::default();
    let refs = references(spec_, &mut tally);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 2 || start.elapsed() < budget {
        let mut layers = Layers::default();
        for (d, r) in spec_.instances.iter().zip(&refs) {
            tally.record(traced_instance(spec_, d, r, &mut layers));
        }
        samples.push(layers);
    }
    let traced = Traced::from_samples(&samples, &mut tally);
    let notes = vec![
        format!("first instance: {}", spec_.instances[0].render()),
        format!(
            "instances={} batch_max={} threads={} traced passes={} snapshot probes/instance={SERVE_PROBES}",
            spec_.instances.len(),
            spec_.batch_max,
            spec_.threads,
            traced.replays
        ),
    ];
    Outcome::new(tally, traced.metrics(), notes, traced.counts)
}
