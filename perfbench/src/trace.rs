//! The outside-in traced replay of the sustained round-robin driver.
//!
//! [`replay`] re-implements `Runtime::run_sustained` with its own cursor,
//! out of the runtime's public stepping calls, and puts a stopwatch
//! around each call:
//!
//! - `describe_enabled(ProcessSet::singleton(p))` is guard evaluation; its
//!   first entry is the minimum enabled action, the one `run_sustained`
//!   fires, so its [`ActionKind`] names the Algorithm 1 line that
//!   `fire_enabled(p, 0)` is about to apply;
//! - `fire_enabled(p, 0)` is `apply`, split by action kind;
//! - `has_obligations` and `idle_tick` are waiting on detector output.
//!
//! The replay must end in a state whose `fold_state` is identical to the
//! untraced driver's; the callers check that.

use std::time::{Duration, Instant};

use gam_core::{spec, ActionDesc, ActionKind, Runtime, Variant};
use gam_kernel::{ProcessId, ProcessSet};

use crate::Layers;

/// When the replay takes snapshot probes: a probe clones the runtime just
/// before a fire and times that fire, the first write after the clone.
#[derive(Debug, Clone, Copy)]
pub enum Probes {
    /// A probe before every `every`-th fire; each clone is dropped right
    /// after the fire it precedes (a serving path that checkpoints now and
    /// then).
    Every(u64),
    /// A probe before each of the first `n` fires, every clone kept alive
    /// until the replay ends (the explorer's stack of branch-point
    /// snapshots along one leaf path).
    FirstKept(u64),
}

/// Per-kind metric names: `(count, seconds)`.
fn apply_names(kind: ActionKind) -> (&'static str, &'static str) {
    match kind {
        ActionKind::Inject => ("apply.inject.n", "apply.inject.s"),
        ActionKind::Pending => ("apply.pending.n", "apply.pending.s"),
        ActionKind::Commit => ("apply.commit.n", "apply.commit.s"),
        ActionKind::Stabilize => ("apply.stabilize.n", "apply.stabilize.s"),
        ActionKind::Stable => ("apply.stable.n", "apply.stable.s"),
        ActionKind::Deliver => ("apply.deliver.n", "apply.deliver.s"),
    }
}

/// Replays `run_sustained(universe, max_actions)` on `rt` with per-call
/// stopwatches, adding into `layers`. Returns `true` on quiescence, as the
/// driver does.
pub fn replay(rt: &mut Runtime, max_actions: u64, probes: Probes, layers: &mut Layers) -> bool {
    let set = rt.system().universe();
    let n = set.iter().map(|p| p.index() + 1).max().unwrap_or(0);
    let mut descs: Vec<ActionDesc> = Vec::new();
    let mut kept: Vec<Runtime> = Vec::new();
    let mut cursor = 0usize;
    let mut taken = 0u64;
    let mut fires = 0u64;
    let mut guards = Duration::ZERO;
    let mut wait = Duration::ZERO;
    let mut evals = 0u64;
    let start = Instant::now();
    let quiescent = 'steps: loop {
        if taken >= max_actions {
            break false;
        }
        for off in 0..n {
            let idx = (cursor + off) % n;
            let p = ProcessId(idx as u32);
            if !set.contains(p) || rt.pattern().is_crashed(p, rt.now()) {
                continue;
            }
            let t = Instant::now();
            rt.describe_enabled(ProcessSet::singleton(p), &mut descs);
            guards += t.elapsed();
            evals += 1;
            let Some(first) = descs.first() else { continue };
            let kind = first.kind;
            cursor = (idx + 1) % n;
            let probe = match probes {
                Probes::Every(every) => fires.is_multiple_of(every),
                Probes::FirstKept(k) => fires < k,
            };
            let mut snap = None;
            if probe {
                let t = Instant::now();
                let clone = rt.clone();
                layers.time("snapshot.clone_s", t.elapsed());
                let (copied, deep) = rt.snapshot_cost_bytes();
                layers.count("snapshot.bytes_copied", copied);
                layers.count("snapshot.bytes_deep", deep);
                layers.count("snapshot.probes", 1);
                snap = Some(clone);
            }
            let t = Instant::now();
            rt.fire_enabled(p, 0);
            let took = t.elapsed();
            let (n_name, s_name) = apply_names(kind);
            layers.count(n_name, 1);
            layers.time(s_name, took);
            if let Some(clone) = snap {
                layers.time("snapshot.first_write_s", took);
                if matches!(probes, Probes::FirstKept(_)) {
                    kept.push(clone);
                }
            }
            fires += 1;
            taken += 1;
            continue 'steps;
        }
        let t = Instant::now();
        let owed = rt.has_obligations(set);
        if owed {
            rt.idle_tick();
        }
        wait += t.elapsed();
        if !owed {
            break true;
        }
        layers.count("driver.idle_ticks", 1);
        taken += 1;
    };
    layers.time("trace.replay_s", start.elapsed());
    drop(kept);
    layers.count("driver.steps", fires);
    layers.count("guards.evals", evals);
    layers.count("guards.hits", fires);
    layers.time("guards.s", guards);
    layers.time("driver.wait_s", wait);
    quiescent
}

/// Times the layers read off a finished run: consensus occupancy, the
/// state digest fold, and the spec oracle. Returns the report's spec
/// verdict (`Err` carries the violation).
pub fn final_layers(
    rt: &Runtime,
    quiescent: bool,
    variant: Variant,
    batch_max: u32,
    layers: &mut Layers,
) -> Result<(), String> {
    let hist = rt.unit_width_histogram();
    let units: u64 = hist.iter().sum();
    let msgs: u64 = hist.iter().enumerate().map(|(w, n)| w as u64 * n).sum();
    let full = hist.get(batch_max.max(1) as usize).copied().unwrap_or(0);
    layers.count("consensus.units", units);
    layers.count("consensus.msgs", msgs);
    layers.count("consensus.full", full);

    let mut words = 0u64;
    let mut acc = 0u64;
    let t = Instant::now();
    rt.fold_state(&mut |w| {
        words += 1;
        acc = acc.rotate_left(5) ^ w;
    });
    layers.time("digest.fold_s", t.elapsed());
    std::hint::black_box(acc);
    layers.count("digest.words", words);

    let t = Instant::now();
    let report = rt.report(quiescent);
    layers.time("spec.report_s", t.elapsed());
    let t = Instant::now();
    let verdict = spec::check_all(&report, variant);
    layers.time("spec.check_s", t.elapsed());
    let lat = crate::latencies(&report);
    if !lat.is_empty() {
        layers.count("latency_ticks_p50", crate::quantile_u64(lat.clone(), 0.50));
        layers.count("latency_ticks_p99", crate::quantile_u64(lat, 0.99));
    }
    verdict.map_err(|v| format!("spec violation: {v:?}"))
}
