//! # gam-perfbench — one benchmark for serving and exploration
//!
//! Four named workloads drive the genuine atomic multicast stack from the
//! outside, through the crates' public functions only:
//!
//! - `serve_tree_crash`, `serve_dense`, `serve_shards`: a preloaded
//!   backlog drained to quiescence by the sustained-load drivers
//!   ([`gam_core::Runtime::run_sustained`] and
//!   [`gam_engine::run_sustained_par`]), closed loop;
//! - `explore_fig1`: the paper's Figure 1 instance explored exhaustively to
//!   choice depth 5 by the snapshotting DFS engine with POR and dedup.
//!
//! A *timed* run ([`Mode::Timed`]) measures the end-to-end metrics with no
//! tracing. A *traced* run ([`Mode::Traced`]) replays the same work with a
//! stopwatch around every call into a layer (setup, guard evaluation,
//! `apply` by Algorithm 1 line, waiting, snapshots, digest, spec oracle,
//! shard phases, exploration counters) and reports the per-layer metrics.
//! Both modes check every output off the clock; a run that fails a check
//! counts in `failed`.
//!
//! See `README.md` next to this crate for the workloads' rationale and
//! the per-layer to end-to-end map.

#![forbid(unsafe_code)]

pub mod explore;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gam_core::{RunReport, Runtime};
use gam_scenarios::ScnDescriptor;

/// The benchmark's workloads. `BENCHMARK.json` names `serve_shards` and
/// `explore_fig1`; the other two run from the same command line but moved
/// with the host more than a bound can allow (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 240-group random tree, four crashes, unbatched, sequential driver.
    ServeTreeCrash,
    /// Dense cyclic 64-process topology, `batch_max = 16`, sequential.
    ServeDense,
    /// Eight-component chain forest, uniform traffic, two shard workers.
    ServeShards,
    /// Figure 1, exhaustive DFS to depth 5, one thread, POR and dedup on.
    ExploreFig1,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ServeTreeCrash,
        Workload::ServeDense,
        Workload::ServeShards,
        Workload::ExploreFig1,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeTreeCrash => "serve_tree_crash",
            Workload::ServeDense => "serve_dense",
            Workload::ServeShards => "serve_shards",
            Workload::ExploreFig1 => "explore_fig1",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serve input of a serve workload for seed `seed`: the
    /// descriptor instances with descriptor seeds `seed·k .. seed·k + k`
    /// for `k` = [`serve::INSTANCES`]. `None` for the exploration workload.
    pub fn serve_spec(self, seed: u64) -> Option<serve::ServeSpec> {
        let (family, crash, traffic, budget, batch_max, threads) = match self {
            Workload::ServeTreeCrash => (
                "randacyclic(240,2)",
                "isect(4)",
                "zipf(1100,480)",
                2_000_000,
                1,
                1,
            ),
            Workload::ServeDense => ("rand(64,8,450)", "none", "zipf(1200,512)", 2_000_000, 16, 1),
            Workload::ServeShards => (
                "multichain(8,4,4)",
                "none",
                "uniform(4096)",
                20_000_000,
                16,
                2,
            ),
            Workload::ExploreFig1 => return None,
        };
        let k = serve::INSTANCES;
        let lines: Vec<String> = (0..k)
            .map(|i| {
                let s = seed.wrapping_mul(k).wrapping_add(i);
                format!(
                    "gam-scn v1 family={family} seed={s} crash={crash} traffic={traffic} \
                     variant=standard budget={budget}"
                )
            })
            .collect();
        Some(serve::ServeSpec::new(&lines, batch_max, threads))
    }
}

/// Timed (end-to-end metrics) or traced (per-layer metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced runs; end-to-end metrics.
    Timed,
    /// Stopwatch-instrumented replays; per-layer metrics.
    Traced,
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("deliveries_per_s", "1/s"),
    ("drain_ms_p90", "ms"),
    ("latency_ticks_p50", "ticks"),
    ("latency_ticks_p99", "ticks"),
    ("explore_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
/// Every workload prints all of them; a layer the workload bypasses reads
/// 0 (no shard phases outside `serve_shards`, no explorer counters outside
/// `explore_fig1`).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("scenarios.generate_s", "s"),
    ("core.new_s", "s"),
    ("core.multicast_s", "s"),
    ("guards.evals", "count"),
    ("guards.hit_ratio", "ratio"),
    ("guards.s", "s"),
    ("apply.inject.n", "count"),
    ("apply.inject.s", "s"),
    ("apply.pending.n", "count"),
    ("apply.pending.s", "s"),
    ("apply.commit.n", "count"),
    ("apply.commit.s", "s"),
    ("apply.stabilize.n", "count"),
    ("apply.stabilize.s", "s"),
    ("apply.stable.n", "count"),
    ("apply.stable.s", "s"),
    ("apply.deliver.n", "count"),
    ("apply.deliver.s", "s"),
    ("driver.steps", "count"),
    ("driver.idle_ticks", "count"),
    ("driver.wait_s", "s"),
    ("consensus.units", "count"),
    ("consensus.batch_mean", "msgs/unit"),
    ("consensus.full_share", "ratio"),
    ("snapshot.clone_s", "s"),
    ("snapshot.first_write_s", "s"),
    ("snapshot.bytes_copied", "B"),
    ("snapshot.bytes_deep", "B"),
    ("digest.fold_s", "s"),
    ("digest.words", "count"),
    ("spec.report_s", "s"),
    ("spec.check_s", "s"),
    ("shard.count", "count"),
    ("shard.specs_s", "s"),
    ("shard.clone_s", "s"),
    ("shard.record_s", "s"),
    ("shard.record_max_worker_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.seq_ref_s", "s"),
    ("explore.runs", "count"),
    ("explore.steps_executed", "count"),
    ("explore.steps_avoided", "count"),
    ("explore.snapshots", "count"),
    ("explore.snapshot_bytes", "B"),
    ("explore.snapshot_bytes_deep", "B"),
    ("explore.por_pruned", "count"),
    ("explore.dedup_hits", "count"),
    ("explore.dedup_hit_ratio", "ratio"),
    ("explore.steps_per_s", "1/s"),
    ("trace.replay_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.samples", "count"),
    ("trace.fidelity_checks", "count"),
];

/// Pass/fail bookkeeping: every run the benchmark makes is one attempt,
/// failed when any of its output checks fails.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed at least one check.
    pub failed: u64,
    /// What failed, for stderr.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one run; `problem` is `None` when every check passed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems.push(p);
            }
        }
    }
}

/// Deterministic counters and stopwatch totals of one traced replay. The
/// counters must repeat exactly from replay to replay and run to run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers {
    /// Deterministic counts, by metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Seconds spent in each layer, by metric name.
    pub times: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `n` to a counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Adds `d` to a stopwatch total.
    pub fn time(&mut self, name: &'static str, d: Duration) {
        *self.times.entry(name).or_insert(0.0) += d.as_secs_f64();
    }

    /// A stopwatch total, 0 when absent.
    pub fn t(&self, name: &str) -> f64 {
        self.times.get(name).copied().unwrap_or(0.0)
    }
}

/// The per-layer result of a traced run: the deterministic counters (from
/// the first replay; every later replay must match them exactly), the
/// per-replay median of every stopwatch total, and the replay count.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Counters of the first replay.
    pub counts: BTreeMap<&'static str, u64>,
    /// Median over replays of each stopwatch total.
    pub times: BTreeMap<&'static str, f64>,
    /// Replays made.
    pub replays: u64,
}

impl Traced {
    /// Folds per-replay samples into counts and median times; a replay whose
    /// counters differ from the first one's is reported through `tally`.
    pub fn from_samples(samples: &[Layers], tally: &mut Tally) -> Traced {
        let first = samples.first().expect("at least one traced replay");
        for (i, s) in samples.iter().enumerate().skip(1) {
            if s.counts != first.counts {
                let diverged = s
                    .counts
                    .iter()
                    .find(|(k, v)| first.counts.get(*k) != Some(v))
                    .map_or("<missing>", |(k, _)| k);
                tally.record(Some(format!(
                    "traced replay {i}: counter {diverged} differs from replay 0"
                )));
            }
        }
        let mut names: Vec<&'static str> = samples
            .iter()
            .flat_map(|s| s.times.keys().copied())
            .collect();
        names.sort_unstable();
        names.dedup();
        let times = names
            .into_iter()
            .map(|n| {
                let v: Vec<f64> = samples.iter().map(|s| s.t(n)).collect();
                (n, median(&v))
            })
            .collect();
        Traced {
            counts: first.counts.clone(),
            times,
            replays: samples.len() as u64,
        }
    }

    fn c(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    fn t(&self, name: &str) -> f64 {
        self.times.get(name).copied().unwrap_or(0.0)
    }

    /// Renders the [`PER_LAYER`] table: counters and times by name, ratios
    /// derived from counters.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "guards.hit_ratio" => ratio(self.c("guards.hits"), self.c("guards.evals")),
                    "consensus.batch_mean" => {
                        ratio(self.c("consensus.msgs"), self.c("consensus.units"))
                    }
                    "consensus.full_share" => {
                        ratio(self.c("consensus.full"), self.c("consensus.units"))
                    }
                    // Mean cost of one snapshot probe.
                    "snapshot.clone_s" | "snapshot.first_write_s" => {
                        ratio(self.t(name), self.c("snapshot.probes"))
                    }
                    "explore.dedup_hit_ratio" => {
                        ratio(self.c("explore.dedup_hits"), self.c("explore.runs"))
                    }
                    "explore.steps_per_s" => {
                        ratio(self.c("explore.steps_executed"), self.t("explore.s"))
                    }
                    "trace.overhead_s" => self.t("trace.replay_s") - self.t("trace.untraced_s"),
                    "trace.samples" => self.replays as f64,
                    _ if unit == "s" => self.t(name),
                    _ => self.c(name),
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `v` (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The quantile [`fast_end`] takes.
pub const FAST_END: f64 = 0.02;

/// The fast end of repeated timings of the same work: their 2nd
/// percentile (nearest rank).
///
/// On the oversubscribed host the bounds were set on, neighbours slow the
/// benchmark down in bursts of a few hundred milliseconds: sixty
/// consecutive explorations of the fixed `fig1` tree took 334 to 540 ms
/// within 26 s, with no steal time. The median of a run moves with how
/// much of it fell in bursts; the fast end is the time the work takes
/// between them. Noise only ever adds time, so the fast end sits low; it
/// is not the minimum, so that one lucky timing does not set it.
pub fn fast_end(v: &[f64]) -> f64 {
    quantile(v, FAST_END)
}

/// The nearest-rank `q`-quantile of integer samples.
///
/// # Panics
///
/// Panics on an empty vector.
pub fn quantile_u64(mut v: Vec<u64>, q: f64) -> u64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Submission-to-local-delivery latencies, in ticks, of every delivery of
/// a report.
pub fn latencies(report: &RunReport) -> Vec<u64> {
    report
        .delivered
        .iter()
        .flatten()
        .map(|d| d.at.0 - report.multicast_at[d.msg.0 as usize].0)
        .collect()
}

/// Delivery events of a report (per-process local deliveries).
pub fn deliveries(report: &RunReport) -> u64 {
    report.delivered.iter().map(|d| d.len() as u64).sum()
}

/// The full `fold_state` word stream of a runtime — the byte-identity
/// witness the fidelity checks compare.
pub fn fold_words(rt: &Runtime) -> Vec<u64> {
    let mut out = Vec::new();
    rt.fold_state(&mut |w| out.push(w));
    out
}

/// A 128-bit digest of a `fold_state` word stream (two independent
/// multiply-xorshift lanes plus the length): compact enough to keep one
/// per instance through a timed run, and computed without materialising
/// the stream, so the check adds nothing to the measured peak RSS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    lanes: [u64; 2],
    len: u64,
}

impl Digest {
    fn push(&mut self, w: u64) {
        let [a, b] = self.lanes;
        let a = (a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let b = (b.rotate_left(23) ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        self.lanes = [a ^ (a >> 29), b ^ (b >> 32)];
        self.len += 1;
    }

    fn empty() -> Digest {
        Digest {
            lanes: [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344],
            len: 0,
        }
    }

    /// The digest of a materialised word stream.
    pub fn of_words(words: &[u64]) -> Digest {
        let mut d = Digest::empty();
        words.iter().for_each(|&w| d.push(w));
        d
    }

    /// The digest of a runtime's `fold_state` stream.
    pub fn of_state(rt: &Runtime) -> Digest {
        let mut d = Digest::empty();
        rt.fold_state(&mut |w| d.push(w));
        d
    }
}

/// Parses a descriptor line the benchmark itself wrote.
///
/// # Panics
///
/// Panics if the line does not parse — the templates are constants.
pub fn descriptor(line: &str) -> ScnDescriptor {
    ScnDescriptor::parse(line).expect("benchmark descriptor templates are valid")
}

/// What one invocation of the benchmark reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (sample counts, descriptors), printed before
    /// the result line.
    pub notes: Vec<String>,
    /// The failed checks.
    pub problems: Vec<String>,
    /// The deterministic counters of a traced run (empty when timed).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Assembles an outcome from a tally and metrics.
    pub fn new(
        tally: Tally,
        metrics: Vec<Metric>,
        notes: Vec<String>,
        counts: BTreeMap<&'static str, u64>,
    ) -> Outcome {
        Outcome {
            correct: tally.failed == 0 && tally.attempted > 0,
            attempted: tally.attempted.max(1),
            failed: if tally.attempted == 0 {
                1
            } else {
                tally.failed
            },
            metrics,
            notes,
            problems: tally.problems,
            counts,
        }
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Runs `workload` for about `seconds` seconds in `mode`, with descriptor
/// seed `seed` (ignored by the fixed `explore_fig1` instance).
pub fn run(workload: Workload, seed: u64, seconds: f64, mode: Mode) -> Outcome {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    match workload.serve_spec(seed) {
        Some(spec) => match mode {
            Mode::Timed => serve::timed(&spec, budget),
            Mode::Traced => serve::traced(&spec, budget),
        },
        None => {
            let spec = explore::ExploreSpec::fig1();
            match mode {
                Mode::Timed => explore::timed(&spec, budget),
                Mode::Traced => explore::traced(&spec, budget),
            }
        }
    }
}

/// Wall seconds one reference-kernel run takes at the reference speed: a
/// round figure near its fast end on the host the bounds were set on
/// (2.3 ms). Timed metrics are scaled to this speed (see [`HostSpeed`]).
pub const REFERENCE_KERNEL_S: f64 = 0.002;

/// Reference-kernel runs in one [`HostSpeed::sample`].
const KERNEL_RUNS: usize = 4;

/// Dependent loads in one reference-kernel run.
const KERNEL_LOADS: usize = 100_000;

/// Entries of the reference kernel's table: 4 MiB of `u32`.
const KERNEL_TABLE_LEN: usize = 1 << 20;

/// Host speed over a timed run, from reference-kernel samples taken at the
/// start of every pass (serve) or exploration.
///
/// On a 2-vCPU virtual machine of an oversubscribed host, the host's other
/// tenants change how fast the benchmark's code runs by up to 60% for
/// minutes at a time, longer than any fast end can wait out. So a timed
/// metric is reported as the measured time × [`REFERENCE_KERNEL_S`] ÷ the
/// kernel's [`fast_end`] time over the run: the time the work would have
/// taken at the reference speed.
///
/// The kernel is a pointer chase: 100,000 dependent loads through a random
/// single-cycle permutation of 4 MiB, built once per run with a fixed
/// seed. Every run walks the same path, whose 3.3 MB of cache lines
/// overflow the 2 MiB L2, so each load misses the L2 wherever the
/// previous run or the program under test left it. The kernel is fixed
/// work independent of every crate under test, allocates nothing and has
/// no indirect branches, so neither the program's code layout nor the
/// cache state a drain leaves behind moves it; what moves it is the host:
/// clock speed, and the shared L3 that the neighbours contend for. Its
/// table is left out of `peak_rss_mb`.
pub struct HostSpeed {
    next: Vec<u32>,
    samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        // Sattolo's shuffle: one cycle through every entry, so the chase
        // never settles into a short, cached loop.
        let mut next: Vec<u32> = (0..KERNEL_TABLE_LEN as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..next.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        HostSpeed {
            next,
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// One run of the reference kernel.
    fn kernel(&self) -> u32 {
        let mut i = 0u32;
        for _ in 0..KERNEL_LOADS {
            i = self.next[i as usize];
        }
        i
    }

    /// Runs and times the reference kernel [`KERNEL_RUNS`] times.
    pub fn sample(&mut self) {
        for _ in 0..KERNEL_RUNS {
            let t = Instant::now();
            std::hint::black_box(self.kernel());
            self.samples.push(t.elapsed().as_secs_f64());
        }
    }

    /// The kernel's [`fast_end`] time over the samples, in seconds.
    pub fn kernel_s(&self) -> f64 {
        fast_end(&self.samples)
    }

    /// The factor that scales a time measured over the samples' stretch to
    /// the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_KERNEL_S / self.kernel_s()
    }

    /// Peak RSS of the process without the kernel's table, in MiB: the
    /// table is the benchmark's, not the program's.
    pub fn program_peak_rss_mb(&self) -> f64 {
        let table = (self.next.len() * std::mem::size_of::<u32>()) as f64;
        (peak_rss_mb() - table / (1024.0 * 1024.0)).max(0.0)
    }
}

/// Peak resident set size of this process image so far, in MiB: the
/// `VmHWM` line of `/proc/self/status`, 0 where unavailable.
///
/// Not `getrusage`'s `ru_maxrss`: Linux carries that across `execve`, so
/// a benchmark started by `cargo run` would report cargo's own peak when
/// it is the larger.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
