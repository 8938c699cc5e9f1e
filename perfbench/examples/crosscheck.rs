//! Same-host cross-check against the repository's `throughput` bin.
//!
//! Drains the bin's `large_tree_240` (batch 1) and `rand_64_dense`
//! (batch 16) descriptors — the same single instances the bin measures —
//! through this benchmark's build and drain path for two seconds each, and
//! prints deliveries per second over the median wall-clock drain.
//! Interleave it with the bin to compare the two on one host:
//!
//! ```bash
//! for i in 1 2 3 4 5; do
//!   cargo run --release -p gam-bench --bin throughput
//!   cargo run --release --manifest-path perfbench/Cargo.toml --example crosscheck
//! done
//! ```

use std::time::{Duration, Instant};

use gam_perfbench::serve::ServeSpec;
use gam_perfbench::{deliveries, median, Layers};

fn main() {
    let cases = [
        (
            "large_tree_240/b1",
            "gam-scn v1 family=randacyclic(240,2) seed=9 crash=isect(4) traffic=zipf(1100,480) \
             variant=standard budget=2000000",
            1,
        ),
        (
            "rand_64_dense/b16",
            "gam-scn v1 family=rand(64,8,450) seed=7 crash=none traffic=zipf(1200,512) \
             variant=standard budget=2000000",
            16,
        ),
    ];
    for (name, line, batch_max) in cases {
        let spec = ServeSpec::new(&[line.to_string()], batch_max, 1);
        let d = &spec.instances[0];
        let mut wall = Vec::new();
        let mut delivered = 0;
        let start = Instant::now();
        while wall.len() < 3 || start.elapsed() < Duration::from_secs(2) {
            let mut rt = spec.build(d, &mut Layers::default());
            let w = Instant::now();
            let quiescent = spec.drain(d, &mut rt);
            wall.push(w.elapsed().as_secs_f64());
            assert!(quiescent, "{name}: must quiesce");
            delivered = deliveries(&rt.report(true));
        }
        println!(
            "{name}: drains={} deliveries/s={:.0}",
            wall.len(),
            delivered as f64 / median(&wall)
        );
    }
}
