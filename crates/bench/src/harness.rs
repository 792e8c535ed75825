//! A minimal, dependency-free micro-benchmark harness for the `[[bench]]`
//! targets (`harness = false` in the manifest).
//!
//! Each measurement auto-calibrates the per-sample iteration count to a
//! target wall-clock budget, takes several samples and reports the median —
//! robust enough for the coarse "model is orders of magnitude cheaper than
//! simulation" comparisons this workspace cares about, with no third-party
//! framework needed.
//!
//! ```
//! let mut runner = rlc_bench::harness::Runner::new("demo");
//! runner.bench("add", || std::hint::black_box(1u64 + 2));
//! ```

use std::time::{Duration, Instant};

/// Collects and prints measurements for one benchmark target.
#[derive(Debug)]
pub struct Runner {
    target: String,
    samples: usize,
    budget: Duration,
}

impl Runner {
    /// Creates a runner with the default fidelity (9 samples, ~40 ms per
    /// sample).
    pub fn new(target: &str) -> Self {
        println!("benchmark target: {target}");
        Runner {
            target: target.to_string(),
            samples: 9,
            budget: Duration::from_millis(40),
        }
    }

    /// Lowers the fidelity for expensive benchmarks (3 samples, one
    /// measured call per sample when calibration says so).
    pub fn slow(mut self) -> Self {
        self.samples = 3;
        self.budget = Duration::from_millis(10);
        self
    }

    /// The target name this runner reports under.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Measures `f` and prints `name: <median> per iter (<samples> samples x
    /// <iters> iters)`. Returns the median duration per iteration.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) -> Duration {
        // Warm-up and calibration: find an iteration count filling the budget.
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (self.budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;

        let mut per_iter: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                start.elapsed() / iters
            })
            .collect();
        per_iter.sort();
        let median = per_iter[per_iter.len() / 2];
        println!(
            "  {name}: {} per iter ({} samples x {iters} iters)",
            format_duration(median),
            self.samples,
        );
        median
    }
}

/// Formats a duration with an SI prefix suited to its magnitude.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_a_plausible_median() {
        let mut runner = Runner::new("harness-self-test").slow();
        let d = runner.bench("spin", || {
            // An opaque bound keeps release builds from folding the loop
            // into a constant.
            let mut acc = 0u64;
            for i in 0..std::hint::black_box(100u64) {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(d > Duration::ZERO);
        assert!(d < Duration::from_millis(100));
        assert_eq!(runner.target(), "harness-self-test");
    }

    #[test]
    fn durations_format_with_si_prefixes() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert!(format_duration(Duration::from_micros(50)).ends_with("us"));
        assert!(format_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(format_duration(Duration::from_secs(20)).ends_with('s'));
    }
}
