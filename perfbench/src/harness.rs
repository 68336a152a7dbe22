//! Timing loop, failure accounting and the result line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::stats::{median, self_status_kb};

/// Runs `f`, turning a panic into an `Err` so it counts as a failed op.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Host seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Attempted and failed ops of one run, plus the host time of each op
/// that succeeded.
#[derive(Debug, Default)]
pub struct Ops {
    /// Wall seconds of each successful op, in run order.
    pub walls: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that panicked, returned an error or produced a wrong output.
    pub failed: u64,
}

impl Ops {
    /// Counts one op's outcome, logging a failure to stderr.
    pub fn note<T>(&mut self, what: &str, wall: f64, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => {
                self.walls.push(wall);
                Some(value)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// The result line: correct when no op failed and the run `produced`
    /// its outputs.
    pub fn outcome(&self, produced: bool, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            correct: produced && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }

    /// Median wall time of the successful ops (0 when none succeeded).
    pub fn median_wall(&self) -> f64 {
        median(&self.walls).unwrap_or(0.0)
    }
}

/// The repeated set-ups of one run.
struct SetUps<F> {
    setup: F,
    /// Set-ups per batch.
    reps: usize,
    /// Host seconds of each set-up, in run order.
    times: Vec<f64>,
    attempted: u64,
    failed: bool,
}

impl<F> SetUps<F> {
    /// Runs a batch of set-ups back to back and returns the newest
    /// product; `None` once a set-up has failed, which fails the run.
    fn batch<S>(&mut self) -> Option<S>
    where
        F: FnMut() -> Result<S, String>,
    {
        let mut product = None;
        for _ in 0..self.reps.max(1) {
            if self.failed {
                return None;
            }
            // One product of the batch alive at a time keeps peak memory
            // that of at most two products.
            drop(product.take());
            let (wall, result) = timed(|| guarded(&mut self.setup));
            self.attempted += 1;
            match result {
                Ok(p) => {
                    self.times.push(wall);
                    product = Some(p);
                }
                Err(e) => {
                    self.failed = true;
                    eprintln!("perfbench: set-up failed: {e}");
                }
            }
        }
        product
    }
}

/// What a measured run yields besides its ops' walls.
#[derive(Debug)]
pub struct Measured<T> {
    /// Median host seconds of one set-up.
    pub setup_s: f64,
    /// Peak resident memory (VmHWM) once the first op has run, in MB.
    /// Later ops can raise it through allocator fragmentation alone (two
    /// `fleet-healthy` ops peaked at 24–27 MB, one at 18 MB), and how many
    /// ops fit in a run depends on host speed.
    pub peak_rss_mb: f64,
    /// The last successful op's output.
    pub last: T,
}

/// Interleaves set-up and op until `budget_s` host seconds are used: a
/// batch of `reps` set-ups, one op on the batch's newest product, the
/// next batch, the next op, and so on, closing with a batch. An op may
/// also run a batch at each of its own boundaries through the callback it
/// is handed; that time is not charged to the op. The set-up samples so
/// span the host speed regimes the ops ran in. At least one op runs; the
/// next is not started when a typical op would overrun the budget.
///
/// `None` when a set-up failed or no op succeeded. Set-ups count as ops.
pub fn measure<S, T>(
    budget_s: f64,
    reps: usize,
    ops: &mut Ops,
    setup: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(&S, &mut dyn FnMut()) -> Result<T, String>,
) -> Option<Measured<T>> {
    let start = Instant::now();
    let mut setups = SetUps {
        setup,
        reps,
        times: Vec::new(),
        attempted: 0,
        failed: false,
    };
    let mut last = None;
    let mut peak_rss = None;
    while let Some(product) = setups.batch() {
        let mut paused = 0.0;
        let mut gap = || {
            let (wall, product) = timed(|| setups.batch());
            drop(product);
            paused += wall;
        };
        let (wall, result) = timed(|| guarded(|| op(&product, &mut gap)));
        if let Some(value) = ops.note("op", wall - paused, result) {
            last = Some(value);
        }
        peak_rss.get_or_insert_with(peak_rss_mb);
        let typical = median(&ops.walls).unwrap_or(wall);
        if start.elapsed().as_secs_f64() + typical > budget_s {
            drop(product);
            drop(setups.batch());
            break;
        }
    }
    ops.attempted += setups.attempted;
    if setups.failed {
        ops.failed += 1;
        return None;
    }
    let setup_s = median(&setups.times)?;
    eprintln!(
        "perfbench: {} op(s) and set-ups, {} failed; op walls {}; {} set-ups, median {setup_s:.6}s",
        ops.attempted,
        ops.failed,
        fmt_times(&ops.walls),
        setups.times.len(),
    );
    Some(Measured {
        setup_s,
        peak_rss_mb: peak_rss?,
        last: last?,
    })
}

fn fmt_times(times: &[f64]) -> String {
    let parts: Vec<String> = times.iter().map(|t| format!("{t:.3}s")).collect();
    parts.join(" ")
}

/// Peak resident memory of this process in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    self_status_kb("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result line the benchmark prints last.
#[derive(Debug)]
pub struct Outcome {
    /// Every op succeeded and every output matched its reference.
    pub correct: bool,
    /// Ops attempted (set-ups included).
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON object.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_and_errors_count_as_failed_ops() {
        let mut ops = Ops::default();
        let r: Result<u32, String> = guarded(|| panic!("boom"));
        assert!(r.as_ref().is_err_and(|e| e.contains("boom")));
        ops.note("op", 1.0, r);
        ops.note("op", 2.0, Ok::<_, String>(7));
        ops.note("op", 3.0, Err::<u32, _>("mismatch".to_owned()));
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(ops.median_wall(), 2.0);
    }

    #[test]
    fn set_ups_in_an_ops_gaps_are_not_charged_to_it() {
        let mut ops = Ops::default();
        let mut builds = 0;
        let m = measure(
            0.0,
            2,
            &mut ops,
            || {
                builds += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(builds)
            },
            |&product, gap| {
                gap();
                gap();
                Ok(product)
            },
        )
        .expect("every set-up and the op succeed");
        // A batch of 2, two gap batches inside the op, a closing batch.
        assert_eq!(builds, 8);
        // The op ran on the first batch's newest product.
        assert_eq!(m.last, 2);
        assert_eq!((ops.attempted, ops.failed, ops.walls.len()), (9, 0, 1));
        assert!(m.setup_s >= 0.02);
        assert!(m.peak_rss_mb > 0.0);
        assert!(ops.walls[0] < 0.02, "op charged {} s", ops.walls[0]);
    }

    #[test]
    fn a_failed_set_up_fails_the_run() {
        let mut ops = Ops::default();
        let mut builds = 0;
        let measured = measure(
            60.0,
            2,
            &mut ops,
            || {
                builds += 1;
                if builds == 3 {
                    Err("broken".to_owned())
                } else {
                    Ok(builds)
                }
            },
            |&product, gap| {
                gap();
                Ok(product)
            },
        );
        assert!(measured.is_none());
        assert_eq!(builds, 3);
        assert_eq!((ops.attempted, ops.failed), (4, 1));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "wall_s",
                unit: "s",
                value: 1.234_567_890_123,
            }],
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}}}"
        );
    }
}
