//! Benchmark of the sbst workspace: four workloads driven through the
//! library's public functions in one process, every thread pool pinned to
//! one worker.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-full|atpg-full|fleet-mixed|fleet-healthy|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--fleet-seed <n>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the workload once untraced and once under spans and
//! reports the per-layer metrics, including the tracing overhead. The last
//! line of standard output is the JSON result. `--workload all` runs every
//! workload both ways as child processes and prints every metric by name
//! with its unit. See `perfbench/README.md` for the workloads and the
//! noise record behind the design.

mod atpg;
mod fleet;
mod harness;
mod metrics;
mod reference;
mod stats;
mod table1;
mod trace;

use std::process::ExitCode;

use sbst_tpg::AtpgTelemetry;

use crate::fleet::Population;
use crate::harness::Outcome;
use crate::metrics::{Values, LAYERS};
use crate::trace::Tracer;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["table1-full", "atpg-full", "fleet-mixed", "fleet-healthy"];

const USAGE: &str =
    "usage: perfbench --workload <table1-full|atpg-full|fleet-mixed|fleet-healthy|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--fleet-seed <n>]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Fleet seed overriding the per-workload choice (see `fleet.rs`).
    fleet_seed: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut fleet_seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) || value == "all" => {
                workload = Some(value.to_owned());
            }
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--fleet-seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                fleet_seed = Some(parsed.map_err(|_| format!("bad fleet seed `{value}`"))?);
            }
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(format!("bad --seconds `{value}`")),
            },
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        fleet_seed,
    })
}

/// Folds ATPG telemetry into the `tpg.*` counters.
fn tpg_counts(values: &mut Values, telemetry: &AtpgTelemetry) {
    let s = &telemetry.stats;
    values.set("tpg.podem_targets", s.podem_targets as f64);
    values.set("tpg.podem_backtracks", s.podem_backtracks as f64);
    values.set("tpg.aborts", s.aborted as f64);
    values.set("tpg.redundant", s.redundant as f64);
    values.set("tpg.tests", s.podem_tests as f64);
    values.set("tpg.podem_discarded", s.podem_discarded as f64);
    if s.podem_targets > 0 {
        values.set(
            "tpg.tests_per_target",
            s.podem_tests as f64 / s.podem_targets as f64,
        );
    }
}

/// Simulated instructions per host second of `cpu.exec_s`, in millions.
fn cpu_rate(values: &mut Values) {
    let exec_s = values.get("cpu.exec_s");
    if exec_s > 0.0 {
        values.set(
            "cpu.minstr_per_s",
            values.get("cpu.instructions") / exec_s / 1e6,
        );
    }
}

/// Per-layer self times, the traced total, and the tracing overhead: the
/// traced op's host time minus the same op's untraced host time.
fn trace_totals(values: &mut Values, t: &Tracer, untraced_s: f64, traced_s: f64) {
    let layers = t.layer_self_s();
    for layer in LAYERS {
        let name = match layer {
            "components" => "self_s.components",
            "core" => "self_s.core",
            "gates" => "self_s.gates",
            "tpg" => "self_s.tpg",
            "cpu" => "self_s.cpu",
            _ => "self_s.fleet",
        };
        values.set(name, layers.get(layer).copied().unwrap_or(0.0));
    }
    values.set(
        "self_s.unattributed",
        layers.get("trace").copied().unwrap_or(0.0),
    );
    let total = t.inclusive_s("trace.total_s");
    let summed: f64 = layers.values().sum();
    assert!(
        (summed - total).abs() <= 1e-6 * total.max(1.0),
        "layer self times sum to {summed}, the traced total is {total}"
    );
    assert!(
        layers
            .keys()
            .all(|l| l == "trace" || LAYERS.contains(&l.as_str())),
        "a span is charged to an undeclared layer: {:?}",
        layers.keys()
    );
    values.set("trace.total_s", total);
    values.set("trace.overhead_s", traced_s - untraced_s);
    if untraced_s > 0.0 {
        values.set(
            "trace.overhead_pct",
            (traced_s - untraced_s) / untraced_s * 100.0,
        );
    }
    eprintln!(
        "perfbench: traced op {traced_s:.3} s vs untraced {untraced_s:.3} s \
         (overhead {:+.3} s); traced total {total:.3} s over {} spans",
        traced_s - untraced_s,
        t.spans().len()
    );
}

/// Writes the spans once, after the run, next to the build outputs.
fn write_spans(workload: &str, t: &Tracer) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("perfbench/target"), Into::into);
    let path = dir.join(format!("perfbench-spans-{workload}.tsv"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            t.write_tsv(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn run_workload(args: &Args) -> Outcome {
    let name = args.workload.as_str();
    let population = if name == "fleet-mixed" {
        Population::Mixed
    } else {
        Population::Healthy
    };
    let fleet_seed = fleet::fleet_seed(population, args.seed, args.fleet_seed);
    if !args.trace {
        return match name {
            "table1-full" => table1::run(args.seconds),
            "atpg-full" => atpg::run(args.seconds),
            _ => fleet::run(population, fleet_seed, args.seconds),
        };
    }
    let (outcome, tracer) = match name {
        "table1-full" => table1::run_traced(),
        "atpg-full" => atpg::run_traced(),
        _ => fleet::run_traced(population, fleet_seed),
    };
    write_spans(name, &tracer);
    outcome
}

/// Runs every workload untraced and traced as child processes and prints
/// every metric by name with its unit.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace]);
            if let Some(fleet_seed) = args.fleet_seed {
                command.args(["--fleet-seed", &fleet_seed.to_string()]);
            }
            let child = command.stderr(std::process::Stdio::inherit()).output();
            let line = match &child {
                Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_owned(),
                _ => String::new(),
            };
            match sbst_core::json::parse(&line) {
                Ok(result) => ok &= print_result(workload, trace == "1", &result),
                Err(_) => {
                    println!("{workload} trace={trace}: no result");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_result(workload: &str, traced: bool, result: &sbst_core::JsonValue) -> bool {
    use sbst_core::JsonValue;
    let correct = matches!(result.get("correct"), Some(JsonValue::Bool(true)));
    let count = |k| result.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    println!(
        "{workload} ({}): correct {correct}, {} attempted, {} failed",
        if traced { "traced" } else { "end to end" },
        count("attempted"),
        count("failed")
    );
    if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
            let unit = match m.get("unit") {
                Some(JsonValue::Str(u)) => u.as_str(),
                _ => "",
            };
            println!("  {name:<36} {value:>18.6} {unit}");
        }
    }
    correct
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome = run_workload(&args);
    println!("{}", outcome.to_json_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "fleet-mixed",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            args,
            Args {
                workload: "fleet-mixed".to_owned(),
                seed: 7,
                seconds: 20.0,
                trace: true,
                fleet_seed: None,
            }
        );
    }

    #[test]
    fn fleet_seed_takes_hex_or_decimal() {
        let base = [
            "--workload",
            "fleet-mixed",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "0",
        ];
        for (given, want) in [("0x5B57F1EF", 0x5B57_F1EF), ("1532490223", 0x5B57_F1EF)] {
            let mut args = strings(&base);
            args.extend(strings(&["--fleet-seed", given]));
            assert_eq!(parse_args(&args).expect("valid").fleet_seed, Some(want));
        }
    }

    #[test]
    fn refuses_unknown_or_missing_input() {
        for bad in [
            &["--workload", "fleet"][..],
            &[
                "--workload",
                "atpg-full",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "atpg-full",
                "--seed",
                "-1",
                "--seconds",
                "5",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "atpg-full",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &["--workload", "atpg-full", "--seed", "1", "--seconds", "5"],
            &[
                "--workload",
                "atpg-full",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "0",
                "--x",
                "1",
            ],
            &["--workload"],
            &[
                "--workload",
                "fleet-mixed",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "0",
                "--fleet-seed",
                "0xZZ",
            ],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
