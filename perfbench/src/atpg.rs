//! `atpg-full`: constrained per-function PODEM campaigns on the 32-bit
//! shifter and ALU, the discipline behind Table 1's deterministic
//! routines. PODEM search does nearly all of the work. The input is fixed
//! (the program's default ATPG seed), so `--seed` does not change it.

use sbst_components::alu::{alu, AluFunc};
use sbst_components::shifter::{shifter, ShiftFunc};
use sbst_components::Component;
use sbst_tpg::{Atpg, AtpgConfig, AtpgTelemetry, InputConstraint};

use crate::harness::{guarded, measure, timed, Ops, Outcome};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::reference::{ATPG_ALU, ATPG_SHIFTER};
use crate::stats::Rate;
use crate::trace::Tracer;

/// Set-ups per batch. A batch runs before and after each campaign pair
/// and after each of its 11 `Atpg::run` calls (3 shifter and 8 ALU
/// functions), so the set-up samples are spread over the one ~16 s op a
/// run has room for; two netlist builds take ~0.2 ms.
const SETUP_REPS: usize = 10;

fn config() -> AtpgConfig {
    AtpgConfig {
        sim_threads: Some(1),
        podem_threads: Some(1),
        ..AtpgConfig::default()
    }
}

fn op_constraints(component: &Component, encoding: u8) -> Vec<InputConstraint> {
    let op_bus = component.ports.input("op");
    (0..op_bus.width())
        .map(|bit| InputConstraint {
            net: op_bus.net(bit),
            value: (encoding >> bit) & 1 == 1,
        })
        .collect()
}

struct Netlists {
    shifter: Component,
    alu: Component,
}

fn build() -> Netlists {
    Netlists {
        shifter: shifter(32),
        alu: alu(32),
    }
}

/// One component's campaign: each function's run targets only the faults
/// every earlier function left undetected. Returns (patterns, detected,
/// total); `each_run` sees every `Atpg::run` call.
fn campaign(
    component: &Component,
    encodings: &[u8],
    telemetry: &mut AtpgTelemetry,
    each_run: &mut dyn FnMut(&mut dyn FnMut() -> sbst_tpg::AtpgResult) -> sbst_tpg::AtpgResult,
) -> (usize, usize, usize) {
    let mut remaining = component.netlist.collapsed_faults();
    let total = remaining.len();
    let mut patterns = 0;
    for &enc in encodings {
        let constraints = op_constraints(component, enc);
        let result = each_run(&mut || {
            Atpg::new(&component.netlist)
                .with_constraints(&constraints)
                .with_config(config())
                .run(&remaining)
        });
        telemetry.absorb(&result);
        patterns += result.patterns.len();
        remaining = remaining
            .into_iter()
            .zip(result.outcomes)
            .filter(|(_, o)| !o.is_detected())
            .map(|(f, _)| f)
            .collect();
    }
    (patterns, total - remaining.len(), total)
}

/// Campaign outputs: (patterns, detected, total) for shifter and ALU.
type Campaigns = [(usize, usize, usize); 2];

fn campaigns(
    n: &Netlists,
    telemetry: &mut AtpgTelemetry,
    each_run: &mut dyn FnMut(&mut dyn FnMut() -> sbst_tpg::AtpgResult) -> sbst_tpg::AtpgResult,
) -> Campaigns {
    let shift: Vec<u8> = ShiftFunc::ALL.iter().map(|f| f.encoding()).collect();
    let alu_encs: Vec<u8> = AluFunc::ALL.iter().map(|f| f.encoding()).collect();
    [
        campaign(&n.shifter, &shift, telemetry, each_run),
        campaign(&n.alu, &alu_encs, telemetry, each_run),
    ]
}

fn check(c: &Campaigns) -> Result<(), String> {
    if *c != [ATPG_SHIFTER, ATPG_ALU] {
        return Err(format!(
            "(patterns, detected, total) {c:?}, expected {:?}",
            [ATPG_SHIFTER, ATPG_ALU]
        ));
    }
    Ok(())
}

/// The campaign pair without spans; `gap` runs after every `Atpg::run`.
fn untraced(n: &Netlists, gap: &mut dyn FnMut()) -> Result<(Campaigns, AtpgTelemetry), String> {
    let mut telemetry = AtpgTelemetry::default();
    let c = campaigns(n, &mut telemetry, &mut |run| {
        let result = run();
        gap();
        result
    });
    check(&c)?;
    Ok((c, telemetry))
}

fn coverage_pct(c: &Campaigns) -> f64 {
    let detected: usize = c.iter().map(|x| x.1).sum();
    let total: usize = c.iter().map(|x| x.2).sum();
    detected as f64 / total as f64 * 100.0
}

/// The untraced run: end-to-end metrics.
pub fn run(seconds: f64) -> Outcome {
    let mut ops = Ops::default();
    let mut values = Values::default();
    let measured = measure(seconds, SETUP_REPS, &mut ops, || Ok(build()), untraced);
    if let Some(m) = &measured {
        let (c, telemetry) = &m.last;
        let rate = Rate {
            items: telemetry.stats.podem_targets,
            seconds: ops.median_wall(),
        };
        values.set("setup_s", m.setup_s);
        values.set("wall_s", ops.median_wall());
        values.set("peak_rss_mb", m.peak_rss_mb);
        values.set("work_items_per_s", rate.per_second().unwrap_or(0.0));
        values.set("coverage_pct", coverage_pct(c));
        eprintln!(
            "perfbench: shifter {:?}, ALU {:?} (patterns, detected, total); {} PODEM targets, \
             {} backtracks",
            c[0], c[1], telemetry.stats.podem_targets, telemetry.stats.podem_backtracks
        );
    }
    ops.outcome(measured.is_some(), values.emit(&END_TO_END))
}

/// The traced run: one untraced campaign pair for reference, then the
/// same pair with every `Atpg::run` inside a span.
pub fn run_traced() -> (Outcome, Tracer) {
    let mut ops = Ops::default();
    let mut values = Values::default();
    let mut t = Tracer::new();
    let netlists = build();
    let (untraced_s, reference) = timed(|| guarded(|| untraced(&netlists, &mut || ())));
    let reference = ops.note("untraced campaigns", untraced_s, reference);

    let root = t.open("trace.total_s");
    let mut telemetry = AtpgTelemetry::default();
    let traced = guarded(|| {
        let n = t.span("components.build_s", |_| build());
        let c = campaigns(&n, &mut telemetry, &mut |run| {
            let span = t.open("tpg.atpg_s");
            let result = run();
            t.close(span);
            t.record_reported("tpg.podem_s", span, result.podem_wall_time.as_secs_f64());
            result
        });
        Ok(c)
    });
    let traced_s = t.close(root);
    let traced = ops.note(
        "traced campaigns",
        traced_s,
        traced.and_then(|c| {
            check(&c)?;
            match &reference {
                Some((r, _)) if *r != c => Err("traced outputs differ from untraced".to_owned()),
                _ => Ok(c),
            }
        }),
    );

    let gates = f64::from(netlists.shifter.gate_equivalents() + netlists.alu.gate_equivalents());
    values.set("components.gates", gates);
    if let Some(c) = &traced {
        values.set("gates.faults.stuck_at", c.iter().map(|x| x.2 as f64).sum());
        values.set("tpg.patterns", c.iter().map(|x| x.0 as f64).sum());
    }
    values.set("components.build_s", t.inclusive_s("components.build_s"));
    let atpg_s = t.inclusive_s("tpg.atpg_s");
    let podem_s = t.inclusive_s("tpg.podem_s");
    values.set("tpg.atpg_s", atpg_s);
    values.set("tpg.podem_s", podem_s);
    values.set("tpg.random_phase_s", atpg_s - podem_s);
    crate::tpg_counts(&mut values, &telemetry);
    crate::trace_totals(&mut values, &t, untraced_s, traced_s);
    let outcome = ops.outcome(true, values.emit(&PER_LAYER));
    (outcome, t)
}
