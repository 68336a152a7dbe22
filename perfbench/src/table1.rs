//! `table1-full`: Table 1 regeneration over the paper's 32-bit inventory
//! (9 CUTs, both fault models) through `Table1::generate_with_model`.
//!
//! Batch fault simulation in `gates` does nearly all of the work; ATPG
//! and the ISS are a few percent. The input is fixed — the paper's
//! inventory — so `--seed` does not change it.
//!
//! Grading runs on the compiled tape engine: one generation on the
//! event-driven default takes 35–60 s single-threaded, which leaves no
//! room for the repeated ops a steady median needs within one run.

use sbst_components::ComponentClass;
use sbst_core::grade::execute_routine;
use sbst_core::{stimulus_for, Cut, RoutineSpec, SelfTestProgramBuilder, Table1};
use sbst_gates::{
    enumerate_transition_faults, FaultCoverage, FaultModel, FaultSimConfig, FaultSimulator,
    SimEngine, SimStats,
};
use sbst_tpg::{AtpgConfig, AtpgTelemetry};

use crate::harness::{guarded, measure, timed, Ops, Outcome};
use crate::metrics::{Values, END_TO_END};
use crate::reference::{self, RowRef};
use crate::stats::Rate;
use crate::trace::Tracer;

/// Set-ups per batch; a batch runs before, between and after the ops of
/// a run. An inventory build takes a few ms, so many are cheap.
const SETUP_REPS: usize = 20;

fn sim_config() -> FaultSimConfig {
    FaultSimConfig {
        threads: Some(1),
        engine: SimEngine::Compiled,
        ..FaultSimConfig::default()
    }
}

fn atpg_config() -> AtpgConfig {
    AtpgConfig {
        sim_threads: Some(1),
        podem_threads: Some(1),
        sim_engine: SimEngine::Compiled,
        ..AtpgConfig::default()
    }
}

/// The deterministic outputs one generation is checked on.
#[derive(Debug, Clone, PartialEq)]
struct Graded {
    rows: Vec<(String, FaultCoverage, FaultCoverage)>,
    words: usize,
    cycles: u64,
    data_refs: u64,
    gates: u32,
}

impl Graded {
    fn of_table(table: &Table1) -> Self {
        Graded {
            rows: table
                .rows
                .iter()
                .map(|r| (r.name.clone(), r.coverage, r.transition_coverage))
                .collect(),
            words: table.total_size_words,
            cycles: table.total_cycles,
            data_refs: table.total_data_refs,
            gates: table.total_gates,
        }
    }

    /// Stuck-at plus transition faults graded.
    fn faults(&self) -> u64 {
        self.rows
            .iter()
            .map(|(_, sa, tr)| (sa.total + tr.total) as u64)
            .sum()
    }

    fn stuck_at(&self) -> FaultCoverage {
        self.rows.iter().map(|(_, sa, _)| *sa).sum()
    }

    fn transition(&self) -> FaultCoverage {
        self.rows.iter().map(|(_, _, tr)| *tr).sum()
    }

    /// Compares against the recorded references.
    fn check(&self) -> Result<(), String> {
        let rows: Vec<RowRef> = self
            .rows
            .iter()
            .map(|(name, sa, tr)| RowRef {
                name: name.clone(),
                stuck_at: (sa.detected, sa.total),
                transition: (tr.detected, tr.total),
            })
            .collect();
        if rows != reference::table1_rows() {
            return Err(format!(
                "per-row coverage differs from the reference: {rows:?}"
            ));
        }
        let totals = (self.words, self.cycles, self.data_refs, self.gates);
        let expected = (
            reference::TABLE1_WORDS,
            reference::TABLE1_CYCLES,
            reference::TABLE1_DATA_REFS,
            reference::TABLE1_GATES,
        );
        if totals != expected {
            return Err(format!(
                "(words, cycles, data refs, gates) {totals:?}, expected {expected:?}"
            ));
        }
        Ok(())
    }
}

fn generate(cuts: &[Cut]) -> Result<Table1, String> {
    Table1::generate_with_model(cuts, sim_config(), atpg_config(), FaultModel::StuckAt)
        .map_err(|e| format!("{e:?}"))
}

/// One checked generation.
fn op(cuts: &[Cut]) -> Result<Graded, String> {
    let graded = Graded::of_table(&generate(cuts)?);
    graded.check()?;
    Ok(graded)
}

/// The untraced run: end-to-end metrics.
pub fn run(seconds: f64) -> Outcome {
    let mut ops = Ops::default();
    let mut values = Values::default();
    let measured = measure(
        seconds,
        SETUP_REPS,
        &mut ops,
        || Ok(Cut::processor_inventory()),
        |cuts, _| op(cuts),
    );
    if let Some(m) = &measured {
        let g = &m.last;
        reference::print_table1_comparison(
            g.stuck_at(),
            g.transition(),
            g.words,
            g.cycles,
            g.data_refs,
            g.gates,
        );
        let rate = Rate {
            items: g.faults(),
            seconds: ops.median_wall(),
        };
        values.set("setup_s", m.setup_s);
        values.set("wall_s", ops.median_wall());
        values.set("peak_rss_mb", m.peak_rss_mb);
        values.set("work_items_per_s", rate.per_second().unwrap_or(0.0));
        values.set("coverage_pct", g.stuck_at().percent());
    }
    ops.outcome(measured.is_some(), values.emit(&END_TO_END))
}

fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_owned()
}

/// What the traced pipeline counts besides its spans.
#[derive(Default)]
struct Counts {
    sa_stats: SimStats,
    patterns: u64,
    instructions: u64,
    cycles: u64,
    atpg: AtpgTelemetry,
}

impl Counts {
    fn absorb_sim(&mut self, stats: &SimStats) {
        self.sa_stats.events_simulated += stats.events_simulated;
        self.sa_stats.lane_slots_filled += stats.lane_slots_filled;
        self.sa_stats.lane_slots_total += stats.lane_slots_total;
    }
}

/// Table 1 rebuilt from the public calls `Table1::generate_with_model`
/// makes, each inside a span.
fn traced_generation(t: &mut Tracer, counts: &mut Counts) -> Result<Graded, String> {
    let cuts = t.span("components.build_s", |_| Cut::processor_inventory());
    let sim = sim_config();
    let is_routine_cut = |cut: &Cut| {
        matches!(
            cut.class(),
            ComponentClass::DataVisible | ComponentClass::PartiallyVisible
        )
    };
    let mut builder = SelfTestProgramBuilder::new();
    for cut in cuts.iter().filter(|c| is_routine_cut(c)) {
        builder.add(cut.clone());
    }
    let combined = t
        .span("core.program_build_s", |_| builder.build())
        .map_err(|e| e.to_string())?;
    let combined_run = t
        .span("cpu.exec_s", |_| combined.run())
        .map_err(|e| e.to_string())?;
    counts.instructions += combined_run.stats.instructions;
    counts.cycles += combined_run.stats.total_cycles();

    let mut rows = Vec::with_capacity(cuts.len());
    for cut in &cuts {
        let cut_span = format!("gates.fault_sim_s.{}", slug(cut.name()));
        let (sa, tr) = if is_routine_cut(cut) {
            let mut spec = RoutineSpec::recommended(cut);
            spec.atpg = atpg_config();
            let build = t.open("core.routine_build_s");
            let built = spec.build_traced(cut);
            t.close(build);
            let (routine, telemetry) = built.map_err(|e| e.to_string())?;
            t.record_reported(
                "tpg.podem_s",
                build,
                telemetry.podem_wall_time.as_secs_f64(),
            );
            counts.atpg.merge(&telemetry);
            let (stats, trace, _signature) = t
                .span("cpu.exec_s", |_| execute_routine(&routine))
                .map_err(|e| e.to_string())?;
            counts.instructions += stats.instructions;
            counts.cycles += stats.total_cycles();
            let stimulus = t.span("core.stimulus_s", |_| stimulus_for(cut, &trace));
            counts.patterns += stimulus.len() as u64;
            t.span(&cut_span, |t| {
                let netlist = &cut.component.netlist;
                let faults = netlist.collapsed_faults();
                let transition_faults = enumerate_transition_faults(netlist);
                let simulator = FaultSimulator::with_config(netlist, sim);
                let sa = t.span("gates.fault_sim_s.stuck_at", |_| {
                    simulator.simulate(&faults, &stimulus)
                });
                let tr = t.span("gates.fault_sim_s.transition", |_| {
                    simulator.simulate_transition(&transition_faults, &stimulus)
                });
                counts.absorb_sim(&sa.stats);
                (sa.coverage(), tr.coverage())
            })
        } else {
            let stimulus = t.span("core.stimulus_s", |_| {
                stimulus_for(cut, &combined_run.trace)
            });
            counts.patterns += stimulus.len() as u64;
            let grade = t.span(&cut_span, |t| {
                t.span("gates.side_grade_s", |_| {
                    sbst_core::grade_trace_models(cut, &combined_run.trace, sim)
                })
            });
            counts.absorb_sim(&grade.sim_stats);
            (grade.coverage, grade.transition_coverage)
        };
        rows.push((cut.name().to_owned(), sa, tr));
    }
    Ok(Graded {
        rows,
        words: combined.size_words(),
        cycles: combined_run.stats.total_cycles(),
        data_refs: combined_run.stats.data_refs(),
        gates: cuts.iter().map(Cut::gate_equivalents).sum(),
    })
}

/// The traced run: one untraced generation for reference, then the
/// pipeline rebuilt under spans.
pub fn run_traced() -> (Outcome, Tracer) {
    let mut ops = Ops::default();
    let mut values = Values::default();
    let mut t = Tracer::new();
    let cuts = Cut::processor_inventory();
    let (untraced_s, untraced) = timed(|| guarded(|| generate(&cuts)));
    let untraced = ops.note("untraced generation", untraced_s, untraced);

    let mut counts = Counts::default();
    let root = t.open("trace.total_s");
    let traced = guarded(|| traced_generation(&mut t, &mut counts));
    let traced_s = t.close(root);
    let traced = ops.note(
        "traced generation",
        traced_s,
        traced.and_then(|g| {
            g.check()?;
            match &untraced {
                Some(table) if Graded::of_table(table) != g => {
                    Err("traced outputs differ from the untraced generation".to_owned())
                }
                Some(table) if table.events_simulated != counts.sa_stats.events_simulated => {
                    Err(format!(
                        "traced run simulated {} stuck-at events, untraced {}",
                        counts.sa_stats.events_simulated, table.events_simulated
                    ))
                }
                _ => Ok(g),
            }
        }),
    );

    if let Some(g) = &traced {
        values.set("components.gates", f64::from(g.gates));
        values.set("gates.faults.stuck_at", g.stuck_at().total as f64);
        values.set("gates.faults.transition", g.transition().total as f64);
        values.set("gates.transition_coverage_pct", g.transition().percent());
        values.set("core.test_words", g.words as f64);
        values.set("core.test_cycles", g.cycles as f64);
    }
    for name in [
        "components.build_s",
        "core.program_build_s",
        "core.routine_build_s",
        "core.stimulus_s",
        "gates.fault_sim_s.stuck_at",
        "gates.fault_sim_s.transition",
        "gates.side_grade_s",
        "gates.fault_sim_s.register_file",
        "gates.fault_sim_s.parallel_mul",
        "gates.fault_sim_s.pipeline",
        "tpg.podem_s",
        "cpu.exec_s",
    ] {
        values.set(name, t.inclusive_s(name));
    }
    values.set("tpg.atpg_s", t.inclusive_s("tpg.podem_s"));
    values.set("gates.patterns", counts.patterns as f64);
    values.set(
        "gates.events_simulated",
        counts.sa_stats.events_simulated as f64,
    );
    if counts.sa_stats.lane_slots_total > 0 {
        values.set(
            "gates.lane_occupancy",
            counts.sa_stats.lane_slots_filled as f64 / counts.sa_stats.lane_slots_total as f64
                * 100.0,
        );
    }
    crate::tpg_counts(&mut values, &counts.atpg);
    values.set("cpu.instructions", counts.instructions as f64);
    values.set("cpu.cycles", counts.cycles as f64);
    crate::cpu_rate(&mut values);
    crate::trace_totals(&mut values, &t, untraced_s, traced_s);
    let outcome = ops.outcome(true, values.emit(&crate::metrics::PER_LAYER));
    (outcome, t)
}

#[cfg(test)]
mod tests {
    use super::slug;

    #[test]
    fn cut_names_become_metric_suffixes() {
        assert_eq!(slug("Register File"), "register_file");
        assert_eq!(slug("Parallel Mul."), "parallel_mul");
        assert_eq!(slug("PC / branch unit"), "pc_branch_unit");
    }
}
