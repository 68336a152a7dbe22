//! Engine differential over the component smoke suite: the event-driven
//! and compiled engines must reproduce the full-eval engine's coverage
//! bit-for-bit on every real CUT (ISSUE 4 and ISSUE 6 acceptance
//! criteria), crossed with thread counts, while the event engine performs
//! measurably fewer gate-evaluation events in aggregate.

use sbst_core::{grade_trace_detailed, grade_trace_models, Cut, RoutineSpec, Table1};
use sbst_gates::{FaultSimConfig, SimEngine};

fn smoke_inventory() -> Vec<Cut> {
    vec![
        Cut::alu(8),
        Cut::shifter(8),
        Cut::control(),
        Cut::pipeline(8),
        Cut::pc_unit(8, 4),
    ]
}

#[test]
fn component_suite_coverage_is_bit_identical_across_engines() {
    let cuts = smoke_inventory();
    let full =
        Table1::generate_with(&cuts, FaultSimConfig::with_engine(SimEngine::FullEval)).unwrap();
    let event =
        Table1::generate_with(&cuts, FaultSimConfig::with_engine(SimEngine::EventDriven)).unwrap();
    let compiled =
        Table1::generate_with(&cuts, FaultSimConfig::with_engine(SimEngine::Compiled)).unwrap();
    for other in [&event, &compiled] {
        for (a, b) in full.rows.iter().zip(&other.rows) {
            assert_eq!(a.coverage, b.coverage, "{} coverage diverged", a.name);
            assert_eq!(a.size_words, b.size_words, "{}", a.name);
            assert_eq!(a.cpu_cycles, b.cpu_cycles, "{}", a.name);
        }
        assert_eq!(full.overall_coverage, other.overall_coverage);
    }
    // The event-driven engine skips a measurable share of the full-eval
    // gate evaluations on real component traces.
    assert_eq!(full.events_simulated, full.events_full_eval);
    assert!(
        event.events_simulated < event.events_full_eval,
        "event engine saved nothing: {} vs {}",
        event.events_simulated,
        event.events_full_eval
    );
    let ratio = event.event_ratio().unwrap();
    assert!(
        ratio < 0.95,
        "expected a measurable event saving, got ratio {ratio:.3}"
    );
    // The compiled tape folds a measurable share of gates into chains and
    // reports its instrumentation; the narrow engines report none.
    assert!(compiled.tape_len > 0);
    assert!(compiled.chains_collapsed > 0, "no chains collapsed");
    assert!(compiled.lane_occupancy() > 0.0 && compiled.lane_occupancy() <= 1.0);
    assert_eq!(event.tape_len, 0);
    assert_eq!(full.tape_len, 0);
}

/// The full 3-way engine × thread-count matrix over the smoke suite:
/// every combination must reproduce the single-threaded full-eval
/// coverage exactly, per component and overall.
#[test]
fn engine_thread_matrix_is_bit_identical_on_components() {
    let cuts = smoke_inventory();
    let reference = Table1::generate_with(
        &cuts,
        FaultSimConfig {
            engine: SimEngine::FullEval,
            threads: Some(1),
            ..FaultSimConfig::default()
        },
    )
    .unwrap();
    for engine in [
        SimEngine::FullEval,
        SimEngine::EventDriven,
        SimEngine::Compiled,
    ] {
        for threads in [1usize, 4] {
            let table = Table1::generate_with(
                &cuts,
                FaultSimConfig {
                    engine,
                    threads: Some(threads),
                    ..FaultSimConfig::default()
                },
            )
            .unwrap();
            for (a, b) in reference.rows.iter().zip(&table.rows) {
                assert_eq!(
                    a.coverage,
                    b.coverage,
                    "{} diverged under {} × {threads} threads",
                    a.name,
                    engine.name()
                );
                assert_eq!(
                    a.transition_coverage,
                    b.transition_coverage,
                    "{} transition coverage diverged under {} × {threads} threads",
                    a.name,
                    engine.name()
                );
            }
            assert_eq!(
                reference.overall_coverage,
                table.overall_coverage,
                "{} × {threads} threads",
                engine.name()
            );
            assert_eq!(
                reference.overall_transition_coverage,
                table.overall_transition_coverage,
                "transition totals: {} × {threads} threads",
                engine.name()
            );
        }
    }
}

/// Two-pattern transition grading over a real routine trace: every engine
/// × thread-count combination must reproduce the single-threaded
/// full-eval transition coverage bit-for-bit (ISSUE 9 acceptance
/// criterion), alongside the stuck-at numbers from the same shared
/// stimulus.
#[test]
fn transition_grading_matrix_is_bit_identical() {
    let cut = Cut::alu(8);
    let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
    let (_, trace, _) = sbst_core::grade::execute_routine(&routine).unwrap();
    let reference = grade_trace_models(
        &cut,
        &trace,
        FaultSimConfig {
            engine: SimEngine::FullEval,
            threads: Some(1),
            ..FaultSimConfig::default()
        },
    );
    assert!(reference.transition_coverage.total > 0);
    assert!(reference.transition_coverage.detected > 0);
    // Two-pattern detection is strictly harder than single-pattern
    // stuck-at detection of the same stem value, so the transition model
    // can never beat stuck-at coverage on the same stimulus here.
    assert!(reference.transition_coverage.percent() <= reference.coverage.percent());
    for engine in [
        SimEngine::FullEval,
        SimEngine::EventDriven,
        SimEngine::Compiled,
    ] {
        for threads in [1usize, 2, 7] {
            let grade = grade_trace_models(
                &cut,
                &trace,
                FaultSimConfig {
                    engine,
                    threads: Some(threads),
                    ..FaultSimConfig::default()
                },
            );
            assert_eq!(
                reference.coverage,
                grade.coverage,
                "stuck-at diverged under {} × {threads} threads",
                engine.name()
            );
            assert_eq!(
                reference.transition_coverage,
                grade.transition_coverage,
                "transition diverged under {} × {threads} threads",
                engine.name()
            );
        }
    }
}

#[test]
fn trace_grading_agrees_per_component() {
    // Grade a single routine's trace under all engines and compare the
    // detailed stats component by component.
    let cut = Cut::alu(8);
    let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
    let (_, trace, _) = sbst_core::grade::execute_routine(&routine).unwrap();
    let (cov_full, stats_full) = grade_trace_detailed(
        &cut,
        &trace,
        FaultSimConfig::with_engine(SimEngine::FullEval),
    );
    let (cov_event, stats_event) = grade_trace_detailed(
        &cut,
        &trace,
        FaultSimConfig::with_engine(SimEngine::EventDriven),
    );
    assert_eq!(cov_full, cov_event);
    // The two narrow engines share batch packing, so their simulation
    // volume is directly comparable.
    assert_eq!(stats_full.batches, stats_event.batches);
    assert_eq!(stats_full.cycles_simulated, stats_event.cycles_simulated);
    assert!(stats_event.events_simulated <= stats_full.events_simulated);
    assert!(stats_event.events_simulated > 0);
    // The compiled engine repacks faults 4× wider: same coverage, about a
    // quarter of the batches.
    let (cov_compiled, stats_compiled) = grade_trace_detailed(
        &cut,
        &trace,
        FaultSimConfig::with_engine(SimEngine::Compiled),
    );
    assert_eq!(cov_full, cov_compiled);
    assert!(stats_compiled.batches < stats_full.batches);
    assert_eq!(
        stats_compiled.batches,
        stats_compiled
            .lane_slots_filled
            .div_ceil(SimEngine::Compiled.faults_per_pass() as u64)
            .max(1)
    );
    assert!(stats_compiled.tape_len > 0);
}

/// Grading the 32-bit multiplier on the compiled engine parks surviving
/// faults at checkpoints and repacks them: at least one repacked pass,
/// fewer batch-cycles than every initial batch running the whole
/// stimulus, and the same schedule at one and two threads.
#[test]
fn multiplier_grading_repacks_survivors() {
    let cut = Cut::multiplier(32);
    let routine = RoutineSpec::recommended(&cut).build(&cut).unwrap();
    let (_, trace, _) = sbst_core::grade::execute_routine(&routine).unwrap();
    let stimulus_len = sbst_core::grade::stimulus_for(&cut, &trace).len() as u64;
    let grade = |threads| {
        grade_trace_detailed(
            &cut,
            &trace,
            FaultSimConfig {
                engine: SimEngine::Compiled,
                threads: Some(threads),
                ..FaultSimConfig::default()
            },
        )
    };
    let (coverage, stats) = grade(1);
    assert!(stats.repacked_passes >= 1, "{stats:?}");
    assert_eq!(stats.cycles_scheduled, stats.batches * stimulus_len);
    assert!(
        stats.cycles_simulated < stats.cycles_scheduled,
        "{} batch-cycles simulated of {} scheduled",
        stats.cycles_simulated,
        stats.cycles_scheduled
    );
    let (coverage_2, stats_2) = grade(2);
    assert_eq!(coverage, coverage_2);
    assert_eq!(stats.cycles_simulated, stats_2.cycles_simulated);
    assert_eq!(stats.events_simulated, stats_2.events_simulated);
    assert_eq!(stats.repacked_passes, stats_2.repacked_passes);
}
