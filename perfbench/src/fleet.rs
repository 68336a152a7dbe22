//! `fleet-mixed` and `fleet-healthy`: `run_fleet` to a 4 s virtual
//! horizon on one worker, characterizing ALU + shifter + multiplier.
//!
//! `fleet-mixed` draws the default population (90 % healthy, 4 % infant
//! mortality, 3 % wear-out, 3 % correlated batch) over 1,000 nodes. The
//! faulty ~10 % run their routines with a gate-level defect mounted
//! through `ArchFault`, evaluated one pattern at a time, and exercise the
//! manager's retry, backoff and quarantine paths; they take most of the
//! session time. `fleet-healthy` runs 10,000 all-healthy nodes, so the
//! ISS, the manager's bookkeeping, the scheduler heap and telemetry
//! formatting do the work.
//!
//! `fleet-healthy` feeds `--seed` to `FleetConfig.seed`: it only staggers
//! the nodes' first activations, so the cost of a run does not depend on
//! it. `fleet-mixed` keeps the fleet bench's default seed whatever
//! `--seed` says, because its seed draws which nodes are faulty and where,
//! and that moves the cost of a run by ~20 % (0x5B57F1EE vs 0x5B57F1EF,
//! see `perfbench/README.md`). `--fleet-seed` overrides both, for the
//! held-out seed in [`FLEET_SEEDS`]. Every op checks the `fleet` binary's
//! invariants, and the aggregate digest wherever one is recorded.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sbst_core::Cut;
use sbst_cpu::{Cpu, CpuConfig};
use sbst_fleet::{
    assign_profile, run_fleet, Aggregate, Characterizer, FleetConfig, FleetNode, FleetRun,
    NodeOutcome, PopulationMix, ProfileKind, SharedArtifacts, NOMINAL_HZ,
};
use sbst_gates::{FaultSimConfig, SimEngine};

use crate::harness::{guarded, measure, timed, Ops, Outcome};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::reference::{FLEET_SEEDS, REFERENCE_FLEET_SEED};
use crate::stats::{self, median, Rate};
use crate::trace::Tracer;

/// Characterizations per set-up batch; one takes ~0.6–1 s, so a run has
/// room for a few batches between its fleet ops.
const SETUP_REPS: usize = 2;

/// Standalone ISS runs of each shared routine in the traced run.
const ISS_REPS: usize = 200;

/// Which population a fleet workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// 1,000 nodes, default mix.
    Mixed,
    /// 10,000 nodes, no faulty profiles.
    Healthy,
}

/// The fleet seed a run uses: `fleet_seed` when given, else `--seed` for
/// `fleet-healthy` and the reference seed for `fleet-mixed`.
pub fn fleet_seed(population: Population, seed: u64, fleet_seed: Option<u64>) -> u64 {
    fleet_seed.unwrap_or(match population {
        Population::Mixed => REFERENCE_FLEET_SEED,
        Population::Healthy => seed,
    })
}

/// The recorded aggregate digest of `fleet_seed`, if there is one.
fn recorded_digest(population: Population, fleet_seed: u64) -> Option<u64> {
    FLEET_SEEDS
        .iter()
        .find(|(s, _, _)| *s == fleet_seed)
        .map(|&(_, mixed, healthy)| match population {
            Population::Mixed => mixed,
            Population::Healthy => healthy,
        })
}

fn config(population: Population, fleet_seed: u64) -> FleetConfig {
    let (nodes, mix) = match population {
        Population::Mixed => (1_000, PopulationMix::default()),
        Population::Healthy => (
            10_000,
            PopulationMix {
                infant_pct: 0,
                wearout_pct: 0,
                correlated_pct: 0,
                adversary_pct: 0,
                ..PopulationMix::default()
            },
        ),
    };
    FleetConfig {
        nodes,
        workers: 1,
        seed: fleet_seed,
        horizon_cycles: 4 * NOMINAL_HZ,
        mix,
        ..FleetConfig::default()
    }
}

fn cuts() -> Vec<Cut> {
    vec![Cut::alu(32), Cut::shifter(32), Cut::multiplier(32)]
}

/// Characterizes on the compiled engine: the same artifacts and fleet
/// digests as the event-driven default in a ninth of the time, so a run
/// fits several characterizations between its fleet ops.
fn characterizer(cuts: Vec<Cut>) -> Characterizer {
    let sim = FaultSimConfig {
        threads: Some(1),
        engine: SimEngine::Compiled,
        ..FaultSimConfig::default()
    };
    Characterizer::with_sim(cuts, sim)
}

/// Start and end of every sink write, shared with the worker thread.
type Writes = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// Telemetry sink owned by the benchmark: counts bytes and, when traced,
/// records the interval of every write.
#[derive(Clone, Default)]
struct Sink {
    bytes: Arc<AtomicU64>,
    writes: Option<Writes>,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        std::hint::black_box(buf);
        if let Some(writes) = &self.writes {
            let end = Instant::now();
            writes
                .lock()
                .expect("no sink writer panics while holding the lock")
                .push((start, end));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The invariants the `fleet` binary's `check_invariants` enforces, the
/// recorded digest, and for an all-healthy fleet that every attempt passed.
fn check(run: &FleetRun, config: &FleetConfig, digest: Option<u64>) -> Result<(), String> {
    let agg = &run.aggregate;
    if run.characterizations != 1 {
        return Err(format!("{} characterizations", run.characterizations));
    }
    let worker_sessions: u64 = run.workers.iter().map(|w| w.sessions).sum();
    if worker_sessions != agg.sessions {
        return Err(format!(
            "session conservation: workers ran {worker_sessions}, aggregate says {}",
            agg.sessions
        ));
    }
    let finalized: u64 = run.workers.iter().map(|w| w.nodes_finalized).sum();
    if finalized != config.nodes || agg.nodes != config.nodes {
        return Err(format!(
            "node conservation: {finalized} finalized of {}",
            config.nodes
        ));
    }
    if agg.attacks_injected != 0 || agg.tampers_detected != 0 || agg.tamper_false_alarms != 0 {
        return Err(format!(
            "tamper alarms without an adversary: {} injected, {} detected, {} false",
            agg.attacks_injected, agg.tampers_detected, agg.tamper_false_alarms
        ));
    }
    if let Some(digest) = digest.filter(|d| *d != agg.fleet_digest) {
        return Err(format!(
            "fleet digest {:#018x}, expected {digest:#018x}",
            agg.fleet_digest
        ));
    }
    let all_healthy =
        config.mix.infant_pct == 0 && config.mix.wearout_pct == 0 && config.mix.correlated_pct == 0;
    let clean = agg.passes == agg.attempts
        && agg.attempts == agg.sessions * agg.coverage.len() as u64
        && agg.mismatches + agg.watchdog_fires + agg.crashes + agg.quarantines == 0;
    if all_healthy && !clean {
        return Err(format!(
            "healthy fleet: {} sessions, {} attempts, {} passes, {} quarantines",
            agg.sessions, agg.attempts, agg.passes, agg.quarantines
        ));
    }
    Ok(())
}

/// Lowest per-component characterization coverage, in percent.
fn min_coverage(artifacts: &SharedArtifacts) -> f64 {
    artifacts
        .coverage
        .iter()
        .map(|(_, pct)| *pct)
        .fold(f64::INFINITY, f64::min)
}

fn fleet_op(
    config: &FleetConfig,
    characterizer: &Characterizer,
    digest: Option<u64>,
    sink: Sink,
) -> Result<FleetRun, String> {
    let run = run_fleet(config, characterizer, Some(Box::new(sink)));
    check(&run, config, digest)?;
    Ok(run)
}

/// The untraced run: end-to-end metrics.
pub fn run(population: Population, fleet_seed: u64, seconds: f64) -> Outcome {
    let digest = recorded_digest(population, fleet_seed);
    let config = config(population, fleet_seed);
    eprintln!(
        "perfbench: {} nodes, fleet seed {fleet_seed:#x}, recorded digest {digest:#x?}",
        config.nodes
    );
    let mut ops = Ops::default();
    let mut values = Values::default();
    // Every op of a run must reproduce the first op's digest.
    let mut first_digest = digest;
    let measured = measure(
        seconds,
        SETUP_REPS,
        &mut ops,
        || {
            let characterizer = characterizer(cuts());
            characterizer.artifacts();
            Ok(characterizer)
        },
        |characterizer, _| {
            let run = fleet_op(&config, characterizer, first_digest, Sink::default())?;
            first_digest = Some(run.aggregate.fleet_digest);
            Ok((
                run.aggregate.sessions,
                min_coverage(&characterizer.artifacts()),
            ))
        },
    );
    if let Some(m) = &measured {
        let (sessions, coverage) = m.last;
        let rate = Rate {
            items: sessions,
            seconds: ops.median_wall(),
        };
        values.set("setup_s", m.setup_s);
        values.set("wall_s", ops.median_wall());
        values.set("peak_rss_mb", m.peak_rss_mb);
        values.set("work_items_per_s", rate.per_second().unwrap_or(0.0));
        values.set("coverage_pct", coverage);
        eprintln!(
            "perfbench: {sessions} sessions per op, digest {:#018x}",
            first_digest.unwrap_or_default()
        );
    }
    ops.outcome(measured.is_some(), values.emit(&END_TO_END))
}

/// Session latencies split by profile, in ms.
#[derive(Default)]
struct Sessions {
    healthy: Vec<f64>,
    faulty: Vec<f64>,
}

/// Drives every node directly in due order, one span per node build and
/// per session, and rebuilds the aggregate.
fn drive(
    t: &mut Tracer,
    config: &FleetConfig,
    characterizer: &Characterizer,
    artifacts: &Arc<SharedArtifacts>,
    sessions: &mut Sessions,
    rss_kb_per_node: &mut f64,
) -> Aggregate {
    let specs = characterizer.target_specs();
    let rss_before = stats::self_status_kb("VmRSS").unwrap_or(0);
    let mut healthy = Vec::with_capacity(config.nodes as usize);
    let mut nodes: Vec<Option<FleetNode>> = (0..config.nodes)
        .map(|index| {
            let profile = assign_profile(
                config.seed,
                index,
                &config.mix,
                config.base_period_cycles,
                config.horizon_cycles,
                &specs,
            );
            healthy.push(profile.kind == ProfileKind::Healthy);
            let start = Instant::now();
            let node = FleetNode::new(index, profile, Arc::clone(artifacts), config.record_events);
            t.record("fleet.node_build_s", start, Instant::now(), None);
            Some(node)
        })
        .collect();
    let rss_after = stats::self_status_kb("VmRSS").unwrap_or(0);
    *rss_kb_per_node = rss_after.saturating_sub(rss_before) as f64 / config.nodes.max(1) as f64;

    let mut due: BinaryHeap<Reverse<(u64, u64)>> = nodes
        .iter()
        .flatten()
        .map(|n| Reverse((n.next_due(), n.index())))
        .collect();
    let mut outcomes: Vec<NodeOutcome> = Vec::with_capacity(nodes.len());
    while let Some(Reverse((_, index))) = due.pop() {
        let slot = &mut nodes[index as usize];
        let node = slot.as_mut().expect("a queued node is live");
        let start = Instant::now();
        let sample = node.run_due_session(config.horizon_cycles);
        let end = Instant::now();
        t.record("fleet.session_s", start, end, None);
        let ms = end.duration_since(start).as_secs_f64() * 1e3;
        if healthy[index as usize] {
            sessions.healthy.push(ms);
        } else {
            sessions.faulty.push(ms);
        }
        if sample.done {
            outcomes.push(slot.take().expect("live").finish());
        } else {
            due.push(Reverse((node.next_due(), index)));
        }
    }
    outcomes.sort_by_key(|o| o.index);
    t.span("fleet.aggregate_s", |_| {
        Aggregate::build(&outcomes, artifacts, config.coverage_slo_percent)
    })
}

/// Standalone ISS runs of the shared routines: (seconds per full set of
/// routines, instructions, cycles).
fn standalone_iss(t: &mut Tracer, artifacts: &SharedArtifacts) -> Result<(f64, u64, u64), String> {
    let mut instructions = 0;
    let mut cycles = 0;
    let mut per_set = 0.0;
    for component in artifacts.components.iter() {
        let mut times = Vec::with_capacity(ISS_REPS);
        for _ in 0..ISS_REPS {
            let t0 = Instant::now();
            let mut cpu = Cpu::new(CpuConfig {
                undecoded_as_nop: true,
                ..CpuConfig::default()
            });
            cpu.load_program(&component.program);
            let t1 = Instant::now();
            let outcome = cpu.run().map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            t.record("cpu.load_s", t0, t1, None);
            t.record("cpu.exec_s", t1, t2, None);
            instructions += outcome.stats.instructions;
            cycles += outcome.stats.total_cycles();
            times.push(t2.duration_since(t0).as_secs_f64());
        }
        per_set += median(&times).unwrap_or(0.0);
    }
    Ok((per_set, instructions, cycles))
}

/// The traced run: one untraced fleet for reference, then a traced
/// characterization, a `run_fleet` with a timed sink, the same fleet
/// driven node by node, and standalone ISS runs of the shared routines.
pub fn run_traced(population: Population, fleet_seed: u64) -> (Outcome, Tracer) {
    let config = config(population, fleet_seed);
    let mut ops = Ops::default();
    let mut values = Values::default();
    let mut t = Tracer::new();

    let reference = characterizer(cuts());
    reference.artifacts();
    let recorded = recorded_digest(population, fleet_seed);
    let (untraced_s, untraced) =
        timed(|| guarded(|| fleet_op(&config, &reference, recorded, Sink::default())));
    // The traced passes must reproduce the untraced digest.
    let digest = ops
        .note("untraced fleet", untraced_s, untraced)
        .map(|run| run.aggregate.fleet_digest)
        .or(recorded);

    let root = t.open("trace.total_s");
    let cuts = t.span("components.build_s", |_| cuts());
    let gates: u32 = cuts.iter().map(Cut::gate_equivalents).sum();
    let characterizer = characterizer(cuts);
    let artifacts = t.span("core.characterize_s", |_| characterizer.artifacts());

    let sink = Sink {
        writes: Some(Arc::default()),
        ..Sink::default()
    };
    let run_span = t.open("fleet.run_fleet_s");
    let traced = guarded(|| fleet_op(&config, &characterizer, digest, sink.clone()));
    let traced_s = t.close(run_span);
    let writes = sink
        .writes
        .as_ref()
        .map(|w| std::mem::take(&mut *w.lock().expect("writers have finished")))
        .unwrap_or_default();
    for (start, end) in writes {
        t.record("fleet.telemetry_sink_s", start, end, Some(run_span));
    }
    let traced = ops.note("traced fleet", traced_s, traced);

    let mut sessions = Sessions::default();
    let mut rss_kb_per_node = 0.0;
    let driven = guarded(|| {
        let drive_span = t.open("fleet.drive_s");
        let agg = drive(
            &mut t,
            &config,
            &characterizer,
            &artifacts,
            &mut sessions,
            &mut rss_kb_per_node,
        );
        t.close(drive_span);
        if let Some(digest) = digest.filter(|d| *d != agg.fleet_digest) {
            return Err(format!(
                "node-by-node digest {:#018x}, expected {digest:#018x}",
                agg.fleet_digest
            ));
        }
        Ok(agg)
    });
    let driven = ops.note("fleet driven node by node", 0.0, driven);
    let iss = guarded(|| standalone_iss(&mut t, &artifacts));
    let iss = ops.note("standalone ISS runs", 0.0, iss);
    t.close(root);

    values.set("components.gates", f64::from(gates));
    for name in [
        "components.build_s",
        "core.characterize_s",
        "fleet.node_build_s",
        "fleet.session_s",
        "fleet.telemetry_sink_s",
        "fleet.aggregate_s",
        "cpu.load_s",
        "cpu.exec_s",
    ] {
        values.set(name, t.inclusive_s(name));
    }
    values.set(
        "fleet.scheduler_s",
        traced_s - t.inclusive_s("fleet.session_s") - t.inclusive_s("fleet.telemetry_sink_s"),
    );
    values.set(
        "fleet.telemetry_bytes",
        sink.bytes.load(Ordering::Relaxed) as f64,
    );
    values.set("fleet.rss_kb_per_node", rss_kb_per_node);
    if let Some(run) = &traced {
        values.set("fleet.telemetry_lines", run.telemetry_lines as f64);
    }
    if let Some(agg) = &driven {
        values.set("manager.attempts", agg.attempts as f64);
        values.set("manager.passes", agg.passes as f64);
        values.set("manager.mismatches", agg.mismatches as f64);
        values.set("manager.watchdog_fires", agg.watchdog_fires as f64);
        values.set("manager.backoffs", agg.backoffs as f64);
        values.set("manager.quarantines", agg.quarantines as f64);
        if agg.attempts > 0 {
            values.set(
                "manager.pass_ratio",
                agg.passes as f64 / agg.attempts as f64,
            );
        }
    }
    session_latencies(&mut values, &sessions);
    if let Some((per_set_s, instructions, cycles)) = iss {
        values.set("cpu.instructions", instructions as f64);
        values.set("cpu.cycles", cycles as f64);
        crate::cpu_rate(&mut values);
        let healthy_s: f64 = sessions.healthy.iter().sum::<f64>() / 1e3;
        values.set(
            "manager.self_s",
            healthy_s - sessions.healthy.len() as f64 * per_set_s,
        );
    }
    crate::trace_totals(&mut values, &t, untraced_s, traced_s);
    let outcome = ops.outcome(true, values.emit(&PER_LAYER));
    (outcome, t)
}

fn session_latencies(values: &mut Values, sessions: &Sessions) {
    for (samples, p50, tail, pct, count) in [
        (
            &sessions.healthy,
            "manager.session_p50_ms.healthy",
            "manager.session_tail_ms.healthy",
            "manager.session_tail_pct.healthy",
            "manager.sessions.healthy",
        ),
        (
            &sessions.faulty,
            "manager.session_p50_ms.faulty",
            "manager.session_tail_ms.faulty",
            "manager.session_tail_pct.faulty",
            "manager.sessions.faulty",
        ),
    ] {
        values.set(count, samples.len() as f64);
        values.set(p50, median(samples).unwrap_or(0.0));
        if let Some(t) = stats::tail(samples) {
            values.set(tail, t.value);
            values.set(pct, t.percentile);
            eprintln!(
                "perfbench: {count}: p50 {:.4} ms, p{} {:.4} ms ({} beyond, {} samples)",
                median(samples).unwrap_or(0.0),
                t.percentile,
                t.value,
                t.beyond,
                t.samples
            );
        }
    }
}
