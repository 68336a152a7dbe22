//! The sharded work-stealing fleet scheduler.
//!
//! Node sessions are tasks keyed by each node's next-due virtual
//! deadline. Every worker owns a sharded deadline heap; it pops the
//! earliest task from its own shard, and steals the earliest task from a
//! sibling only when its shard runs dry. A node re-enqueues to the
//! running worker's shard, so stealing migrates *nodes*, not individual
//! sessions — locality by default, balance under skew (the wear-out
//! population's shorter period deliberately skews the load).
//!
//! Determinism: a node's observable behaviour is a pure function of
//! `(fleet seed, node index, virtual time)` and nodes are strictly
//! sequential, so scheduling only decides where and when a session runs.
//! Outcomes are merged in node-index order, making the aggregate (and the
//! per-node event logs) bit-identical for any worker count.

use std::collections::BinaryHeap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use sbst_core::{JsonValue, NdjsonWriter};

use crate::aggregate::Aggregate;
use crate::characterize::Characterizer;
use crate::node::{FleetNode, NodeOutcome, SessionSample};
use crate::profile::{assign_profile, NodeProfile, PopulationMix, NOMINAL_HZ};

/// Fleet run shape.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulated nodes.
    pub nodes: u64,
    /// Worker threads.
    pub workers: usize,
    /// Fleet seed — every node's profile and fault plan derives from it.
    pub seed: u64,
    /// Virtual run length in cycles (see [`NOMINAL_HZ`]).
    pub horizon_cycles: u64,
    /// Base periodic-test cadence in cycles.
    pub base_period_cycles: u64,
    /// Population mix.
    pub mix: PopulationMix,
    /// Whether nodes keep their full ordered event logs (small fleets /
    /// determinism tests only; counters are always kept).
    pub record_events: bool,
    /// Coverage target every characterized component is held to.
    pub coverage_slo_percent: f64,
    /// Telemetry lines buffered per worker before handing the batch to
    /// the shared writer.
    pub telemetry_batch_lines: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 1000,
            workers: 1,
            seed: 0x5B57_F1EE,
            horizon_cycles: 2 * NOMINAL_HZ,
            base_period_cycles: 600_000,
            mix: PopulationMix::default(),
            record_events: false,
            coverage_slo_percent: 90.0,
            telemetry_batch_lines: 64,
        }
    }
}

/// Per-worker accounting (observational — excluded from CI differentials).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Sessions this worker executed.
    pub sessions: u64,
    /// Tasks stolen from sibling shards.
    pub steals: u64,
    /// Nodes this worker finalized.
    pub nodes_finalized: u64,
    /// Telemetry lines this worker produced.
    pub telemetry_lines: u64,
    /// Batches this worker handed to the shared writer.
    pub telemetry_batches: u64,
}

/// A completed fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// Per-node outcomes, sorted by node index.
    pub outcomes: Vec<NodeOutcome>,
    /// The deterministic fleet rollup.
    pub aggregate: Aggregate,
    /// Per-worker accounting, by worker index.
    pub workers: Vec<WorkerStats>,
    /// Characterizations that ran (the invariant: exactly 1).
    pub characterizations: u64,
    /// Mountable targets compiled into evaluation tapes (the invariant:
    /// one per target, however many nodes mounted faults on them).
    pub target_compilations: u64,
    /// Telemetry lines streamed (0 without a telemetry sink).
    pub telemetry_lines: u64,
    /// Telemetry flushes performed by the shared writer.
    pub telemetry_flushes: u64,
}

/// A session task: one node due at a virtual deadline. Ordered so the
/// earliest `(due, index)` pops first from a max-heap.
struct Task {
    due: u64,
    index: u64,
    profile: Option<NodeProfile>,
    node: Option<Box<FleetNode>>,
}

impl PartialEq for Task {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.index) == (other.due, other.index)
    }
}
impl Eq for Task {}
impl PartialOrd for Task {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Task {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        (other.due, other.index).cmp(&(self.due, self.index))
    }
}

type Shard = Mutex<BinaryHeap<Task>>;

fn pop_task(own: usize, shards: &[Shard], stats: &mut WorkerStats) -> Option<Task> {
    if let Some(task) = shards[own].lock().expect("shard lock").pop() {
        return Some(task);
    }
    for offset in 1..shards.len() {
        let victim = (own + offset) % shards.len();
        if let Some(task) = shards[victim].lock().expect("shard lock").pop() {
            stats.steals += 1;
            return Some(task);
        }
    }
    None
}

fn session_line(index: u64, sample: &SessionSample) -> String {
    JsonValue::object([
        ("type", JsonValue::Str("session".to_owned())),
        ("node", JsonValue::UInt(index)),
        ("session", JsonValue::UInt(sample.session)),
        ("due_cycles", JsonValue::UInt(sample.due_cycles)),
        ("clock_cycles", JsonValue::UInt(sample.clock_cycles)),
        ("healthy", JsonValue::Bool(sample.healthy)),
        ("attempts", JsonValue::UInt(sample.attempts)),
        ("failures", JsonValue::UInt(sample.failures)),
        ("backoffs", JsonValue::UInt(sample.backoffs)),
    ])
    .to_ndjson_line()
}

fn node_line(outcome: &NodeOutcome) -> String {
    JsonValue::object([
        ("type", JsonValue::Str("node".to_owned())),
        ("node", JsonValue::UInt(outcome.index)),
        (
            "profile",
            JsonValue::Str(outcome.profile.kind.name().to_owned()),
        ),
        ("sessions", JsonValue::UInt(outcome.sessions)),
        ("attempts", JsonValue::UInt(outcome.counters.attempts)),
        ("passes", JsonValue::UInt(outcome.counters.passes)),
        ("transients", JsonValue::UInt(outcome.counters.transients)),
        (
            "attacks_injected",
            JsonValue::UInt(outcome.attacks_injected),
        ),
        (
            "tampers_detected",
            JsonValue::UInt(outcome.tampers_detected()),
        ),
        (
            "quarantined",
            JsonValue::Array(
                outcome
                    .quarantined
                    .iter()
                    .map(|name| JsonValue::Str(name.clone()))
                    .collect(),
            ),
        ),
        ("clock_cycles", JsonValue::UInt(outcome.clock_cycles)),
        (
            "digest",
            JsonValue::Str(format!("{:#018x}", outcome.digest)),
        ),
    ])
    .to_ndjson_line()
}

struct WorkerCtx<'a> {
    config: &'a FleetConfig,
    characterizer: &'a Characterizer,
    shards: &'a [Shard],
    remaining: &'a AtomicUsize,
    writer: Option<&'a Mutex<NdjsonWriter<Box<dyn Write + Send>>>>,
    tx: mpsc::Sender<NodeOutcome>,
}

fn flush_batch(
    writer: &Mutex<NdjsonWriter<Box<dyn Write + Send>>>,
    batch: &mut String,
    batch_lines: &mut u64,
    stats: &mut WorkerStats,
) {
    if batch.is_empty() {
        return;
    }
    writer
        .lock()
        .expect("telemetry lock")
        .write_batch(batch, *batch_lines)
        .expect("telemetry sink write");
    stats.telemetry_lines += *batch_lines;
    stats.telemetry_batches += 1;
    batch.clear();
    *batch_lines = 0;
}

fn worker_loop(worker: usize, ctx: &WorkerCtx<'_>) -> WorkerStats {
    let mut stats = WorkerStats {
        worker,
        ..WorkerStats::default()
    };
    let mut batch = String::new();
    let mut batch_lines = 0u64;
    loop {
        if ctx.remaining.load(Ordering::Acquire) == 0 {
            break;
        }
        let Some(mut task) = pop_task(worker, ctx.shards, &mut stats) else {
            // Every pending node is in flight on some other worker; its
            // next session (if any) will land in that worker's shard.
            std::thread::yield_now();
            continue;
        };
        // Lazy node construction: the first worker to pop a node builds
        // it — and, via the characterizer, the first node built anywhere
        // triggers the one shared characterization.
        let mut node = match task.node.take() {
            Some(node) => node,
            None => Box::new(FleetNode::new(
                task.index,
                task.profile.take().expect("unbuilt task carries profile"),
                ctx.characterizer.artifacts(),
                ctx.config.record_events,
            )),
        };
        let sample = node.run_due_session(ctx.config.horizon_cycles);
        stats.sessions += 1;
        if ctx.writer.is_some() {
            batch.push_str(&session_line(node.index(), &sample));
            batch_lines += 1;
        }
        if sample.done {
            let outcome = node.finish();
            if ctx.writer.is_some() {
                batch.push_str(&node_line(&outcome));
                batch_lines += 1;
            }
            ctx.tx.send(outcome).expect("collector outlives workers");
            stats.nodes_finalized += 1;
            ctx.remaining.fetch_sub(1, Ordering::Release);
        } else {
            ctx.shards[worker].lock().expect("shard lock").push(Task {
                due: node.next_due(),
                index: node.index(),
                profile: None,
                node: Some(node),
            });
        }
        if let Some(writer) = ctx.writer {
            if batch_lines >= ctx.config.telemetry_batch_lines {
                flush_batch(writer, &mut batch, &mut batch_lines, &mut stats);
            }
        }
    }
    if let Some(writer) = ctx.writer {
        flush_batch(writer, &mut batch, &mut batch_lines, &mut stats);
    }
    stats
}

/// Runs the fleet to its virtual horizon and returns the deterministic
/// rollup. `telemetry`, when given, receives the batched NDJSON stream
/// (session and node records; line order is scheduling-dependent, record
/// *contents* are not).
///
/// # Panics
///
/// Panics on telemetry I/O errors and on internal invariant violations
/// (a node lost or double-finalized).
pub fn run_fleet(
    config: &FleetConfig,
    characterizer: &Characterizer,
    telemetry: Option<Box<dyn Write + Send>>,
) -> FleetRun {
    let workers = config.workers.max(1);
    let target_specs = characterizer.target_specs();
    let shards: Vec<Shard> = (0..workers)
        .map(|_| Mutex::new(BinaryHeap::new()))
        .collect();
    for index in 0..config.nodes {
        let profile = assign_profile(
            config.seed,
            index,
            &config.mix,
            config.base_period_cycles,
            config.horizon_cycles,
            &target_specs,
        );
        shards[(index % workers as u64) as usize]
            .lock()
            .expect("shard lock")
            .push(Task {
                due: profile.phase_cycles,
                index,
                profile: Some(profile),
                node: None,
            });
    }

    let remaining = AtomicUsize::new(config.nodes as usize);
    let writer = telemetry.map(|sink| Mutex::new(NdjsonWriter::new(sink)));
    let (tx, rx) = mpsc::channel();

    let mut worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let ctx = WorkerCtx {
                    config,
                    characterizer,
                    shards: &shards,
                    remaining: &remaining,
                    writer: writer.as_ref(),
                    tx: tx.clone(),
                };
                scope.spawn(move || worker_loop(worker, &ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    drop(tx);
    worker_stats.sort_by_key(|s| s.worker);

    let mut outcomes: Vec<NodeOutcome> = rx.try_iter().collect();
    outcomes.sort_by_key(|o| o.index);
    assert_eq!(
        outcomes.len() as u64,
        config.nodes,
        "every node must finalize exactly once"
    );

    let (telemetry_lines, telemetry_flushes) = match writer {
        Some(writer) => {
            let mut writer = writer.into_inner().expect("telemetry lock");
            writer.flush().expect("telemetry sink flush");
            (writer.lines(), writer.flushes())
        }
        None => (0, 0),
    };

    let artifacts = characterizer.artifacts();
    let aggregate = Aggregate::build(&outcomes, &artifacts, config.coverage_slo_percent);

    FleetRun {
        outcomes,
        aggregate,
        workers: worker_stats,
        characterizations: characterizer.characterizations(),
        target_compilations: characterizer.target_compilations(),
        telemetry_lines,
        telemetry_flushes,
    }
}
