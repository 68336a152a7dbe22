//! Parallel fault simulation for single-stuck-at and gross
//! transition-delay fault models.
//!
//! Stuck-at faults are graded by [`FaultSimulator::simulate`];
//! transition-delay faults by [`FaultSimulator::simulate_transition`]
//! under two-pattern (launch/capture) semantics. Both models share all of
//! the machinery below — only the per-batch injection step differs.
//!
//! Three levels of parallelism/selectivity compose here:
//!
//! 1. **Bit-level**: each simulation pass packs up to [`LANES`]` - 1`
//!    faulty machines plus one fault-free reference machine into the 64
//!    lanes of a simulator word.
//! 2. **Thread-level**: the fault list is partitioned into
//!    [`FAULTS_PER_BATCH`]-sized batches (see [`fault_batches_by_cone`]),
//!    and the batches fan out over scoped worker threads. Batches are
//!    mutually independent — every worker owns a private simulator — so
//!    the reduction is a deterministic, fault-index-ordered merge and the
//!    results are **bit-identical** to the single-threaded path.
//! 3. **Event-level** ([`SimEngine::EventDriven`]): each batch runs on an
//!    [`EventSimulator`], which only re-evaluates gates whose inputs
//!    changed. Faults are packed into batches by fanout-cone locality, so
//!    a batch's activity stays confined to a small region of the netlist
//!    and the event-driven saving compounds.
//!
//! [`SimEngine::Compiled`] (the default) trades selectivity for raw
//! throughput: the netlist is compiled once into a flat evaluation tape
//! ([`crate::CompiledTape`]) with fanout-free chains collapsed, and each
//! pass runs [`crate::MAX_LANE_WORDS`]` × 64 = 256` lanes wide — one
//! reference plus up to 255 faults per pass, four times the narrow
//! engines' packing density. It also regroups: at fixed checkpoints a pass
//! whose faults are mostly detected parks its survivors' lane states, and
//! survivors from many passes are repacked into full passes that resume
//! there, so a few hard faults no longer keep nearly empty passes running
//! to the end of the stimulus (see `FaultSimulator::simulate_compiled`).
//!
//! The narrow engines publish detections into a shared atomic bitmap as
//! they find them (each fault's bit is owned by exactly one batch, hence
//! one thread), and `drop_on_detect` stops clocking a batch as soon as all
//! of its own faults are detected; their first batch records the
//! fault-free responses and always spans the whole stimulus.
//!
//! Coverage, per-fault detecting cycles and fault-free responses are
//! bit-identical across every engine, thread count and batching choice:
//! lanes are independent machines, a fault is only ever dropped once
//! detected, and a parked fault resumes from its own saved state.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::coverage::FaultCoverage;
use crate::event_sim::EventSimulator;
use crate::fault::{Fault, FaultSite, TransitionFault};
use crate::gate::{GateId, GateKind};
use crate::net::NetId;
use crate::netlist::Netlist;
use crate::sim::{Simulator, LANES};
use crate::tape::{CompiledTape, LaneSnapshot, TapeState, MAX_LANE_WORDS};

/// Faults graded per simulation pass: one lane per fault, with lane 0
/// reserved for the fault-free reference machine.
///
/// Derived from [`LANES`] so a lane-width change can never desync batching
/// from injection.
pub const FAULTS_PER_BATCH: usize = LANES - 1;

// Lane masks, the detection bitmap and the per-batch live mask are all
// `u64` words; the lane count must match exactly or injection masks would
// silently truncate.
const _: () = assert!(
    LANES == u64::BITS as usize,
    "LANES must equal the bit width of the u64 lane masks"
);

/// A sequence of input patterns applied to a netlist, one per clock cycle,
/// with per-cycle observability.
///
/// For combinational circuits every cycle is simply one test pattern. For
/// sequential circuits a stimulus describes a multi-cycle test session
/// (e.g. load a divider, clock it 32 times, observe the result), where
/// outputs are compared only on cycles marked observable.
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    /// One entry per cycle: the input vector (parallel to
    /// [`Netlist::inputs`]) and whether outputs are observed this cycle.
    cycles: Vec<(Vec<bool>, bool)>,
}

impl Stimulus {
    /// Creates an empty stimulus.
    pub fn new() -> Self {
        Stimulus::default()
    }

    /// Appends an observed pattern (the common case for combinational CUTs).
    pub fn push_pattern(&mut self, inputs: &[bool]) {
        self.cycles.push((inputs.to_vec(), true));
    }

    /// Appends a cycle whose outputs are not compared (sequential set-up or
    /// internal compute cycles).
    pub fn push_hidden_cycle(&mut self, inputs: &[bool]) {
        self.cycles.push((inputs.to_vec(), false));
    }

    /// Appends a cycle with explicit observability.
    pub fn push_cycle(&mut self, inputs: &[bool], observe: bool) {
        self.cycles.push((inputs.to_vec(), observe));
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Returns `true` if no cycles have been added.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Number of cycles whose outputs are observed.
    pub fn observed_cycles(&self) -> usize {
        self.cycles.iter().filter(|(_, o)| *o).count()
    }

    /// Iterates over `(inputs, observe)` cycles.
    pub fn iter(&self) -> impl Iterator<Item = (&[bool], bool)> {
        self.cycles.iter().map(|(v, o)| (v.as_slice(), *o))
    }
}

/// Partitions `fault_count` faults into the contiguous index ranges graded
/// together in one simulation pass ([`FAULTS_PER_BATCH`] faults per batch;
/// lane 0 carries the fault-free reference machine).
///
/// Every fault index appears in exactly one range, in order. An empty fault
/// list yields a single empty batch: the simulator still runs one
/// reference-only pass to record fault-free responses.
///
/// [`FaultSimulator::simulate`] itself groups faults by fanout-cone
/// locality instead (see [`fault_batches_by_cone`]); this index-order
/// partition remains available for callers that need contiguous ranges.
pub fn fault_batches(fault_count: usize) -> Vec<Range<usize>> {
    let per_batch = FAULTS_PER_BATCH;
    let n_batches = fault_count.div_ceil(per_batch).max(1);
    (0..n_batches)
        .map(|b| {
            let start = b * per_batch;
            start..(start + per_batch).min(fault_count)
        })
        .collect()
}

/// Sort key that clusters faults whose fanout cones overlap: the earliest
/// (level, gate) position at which the fault first perturbs combinational
/// logic. Faults acting through flip-flops only (DFF pins, registered
/// outputs) sort last — their cones start on the *next* cycle anywhere in
/// the netlist.
fn cone_key(netlist: &Netlist, fault: &Fault) -> (u32, u32) {
    fn gate_key(netlist: &Netlist, gid: GateId) -> (u32, u32) {
        if netlist.gate(gid).kind == GateKind::Dff {
            (u32::MAX, gid.index() as u32)
        } else {
            (netlist.gate_level(gid), gid.index() as u32)
        }
    }
    match fault.site {
        FaultSite::Pin { gate, .. } => gate_key(netlist, gate),
        FaultSite::Stem(net) => netlist
            .comb_users(net)
            .iter()
            .map(|&g| gate_key(netlist, g))
            .min()
            .unwrap_or_else(|| match netlist.driver(net) {
                Some(d) => gate_key(netlist, d),
                None => (u32::MAX, net.index() as u32),
            }),
    }
}

/// Packs fault indices into [`FAULTS_PER_BATCH`]-sized batches by
/// fanout-cone locality: faults are ordered by the topological position
/// where they first perturb the logic, then chunked. Each batch's activity
/// stays confined to a small region of the netlist, which compounds the
/// event-driven engine's selective-trace savings.
///
/// Every fault index appears in exactly one batch. An empty fault list
/// yields a single empty batch (the reference-only pass). Coverage is
/// independent of batch composition — lanes are independent and a batch
/// never stops early before all of its own faults are detected — so this
/// ordering is purely a performance choice.
pub fn fault_batches_by_cone(netlist: &Netlist, faults: &[Fault]) -> Vec<Vec<u32>> {
    fault_batches_by_cone_sized(netlist, faults, FAULTS_PER_BATCH)
}

/// [`fault_batches_by_cone`] with an explicit batch capacity, for engines
/// whose lane width differs from the narrow [`LANES`]-lane simulators —
/// [`SimEngine::Compiled`] packs [`SimEngine::faults_per_pass`] (255)
/// faults per pass.
pub fn fault_batches_by_cone_sized(
    netlist: &Netlist,
    faults: &[Fault],
    per_batch: usize,
) -> Vec<Vec<u32>> {
    assert!(per_batch > 0, "batches must hold at least one fault");
    let mut order: Vec<u32> = (0..faults.len() as u32).collect();
    order.sort_by_key(|&i| cone_key(netlist, &faults[i as usize]));
    let batches: Vec<Vec<u32>> = order
        .chunks(per_batch)
        .map(|chunk| chunk.to_vec())
        .collect();
    if batches.is_empty() {
        vec![Vec::new()]
    } else {
        batches
    }
}

/// Which simulation engine grades each fault batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// Evaluate every combinational gate on every cycle (the legacy
    /// engine; simple, branch-free inner loop).
    FullEval,
    /// Selective trace: levelize once, then per cycle propagate only
    /// through gates whose inputs changed.
    EventDriven,
    /// Compiled evaluation tape (see [`crate::CompiledTape`]): flat
    /// instruction stream with precomputed operand indices, fanout-free
    /// chains collapsed, and 4×`u64` lane blocks grading up to 255 faults
    /// per pass, with surviving faults repacked into full passes at
    /// checkpoints (the default).
    #[default]
    Compiled,
}

impl SimEngine {
    /// Human-readable engine name (used in bench output and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::FullEval => "full-eval",
            SimEngine::EventDriven => "event-driven",
            SimEngine::Compiled => "compiled",
        }
    }

    /// Parses an engine name as accepted by the `SBST_ENGINE` environment
    /// variable: `full` / `full-eval` / `fulleval`, `event` /
    /// `event-driven` / `eventdriven`, and `compiled` / `tape` /
    /// `compiled-tape` (case-insensitive).
    pub fn from_name(name: &str) -> Option<SimEngine> {
        match name.trim().to_ascii_lowercase().as_str() {
            "full" | "full-eval" | "full_eval" | "fulleval" => Some(SimEngine::FullEval),
            "event" | "event-driven" | "event_driven" | "eventdriven" => {
                Some(SimEngine::EventDriven)
            }
            "compiled" | "tape" | "compiled-tape" | "compiled_tape" | "compiledtape" => {
                Some(SimEngine::Compiled)
            }
            _ => None,
        }
    }

    /// Faults graded per simulation pass under this engine (excluding the
    /// fault-free reference lane): [`FAULTS_PER_BATCH`] for the narrow
    /// 64-lane engines, `4 × 64 - 1 = 255` for the wide compiled tape.
    pub fn faults_per_pass(self) -> usize {
        match self {
            SimEngine::FullEval | SimEngine::EventDriven => FAULTS_PER_BATCH,
            SimEngine::Compiled => MAX_LANE_WORDS * LANES - 1,
        }
    }
}

/// Configuration for [`FaultSimulator`].
#[derive(Debug, Clone, Copy)]
pub struct FaultSimConfig {
    /// Stop simulating a batch as soon as every fault in it is detected.
    pub drop_on_detect: bool,
    /// Reset flip-flops before each batch (almost always desired).
    pub reset_between_batches: bool,
    /// Worker threads for fault-batch fan-out.
    ///
    /// `None` (the default) uses [`std::thread::available_parallelism`];
    /// `Some(1)` is the exact single-threaded legacy path; `Some(n)` pins
    /// the pool, which is how benches make wall-clock numbers reproducible.
    /// The effective count never exceeds the number of batches. Coverage
    /// results are bit-identical for every setting.
    pub threads: Option<usize>,
    /// Simulation engine (default [`SimEngine::Compiled`]). Coverage
    /// results are bit-identical for every engine; only
    /// [`SimStats::events_simulated`], batch packing and wall time differ.
    pub engine: SimEngine,
}

impl Default for FaultSimConfig {
    fn default() -> Self {
        FaultSimConfig {
            drop_on_detect: true,
            reset_between_batches: true,
            threads: None,
            engine: SimEngine::default(),
        }
    }
}

impl FaultSimConfig {
    /// Default configuration with a pinned worker count.
    pub fn with_threads(threads: usize) -> Self {
        FaultSimConfig {
            threads: Some(threads.max(1)),
            ..FaultSimConfig::default()
        }
    }

    /// Default configuration with a pinned engine.
    pub fn with_engine(engine: SimEngine) -> Self {
        FaultSimConfig {
            engine,
            ..FaultSimConfig::default()
        }
    }

    /// The worker count this configuration resolves to for `batch_count`
    /// fault batches.
    pub fn resolved_threads(&self, batch_count: usize) -> usize {
        let requested = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        requested.clamp(1, batch_count.max(1))
    }
}

/// Per-worker accounting for one [`FaultSimulator::simulate`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Fault batches this worker graded (for the compiled engine: passes,
    /// repacked ones included).
    pub batches: u64,
    /// Netlist cycles this worker clocked.
    pub cycles: u64,
    /// Gate-evaluation events this worker performed.
    pub events: u64,
    /// Wall-clock time this worker spent grading batches.
    pub busy: Duration,
}

/// Instrumentation from one [`FaultSimulator::simulate`] run: how much
/// simulation happened, how much `drop_on_detect` and the event-driven
/// engine saved, and how evenly the work spread over the pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Fault batches graded from reset ([`SimEngine::faults_per_pass`]
    /// faults each, plus reference).
    pub batches: u64,
    /// Netlist cycles actually clocked, summed over batches (and, for the
    /// compiled engine, over repacked passes and any reference-only tail).
    pub cycles_simulated: u64,
    /// Cycles that a full run would clock (`batches * stimulus.len()`);
    /// the gap to `cycles_simulated` is the drop-on-detect saving, and
    /// for the compiled engine the park-and-repack saving too.
    pub cycles_scheduled: u64,
    /// Gate-evaluation events actually performed (each event evaluating
    /// all [`LANES`] machines bit-parallel). Under [`SimEngine::FullEval`]
    /// this equals [`SimStats::events_full_eval`]; under
    /// [`SimEngine::EventDriven`] it counts only the gates whose inputs
    /// changed — a *true* event count, not `cycles × gates`.
    pub events_simulated: u64,
    /// Events a full evaluation of every clocked cycle would have cost
    /// (`cycles_simulated × combinational gate count`) — the baseline the
    /// event-driven saving is measured against.
    pub events_full_eval: u64,
    /// Length of the compiled evaluation tape (entries per cycle); 0 for
    /// the non-compiled engines.
    pub tape_len: u64,
    /// Gates folded into a predecessor's tape entry by chain collapsing;
    /// 0 for the non-compiled engines.
    pub chains_collapsed: u64,
    /// Evaluation tapes compiled *during this call*: 1 on a compiled-engine
    /// simulator's first run, 0 afterwards (the tape is cached per
    /// [`FaultSimulator`]) and 0 for the non-compiled engines.
    pub tape_compilations: u64,
    /// Fault lanes actually occupied across all passes (the fault count).
    pub lane_slots_filled: u64,
    /// Fault-lane capacity across all passes
    /// (`batches × `[`SimEngine::faults_per_pass`]); the gap to
    /// `lane_slots_filled` is the final partial batch's padding.
    pub lane_slots_total: u64,
    /// Passes the compiled engine formed by repacking parked survivors at
    /// checkpoints (see the module docs); they come on top of
    /// `batches`, and the per-thread batch counts include them. 0 for the
    /// narrow engines.
    pub repacked_passes: u64,
    /// One entry per worker thread, in worker order.
    pub per_thread: Vec<ThreadStats>,
}

impl SimStats {
    /// Cycles skipped by `drop_on_detect` (early batch exits).
    pub fn cycles_dropped(&self) -> u64 {
        self.cycles_scheduled.saturating_sub(self.cycles_simulated)
    }

    /// Fraction of scheduled cycles skipped by `drop_on_detect`, as a
    /// percentage in `0.0..=100.0`.
    pub fn drop_savings_percent(&self) -> f64 {
        if self.cycles_scheduled == 0 {
            0.0
        } else {
            self.cycles_dropped() as f64 / self.cycles_scheduled as f64 * 100.0
        }
    }

    /// Events performed as a fraction of the full-eval baseline, in
    /// `0.0..=1.0` (1.0 for the full-eval engine; `None` when nothing was
    /// simulated).
    pub fn event_ratio(&self) -> Option<f64> {
        if self.events_full_eval == 0 {
            None
        } else {
            Some(self.events_simulated as f64 / self.events_full_eval as f64)
        }
    }

    /// Fraction of full-eval gate evaluations the event-driven engine
    /// skipped, as a percentage in `0.0..=100.0`.
    pub fn event_savings_percent(&self) -> f64 {
        match self.event_ratio() {
            Some(r) => (1.0 - r).max(0.0) * 100.0,
            None => 0.0,
        }
    }

    /// Fraction of available fault lanes occupied, in `0.0..=1.0` (0.0
    /// when nothing was graded). Only the final batch can be partial, so
    /// occupancy approaches 1.0 as the fault list grows.
    pub fn lane_occupancy(&self) -> f64 {
        if self.lane_slots_total == 0 {
            0.0
        } else {
            self.lane_slots_filled as f64 / self.lane_slots_total as f64
        }
    }

    /// Per-thread utilization relative to the run's wall-clock time
    /// (`busy / wall`), in `0.0..=1.0` per worker.
    pub fn utilization(&self, wall_time: Duration) -> Vec<f64> {
        let wall = wall_time.as_secs_f64();
        self.per_thread
            .iter()
            .map(|t| {
                if wall > 0.0 {
                    (t.busy.as_secs_f64() / wall).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Result of a fault simulation run.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    /// Per-fault detection flag, parallel to the fault list that was graded.
    pub detected: Vec<bool>,
    /// For detected faults, the (0-based) cycle of first detection.
    pub detecting_cycle: Vec<Option<u32>>,
    /// Fault-free output words per observed cycle (outputs packed LSB-first
    /// into `u64`s, 64 outputs per word).
    pub fault_free_responses: Vec<Vec<u64>>,
    /// Worker threads actually used for this run.
    pub threads_used: usize,
    /// Engine that graded the batches.
    pub engine: SimEngine,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
    /// Simulation-volume and thread-utilization instrumentation.
    pub stats: SimStats,
}

impl FaultSimResult {
    /// Coverage over the graded fault list.
    pub fn coverage(&self) -> FaultCoverage {
        FaultCoverage {
            total: self.detected.len(),
            detected: self.detected.iter().filter(|d| **d).count(),
        }
    }

    /// Indices of undetected faults.
    pub fn undetected(&self) -> Vec<usize> {
        self.detected
            .iter()
            .enumerate()
            .filter(|(_, d)| !**d)
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-thread utilization (`busy / wall_time`) for this run.
    pub fn thread_utilization(&self) -> Vec<f64> {
        self.stats.utilization(self.wall_time)
    }
}

/// Shared atomic detection bitmap, one bit per fault index.
///
/// Each bit is set by at most one worker (the one grading the fault's
/// batch), so relaxed ordering suffices; the scoped-thread join provides
/// the final happens-before edge for the merge.
struct DetectedBitmap {
    words: Vec<AtomicU64>,
}

impl DetectedBitmap {
    fn new(fault_count: usize) -> Self {
        DetectedBitmap {
            words: (0..fault_count.div_ceil(64).max(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn set(&self, index: usize) {
        self.words[index / 64].fetch_or(1u64 << (index % 64), Ordering::Relaxed);
    }

    fn get(&self, index: usize) -> bool {
        self.words[index / 64].load(Ordering::Relaxed) >> (index % 64) & 1 == 1
    }
}

/// Engine-dispatched simulator backend for one batch.
enum Backend<'a> {
    Full {
        sim: Simulator<'a>,
        comb_gates: u64,
        events: u64,
    },
    Event(EventSimulator<'a>),
}

impl<'a> Backend<'a> {
    fn new(netlist: &'a Netlist, engine: SimEngine) -> Self {
        match engine {
            SimEngine::FullEval => Backend::Full {
                sim: Simulator::new(netlist),
                comb_gates: netlist.comb_order().len() as u64,
                events: 0,
            },
            SimEngine::EventDriven => Backend::Event(EventSimulator::new(netlist)),
            // Compiled batches never reach the narrow backend: run_batch
            // dispatches them to run_batch_compiled first.
            SimEngine::Compiled => unreachable!("compiled engine uses TapeSimulator"),
        }
    }

    fn reset(&mut self) {
        match self {
            Backend::Full { sim, .. } => sim.reset(),
            Backend::Event(sim) => sim.reset(),
        }
    }

    fn inject_fault(&mut self, fault: &Fault, lane_mask: u64) {
        match self {
            Backend::Full { sim, .. } => sim.inject_fault(fault, lane_mask),
            Backend::Event(sim) => sim.inject_fault(fault, lane_mask),
        }
    }

    fn inject_transition_fault(&mut self, fault: &TransitionFault, lane_mask: u64) {
        match self {
            Backend::Full { sim, .. } => sim.inject_transition_fault(fault, lane_mask),
            Backend::Event(sim) => sim.inject_transition_fault(fault, lane_mask),
        }
    }

    fn set_input(&mut self, net: NetId, value: bool) {
        match self {
            Backend::Full { sim, .. } => sim.set_input(net, value),
            Backend::Event(sim) => sim.set_input(net, value),
        }
    }

    fn eval(&mut self) {
        match self {
            Backend::Full {
                sim,
                comb_gates,
                events,
            } => {
                sim.eval();
                *events += *comb_gates;
            }
            Backend::Event(sim) => sim.eval(),
        }
    }

    fn step(&mut self) {
        match self {
            Backend::Full { sim, .. } => sim.step(),
            Backend::Event(sim) => sim.step(),
        }
    }

    fn value(&self, net: NetId) -> u64 {
        match self {
            Backend::Full { sim, .. } => sim.value(net),
            Backend::Event(sim) => sim.value(net),
        }
    }

    fn events(&self) -> u64 {
        match self {
            Backend::Full { events, .. } => *events,
            Backend::Event(sim) => sim.events(),
        }
    }
}

/// The fault list being graded: either classic single-stuck-at faults or
/// gross transition-delay faults (two-pattern detection).
///
/// This indirection lets the batching, threading, lane-assignment and
/// detection machinery be shared between both models: the only
/// model-specific step is *injection*, which happens once per batch before
/// the cycle loop, so the per-cycle hot path is identical (and the
/// stuck-at path stays exactly as fast as before).
#[derive(Clone, Copy)]
enum FaultList<'f> {
    Stuck(&'f [Fault]),
    Transition(&'f [TransitionFault]),
}

impl<'f> FaultList<'f> {
    fn len(&self) -> usize {
        match self {
            FaultList::Stuck(faults) => faults.len(),
            FaultList::Transition(faults) => faults.len(),
        }
    }

    /// Injects fault `index` into a narrow (64-lane) backend.
    fn inject(&self, sim: &mut Backend<'_>, index: usize, lane_mask: u64) {
        match self {
            FaultList::Stuck(faults) => sim.inject_fault(&faults[index], lane_mask),
            FaultList::Transition(faults) => sim.inject_transition_fault(&faults[index], lane_mask),
        }
    }

    /// Injects fault `index` into lane `lane` of a compiled-tape state.
    fn inject_tape<const W: usize>(
        &self,
        tape: &CompiledTape<&Netlist>,
        sim: &mut TapeState<W>,
        index: usize,
        lane: usize,
    ) {
        match self {
            FaultList::Stuck(faults) => sim.inject_fault(tape, &faults[index], lane),
            FaultList::Transition(faults) => {
                sim.inject_transition_fault(tape, &faults[index], lane)
            }
        }
    }

    /// Cone-locality batches for this fault list. Transition faults batch
    /// by their capture-side stuck-at equivalent (the stem stuck at the
    /// initialization value), which has the same fanout cone.
    fn batches(&self, netlist: &Netlist, per_batch: usize) -> Vec<Vec<u32>> {
        match self {
            FaultList::Stuck(faults) => fault_batches_by_cone_sized(netlist, faults, per_batch),
            FaultList::Transition(faults) => {
                let capture: Vec<Fault> = faults.iter().map(|f| f.capture_stuck_at()).collect();
                fault_batches_by_cone_sized(netlist, &capture, per_batch)
            }
        }
    }
}

/// Parallel single-stuck-at fault simulator.
///
/// Packs up to [`FAULTS_PER_BATCH`] faulty machines plus one fault-free
/// reference machine (lane 0) into each simulation pass, and fans the
/// passes out over worker threads (see [`FaultSimConfig::threads`]). A
/// fault is *detected* when any primary output differs from the reference
/// lane on an observed cycle — the same criterion commercial fault
/// simulators use. MISR aliasing, which the paper argues is negligible, can
/// be audited separately with `sbst-tpg`'s MISR model.
#[derive(Debug)]
pub struct FaultSimulator<'a> {
    netlist: &'a Netlist,
    config: FaultSimConfig,
    /// Compiled evaluation tape, built lazily on the first compiled-engine
    /// run and reused by every later [`FaultSimulator::simulate`] call on
    /// this simulator — callers that grade many small stimuli (ATPG fault
    /// dropping) pay compilation once per simulator, not once per call.
    tape: OnceLock<CompiledTape<&'a Netlist>>,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a fault simulator with the default configuration.
    pub fn new(netlist: &'a Netlist) -> Self {
        FaultSimulator {
            netlist,
            config: FaultSimConfig::default(),
            tape: OnceLock::new(),
        }
    }

    /// Creates a fault simulator with an explicit configuration.
    pub fn with_config(netlist: &'a Netlist, config: FaultSimConfig) -> Self {
        FaultSimulator {
            netlist,
            config,
            tape: OnceLock::new(),
        }
    }

    /// Grades `faults` against `stimulus`.
    ///
    /// Returns per-fault detection data; see [`FaultSimResult`]. The result
    /// is bit-identical for every thread count and engine.
    pub fn simulate(&self, faults: &[Fault], stimulus: &Stimulus) -> FaultSimResult {
        self.simulate_list(FaultList::Stuck(faults), stimulus)
    }

    /// Grades gross transition-delay faults against `stimulus` under
    /// two-pattern (launch/capture) semantics.
    ///
    /// Each simulator batch starts un-primed: the first cycle is a pure
    /// launch (it arms lanes whose net settles at the fault's slow-side
    /// initialization value but never forces), and from the second cycle on
    /// armed lanes hold the net at its initialization value for one extra
    /// cycle — the gross-delay model where the affected transition arrives
    /// a full clock late. Detection is the same observed-cycle
    /// output-vs-reference comparison as [`FaultSimulator::simulate`], so a
    /// transition fault is detected exactly when some pattern *pair*
    /// (consecutive cycles) initializes and then excites it with the error
    /// propagated to an observed output.
    ///
    /// Batching, threading, drop-on-detect and the reference recording all
    /// behave as in [`FaultSimulator::simulate`]; results are bit-identical
    /// across engines and thread counts.
    pub fn simulate_transition(
        &self,
        faults: &[TransitionFault],
        stimulus: &Stimulus,
    ) -> FaultSimResult {
        self.simulate_list(FaultList::Transition(faults), stimulus)
    }

    /// Shared grading driver for both fault models.
    fn simulate_list(&self, faults: FaultList<'_>, stimulus: &Stimulus) -> FaultSimResult {
        let start = Instant::now();
        let batches = faults.batches(self.netlist, self.config.engine.faults_per_pass());
        // The compiled engine's tape is built once per *simulator* and
        // shared (immutably) by every worker and every later call; each
        // worker still owns a private simulator state.
        let mut tape_compilations = 0u64;
        let tape = matches!(self.config.engine, SimEngine::Compiled).then(|| {
            self.tape.get_or_init(|| {
                tape_compilations += 1;
                CompiledTape::compile(self.netlist)
            })
        });
        let threads = self.config.resolved_threads(batches.len());
        let batch_count = batches.len() as u64;
        let mut result = if let Some(tape) = tape {
            self.simulate_compiled(tape, batches, faults, stimulus, threads)
        } else if threads <= 1 {
            self.simulate_serial(&batches, faults, stimulus)
        } else {
            self.simulate_threaded(&batches, faults, stimulus, threads)
        };
        result.threads_used = threads;
        result.engine = self.config.engine;
        result.wall_time = start.elapsed();
        result.stats.batches = batch_count;
        result.stats.cycles_scheduled = batch_count * stimulus.len() as u64;
        result.stats.cycles_simulated = result.stats.per_thread.iter().map(|t| t.cycles).sum();
        result.stats.events_simulated = result.stats.per_thread.iter().map(|t| t.events).sum();
        result.stats.events_full_eval =
            result.stats.cycles_simulated * self.netlist.comb_order().len() as u64;
        if let Some(tape) = tape {
            result.stats.tape_len = tape.tape_len() as u64;
            result.stats.chains_collapsed = tape.chains_collapsed() as u64;
        }
        result.stats.tape_compilations = tape_compilations;
        result.stats.lane_slots_filled = faults.len() as u64;
        result.stats.lane_slots_total = batch_count * self.config.engine.faults_per_pass() as u64;
        result
    }

    /// The legacy single-threaded path: batches graded in order on the
    /// calling thread.
    fn simulate_serial(
        &self,
        batches: &[Vec<u32>],
        faults: FaultList<'_>,
        stimulus: &Stimulus,
    ) -> FaultSimResult {
        let mut detected = vec![false; faults.len()];
        let mut detecting_cycle = vec![None; faults.len()];
        let mut fault_free_responses = Vec::new();
        let mut thread_stats = ThreadStats::default();
        let busy_start = Instant::now();
        for (index, batch) in batches.iter().enumerate() {
            let (cycles_run, events_run, reference) = self.run_batch(
                faults,
                batch,
                stimulus,
                index == 0,
                &mut |fault_index, cycle| {
                    detected[fault_index] = true;
                    detecting_cycle[fault_index] = Some(cycle);
                },
            );
            thread_stats.batches += 1;
            thread_stats.cycles += cycles_run;
            thread_stats.events += events_run;
            if let Some(responses) = reference {
                fault_free_responses = responses;
            }
        }
        thread_stats.busy = busy_start.elapsed();
        FaultSimResult {
            detected,
            detecting_cycle,
            fault_free_responses,
            threads_used: 1,
            engine: self.config.engine,
            wall_time: Duration::ZERO,
            stats: SimStats {
                per_thread: vec![thread_stats],
                ..SimStats::default()
            },
        }
    }

    /// Fans batches out over `threads` scoped workers and merges the
    /// per-batch results in fault-index order.
    fn simulate_threaded(
        &self,
        batches: &[Vec<u32>],
        faults: FaultList<'_>,
        stimulus: &Stimulus,
        threads: usize,
    ) -> FaultSimResult {
        let bitmap = DetectedBitmap::new(faults.len());
        // One slot per batch for the detecting-cycle vector; each slot is
        // written by exactly one worker.
        let cycle_slots: Vec<OnceLock<Vec<Option<u32>>>> =
            (0..batches.len()).map(|_| OnceLock::new()).collect();
        let reference_slot: OnceLock<Vec<Vec<u64>>> = OnceLock::new();
        // One slot per worker for its accounting; written once at exit.
        let thread_slots: Vec<OnceLock<ThreadStats>> =
            (0..threads).map(|_| OnceLock::new()).collect();
        let next_batch = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let bitmap = &bitmap;
            let cycle_slots = &cycle_slots;
            let reference_slot = &reference_slot;
            let next_batch = &next_batch;
            for thread_slot in &thread_slots {
                scope.spawn(move || {
                    let mut local = ThreadStats::default();
                    let busy_start = Instant::now();
                    loop {
                        let index = next_batch.fetch_add(1, Ordering::Relaxed);
                        let Some(batch) = batches.get(index) else {
                            break;
                        };
                        let mut cycles = vec![None; batch.len()];
                        let (cycles_run, events_run, reference) = self.run_batch(
                            faults,
                            batch,
                            stimulus,
                            index == 0,
                            &mut |fault_index, cycle| {
                                bitmap.set(fault_index);
                                let offset = batch
                                    .iter()
                                    .position(|&fi| fi as usize == fault_index)
                                    .expect("detected fault belongs to this batch");
                                cycles[offset] = Some(cycle);
                            },
                        );
                        local.batches += 1;
                        local.cycles += cycles_run;
                        local.events += events_run;
                        cycle_slots[index]
                            .set(cycles)
                            .expect("each batch is graded exactly once");
                        if let Some(responses) = reference {
                            reference_slot
                                .set(responses)
                                .expect("only batch 0 records the reference");
                        }
                    }
                    local.busy = busy_start.elapsed();
                    thread_slot
                        .set(local)
                        .expect("each worker reports exactly once");
                });
            }
        });

        // Deterministic reduction: visit batches (hence faults) in batch
        // order, independent of which worker graded what when. Each fault
        // index lives in exactly one batch.
        let mut detected = vec![false; faults.len()];
        let mut detecting_cycle = vec![None; faults.len()];
        for (index, batch) in batches.iter().enumerate() {
            let cycles = cycle_slots[index].get().expect("every batch ran");
            for (offset, &fault_index) in batch.iter().enumerate() {
                detecting_cycle[fault_index as usize] = cycles[offset];
                detected[fault_index as usize] = bitmap.get(fault_index as usize);
            }
        }
        FaultSimResult {
            detected,
            detecting_cycle,
            fault_free_responses: reference_slot.into_inner().unwrap_or_default(),
            threads_used: threads,
            engine: self.config.engine,
            wall_time: Duration::ZERO,
            stats: SimStats {
                per_thread: thread_slots
                    .into_iter()
                    .map(|slot| slot.into_inner().expect("every worker reported"))
                    .collect(),
                ..SimStats::default()
            },
        }
    }

    /// Grades one batch of faults (given as global fault indices) on a
    /// private simulator backend.
    ///
    /// Reports each detection through `on_detect(global_fault_index,
    /// cycle)`. When `record_reference` is set (the first batch), the
    /// fault-free lane-0 responses of every observed cycle are returned and
    /// the batch never stops early — the reference must span the whole
    /// stimulus. Other batches may stop early under
    /// [`FaultSimConfig::drop_on_detect`].
    ///
    /// Returns the number of cycles clocked and gate-evaluation events
    /// performed, alongside the optional reference responses.
    fn run_batch(
        &self,
        faults: FaultList<'_>,
        batch: &[u32],
        stimulus: &Stimulus,
        record_reference: bool,
        on_detect: &mut dyn FnMut(usize, u32),
    ) -> (u64, u64, Option<Vec<Vec<u64>>>) {
        debug_assert!(batch.len() <= FAULTS_PER_BATCH);
        let mut sim = Backend::new(self.netlist, self.config.engine);
        if self.config.reset_between_batches {
            sim.reset();
        }
        for (lane_off, &fault_index) in batch.iter().enumerate() {
            faults.inject(&mut sim, fault_index as usize, 1u64 << (lane_off + 1));
        }
        // Mask of lanes carrying live (not yet detected) faults:
        // lanes 1..=batch.len().
        let live_mask: u64 = (((1u128 << batch.len()) - 1) as u64) << 1;
        let mut undetected_mask = live_mask;
        let mut fault_free_responses: Vec<Vec<u64>> = Vec::new();
        let mut cycles_run: u64 = 0;

        for (cycle, (inputs, observe)) in stimulus.iter().enumerate() {
            cycles_run += 1;
            let cycle_index = cycle as u32;
            debug_assert_eq!(inputs.len(), self.netlist.inputs().len());
            for (pos, &net) in self.netlist.inputs().iter().enumerate() {
                sim.set_input(net, inputs[pos]);
            }
            sim.eval();
            if observe {
                let mut diff_mask = 0u64;
                let outputs = self.netlist.outputs();
                let mut response_words: Vec<u64> = if record_reference {
                    vec![0; outputs.len().div_ceil(64)]
                } else {
                    Vec::new()
                };
                for (k, &out) in outputs.iter().enumerate() {
                    let v = sim.value(out);
                    let reference = 0u64.wrapping_sub(v & 1); // broadcast lane 0
                    diff_mask |= v ^ reference;
                    if record_reference && (v & 1) == 1 {
                        response_words[k / 64] |= 1u64 << (k % 64);
                    }
                }
                if record_reference {
                    fault_free_responses.push(response_words);
                }
                let newly = diff_mask & undetected_mask;
                if newly != 0 {
                    let mut bits = newly;
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        on_detect(batch[lane - 1] as usize, cycle_index);
                    }
                    undetected_mask &= !newly;
                    if self.config.drop_on_detect && undetected_mask == 0 && !record_reference {
                        break;
                    }
                }
            }
            sim.step();
        }
        (
            cycles_run,
            sim.events(),
            record_reference.then_some(fault_free_responses),
        )
    }

    /// The compiled engine's driver: a deterministic park-and-repack
    /// schedule over rounds of 255-fault passes.
    ///
    /// Round 0 grades the cone-ordered `batches` from reset. A pass ends
    /// when the stimulus does, or (under drop-on-detect) once all its
    /// faults are detected, or at a checkpoint — every
    /// [`checkpoint_interval`] cycles — once fewer than half the faults it
    /// started with are undetected: it then *parks*, saving each
    /// survivor's lane state and the fault-free lane's. Survivors parked at
    /// one checkpoint are repacked in fault-index order into full passes
    /// that resume there with lane 0 restored to the fault-free state;
    /// these form the next round, earliest checkpoint first. Lanes are
    /// independent machines, so each fault follows its exact trajectory
    /// from cycle 0, and every round merges in pass order, so detections,
    /// responses and stats are the same for every thread count.
    ///
    /// Fault-free responses come from whichever pass clocks each observed
    /// cycle first. Passes cover a prefix of the stimulus; if every fault
    /// is detected before it ends, a reference-only 64-lane pass resumes
    /// from the fault-free state where the last pass stopped.
    fn simulate_compiled(
        &self,
        tape: &CompiledTape<&Netlist>,
        batches: Vec<Vec<u32>>,
        faults: FaultList<'_>,
        stimulus: &Stimulus,
        threads: usize,
    ) -> FaultSimResult {
        let responses = ReferenceResponses::new(stimulus.len(), self.netlist.outputs().len());
        let mut detected = vec![false; faults.len()];
        let mut detecting_cycle = vec![None; faults.len()];
        let mut per_thread = vec![ThreadStats::default(); threads];
        let mut states: Vec<TapeState<MAX_LANE_WORDS>> =
            (0..threads).map(|_| TapeState::new(tape)).collect();
        // Survivors by the checkpoint they parked at, with the fault-free
        // lane's state there.
        let mut parked: BTreeMap<usize, (LaneSnapshot, Vec<(u32, LaneSnapshot)>)> = BTreeMap::new();
        // The furthest cycle a pass reached with all its faults detected,
        // and the fault-free state there.
        let mut frontier: Option<(usize, LaneSnapshot)> = None;
        let mut repacked_passes = 0u64;
        let mut round = Round {
            start: 0,
            reference: None,
            passes: batches
                .into_iter()
                .map(|faults| Pass {
                    faults,
                    saved: Vec::new(),
                })
                .collect(),
        };
        loop {
            let outcomes = self.run_round(
                tape,
                faults,
                &round,
                stimulus,
                &responses,
                &mut states,
                &mut per_thread,
            );
            for outcome in outcomes {
                for (fault, cycle) in outcome.detections {
                    detected[fault as usize] = true;
                    detecting_cycle[fault as usize] = Some(cycle);
                }
                if let Some(p) = outcome.parked {
                    parked
                        .entry(p.cycle)
                        .or_insert_with(|| (p.reference, Vec::new()))
                        .1
                        .extend(p.lanes);
                }
                if let Some((cycle, state)) = outcome.finished {
                    if frontier.as_ref().is_none_or(|(c, _)| cycle > *c) {
                        frontier = Some((cycle, state));
                    }
                }
            }
            let Some((start, (reference, mut lanes))) = parked.pop_first() else {
                break;
            };
            lanes.sort_unstable_by_key(|&(fault, _)| fault);
            let mut passes = Vec::new();
            let mut lanes = lanes.into_iter().peekable();
            while lanes.peek().is_some() {
                let (faults, saved) = lanes
                    .by_ref()
                    .take(SimEngine::Compiled.faults_per_pass())
                    .unzip();
                passes.push(Pass { faults, saved });
            }
            repacked_passes += passes.len() as u64;
            round = Round {
                start,
                reference: Some(reference),
                passes,
            };
        }
        if !responses.complete(stimulus) {
            let (start, reference) = frontier.expect("passes stopping early leave a frontier");
            let busy_start = Instant::now();
            let mut sim: TapeState<1> = TapeState::new(tape);
            let tail = self.run_pass(
                tape,
                faults,
                start,
                Some(&reference),
                &Pass::default(),
                stimulus,
                &responses,
                &mut sim,
            );
            per_thread[0].cycles += tail.cycles;
            per_thread[0].events += tail.events;
            per_thread[0].busy += busy_start.elapsed();
        }
        FaultSimResult {
            detected,
            detecting_cycle,
            fault_free_responses: responses.into_responses(stimulus),
            threads_used: threads,
            engine: self.config.engine,
            wall_time: Duration::ZERO,
            stats: SimStats {
                repacked_passes,
                per_thread,
                ..SimStats::default()
            },
        }
    }

    /// Runs one round's passes — on the calling thread, or as one parallel
    /// round over the workers behind an atomic cursor — and returns their
    /// outcomes in pass order. Worker `k` drives `states[k]` and accounts
    /// into `per_thread[k]`.
    #[allow(clippy::too_many_arguments)]
    fn run_round(
        &self,
        tape: &CompiledTape<&Netlist>,
        faults: FaultList<'_>,
        round: &Round,
        stimulus: &Stimulus,
        responses: &ReferenceResponses,
        states: &mut [TapeState<MAX_LANE_WORDS>],
        per_thread: &mut [ThreadStats],
    ) -> Vec<PassOutcome> {
        let run = |pass: &Pass, sim: &mut TapeState<MAX_LANE_WORDS>, stats: &mut ThreadStats| {
            let outcome = self.run_pass(
                tape,
                faults,
                round.start,
                round.reference.as_ref(),
                pass,
                stimulus,
                responses,
                sim,
            );
            stats.batches += 1;
            stats.cycles += outcome.cycles;
            stats.events += outcome.events;
            outcome
        };
        let workers = states.len().min(round.passes.len());
        if workers <= 1 {
            let busy_start = Instant::now();
            let outcomes = round
                .passes
                .iter()
                .map(|pass| run(pass, &mut states[0], &mut per_thread[0]))
                .collect();
            per_thread[0].busy += busy_start.elapsed();
            return outcomes;
        }
        let slots: Vec<OnceLock<PassOutcome>> =
            (0..round.passes.len()).map(|_| OnceLock::new()).collect();
        let next_pass = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for (sim, stats) in states.iter_mut().zip(per_thread.iter_mut()).take(workers) {
                let (run, slots, next_pass) = (&run, &slots, &next_pass);
                scope.spawn(move || {
                    let busy_start = Instant::now();
                    loop {
                        let index = next_pass.fetch_add(1, Ordering::Relaxed);
                        let Some(pass) = round.passes.get(index) else {
                            break;
                        };
                        slots[index]
                            .set(run(pass, sim, stats))
                            .unwrap_or_else(|_| unreachable!("each pass runs exactly once"));
                    }
                    stats.busy += busy_start.elapsed();
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every pass ran"))
            .collect()
    }

    /// Grades one pass on `sim` from cycle `start`: faults go into lanes
    /// `1..`, and when resuming at a checkpoint, lane 0 and each fault's
    /// lane are restored from `reference` and the pass's saved states.
    /// Records fault-free responses not recorded yet into `responses`.
    #[allow(clippy::too_many_arguments)]
    fn run_pass<const W: usize>(
        &self,
        tape: &CompiledTape<&Netlist>,
        faults: FaultList<'_>,
        start: usize,
        reference: Option<&LaneSnapshot>,
        pass: &Pass,
        stimulus: &Stimulus,
        responses: &ReferenceResponses,
        sim: &mut TapeState<W>,
    ) -> PassOutcome {
        debug_assert!(pass.faults.len() < 64 * W);
        sim.clear_faults();
        sim.reset();
        for (offset, &fault) in pass.faults.iter().enumerate() {
            faults.inject_tape(tape, sim, fault as usize, offset + 1);
        }
        if let Some(reference) = reference {
            sim.restore_lane(0, reference);
            for (offset, saved) in pass.saved.iter().enumerate() {
                sim.restore_lane(offset + 1, saved);
            }
        }
        // Lanes carrying undetected faults: 1..=pass.faults.len().
        let mut undetected = [0u64; W];
        for lane in 1..=pass.faults.len() {
            undetected[lane / 64] |= 1u64 << (lane % 64);
        }
        let started = pass.faults.len();
        let mut live = started;
        let len = stimulus.len();
        let interval = checkpoint_interval(len);
        let drop = self.config.drop_on_detect;
        let outputs = self.netlist.outputs();
        let mut response = vec![0u64; outputs.len().div_ceil(64)];
        let events_before = sim.events();
        let mut out = PassOutcome::default();

        for cycle in start..len {
            let (inputs, observe) = &stimulus.cycles[cycle];
            out.cycles += 1;
            debug_assert_eq!(inputs.len(), self.netlist.inputs().len());
            for (pos, &value) in inputs.iter().enumerate() {
                sim.set_input_at(pos, value);
            }
            sim.eval(tape);
            if *observe {
                let record = !responses.is_recorded(cycle);
                response.fill(0);
                let mut diff = [0u64; W];
                for (k, &net) in outputs.iter().enumerate() {
                    let v = sim.value(net);
                    let reference = 0u64.wrapping_sub(v[0] & 1); // broadcast lane 0
                    for w in 0..W {
                        diff[w] |= v[w] ^ reference;
                    }
                    if record {
                        response[k / 64] |= (v[0] & 1) << (k % 64);
                    }
                }
                if record {
                    responses.record(cycle, &response);
                }
                let mut any_new = false;
                for w in 0..W {
                    let mut newly = diff[w] & undetected[w];
                    undetected[w] &= !newly;
                    while newly != 0 {
                        let lane = w * 64 + newly.trailing_zeros() as usize;
                        newly &= newly - 1;
                        out.detections.push((pass.faults[lane - 1], cycle as u32));
                        live -= 1;
                        any_new = true;
                    }
                }
                if any_new && live == 0 && drop {
                    if cycle + 1 < len {
                        sim.step(tape);
                        out.finished = Some((cycle + 1, sim.snapshot_lane(0)));
                    }
                    break;
                }
            }
            sim.step(tape);
            let next = cycle + 1;
            if drop && 2 * live < started && next % interval == 0 && next < len {
                let lanes = (1..=started)
                    .filter(|&lane| undetected[lane / 64] >> (lane % 64) & 1 == 1)
                    .map(|lane| (pass.faults[lane - 1], sim.snapshot_lane(lane)))
                    .collect();
                out.parked = Some(Parked {
                    cycle: next,
                    reference: sim.snapshot_lane(0),
                    lanes,
                });
                break;
            }
        }
        out.events = sim.events() - events_before;
        out
    }
}

/// Checkpoints per stimulus in the compiled engine's park-and-repack
/// schedule.
const CHECKPOINTS_PER_STIMULUS: usize = 32;

/// Cycles between the compiled engine's checkpoints for a `len`-cycle
/// stimulus. The grid follows from the stimulus length alone, so the
/// schedule depends on nothing a caller configures.
fn checkpoint_interval(len: usize) -> usize {
    len.div_ceil(CHECKPOINTS_PER_STIMULUS).max(1)
}

/// One compiled-engine pass: up to 255 faults (global indices, in lanes
/// `1..`), resumed at its round's start.
#[derive(Default)]
struct Pass {
    faults: Vec<u32>,
    /// Each fault's lane state at the round's start, parallel to
    /// `faults`; empty for a pass that starts from reset.
    saved: Vec<LaneSnapshot>,
}

/// Passes that start together at one checkpoint.
struct Round {
    /// The cycle the passes start at (0: from reset).
    start: usize,
    /// The fault-free lane's state at `start`; `None` from reset.
    reference: Option<LaneSnapshot>,
    passes: Vec<Pass>,
}

/// Survivors a pass parked at a checkpoint.
struct Parked {
    cycle: usize,
    /// The fault-free lane's state at `cycle`.
    reference: LaneSnapshot,
    /// `(fault, lane state)` per undetected fault, in lane order.
    lanes: Vec<(u32, LaneSnapshot)>,
}

/// What one pass produced.
#[derive(Default)]
struct PassOutcome {
    /// `(fault, detecting cycle)` pairs.
    detections: Vec<(u32, u32)>,
    parked: Option<Parked>,
    /// Set when all faults were detected before the stimulus ended: the
    /// next cycle and the fault-free lane's state there.
    finished: Option<(usize, LaneSnapshot)>,
    cycles: u64,
    events: u64,
}

/// Fault-free output words per cycle, filled by whichever pass clocks a
/// cycle first. Every pass's lane 0 is the same fault-free machine, so
/// racing writers store identical words; the scoped-thread join orders
/// every store before the final read.
struct ReferenceResponses {
    words_per_cycle: usize,
    words: Vec<AtomicU64>,
    recorded: Vec<AtomicBool>,
}

impl ReferenceResponses {
    fn new(cycles: usize, outputs: usize) -> Self {
        let words_per_cycle = outputs.div_ceil(64);
        ReferenceResponses {
            words_per_cycle,
            words: (0..cycles * words_per_cycle)
                .map(|_| AtomicU64::new(0))
                .collect(),
            recorded: (0..cycles).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn is_recorded(&self, cycle: usize) -> bool {
        self.recorded[cycle].load(Ordering::Relaxed)
    }

    fn record(&self, cycle: usize, response: &[u64]) {
        let base = cycle * self.words_per_cycle;
        for (slot, &word) in self.words[base..base + self.words_per_cycle]
            .iter()
            .zip(response)
        {
            slot.store(word, Ordering::Relaxed);
        }
        self.recorded[cycle].store(true, Ordering::Relaxed);
    }

    /// Whether every observed cycle of `stimulus` has its response.
    fn complete(&self, stimulus: &Stimulus) -> bool {
        stimulus
            .iter()
            .enumerate()
            .all(|(cycle, (_, observe))| !observe || self.is_recorded(cycle))
    }

    /// The responses of the observed cycles, in order.
    fn into_responses(self, stimulus: &Stimulus) -> Vec<Vec<u64>> {
        let words: Vec<u64> = self.words.into_iter().map(AtomicU64::into_inner).collect();
        stimulus
            .iter()
            .enumerate()
            .filter(|(_, (_, observe))| *observe)
            .map(|(cycle, _)| {
                assert!(
                    self.recorded[cycle].load(Ordering::Relaxed),
                    "cycle {cycle} has no fault-free response"
                );
                words[cycle * self.words_per_cycle..(cycle + 1) * self.words_per_cycle].to_vec()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;

    fn and2_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("b");
        let o = b.and2(a, c);
        b.mark_output(o, "o");
        b.finish().unwrap()
    }

    fn exhaustive2() -> Stimulus {
        let mut s = Stimulus::new();
        for v in 0..4u8 {
            s.push_pattern(&[v & 1 != 0, v & 2 != 0]);
        }
        s
    }

    #[test]
    fn and_gate_full_coverage() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let res = FaultSimulator::new(&n).simulate(&faults, &exhaustive2());
        assert_eq!(res.coverage().percent(), 100.0);
    }

    #[test]
    fn insufficient_patterns_miss_faults() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let mut s = Stimulus::new();
        s.push_pattern(&[false, false]); // only detects output s-a-1
        let res = FaultSimulator::new(&n).simulate(&faults, &s);
        assert!(res.coverage().detected < faults.len());
        assert!(!res.undetected().is_empty());
    }

    #[test]
    fn detecting_cycle_reported() {
        let n = and2_netlist();
        let f = vec![Fault::stem_sa0(n.outputs()[0])];
        let mut s = Stimulus::new();
        s.push_pattern(&[false, false]); // no difference (output 0 anyway)
        s.push_pattern(&[true, true]); // output should be 1, fault forces 0
        let res = FaultSimulator::new(&n).simulate(&f, &s);
        assert!(res.detected[0]);
        assert_eq!(res.detecting_cycle[0], Some(1));
    }

    #[test]
    fn sequential_fault_detection() {
        // d -> dff -> out; a stuck q is only visible after a step.
        let mut b = NetlistBuilder::new("reg");
        let d = b.input("d");
        let q = b.dff(d);
        let o = b.gate(GateKind::Buf, &[q]);
        b.mark_output(o, "q");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        let mut s = Stimulus::new();
        s.push_hidden_cycle(&[true]); // latch a 1
        s.push_pattern(&[false]); // observe 1; latch 0
        s.push_pattern(&[false]); // observe 0
        let res = FaultSimulator::new(&n).simulate(&faults, &s);
        assert_eq!(res.coverage().percent(), 100.0);
    }

    #[test]
    fn more_faults_than_one_batch() {
        // A wide OR tree has > FAULTS_PER_BATCH collapsed faults; exercise
        // multi-batch.
        let mut b = NetlistBuilder::new("wide");
        let bus = b.input_bus("a", 40);
        let o = b.reduce_or(&bus);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        assert!(faults.len() > FAULTS_PER_BATCH);
        // Walking-one plus all-zero detects everything in an OR tree.
        let mut s = Stimulus::new();
        s.push_pattern(&[false; 40]);
        for i in 0..40 {
            let mut v = vec![false; 40];
            v[i] = true;
            s.push_pattern(&v);
        }
        let res = FaultSimulator::new(&n).simulate(&faults, &s);
        assert_eq!(res.coverage().percent(), 100.0);
    }

    #[test]
    fn fault_free_responses_recorded_once() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let stim = exhaustive2();
        let cfg = FaultSimConfig {
            drop_on_detect: false,
            ..FaultSimConfig::default()
        };
        let res = FaultSimulator::with_config(&n, cfg).simulate(&faults, &stim);
        assert_eq!(res.fault_free_responses.len(), stim.observed_cycles());
        // AND truth table: 0,0,0,1.
        let bits: Vec<u64> = res.fault_free_responses.iter().map(|w| w[0] & 1).collect();
        assert_eq!(bits, vec![0, 0, 0, 1]);
    }

    #[test]
    fn batches_partition_every_fault_exactly_once() {
        for count in [0usize, 1, 62, 63, 64, 126, 127, 500] {
            let batches = fault_batches(count);
            let mut seen = vec![0usize; count];
            for range in &batches {
                assert!(range.len() <= FAULTS_PER_BATCH);
                for i in range.clone() {
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "count {count}");
            assert!(!batches.is_empty());
        }
    }

    #[test]
    fn cone_batches_partition_every_fault_exactly_once() {
        let mut b = NetlistBuilder::new("mix");
        let bus = b.input_bus("a", 48);
        let mut acc = bus.net(0);
        for (i, &net) in bus.nets().iter().enumerate().skip(1) {
            acc = if i % 2 == 0 {
                b.xor2(acc, net)
            } else {
                b.or2(acc, net)
            };
        }
        b.mark_output(acc, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        let batches = fault_batches_by_cone(&n, &faults);
        let mut seen = vec![0usize; faults.len()];
        for batch in &batches {
            assert!(batch.len() <= FAULTS_PER_BATCH);
            for &i in batch {
                seen[i as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // Empty fault list: one reference-only batch.
        assert_eq!(fault_batches_by_cone(&n, &[]), vec![Vec::<u32>::new()]);
    }

    #[test]
    fn engines_agree_bitwise() {
        let mut b = NetlistBuilder::new("mix");
        let bus = b.input_bus("a", 48);
        let mut acc = bus.net(0);
        for (i, &net) in bus.nets().iter().enumerate().skip(1) {
            acc = if i % 3 == 0 {
                b.xor2(acc, net)
            } else if i % 3 == 1 {
                b.and2(acc, net)
            } else {
                b.or2(acc, net)
            };
        }
        b.mark_output(acc, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        let mut s = Stimulus::new();
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..32 {
            word = word.rotate_left(17).wrapping_mul(0xD134_2543_DE82_EF95);
            let bits: Vec<bool> = (0..48).map(|i| word >> i & 1 == 1).collect();
            s.push_pattern(&bits);
        }
        let full = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::FullEval,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate(&faults, &s);
        let event = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::EventDriven,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate(&faults, &s);
        assert_eq!(full.detected, event.detected);
        assert_eq!(full.detecting_cycle, event.detecting_cycle);
        assert_eq!(full.fault_free_responses, event.fault_free_responses);
        // The event engine never does more work than the full-eval
        // baseline for the cycles it clocked.
        assert!(event.stats.events_simulated <= event.stats.events_full_eval);
        assert!(event.stats.events_simulated > 0);
        let compiled = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::Compiled,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate(&faults, &s);
        assert_eq!(full.detected, compiled.detected);
        assert_eq!(full.detecting_cycle, compiled.detecting_cycle);
        assert_eq!(full.fault_free_responses, compiled.fault_free_responses);
        // Every folded gate counts as one event per cycle: the compiled
        // engine's event count is exactly the full-eval baseline.
        assert_eq!(
            compiled.stats.events_simulated,
            compiled.stats.events_full_eval
        );
    }

    #[test]
    fn compiled_engine_packs_wide_batches() {
        // Enough faults for several 255-fault compiled batches.
        let mut b = NetlistBuilder::new("wide");
        let bus = b.input_bus("a", 130);
        let mut acc = bus.net(0);
        for (i, &net) in bus.nets().iter().enumerate().skip(1) {
            acc = if i % 3 == 0 {
                b.xor2(acc, net)
            } else if i % 3 == 1 {
                b.and2(acc, net)
            } else {
                b.or2(acc, net)
            };
        }
        b.mark_output(acc, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        assert!(faults.len() > SimEngine::Compiled.faults_per_pass());
        let mut s = Stimulus::new();
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..48 {
            word = word.rotate_left(17).wrapping_mul(0xD134_2543_DE82_EF95);
            let bits: Vec<bool> = (0..130)
                .map(|i| word.rotate_left(i as u32) & 1 == 1)
                .collect();
            s.push_pattern(&bits);
        }
        let event = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::EventDriven,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate(&faults, &s);
        for threads in [1usize, 4] {
            let compiled = FaultSimulator::with_config(
                &n,
                FaultSimConfig {
                    engine: SimEngine::Compiled,
                    threads: Some(threads),
                    ..FaultSimConfig::default()
                },
            )
            .simulate(&faults, &s);
            assert_eq!(event.detected, compiled.detected, "{threads} threads");
            assert_eq!(
                event.detecting_cycle, compiled.detecting_cycle,
                "{threads} threads"
            );
            assert_eq!(
                event.fault_free_responses, compiled.fault_free_responses,
                "{threads} threads"
            );
            // 4× wider lanes → about a quarter of the narrow batch count.
            let per_pass = SimEngine::Compiled.faults_per_pass() as u64;
            assert_eq!(
                compiled.stats.batches,
                (faults.len() as u64).div_ceil(per_pass)
            );
            assert!(compiled.stats.batches < event.stats.batches);
            // Tape instrumentation is populated and consistent.
            assert!(compiled.stats.tape_len > 0);
            assert_eq!(
                compiled.stats.tape_len + compiled.stats.chains_collapsed,
                n.comb_order().len() as u64
            );
            assert_eq!(compiled.stats.lane_slots_filled, faults.len() as u64);
            assert_eq!(
                compiled.stats.lane_slots_total,
                compiled.stats.batches * per_pass
            );
            let occ = compiled.stats.lane_occupancy();
            assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
        }
        // Narrow engines leave tape instrumentation at zero.
        assert_eq!(event.stats.tape_len, 0);
        assert_eq!(event.stats.chains_collapsed, 0);
        assert_eq!(event.stats.lane_slots_filled, faults.len() as u64);
    }

    #[test]
    fn sized_cone_batches_partition_every_fault_exactly_once() {
        let mut b = NetlistBuilder::new("mix");
        let bus = b.input_bus("a", 64);
        let mut acc = bus.net(0);
        for &net in bus.nets().iter().skip(1) {
            acc = b.xor2(acc, net);
        }
        b.mark_output(acc, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        for per_batch in [1usize, 63, 255, 10_000] {
            let batches = fault_batches_by_cone_sized(&n, &faults, per_batch);
            let mut seen = vec![0usize; faults.len()];
            for batch in &batches {
                assert!(batch.len() <= per_batch);
                for &i in batch {
                    seen[i as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "per_batch {per_batch}");
            assert_eq!(batches.len(), faults.len().div_ceil(per_batch).max(1));
        }
    }

    #[test]
    fn threaded_simulation_matches_serial_bitwise() {
        // A wide XOR/OR mix with enough faults for several batches.
        let mut b = NetlistBuilder::new("mix");
        let bus = b.input_bus("a", 48);
        let mut acc = bus.net(0);
        for (i, &net) in bus.nets().iter().enumerate().skip(1) {
            acc = if i % 3 == 0 {
                b.xor2(acc, net)
            } else if i % 3 == 1 {
                b.and2(acc, net)
            } else {
                b.or2(acc, net)
            };
        }
        b.mark_output(acc, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        assert!(faults.len() > 2 * FAULTS_PER_BATCH, "need several batches");
        let mut s = Stimulus::new();
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..32 {
            word = word.rotate_left(17).wrapping_mul(0xD134_2543_DE82_EF95);
            let bits: Vec<bool> = (0..48).map(|i| word >> i & 1 == 1).collect();
            s.push_pattern(&bits);
        }
        let serial =
            FaultSimulator::with_config(&n, FaultSimConfig::with_threads(1)).simulate(&faults, &s);
        for threads in [2usize, 3, 8] {
            let parallel = FaultSimulator::with_config(&n, FaultSimConfig::with_threads(threads))
                .simulate(&faults, &s);
            assert_eq!(parallel.detected, serial.detected, "{threads} threads");
            assert_eq!(
                parallel.detecting_cycle, serial.detecting_cycle,
                "{threads} threads"
            );
            assert_eq!(
                parallel.fault_free_responses, serial.fault_free_responses,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn thread_count_is_reported_and_clamped() {
        let n = and2_netlist();
        let faults = n.collapsed_faults(); // single batch
        let res = FaultSimulator::with_config(&n, FaultSimConfig::with_threads(16))
            .simulate(&faults, &exhaustive2());
        assert_eq!(res.threads_used, 1, "clamped to the single batch");
        assert_eq!(res.coverage().percent(), 100.0);
    }

    #[test]
    fn sim_stats_account_for_cycles_and_threads() {
        let n = and2_netlist();
        let faults = n.collapsed_faults();
        let stim = exhaustive2();
        let cfg = FaultSimConfig {
            drop_on_detect: false,
            engine: SimEngine::FullEval,
            ..FaultSimConfig::default()
        };
        let res = FaultSimulator::with_config(&n, cfg).simulate(&faults, &stim);
        let batches = fault_batches_by_cone(&n, &faults).len() as u64;
        assert_eq!(res.stats.batches, batches);
        assert_eq!(res.stats.cycles_scheduled, batches * stim.len() as u64);
        // drop_on_detect off: every scheduled cycle is clocked.
        assert_eq!(res.stats.cycles_simulated, res.stats.cycles_scheduled);
        assert_eq!(res.stats.cycles_dropped(), 0);
        assert_eq!(res.stats.drop_savings_percent(), 0.0);
        // Full-eval engine: one event per combinational gate per cycle.
        assert_eq!(
            res.stats.events_simulated,
            res.stats.cycles_simulated * n.comb_order().len() as u64
        );
        assert_eq!(res.stats.events_simulated, res.stats.events_full_eval);
        assert_eq!(res.stats.event_ratio(), Some(1.0));
        assert_eq!(res.stats.event_savings_percent(), 0.0);
        assert_eq!(res.stats.per_thread.len(), res.threads_used);
        let per_thread_total: u64 = res.stats.per_thread.iter().map(|t| t.batches).sum();
        assert_eq!(per_thread_total, batches);
        assert_eq!(res.thread_utilization().len(), res.threads_used);
    }

    #[test]
    fn event_engine_reports_savings_in_stats() {
        // Wide OR tree: each pattern toggles one input, so the event
        // engine touches only one root-to-output path per cycle.
        let mut b = NetlistBuilder::new("wide");
        let bus = b.input_bus("a", 40);
        let o = b.reduce_or(&bus);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        let mut s = Stimulus::new();
        s.push_pattern(&[false; 40]);
        for i in 0..40 {
            let mut v = vec![false; 40];
            v[i] = true;
            s.push_pattern(&v);
        }
        let cfg = FaultSimConfig {
            drop_on_detect: false,
            threads: Some(1),
            engine: SimEngine::EventDriven,
            ..FaultSimConfig::default()
        };
        let res = FaultSimulator::with_config(&n, cfg).simulate(&faults, &s);
        assert_eq!(res.coverage().percent(), 100.0);
        assert!(
            res.stats.events_simulated < res.stats.events_full_eval,
            "event engine should skip quiet gates: {:?}",
            res.stats
        );
        assert!(res.stats.event_savings_percent() > 0.0);
        assert!(res.stats.event_ratio().unwrap() < 1.0);
    }

    #[test]
    fn drop_on_detect_savings_show_in_stats() {
        // Wide OR tree, multi-batch; the all-ones tail patterns detect most
        // faults early so later cycles are dropped in non-reference batches.
        let mut b = NetlistBuilder::new("wide");
        let bus = b.input_bus("a", 40);
        let o = b.reduce_or(&bus);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let faults = n.collapsed_faults();
        let mut s = Stimulus::new();
        s.push_pattern(&[false; 40]);
        for i in 0..40 {
            let mut v = vec![false; 40];
            v[i] = true;
            s.push_pattern(&v);
        }
        // Pad with patterns that detect nothing new: dropped batches skip
        // these entirely.
        for _ in 0..64 {
            s.push_pattern(&[false; 40]);
        }
        // 63-lane batching makes this fault list multi-batch; on the
        // 255-lane compiled engine it is one pass, whose fault-free lane
        // must span the stimulus anyway.
        let cfg = FaultSimConfig {
            engine: SimEngine::EventDriven,
            ..FaultSimConfig::with_threads(2)
        };
        let res = FaultSimulator::with_config(&n, cfg).simulate(&faults, &s);
        assert_eq!(res.coverage().percent(), 100.0);
        assert!(
            res.stats.cycles_simulated < res.stats.cycles_scheduled,
            "expected drop-on-detect to skip padded cycles: {:?}",
            res.stats
        );
        assert!(res.stats.drop_savings_percent() > 0.0);
    }

    #[test]
    fn empty_fault_list_still_records_reference_in_parallel() {
        let n = and2_netlist();
        let res = FaultSimulator::with_config(&n, FaultSimConfig::with_threads(4))
            .simulate(&[], &exhaustive2());
        assert_eq!(res.fault_free_responses.len(), 4);
        assert!(res.detected.is_empty());
    }

    #[test]
    fn transition_fault_needs_a_pattern_pair() {
        // Single-pattern stimuli never detect a transition fault: with no
        // prior settled value the launch edge never happens.
        let n = and2_netlist();
        let faults = crate::fault::enumerate_transition_faults(&n);
        assert!(!faults.is_empty());
        let mut s = Stimulus::new();
        s.push_pattern(&[true, true]);
        let res = FaultSimulator::new(&n).simulate_transition(&faults, &s);
        assert_eq!(res.coverage().detected, 0, "one pattern cannot launch");

        // A 0→1 pair on the output detects its slow-to-rise fault.
        let str_out = faults
            .iter()
            .position(|f| f.net == n.outputs()[0] && f.slow_to_rise)
            .unwrap();
        let mut s = Stimulus::new();
        s.push_pattern(&[false, true]); // output 0: arms slow-to-rise
        s.push_pattern(&[true, true]); // output should rise; fault holds 0
        let res = FaultSimulator::new(&n).simulate_transition(&faults, &s);
        assert!(res.detected[str_out]);
        assert_eq!(res.detecting_cycle[str_out], Some(1));
    }

    #[test]
    fn transition_reference_lane_is_fault_free() {
        // The reference responses of a transition run must match a plain
        // fault-free simulation (lane 0 carries no fault).
        let n = and2_netlist();
        let faults = crate::fault::enumerate_transition_faults(&n);
        let stim = exhaustive2();
        let trans = FaultSimulator::new(&n).simulate_transition(&faults, &stim);
        let stuck = FaultSimulator::new(&n).simulate(&[], &stim);
        assert_eq!(trans.fault_free_responses, stuck.fault_free_responses);
    }

    #[test]
    fn transition_engines_and_threads_agree_bitwise() {
        // Sequential netlist: input bus -> comb mix -> DFF layer -> comb ->
        // outputs, with feedback. Exercises transition faults on PIs, DFF
        // outputs and interior comb nets under every engine and several
        // thread counts.
        let mut b = NetlistBuilder::new("seqmix");
        let bus = b.input_bus("a", 24);
        let mut layer = Vec::new();
        for (i, &net) in bus.nets().iter().enumerate() {
            let prev = if i == 0 { net } else { *layer.last().unwrap() };
            let g = if i % 3 == 0 {
                b.xor2(prev, net)
            } else if i % 3 == 1 {
                b.and2(prev, net)
            } else {
                b.or2(prev, net)
            };
            layer.push(g);
        }
        let mut qs = Vec::new();
        for (i, &g) in layer.iter().enumerate().take(8) {
            let q = b.dff(g);
            qs.push(q);
            if i % 2 == 0 {
                let o = b.xor2(q, layer[layer.len() - 1 - i]);
                b.mark_output(o, &format!("o{i}"));
            }
        }
        let fb = b.reduce_or(&crate::net::Bus::new(qs));
        b.mark_output(fb, "fb");
        let n = b.finish().unwrap();
        let faults = crate::fault::enumerate_transition_faults(&n);
        assert!(
            faults.len() > FAULTS_PER_BATCH,
            "need multiple batches, got {}",
            faults.len()
        );
        let mut s = Stimulus::new();
        let mut word = 0xA076_1D64_78BD_642Fu64;
        for cycle in 0..40 {
            word = word.rotate_left(23).wrapping_mul(0xE703_7ED1_A0B4_28DB);
            let bits: Vec<bool> = (0..24).map(|i| word >> i & 1 == 1).collect();
            s.push_cycle(&bits, cycle % 3 != 1);
        }
        let reference = FaultSimulator::with_config(
            &n,
            FaultSimConfig {
                engine: SimEngine::FullEval,
                threads: Some(1),
                ..FaultSimConfig::default()
            },
        )
        .simulate_transition(&faults, &s);
        assert!(reference.coverage().detected > 0, "stimulus detects some");
        assert!(
            reference.coverage().detected < faults.len(),
            "and misses some (hidden cycles)"
        );
        for engine in [
            SimEngine::FullEval,
            SimEngine::EventDriven,
            SimEngine::Compiled,
        ] {
            for threads in [1usize, 2, 7] {
                let res = FaultSimulator::with_config(
                    &n,
                    FaultSimConfig {
                        engine,
                        threads: Some(threads),
                        ..FaultSimConfig::default()
                    },
                )
                .simulate_transition(&faults, &s);
                let tag = format!("{} x{threads}", engine.name());
                assert_eq!(res.detected, reference.detected, "{tag}");
                assert_eq!(res.detecting_cycle, reference.detecting_cycle, "{tag}");
                assert_eq!(
                    res.fault_free_responses, reference.fault_free_responses,
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn engine_names_round_trip() {
        assert_eq!(SimEngine::from_name("full"), Some(SimEngine::FullEval));
        assert_eq!(
            SimEngine::from_name("Event-Driven"),
            Some(SimEngine::EventDriven)
        );
        assert_eq!(SimEngine::from_name("FULLEVAL"), Some(SimEngine::FullEval));
        assert_eq!(SimEngine::from_name("compiled"), Some(SimEngine::Compiled));
        assert_eq!(SimEngine::from_name("tape"), Some(SimEngine::Compiled));
        assert_eq!(
            SimEngine::from_name("Compiled-Tape"),
            Some(SimEngine::Compiled)
        );
        assert_eq!(
            SimEngine::from_name(SimEngine::Compiled.name()),
            Some(SimEngine::Compiled)
        );
        assert_eq!(SimEngine::from_name("bogus"), None);
        assert_eq!(SimEngine::Compiled.faults_per_pass(), 255);
        assert_eq!(SimEngine::EventDriven.faults_per_pass(), 63);
        assert_eq!(
            SimEngine::from_name(SimEngine::EventDriven.name()),
            Some(SimEngine::EventDriven)
        );
        assert_eq!(
            SimEngine::from_name(SimEngine::FullEval.name()),
            Some(SimEngine::FullEval)
        );
        assert_eq!(SimEngine::default(), SimEngine::Compiled);
    }
}
