//! Compiled-tape logic simulation: the netlist is levelized once and
//! flattened into a branch-minimal evaluation tape that a tight inner loop
//! replays every cycle.
//!
//! Two classic compiled-simulation moves are combined here:
//!
//! 1. **Tape compilation** ([`CompiledTape`]): the topologically ordered
//!    combinational gates become a flat array of tape entries whose
//!    operands are precomputed net indices into a structure-of-arrays
//!    value store — no per-gate `HashMap` probes, no per-gate operand
//!    `Vec`s, no pointer chasing through [`crate::Gate`] structs on the
//!    hot path. Fanout-free gate chains (each interior net feeding exactly
//!    one pin, unobserved, and not latched) are collapsed into a *single*
//!    tape entry whose micro-ops stream through an accumulator held in
//!    registers, eliminating the interior loads and stores entirely.
//! 2. **Wide lanes** ([`TapeState`], driven through [`TapeSimulator`]):
//!    every net value is `W` 64-bit words instead of one, so a `W = 4`
//!    pass simulates 256 independent machines — one fault-free reference
//!    plus up to 255 faulty ones — and the `[u64; W]` logic ops
//!    auto-vectorize.
//!
//! Fault injection is precomputed off the hot path: stem faults on an
//! entry's final output apply a wide stuck-at mask after the accumulator
//! is produced, while faults *inside* a collapsed chain (interior stems or
//! gate input pins) flip that one entry into a gate-by-gate "expanded"
//! evaluation that reproduces [`crate::Simulator`] semantics exactly. All
//! other entries keep the fast path, so a 255-fault batch expands only the
//! handful of entries its faults actually touch. Injected faults live in
//! dense per-site tables, so an evaluation does no hashing.
//!
//! The tape is immutable and the simulation state is a separate owned
//! value: a [`TapeSimulator`] borrows its tape, while a [`TapeState`] takes
//! the tape on every call, so one tape held behind an `Arc` can drive many
//! independently owned states (one per mounted fault, say).

use crate::fault::{Fault, FaultSite, TransitionFault};
use crate::gate::{GateId, GateKind};
use crate::net::NetId;
use crate::netlist::Netlist;

/// Maximum number of 64-bit lane words a [`TapeSimulator`] supports; the
/// fault simulator's compiled engine runs at this width (256 lanes).
pub const MAX_LANE_WORDS: usize = 4;

/// A micro-operation inside a tape entry. The first micro-op of an entry
/// *initializes* the accumulator; each subsequent one folds the
/// accumulator into the next gate of a collapsed chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroOp {
    // --- head ops: acc := f(externals) ---
    /// `acc = 0`.
    Const0,
    /// `acc = !0`.
    Const1,
    /// `acc = v[a]`.
    Copy { a: u32 },
    /// `acc = !v[a]`.
    NotOf { a: u32 },
    /// `acc = v[a] & v[b]`.
    And2 { a: u32, b: u32 },
    /// `acc = v[a] | v[b]`.
    Or2 { a: u32, b: u32 },
    /// `acc = !(v[a] & v[b])`.
    Nand2 { a: u32, b: u32 },
    /// `acc = !(v[a] | v[b])`.
    Nor2 { a: u32, b: u32 },
    /// `acc = v[a] ^ v[b]`.
    Xor2 { a: u32, b: u32 },
    /// `acc = !(v[a] ^ v[b])`.
    Xnor2 { a: u32, b: u32 },
    /// `acc = mux(sel=v[s], d0=v[a], d1=v[b])`.
    Mux2 { s: u32, a: u32, b: u32 },
    /// `acc = AND over operand-pool range`.
    AndN { off: u32, len: u32 },
    /// `acc = OR over operand-pool range`.
    OrN { off: u32, len: u32 },
    /// `acc = !(AND over operand-pool range)`.
    NandN { off: u32, len: u32 },
    /// `acc = !(OR over operand-pool range)`.
    NorN { off: u32, len: u32 },
    // --- chained ops: acc := f(acc, externals) ---
    /// `acc = acc` (a chained buffer).
    CBuf,
    /// `acc = !acc`.
    CNot,
    /// `acc = acc & v[a]`.
    CAnd { a: u32 },
    /// `acc = acc | v[a]`.
    COr { a: u32 },
    /// `acc = !(acc & v[a])`.
    CNand { a: u32 },
    /// `acc = !(acc | v[a])`.
    CNor { a: u32 },
    /// `acc = acc ^ v[a]`.
    CXor { a: u32 },
    /// `acc = !(acc ^ v[a])`.
    CXnor { a: u32 },
    /// `acc = acc & (AND over pool range)`.
    CAndN { off: u32, len: u32 },
    /// `acc = acc | (OR over pool range)`.
    COrN { off: u32, len: u32 },
    /// `acc = !(acc & (AND over pool range))`.
    CNandN { off: u32, len: u32 },
    /// `acc = !(acc | (OR over pool range))`.
    CNorN { off: u32, len: u32 },
    /// `acc = mux(sel=acc, d0=v[a], d1=v[b])`.
    CMuxSel { a: u32, b: u32 },
    /// `acc = mux(sel=v[s], d0=acc, d1=v[b])`.
    CMuxD0 { s: u32, b: u32 },
    /// `acc = mux(sel=v[s], d0=v[a], d1=acc)`.
    CMuxD1 { s: u32, a: u32 },
}

/// One tape entry: a (possibly collapsed) run of gates producing one final
/// output net.
#[derive(Debug, Clone, Copy)]
struct TapeEntry {
    /// Net index written by this entry (the final gate's output).
    out: u32,
    /// Range of micro-ops in [`CompiledTape::mops`].
    mop_start: u32,
    mop_len: u16,
    /// Range of source gates in [`CompiledTape::chain_gates`], in
    /// evaluation order (length 1 for an uncollapsed gate). Used by the
    /// expanded fault-injection path and for accounting.
    gate_start: u32,
    gate_len: u16,
}

/// A netlist compiled into a flat evaluation tape (see the module docs).
///
/// Compile once with [`CompiledTape::compile`], then drive any number of
/// independent simulations over it — the tape itself is immutable and
/// shared freely across threads. `N` is however the tape holds its
/// netlist: `&Netlist` for a borrowing [`TapeSimulator`], or an owning
/// handle (say, a newtype around an `Arc`-shared component) when the tape
/// must live behind an `Arc` of its own and be driven through a
/// [`TapeState`].
#[derive(Debug)]
pub struct CompiledTape<N> {
    netlist: N,
    entries: Vec<TapeEntry>,
    mops: Vec<MicroOp>,
    /// Operand pool for n-ary micro-ops (net indices).
    pool: Vec<u32>,
    /// All gates folded into entries, entry by entry in evaluation order.
    chain_gates: Vec<GateId>,
    /// Gate index → tape-entry index (`u32::MAX` for DFFs).
    entry_of_gate: Vec<u32>,
    /// Primary-input net indices (parallel to `netlist.inputs()`).
    input_nets: Vec<u32>,
    /// Per-DFF `(q net, d net, gate index)` (parallel to
    /// `netlist.dff_gates()`).
    dff_nets: Vec<(u32, u32, u32)>,
    comb_gate_count: u64,
}

/// The tape arrays under construction; borrows the netlist only while
/// [`CompiledTape::compile`] runs.
struct TapeBuilder<'n> {
    netlist: &'n Netlist,
    entries: Vec<TapeEntry>,
    mops: Vec<MicroOp>,
    pool: Vec<u32>,
    chain_gates: Vec<GateId>,
    entry_of_gate: Vec<u32>,
}

impl<N: AsRef<Netlist>> CompiledTape<N> {
    /// Compiles `netlist` into an evaluation tape, collapsing fanout-free
    /// gate chains.
    ///
    /// A gate `p` is folded into its consumer `c` when `p`'s output net
    /// drives exactly one pin in the whole netlist (`fanout == 1`), that
    /// pin belongs to a combinational gate, and the net is not a primary
    /// output — so the interior value is observable nowhere and latched
    /// nowhere. Entries are emitted in the topological order of each
    /// chain's *final* gate, which keeps every external operand defined
    /// before use (externals are always final outputs of earlier entries,
    /// primary inputs, or flip-flop state).
    pub fn compile(netlist: N) -> Self {
        let nl = netlist.as_ref();
        let is_output: std::collections::HashSet<u32> =
            nl.outputs().iter().map(|n| n.index() as u32).collect();

        // Chain linking: prev[c] = producer folded into consumer c, and
        // absorbed[g] once g's output is folded into its consumer.
        let n_gates = nl.gate_count();
        let mut absorbed = vec![false; n_gates];
        let mut prev: Vec<Option<GateId>> = vec![None; n_gates];
        for &gid in nl.comb_order() {
            let out = nl.gate(gid).output;
            if nl.fanout(out) != 1 || is_output.contains(&(out.index() as u32)) {
                continue;
            }
            let users = nl.comb_users(out);
            if users.len() != 1 {
                // The single pin connection is a DFF `d` input.
                continue;
            }
            let user = users[0];
            // A gate folds at most one producer into its accumulator; when
            // several fanout-free producers feed the same consumer, the
            // first one (in topological order) wins and the rest stay
            // chain terminals of their own entries.
            if prev[user.index()].is_none() {
                absorbed[gid.index()] = true;
                prev[user.index()] = Some(gid);
            }
        }

        // Every combinational gate becomes exactly one micro-op and one
        // chain-gate record, so those arrays are sized exactly up front;
        // the tape is long-lived (one per fault target, shared by every
        // mount), so no array keeps spare capacity.
        let comb_gates = nl.comb_order().len();
        let mut builder = TapeBuilder {
            netlist: nl,
            entries: Vec::new(),
            mops: Vec::with_capacity(comb_gates),
            pool: Vec::new(),
            chain_gates: Vec::with_capacity(comb_gates),
            entry_of_gate: vec![u32::MAX; n_gates],
        };
        // Emit one entry per chain, at the tape position of its final gate.
        for &fin in nl.comb_order() {
            if absorbed[fin.index()] {
                continue; // absorbed into a later gate's entry
            }
            let mut chain = vec![fin];
            let mut cur = fin;
            while let Some(p) = prev[cur.index()] {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            builder.push_entry(&chain);
        }

        let input_nets = nl.inputs().iter().map(|n| n.index() as u32).collect();
        let dff_nets = nl
            .dff_gates()
            .iter()
            .map(|&gid| {
                let gate = nl.gate(gid);
                (
                    gate.output.index() as u32,
                    gate.inputs[0].index() as u32,
                    gid.index() as u32,
                )
            })
            .collect();
        let comb_gate_count = comb_gates as u64;
        let TapeBuilder {
            mut entries,
            mops,
            mut pool,
            chain_gates,
            entry_of_gate,
            ..
        } = builder;
        entries.shrink_to_fit();
        pool.shrink_to_fit();
        CompiledTape {
            netlist,
            entries,
            mops,
            pool,
            chain_gates,
            entry_of_gate,
            input_nets,
            dff_nets,
            comb_gate_count,
        }
    }

    /// The netlist this tape was compiled from.
    pub fn netlist(&self) -> &Netlist {
        self.netlist.as_ref()
    }

    /// Number of tape entries (evaluation steps per cycle).
    pub fn tape_len(&self) -> usize {
        self.entries.len()
    }

    /// Number of gates folded into a predecessor's entry — the difference
    /// between the combinational gate count and [`CompiledTape::tape_len`].
    pub fn chains_collapsed(&self) -> usize {
        self.comb_gate_count as usize - self.entries.len()
    }

    /// The tape entry whose chain evaluates `net`'s value, when that value
    /// is *interior* to a collapsed chain (invisible to the fast path);
    /// `None` for primary inputs, flip-flop outputs and entry outputs.
    fn interior_entry(&self, net: NetId) -> Option<usize> {
        let gid = self.netlist().driver(net)?;
        let e = self.entry_of_gate[gid.index()];
        (e != u32::MAX && self.entries[e as usize].out != net.index() as u32).then_some(e as usize)
    }
}

impl TapeBuilder<'_> {
    /// Builds the micro-op sequence for one chain and records the entry.
    fn push_entry(&mut self, chain: &[GateId]) {
        let entry_index = self.entries.len() as u32;
        let mop_start = self.mops.len() as u32;
        let gate_start = self.chain_gates.len() as u32;
        for (pos, &gid) in chain.iter().enumerate() {
            let gate = self.netlist.gate(gid);
            let idx = |k: usize| gate.inputs[k].index() as u32;
            let mop = if pos == 0 {
                match gate.kind {
                    GateKind::Const0 => MicroOp::Const0,
                    GateKind::Const1 => MicroOp::Const1,
                    GateKind::Buf => MicroOp::Copy { a: idx(0) },
                    GateKind::Not => MicroOp::NotOf { a: idx(0) },
                    GateKind::Xor => MicroOp::Xor2 {
                        a: idx(0),
                        b: idx(1),
                    },
                    GateKind::Xnor => MicroOp::Xnor2 {
                        a: idx(0),
                        b: idx(1),
                    },
                    GateKind::Mux2 => MicroOp::Mux2 {
                        s: idx(0),
                        a: idx(1),
                        b: idx(2),
                    },
                    GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                        if gate.inputs.len() == 2 {
                            let (a, b) = (idx(0), idx(1));
                            match gate.kind {
                                GateKind::And => MicroOp::And2 { a, b },
                                GateKind::Or => MicroOp::Or2 { a, b },
                                GateKind::Nand => MicroOp::Nand2 { a, b },
                                _ => MicroOp::Nor2 { a, b },
                            }
                        } else {
                            let (off, len) =
                                self.pool_push(gate.inputs.iter().map(|n| n.index() as u32));
                            match gate.kind {
                                GateKind::And => MicroOp::AndN { off, len },
                                GateKind::Or => MicroOp::OrN { off, len },
                                GateKind::Nand => MicroOp::NandN { off, len },
                                _ => MicroOp::NorN { off, len },
                            }
                        }
                    }
                    GateKind::Dff => unreachable!("DFFs never appear in comb_order"),
                }
            } else {
                // The previous chain gate's output feeds exactly one pin.
                let prev_out = self.netlist.gate(chain[pos - 1]).output;
                let acc_pin = gate
                    .inputs
                    .iter()
                    .position(|&n| n == prev_out)
                    .expect("chained gate consumes its producer");
                match gate.kind {
                    GateKind::Buf => MicroOp::CBuf,
                    GateKind::Not => MicroOp::CNot,
                    GateKind::Xor => MicroOp::CXor {
                        a: idx(1 - acc_pin),
                    },
                    GateKind::Xnor => MicroOp::CXnor {
                        a: idx(1 - acc_pin),
                    },
                    GateKind::Mux2 => match acc_pin {
                        0 => MicroOp::CMuxSel {
                            a: idx(1),
                            b: idx(2),
                        },
                        1 => MicroOp::CMuxD0 {
                            s: idx(0),
                            b: idx(2),
                        },
                        _ => MicroOp::CMuxD1 {
                            s: idx(0),
                            a: idx(1),
                        },
                    },
                    GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                        if gate.inputs.len() == 2 {
                            let a = idx(1 - acc_pin);
                            match gate.kind {
                                GateKind::And => MicroOp::CAnd { a },
                                GateKind::Or => MicroOp::COr { a },
                                GateKind::Nand => MicroOp::CNand { a },
                                _ => MicroOp::CNor { a },
                            }
                        } else {
                            let (off, len) = self.pool_push(
                                gate.inputs
                                    .iter()
                                    .enumerate()
                                    .filter(|&(k, _)| k != acc_pin)
                                    .map(|(_, n)| n.index() as u32),
                            );
                            match gate.kind {
                                GateKind::And => MicroOp::CAndN { off, len },
                                GateKind::Or => MicroOp::COrN { off, len },
                                GateKind::Nand => MicroOp::CNandN { off, len },
                                _ => MicroOp::CNorN { off, len },
                            }
                        }
                    }
                    GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {
                        unreachable!("constants have no inputs and DFFs are not combinational")
                    }
                }
            };
            self.mops.push(mop);
            self.chain_gates.push(gid);
            self.entry_of_gate[gid.index()] = entry_index;
        }
        self.entries.push(TapeEntry {
            out: self.netlist.gate(chain[chain.len() - 1]).output.index() as u32,
            mop_start,
            mop_len: u16::try_from(chain.len()).expect("chain fits u16"),
            gate_start,
            gate_len: u16::try_from(chain.len()).expect("chain fits u16"),
        });
    }

    fn pool_push(&mut self, items: impl Iterator<Item = u32>) -> (u32, u32) {
        let off = self.pool.len() as u32;
        self.pool.extend(items);
        (off, self.pool.len() as u32 - off)
    }
}

/// A wide stuck-at injection mask: lanes forced to 0 / forced to 1.
#[derive(Debug, Clone, Copy)]
struct WideMask<const W: usize> {
    and0: [u64; W],
    or1: [u64; W],
}

impl<const W: usize> Default for WideMask<W> {
    fn default() -> Self {
        WideMask {
            and0: [0; W],
            or1: [0; W],
        }
    }
}

impl<const W: usize> WideMask<W> {
    #[inline]
    fn apply(&self, v: &mut [u64; W]) {
        for (v, (and0, or1)) in v.iter_mut().zip(self.and0.iter().zip(&self.or1)) {
            *v = (*v & !and0) | or1;
        }
    }

    fn add(&mut self, lane: usize, stuck: bool) {
        if stuck {
            self.or1[lane / 64] |= 1u64 << (lane % 64);
        } else {
            self.and0[lane / 64] |= 1u64 << (lane % 64);
        }
    }
}

/// Per-net transition-delay state: which lanes carry slow-to-rise /
/// slow-to-fall faults, plus the *computed* (pre-forcing) value the net
/// took in the previous eval — the arming state.
#[derive(Debug, Clone, Copy)]
struct TransitionState<const W: usize> {
    rise: [u64; W],
    fall: [u64; W],
    prev: [u64; W],
    /// Whether `prev` holds a real recorded value yet.
    seen: bool,
}

impl<const W: usize> Default for TransitionState<W> {
    fn default() -> Self {
        TransitionState {
            rise: [0; W],
            fall: [0; W],
            prev: [0; W],
            seen: false,
        }
    }
}

/// Dense side table over one kind of site (nets or gates): `slot[i]` is 0
/// for a site carrying nothing, else 1 + the position of the site's item
/// in `items`. A lookup is one index and one branch — no hashing on the
/// evaluation hot path. The slot array is allocated on first insertion,
/// so a table nothing is injected into costs no memory.
#[derive(Debug)]
struct SiteTable<T> {
    sites: usize,
    slot: Vec<u32>,
    items: Vec<T>,
    /// The site of each item, parallel to `items`.
    keys: Vec<u32>,
}

impl<T: Default> SiteTable<T> {
    fn new(sites: usize) -> Self {
        SiteTable {
            sites,
            slot: Vec::new(),
            items: Vec::new(),
            keys: Vec::new(),
        }
    }

    #[inline(always)]
    fn get(&self, site: usize) -> Option<&T> {
        match self.slot.get(site) {
            None | Some(0) => None,
            Some(&k) => Some(&self.items[k as usize - 1]),
        }
    }

    #[inline(always)]
    fn get_mut(&mut self, site: usize) -> Option<&mut T> {
        match self.slot.get(site) {
            None | Some(0) => None,
            Some(&k) => Some(&mut self.items[k as usize - 1]),
        }
    }

    /// The item at `site`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the table.
    fn entry(&mut self, site: usize) -> &mut T {
        assert!(
            site < self.sites,
            "site {site} outside a table of {}",
            self.sites
        );
        if self.slot.is_empty() {
            self.slot = vec![0; self.sites];
        }
        if self.slot[site] == 0 {
            self.items.push(T::default());
            self.keys.push(site as u32);
            self.slot[site] = self.items.len() as u32;
        }
        let k = self.slot[site] as usize - 1;
        &mut self.items[k]
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn clear(&mut self) {
        self.slot.fill(0);
        self.items.clear();
        self.keys.clear();
    }

    /// `(site, item)` pairs in insertion order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.keys.iter().copied().zip(&self.items)
    }
}

/// The sequential state of one lane of a [`TapeState`], bit-packed: what
/// that lane's machine carries from one cycle into the next.
///
/// A lane's future depends on its inputs, its injected faults and this
/// state only — net values are recomputed from scratch by every eval — so
/// a lane snapshotted once a cycle's flip-flops latch and restored into
/// any lane of another state (of any width, with the same faults injected
/// there) evaluates exactly as the original lane would have. The fault
/// simulator's compiled engine uses this to move surviving faults between
/// passes at checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LaneSnapshot {
    /// Flip-flop bits, 64 per word, parallel to the tape's flip-flop list.
    dffs: Vec<u64>,
    /// Per transition site carrying a fault in this lane: the net, the
    /// lane's recorded `prev` bit and whether the site has recorded one.
    arming: Vec<(u32, bool, bool)>,
    /// Whether the state had evaluated once since reset, so transition
    /// faults force on the next eval.
    primed: bool,
}

/// The mutable half of a tape simulation: net values, inputs, flip-flop
/// state and injected faults, `W` 64-bit lane words wide.
///
/// A `TapeState` owns no tape; every call that evaluates or injects takes
/// the [`CompiledTape`] it was created for. That lets one immutable tape
/// (behind an `Arc`, say) drive many independently owned states — one per
/// mounted fault — while [`TapeSimulator`] bundles a state with a borrowed
/// tape for the common case.
///
/// Driving a state with a tape other than the one it was created from
/// panics or gives meaningless values.
#[derive(Debug)]
pub struct TapeState<const W: usize> {
    /// SoA net values: net `n`'s lane words at `values[n*W .. n*W+W]`.
    values: Vec<u64>,
    /// Broadcast primary-input words, parallel to the input list.
    input_words: Vec<u64>,
    /// DFF state, parallel to the tape's flip-flop list.
    state: Vec<[u64; W]>,
    /// Stuck-at masks on net stems (primary inputs, flip-flop outputs and
    /// gate outputs alike).
    stems: SiteTable<WideMask<W>>,
    /// Entries needing gate-by-gate evaluation (chain-interior faults or
    /// pin faults).
    expanded: Vec<bool>,
    /// Stuck-at masks on combinational gate input pins, per gate.
    pins: SiteTable<Vec<(u8, WideMask<W>)>>,
    /// Stuck-at masks on flip-flop `d` pins, per gate.
    dff_pins: SiteTable<WideMask<W>>,
    /// Transition-delay state, per net.
    transitions: SiteTable<TransitionState<W>>,
    /// False until the first eval records arming state.
    transition_primed: bool,
    /// Reused operand buffer of the expanded slow path.
    scratch: Vec<[u64; W]>,
    events: u64,
}

impl<const W: usize> TapeState<W> {
    /// A state for `tape` with all inputs low, flip-flops reset and no
    /// faults injected.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= W <= MAX_LANE_WORDS`.
    pub fn new<N: AsRef<Netlist>>(tape: &CompiledTape<N>) -> Self {
        assert!(
            W >= 1 && W <= MAX_LANE_WORDS,
            "lane width {W} outside 1..={MAX_LANE_WORDS}"
        );
        let nets = tape.netlist().net_count();
        TapeState {
            values: vec![0; nets * W],
            input_words: vec![0; tape.input_nets.len()],
            state: vec![[0; W]; tape.dff_nets.len()],
            stems: SiteTable::new(nets),
            expanded: vec![false; tape.entries.len()],
            pins: SiteTable::new(tape.entry_of_gate.len()),
            dff_pins: SiteTable::new(tape.entry_of_gate.len()),
            transitions: SiteTable::new(nets),
            transition_primed: false,
            scratch: Vec::new(),
            events: 0,
        }
    }

    /// Resets all flip-flops to 0 and disarms transition faults (inputs
    /// and injections are kept).
    pub(crate) fn reset(&mut self) {
        self.state.fill([0; W]);
        for st in &mut self.transitions.items {
            st.prev = [0; W];
            st.seen = false;
        }
        self.transition_primed = false;
    }

    /// Removes all injected faults.
    pub(crate) fn clear_faults(&mut self) {
        self.stems.clear();
        self.expanded.fill(false);
        self.pins.clear();
        self.dff_pins.clear();
        self.transitions.clear();
        self.transition_primed = false;
    }

    /// Captures lane `lane`'s sequential state: its flip-flop bits, and for
    /// every transition fault injected in this lane the arming bit of the
    /// fault's net. Taken once a cycle's flip-flops latch, it is the state
    /// the lane enters the next cycle with.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W`.
    pub(crate) fn snapshot_lane(&self, lane: usize) -> LaneSnapshot {
        assert!(lane < 64 * W, "lane {lane} out of range for W={W}");
        let (word, bit) = (lane / 64, lane % 64);
        let mut dffs = vec![0u64; self.state.len().div_ceil(64)];
        for (k, q) in self.state.iter().enumerate() {
            dffs[k / 64] |= (q[word] >> bit & 1) << (k % 64);
        }
        let arming = self
            .transitions
            .iter()
            .filter(|(_, st)| (st.rise[word] | st.fall[word]) >> bit & 1 == 1)
            .map(|(net, st)| (net, st.prev[word] >> bit & 1 == 1, st.seen))
            .collect();
        LaneSnapshot {
            dffs,
            arming,
            primed: self.transition_primed,
        }
    }

    /// Loads `snapshot` into lane `lane`, leaving every other lane's
    /// flip-flops untouched. Inject the lane's faults first: arming bits
    /// are restored onto transition sites already present, and a site
    /// this state carries no fault on is skipped.
    ///
    /// `seen` and the primed flag are shared by all lanes; every snapshot
    /// restored into one state must come from the same cycle, where they
    /// agree.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W` or the snapshot came from a tape with a
    /// different flip-flop count.
    pub(crate) fn restore_lane(&mut self, lane: usize, snapshot: &LaneSnapshot) {
        assert!(lane < 64 * W, "lane {lane} out of range for W={W}");
        assert_eq!(
            snapshot.dffs.len(),
            self.state.len().div_ceil(64),
            "snapshot from a tape with another flip-flop count"
        );
        let (word, mask) = (lane / 64, 1u64 << (lane % 64));
        for (k, q) in self.state.iter_mut().enumerate() {
            if snapshot.dffs[k / 64] >> (k % 64) & 1 == 1 {
                q[word] |= mask;
            } else {
                q[word] &= !mask;
            }
        }
        for &(net, prev, seen) in &snapshot.arming {
            if let Some(st) = self.transitions.get_mut(net as usize) {
                if prev {
                    st.prev[word] |= mask;
                } else {
                    st.prev[word] &= !mask;
                }
                st.seen = seen;
            }
        }
        self.transition_primed = snapshot.primed;
    }

    /// Injects `fault` into lane `lane` (in `0..64·W`). Lane 0 is
    /// conventionally kept fault-free by callers wanting a reference
    /// machine.
    ///
    /// A site the netlist does not have — a net or gate index beyond its
    /// tables, or a pin beyond the gate's inputs — is ignored, exactly as
    /// [`crate::Simulator::inject_fault`] ignores it (it never matches).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W`.
    pub fn inject_fault<N: AsRef<Netlist>>(
        &mut self,
        tape: &CompiledTape<N>,
        fault: &Fault,
        lane: usize,
    ) {
        assert!(lane < 64 * W, "lane {lane} out of range for W={W}");
        let nl = tape.netlist();
        match fault.site {
            FaultSite::Stem(net) => {
                if net.index() >= nl.net_count() {
                    return;
                }
                self.stems.entry(net.index()).add(lane, fault.stuck_value);
                // A stem inside a collapsed chain is invisible to the fast
                // path; expand the owning entry.
                if let Some(e) = tape.interior_entry(net) {
                    self.expanded[e] = true;
                }
            }
            FaultSite::Pin { gate, pin } => {
                let Some(g) = nl.gates().get(gate.index()) else {
                    return;
                };
                if usize::from(pin) >= g.inputs.len() {
                    return;
                }
                if g.kind == GateKind::Dff {
                    self.dff_pins
                        .entry(gate.index())
                        .add(lane, fault.stuck_value);
                } else {
                    let masks = self.pins.entry(gate.index());
                    let k = masks
                        .iter()
                        .position(|&(p, _)| p == pin)
                        .unwrap_or_else(|| {
                            masks.push((pin, WideMask::default()));
                            masks.len() - 1
                        });
                    masks[k].1.add(lane, fault.stuck_value);
                    self.expanded[tape.entry_of_gate[gate.index()] as usize] = true;
                }
            }
        }
    }

    /// Injects a gross transition-delay fault into lane `lane` — same
    /// semantics as
    /// [`Simulator::inject_transition_fault`](crate::Simulator::inject_transition_fault).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W` or the fault's net is not in the netlist.
    pub(crate) fn inject_transition_fault<N: AsRef<Netlist>>(
        &mut self,
        tape: &CompiledTape<N>,
        fault: &TransitionFault,
        lane: usize,
    ) {
        assert!(lane < 64 * W, "lane {lane} out of range for W={W}");
        let st = self.transitions.entry(fault.net.index());
        let target = if fault.slow_to_rise {
            &mut st.rise
        } else {
            &mut st.fall
        };
        target[lane / 64] |= 1u64 << (lane % 64);
        // A transition site inside a collapsed chain is invisible to the
        // fast path; expand the owning entry so the interior value is
        // materialized, armed and forced gate by gate.
        if let Some(e) = tape.interior_entry(fault.net) {
            self.expanded[e] = true;
        }
    }

    /// Applies transition-delay forcing to a freshly computed value of net
    /// `ni`, updating the arming state with the computed value. A net
    /// without transition faults passes through untouched.
    #[inline]
    fn apply_transition(&mut self, ni: u32, v: &mut [u64; W]) {
        let primed = self.transition_primed;
        let Some(st) = self.transitions.get_mut(ni as usize) else {
            return;
        };
        let prev = st.prev;
        let had_prev = st.seen;
        st.prev = *v;
        st.seen = true;
        if !primed || !had_prev {
            return;
        }
        for w in 0..W {
            // Armed lanes saw the initial value last cycle; hold it now.
            let force0 = st.rise[w] & !prev[w];
            let force1 = st.fall[w] & prev[w];
            v[w] = (v[w] & !force0) | force1;
        }
    }

    /// Drives the primary input at position `pos` of [`Netlist::inputs`]
    /// with the same logic value in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn set_input_at(&mut self, pos: usize, value: bool) {
        self.input_words[pos] = if value { !0 } else { 0 };
    }

    #[inline(always)]
    fn load(&self, idx: u32) -> [u64; W] {
        let base = idx as usize * W;
        let words: &[u64; W] = self.values[base..base + W]
            .try_into()
            .expect("net value slice has exactly W words");
        *words
    }

    #[inline(always)]
    fn store(&mut self, idx: u32, v: [u64; W]) {
        let base = idx as usize * W;
        self.values[base..base + W].copy_from_slice(&v);
    }

    #[inline(always)]
    fn pool_fold(&self, pool: &[u32], off: u32, len: u32, and: bool) -> [u64; W] {
        let mut acc = if and { [!0u64; W] } else { [0u64; W] };
        for &idx in &pool[off as usize..(off + len) as usize] {
            let v = self.load(idx);
            for w in 0..W {
                if and {
                    acc[w] &= v[w];
                } else {
                    acc[w] |= v[w];
                }
            }
        }
        acc
    }

    /// Propagates values through the combinational tape. Flip-flop
    /// outputs present their latched state (reset, unless the state was
    /// stepped).
    pub fn eval<N: AsRef<Netlist>>(&mut self, tape: &CompiledTape<N>) {
        let transitions = !self.transitions.is_empty();
        // Load primary inputs (stem faults on PIs apply here).
        for (pos, &ni) in tape.input_nets.iter().enumerate() {
            let mut v = [self.input_words[pos]; W];
            if let Some(m) = self.stems.get(ni as usize) {
                m.apply(&mut v);
            }
            if transitions {
                self.apply_transition(ni, &mut v);
            }
            self.store(ni, v);
        }
        // Present DFF state on Q nets (stem faults on Q apply here).
        for (k, &(q, _, _)) in tape.dff_nets.iter().enumerate() {
            let mut v = self.state[k];
            if let Some(m) = self.stems.get(q as usize) {
                m.apply(&mut v);
            }
            if transitions {
                self.apply_transition(q, &mut v);
            }
            self.store(q, v);
        }
        // Replay the tape.
        for (e, entry) in tape.entries.iter().enumerate() {
            if self.expanded[e] {
                self.eval_expanded(tape, entry);
                continue;
            }
            let mops = &tape.mops
                [entry.mop_start as usize..entry.mop_start as usize + entry.mop_len as usize];
            let mut acc = [0u64; W];
            for &mop in mops {
                acc = self.apply_mop(&tape.pool, mop, acc);
            }
            if let Some(m) = self.stems.get(entry.out as usize) {
                m.apply(&mut acc);
            }
            if transitions {
                self.apply_transition(entry.out, &mut acc);
            }
            self.store(entry.out, acc);
        }
        if transitions {
            self.transition_primed = true;
        }
        self.events += tape.comb_gate_count;
    }

    #[inline(always)]
    fn apply_mop(&self, pool: &[u32], mop: MicroOp, acc: [u64; W]) -> [u64; W] {
        let mut out = [0u64; W];
        match mop {
            MicroOp::Const0 => {}
            MicroOp::Const1 => out = [!0; W],
            MicroOp::Copy { a } => out = self.load(a),
            MicroOp::NotOf { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = !va[w];
                }
            }
            MicroOp::And2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = va[w] & vb[w];
                }
            }
            MicroOp::Or2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = va[w] | vb[w];
                }
            }
            MicroOp::Nand2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = !(va[w] & vb[w]);
                }
            }
            MicroOp::Nor2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = !(va[w] | vb[w]);
                }
            }
            MicroOp::Xor2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = va[w] ^ vb[w];
                }
            }
            MicroOp::Xnor2 { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = !(va[w] ^ vb[w]);
                }
            }
            MicroOp::Mux2 { s, a, b } => {
                let (vs, va, vb) = (self.load(s), self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = (va[w] & !vs[w]) | (vb[w] & vs[w]);
                }
            }
            MicroOp::AndN { off, len } => out = self.pool_fold(pool, off, len, true),
            MicroOp::OrN { off, len } => out = self.pool_fold(pool, off, len, false),
            MicroOp::NandN { off, len } => {
                out = self.pool_fold(pool, off, len, true);
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
            MicroOp::NorN { off, len } => {
                out = self.pool_fold(pool, off, len, false);
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
            MicroOp::CBuf => out = acc,
            MicroOp::CNot => {
                for w in 0..W {
                    out[w] = !acc[w];
                }
            }
            MicroOp::CAnd { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = acc[w] & va[w];
                }
            }
            MicroOp::COr { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = acc[w] | va[w];
                }
            }
            MicroOp::CNand { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = !(acc[w] & va[w]);
                }
            }
            MicroOp::CNor { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = !(acc[w] | va[w]);
                }
            }
            MicroOp::CXor { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = acc[w] ^ va[w];
                }
            }
            MicroOp::CXnor { a } => {
                let va = self.load(a);
                for w in 0..W {
                    out[w] = !(acc[w] ^ va[w]);
                }
            }
            MicroOp::CAndN { off, len } => {
                out = self.pool_fold(pool, off, len, true);
                for w in 0..W {
                    out[w] &= acc[w];
                }
            }
            MicroOp::COrN { off, len } => {
                out = self.pool_fold(pool, off, len, false);
                for w in 0..W {
                    out[w] |= acc[w];
                }
            }
            MicroOp::CNandN { off, len } => {
                out = self.pool_fold(pool, off, len, true);
                for w in 0..W {
                    out[w] = !(out[w] & acc[w]);
                }
            }
            MicroOp::CNorN { off, len } => {
                out = self.pool_fold(pool, off, len, false);
                for w in 0..W {
                    out[w] = !(out[w] | acc[w]);
                }
            }
            MicroOp::CMuxSel { a, b } => {
                let (va, vb) = (self.load(a), self.load(b));
                for w in 0..W {
                    out[w] = (va[w] & !acc[w]) | (vb[w] & acc[w]);
                }
            }
            MicroOp::CMuxD0 { s, b } => {
                let (vs, vb) = (self.load(s), self.load(b));
                for w in 0..W {
                    out[w] = (acc[w] & !vs[w]) | (vb[w] & vs[w]);
                }
            }
            MicroOp::CMuxD1 { s, a } => {
                let (vs, va) = (self.load(s), self.load(a));
                for w in 0..W {
                    out[w] = (va[w] & !vs[w]) | (acc[w] & vs[w]);
                }
            }
        }
        out
    }

    /// Slow path for entries carrying pin faults or chain-interior stem
    /// faults: evaluate the chain gate by gate, applying every injection
    /// exactly where [`crate::Simulator`] would, writing interior values
    /// into the value store (nothing outside the chain reads them).
    fn eval_expanded<N: AsRef<Netlist>>(&mut self, tape: &CompiledTape<N>, entry: &TapeEntry) {
        let nl = tape.netlist();
        let gates = &tape.chain_gates
            [entry.gate_start as usize..entry.gate_start as usize + entry.gate_len as usize];
        let mut in_buf = std::mem::take(&mut self.scratch);
        for &gid in gates {
            let gate = nl.gate(gid);
            in_buf.clear();
            in_buf.extend(gate.inputs.iter().map(|inp| self.load(inp.index() as u32)));
            if let Some(masks) = self.pins.get(gid.index()) {
                for (pin, m) in masks {
                    m.apply(&mut in_buf[usize::from(*pin)]);
                }
            }
            let mut out = eval_kind_wide(gate.kind, &in_buf);
            let oi = gate.output.index() as u32;
            if let Some(m) = self.stems.get(oi as usize) {
                m.apply(&mut out);
            }
            self.apply_transition(oi, &mut out);
            self.store(oi, out);
        }
        self.scratch = in_buf;
    }

    /// Latches flip-flop next-state (the value on each DFF's `d` pin,
    /// after any injected `d`-pin fault).
    ///
    /// Must be called after [`TapeState::eval`] for the cycle.
    pub(crate) fn step<N: AsRef<Netlist>>(&mut self, tape: &CompiledTape<N>) {
        for (k, &(_, d, gate)) in tape.dff_nets.iter().enumerate() {
            let mut v = self.load(d);
            if let Some(m) = self.dff_pins.get(gate as usize) {
                m.apply(&mut v);
            }
            self.state[k] = v;
        }
    }

    /// Current lane words on `net` (valid after [`TapeState::eval`]).
    ///
    /// Note: nets interior to a collapsed chain carry stale values unless
    /// the owning entry was expanded by a fault — by construction they are
    /// neither primary outputs nor flip-flop inputs, so nothing in the
    /// fault-simulation flow observes them.
    pub fn value(&self, net: NetId) -> [u64; W] {
        self.load(net.index() as u32)
    }

    /// Gate-evaluation events performed so far: each tape replay counts
    /// every source gate (collapsed or not) once, so the compiled engine's
    /// event count equals the full-eval baseline of `cycles × gates`.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }
}

/// A `W`-word-wide (64·W lanes) cycle-based simulator replaying a
/// borrowed [`CompiledTape`]: a [`TapeState`] bundled with its tape.
///
/// Semantics mirror [`crate::Simulator`]: `set_input` → [`eval`] →
/// read values → [`step`] to latch flip-flops, with per-lane stuck-at
/// injection via [`inject_fault`]. Every lane of every word behaves as an
/// independent single-bit machine.
///
/// [`eval`]: TapeSimulator::eval
/// [`step`]: TapeSimulator::step
/// [`inject_fault`]: TapeSimulator::inject_fault
#[derive(Debug)]
pub struct TapeSimulator<'t, 'a, const W: usize> {
    tape: &'t CompiledTape<&'a Netlist>,
    state: TapeState<W>,
}

impl<'t, 'a, const W: usize> TapeSimulator<'t, 'a, W> {
    /// Creates a simulator over `tape` with all inputs low, flip-flops
    /// reset and no faults injected.
    pub fn new(tape: &'t CompiledTape<&'a Netlist>) -> Self {
        TapeSimulator {
            tape,
            state: TapeState::new(tape),
        }
    }

    /// Number of lanes (`64 × W`).
    pub fn lanes(&self) -> usize {
        64 * W
    }

    /// Resets all flip-flops to 0 and disarms transition faults (inputs
    /// and injections are kept).
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.state.clear_faults();
    }

    /// Injects `fault` into lane `lane` — see [`TapeState::inject_fault`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W`.
    pub fn inject_fault(&mut self, fault: &Fault, lane: usize) {
        self.state.inject_fault(self.tape, fault, lane);
    }

    /// Injects a gross transition-delay fault into lane `lane` — same
    /// semantics as
    /// [`Simulator::inject_transition_fault`](crate::Simulator::inject_transition_fault).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W`.
    pub fn inject_transition_fault(&mut self, fault: &TransitionFault, lane: usize) {
        self.state.inject_transition_fault(self.tape, fault, lane);
    }

    /// Drives a primary input with the same logic value in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input of the netlist.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        let pos = self
            .tape
            .netlist()
            .input_position(net)
            .expect("set_input target must be a primary input");
        self.state.set_input_at(pos, value);
    }

    /// [`TapeSimulator::set_input`] by position in [`Netlist::inputs`] —
    /// the fault simulator's hot loop applies whole patterns positionally,
    /// skipping the net-to-position lookup.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn set_input_at(&mut self, pos: usize, value: bool) {
        self.state.set_input_at(pos, value);
    }

    /// Propagates values through the combinational tape.
    ///
    /// Flip-flop outputs present their current state; call
    /// [`TapeSimulator::step`] afterwards to latch the next state.
    pub fn eval(&mut self) {
        self.state.eval(self.tape);
    }

    /// Latches flip-flop next-state (the value on each DFF's `d` pin,
    /// after any injected `d`-pin fault).
    ///
    /// Must be called after [`TapeSimulator::eval`] for the cycle.
    pub fn step(&mut self) {
        self.state.step(self.tape);
    }

    /// Current lane words on `net` — see [`TapeState::value`].
    pub fn value(&self, net: NetId) -> [u64; W] {
        self.state.value(net)
    }

    /// Gate-evaluation events performed so far: each tape replay counts
    /// every source gate (collapsed or not) once, so the compiled engine's
    /// event count equals the full-eval baseline of `cycles × gates`.
    pub fn events(&self) -> u64 {
        self.state.events()
    }
}

/// Evaluates one gate over `W`-word operands (the expanded slow path).
fn eval_kind_wide<const W: usize>(kind: GateKind, inputs: &[[u64; W]]) -> [u64; W] {
    let mut out = [0u64; W];
    match kind {
        GateKind::Const0 => {}
        GateKind::Const1 => out = [!0; W],
        GateKind::Buf | GateKind::Dff => out = inputs[0],
        GateKind::Not => {
            for w in 0..W {
                out[w] = !inputs[0][w];
            }
        }
        GateKind::And | GateKind::Nand => {
            out = [!0; W];
            for v in inputs {
                for w in 0..W {
                    out[w] &= v[w];
                }
            }
            if kind == GateKind::Nand {
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
        }
        GateKind::Or | GateKind::Nor => {
            for v in inputs {
                for w in 0..W {
                    out[w] |= v[w];
                }
            }
            if kind == GateKind::Nor {
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
        }
        GateKind::Xor => {
            for w in 0..W {
                out[w] = inputs[0][w] ^ inputs[1][w];
            }
        }
        GateKind::Xnor => {
            for w in 0..W {
                out[w] = !(inputs[0][w] ^ inputs[1][w]);
            }
        }
        GateKind::Mux2 => {
            for w in 0..W {
                out[w] = (inputs[1][w] & !inputs[0][w]) | (inputs[2][w] & inputs[0][w]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::sim::Simulator;

    /// adder-ish mix with a collapsible chain: not → and → or feeding one
    /// output, plus a side branch keeping some fanout > 1.
    fn chain_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let n1 = b.not(a); // fanout 1 → collapsible
        let n2 = b.and2(n1, c); // fanout 1 → collapsible
        let n3 = b.or2(n2, d);
        let side = b.xor2(a, c); // `a` has fanout 2; side is a PO
        b.mark_output(n3, "o");
        b.mark_output(side, "s");
        b.finish().unwrap()
    }

    #[test]
    fn chains_collapse_and_account() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        // not+and+or fold into one entry; xor stands alone.
        assert_eq!(tape.tape_len(), 2);
        assert_eq!(tape.chains_collapsed(), 2);
    }

    #[test]
    fn primary_outputs_are_never_interior() {
        // buf → buf where the first buf's output is marked as an output:
        // must NOT collapse across the observable net.
        let mut b = NetlistBuilder::new("po");
        let a = b.input("a");
        let m = b.gate(GateKind::Buf, &[a]);
        let o = b.gate(GateKind::Not, &[m]);
        b.mark_output(m, "m");
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let tape = CompiledTape::compile(&n);
        assert_eq!(
            tape.tape_len(),
            2,
            "observable net m must stay materialized"
        );
        assert_eq!(tape.chains_collapsed(), 0);
    }

    #[test]
    fn dff_d_inputs_are_never_interior() {
        let mut b = NetlistBuilder::new("dffd");
        let a = b.input("a");
        let m = b.not(a); // feeds only the DFF d pin
        let q = b.dff(m);
        b.mark_output(q, "q");
        let n = b.finish().unwrap();
        let tape = CompiledTape::compile(&n);
        assert_eq!(tape.tape_len(), 1, "the inverter keeps its own entry");
        assert_eq!(tape.chains_collapsed(), 0);
    }

    #[test]
    fn tape_matches_simulator_exhaustively() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        for pattern in 0..8u32 {
            let mut plain = Simulator::new(&n);
            let mut fast: TapeSimulator<'_, '_, 1> = TapeSimulator::new(&tape);
            for (k, &inp) in n.inputs().iter().enumerate() {
                let bit = pattern >> k & 1 == 1;
                plain.set_input(inp, bit);
                fast.set_input(inp, bit);
            }
            plain.eval();
            fast.eval();
            for &o in n.outputs() {
                assert_eq!(plain.value(o), fast.value(o)[0], "pattern {pattern}");
            }
        }
    }

    #[test]
    fn interior_stem_fault_expands_and_matches_simulator() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        // Fault on the collapsed AND's output (interior net).
        let and_out = n
            .gates()
            .iter()
            .find(|g| g.kind == GateKind::And)
            .unwrap()
            .output;
        let fault = Fault::stem_sa1(and_out);
        for pattern in 0..8u32 {
            let mut plain = Simulator::new(&n);
            let mut fast: TapeSimulator<'_, '_, 1> = TapeSimulator::new(&tape);
            plain.inject_fault(&fault, 1 << 9);
            fast.inject_fault(&fault, 9);
            for (k, &inp) in n.inputs().iter().enumerate() {
                let bit = pattern >> k & 1 == 1;
                plain.set_input(inp, bit);
                fast.set_input(inp, bit);
            }
            plain.eval();
            fast.eval();
            for &o in n.outputs() {
                assert_eq!(plain.value(o), fast.value(o)[0], "pattern {pattern}");
            }
        }
    }

    #[test]
    fn wide_lanes_fault_in_high_word() {
        // Inject into lane 130 (word 2) and check only that lane flips.
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let fault = Fault::stem_sa0(n.outputs()[0]);
        let mut sim: TapeSimulator<'_, '_, 4> = TapeSimulator::new(&tape);
        sim.inject_fault(&fault, 130);
        for &inp in n.inputs() {
            sim.set_input(inp, true);
        }
        sim.eval();
        let v = sim.value(n.outputs()[0]);
        // Fault-free value is 1 everywhere; lane 130 is stuck at 0.
        assert_eq!(v[0], !0);
        assert_eq!(v[1], !0);
        assert_eq!(v[2], !(1u64 << 2));
        assert_eq!(v[3], !0);
    }

    #[test]
    fn sequential_state_latches_like_simulator() {
        let mut b = NetlistBuilder::new("seq");
        let d = b.input("d");
        let q1 = b.dff(d);
        let q2 = b.dff(q1);
        let o = b.xor2(q1, q2);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let tape = CompiledTape::compile(&n);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<'_, '_, 2> = TapeSimulator::new(&tape);
        let seq = [true, false, true, true, false, false, true];
        for &bit in &seq {
            plain.set_input(n.inputs()[0], bit);
            fast.set_input(n.inputs()[0], bit);
            plain.eval();
            fast.eval();
            assert_eq!(plain.value(n.outputs()[0]), fast.value(n.outputs()[0])[0]);
            assert_eq!(fast.value(n.outputs()[0])[0], fast.value(n.outputs()[0])[1]);
            plain.step();
            fast.step();
        }
    }

    #[test]
    fn transition_faults_match_simulator_on_every_net() {
        // Every net (including the chain-interior ones) carries a
        // transition fault; drive a value sequence and compare observable
        // nets against the full-eval oracle each cycle.
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let faults = crate::fault::enumerate_transition_faults(&n);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<'_, '_, 1> = TapeSimulator::new(&tape);
        for (i, f) in faults.iter().enumerate() {
            let lane = 1 + (i % 63);
            plain.inject_transition_fault(f, 1u64 << lane);
            fast.inject_transition_fault(f, lane);
        }
        for pattern in [0u32, 7, 1, 6, 2, 2, 5, 0, 3, 4, 7, 0] {
            for (k, &inp) in n.inputs().iter().enumerate() {
                let bit = pattern >> k & 1 == 1;
                plain.set_input(inp, bit);
                fast.set_input(inp, bit);
            }
            plain.eval();
            fast.eval();
            for &o in n.outputs() {
                assert_eq!(plain.value(o), fast.value(o)[0], "pattern {pattern}");
            }
        }
    }

    #[test]
    fn chain_interior_transition_expands_owning_entry() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let and_out = n
            .gates()
            .iter()
            .find(|g| g.kind == GateKind::And)
            .unwrap()
            .output;
        let fault = TransitionFault::slow_to_rise(and_out);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<'_, '_, 1> = TapeSimulator::new(&tape);
        plain.inject_transition_fault(&fault, 1 << 9);
        fast.inject_transition_fault(&fault, 9);
        for pattern in [0u32, 2, 7, 7, 1, 6, 7] {
            for (k, &inp) in n.inputs().iter().enumerate() {
                let bit = pattern >> k & 1 == 1;
                plain.set_input(inp, bit);
                fast.set_input(inp, bit);
            }
            plain.eval();
            fast.eval();
            for &o in n.outputs() {
                assert_eq!(plain.value(o), fast.value(o)[0], "pattern {pattern}");
            }
        }
    }

    #[test]
    fn sequential_transition_faults_latch_like_simulator() {
        let mut b = NetlistBuilder::new("seq");
        let d = b.input("d");
        let q1 = b.dff(d);
        let q2 = b.dff(q1);
        let o = b.xor2(q1, q2);
        b.mark_output(o, "o");
        let n = b.finish().unwrap();
        let tape = CompiledTape::compile(&n);
        let mut plain = Simulator::new(&n);
        let mut fast: TapeSimulator<'_, '_, 2> = TapeSimulator::new(&tape);
        for (i, f) in crate::fault::enumerate_transition_faults(&n)
            .iter()
            .enumerate()
        {
            // Spread across both lane words; mirror into the narrow sim's
            // 64 lanes only when the lane fits.
            let lane = 1 + (i % 63);
            plain.inject_transition_fault(f, 1u64 << lane);
            fast.inject_transition_fault(f, lane);
        }
        for &bit in &[false, true, true, false, true, false, false, true, true] {
            plain.set_input(n.inputs()[0], bit);
            fast.set_input(n.inputs()[0], bit);
            plain.eval();
            fast.eval();
            for idx in 0..n.net_count() {
                let net = NetId::from_index(idx);
                // Interior nets are materialized here (no collapsed chains
                // in this netlist), so compare everything.
                assert_eq!(plain.value(net), fast.value(net)[0], "net {net}");
            }
            plain.step();
            fast.step();
        }
    }

    #[test]
    fn transition_reset_disarms_wide_lanes() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let fault = TransitionFault::slow_to_fall(n.inputs()[0]);
        let mut sim: TapeSimulator<'_, '_, 4> = TapeSimulator::new(&tape);
        sim.inject_transition_fault(&fault, 200); // word 3
        for &inp in n.inputs() {
            sim.set_input(inp, true);
        }
        sim.eval(); // records prev=1 in all lanes
        sim.set_input(n.inputs()[0], false);
        sim.eval(); // lane 200 holds the stale 1
        assert_eq!(sim.value(n.inputs()[0])[3], 1u64 << (200 - 192));
        sim.reset();
        sim.eval(); // disarmed: no lane forced
        assert_eq!(sim.value(n.inputs()[0])[3], 0);
    }

    #[test]
    fn sites_outside_the_netlist_are_ignored_like_simulator() {
        // Fault sites from a different (larger) netlist: the Simulator
        // never matches them, so the tape must not panic or act on them.
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let and_gate = n
            .gates()
            .iter()
            .position(|g| g.kind == GateKind::And)
            .map(GateId::from_index)
            .unwrap();
        let faults = [
            Fault::stem_sa1(NetId::from_index(n.net_count())),
            Fault::stem_sa0(NetId::from_index(n.net_count() + 1000)),
            Fault {
                site: FaultSite::Pin {
                    gate: GateId::from_index(n.gate_count() + 7),
                    pin: 0,
                },
                stuck_value: true,
            },
            Fault {
                site: FaultSite::Pin {
                    gate: and_gate,
                    pin: 5,
                },
                stuck_value: true,
            },
        ];
        for fault in &faults {
            for pattern in 0..8u32 {
                let mut plain = Simulator::new(&n);
                let mut fast: TapeSimulator<'_, '_, 1> = TapeSimulator::new(&tape);
                plain.inject_fault(fault, 1);
                fast.inject_fault(fault, 0);
                let mut good: TapeSimulator<'_, '_, 1> = TapeSimulator::new(&tape);
                for (k, &inp) in n.inputs().iter().enumerate() {
                    let bit = pattern >> k & 1 == 1;
                    plain.set_input(inp, bit);
                    fast.set_input(inp, bit);
                    good.set_input(inp, bit);
                }
                plain.eval();
                fast.eval();
                good.eval();
                for &o in n.outputs() {
                    assert_eq!(plain.value(o) & 1, fast.value(o)[0] & 1, "{fault:?}");
                    assert_eq!(good.value(o), fast.value(o), "{fault:?} changed {o}");
                }
            }
        }
    }

    #[test]
    fn owned_states_share_one_arc_held_tape() {
        // The tape owns its netlist and lives behind an Arc; each state is
        // injected once and driven many times, like a mounted fault.
        let n = chain_netlist();
        let tape = std::sync::Arc::new(CompiledTape::compile(n.clone()));
        let pin_fault = Fault {
            site: FaultSite::Pin {
                gate: n.driver(n.outputs()[0]).unwrap(),
                pin: 1,
            },
            stuck_value: true,
        };
        let faults = [Fault::stem_sa0(n.outputs()[1]), pin_fault];
        let mut states: Vec<TapeState<1>> = faults
            .iter()
            .map(|f| {
                let mut st = TapeState::new(&*tape);
                st.inject_fault(&tape, f, 0);
                st
            })
            .collect();
        for pattern in [5u32, 0, 7, 2, 6, 1, 3, 4] {
            for (fault, st) in faults.iter().zip(&mut states) {
                let mut plain = Simulator::new(&n);
                plain.inject_fault(fault, 1);
                for (k, &inp) in n.inputs().iter().enumerate() {
                    let bit = pattern >> k & 1 == 1;
                    plain.set_input(inp, bit);
                    st.set_input_at(k, bit);
                }
                plain.eval();
                st.eval(&tape);
                for &o in n.outputs() {
                    assert_eq!(plain.value(o) & 1, st.value(o)[0] & 1, "pattern {pattern}");
                }
            }
        }
    }

    /// Three inputs, a collapsible not→and→or chain into a flip-flop
    /// pipeline, and two observed outputs.
    fn pipelined_chain_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("pipe");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let n1 = b.not(a);
        let n2 = b.and2(n1, c);
        let n3 = b.or2(n2, d);
        let q1 = b.dff(n3);
        let q2 = b.dff(q1);
        let x = b.xor2(q1, a);
        let q3 = b.dff(x);
        let o1 = b.xor2(q2, q3);
        let o2 = b.and2(q1, c);
        b.mark_output(o1, "o1");
        b.mark_output(o2, "o2");
        b.finish().unwrap()
    }

    fn drive<const W: usize>(st: &mut TapeState<W>, tape: &CompiledTape<&Netlist>, pattern: u32) {
        for k in 0..tape.netlist().inputs().len() {
            st.set_input_at(k, pattern >> k & 1 == 1);
        }
        st.eval(tape);
    }

    fn lane_bit<const W: usize>(st: &TapeState<W>, net: NetId, lane: usize) -> bool {
        st.value(net)[lane / 64] >> (lane % 64) & 1 == 1
    }

    /// Either fault model, injectable into a state of any width.
    #[derive(Clone, Copy)]
    enum AnyFault {
        Stuck(Fault),
        Transition(TransitionFault),
    }

    impl AnyFault {
        fn inject<const W: usize>(
            self,
            st: &mut TapeState<W>,
            tape: &CompiledTape<&Netlist>,
            lane: usize,
        ) {
            match self {
                AnyFault::Stuck(f) => st.inject_fault(tape, &f, lane),
                AnyFault::Transition(f) => st.inject_transition_fault(tape, &f, lane),
            }
        }
    }

    /// Runs `faults` (fault `i` in lane `1 + i`) for `split` patterns on a
    /// 64-lane state, moves every lane into a 256-lane state at scattered
    /// lanes, and evaluates the rest of `patterns` on both. `strip_arming`
    /// drops the transition arming bits from the moved snapshots (a
    /// negative control). Returns whether every lane's outputs matched its
    /// moved twin, and whether any faulty lane's outputs left the
    /// reference's after the move.
    fn move_lanes_mid_run(
        n: &Netlist,
        faults: &[AnyFault],
        patterns: &[u32],
        split: usize,
        strip_arming: bool,
    ) -> (bool, bool) {
        let tape = CompiledTape::compile(n);
        let mut narrow: TapeState<1> = TapeState::new(&tape);
        let mut wide: TapeState<4> = TapeState::new(&tape);
        let moved = |lane: usize| if lane == 0 { 130 } else { 255 - lane };
        for (i, f) in faults.iter().enumerate() {
            f.inject(&mut narrow, &tape, 1 + i);
            f.inject(&mut wide, &tape, moved(1 + i));
        }
        for &p in &patterns[..split] {
            drive(&mut narrow, &tape, p);
            narrow.step(&tape);
        }
        for lane in 0..=faults.len() {
            let mut snap = narrow.snapshot_lane(lane);
            if strip_arming {
                snap.arming.clear();
            }
            wide.restore_lane(moved(lane), &snap);
        }
        let (mut same, mut active) = (true, false);
        for &p in &patterns[split..] {
            drive(&mut narrow, &tape, p);
            drive(&mut wide, &tape, p);
            for &o in n.outputs() {
                for lane in 0..=faults.len() {
                    let v = lane_bit(&narrow, o, lane);
                    same &= v == lane_bit(&wide, o, moved(lane));
                    active |= lane > 0 && v != lane_bit(&narrow, o, 0);
                }
            }
            narrow.step(&tape);
            wide.step(&tape);
            if !strip_arming {
                // The next cycle's state agrees too, not just the outputs.
                for lane in 0..=faults.len() {
                    assert_eq!(
                        narrow.snapshot_lane(lane),
                        wide.snapshot_lane(moved(lane)),
                        "lane {lane} after pattern {p}"
                    );
                }
            }
        }
        (same, active)
    }

    #[test]
    fn lane_snapshot_restore_reproduces_next_evals() {
        let n = pipelined_chain_netlist();
        assert!(
            CompiledTape::compile(&n).chains_collapsed() > 0,
            "covers chain-interior sites"
        );
        let patterns = [0u32, 7, 1, 6, 2, 2, 5, 0, 3, 4, 7, 0, 1, 6, 6, 3];
        let stuck: Vec<AnyFault> = n.all_faults().into_iter().map(AnyFault::Stuck).collect();
        let transition: Vec<AnyFault> = crate::fault::enumerate_transition_faults(&n)
            .into_iter()
            .map(AnyFault::Transition)
            .collect();
        assert!(stuck.len() < 64 && transition.len() < 64);
        for split in [1, 4, 9] {
            for (faults, model) in [(&stuck, "stuck-at"), (&transition, "transition")] {
                let (same, active) = move_lanes_mid_run(&n, faults, &patterns, split, false);
                assert!(same, "{model} lanes diverged after a move at {split}");
                assert!(active, "{model} faults never showed after {split}");
            }
        }
        // The arming bits carry real state: moving transition lanes
        // without them changes what some lane evaluates next.
        let stripped_differs = [1, 4, 9]
            .iter()
            .any(|&split| !move_lanes_mid_run(&n, &transition, &patterns, split, true).0);
        assert!(stripped_differs, "arming restore is never exercised");
    }

    #[test]
    fn events_equal_full_eval_baseline() {
        let n = chain_netlist();
        let tape = CompiledTape::compile(&n);
        let mut sim: TapeSimulator<'_, '_, 1> = TapeSimulator::new(&tape);
        for _ in 0..5 {
            sim.eval();
            sim.step();
        }
        assert_eq!(sim.events(), 5 * n.comb_order().len() as u64);
    }
}
