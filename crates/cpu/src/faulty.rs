//! Architectural fault injection.
//!
//! Wires a gate-level component carrying an injected stuck-at fault into
//! the ISS datapath: every instruction that exercises the component gets
//! its result from the *faulty netlist* instead of native arithmetic, so
//! the fault's effect propagates through architectural state exactly as it
//! would in silicon — corrupted values flow into registers, addresses,
//! branches and, eventually, the self-test signature. This end-to-end mode
//! cross-validates the faster trace-replay grading of `sbst-core`.
//!
//! Mounted faults are evaluated on the production compiled tape
//! ([`sbst_gates::CompiledTape`]): a [`CompiledTarget`] compiles a
//! component once, and every [`ArchFault`] mounted on it keeps only its own
//! tape state with the fault pre-injected.

use std::sync::Arc;

use sbst_components::alu::{AluFunc, AluOp};
use sbst_components::multiplier::MulOp;
use sbst_components::shifter::{ShiftFunc, ShiftOp};
use sbst_components::{Component, ComponentKind};
use sbst_gates::{CompiledTape, Fault, NetId, Netlist, TapeState};

/// Which datapath component the fault lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchFaultTarget {
    /// The ALU (also covers address generation and branch comparison).
    Alu,
    /// The barrel shifter (also covers `lui`).
    Shifter,
    /// The parallel multiplier array.
    Multiplier,
}

/// Temporal behaviour of a mounted fault, following the paper's operational
/// fault taxonomy: permanent faults "exist indefinitely", intermittent
/// faults "appear at regular time intervals".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultActivity {
    /// Always active.
    Permanent,
    /// Active for `active_cycles` out of every `period_cycles`, starting at
    /// `phase_cycles` into each period.
    Intermittent {
        /// Repetition period in CPU cycles.
        period_cycles: u64,
        /// Active span per period.
        active_cycles: u64,
        /// Offset of the active span within the period.
        phase_cycles: u64,
    },
    /// Active exactly once, during `from_cycle..until_cycle` — a transient
    /// disturbance (particle strike, supply glitch) that never recurs. The
    /// on-line test manager's retry loop classifies such faults transient:
    /// the mismatch is not reproduced once the window has passed.
    Window {
        /// First active cycle.
        from_cycle: u64,
        /// First cycle after the active span.
        until_cycle: u64,
    },
}

impl FaultActivity {
    /// Translates an activity defined against a *global* clock into the
    /// local cycle frame of a CPU starting at global time `now_cycles`.
    ///
    /// [`crate::cpu::Cpu`] evaluates [`FaultActivity::is_active`] against
    /// its own cycle counter, which restarts at zero for every mounted
    /// program; a test bench that plans fault windows in the manager's
    /// virtual time (the `now_cycles` its `prepare` receives) must rebase
    /// them before mounting. Returns `None` when the activity can never
    /// manifest again (a window already fully in the past) so callers can
    /// skip mounting entirely.
    pub fn rebase(self, now_cycles: u64) -> Option<FaultActivity> {
        match self {
            FaultActivity::Permanent => Some(FaultActivity::Permanent),
            FaultActivity::Intermittent {
                period_cycles,
                active_cycles,
                phase_cycles,
            } => {
                // Normalize the phase into `0..period` *before* any
                // addition: `phase_cycles + period_cycles` overflows u64
                // for phases planned near the end of a saturated virtual
                // clock. With both operands reduced, the subtraction form
                // below stays in `0..period` and cannot wrap.
                let period = period_cycles.max(1);
                let offset = now_cycles % period;
                let phase = phase_cycles % period;
                let rebased = if phase >= offset {
                    phase - offset
                } else {
                    phase + (period - offset)
                };
                Some(FaultActivity::Intermittent {
                    period_cycles,
                    active_cycles,
                    phase_cycles: rebased,
                })
            }
            FaultActivity::Window {
                from_cycle,
                until_cycle,
            } => {
                if until_cycle <= now_cycles {
                    return None;
                }
                Some(FaultActivity::Window {
                    from_cycle: from_cycle.saturating_sub(now_cycles),
                    until_cycle: if until_cycle == u64::MAX {
                        u64::MAX
                    } else {
                        until_cycle - now_cycles
                    },
                })
            }
        }
    }

    /// Whether the fault manifests at the given cycle.
    pub fn is_active(self, cycle: u64) -> bool {
        match self {
            FaultActivity::Permanent => true,
            FaultActivity::Intermittent {
                period_cycles,
                active_cycles,
                phase_cycles,
            } => {
                // Same discipline as `rebase`: reduce first, then subtract
                // within `0..period` — `cycle + period_cycles` overflows
                // for cycles near `u64::MAX`, and a zero period would
                // panic the `%` before `.max(1)` was applied to it.
                let period = period_cycles.max(1);
                let pos = cycle % period;
                let phase = phase_cycles % period;
                let t = if pos >= phase {
                    pos - phase
                } else {
                    pos + (period - phase)
                };
                t < active_cycles
            }
            FaultActivity::Window {
                from_cycle,
                until_cycle,
            } => (from_cycle..until_cycle).contains(&cycle),
        }
    }
}

/// A component held by a compiled tape through its shared [`Arc`].
#[derive(Debug)]
struct SharedNetlist(Arc<Component>);

impl AsRef<Netlist> for SharedNetlist {
    fn as_ref(&self) -> &Netlist {
        &self.0.netlist
    }
}

/// A datapath component compiled once for fault mounting: its shared
/// netlist, the evaluation tape compiled from it, and its operand and
/// result ports resolved to input positions and output nets.
///
/// Share one behind an [`Arc`] and [`ArchFault::mount`] any number of
/// faults on it; compilation and port resolution never repeat per mount
/// or per operation.
#[derive(Debug)]
pub struct CompiledTarget {
    target: ArchFaultTarget,
    component: Arc<Component>,
    tape: CompiledTape<SharedNetlist>,
    /// Input positions (in the netlist's input list) of each operand bus,
    /// LSB first, in the order the `eval_*` methods drive them.
    operands: Vec<Vec<usize>>,
    /// Output nets of each result bus, LSB first, in the order the
    /// `eval_*` methods read them.
    results: Vec<Vec<NetId>>,
}

impl CompiledTarget {
    /// Compiles `component` for mounting.
    ///
    /// # Panics
    ///
    /// Panics if the component kind does not admit architectural mounting
    /// (only ALU, shifter and multiplier are datapath-replaceable), if the
    /// component is not full width (32-bit) or if its netlist is sequential.
    pub fn compile(component: Arc<Component>) -> Self {
        let target = match component.kind {
            ComponentKind::Alu => ArchFaultTarget::Alu,
            ComponentKind::Shifter => ArchFaultTarget::Shifter,
            ComponentKind::Multiplier => ArchFaultTarget::Multiplier,
            other => panic!("component {other} cannot be architecturally mounted"),
        };
        assert_eq!(component.width, 32, "architectural mounting needs width 32");
        // Nothing latches, so every tape evaluation starts from reset.
        assert!(
            component.netlist.is_combinational(),
            "architectural mounting needs a combinational netlist"
        );
        let (operands, results): (&[&str], &[&str]) = match target {
            ArchFaultTarget::Alu => (&["a", "b", "op"], &["result", "zero"]),
            ArchFaultTarget::Shifter => (&["data", "amount", "op"], &["result"]),
            ArchFaultTarget::Multiplier => (&["a", "b"], &["product"]),
        };
        let netlist = &component.netlist;
        let operands = operands
            .iter()
            .map(|&port| {
                component
                    .ports
                    .input(port)
                    .iter()
                    .map(|&net| {
                        netlist
                            .input_position(net)
                            .expect("operand port bits are primary inputs")
                    })
                    .collect()
            })
            .collect();
        let results = results
            .iter()
            .map(|&port| component.ports.output(port).nets().to_vec())
            .collect();
        CompiledTarget {
            target,
            tape: CompiledTape::compile(SharedNetlist(Arc::clone(&component))),
            component,
            operands,
            results,
        }
    }

    /// The shared component the tape was compiled from.
    pub fn component(&self) -> &Arc<Component> {
        &self.component
    }
}

/// A faulty component mounted in the datapath.
///
/// A mount is a handle to a shared [`CompiledTarget`] plus its own tape
/// state, built once with the fault injected in lane 0. Each datapath
/// operation then drives the operands by precomputed input position,
/// replays the tape and reads the result nets: no allocation, no port
/// lookup by name and no hashing per operation. Every evaluation starts
/// from the reset state (the mountable components are combinational and
/// nothing latches), so it equals a fresh gate-level simulation of the
/// faulty netlist — [`sbst_gates::Simulator`] is kept as the test oracle
/// for exactly that.
///
/// A fault site the component's netlist does not have (a net or gate
/// index beyond its tables) is ignored: the mount evaluates the
/// fault-free netlist, as the oracle does.
#[derive(Debug)]
pub struct ArchFault {
    target: Arc<CompiledTarget>,
    fault: Fault,
    activity: FaultActivity,
    state: TapeState<1>,
}

impl ArchFault {
    /// Mounts `fault` inside `component` (owned, or already shared behind
    /// an `Arc`) as a permanent fault, compiling the component for this
    /// one mount. To mount many faults on one component, compile a
    /// [`CompiledTarget`] once and use [`ArchFault::mount`].
    ///
    /// # Panics
    ///
    /// Same contract as [`CompiledTarget::compile`].
    pub fn new(component: impl Into<Arc<Component>>, fault: Fault) -> Self {
        Self::mount(Arc::new(CompiledTarget::compile(component.into())), fault)
    }

    /// Mounts `fault` as a permanent fault on an already compiled, shared
    /// target — a refcount bump plus this mount's own value buffers.
    pub fn mount(target: Arc<CompiledTarget>, fault: Fault) -> Self {
        let mut state = TapeState::new(&target.tape);
        state.inject_fault(&target.tape, &fault, 0);
        ArchFault {
            target,
            fault,
            activity: FaultActivity::Permanent,
            state,
        }
    }

    /// Gives the fault intermittent activity.
    pub fn with_activity(mut self, activity: FaultActivity) -> Self {
        self.activity = activity;
        self
    }

    /// The mounted target.
    pub fn target(&self) -> ArchFaultTarget {
        self.target.target
    }

    /// The injected fault.
    pub fn fault(&self) -> Fault {
        self.fault
    }

    /// Whether the fault manifests at the given CPU cycle.
    pub fn is_active(&self, cycle: u64) -> bool {
        self.activity.is_active(cycle)
    }

    /// Drives one word per operand bus and evaluates the faulty tape.
    fn run(&mut self, operands: &[u64]) {
        let target = &*self.target;
        for (positions, &word) in target.operands.iter().zip(operands) {
            for (bit, &pos) in positions.iter().enumerate() {
                self.state.set_input_at(pos, (word >> bit) & 1 == 1);
            }
        }
        self.state.eval(&target.tape);
    }

    /// The word on result bus `port` after [`ArchFault::run`].
    fn result(&self, port: usize) -> u64 {
        self.target.results[port]
            .iter()
            .enumerate()
            .fold(0, |word, (bit, &net)| {
                word | (self.state.value(net)[0] & 1) << bit
            })
    }

    /// Evaluates an ALU operation through the faulty netlist.
    /// Returns `None` if the mounted component is not the ALU.
    pub fn eval_alu(&mut self, op: &AluOp) -> Option<(u32, bool)> {
        if self.target() != ArchFaultTarget::Alu {
            return None;
        }
        self.run(&[op.a as u64, op.b as u64, op.func.encoding() as u64]);
        Some((self.result(0) as u32, self.result(1) & 1 == 1))
    }

    /// Evaluates a shift through the faulty netlist.
    pub fn eval_shift(&mut self, op: &ShiftOp) -> Option<u32> {
        if self.target() != ArchFaultTarget::Shifter {
            return None;
        }
        self.run(&[op.data as u64, op.amount as u64, op.func.encoding() as u64]);
        Some(self.result(0) as u32)
    }

    /// Evaluates a multiplication through the faulty netlist (the 64-bit
    /// product).
    pub fn eval_mul(&mut self, op: &MulOp) -> Option<u64> {
        if self.target() != ArchFaultTarget::Multiplier {
            return None;
        }
        self.run(&[op.a as u64, op.b as u64]);
        Some(self.result(0))
    }

    /// Convenience: `AluFunc` reference evaluation with the fault-free
    /// model, used by tests comparing faulty vs good behaviour.
    pub fn good_alu(op: &AluOp) -> (u32, bool) {
        sbst_components::alu::model(op.func, op.a, op.b, 32)
    }

    /// Fault-free shifter reference.
    pub fn good_shift(op: &ShiftOp) -> u32 {
        sbst_components::shifter::model(op.func, op.data, op.amount, 32)
    }

    /// Fault-free multiplier reference.
    pub fn good_mul(op: &MulOp) -> u64 {
        sbst_components::multiplier::model(op.a, op.b, 32)
    }

    /// Suppresses unused warnings for re-exported helper types.
    #[doc(hidden)]
    pub fn _type_anchors(_: AluFunc, _: ShiftFunc) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_components::{alu, multiplier, shifter};

    #[test]
    fn faulty_alu_differs_somewhere() {
        let c = alu::alu(32);
        let fault = Fault::stem_sa0(c.ports.output("result").net(0));
        let mut af = ArchFault::new(c, fault);
        let op = AluOp {
            func: AluFunc::Add,
            a: 1,
            b: 0,
        };
        let (faulty, _) = af.eval_alu(&op).unwrap();
        assert_ne!(faulty, ArchFault::good_alu(&op).0);
    }

    #[test]
    fn fault_free_paths_agree_with_models() {
        // A fault on an unused function's logic must not disturb others:
        // inject into the zero flag reduction and check add still works.
        let c = alu::alu(32);
        let zero_net = c.ports.output("zero").net(0);
        let mut af = ArchFault::new(c, Fault::stem_sa1(zero_net));
        let op = AluOp {
            func: AluFunc::Add,
            a: 123,
            b: 456,
        };
        let (result, zero) = af.eval_alu(&op).unwrap();
        assert_eq!(result, 579);
        assert!(zero); // the injected fault forces the flag
    }

    #[test]
    fn mismatched_target_returns_none() {
        let c = shifter::shifter(32);
        let fault = Fault::stem_sa0(c.ports.output("result").net(5));
        let mut af = ArchFault::new(c, fault);
        assert!(af
            .eval_alu(&AluOp {
                func: AluFunc::And,
                a: 0,
                b: 0
            })
            .is_none());
        assert!(af
            .eval_shift(&ShiftOp {
                func: ShiftFunc::Sll,
                data: 0xFFFF_FFFF,
                amount: 0
            })
            .is_some());
    }

    #[test]
    fn faulty_multiplier_corrupts_product() {
        let c = multiplier::multiplier(32);
        let fault = Fault::stem_sa1(c.ports.output("product").net(0));
        let mut af = ArchFault::new(c, fault);
        let op = MulOp { a: 2, b: 2 };
        assert_ne!(af.eval_mul(&op).unwrap(), ArchFault::good_mul(&op));
    }

    #[test]
    fn rebase_translates_windows_into_the_local_frame() {
        let w = FaultActivity::Window {
            from_cycle: 1000,
            until_cycle: 1500,
        };
        // Before the window: it sits in the future of the local frame.
        assert_eq!(
            w.rebase(200),
            Some(FaultActivity::Window {
                from_cycle: 800,
                until_cycle: 1300,
            })
        );
        // Inside the window: active from local cycle 0.
        assert_eq!(
            w.rebase(1200),
            Some(FaultActivity::Window {
                from_cycle: 0,
                until_cycle: 300,
            })
        );
        // Fully in the past: never mounts again.
        assert_eq!(w.rebase(1500), None);
        assert_eq!(w.rebase(u64::MAX), None);
        // Open-ended wear-out windows stay open-ended.
        let wear = FaultActivity::Window {
            from_cycle: 5000,
            until_cycle: u64::MAX,
        };
        assert_eq!(
            wear.rebase(6000),
            Some(FaultActivity::Window {
                from_cycle: 0,
                until_cycle: u64::MAX,
            })
        );
        assert_eq!(
            FaultActivity::Permanent.rebase(42),
            Some(FaultActivity::Permanent)
        );
    }

    #[test]
    fn rebase_keeps_intermittent_cadence_aligned() {
        let i = FaultActivity::Intermittent {
            period_cycles: 100,
            active_cycles: 10,
            phase_cycles: 30,
        };
        // The rebased activity must agree with the global one at every
        // global cycle reachable by a CPU started at `now`.
        for now in [0u64, 7, 30, 99, 130, 250] {
            let local = i.rebase(now).unwrap();
            for delta in 0..300 {
                assert_eq!(
                    local.is_active(delta),
                    i.is_active(now + delta),
                    "now={now} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn rebase_and_activity_survive_extreme_parameters() {
        // Regression: the old rebase computed `phase + period - offset`
        // before reducing, which wraps u64 for phases near the end of a
        // saturated clock; the old is_active added `cycle + period` the
        // same way and divided by a raw zero period.
        let i = FaultActivity::Intermittent {
            period_cycles: u64::MAX - 1,
            active_cycles: 10,
            phase_cycles: u64::MAX - 2,
        };
        let local = i.rebase(u64::MAX - 4).unwrap();
        match local {
            FaultActivity::Intermittent { phase_cycles, .. } => {
                assert!(phase_cycles < u64::MAX - 1, "phase left 0..period");
                // now sits 2 cycles before the phase start.
                assert_eq!(phase_cycles, 2);
            }
            other => panic!("rebase changed the variant: {other:?}"),
        }
        assert!(!local.is_active(0));
        assert!(local.is_active(2));
        assert!(local.is_active(11));
        assert!(!local.is_active(12));
        // is_active itself must not wrap at the top of the clock.
        assert!(!i.is_active(u64::MAX - 3));
        assert!(i.is_active(u64::MAX - 2));
        // A degenerate zero period behaves as period 1 (always the same
        // cycle of the period) instead of panicking on `% 0`.
        let z = FaultActivity::Intermittent {
            period_cycles: 0,
            active_cycles: 1,
            phase_cycles: 5,
        };
        assert!(z.is_active(0));
        assert!(z.is_active(u64::MAX));
        assert!(z.rebase(123).is_some());
    }

    #[test]
    fn window_activity_fires_once() {
        let w = FaultActivity::Window {
            from_cycle: 100,
            until_cycle: 150,
        };
        assert!(!w.is_active(99));
        assert!(w.is_active(100));
        assert!(w.is_active(149));
        assert!(!w.is_active(150));
        assert!(!w.is_active(1_000_000));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The rebased local activity agrees with the global one at
            /// every reachable global cycle — with periods, phases and
            /// start times drawn right up to `u64::MAX`, where the old
            /// `phase + period - offset` / `cycle + period` forms wrapped.
            #[test]
            fn rebase_agrees_with_global_clock(
                period in prop::sample::select(vec![
                    0u64, 1, 2, 3, 97, 1 << 32,
                    u64::MAX / 2 + 3, u64::MAX - 1, u64::MAX,
                ]),
                active in 0u64..5,
                phase in any::<u64>(),
                now_seed in any::<u64>(),
                delta in 0u64..200,
            ) {
                let now = now_seed % (u64::MAX - 200);
                let global = FaultActivity::Intermittent {
                    period_cycles: period,
                    active_cycles: active,
                    phase_cycles: phase,
                };
                let local = global.rebase(now).unwrap();
                prop_assert_eq!(local.is_active(delta), global.is_active(now + delta));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot be architecturally mounted")]
    fn regfile_not_mountable() {
        let c = sbst_components::regfile::regfile(32, 32);
        let fault = Fault::stem_sa0(c.netlist.outputs()[0]);
        let _ = ArchFault::new(c, fault);
    }
}
