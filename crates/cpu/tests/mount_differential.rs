//! Differential oracle for mounted faults: every `ArchFault::eval_*` result
//! (compiled tape, fault injected once per mount) must be bit-identical to
//! a fresh gate-level `Simulator` evaluation of the same faulty netlist —
//! for the ALU, the shifter and the multiplier, every function encoding,
//! stem and pin faults drawn from each component's fault list, and fault
//! sites the netlist does not have (which both sides ignore).

#![recursion_limit = "512"]

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use proptest::sample::Index;
use sbst_components::alu::{AluFunc, AluOp};
use sbst_components::multiplier::MulOp;
use sbst_components::shifter::{ShiftFunc, ShiftOp};
use sbst_components::{alu, multiplier, shifter, Component};
use sbst_cpu::{ArchFault, CompiledTarget};
use sbst_gates::{enumerate_faults, Fault, FaultSite, Netlist, NetlistBuilder, Simulator};

/// One mountable component, its full (uncollapsed) fault list and the
/// compiled target every mount in this file shares.
struct Fixture {
    component: Component,
    faults: Vec<Fault>,
    target: Arc<CompiledTarget>,
}

impl Fixture {
    fn new(component: Component) -> Self {
        let faults = enumerate_faults(&component.netlist);
        let target = Arc::new(CompiledTarget::compile(Arc::new(component.clone())));
        Fixture {
            component,
            faults,
            target,
        }
    }

    /// `kind` 0–2 picks a site outside the netlist; anything else picks
    /// `faults[index]` (stems and pins alike).
    fn fault(&self, kind: u8, index: Index, stuck: bool) -> Fault {
        let site = match kind {
            0 => FaultSite::Stem(foreign_netlist().outputs()[0]),
            1 => FaultSite::Pin {
                gate: foreign_netlist()
                    .driver(foreign_netlist().outputs()[0])
                    .expect("driven output"),
                pin: 0,
            },
            // A pin beyond the gate's inputs.
            2 => FaultSite::Pin {
                gate: self
                    .component
                    .netlist
                    .driver(self.component.netlist.outputs()[0])
                    .expect("driven output"),
                pin: 7,
            },
            _ => self.faults[index.index(self.faults.len())].site,
        };
        Fault {
            site,
            stuck_value: stuck,
        }
    }

    /// A fresh reference simulator carrying `fault` in lane 0.
    fn oracle(&self, fault: &Fault) -> Simulator<'_> {
        let mut sim = Simulator::new(&self.component.netlist);
        sim.inject_fault(fault, 1);
        sim
    }
}

/// A netlist with more nets and gates than any mountable component, so its
/// last output net and that net's driver are out of range everywhere.
fn foreign_netlist() -> &'static Netlist {
    static NETLIST: OnceLock<Netlist> = OnceLock::new();
    NETLIST.get_or_init(|| {
        let mut b = NetlistBuilder::new("foreign");
        let bus = b.input_bus("x", 8_000);
        let mut last = bus.net(0);
        for &net in bus.iter() {
            last = b.xor2(last, net);
        }
        b.mark_output(last, "y");
        b.finish().expect("foreign netlist builds")
    })
}

fn alu_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| Fixture::new(alu::alu(32)))
}

fn shifter_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| Fixture::new(shifter::shifter(32)))
}

fn multiplier_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| Fixture::new(multiplier::multiplier(32)))
}

fn reference_alu(f: &Fixture, fault: &Fault, op: &AluOp) -> (u32, bool) {
    let c = &f.component;
    let mut sim = f.oracle(fault);
    sim.set_bus(c.ports.input("a"), op.a as u64);
    sim.set_bus(c.ports.input("b"), op.b as u64);
    sim.set_bus(c.ports.input("op"), op.func.encoding() as u64);
    sim.eval();
    (
        sim.bus_value(c.ports.output("result")) as u32,
        sim.bus_value(c.ports.output("zero")) & 1 == 1,
    )
}

fn reference_shift(f: &Fixture, fault: &Fault, op: &ShiftOp) -> u32 {
    let c = &f.component;
    let mut sim = f.oracle(fault);
    sim.set_bus(c.ports.input("data"), op.data as u64);
    sim.set_bus(c.ports.input("amount"), op.amount as u64);
    sim.set_bus(c.ports.input("op"), op.func.encoding() as u64);
    sim.eval();
    sim.bus_value(c.ports.output("result")) as u32
}

fn reference_mul(f: &Fixture, fault: &Fault, op: &MulOp) -> u64 {
    let c = &f.component;
    let mut sim = f.oracle(fault);
    sim.set_bus(c.ports.input("a"), op.a as u64);
    sim.set_bus(c.ports.input("b"), op.b as u64);
    sim.eval();
    let product = c.ports.output("product");
    let lo = sim.bus_lane(&product.slice(0..32), 0);
    let hi = sim.bus_lane(&product.slice(32..64), 0);
    (hi << 32) | lo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One mount per case, evaluated over every ALU function on several
    /// operand pairs in a row (a mount is reused across operations).
    #[test]
    fn alu_mount_matches_simulator(kind in 0u8..10, site: Index, stuck: bool, a: u32, b: u32) {
        let f = alu_fixture();
        let fault = f.fault(kind, site, stuck);
        let mut mounted = ArchFault::mount(Arc::clone(&f.target), fault);
        for (x, y) in [(a, b), (b, a), (a, a), (!a, 0), (0, u32::MAX)] {
            for func in AluFunc::ALL {
                let op = AluOp { func, a: x, b: y };
                prop_assert_eq!(
                    mounted.eval_alu(&op),
                    Some(reference_alu(f, &fault, &op)),
                    "{:?} {:?}", fault, op
                );
            }
        }
        let shift = ShiftOp { func: ShiftFunc::Sll, data: a, amount: 1 };
        prop_assert_eq!(mounted.eval_shift(&shift), None);
        prop_assert_eq!(mounted.eval_mul(&MulOp { a, b }), None);
    }

    /// Every shift function, with amounts beyond the port width too (both
    /// sides drive only the port's bits).
    #[test]
    fn shifter_mount_matches_simulator(kind in 0u8..10, site: Index, stuck: bool, data: u32, amount: u8) {
        let f = shifter_fixture();
        let fault = f.fault(kind, site, stuck);
        let mut mounted = ArchFault::mount(Arc::clone(&f.target), fault);
        for (d, s) in [(data, amount), (!data, amount % 32), (data, 0), (0x8000_0001, 31)] {
            for func in ShiftFunc::ALL {
                let op = ShiftOp { func, data: d, amount: s };
                prop_assert_eq!(
                    mounted.eval_shift(&op),
                    Some(reference_shift(f, &fault, &op)),
                    "{:?} {:?}", fault, op
                );
            }
        }
        let add = AluOp { func: AluFunc::Add, a: data, b: 1 };
        prop_assert_eq!(mounted.eval_alu(&add), None);
    }

    #[test]
    fn multiplier_mount_matches_simulator(kind in 0u8..10, site: Index, stuck: bool, a: u32, b: u32) {
        let f = multiplier_fixture();
        let fault = f.fault(kind, site, stuck);
        let mut mounted = ArchFault::mount(Arc::clone(&f.target), fault);
        for (x, y) in [(a, b), (b, a), (u32::MAX, u32::MAX), (a, 0)] {
            let op = MulOp { a: x, b: y };
            prop_assert_eq!(
                mounted.eval_mul(&op),
                Some(reference_mul(f, &fault, &op)),
                "{:?} {:?}", fault, op
            );
        }
        let add = AluOp { func: AluFunc::Add, a, b };
        prop_assert_eq!(mounted.eval_alu(&add), None);
    }
}

/// Every stem and pin fault of the ALU and the shifter, not just a sample.
#[test]
fn every_alu_and_shifter_fault_matches_simulator() {
    let alu = alu_fixture();
    for fault in &alu.faults {
        let mut mounted = ArchFault::mount(Arc::clone(&alu.target), *fault);
        for func in AluFunc::ALL {
            let op = AluOp {
                func,
                a: 0x9E37_79B9,
                b: 0x7F4A_7C15,
            };
            assert_eq!(
                mounted.eval_alu(&op),
                Some(reference_alu(alu, fault, &op)),
                "{fault:?} {op:?}"
            );
        }
    }
    let shifter = shifter_fixture();
    for fault in &shifter.faults {
        let mut mounted = ArchFault::mount(Arc::clone(&shifter.target), *fault);
        for func in ShiftFunc::ALL {
            let op = ShiftOp {
                func,
                data: 0xC3A5_0F96,
                amount: 13,
            };
            assert_eq!(
                mounted.eval_shift(&op),
                Some(reference_shift(shifter, fault, &op)),
                "{fault:?} {op:?}"
            );
        }
    }
}

/// A fault site from another component's netlist — the fleet mounts a
/// node's planned fault on every component it tests — is a no-op: the
/// mount computes exactly the fault-free netlist, as the oracle does.
#[test]
fn foreign_fault_sites_are_no_ops() {
    let alu = alu_fixture();
    let mul = multiplier_fixture();
    // A multiplier product bit is far beyond the ALU's net count.
    let net = mul.component.ports.output("product").net(63);
    assert!(net.index() >= alu.component.netlist.net_count());
    for fault in [Fault::stem_sa0(net), Fault::stem_sa1(net)] {
        let mut mounted = ArchFault::mount(Arc::clone(&alu.target), fault);
        for func in AluFunc::ALL {
            let op = AluOp {
                func,
                a: 0xDEAD_BEEF,
                b: 0x0000_0005,
            };
            assert_eq!(mounted.eval_alu(&op), Some(ArchFault::good_alu(&op)));
            assert_eq!(mounted.eval_alu(&op), Some(reference_alu(alu, &fault, &op)));
        }
    }
}
