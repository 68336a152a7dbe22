//! Property tests for the compiled engine's park-and-repack schedule: on
//! random *sequential* netlists large enough to need several 255-fault
//! passes, with stimuli long enough to cross many checkpoints, grading
//! with repacking must be bit-identical to both narrow engines — for
//! stuck-at and transition faults, at 1, 2 and 7 threads — and the
//! schedule itself (cycles, events, repacked passes) must not depend on
//! the thread count.

use proptest::prelude::*;
use sbst_gates::{
    enumerate_transition_faults, FaultSimConfig, FaultSimResult, FaultSimulator, GateKind, NetId,
    Netlist, NetlistBuilder, SimEngine, Stimulus,
};

/// SplitMix64: the netlist and stimulus generators' bit source.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random levelized netlist of `gates` cells over six inputs, about one
/// in eight a flip-flop, observed on its last four nets and on every
/// tenth net, so faults are detected at scattered cycles and some never.
fn random_sequential(seed: u64, gates: usize) -> Netlist {
    let mut s = seed;
    let mut b = NetlistBuilder::new("random_seq");
    let mut nets: Vec<NetId> = (0..6).map(|i| b.input(&format!("i{i}"))).collect();
    for _ in 0..gates {
        let r = next(&mut s);
        // Prefer recent nets so logic gets deep, not just wide.
        let pick = |k: u32| {
            let span = nets.len().min(24);
            nets[nets.len() - 1 - (r >> (8 * k + 8)) as usize % span]
        };
        let out = match r % 8 {
            0 => b.gate(GateKind::And, &[pick(0), pick(1)]),
            1 => b.gate(GateKind::Or, &[pick(0), pick(1)]),
            2 => b.gate(GateKind::Nand, &[pick(0), pick(1)]),
            3 => b.gate(GateKind::Xor, &[pick(0), pick(1)]),
            4 => b.gate(GateKind::Mux2, &[pick(0), pick(1), pick(2)]),
            5 => b.gate(GateKind::Not, &[pick(0)]),
            6 => b.gate(GateKind::Nor, &[pick(0), pick(1), pick(2)]),
            _ => b.dff(pick(0)),
        };
        nets.push(out);
    }
    let n = nets.len();
    for (k, &net) in nets.iter().enumerate() {
        if k + 4 >= n || (k > 6 && k % 10 == 0) {
            b.mark_output(net, &format!("o{k}"));
        }
    }
    b.finish().expect("random levelized netlists are valid")
}

/// `cycles` random patterns, two of every three observed.
fn random_stimulus(seed: u64, inputs: usize, cycles: usize) -> Stimulus {
    let mut s = seed ^ 0x5EED;
    let mut stim = Stimulus::new();
    for cycle in 0..cycles {
        let word = next(&mut s);
        let bits: Vec<bool> = (0..inputs).map(|i| word >> i & 1 == 1).collect();
        stim.push_cycle(&bits, cycle % 3 != 2);
    }
    stim
}

/// Grades both fault models under `engine` at `threads`.
fn grade(
    netlist: &Netlist,
    stim: &Stimulus,
    engine: SimEngine,
    threads: usize,
) -> [FaultSimResult; 2] {
    let sim = FaultSimulator::with_config(
        netlist,
        FaultSimConfig {
            engine,
            threads: Some(threads),
            ..FaultSimConfig::default()
        },
    );
    [
        sim.simulate(&netlist.collapsed_faults(), stim),
        sim.simulate_transition(&enumerate_transition_faults(netlist), stim),
    ]
}

/// Compiled grading at 1, 2 and 7 threads against the full-eval and
/// event-driven oracles; returns the compiled stats' repacked passes.
fn check_repack_is_exact(seed: u64, gates: usize, cycles: usize) -> Result<u64, TestCaseError> {
    let netlist = random_sequential(seed, gates);
    let stim = random_stimulus(seed, netlist.inputs().len(), cycles);
    let full = grade(&netlist, &stim, SimEngine::FullEval, 1);
    let event = grade(&netlist, &stim, SimEngine::EventDriven, 1);
    let serial = grade(&netlist, &stim, SimEngine::Compiled, 1);
    let mut repacked = 0;
    for threads in [1usize, 2, 7] {
        let compiled = grade(&netlist, &stim, SimEngine::Compiled, threads);
        for (model, res) in ["stuck-at", "transition"].iter().zip(&compiled) {
            let m = if *model == "stuck-at" { 0 } else { 1 };
            for (oracle, name) in [(&full[m], "full-eval"), (&event[m], "event-driven")] {
                let tag = format!("{model} vs {name}, {threads} threads");
                prop_assert_eq!(&res.detected, &oracle.detected, "{}", tag);
                prop_assert_eq!(&res.detecting_cycle, &oracle.detecting_cycle, "{}", tag);
                prop_assert_eq!(
                    &res.fault_free_responses,
                    &oracle.fault_free_responses,
                    "{}",
                    tag
                );
            }
            // The schedule is a function of the inputs alone.
            let one = &serial[m].stats;
            let tag = format!("{model} schedule, {threads} threads");
            prop_assert_eq!(res.stats.cycles_simulated, one.cycles_simulated, "{}", tag);
            prop_assert_eq!(res.stats.events_simulated, one.events_simulated, "{}", tag);
            prop_assert_eq!(res.stats.repacked_passes, one.repacked_passes, "{}", tag);
            let passes: u64 = res.stats.per_thread.iter().map(|t| t.batches).sum();
            prop_assert_eq!(
                passes,
                res.stats.batches + res.stats.repacked_passes,
                "{}",
                tag
            );
            repacked += res.stats.repacked_passes;
        }
    }
    Ok(repacked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn repacked_grading_is_bit_identical_on_random_sequential_netlists(
        seed: u64,
        gates in 160usize..320,
        cycles in 40usize..120,
    ) {
        check_repack_is_exact(seed, gates, cycles)?;
    }
}

/// The generator does reach the repacking path: a fixed handful of cases
/// repack, so the property above is not met vacuously.
#[test]
fn random_sequential_cases_do_repack() {
    let mut repacked = 0;
    for seed in 1..=4u64 {
        repacked += check_repack_is_exact(seed, 300, 96).expect("bit-identical");
    }
    assert!(repacked > 0, "no case parked and repacked a fault");
}
