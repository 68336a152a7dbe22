//! Reference outputs the benchmark checks every op against, and the
//! paper's Table 1 figures printed beside ours.

use sbst_gates::FaultCoverage;

/// Faults (detected, total).
pub type Tally = (usize, usize);

/// One Table 1 row's coverage per fault model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRef {
    /// CUT name as Table 1 prints it.
    pub name: String,
    /// Stuck-at (detected, total).
    pub stuck_at: Tally,
    /// Transition-delay (detected, total).
    pub transition: Tally,
}

/// Per-row coverage of the full 32-bit inventory, both fault models.
const TABLE1_ROWS: [(&str, Tally, Tally); 9] = [
    ("Parallel Mul.", (25_481, 25_664), (11_194, 11_904)),
    ("Serial Div.", (1_586, 1_700), (918, 962)),
    ("Register File", (21_846, 22_634), (7_142, 8_234)),
    ("Memory controller", (1_362, 1_491), (803, 930)),
    ("Shifter", (1_811, 1_811), (525, 528)),
    ("ALU", (2_281, 2_311), (1_059, 1_174)),
    ("Control Logic", (574, 707), (226, 260)),
    ("Pipeline", (998, 1_226), (753, 778)),
    ("PC / branch unit", (757, 1_036), (312, 508)),
];

/// The recorded rows.
pub fn table1_rows() -> Vec<RowRef> {
    TABLE1_ROWS
        .iter()
        .map(|&(name, stuck_at, transition)| RowRef {
            name: name.to_owned(),
            stuck_at,
            transition,
        })
        .collect()
}

/// Combined self-test program size in words.
pub const TABLE1_WORDS: usize = 2_092;
/// Combined program length in simulated cycles.
pub const TABLE1_CYCLES: u64 = 11_540;
/// Combined program data references (loads + stores).
pub const TABLE1_DATA_REFS: u64 = 79;
/// Gate equivalents of the inventory.
pub const TABLE1_GATES: u32 = 30_511;

/// The paper's Table 1 totals: FC %, words, cycles, data refs, gates.
const PAPER: (f64, usize, u64, u64, u32) = (95.6, 808, 9_905, 87, 26_080);

/// Rows whose coverage still trails the paper noticeably.
const OPEN_GAPS: [&str; 3] = ["Control Logic", "Pipeline", "PC / branch unit"];

/// Prints ours against the paper's Table 1 on stderr (informational, not
/// gated), with the open per-CUT gaps.
pub fn print_table1_comparison(
    stuck_at: FaultCoverage,
    transition: FaultCoverage,
    words: usize,
    cycles: u64,
    data_refs: u64,
    gates: u32,
) {
    let (fc, p_words, p_cycles, p_refs, p_gates) = PAPER;
    let rel = |ours: f64, paper: f64| (ours - paper) / paper * 100.0;
    eprintln!("perfbench: Table 1, ours vs the paper (informational)");
    eprintln!(
        "  FC            {:>9.2} % vs {fc:>7.1} %  ({:+.2} points)",
        stuck_at.percent(),
        stuck_at.percent() - fc
    );
    eprintln!(
        "  transition FC {:>9.2} %  (the paper grades stuck-at only)",
        transition.percent()
    );
    for (what, ours, paper) in [
        ("words", words as f64, p_words as f64),
        ("cycles", cycles as f64, p_cycles as f64),
        ("data refs", data_refs as f64, p_refs as f64),
        ("gates", f64::from(gates), f64::from(p_gates)),
    ] {
        eprintln!(
            "  {what:<13} {ours:>9} vs {paper:>7}  ({:+.1} %)",
            rel(ours, paper)
        );
    }
    for row in table1_rows()
        .iter()
        .filter(|r| OPEN_GAPS.contains(&r.name.as_str()))
    {
        let (detected, total) = row.stuck_at;
        eprintln!(
            "  open gap: {:<17} {:.2} % stuck-at",
            row.name,
            FaultCoverage::new(detected, total).percent()
        );
    }
}

/// ATPG campaign reference: (patterns, detected, total) per component.
pub const ATPG_SHIFTER: (usize, usize, usize) = (65, 1_811, 1_811);
/// See [`ATPG_SHIFTER`].
pub const ATPG_ALU: (usize, usize, usize) = (108, 2_309, 2_311);

/// The `fleet` bench's default seed, which `fleet-mixed` always runs.
pub const REFERENCE_FLEET_SEED: u64 = 0x5B57_F1EE;

/// Fleet seeds with the recorded aggregate digest of each for
/// (`fleet-mixed`, `fleet-healthy`). The first is the reference seed; the
/// second is held out — no timed run uses it unless `--fleet-seed` asks —
/// so a later performance claim can be checked on inputs it was not tuned
/// on.
pub const FLEET_SEEDS: [(u64, u64, u64); 2] = [
    (0x5B57_F1EE, 0xf3ff_a2f7_a89b_801a, 0xbf7c_0247_93e7_37a6),
    (0x5B57_F1EF, 0x5de3_400b_aee5_1c7d, 0x8c7b_df3d_6162_3f87),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_rows_total_the_recorded_coverage() {
        let rows = table1_rows();
        let sa: FaultCoverage = rows
            .iter()
            .map(|r| FaultCoverage::new(r.stuck_at.0, r.stuck_at.1))
            .sum();
        let tr: FaultCoverage = rows
            .iter()
            .map(|r| FaultCoverage::new(r.transition.0, r.transition.1))
            .sum();
        assert_eq!(format!("{:.2}", sa.percent()), "96.78");
        assert_eq!(format!("{:.2}", tr.percent()), "90.72");
    }
}
