//! The published Table I of the paper, transcribed verbatim.
//!
//! Used by the `table1` binary and the integration tests to report
//! measured-vs-paper ratios. Absolute values are **not** expected to match
//! (our benchmark generators and JJ library are documented substitutes —
//! see the `sfq-circuits` crate docs and `sfq_netlist::Library`); the
//! reproduction target is the *shape*: which flow wins
//! per metric, and roughly by how much.

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// "T1 cells found".
    pub t1_found: usize,
    /// "T1 cells used".
    pub t1_used: usize,
    /// Path-balancing DFFs for the 1φ / 4φ / T1 flows.
    pub dff: [u64; 3],
    /// Area in JJs for the 1φ / 4φ / T1 flows.
    pub area: [u64; 3],
    /// Depth in cycles for the 1φ / 4φ / T1 flows.
    pub depth: [u64; 3],
}

impl PaperRow {
    /// `T1 / 1φ` and `T1 / 4φ` DFF ratios (the paper's "Ratio vs." columns).
    pub fn dff_ratios(&self) -> (f64, f64) {
        ratios(self.dff)
    }

    /// `T1 / 1φ` and `T1 / 4φ` area ratios.
    pub fn area_ratios(&self) -> (f64, f64) {
        ratios(self.area)
    }

    /// `T1 / 1φ` and `T1 / 4φ` depth ratios.
    pub fn depth_ratios(&self) -> (f64, f64) {
        ratios(self.depth)
    }
}

fn ratios(v: [u64; 3]) -> (f64, f64) {
    (v[2] as f64 / v[0] as f64, v[2] as f64 / v[1] as f64)
}

/// The paper's Table I, row for row.
pub const PAPER_TABLE1: [PaperRow; 8] = [
    PaperRow {
        name: "adder",
        t1_found: 127,
        t1_used: 127,
        dff: [32_768, 7_963, 5_958],
        area: [238_419, 64_784, 48_844],
        depth: [128, 32, 33],
    },
    PaperRow {
        name: "c7552",
        t1_found: 17,
        t1_used: 9,
        dff: [2_489, 713, 765],
        area: [32_038, 19_606, 19_907],
        depth: [16, 4, 5],
    },
    PaperRow {
        name: "c6288",
        t1_found: 142,
        t1_used: 142,
        dff: [2_625, 1_431, 1_349],
        area: [47_198, 38_840, 35_386],
        depth: [29, 8, 10],
    },
    PaperRow {
        name: "sin",
        t1_found: 81,
        t1_used: 77,
        dff: [13_416, 4_631, 4_714],
        area: [164_938, 103_443, 102_806],
        depth: [88, 22, 25],
    },
    PaperRow {
        name: "voter",
        t1_found: 252,
        t1_used: 252,
        dff: [10_651, 5_779, 5_584],
        area: [222_101, 187_997, 182_972],
        depth: [38, 10, 11],
    },
    PaperRow {
        name: "square",
        t1_found: 861,
        t1_used: 806,
        dff: [44_675, 16_645, 14_304],
        area: [525_311, 329_101, 301_287],
        depth: [126, 32, 32],
    },
    PaperRow {
        name: "multiplier",
        t1_found: 824,
        t1_used: 769,
        dff: [58_717, 14_641, 13_745],
        area: [682_792, 374_260, 356_984],
        depth: [136, 33, 36],
    },
    PaperRow {
        name: "log2",
        t1_found: 644,
        t1_used: 593,
        dff: [86_985, 33_790, 33_946],
        area: [978_178, 605_813, 598_292],
        depth: [160, 40, 47],
    },
];

/// The averages row printed at the bottom of the paper's Table I:
/// `(dff_vs_1φ, dff_vs_4φ, area_vs_1φ, area_vs_4φ, depth_vs_1φ, depth_vs_4φ)`.
pub const PAPER_AVERAGES: (f64, f64, f64, f64, f64, f64) = (0.35, 0.94, 0.59, 0.94, 0.29, 1.13);

/// Looks up a paper row by benchmark name.
pub fn paper_row(name: &str) -> Option<&'static PaperRow> {
    PAPER_TABLE1.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcription_matches_printed_ratios() {
        // The paper prints the per-row ratios; re-deriving them from the
        // absolute columns guards the transcription.
        let printed_dff: [(f64, f64); 8] = [
            (0.18, 0.75),
            (0.31, 1.07),
            (0.51, 0.94),
            (0.35, 1.02),
            (0.52, 0.97),
            (0.32, 0.86),
            (0.23, 0.94),
            (0.39, 1.00),
        ];
        let printed_area: [(f64, f64); 8] = [
            (0.20, 0.75),
            (0.62, 1.02),
            (0.75, 0.91),
            (0.62, 0.99),
            (0.82, 0.97),
            (0.57, 0.92),
            (0.52, 0.95),
            (0.61, 0.99),
        ];
        for (i, row) in PAPER_TABLE1.iter().enumerate() {
            let (d1, d4) = row.dff_ratios();
            assert!(
                (d1 - printed_dff[i].0).abs() < 0.011,
                "{}: dff vs 1φ",
                row.name
            );
            assert!(
                (d4 - printed_dff[i].1).abs() < 0.011,
                "{}: dff vs 4φ",
                row.name
            );
            let (a1, a4) = row.area_ratios();
            assert!(
                (a1 - printed_area[i].0).abs() < 0.011,
                "{}: area vs 1φ",
                row.name
            );
            assert!(
                (a4 - printed_area[i].1).abs() < 0.011,
                "{}: area vs 4φ",
                row.name
            );
        }
    }

    #[test]
    fn averages_match_printed_row() {
        let n = PAPER_TABLE1.len() as f64;
        let avg = |f: fn(&PaperRow) -> (f64, f64)| {
            let (s1, s4) = PAPER_TABLE1
                .iter()
                .fold((0.0, 0.0), |(s1, s4), r| (s1 + f(r).0, s4 + f(r).1));
            (s1 / n, s4 / n)
        };
        let (d1, d4) = avg(PaperRow::dff_ratios);
        let (a1, a4) = avg(PaperRow::area_ratios);
        let (p1, p4) = avg(PaperRow::depth_ratios);
        assert!((d1 - PAPER_AVERAGES.0).abs() < 0.011);
        assert!((d4 - PAPER_AVERAGES.1).abs() < 0.011);
        assert!((a1 - PAPER_AVERAGES.2).abs() < 0.011);
        assert!((a4 - PAPER_AVERAGES.3).abs() < 0.011);
        assert!((p1 - PAPER_AVERAGES.4).abs() < 0.011);
        assert!((p4 - PAPER_AVERAGES.5).abs() < 0.011);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(paper_row("adder").unwrap().t1_used, 127);
        assert!(paper_row("nonesuch").is_none());
    }
}
