//! Runs the paper's Table I experiment and formats it in the paper's layout.

use sfq_circuits::Benchmark;
use sfq_core::{run_flow, FlowConfig, FlowError};
use sfq_netlist::CutConfig;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Benchmark instance size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full size, as evaluated in the paper (128-bit adder, 64×64
    /// multiplier, 1001-input voter, …). Minutes of runtime.
    Paper,
    /// Structurally identical scaled-down instances for smoke runs and CI.
    Small,
}

/// One measured row of Table I: the three flows on one benchmark.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name (the paper's row label).
    pub name: String,
    /// T1 candidates with positive gain ("found").
    pub t1_found: usize,
    /// T1 cells committed ("used").
    pub t1_used: usize,
    /// Path-balancing DFFs for 1φ / 4φ / T1.
    pub dff: [u64; 3],
    /// Area in JJs for 1φ / 4φ / T1.
    pub area: [u64; 3],
    /// Depth in cycles for 1φ / 4φ / T1.
    pub depth: [u64; 3],
    /// Wall-clock time of each flow.
    pub runtime: [Duration; 3],
}

impl TableRow {
    /// `T1/1φ` and `T1/4φ` ratios for one metric column.
    fn ratios(v: [u64; 3]) -> (f64, f64) {
        (v[2] as f64 / v[0] as f64, v[2] as f64 / v[1] as f64)
    }

    /// DFF-count ratios `T1/1φ`, `T1/4φ`.
    pub fn dff_ratios(&self) -> (f64, f64) {
        Self::ratios(self.dff)
    }

    /// Area ratios `T1/1φ`, `T1/4φ`.
    pub fn area_ratios(&self) -> (f64, f64) {
        Self::ratios(self.area)
    }

    /// Depth ratios `T1/1φ`, `T1/4φ`.
    pub fn depth_ratios(&self) -> (f64, f64) {
        Self::ratios(self.depth)
    }
}

/// Runs the 1φ, 4φ and T1 flows on one benchmark.
///
/// # Errors
/// Propagates the first [`FlowError`]; every flow self-verifies (timing
/// audit + functional equivalence), so an error means a real bug, not noise.
pub fn run_row(bench: Benchmark, scale: Scale) -> Result<TableRow, FlowError> {
    run_row_with(bench, scale, CutConfig::default())
}

/// [`run_row`] with an explicit cut-enumeration configuration — the hook the
/// cut-budget regression tests use to assert that tightening
/// [`CutConfig::max_cuts`] does not change any Table I number.
///
/// # Errors
/// Propagates the first [`FlowError`], like [`run_row`].
pub fn run_row_with(
    bench: Benchmark,
    scale: Scale,
    cut_config: CutConfig,
) -> Result<TableRow, FlowError> {
    let aig = match scale {
        Scale::Paper => bench.build(),
        Scale::Small => bench.build_small(),
    };
    let mut configs = [
        FlowConfig::single_phase(),
        FlowConfig::multiphase(4),
        FlowConfig::t1(4),
    ];
    for config in &mut configs {
        config.cut_config = cut_config;
    }
    let mut dff = [0u64; 3];
    let mut area = [0u64; 3];
    let mut depth = [0u64; 3];
    let mut runtime = [Duration::ZERO; 3];
    let mut found_used = (0usize, 0usize);
    for (i, config) in configs.iter().enumerate() {
        let start = Instant::now();
        let result = run_flow(&aig, config)?;
        runtime[i] = start.elapsed();
        dff[i] = result.report.num_dffs as u64;
        area[i] = result.report.area;
        depth[i] = u64::from(result.report.depth_cycles);
        if config.use_t1 {
            found_used = (result.report.t1_found, result.report.t1_used);
        }
    }
    Ok(TableRow {
        name: bench.name().to_string(),
        t1_found: found_used.0,
        t1_used: found_used.1,
        dff,
        area,
        depth,
        runtime,
    })
}

/// Runs the full Table I experiment (all eight benchmarks).
///
/// `progress` is invoked with each finished row (for incremental printing).
/// The rows fan out over [`sfq_netlist::par::map_ordered`], so
/// `SFQ_WORKERS` bounds them like every other fan-out; results and
/// `progress` calls still come in table order, so the printed output is
/// identical for every worker count — only the `runtime` fields get
/// noisier from core contention.
///
/// # Errors
/// Propagates the first [`FlowError`] in table order.
pub fn run_table(
    scale: Scale,
    mut progress: impl FnMut(&TableRow),
) -> Result<Vec<TableRow>, FlowError> {
    let results =
        sfq_netlist::par::map_ordered(Benchmark::ALL.to_vec(), |bench| run_row(bench, scale));
    let mut rows = Vec::with_capacity(results.len());
    for result in results {
        let row = result?;
        progress(&row);
        rows.push(row);
    }
    Ok(rows)
}

/// A DFF baseline below this count cannot support a meaningful savings
/// ratio (our depth-balanced voter generator leaves the 4φ baseline with
/// single-digit balancing DFFs; dividing by it says nothing about the
/// method). Such ratios are printed with a `*` and excluded from the
/// averages row.
const DEGENERATE_DFF_BASELINE: u64 = 20;

/// Formats measured rows in the layout of the paper's Table I, including
/// the trailing averages row.
///
/// DFF ratios over degenerate baselines (fewer than 20 DFFs — see
/// `DEGENERATE_DFF_BASELINE`) are marked `*` and excluded from the
/// averages; a footnote is appended when that happens.
pub fn format_table(rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>5} | {:>8} {:>8} {:>8} {:>6} {:>6} | {:>9} {:>9} {:>9} {:>5} {:>5} | {:>4} {:>4} {:>4} {:>5} {:>5}",
        "benchmark", "found", "used",
        "DFF 1φ", "DFF 4φ", "DFF T1", "r1φ", "r4φ",
        "Area 1φ", "Area 4φ", "Area T1", "r1φ", "r4φ",
        "D1φ", "D4φ", "DT1", "r1φ", "r4φ",
    );
    let mut sums = [0.0f64; 6];
    let mut counts = [0usize; 6];
    let add = |k: usize, v: f64, degenerate: bool, sums: &mut [f64; 6], counts: &mut [usize; 6]| {
        if !degenerate {
            sums[k] += v;
            counts[k] += 1;
        }
    };
    let mut any_degenerate = false;
    for row in rows {
        let (d1, d4) = row.dff_ratios();
        let (a1, a4) = row.area_ratios();
        let (p1, p4) = row.depth_ratios();
        let deg1 = row.dff[0] < DEGENERATE_DFF_BASELINE;
        let deg4 = row.dff[1] < DEGENERATE_DFF_BASELINE;
        any_degenerate |= deg1 || deg4;
        add(0, d1, deg1, &mut sums, &mut counts);
        add(1, d4, deg4, &mut sums, &mut counts);
        add(2, a1, false, &mut sums, &mut counts);
        add(3, a4, false, &mut sums, &mut counts);
        add(4, p1, false, &mut sums, &mut counts);
        add(5, p4, false, &mut sums, &mut counts);
        let fmt_ratio = |v: f64, deg: bool| {
            if deg {
                format!("{v:.2}*")
            } else {
                format!("{v:.2}")
            }
        };
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>5} | {:>8} {:>8} {:>8} {:>6} {:>6} | {:>9} {:>9} {:>9} {:>5.2} {:>5.2} | {:>4} {:>4} {:>4} {:>5.2} {:>5.2}",
            row.name, row.t1_found, row.t1_used,
            row.dff[0], row.dff[1], row.dff[2],
            fmt_ratio(d1, deg1), fmt_ratio(d4, deg4),
            row.area[0], row.area[1], row.area[2], a1, a4,
            row.depth[0], row.depth[1], row.depth[2], p1, p4,
        );
    }
    if !rows.is_empty() {
        let avg = |k: usize| sums[k] / counts[k].max(1) as f64;
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>5} | {:>8} {:>8} {:>8} {:>6.2} {:>6.2} | {:>9} {:>9} {:>9} {:>5.2} {:>5.2} | {:>4} {:>4} {:>4} {:>5.2} {:>5.2}",
            "Average", "", "",
            "", "", "", avg(0), avg(1),
            "", "", "", avg(2), avg(3),
            "", "", "", avg(4), avg(5),
        );
    }
    if any_degenerate {
        let _ = writeln!(
            out,
            "* baseline has < {DEGENERATE_DFF_BASELINE} balancing DFFs — ratio \
             excluded from the average (no savings to measure against)",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_dff_baselines_are_marked_and_excluded() {
        let mk = |name: &str, dff: [u64; 3]| TableRow {
            name: name.into(),
            t1_found: 1,
            t1_used: 1,
            dff,
            area: [100, 50, 40],
            depth: [10, 4, 5],
            runtime: [Duration::ZERO; 3],
        };
        // One healthy row (ratio 0.5) and one with a 2-DFF baseline.
        let rows = vec![mk("healthy", [1000, 100, 50]), mk("degen", [1000, 2, 500])];
        let text = format_table(&rows);
        assert!(
            text.contains("250.00*"),
            "degenerate ratio is marked:\n{text}"
        );
        assert!(
            text.contains("excluded from the average"),
            "footnote present"
        );
        // The r4φ average is the healthy row's 0.50 alone, not (0.5+250)/2.
        let avg_line = text
            .lines()
            .find(|l| l.starts_with("Average"))
            .expect("avg row");
        assert!(
            avg_line.contains("0.50"),
            "average excludes the outlier: {avg_line}"
        );
        assert!(
            !avg_line.contains("125"),
            "naive average leaked in: {avg_line}"
        );

        // Without degenerate rows there is no footnote.
        let clean = format_table(&[mk("healthy", [1000, 100, 50])]);
        assert!(
            !clean.contains('*'),
            "no footnote on clean tables:\n{clean}"
        );
    }

    #[test]
    fn small_adder_row_has_t1_wins() {
        let row = run_row(Benchmark::Adder, Scale::Small).expect("flows succeed");
        assert!(row.t1_used > 0, "the adder is the T1 showcase");
        assert!(row.dff[2] < row.dff[0], "T1 beats 1φ on DFFs");
        assert!(row.area[2] < row.area[0], "T1 beats 1φ on area");
        assert!(
            row.area[2] < row.area[1],
            "T1 beats 4φ on area for the adder"
        );
        let text = format_table(std::slice::from_ref(&row));
        assert!(text.contains("adder"));
        assert!(text.contains("Average"));
    }
}
