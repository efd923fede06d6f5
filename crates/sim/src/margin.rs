//! Monte-Carlo timing-margin analysis of T1 input separation.
//!
//! The discrete multiphase model guarantees that the three fanins of every
//! T1 cell *release* at pairwise-distinct stages (paper eq. 5). On silicon,
//! stages are instants `σ · T/n` on a clock of period `T`, and every pulse
//! accumulates Gaussian timing jitter through its JTL/gate chain. Two pulses
//! nominally one stage apart can therefore still collide if the jitter is
//! comparable to the stage spacing `T/n` — and the spacing *shrinks* as the
//! phase count grows, so "more phases" trades DFFs for analog margin. This
//! module quantifies that trade, which the paper's discrete model cannot
//! express: it samples jittered arrival instants for every T1 cell and
//! reports the worst pairwise separation and the fraction of trials in which
//! some T1 cell would mis-count pulses.
//!
//! Checks per T1 cell and trial:
//!
//! * every pair of `T`-input arrivals is at least `resolution_ps` apart
//!   (closer pulses merge into one, the paper's data hazard);
//! * every arrival falls inside the accumulation window
//!   `(clock − period, clock)`, with `resolution_ps` of guard band on both
//!   ends (outside, the pulse is counted in the wrong period).
//!
//! The sampler is a deterministic xorshift* + Box–Muller transform, so every
//! report is reproducible from its seed without external dependencies.
//! Every trial draws from its **own** stream, derived from
//! `(config seed, trial index)` by a splitmix64 step — so the report is
//! identical however the trial range is partitioned, and the trials can
//! fan out over [`sfq_netlist::par::map_ordered`] without changing a single
//! sampled value. Per-trial minima are written into a preallocated slice
//! and reduced in trial order, keeping even the floating-point accumulation
//! order fixed.
//!
//! # Example
//!
//! ```
//! use sfq_core::{run_flow, FlowConfig};
//! use sfq_netlist::Aig;
//! use sfq_sim::margin::{analyze_margins, MarginConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut aig = Aig::new("fa");
//! let a = aig.input("a");
//! let b = aig.input("b");
//! let c = aig.input("c");
//! let (s, co) = aig.full_adder(a, b, c);
//! aig.output("s", s);
//! aig.output("co", co);
//! let res = run_flow(&aig, &FlowConfig::t1(4))?;
//!
//! // 0.3 ps jitter against a 6.25 ps stage spacing: ~10σ of margin.
//! let cfg = MarginConfig { jitter_ps: 0.3, ..MarginConfig::default() };
//! let report = analyze_margins(&res.timed, &cfg);
//! assert_eq!(report.hazardous_trials, 0);
//! // At the default 1 ps the same netlist already shows a nonzero hazard
//! // tail (the separation sits ≈3σ out) — the insight this module adds.
//! # Ok(())
//! # }
//! ```

use sfq_core::TimedNetwork;
use sfq_netlist::CellKind;

/// Parameters of one Monte-Carlo margin run.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginConfig {
    /// Full clock period in picoseconds (all `n` phases fit in one period).
    pub period_ps: f64,
    /// 1-σ Gaussian jitter per pulse arrival, in picoseconds.
    pub jitter_ps: f64,
    /// Minimum separation two pulses need to be resolved as two, in
    /// picoseconds.
    pub resolution_ps: f64,
    /// Number of Monte-Carlo trials.
    pub trials: u32,
    /// RNG seed (the analysis is deterministic per seed).
    pub seed: u64,
}

impl Default for MarginConfig {
    fn default() -> Self {
        MarginConfig {
            period_ps: 25.0, // 40 GHz — mid-range RSFQ
            jitter_ps: 1.0,
            resolution_ps: 2.0,
            trials: 1000,
            seed: 0xD1CE_5EED_0BAD_F00D,
        }
    }
}

/// Outcome of a Monte-Carlo margin run.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginReport {
    /// Number of T1 cells analyzed (0 makes the run trivially clean).
    pub t1_cells: usize,
    /// Trials executed.
    pub trials: u32,
    /// Trials in which at least one T1 cell violated separation or its
    /// accumulation window.
    pub hazardous_trials: u32,
    /// The smallest pairwise `T`-input separation observed anywhere, in
    /// picoseconds (`f64::INFINITY` when no T1 cell exists).
    pub worst_separation_ps: f64,
    /// Mean over trials of each trial's minimum separation, in picoseconds.
    pub mean_min_separation_ps: f64,
    /// Nominal stage spacing `period / n`, in picoseconds.
    pub stage_spacing_ps: f64,
}

impl MarginReport {
    /// Fraction of trials that violated the pulse-counting discipline.
    pub fn hazard_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            f64::from(self.hazardous_trials) / f64::from(self.trials)
        }
    }
}

/// Deterministic xorshift* generator feeding a Box–Muller transform.
#[derive(Debug, Clone)]
struct Gauss {
    state: u64,
    spare: Option<f64>,
}

impl Gauss {
    fn new(seed: u64) -> Self {
        Gauss {
            state: seed | 1,
            spare: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in (0, 1].
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Standard normal sample.
    fn next_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1 = self.next_unit();
        let u2 = self.next_unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (std::f64::consts::TAU * u2).sin_cos();
        self.spare = Some(r * s);
        r * c
    }
}

/// Derives the independent RNG stream of one trial (splitmix64 step over
/// the config seed and the trial index).
fn trial_seed(seed: u64, trial: u32) -> u64 {
    let mut x = seed ^ (u64::from(trial).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One Monte-Carlo trial: samples every T1 site once and returns
/// `(minimum pairwise separation, hazard seen)`.
fn run_trial(
    t1_sites: &[(u32, Vec<u32>)],
    spacing: f64,
    cfg: &MarginConfig,
    trial: u32,
) -> (f64, bool) {
    let mut rng = Gauss::new(trial_seed(cfg.seed, trial));
    let mut trial_min = f64::INFINITY;
    let mut trial_hazard = false;
    let mut arrivals: Vec<f64> = Vec::new();
    for (t1_stage, fanin_stages) in t1_sites {
        let clock_t = f64::from(*t1_stage) * spacing + cfg.jitter_ps * rng.next_normal();
        let window_start = clock_t - cfg.period_ps;
        arrivals.clear();
        arrivals.extend(
            fanin_stages
                .iter()
                .map(|&s| f64::from(s) * spacing + cfg.jitter_ps * rng.next_normal()),
        );
        for (k, &a) in arrivals.iter().enumerate() {
            if a <= window_start + cfg.resolution_ps || a >= clock_t - cfg.resolution_ps {
                trial_hazard = true;
            }
            for &b in &arrivals[k + 1..] {
                let sep = (a - b).abs();
                trial_min = trial_min.min(sep);
                if sep < cfg.resolution_ps {
                    trial_hazard = true;
                }
            }
        }
    }
    (trial_min, trial_hazard)
}

/// Fills `out[t]` with trial `t`'s `(min separation, hazard)` result,
/// fanning contiguous chunks out through [`sfq_netlist::par::map_ordered`]
/// at the width [`sfq_netlist::par::width`] grants (so `SFQ_WORKERS` and
/// `--workers` bound it like every other fan-out). Every trial owns its RNG
/// stream, so the results are identical to the sequential path bit for bit.
fn run_trials(
    t1_sites: &[(u32, Vec<u32>)],
    spacing: f64,
    cfg: &MarginConfig,
    out: &mut [(f64, bool)],
) {
    // Trials are independent and write disjoint slots: 1000 trials at 2
    // workers take 0.54–1.24× the CPU time and 0.40–0.63× the wall time of
    // one worker on the paper-scale Table I designs (best of 5, 2-vCPU x86
    // host), so the break-even width is 2. No grain: every trial count
    // above one may split.
    let workers = sfq_netlist::par::width(out.len(), 1, 2);
    if workers <= 1 {
        for (t, slot) in out.iter_mut().enumerate() {
            *slot = run_trial(t1_sites, spacing, cfg, t as u32);
        }
        return;
    }
    let chunk = out.len().div_ceil(workers);
    let parts: Vec<(u32, &mut [(f64, bool)])> = out
        .chunks_mut(chunk)
        .enumerate()
        .map(|(w, slots)| ((w * chunk) as u32, slots))
        .collect();
    sfq_netlist::par::map_ordered(parts, |(base, slots)| {
        for (t, slot) in slots.iter_mut().enumerate() {
            *slot = run_trial(t1_sites, spacing, cfg, base + t as u32);
        }
    });
}

/// Runs the Monte-Carlo margin analysis over every T1 cell of `timed`.
///
/// # Panics
/// Panics if `cfg.period_ps` is not strictly positive.
pub fn analyze_margins(timed: &TimedNetwork, cfg: &MarginConfig) -> MarginReport {
    assert!(cfg.period_ps > 0.0, "clock period must be positive");
    let n = timed.num_phases as f64;
    let spacing = cfg.period_ps / n;
    let net = &timed.network;

    // (T1 stage, [fanin release stages]) per T1 cell.
    let t1_sites: Vec<(u32, Vec<u32>)> = net
        .cell_ids()
        .filter(|&id| matches!(net.kind(id), CellKind::T1 { .. }))
        .map(|id| {
            let fanin_stages = net
                .fanins(id)
                .iter()
                .map(|f| timed.stages[f.cell.0 as usize])
                .collect();
            (timed.stages[id.0 as usize], fanin_stages)
        })
        .collect();

    let mut results = vec![(f64::INFINITY, false); cfg.trials as usize];
    run_trials(&t1_sites, spacing, cfg, &mut results);

    // Reduce in trial order: the report (including the floating-point sum)
    // is independent of how run_trials partitioned the work.
    let mut hazardous_trials = 0u32;
    let mut worst = f64::INFINITY;
    let mut sum_min = 0.0f64;
    for &(trial_min, trial_hazard) in &results {
        if trial_hazard {
            hazardous_trials += 1;
        }
        if trial_min.is_finite() {
            sum_min += trial_min;
            worst = worst.min(trial_min);
        }
    }

    let mean = if t1_sites.is_empty() || cfg.trials == 0 {
        f64::INFINITY
    } else {
        sum_min / f64::from(cfg.trials)
    };
    MarginReport {
        t1_cells: t1_sites.len(),
        trials: cfg.trials,
        hazardous_trials,
        worst_separation_ps: worst,
        mean_min_separation_ps: mean,
        stage_spacing_ps: spacing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::{run_flow, FlowConfig};
    use sfq_netlist::Aig;

    fn t1_adder(bits: usize, phases: u8) -> TimedNetwork {
        let aig = sfq_circuits_adder(bits);
        run_flow(&aig, &FlowConfig::t1(phases))
            .expect("t1 flow")
            .timed
    }

    /// Local ripple adder builder (sim must not depend on sfq-circuits).
    fn sfq_circuits_adder(bits: usize) -> Aig {
        let mut aig = Aig::new("adder");
        let a = aig.input_word("a", bits);
        let b = aig.input_word("b", bits);
        let mut carry = aig.const_false();
        let mut sums = Vec::new();
        for k in 0..bits {
            let (s, c) = aig.full_adder(a[k], b[k], carry);
            sums.push(s);
            carry = c;
        }
        sums.push(carry);
        aig.output_word("s", &sums);
        aig
    }

    #[test]
    fn zero_jitter_reports_the_nominal_spacing() {
        let timed = t1_adder(8, 4);
        let cfg = MarginConfig {
            jitter_ps: 0.0,
            trials: 10,
            ..MarginConfig::default()
        };
        let r = analyze_margins(&timed, &cfg);
        assert!(r.t1_cells > 0, "the adder commits T1 cells");
        assert_eq!(r.hazardous_trials, 0, "no jitter, no hazards");
        // Adjacent distinct stages are exactly one spacing apart.
        assert!(
            (r.worst_separation_ps - r.stage_spacing_ps).abs() < 1e-9,
            "worst separation {} vs spacing {}",
            r.worst_separation_ps,
            r.stage_spacing_ps
        );
    }

    #[test]
    fn extreme_jitter_always_hazards() {
        let timed = t1_adder(8, 4);
        let cfg = MarginConfig {
            jitter_ps: 50.0, // 2× the whole period
            trials: 50,
            ..MarginConfig::default()
        };
        let r = analyze_margins(&timed, &cfg);
        assert!(
            r.hazardous_trials > 40,
            "jitter ≫ period must break the discipline ({}/50)",
            r.hazardous_trials
        );
    }

    #[test]
    fn hazard_rate_grows_with_jitter() {
        let timed = t1_adder(8, 4);
        let rate = |j: f64| {
            let cfg = MarginConfig {
                jitter_ps: j,
                trials: 400,
                ..MarginConfig::default()
            };
            analyze_margins(&timed, &cfg).hazard_rate()
        };
        let low = rate(0.1);
        let high = rate(4.0);
        assert!(
            low < high,
            "hazard rate must grow with jitter ({low} vs {high})"
        );
        assert_eq!(rate(0.0), 0.0);
    }

    #[test]
    fn more_phases_shrink_the_analog_margin() {
        // Same period, more phases ⇒ tighter stage spacing ⇒ worse margins.
        // This is the design-space insight the discrete model cannot see.
        let r4 = analyze_margins(
            &t1_adder(8, 4),
            &MarginConfig {
                jitter_ps: 0.0,
                trials: 1,
                ..MarginConfig::default()
            },
        );
        let r8 = analyze_margins(
            &t1_adder(8, 8),
            &MarginConfig {
                jitter_ps: 0.0,
                trials: 1,
                ..MarginConfig::default()
            },
        );
        assert!(r8.stage_spacing_ps < r4.stage_spacing_ps);
        assert!(r8.worst_separation_ps <= r4.worst_separation_ps);
    }

    #[test]
    fn deterministic_per_seed() {
        let timed = t1_adder(4, 4);
        let cfg = MarginConfig {
            jitter_ps: 2.0,
            trials: 200,
            ..MarginConfig::default()
        };
        let a = analyze_margins(&timed, &cfg);
        let b = analyze_margins(&timed, &cfg);
        assert_eq!(a, b, "same seed, same report");
        let c = analyze_margins(&timed, &MarginConfig { seed: 42, ..cfg });
        assert_ne!(
            a.worst_separation_ps, c.worst_separation_ps,
            "different seed explores different samples"
        );
    }

    #[test]
    fn networks_without_t1_cells_are_trivially_clean() {
        let aig = sfq_circuits_adder(4);
        let timed = run_flow(&aig, &FlowConfig::multiphase(4))
            .expect("4φ")
            .timed;
        let r = analyze_margins(&timed, &MarginConfig::default());
        assert_eq!(r.t1_cells, 0);
        assert_eq!(r.hazardous_trials, 0);
        assert_eq!(r.worst_separation_ps, f64::INFINITY);
    }

    #[test]
    fn gaussian_sampler_is_roughly_standard_normal() {
        let mut g = Gauss::new(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
