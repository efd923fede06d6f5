//! What one run reports: named metrics with units and sample counts, and
//! the checks made on the program's outputs.

use crate::json::Json;
use crate::stats::{at_design, median, min, percentile_or_max};

/// What one closed-loop measurement saw. Each request and each pass over
/// the design list is timed twice: wall time, and the CPU time the whole
/// process spent meanwhile.
#[derive(Default, Debug, PartialEq)]
pub struct Timings {
    /// Design names, indexed by the requests' design index.
    pub names: Vec<String>,
    /// Set-up wall time in seconds, one per measuring process.
    pub setup_s: Vec<f64>,
    /// `(design index, wall ms, cpu ms)` per request.
    pub requests: Vec<(usize, f64, f64)>,
    /// `(wall ms, cpu ms)` per completed pass.
    pub passes: Vec<(f64, f64)>,
    /// Length of the measurement.
    pub wall_s: f64,
    /// Process CPU time over the measurement.
    pub cpu_s: f64,
}

impl Timings {
    /// Appends another process's measurement of the same workload.
    pub fn extend(&mut self, other: Timings) {
        if self.names.is_empty() {
            self.names = other.names;
        }
        self.setup_s.extend(other.setup_s);
        self.requests.extend(other.requests);
        self.passes.extend(other.passes);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }

    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::obj([
            (
                "names",
                Json::Arr(self.names.iter().map(|n| Json::str(n.as_str())).collect()),
            ),
            ("setup_s", nums(&self.setup_s)),
            (
                "requests",
                Json::Arr(
                    self.requests
                        .iter()
                        .map(|&(d, w, c)| nums(&[d as f64, w, c]))
                        .collect(),
                ),
            ),
            (
                "passes",
                Json::Arr(self.passes.iter().map(|&(w, c)| nums(&[w, c])).collect()),
            ),
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_s", Json::Num(self.cpu_s)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Timings> {
        let tuple =
            |x: &Json| -> Option<Vec<f64>> { x.as_array()?.iter().map(Json::as_f64).collect() };
        Some(Timings {
            names: v
                .get("names")?
                .as_array()?
                .iter()
                .map(|n| n.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            setup_s: tuple(v.get("setup_s")?)?,
            requests: v
                .get("requests")?
                .as_array()?
                .iter()
                .map(|r| match tuple(r)?.as_slice() {
                    &[d, w, c] => Some((d as usize, w, c)),
                    _ => None,
                })
                .collect::<Option<_>>()?,
            passes: v
                .get("passes")?
                .as_array()?
                .iter()
                .map(|p| match tuple(p)?.as_slice() {
                    &[w, c] => Some((w, c)),
                    _ => None,
                })
                .collect::<Option<_>>()?,
            wall_s: v.get("wall_s")?.as_f64()?,
            cpu_s: v.get("cpu_s")?.as_f64()?,
        })
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: usize,
    /// False for a tail percentile with fewer than ten samples beyond it
    /// (the value is then the largest sample).
    pub supported: bool,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Outputs checked: flows, daemon rows and cross-checks.
    pub attempted: u64,
    /// Checked outputs that were wrong or missing.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// Extra human-readable lines (per-design breakdowns).
    pub notes: Vec<String>,
    /// Raw per-pass samples, kept in the run record only.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

const MAX_PROBLEMS: usize = 20;

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            supported: true,
        });
    }

    /// A tail percentile from [`crate::stats::percentile_or_max`].
    pub fn tail(
        &mut self,
        name: &str,
        (value, supported): (f64, bool),
        unit: &'static str,
        samples: usize,
    ) {
        self.metric(name, value, unit, samples);
        self.metrics.last_mut().expect("just pushed").supported = supported;
    }

    /// The timing metrics every timed workload reports. The bounded ones
    /// are CPU times at their least disturbed: each request counts at its
    /// design's fastest time, and a pass at the sum of those. The flows are
    /// deterministic, so the spread in the time of the same work comes from
    /// the host, which only ever adds time. On a shared host it comes in
    /// episodes of seconds that slow everything by up to half, CPU time too
    /// (co-tenants compete for the cores' caches and memory). A median moves
    /// with the share of the run such episodes cover, the fastest
    /// observation much less. Medians and wall-time figures are printed as
    /// notes.
    pub fn timings(&mut self, t: &Timings) {
        let designs = &t.names;
        let n = t.requests.len();
        let per_design = |pick: fn(&(usize, f64, f64)) -> f64| -> Vec<Vec<f64>> {
            let mut groups = vec![Vec::new(); designs.len()];
            for r in &t.requests {
                groups[r.0].push(pick(r));
            }
            groups
        };
        let (wall_by, cpu_by) = (per_design(|r| r.1), per_design(|r| r.2));
        let cpu = at_design(&cpu_by, min);
        let (wall_med, cpu_med) = (at_design(&wall_by, median), at_design(&cpu_by, median));
        let pass_wall: Vec<f64> = t.passes.iter().map(|p| p.0).collect();
        let pass_cpu: Vec<f64> = t.passes.iter().map(|p| p.1).collect();

        self.series.push(("pass_wall_ms", pass_wall.clone()));
        self.series.push(("pass_cpu_ms", pass_cpu.clone()));
        self.metric("setup_s", median(&t.setup_s), "s", t.setup_s.len());
        let suite: f64 = cpu_by.iter().map(|g| min(g)).sum();
        self.metric("suite_cpu_ms", suite, "ms", pass_cpu.len());
        self.metric(
            "requests_per_cpu_s",
            1e3 * n as f64 / cpu.iter().sum::<f64>(),
            "1/s",
            n,
        );
        self.tail("request_cpu_ms_p50", percentile_or_max(&cpu, 0.5), "ms", n);
        self.tail("request_cpu_ms_p90", percentile_or_max(&cpu, 0.9), "ms", n);

        let flag = |(v, supported): (f64, bool)| {
            let mark = if supported { "" } else { " [largest sample]" };
            format!("{v:.4}{mark}")
        };
        self.notes.push(format!(
            "median cpu: suite_cpu_ms_p50 = {:.4}, requests_per_cpu_s = {:.4}, \
             request_cpu_ms_p50 = {}, request_cpu_ms_p90 = {} (n={n})",
            median(&pass_cpu),
            n as f64 / t.cpu_s,
            flag(percentile_or_max(&cpu_med, 0.5)),
            flag(percentile_or_max(&cpu_med, 0.9)),
        ));
        self.notes.push(format!(
            "wall   suite_ms_p50 = {:.4}, suite_ms_p90 = {} (n={}); requests_per_s = {:.4}; \
             request_ms_p50 = {}, request_ms_p90 = {} (n={n})",
            median(&pass_wall),
            flag(percentile_or_max(&pass_wall, 0.9)),
            pass_wall.len(),
            n as f64 / t.wall_s,
            flag(percentile_or_max(&wall_med, 0.5)),
            flag(percentile_or_max(&wall_med, 0.9)),
        ));
        for (name, (w, c)) in designs.iter().zip(wall_by.iter().zip(&cpu_by)) {
            self.notes.push(format!(
                "design {name:<16} wall_ms_p50 = {:10.4}  cpu_ms_p50 = {:10.4}  \
                 cpu_ms_min = {:10.4}  (n={})",
                median(w),
                median(c),
                min(c),
                w.len()
            ));
        }
    }

    /// Counts one checked output; `problem` describes it when wrong.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(problem());
        }
    }

    /// Adds the checks another process made.
    pub fn absorb(&mut self, attempted: u64, failed: u64, problems: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(problems.into_iter().take(room));
    }

    /// Records a failure of an output already counted as attempted.
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines printed before the result line.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "metric {:<24} {:>14.4} {:<6} (n={}){}",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples,
                    if m.supported {
                        ""
                    } else {
                        "  [fewer than 10 samples beyond: largest sample shown]"
                    }
                )
            })
            .collect();
        out.extend(self.notes.iter().cloned());
        out.push(format!(
            "check  failed_ratio = {} ({} of {} outputs)",
            if self.attempted == 0 {
                1.0
            } else {
                self.failed as f64 / self.attempted as f64
            },
            self.failed,
            self.attempted
        ));
        out.extend(self.problems.iter().map(|p| format!("FAILED {p}")));
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The fuller record written to the run directory.
    pub fn record_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(
                    self.problems
                        .iter()
                        .map(|p| Json::str(p.as_str()))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(m.name.as_str())),
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                                ("samples", Json::Num(m.samples as f64)),
                                ("supported", Json::Bool(m.supported)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n.as_str())).collect()),
            ),
            (
                "series",
                Json::Obj(
                    self.series
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.to_string(),
                                Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.812_734_5, "s", 3);
        r.tail("request_ms_p90", (12.5, false), "ms", 40);
        r.check(true, String::new);
        r.check(false, || "log2/t1: dffs 1 != 2".into());
        let line = r.result_json().to_string();
        let parsed = Json::parse(&line).expect("result line parses");
        let Json::Obj(pairs) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("attempted"), Some(&Json::Num(2.0)));
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|s| s.get("value")),
            Some(&Json::Num(0.812_734_5))
        );
        assert_eq!(setup.and_then(|s| s.get("unit")), Some(&Json::str("s")));
        assert_eq!(
            Json::parse(&r.record_json().to_string()),
            Ok(r.record_json())
        );
    }

    #[test]
    fn timings_round_trip_and_extend() {
        let mut a = Timings {
            names: vec!["adder/t1".into(), "log2/t1".into()],
            setup_s: vec![0.625],
            requests: vec![(0, 3.25, 3.5), (1, 300.125, 320.0)],
            passes: vec![(303.375, 323.5)],
            wall_s: 0.303_375,
            cpu_s: 0.3235,
        };
        let text = a.to_json().to_string();
        let back = Json::parse(&text)
            .ok()
            .as_ref()
            .and_then(Timings::from_json);
        assert_eq!(back.as_ref(), Some(&a));
        a.extend(back.expect("parsed"));
        assert_eq!((a.requests.len(), a.passes.len(), a.names.len()), (4, 2, 2));
        assert_eq!(a.setup_s, [0.625, 0.625]);
        assert_eq!(a.cpu_s, 0.647);
    }
}
