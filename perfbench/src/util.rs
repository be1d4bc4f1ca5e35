//! Small helpers: order statistics, a seeded input generator, parameter
//! fingerprints, process memory and the result line.

use std::fmt::Write as _;

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// One timing summarized as its median and the highest percentile that has
/// at least ten samples beyond it (`p50` when there are too few samples
/// for any tail percentile).
pub fn describe(values: &[f64]) -> String {
    let n = values.len();
    let tail = [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    format!(
        "median {:.4} p{tail} {:.4} n={n}",
        median(values),
        quantile(values, tail / 100.0)
    )
}

/// SplitMix64: the benchmark's own input generator. Every workload input
/// (query lists, arrival schedules) derives from `--seed` through it, so
/// the same seed always gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE7C_4A11_0C8D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Exponential gap with the given rate (per unit time).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// FNV-1a over the bit patterns of `params`: equal fingerprints mean
/// bitwise-equal parameters (up to hash collisions).
pub fn fingerprint(params: &[f32]) -> u64 {
    params.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, p| {
        (h ^ u64::from(p.to_bits())).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The samples behind the value, when it summarizes several.
    pub summary: String,
}

/// One named correctness check and what it saw.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one benchmark run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            summary: "n=1".to_string(),
        });
    }

    /// A metric summarizing `samples`, reported with their median, highest
    /// supported percentile and count.
    pub fn sampled(&mut self, name: &'static str, value: f64, unit: &'static str, samples: &[f64]) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            summary: describe(samples),
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final JSON line. Values print with Rust's shortest round-trip
    /// formatting, i.e. with all their digits.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}
