//! Sample statistics and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `v` (sorted in place); the mean of the middle pair for an
/// even count. Panics on an empty slice: every caller has a sample.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `v` (sorted in place).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Repeat `f` while the next repetition, predicted to take as long as
/// the slowest so far, still ends within `budget_s` of `start`; always
/// at least `min` times. Returns how many repetitions ran.
pub fn repeat_within(start: Instant, budget_s: f64, min: usize, mut f: impl FnMut()) -> usize {
    let mut slowest = 0.0f64;
    let mut n = 0;
    loop {
        if n >= min && secs(start) + slowest > budget_s {
            return n;
        }
        let t = Instant::now();
        f();
        slowest = slowest.max(secs(t));
        n += 1;
    }
}

/// Time `reps` set-ups and return the last one's product with the median
/// set-up time. The first repetition is timed from `start`, the
/// benchmark's own start, so process start-up counts as set-up too.
pub fn setup<T>(start: Instant, reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for i in 0..reps {
        let t = if i == 0 { start } else { Instant::now() };
        out = Some(f());
        times.push(secs(t));
    }
    (out.expect("at least one set-up"), median(&mut times))
}

/// Samples of a timed phase, one entry per pass of the workload's fixed
/// work. Only the operations are timed: checking their outputs is not.
#[derive(Debug, Default)]
pub struct Passes {
    pass_s: Vec<f64>,
    op_ms: Vec<f64>,
    pkts_per_s: Vec<f64>,
    goodput_mbps: Vec<f64>,
    /// `VmHWM` after the first pass: set-up and one pass of the fixed
    /// work. Later passes repeat that work, but where their buffers land
    /// (which thread arena, whether freed memory is reused) varies from
    /// run to run and moved the whole-run peak by 20 % on `udp_paper`.
    peak_rss_mb: Option<Option<f64>>,
}

impl Passes {
    /// Record one pass: the seconds of each operation, the seconds its
    /// transfers took (their sum, or what the entry point reports), the
    /// engine datagrams handled and the payload bits each receiver got.
    pub fn record(&mut self, op_s: &[f64], transfer_s: f64, datagrams: u64, bits: f64) {
        self.peak_rss_mb
            .get_or_insert_with(crate::procfs::peak_rss_mb);
        self.pass_s.push(op_s.iter().sum());
        self.op_ms.extend(op_s.iter().map(|s| s * 1e3));
        self.pkts_per_s.push(datagrams as f64 / transfer_s);
        self.goodput_mbps.push(bits / transfer_s / 1e6);
    }

    /// No pass was recorded.
    pub fn is_empty(&self) -> bool {
        self.pass_s.is_empty()
    }

    /// Every metric of [`crate::END_TO_END`] but `sim_comm_ms.*`, and a
    /// line stating the sample count behind the percentiles.
    pub fn report(mut self, r: &mut Report, setup_s: f64, op: &str) {
        let n = self.op_ms.len();
        println!(
            "op samples: {n} {op} in {} passes, {} beyond p90",
            self.pass_s.len(),
            n - (0.9 * n as f64).ceil() as usize
        );
        r.metric("setup_s", setup_s);
        r.metric("wall_s", median(&mut self.pass_s));
        r.metric("op_p50_ms", quantile(&mut self.op_ms, 0.5));
        r.metric("op_p90_ms", quantile(&mut self.op_ms, 0.9));
        r.metric("pkts_per_s", median(&mut self.pkts_per_s));
        r.metric("goodput_mbps", median(&mut self.goodput_mbps));
        match self.peak_rss_mb.flatten() {
            Some(mb) => r.metric("peak_rss_mb", mb),
            None => r.absent("peak_rss_mb", "/proc/self/status"),
        }
        r.metric("delivered_frac", 1.0 - r.fail_frac());
    }
}

/// What one benchmark run found: its metrics and its output checks.
#[derive(Debug, Default)]
pub struct Report {
    /// Deliveries (or other checked outputs) attempted.
    pub attempted: u64,
    /// Attempted outputs that were missing or wrong.
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    absent: Vec<String>,
}

impl Report {
    /// Record metric `name`, one of [`crate::END_TO_END`] or
    /// [`crate::PER_LAYER`], which give its unit.
    pub fn metric(&mut self, name: &str, value: f64) {
        let &(name, unit) = crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite: {value}"));
        }
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Leave metric `name` out of the result: its source is `missing`.
    pub fn absent(&mut self, name: &str, missing: &str) {
        println!("{name}: absent ({missing} unreadable)");
        self.absent.push(name.to_string());
    }

    /// Record 0 for every metric of `names` neither recorded nor absent:
    /// the layers this workload does not run.
    pub fn zero_unset(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            let known = self.metrics.iter().any(|(n, _, _)| *n == name)
                || self.absent.iter().any(|n| n == name);
            if !known {
                self.metrics.push((name, 0.0, unit));
            }
        }
    }

    /// Record a failed check that is not a delivery (the run is then
    /// reported incorrect).
    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    /// Record `attempted` outputs of which `failed` were missing or wrong.
    pub fn deliveries(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The share of attempted outputs that were missing or wrong.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`,
    /// in the order `order` declares them.
    pub fn to_json(&self, order: &[(&'static str, &'static str)]) -> String {
        // A run that attempted nothing counts as one failed attempt.
        let (attempted, failed) = match self.attempted {
            0 => (1, 1),
            n => (n, self.failed),
        };
        let correct = self.problems.is_empty() && failed == 0;
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for (name, _) in order {
            let Some((_, value, unit)) = self.metrics.iter().find(|(n, _, _)| n == name) else {
                continue;
            };
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_quantiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut [7.0], 0.9), 7.0);
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = Report::default();
        r.deliveries(30, 0);
        r.metric("pkts_per_s", 1e6);
        r.metric("wall_s", 0.25);
        assert_eq!(
            r.to_json(crate::END_TO_END),
            "{\"correct\": true, \"attempted\": 30, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"pkts_per_s\": {\"value\": 1000000.0, \"unit\": \"1/s\"}}}"
        );
        r.problem("replica differs".into());
        assert!(r
            .to_json(crate::END_TO_END)
            .starts_with("{\"correct\": false"));
    }
}
