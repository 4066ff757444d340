//! What a run reports: metrics, operation counts, per-operation
//! distributions, in-memory spans, provenance, and the final result line.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use telemetry::chrome::ChromeTrace;

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (compressions, decompressions, tunings, rounds,
    /// layer replays).
    pub attempted: u64,
    /// Operations that returned an error or whose output failed its check.
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the result: distributions and context figures
    /// that are not metrics of the run's mode.
    pub notes: Vec<String>,
    /// Worker threads the run's simulations used (0: no simulation ran).
    pub sim_threads: usize,
}

impl Outcome {
    /// Count one operation; an `Err` counts it as failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("FAILED: {why}");
        }
    }

    /// Record a metric. A non-finite value (a measurement that could not be
    /// taken) fails the run rather than printing invalid JSON.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.op(Err(format!("metric {name} is not finite ({value})")));
            self.metrics.push((name, 0.0, unit));
        }
    }

    /// Record the distribution of one per-operation timing.
    pub fn distribution(&mut self, name: &str, unit: &str, samples: &[f64]) {
        self.notes.push(distribution_line(name, unit, samples));
    }

    /// The run's last line of output: a JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The fastest of `samples` (NaN for none, which `Outcome::metric` rejects).
///
/// Every host-time metric is a best-of-N: on a shared machine, slowdowns of
/// several seconds hit some passes of most runs, and the fastest pass
/// repeats from run to run far better than the median does.
#[must_use]
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Median of `samples` (0 for none).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(samples, n=4)` computes them
/// (the default "exclusive" method); `None` below two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// `median`, the highest percentile with at least ten samples beyond it
/// (omitted below eleven samples), the extremes, and the sample count.
fn distribution_line(name: &str, unit: &str, samples: &[f64]) -> String {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let mut line = format!("dist {name} median={} {unit}", median(&s));
    if n > 10 {
        let pct = 100 * (n - 10) / n;
        let _ = write!(line, " p{pct}={} {unit}", s[n - 11]);
    }
    if let (Some(lo), Some(hi)) = (s.first(), s.last()) {
        let _ = write!(line, " min={lo} max={hi}");
    }
    let _ = write!(line, " n={n}");
    line
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Spans kept in memory and written out when the run ends. A tracer built
/// with `on = false` records nothing, so untraced runs time the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans iff `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if self.on {
            let start = self.origin.elapsed().as_secs_f64();
            self.spans.push(Span {
                name: name.to_owned(),
                start,
                end: start,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Run `f` inside a span named `name`; returns its result and wall
    /// seconds whether or not spans are recorded.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let secs = t0.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// Summed self time of every span called `name`: its duration minus the
    /// part its child spans cover.
    #[must_use]
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.end - s.start - c)
            .sum()
    }

    /// Summed duration of every span called `name`.
    #[must_use]
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Write the spans as a Chrome trace (loads in Perfetto): one track,
    /// nesting shown by containment.
    pub fn write_chrome(&self, path: &Path, process: &str) -> std::io::Result<()> {
        let mut trace = ChromeTrace::new();
        trace.set_process_name(1, process);
        trace.set_thread_name(1, 1, "benchmark");
        for s in &self.spans {
            let depth = std::iter::successors(s.parent, |&p| self.spans[p].parent).count();
            trace.complete_slice(
                1,
                1,
                &s.name,
                format!("depth{depth}"),
                s.start * 1e6,
                (s.end - s.start) * 1e6,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, trace.to_json().to_compact())
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` without running git (which would search outside the checkout);
/// `unknown` when the checkout is not a git repository.
#[must_use]
pub fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&git.join(reference))
        .map(|h| h.trim().to_owned())
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference)?.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("round");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        t.exit();
        let round = t.total_seconds("round");
        let child = t.total_seconds("child");
        assert!(child > 0.004 && round >= child);
        assert!((t.self_seconds("round") - (round - child)).abs() < 1e-12);
    }
}
