//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <characterize|serve_warm|serve_batch|serve_cold>
//!           --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root (through `cargo run --manifest-path
//! perfbench/Cargo.toml`). It characterizes its fixtures through the public
//! API, serves them from an in-process daemon over a Unix socket, checks
//! every answer, and prints a provenance report line followed by one JSON
//! result line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics and writes the run's spans under
//! `.perfbench_out/`. See `perfbench/README.md` for the workloads and what
//! each metric is expected to move.

mod fixtures;
mod measure;
mod serve;
mod workloads;

use measure::SpanLog;
use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Requests the benchmark sent to the daemon.
    pub sent: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Provenance and reconciliation, as raw JSON values.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl Display) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric::new(name, value, unit));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Git revision when run from the root of a git checkout, `"none"`
/// otherwise (a plain source tree is identified by [`source_digest`]).
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a digest of the program's sources and manifests: identifies the
/// code under test where there is no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", proxim_model::persist::fnv1a_64(&all))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::new();
    proxim_obs::json::push_escaped(&mut out, s);
    out
}

/// Traced minus untraced, per end-to-end metric, when an untraced run of
/// the same workload and seed left its result in `out_dir`.
fn trace_overhead(out_dir: &Path, args: &Args, traced: &[Metric]) -> String {
    let path = out_dir.join(format!("{}-seed{}-trace0.json", args.workload, args.seed));
    let Some(base) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| proxim_obs::json::Json::parse(&t).ok())
    else {
        return "null".into();
    };
    let mut out = String::from("{");
    for m in traced {
        let Some(b) = base
            .get(&m.name)
            .and_then(|v| v.get("value"))
            .and_then(|v| v.as_f64())
        else {
            continue;
        };
        if out.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", m.name, m.value - b);
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let work =
        root.join(".perfbench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let out_dir = root.join(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|()| std::fs::create_dir_all(&out_dir))
    {
        eprintln!("perfbench: cannot create work directories: {e}");
        return ExitCode::from(1);
    }
    let mut log = SpanLog::new(args.trace, Instant::now(), 400_000);
    let result = workloads::run(&args, &work, &mut log);
    let _ = std::fs::remove_dir_all(&work);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    // JSON has no NaN or infinity: such a figure is a failed measurement.
    let bad: Vec<String> = (out.e2e.iter().chain(&out.layers))
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        out.fail(format!("{name} is not a finite number"));
    }
    for m in out.e2e.iter_mut().chain(out.layers.iter_mut()) {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut report = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":\"{}\",\"source_digest\":\"{}\",\"host_cpus\":{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        git_revision(),
        source_digest(&root),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (k, v) in &out.notes {
        let _ = write!(report, ",\"{k}\":{v}");
    }
    let failures: Vec<String> = out.failures.iter().map(|f| escape(f)).collect();
    let _ = write!(report, ",\"failures\":[{}]", failures.join(","));
    let _ = write!(report, ",\"end_to_end\":{}", metrics_json(&out.e2e));
    if args.trace {
        let _ = write!(report, ",\"per_layer\":{}", metrics_json(&out.layers));
        let _ = write!(
            report,
            ",\"trace_overhead\":{}",
            trace_overhead(&out_dir, &args, &out.e2e)
        );
        let selfs: Vec<String> = log
            .self_times()
            .iter()
            .map(|(name, n, dur, own)| {
                format!("\"{name}\":{{\"spans\":{n},\"mean_us\":{dur},\"self_us\":{own}}}")
            })
            .collect();
        let _ = write!(
            report,
            ",\"spans\":{{\"kept\":{},\"dropped\":{}}},\"self_time\":{{{}}}",
            log.len(),
            log.dropped,
            selfs.join(",")
        );
        let _ = std::fs::write(out_dir.join(format!("{stem}.spans.jsonl")), log.to_jsonl());
    }
    report.push('}');
    let _ = std::fs::write(out_dir.join(format!("{stem}.json")), metrics_json(&out.e2e));
    let _ = std::fs::write(out_dir.join(format!("{stem}.report.json")), &report);

    let metrics = if args.trace { &out.layers } else { &out.e2e };
    println!("{report}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(metrics)
    );
    ExitCode::SUCCESS
}
