//! The repository benchmark: three seeded workloads through the public
//! API, end-to-end metrics with tracing off and per-layer metrics from a
//! separate traced pass, with output checks on every run.
//!
//! ```text
//! perfbench --workload <analyze_boot|analyze_emd|fleet_backfill>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result JSON (`correct`,
//! `attempted`, `failed`, `metrics`); the line before it records the run
//! environment. The exit code is nonzero when an output check failed.
//! See `README.md` next to this crate for the workloads and metrics.

mod backfill;
mod batch;
mod compute;
mod cpu;
mod data;
mod fleet;
mod report;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run's files (inside the checkout).
    pub work: PathBuf,
}

const WORKLOADS: &[&str] = &["analyze_boot", "analyze_emd", "fleet_backfill"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let seed = seed.unwrap_or(1);
    let trace = trace.unwrap_or(false);
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{workload}-seed{seed}-trace{}", u8::from(trace)));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work,
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write the traced pass's spans next to the run's other files.
pub fn write_spans(args: &Args, tracer: &trace::Tracer, file: &str) {
    let path = args.work.join(file);
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

/// The checkout's commit when it is a git checkout, else `unknown`.
fn commit(root: &std::path::Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map_or_else(|_| "unknown".into(), |c| c.trim().to_string()),
        None => head,
    }
}

/// FNV-1a over the sources the benchmark builds (root manifest and
/// every file under `crates/`), so runs of different code are told
/// apart even where no commit id is available.
fn source_fingerprint(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default();
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        return ExitCode::from(2);
    }

    let mut report = Report::default();
    report.env_str("workload", &args.workload);
    report.env_num("seed", args.seed);
    report.env_num("seconds", args.seconds);
    report.env_num("trace", u8::from(args.trace));
    report.env_num("nproc", nproc());
    report.env_str("commit", &commit(&root));
    report.env_str("source_fingerprint", &source_fingerprint(&root));
    report.env_str("rustc", &rustc_version());
    report.env_str(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    let ran = match args.workload.as_str() {
        "analyze_boot" => {
            batch::ANALYZE_BOOT.run(&args, &mut report);
            Ok(())
        }
        "analyze_emd" => {
            batch::ANALYZE_EMD.run(&args, &mut report);
            Ok(())
        }
        _ => backfill::run(&args, &mut report),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        let _ = std::fs::remove_dir_all(&args.work);
        return ExitCode::from(2);
    }
    if report.get("peak_rss_mb") == 0.0 {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    // Keep only the traced pass's span files; the inputs, checkpoints
    // and egress files of a run are large and of no use afterwards.
    for entry in std::fs::read_dir(&args.work)
        .into_iter()
        .flatten()
        .flatten()
    {
        let path = entry.path();
        if path.is_dir() {
            let _ = std::fs::remove_dir_all(&path);
        } else if !path.to_string_lossy().ends_with("spans.csv") {
            let _ = std::fs::remove_file(&path);
        }
    }
    if !args.trace {
        let _ = std::fs::remove_dir(&args.work);
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report.env_json());
    println!("{}", report.result_json(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
