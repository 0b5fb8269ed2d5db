//! Command line of the tcom benchmark.
//!
//! ```text
//! tcombench --workload <oltp_wire|history_cold|ingest_tiered> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run metadata and every metric (name, value, unit, sample
//! count), then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and the gated metrics of `BENCHMARK.json`:
//! end-to-end metrics untraced, per-layer metrics traced. Exits non-zero
//! when an answer was wrong or the run could not complete.

use std::path::PathBuf;
use std::process::ExitCode;
use tcombench::{Opts, Report, Scale, END_TO_END, PER_LAYER};

fn usage(msg: &str) -> ExitCode {
    eprintln!("tcombench: {msg}");
    eprintln!("usage: tcombench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_line(report: &Report, trace: bool) -> Result<String, String> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let m = report
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            m.value
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        max_ops: None,
        work_dir: PathBuf::from(".bench_data"),
    };
    let mut report = match tcombench::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tcombench: {} failed: {e}", opts.workload);
            return ExitCode::from(2);
        }
    };
    report.meta("git_commit", git_commit());
    for (k, v) in &report.meta {
        println!("meta {k} = {v}");
    }
    for m in &report.metrics {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("metric {} = {} {}{n}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        println!("error {e}");
    }
    let line = match json_line(&report, trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tcombench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
