//! Tiny-scale self-test of the benchmark: every metric is printed with its
//! unit on the workloads it applies to, no op fails, the gated names match
//! `BENCHMARK.json`, and a seed repeats its counts exactly.

use std::path::PathBuf;
use tcombench::{
    Opts, Report, Scale, END_TO_END, PER_LAYER, WORKLOADS, WORKLOAD_END_TO_END, WORKLOAD_PER_LAYER,
};

fn run(workload: &str, seed: u64, trace: bool) -> Report {
    let max_ops = match workload {
        "history_cold" => 48,
        "ingest_tiered" => 200,
        _ => 100,
    };
    let opts = Opts {
        workload: workload.to_string(),
        seed,
        seconds: 60.0,
        trace,
        scale: Scale::Tiny,
        max_ops: Some(max_ops),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{seed}-{trace}")),
    };
    let report = tcombench::run(&opts).expect("workload runs");
    assert!(
        report.correct,
        "{workload}: wrong answers {:?}",
        report.errors
    );
    report
}

fn assert_has(report: &Report, workload: &str, name: &str, unit: &str) {
    let m = report
        .get(name)
        .unwrap_or_else(|| panic!("{workload}: metric {name} not printed"));
    assert_eq!(m.unit, unit, "{workload}: unit of {name}");
    assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
}

#[test]
fn every_metric_is_printed_with_its_unit_and_nothing_fails() {
    for w in WORKLOADS {
        let plain = run(w, 7, false);
        for (name, unit) in END_TO_END {
            assert_has(&plain, w, name, unit);
        }
        for (name, unit, on) in WORKLOAD_END_TO_END {
            if on.contains(&w) {
                assert_has(&plain, w, name, unit);
            }
        }
        assert_eq!(plain.get("failed_frac").map(|m| m.value), Some(0.0), "{w}");
        assert_eq!(plain.failed, 0, "{w}");
        assert!(plain.attempted > 0, "{w}");
        for key in ["seed", "nproc", "store", "flush", "pool_frames"] {
            assert!(
                plain.meta.iter().any(|(k, _)| k == key),
                "{w}: meta {key} missing"
            );
        }

        let traced = run(w, 7, true);
        for (name, unit) in PER_LAYER {
            assert_has(&traced, w, name, unit);
        }
        for (name, unit, on) in WORKLOAD_PER_LAYER {
            if on.contains(&w) {
                assert_has(&traced, w, name, unit);
            }
        }
    }
}

#[test]
fn a_seed_repeats_its_counts() {
    // The single-threaded workloads; oltp_wire's two connections
    // interleave differently on every run.
    for w in ["history_cold", "ingest_tiered"] {
        let a = run(w, 11, false);
        let b = run(w, 11, false);
        assert!(!a.counts.is_empty());
        assert_eq!(
            a.counts, b.counts,
            "{w}: counts differ between runs of one seed"
        );
        assert_eq!(a.attempted, b.attempted, "{w}");
    }
}

/// The `"name": "…"` entries of one array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    let field = |entry: &str, f: &str| {
        let at = entry.find(&format!("\"{f}\"")).expect("field present");
        let rest = &entry[at + f.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn gated_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_in(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = json
        .split("\"workloads\"")
        .nth(1)
        .expect("workloads")
        .split(']')
        .next()
        .expect("workloads array")
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
