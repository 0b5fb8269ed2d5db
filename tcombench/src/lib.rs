//! The tcom benchmark: three closed-loop workloads that drive the engine
//! through its public crates, check every answer, and report end-to-end
//! metrics (untraced run) or per-layer metrics (traced run).
//!
//! Every layer is measured from outside: the benchmark times its own calls
//! into each crate's public functions and reads the counters the engine
//! already exports (`Database::metrics`, `buffer_stats`, `segment_counters`,
//! `store_stats`, `wal_len`). See `README.md` for the metric map.

pub mod history_cold;
pub mod ingest_tiered;
pub mod oltp_wire;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tcom_core::{Database, Error, Result};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["oltp_wire", "history_cold", "ingest_tiered"];

/// End-to-end metrics every workload reports on its last output line (the
/// gated set of `BENCHMARK.json`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("space_amp", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every workload reports on its last output line in a
/// traced run, with units.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.exec_us", "us"),
    ("query.fetches_per_row", "count"),
    ("core.current_us", "us"),
    ("txn.retries_per_op", "count"),
    ("txn.stripe_waits_per_commit", "count"),
    ("core.recover_wal_mib", "MiB"),
    ("repl.bytes_per_txn", "B"),
    ("wal.bytes_per_commit", "B"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.group_size_p50", "count"),
    ("io.write_amp", "ratio"),
    ("store.chain_steps_per_read", "count"),
    ("store.split_migrations_per_commit", "count"),
    ("segment.reads_per_history", "count"),
    ("segment.skip_ratio", "ratio"),
    ("segment.comp_ratio", "ratio"),
    ("segment.live", "count"),
    ("store.heap_pages", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.fetches_per_op", "count"),
    ("pool.misses_per_op", "count"),
    ("disk.reads_per_op", "count"),
    ("pool.writebacks_per_commit", "count"),
    ("trace.overhead_pct", "%"),
];

/// The remaining end-to-end metrics. Each applies to some workloads only,
/// is 0 on a correct run (`failed_frac`), or varies too much between runs
/// to gate (`point_p50_us`, `point_p99_us`, `recover_s`; see README). Each
/// is printed, with unit and sample count, on the workloads it applies to,
/// and is not part of the gated last line.
pub const WORKLOAD_END_TO_END: [(&str, &str, &[&str]); 12] = [
    ("failed_frac", "ratio", &WORKLOADS),
    ("point_p50_us", "us", &WORKLOADS),
    ("point_p99_us", "us", &WORKLOADS),
    ("recover_s", "s", &WORKLOADS),
    ("history_p50_us", "us", &["history_cold", "ingest_tiered"]),
    ("update_p50_us", "us", &["oltp_wire"]),
    ("commit_p50_us", "us", &["oltp_wire", "ingest_tiered"]),
    ("commit_p99_us", "us", &["oltp_wire", "ingest_tiered"]),
    ("slice_p50_us", "us", &["history_cold"]),
    ("molecule_p50_us", "us", &["history_cold"]),
    ("scan_rows_per_s", "1/s", &["history_cold"]),
    ("replica_tx_per_s", "1/s", &["ingest_tiered"]),
];

/// Per-layer times that only some workloads exercise (printed there, not
/// part of the gated last line).
pub const WORKLOAD_PER_LAYER: [(&str, &str, &[&str]); 13] = [
    ("server.wire_us", "us", &["oltp_wire"]),
    ("client.codec_us", "us", &["oltp_wire"]),
    ("core.history_us", "us", &["history_cold", "ingest_tiered"]),
    ("core.slice_us_per_atom", "us", &["history_cold"]),
    ("core.molecule_us", "us", &["history_cold"]),
    ("core.scan_us_per_atom", "us", &["history_cold"]),
    ("core.txn_build_us", "us", &["ingest_tiered"]),
    ("core.commit_us", "us", &["ingest_tiered"]),
    ("core.checkpoint_ms", "ms", &["ingest_tiered"]),
    ("core.compact_ms", "ms", &["ingest_tiered"]),
    ("core.compact_versions_per_s", "1/s", &["ingest_tiered"]),
    ("repl.chunk_us", "us", &["ingest_tiered"]),
    ("repl.apply_us_per_txn", "us", &["ingest_tiered"]),
];

/// Data scale: `Full` is what the benchmark measures; `Tiny` is the
/// self-test's scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Measured scale.
    Full,
    /// Self-test scale: same code paths, a few hundred atoms.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Data scale.
    pub scale: Scale,
    /// Ends the timed phase after this many ops instead of after
    /// `seconds` (the self-test uses it so that counts repeat exactly).
    pub max_ops: Option<u64>,
    /// Directory that holds the databases, spans and nothing else.
    pub work_dir: PathBuf,
}

impl Opts {
    /// True while the timed phase should go on.
    pub fn keep_going(&self, start: Instant, ops: u64) -> bool {
        match self.max_ops {
            Some(n) => ops < n,
            None => start.elapsed().as_secs_f64() < self.seconds,
        }
    }
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
    /// Samples behind a percentile or mean, when it is one.
    pub samples: Option<usize>,
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every answer matched the generator's model.
    pub correct: bool,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops failed or answered wrongly.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Run metadata (`key`, `value`).
    pub meta: Vec<(String, String)>,
    /// Exact counts that repeat for a seed on the single-threaded
    /// workloads (pool fetches, WAL bytes, segment reads, swaps).
    pub counts: BTreeMap<String, u64>,
    /// First wrong answers, for the error report.
    pub errors: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, unit: &str, value: f64, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        });
    }

    /// Adds a metadata entry.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// The metric named `name`, if reported.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Per-op outcome bookkeeping shared by the workloads.
#[derive(Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or answered wrongly.
    pub failed: u64,
    /// Wait-die retries.
    pub retries: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one op's outcome; `Err` carries what went wrong.
    pub fn record(&mut self, outcome: std::result::Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Moves the outcome into the report (`correct`, counts, `failed_frac`).
    pub fn finish(self, report: &mut Report) {
        report.attempted = self.attempted;
        report.failed = self.failed;
        report.correct = self.failed == 0 && self.attempted > 0;
        report.errors = self.errors;
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        report.put("failed_frac", "ratio", frac, Some(self.attempted as usize));
    }
}

/// Latency samples of one op class, in nanoseconds. A failed op is a
/// sample of `u64::MAX`: it misses every latency limit.
#[derive(Default, Clone)]
pub struct Lat(pub Vec<u64>);

impl Lat {
    /// Records one completed op.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos().min(u64::MAX as u128 - 1) as u64);
    }

    /// Records one failed op.
    pub fn push_failed(&mut self) {
        self.0.push(u64::MAX);
    }

    /// Nearest-rank percentile in microseconds (`p` in 0..=100).
    pub fn pct_us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
        v[rank.min(v.len()) - 1] as f64 / 1_000.0
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&n| n as f64).sum::<f64>() / self.0.len() as f64 / 1_000.0
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Merges another sample set.
    pub fn extend(&mut self, other: &Lat) {
        self.0.extend_from_slice(&other.0);
    }
}

/// splitmix64: the generator behind every seeded input.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Skewed in `0..n`: low values are hot (density ∝ x^(-2/3)).
    pub fn skewed(&mut self, n: u64) -> u64 {
        ((self.unit().powi(3) * n as f64) as u64).min(n - 1)
    }
}

/// The coin that picks a traced run's traced cycles: its own stream, so a
/// traced run generates the same inputs as an untraced one.
pub fn trace_coin(seed: u64) -> Rng {
    Rng::new(seed, 99)
}

/// Peak resident set of this process in MiB (`VmHWM`). Read right after
/// the timed phase: it covers the last set-up and the workload, not the
/// checks and reopens that follow.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the peak-RSS mark so it covers only what follows. Best effort:
/// kernels without `clear_refs` keep the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Encoded size of a tuple: the user bytes one version carries.
pub fn tuple_bytes(t: &tcom_core::Tuple) -> u64 {
    let mut enc = tcom_kernel::codec::Encoder::new();
    enc.put_tuple(t);
    enc.len() as u64
}

/// True for the retryable wait-die abort, embedded or relayed by a server.
pub fn is_wait_die(e: &Error) -> bool {
    tcom_core::is_wait_die_abort(e) || e.to_string().contains("wait-die:")
}

/// Runs `f` until it does not end in a wait-die abort, exactly as
/// `tcom-shell` retries: 5 ms apart, at most 400 retries. Returns the
/// result and the number of retries.
pub fn retry_wait_die<T>(mut f: impl FnMut() -> Result<T>) -> (Result<T>, u64) {
    let mut retries = 0;
    loop {
        match f() {
            Err(e) if is_wait_die(&e) && retries < 400 => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            other => return (other, retries),
        }
    }
}

/// Runs `setup` `times` times, each in a fresh directory, keeps the last
/// result and returns it with the median set-up time in seconds.
pub fn timed_setups<T>(
    opts: &Opts,
    times: usize,
    mut setup: impl FnMut(&Path) -> Result<T>,
) -> Result<(T, PathBuf, f64)> {
    let mut secs = Vec::new();
    let mut kept = None;
    for i in 0..times {
        let dir = opts
            .work_dir
            .join(format!("{}-{}-{i}", opts.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        if i + 1 == times {
            reset_peak_rss();
        }
        let t = Instant::now();
        let value = setup(&dir).map_err(|e| Error::query(format!("set-up {i}: {e}")))?;
        secs.push(t.elapsed().as_secs_f64());
        if i + 1 == times {
            kept = Some((value, dir));
        } else {
            drop(value);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    secs.sort_by(f64::total_cmp);
    let (value, dir) = kept.expect("at least one set-up");
    Ok((value, dir, secs[secs.len() / 2]))
}

/// How many set-ups a run makes for `setup_s` at this scale.
pub fn setup_repeats(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Tiny => 1,
    }
}

/// Copies every file of `from` into a fresh directory `to`. The copies are
/// synced, so a timed reopen of them flushes only what recovery writes.
fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        std::fs::copy(entry.path(), &target)?;
        std::fs::File::open(&target)?.sync_all()?;
    }
    std::fs::File::open(to)?.sync_all()?;
    Ok(())
}

/// Copies the files of an open database, between two ops, into `image`:
/// what a crash at this instant leaves on disk. Every WAL append and page
/// write-back the engine issued has reached its file; dirty pages still in
/// the pool have not.
pub fn capture_crash_image(dir: &Path, image: &Path) -> Result<()> {
    copy_dir(dir, image)
}

/// Times recovery from a crash image: every reopen runs on a fresh copy
/// of `image`, so each replays the same WAL over the same pages. Reopens
/// at least `min_reopens` times, more while they add up to less than
/// `budget_s` seconds (at most 50). Returns the median reopen time in
/// seconds and the number of reopens.
pub fn time_recovery(
    image: &Path,
    config: tcom_core::DbConfig,
    min_reopens: usize,
    budget_s: f64,
) -> Result<(f64, usize)> {
    let copy = PathBuf::from(format!("{}-reopen", image.display()));
    let mut secs: Vec<f64> = Vec::new();
    while secs.len() < min_reopens || (secs.iter().sum::<f64>() < budget_s && secs.len() < 50) {
        copy_dir(image, &copy)?;
        let t = Instant::now();
        let reopened = Database::open(&copy, config)
            .map_err(|e| Error::query(format!("reopen of the crash image: {e}")))?;
        secs.push(t.elapsed().as_secs_f64());
        reopened.crash();
    }
    let _ = std::fs::remove_dir_all(&copy);
    secs.sort_by(f64::total_cmp);
    Ok((secs[secs.len() / 2], secs.len()))
}

/// Crashes `db` (no shutdown checkpoint) and reopens `dir`, which replays
/// the WAL. Returns the reopened database and the reopen time in seconds.
pub fn crash_and_reopen(
    db: Database,
    dir: &Path,
    config: tcom_core::DbConfig,
) -> Result<(Database, f64)> {
    db.crash();
    let t = Instant::now();
    let reopened = Database::open(dir, config)
        .map_err(|e| Error::query(format!("reopen after the crash: {e}")))?;
    Ok((reopened, t.elapsed().as_secs_f64()))
}

/// Puts `recover_s` (and, traced, `core.recover_wal_mib`): recovery of the
/// crash image taken after set-up, whose WAL and pages are the same for a
/// seed whatever the timed phase did. `min_reopens` applies at full scale;
/// the median of that many keeps one slow reopen from moving the result.
pub fn put_recovery(
    report: &mut Report,
    opts: &Opts,
    image: &Path,
    config: tcom_core::DbConfig,
    min_reopens: usize,
) -> Result<()> {
    let min_reopens = match opts.scale {
        Scale::Full => min_reopens,
        Scale::Tiny => 1,
    };
    let (secs, reopens) = time_recovery(image, config, min_reopens, 1.0)?;
    report.put("recover_s", "s", secs, Some(reopens));
    if opts.trace {
        let wal = std::fs::metadata(image.join("wal.log")).map_or(0, |m| m.len());
        report.put(
            "core.recover_wal_mib",
            "MiB",
            wal as f64 / (1u64 << 20) as f64,
            None,
        );
    }
    Ok(())
}

/// Counters read at phase boundaries: the engine's metrics snapshot plus
/// the benchmark's derived per-layer ratios.
pub struct Phase {
    before: tcom_core::MetricsSnapshot,
}

impl Phase {
    /// Starts a phase on `db`.
    pub fn start(db: &Database) -> Phase {
        Phase {
            before: db.metrics(),
        }
    }

    /// Counter deltas since the start.
    pub fn delta(&self, db: &Database) -> tcom_core::MetricsSnapshot {
        db.metrics().delta(&self.before)
    }

    /// Median of the histogram `name`'s observations since the start (its
    /// bucket bound), with the observation count.
    pub fn hist_p50(&self, db: &Database, name: &str) -> (f64, u64) {
        let now = db.metrics();
        let Some(after) = now.histogram(name) else {
            return (0.0, 0);
        };
        let before = self.before.histogram(name);
        let mut buckets: Vec<(u64, u64)> = after
            .buckets
            .iter()
            .map(|&(le, n)| {
                let was = before
                    .and_then(|b| b.buckets.iter().find(|x| x.0 == le))
                    .map_or(0, |x| x.1);
                (le, n.saturating_sub(was))
            })
            .filter(|b| b.1 > 0)
            .collect();
        buckets.sort_unstable();
        let count: u64 = buckets.iter().map(|b| b.1).sum();
        let mut seen = 0;
        for (le, n) in buckets {
            seen += n;
            if seen * 2 >= count {
                return (le as f64, count);
            }
        }
        (0.0, 0)
    }
}

/// Inputs of the storage, WAL and version-layer ratios shared by every
/// workload's traced run.
pub struct LayerBase {
    /// Ops completed in the traced phase.
    pub ops: u64,
    /// Commits in the traced phase.
    pub commits: u64,
    /// Rows returned or modified in the traced phase.
    pub rows: u64,
    /// HISTORY reads in the traced phase.
    pub histories: u64,
    /// Reads that walk a version store in the traced phase.
    pub reads: u64,
    /// User tuple bytes written in the traced phase.
    pub user_bytes: u64,
    /// Wait-die retries in the traced phase.
    pub retries: u64,
}

/// Puts the counter-derived per-layer metrics (WAL, version, storage,
/// txn) computed from the phase delta `d` into `report`.
pub fn put_counter_layers(report: &mut Report, db: &Database, phase: &Phase, b: &LayerBase) {
    let d = &phase.delta(db);
    let per = |n: u64, by: u64| if by == 0 { 0.0 } else { n as f64 / by as f64 };
    report.put(
        "query.fetches_per_row",
        "count",
        per(d.counter("pool.fetches"), b.rows),
        None,
    );
    report.put(
        "txn.retries_per_op",
        "count",
        per(b.retries, b.ops),
        Some(b.ops as usize),
    );
    report.put(
        "txn.stripe_waits_per_commit",
        "count",
        per(d.counter("txn.stripe_waits"), b.commits),
        Some(b.commits as usize),
    );
    let wal_bytes = d.counter("wal.bytes");
    report.put(
        "wal.bytes_per_commit",
        "B",
        per(wal_bytes, b.commits),
        Some(b.commits as usize),
    );
    report.put(
        "wal.fsyncs_per_commit",
        "count",
        per(d.counter("wal.fsyncs"), b.commits),
        Some(b.commits as usize),
    );
    let (group_p50, groups) = phase.hist_p50(db, "wal.group_size");
    report.put(
        "wal.group_size_p50",
        "count",
        group_p50,
        Some(groups as usize),
    );
    let writebacks = d.counter("pool.writebacks");
    report.put(
        "io.write_amp",
        "ratio",
        per(wal_bytes + writebacks * 8192, b.user_bytes),
        None,
    );
    report.put(
        "store.chain_steps_per_read",
        "count",
        per(d.counter("store.chain_steps"), b.reads),
        Some(b.reads as usize),
    );
    report.put(
        "store.split_migrations_per_commit",
        "count",
        per(d.counter("store.split_migrations"), b.commits),
        None,
    );
    let (seg_reads, seg_skips) = (d.counter("segment.reads"), d.counter("segment.skips"));
    report.put(
        "segment.reads_per_history",
        "count",
        per(seg_reads, b.histories),
        Some(b.histories as usize),
    );
    report.put(
        "segment.skip_ratio",
        "ratio",
        per(seg_skips, seg_reads + seg_skips),
        None,
    );
    let now = db.metrics();
    report.put(
        "segment.comp_ratio",
        "ratio",
        per(
            now.counter("segment.comp_bytes"),
            now.counter("segment.raw_bytes"),
        ),
        None,
    );
    report.put(
        "segment.live",
        "count",
        now.counter("segment.live") as f64,
        None,
    );
    let heap_pages: u64 = db
        .store_stats()
        .map(|s| s.iter().map(|(_, st)| st.heap_pages).sum())
        .unwrap_or(0);
    report.put("store.heap_pages", "count", heap_pages as f64, None);
    let (fetches, hits, misses) = (
        d.counter("pool.fetches"),
        d.counter("pool.hits"),
        d.counter("pool.misses"),
    );
    report.put("pool.hit_ratio", "ratio", per(hits, fetches), None);
    report.put(
        "pool.fetches_per_op",
        "count",
        per(fetches, b.ops),
        Some(b.ops as usize),
    );
    report.put(
        "pool.misses_per_op",
        "count",
        per(misses, b.ops),
        Some(b.ops as usize),
    );
    report.put(
        "disk.reads_per_op",
        "count",
        per(d.counter("disk.reads"), b.ops),
        Some(b.ops as usize),
    );
    report.put(
        "pool.writebacks_per_commit",
        "count",
        per(writebacks, b.commits),
        None,
    );
}

/// Exact counts of a phase, for the self-test's repeatability check.
pub fn put_counts(report: &mut Report, d: &tcom_core::MetricsSnapshot) {
    for name in [
        "pool.fetches",
        "pool.misses",
        "wal.bytes",
        "segment.reads",
        "segment.compactions",
    ] {
        report.counts.insert(name.to_string(), d.counter(name));
    }
}

/// Turns a query error or mismatch into the op's failure text.
pub fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Runs the workload `opts.workload`.
pub fn run(opts: &Opts) -> Result<Report> {
    std::fs::create_dir_all(&opts.work_dir)?;
    let mut report = match opts.workload.as_str() {
        "oltp_wire" => oltp_wire::run(opts)?,
        "history_cold" => history_cold::run(opts)?,
        "ingest_tiered" => ingest_tiered::run(opts)?,
        other => {
            return Err(Error::query(format!(
                "unknown workload '{other}' (expected one of {WORKLOADS:?})"
            )))
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.meta.insert(0, ("nproc".into(), nproc.to_string()));
    report
        .meta
        .insert(0, ("seed".into(), opts.seed.to_string()));
    report
        .meta
        .insert(0, ("workload".into(), opts.workload.clone()));
    report.meta.push(("trace".into(), opts.trace.to_string()));
    Ok(report)
}
