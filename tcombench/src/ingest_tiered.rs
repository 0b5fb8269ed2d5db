//! `ingest_tiered`: the write path and the background work. Embedded, one
//! writer thread, split store, `SyncPolicy::OnCheckpoint`.
//!
//! A closed loop over a fixed cycle of one-row update transactions,
//! 100-row batch transactions, new-atom inserts, indexed point reads of
//! acknowledged writes and HISTORY reads of atoms whose closed history
//! already sits in segments. Background work runs at fixed op counts, not
//! on timers, so swap counts and sizes repeat exactly: a checkpoint every
//! [`CKPT_EVERY`] commits, and `compact_all` each time the default
//! `compact_min_closed` (512) closed versions have accumulated. Before
//! every checkpoint (a swap ends in one) the benchmark pulls the leader's
//! WAL chunks and applies them to an in-process follower. At the end the
//! follower's `ASOF TT` slices must equal the leader's byte for byte, and
//! after `crash()` and reopen every acknowledged commit must be readable.

use crate::trace::Tracer;
use crate::{fail, Lat, LayerBase, Opts, Phase, Report, Rng, Scale, Tally};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tcom_core::{
    AtomId, AtomTypeId, AttrDef, DataType, Database, DbConfig, Interval, Result, StoreKind,
    SyncPolicy, Tuple, Value, WalApplier,
};
use tcom_kernel::Lsn;
use tcom_query::{parse_statement, prepare_query, ExecOptions, QueryOutput, Statement};

/// Commits between two checkpoints.
const CKPT_EVERY: u64 = 100;

/// Rows of a batch transaction.
const BATCH: usize = 100;

/// One-row commits between the last checkpoint and the crash image that
/// `recover_s` reopens.
const CRASH_TAIL: usize = 50;

struct Size {
    atoms: usize,
    /// Batch transactions of set-up history (tiered as it accumulates).
    setup_batches: usize,
    frames: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            atoms: 500,
            setup_batches: 20,
            frames: 512,
        },
        Scale::Tiny => Size {
            atoms: 150,
            setup_batches: 12,
            frames: 64,
        },
    }
}

fn config(frames: usize) -> DbConfig {
    DbConfig::default()
        .store_kind(StoreKind::Split)
        .sync_policy(SyncPolicy::OnCheckpoint)
        .checkpoint_interval(0)
        .buffer_frames(frames)
}

fn define(db: &Database) -> Result<AtomTypeId> {
    db.define_atom_type(
        "reading",
        vec![
            AttrDef::new("sensor", DataType::Int).not_null().indexed(),
            AttrDef::new("seq", DataType::Int),
            AttrDef::new("val", DataType::Int),
            AttrDef::new("note", DataType::Text),
        ],
    )
}

fn tuple(sensor: usize, seq: i64, val: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(sensor as i64),
        Value::Int(seq),
        Value::Int(val),
        Value::from(format!("sensor-{sensor}")),
    ])
}

/// Leader, follower and the generator's model of every acknowledged
/// commit.
struct State {
    db: Database,
    ty: AtomTypeId,
    follower: WalApplier,
    epoch: u64,
    lsn: u64,
    atoms: Vec<AtomId>,
    /// Per atom: `(seq, val)` of its current version; `seq + 1` versions.
    cur: Vec<(i64, i64)>,
    /// Atoms whose closed history has been swapped into a segment.
    tiered: usize,
    closed_since_swap: u64,
    commits_since_ckpt: u64,
    rng: Rng,
    /// Picks the atoms each update writes. The same for every seed, so
    /// every seed's history has the same shape (which atoms accumulate
    /// versions, and so what each swap archives); the seed picks values
    /// and read targets.
    shape: Rng,
    user_bytes: u64,
    /// Background work, timed whether traced or not.
    bg: Background,
}

#[derive(Default)]
struct Background {
    checkpoints: Lat,
    swaps: Lat,
    archived: u64,
    chunk_bytes: u64,
    apply_ns: u64,
    /// All background time: pulls, swaps and checkpoints.
    total_ns: u64,
}

impl State {
    /// Pulls every durable WAL byte of the leader into the follower.
    fn pull(&mut self, tr: &mut Tracer) -> Result<()> {
        let t0 = Instant::now();
        let pulled = self.pull_chunks(tr);
        self.bg.total_ns += t0.elapsed().as_nanos() as u64;
        pulled
    }

    fn pull_chunks(&mut self, tr: &mut Tracer) -> Result<()> {
        let epoch = self.db.wal_epoch();
        if epoch != self.epoch {
            self.epoch = epoch;
            self.lsn = 0;
        }
        loop {
            let chunk = tr.span("repl.chunk", || self.db.wal_chunk(Lsn(self.lsn), 1 << 20))?;
            if chunk.epoch != self.epoch {
                self.epoch = chunk.epoch;
                self.lsn = 0;
                continue;
            }
            let durable = self.db.wal_durable_len();
            let now = self.db.now().0;
            let t0 = Instant::now();
            tr.span("repl.apply", || {
                self.follower
                    .apply_chunk(chunk.epoch, chunk.start, &chunk.bytes, durable, now)
            })?;
            self.bg.apply_ns += t0.elapsed().as_nanos() as u64;
            self.bg.chunk_bytes += chunk.bytes.len() as u64;
            if chunk.bytes.is_empty() {
                return Ok(());
            }
            self.lsn = chunk.start.0 + chunk.bytes.len() as u64;
        }
    }

    /// Runs after every commit: the fixed-count checkpoint and compaction
    /// schedule, each preceded by a replication pull.
    fn after_commit(&mut self, closed: u64, tr: &mut Tracer) -> Result<()> {
        self.closed_since_swap += closed;
        self.commits_since_ckpt += 1;
        if self.closed_since_swap >= self.db.config().compact_min_closed {
            self.pull(tr)?;
            let t0 = Instant::now();
            let archived = tr.span("core.compact", || self.db.compact_all())?;
            self.bg.swaps.push(t0.elapsed());
            self.bg.total_ns += t0.elapsed().as_nanos() as u64;
            self.bg.archived += archived;
            self.closed_since_swap = 0;
            self.commits_since_ckpt = 0;
            self.tiered = self.atoms.len();
        } else if self.commits_since_ckpt >= CKPT_EVERY {
            self.pull(tr)?;
            let t0 = Instant::now();
            tr.span("core.checkpoint", || self.db.checkpoint())?;
            self.bg.checkpoints.push(t0.elapsed());
            self.bg.total_ns += t0.elapsed().as_nanos() as u64;
            self.commits_since_ckpt = 0;
        }
        Ok(())
    }

    fn next_tuple(&mut self, i: usize) -> Tuple {
        let (seq, _) = self.cur[i];
        let val = self.rng.below(1_000_000) as i64;
        self.cur[i] = (seq + 1, val);
        let t = tuple(i, seq + 1, val);
        self.user_bytes += crate::tuple_bytes(&t);
        t
    }

    /// One transaction updating `rows` distinct random atoms; returns the
    /// commit latency (begin to acknowledged commit).
    fn update_txn(&mut self, rows: usize, tr: &mut Tracer) -> Result<std::time::Duration> {
        let mut picked: Vec<usize> = Vec::with_capacity(rows);
        while picked.len() < rows {
            let i = self.shape.below(self.atoms.len() as u64) as usize;
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        let before: Vec<(i64, i64)> = picked.iter().map(|&i| self.cur[i]).collect();
        let tuples: Vec<Tuple> = picked.iter().map(|&i| self.next_tuple(i)).collect();
        let (build, commit) = if rows == 1 {
            ("core.txn_build", "core.commit")
        } else {
            ("core.batch_build", "core.batch_commit")
        };
        let t0 = Instant::now();
        let open = tr.enter(build);
        let mut txn = self.db.begin();
        let mut built = Ok(());
        for (&i, t) in picked.iter().zip(tuples) {
            built = txn.update(self.atoms[i], Interval::all(), t);
            if built.is_err() {
                break;
            }
        }
        tr.exit(open);
        let committed = built.and_then(|()| tr.span(commit, || txn.commit()));
        let took = t0.elapsed();
        if let Err(e) = committed {
            // Not acknowledged: the model keeps the previous versions.
            for (&i, b) in picked.iter().zip(before) {
                self.cur[i] = b;
            }
            return Err(e);
        }
        self.after_commit(rows as u64, tr)?;
        Ok(took)
    }

    fn insert_txn(&mut self, tr: &mut Tracer) -> Result<std::time::Duration> {
        let i = self.atoms.len();
        let val = self.rng.below(1_000_000) as i64;
        let t = tuple(i, 0, val);
        let t0 = Instant::now();
        let open = tr.enter("core.txn_build");
        let mut txn = self.db.begin();
        let atom = txn.insert_atom(self.ty, Interval::all(), t.clone());
        tr.exit(open);
        let atom = atom?;
        tr.span("core.commit", || txn.commit())?;
        let took = t0.elapsed();
        self.user_bytes += crate::tuple_bytes(&t);
        self.atoms.push(atom);
        self.cur.push((0, val));
        self.after_commit(0, tr)?;
        Ok(took)
    }
}

fn setup(dir: &Path, sz: &Size, seed: u64) -> Result<State> {
    let db = Database::open(dir.join("db"), config(sz.frames))?;
    let ty = define(&db)?;
    let fdb = Database::open(dir.join("follower"), config(sz.frames))?;
    define(&fdb)?;
    let follower = WalApplier::new(Arc::new(fdb))?;
    let mut rng = Rng::new(seed, 30);
    let mut atoms = Vec::with_capacity(sz.atoms);
    let mut cur = Vec::with_capacity(sz.atoms);
    let mut user_bytes = 0;
    for chunk in (0..sz.atoms).collect::<Vec<_>>().chunks(1000) {
        let mut txn = db.begin();
        for &i in chunk {
            let val = rng.below(1_000_000) as i64;
            let t = tuple(i, 0, val);
            user_bytes += crate::tuple_bytes(&t);
            atoms.push(txn.insert_atom(ty, Interval::all(), t)?);
            cur.push((0, val));
        }
        txn.commit()?;
    }
    let mut st = State {
        db,
        ty,
        follower,
        epoch: 0,
        lsn: 0,
        atoms,
        cur,
        tiered: 0,
        closed_since_swap: 0,
        commits_since_ckpt: 0,
        rng,
        shape: Rng::new(0x5EED, 31),
        user_bytes,
        bg: Background::default(),
    };
    // History build and tiering: batch updates at the run's own
    // compaction cadence, so segments exist before timing starts.
    let mut tr = Tracer::new(0);
    for _ in 0..sz.setup_batches {
        st.update_txn(BATCH, &mut tr)?;
    }
    st.pull(&mut tr)?;
    st.bg = Background::default();
    Ok(st)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Update,
    Batch,
    Insert,
    History,
    Point,
}

/// One cycle of the closed loop. Fixed, so every run has the same mix and
/// the background schedule repeats exactly for a seed: per 200 ops one
/// 100-row batch, 60 one-row updates, 2 inserts, 30 HISTORY reads and 107
/// point reads. Every swap adds a segment that each later HISTORY read
/// opens, and recovery reads every atom's history from every segment
/// (README findings), so the write volume per cycle and the atom count
/// are what keep one run's reopen within seconds.
const CYCLE: [Op; 200] = {
    let mut c = [Op::Point; 200];
    let mut i = 0;
    while i < 200 {
        c[i] = match i % 20 {
            1 | 4 | 7 | 10 | 13 | 16 => Op::Update,
            5 | 12 | 17 => Op::History,
            _ => Op::Point,
        };
        i += 1;
    }
    c[0] = Op::Batch;
    c[99] = Op::Insert;
    c[199] = Op::Insert;
    c
};

fn point(st: &State, i: usize, tr: &mut Tracer) -> std::result::Result<u64, String> {
    let text = format!("SELECT seq, val FROM reading WHERE sensor = {i}");
    let out = if tr.is_on() {
        let stmt = tr
            .span("query.parse", || parse_statement(&text))
            .map_err(|e| fail(&text, e))?;
        let Statement::Select(q) = stmt else {
            return Err(format!("`{text}` is not a SELECT"));
        };
        let p = tr
            .span("query.plan", || {
                prepare_query(&st.db, q, ExecOptions::default())
            })
            .map_err(|e| fail(&text, e))?;
        tr.span("query.exec", || p.run(&st.db))
    } else {
        tcom_query::execute(&st.db, &text)
    }
    .map_err(|e| fail(&text, e))?;
    let (seq, val) = st.cur[i];
    match &out {
        QueryOutput::Rows { rows, .. }
            if rows.len() == 1 && rows[0].values == [Value::Int(seq), Value::Int(val)] =>
        {
            Ok(1)
        }
        _ => Err(format!("`{text}`: {out:?}, acknowledged ({seq}, {val})")),
    }
}

fn history(st: &State, i: usize, tr: &mut Tracer) -> std::result::Result<u64, String> {
    let h = tr
        .span("core.history", || st.db.history(st.atoms[i]))
        .map_err(|e| fail("history", e))?;
    let want = st.cur[i].0 as usize + 1;
    if h.len() != want {
        return Err(format!(
            "history of sensor {i}: {} versions, acknowledged {want}",
            h.len()
        ));
    }
    Ok(h.len() as u64)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report> {
    let sz = size(opts.scale);
    let (mut st, dir, setup_s) =
        crate::timed_setups(opts, crate::setup_repeats(opts.scale), |dir| {
            setup(dir, &sz, opts.seed)
        })?;
    let mut report = Report::default();
    report.put(
        "setup_s",
        "s",
        setup_s,
        Some(crate::setup_repeats(opts.scale)),
    );
    report.meta("store", "split");
    report.meta(
        "flush",
        format!("OnCheckpoint, checkpoint every {CKPT_EVERY} commits"),
    );
    report.meta("pool_frames", sz.frames);
    let dbdir = dir.join("db");
    let image = dir.join("image");
    let mut tr = Tracer::new(0);
    // The crash image `recover_s` reopens: set-up, a checkpoint, then a
    // fixed tail of one-row commits, so its WAL and pages are the same for
    // a seed whatever the timed phase does.
    st.pull(&mut tr)?;
    st.db.checkpoint()?;
    st.closed_since_swap = 0;
    st.commits_since_ckpt = 0;
    for _ in 0..CRASH_TAIL {
        st.update_txn(1, &mut tr)?;
    }
    crate::capture_crash_image(&dbdir, &image)?;
    st.bg = Background::default();
    report.meta("data_pages_at_start", crate::dir_bytes(&dbdir) / 8192);
    report.meta("compact_min_closed", st.db.config().compact_min_closed);

    let mut tally = Tally::default();
    let mut lat: [Lat; 5] = Default::default();
    let mut cycles = [Lat::default(), Lat::default()];
    let (mut rows, mut histories, mut commits) = (0u64, 0u64, 0u64);
    let user_start = st.user_bytes;
    let phase = Phase::start(&st.db);
    let applied_start = st.follower.db().metrics().counter("repl.txns_applied");
    let start = Instant::now();
    let mut coin = crate::trace_coin(opts.seed);
    let budget = if opts.trace { 0.9 } else { 1.0 };
    let timed = Opts {
        seconds: opts.seconds * budget,
        ..opts.clone()
    };
    while timed.keep_going(start, tally.attempted) {
        let traced = opts.trace && coin.below(2) == 1;
        tr.set(traced);
        let c0 = Instant::now();
        let bg0 = st.bg.total_ns;
        for &op in &CYCLE {
            tr.new_op();
            let span = tr.enter(match op {
                Op::Update => "op.update",
                Op::Batch => "op.batch",
                Op::Insert => "op.insert",
                Op::History => "op.history",
                Op::Point => "op.point",
            });
            let t0 = Instant::now();
            let outcome: std::result::Result<std::time::Duration, String> = match op {
                Op::Update => st
                    .update_txn(1, &mut tr)
                    .map_err(|e| fail("one-row update", e)),
                Op::Batch => st
                    .update_txn(BATCH, &mut tr)
                    .map_err(|e| fail("batch update", e)),
                Op::Insert => st.insert_txn(&mut tr).map_err(|e| fail("insert", e)),
                Op::History => {
                    let i = st.rng.below(st.tiered.max(1) as u64) as usize;
                    history(&st, i, &mut tr).map(|n| {
                        rows += n;
                        histories += 1;
                        t0.elapsed()
                    })
                }
                Op::Point => {
                    let i = st.rng.below(st.atoms.len() as u64) as usize;
                    point(&st, i, &mut tr).map(|n| {
                        rows += n;
                        t0.elapsed()
                    })
                }
            };
            tr.exit(span);
            let writes = matches!(op, Op::Update | Op::Batch | Op::Insert);
            if writes && outcome.is_ok() {
                commits += 1;
                rows += if op == Op::Batch { BATCH as u64 } else { 1 };
            }
            let slot = &mut lat[op as usize];
            match outcome {
                Ok(took) => {
                    slot.push(took);
                    tally.record(Ok(()));
                }
                Err(e) => {
                    slot.push_failed();
                    tally.record(Err(e));
                }
            }
        }
        // Background work lands in whichever cycle crosses its threshold;
        // the overhead compares foreground time only.
        let bg = std::time::Duration::from_nanos(st.bg.total_ns - bg0);
        cycles[traced as usize].push(c0.elapsed().saturating_sub(bg));
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.put("peak_rss_mib", "MiB", crate::peak_rss_mib(), None);
    let ops = tally.attempted;
    st.pull(&mut tr)?;
    let d = phase.delta(&st.db);
    crate::put_counts(&mut report, &d);
    let [update, _batch, _insert, hist, pt] = &lat;
    report.put("ops_per_s", "1/s", ops as f64 / elapsed, Some(ops as usize));
    report.put("point_p50_us", "us", pt.pct_us(50.0), Some(pt.n()));
    report.put("point_p99_us", "us", pt.pct_us(99.0), Some(pt.n()));
    report.put("commit_p50_us", "us", update.pct_us(50.0), Some(update.n()));
    report.put("commit_p99_us", "us", update.pct_us(99.0), Some(update.n()));
    report.put("history_p50_us", "us", hist.pct_us(50.0), Some(hist.n()));
    let applied = st.follower.db().metrics().counter("repl.txns_applied") - applied_start;
    report.put(
        "replica_tx_per_s",
        "1/s",
        if st.bg.apply_ns == 0 {
            0.0
        } else {
            applied as f64 / (st.bg.apply_ns as f64 / 1e9)
        },
        Some(applied as usize),
    );
    report.meta("swaps", st.bg.swaps.n());
    report.meta("checkpoints", st.bg.checkpoints.n());
    report.meta("segments_live", st.db.metrics().counter("segment.live"));
    report.meta("data_pages_at_end", crate::dir_bytes(&dbdir) / 8192);

    if opts.trace {
        let base = LayerBase {
            ops,
            commits,
            rows,
            histories,
            reads: ops - commits,
            user_bytes: st.user_bytes - user_start,
            retries: tally.retries,
        };
        crate::put_counter_layers(&mut report, &st.db, &phase, &base);
        // Core-level probe of the point reads: the current versions of the
        // same atoms, read directly.
        tr.set(true);
        let pstart = Instant::now();
        let mut n = 0;
        while n < 20
            || (n < 2000
                && pstart.elapsed().as_secs_f64() < opts.seconds * (1.0 - budget)
                && opts.max_ops.is_none())
        {
            let i = st.rng.below(st.atoms.len() as u64) as usize;
            tr.new_op();
            let vs = tr.span("core.current", || st.db.current_versions(st.atoms[i]));
            let (seq, val) = st.cur[i];
            tally.record(match vs {
                Ok(vs)
                    if vs.len() == 1
                        && vs[0].tuple.get(1) == &Value::Int(seq)
                        && vs[0].tuple.get(2) == &Value::Int(val) =>
                {
                    Ok(())
                }
                other => Err(format!("core probe of sensor {i}: {other:?}")),
            });
            n += 1;
        }
        let stt = tr.stats();
        let g = |n: &str| stt.get(n).copied().unwrap_or_default();
        for (name, span) in [
            ("query.parse_us", "query.parse"),
            ("query.plan_us", "query.plan"),
            ("query.exec_us", "query.exec"),
            ("core.current_us", "core.current"),
            ("core.history_us", "core.history"),
            ("core.txn_build_us", "core.txn_build"),
            ("core.commit_us", "core.commit"),
            ("repl.chunk_us", "repl.chunk"),
        ] {
            let s = g(span);
            report.put(name, "us", s.self_us(), Some(s.count as usize));
        }
        let bg = &st.bg;
        report.put(
            "core.checkpoint_ms",
            "ms",
            bg.checkpoints.mean_us() / 1e3,
            Some(bg.checkpoints.n()),
        );
        report.put(
            "core.compact_ms",
            "ms",
            bg.swaps.mean_us() / 1e3,
            Some(bg.swaps.n()),
        );
        let swap_s: f64 = bg.swaps.0.iter().map(|&n| n as f64 / 1e9).sum();
        report.put(
            "core.compact_versions_per_s",
            "1/s",
            if swap_s > 0.0 {
                bg.archived as f64 / swap_s
            } else {
                0.0
            },
            Some(bg.swaps.n()),
        );
        report.put(
            "repl.apply_us_per_txn",
            "us",
            if applied == 0 {
                0.0
            } else {
                bg.apply_ns as f64 / 1e3 / applied as f64
            },
            Some(applied as usize),
        );
        report.put(
            "repl.bytes_per_txn",
            "B",
            if applied == 0 {
                0.0
            } else {
                bg.chunk_bytes as f64 / applied as f64
            },
            Some(applied as usize),
        );
        let (plain, traced) = (cycles[0].mean_us(), cycles[1].mean_us());
        report.put(
            "trace.overhead_pct",
            "%",
            if plain > 0.0 {
                (traced / plain - 1.0) * 100.0
            } else {
                0.0
            },
            Some(cycles[1].n()),
        );
        let _ = tr.write(
            &opts
                .work_dir
                .join(format!("spans-ingest_tiered-{}.tsv", opts.seed)),
        );
    }

    // Replica check: the follower's slices equal the leader's byte for
    // byte, at the current clock and at a past transaction time.
    let now = st.db.now().0;
    for tt in [now, 1 + st.rng.below(now)] {
        let text = format!("SELECT sensor, seq, val FROM reading ASOF TT {tt}");
        let enc = |db: &Database| {
            tcom_query::execute(db, &text)
                .map(|o| tcom_client::proto::enc_output(&tcom_query::StatementOutput::Query(o)))
        };
        tally.record(match (enc(&st.db), enc(st.follower.db())) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Ok(a), Ok(b)) => Err(format!(
                "`{text}`: follower slice differs ({} vs {} bytes)",
                b.len(),
                a.len()
            )),
            (a, b) => Err(format!(
                "`{text}`: leader {:?} follower {:?}",
                a.err(),
                b.err()
            )),
        });
    }

    report.put(
        "space_amp",
        "ratio",
        crate::dir_bytes(&dbdir) as f64 / st.user_bytes as f64,
        None,
    );
    let State {
        db,
        follower,
        cur,
        atoms,
        ..
    } = st;
    drop(follower);
    // The end state's reopen rebuilds every index from the merged (heap +
    // segment) histories, so it grows with the run (README findings).
    let (db, recover_end_s) = crate::crash_and_reopen(db, &dbdir, config(sz.frames))?;
    report.put("recover_end_s", "s", recover_end_s, Some(1));
    crate::put_recovery(&mut report, opts, &image, config(sz.frames), 9)?;
    // Durability: every acknowledged commit is readable after the crash.
    let check = match tcom_query::execute(&db, "SELECT sensor, seq, val FROM reading") {
        Ok(QueryOutput::Rows { rows, .. }) if rows.len() == atoms.len() => rows
            .iter()
            .find_map(|r| match r.values.as_slice() {
                [Value::Int(s), Value::Int(seq), Value::Int(val)]
                    if cur.get(*s as usize) == Some(&(*seq, *val)) =>
                {
                    None
                }
                other => Some(format!(
                    "after reopen row {other:?} is not the acknowledged version"
                )),
            })
            .map_or(Ok(()), Err),
        Ok(out) => Err(format!(
            "after reopen {} rows, acknowledged {}",
            out.len(),
            atoms.len()
        )),
        Err(e) => Err(fail("after reopen", e)),
    };
    tally.record(check);
    for i in (0..atoms.len()).step_by((atoms.len() / 16).max(1)) {
        tally.record(match db.history(atoms[i]) {
            Ok(h) if h.len() == cur[i].0 as usize + 1 => Ok(()),
            other => Err(format!(
                "after reopen history of sensor {i}: {:?} versions",
                other.map(|h| h.len())
            )),
        });
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    tally.finish(&mut report);
    Ok(report)
}
