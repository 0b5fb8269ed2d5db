//! `oltp_wire`: the networked user's path. An in-process
//! `tcom_server::Server` (2 session threads) serves 2 `tcom_client::Client`
//! connections, each a closed loop over a fixed mix: ad-hoc and prepared
//! indexed point SELECTs on skewed keys, small indexed range SELECTs,
//! keyed one-row autocommit UPDATEs and `BEGIN; INSERT; COMMIT`.
//!
//! Default `DbConfig` (split store, `SyncPolicy::OnCommit`, group commit,
//! 1,024 frames) over ~20 k rows with shallow history, so the data fits
//! in the pool. Each connection writes only the keys of its own parity and
//! keeps a shadow copy of them: reads of its own keys must match the
//! shadow, reads of other keys must return the key asked for, and after a
//! crash and reopen every acknowledged write must be readable.

use crate::trace::Tracer;
use crate::{fail, Lat, LayerBase, Opts, Phase, Report, Rng, Scale, Tally};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tcom_client::{proto, Client, Response, StmtId};
use tcom_core::{AttrDef, DataType, Database, DbConfig, Interval, Result, Tuple, Value};
use tcom_query::{
    parse_statement, prepare_query, ExecOptions, QueryOutput, Statement, StatementOutput,
};
use tcom_server::{Server, ServerConfig};

/// Client connections (= server session threads = `nproc` here).
const CONNS: usize = 2;

/// Prepared point SELECTs per session.
const PREPARED: usize = 32;

fn rows_at_setup(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 20_000,
        Scale::Tiny => 400,
    }
}

fn config() -> DbConfig {
    DbConfig::default()
}

/// One row's tuple: `(k, v, owner, note)`.
fn tuple(k: u64, v: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k as i64),
        Value::Int(v),
        Value::Int((k % CONNS as u64) as i64),
        Value::from(format!("acct-{k}")),
    ])
}

struct Loaded {
    db: Arc<Database>,
    server: Server,
    /// `v` of every row after set-up.
    values: Vec<i64>,
    user_bytes: u64,
}

fn setup(dir: &Path, n: u64, seed: u64) -> Result<Loaded> {
    let db = Database::open(dir.join("db"), config())?;
    let ty = db.define_atom_type(
        "acct",
        vec![
            AttrDef::new("k", DataType::Int).not_null().indexed(),
            AttrDef::new("v", DataType::Int),
            AttrDef::new("owner", DataType::Int),
            AttrDef::new("note", DataType::Text),
        ],
    )?;
    let mut rng = Rng::new(seed, 10);
    let mut values = Vec::with_capacity(n as usize);
    let mut atoms = Vec::with_capacity(n as usize);
    let mut user_bytes = 0;
    for chunk in (0..n).collect::<Vec<_>>().chunks(1000) {
        let mut txn = db.begin();
        for &k in chunk {
            let v = rng.below(1_000_000) as i64;
            let t = tuple(k, v);
            user_bytes += crate::tuple_bytes(&t);
            atoms.push(txn.insert_atom(ty, Interval::all(), t)?);
            values.push(v);
        }
        txn.commit()?;
    }
    // Shallow history: about a fifth of the rows get one or two updates.
    for _ in 0..2 {
        let mut txn = db.begin();
        for k in 0..n {
            if rng.below(10) == 0 {
                let v = rng.below(1_000_000) as i64;
                let t = tuple(k, v);
                user_bytes += crate::tuple_bytes(&t);
                txn.update(atoms[k as usize], Interval::all(), t)?;
                values[k as usize] = v;
            }
        }
        txn.commit()?;
    }
    db.checkpoint()?;
    let db = Arc::new(db);
    let server = Server::start(db.clone(), ServerConfig::default().server_threads(CONNS))?;
    Ok(Loaded {
        db,
        server,
        values,
        user_bytes,
    })
}

/// One-row commits between the last checkpoint and the crash image that
/// `recover_s` reopens.
const CRASH_TAIL: u64 = 50;

/// Commits [`CRASH_TAIL`] one-row updates (the server is idle), so the
/// crash image taken next replays the same WAL for a seed. Returns the
/// tuple bytes written.
fn crash_tail(db: &Database, values: &mut [i64], seed: u64) -> Result<u64> {
    let ty = db.atom_type_id("acct")?;
    let atoms = db.all_atoms(ty)?;
    let mut rng = Rng::new(seed, 11);
    let mut bytes = 0;
    for _ in 0..CRASH_TAIL {
        let k = rng.below(values.len() as u64);
        let v = rng.below(1_000_000) as i64;
        let t = tuple(k, v);
        bytes += crate::tuple_bytes(&t);
        let mut txn = db.begin();
        txn.update(atoms[k as usize], Interval::all(), t)?;
        txn.commit()?;
        values[k as usize] = v;
    }
    Ok(bytes)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Point,
    Prepared,
    Range,
    Update,
    Insert,
}

/// One connection's cycle: mostly reads, a few writes. Fixed, so every run
/// has the same mix. The keyed UPDATE walks every atom of the type (see
/// README findings), so one per cycle already dominates its time.
const CYCLE: [Op; 50] = {
    use Op::*;
    [
        Point, Prepared, Point, Point, Insert, Point, Prepared, Point, Range, Point, //
        Point, Prepared, Point, Point, Insert, Point, Prepared, Point, Point, Point, //
        Update, Prepared, Point, Point, Range, Point, Prepared, Point, Insert, Point, //
        Point, Prepared, Point, Point, Point, Point, Prepared, Point, Range, Point, //
        Point, Prepared, Point, Point, Insert, Point, Prepared, Point, Point, Point,
    ]
};

/// What one connection measured.
#[derive(Default)]
struct ConnOut {
    tally: Tally,
    point: Lat,
    update: Lat,
    commit: Lat,
    /// Per traced/untraced cycle time, for the tracing overhead.
    cycles: [Lat; 2],
    commits: u64,
    rows: u64,
    user_bytes: u64,
    /// Final values of this connection's keys (set-up keys and inserted).
    shadow: HashMap<u64, i64>,
    /// Ad-hoc point SELECT texts, for the embedded probes.
    point_texts: Vec<String>,
    tracer: Option<Tracer>,
}

struct Conn<'a> {
    c: usize,
    client: Client,
    n: u64,
    shadow: HashMap<u64, i64>,
    prepared: Vec<(StmtId, u64)>,
    next_insert: u64,
    rng: Rng,
    out: ConnOut,
    tr: Tracer,
    opts: &'a Opts,
}

impl Conn<'_> {
    fn own(&self, k: u64) -> bool {
        k % CONNS as u64 == self.c as u64
    }

    /// Checks the `(k, v)` rows of a SELECT over `keys`.
    fn check_rows(
        &self,
        keys: std::ops::Range<u64>,
        out: &QueryOutput,
        text: &str,
    ) -> std::result::Result<u64, String> {
        let QueryOutput::Rows { rows, .. } = out else {
            return Err(format!("`{text}`: not a row result"));
        };
        let mut got: Vec<(u64, i64)> = rows
            .iter()
            .map(|r| match (r.values.first(), r.values.get(1)) {
                (Some(Value::Int(k)), Some(Value::Int(v))) => (*k as u64, *v),
                _ => (u64::MAX, 0),
            })
            .collect();
        got.sort_unstable();
        let want: Vec<u64> = keys.collect();
        if got.iter().map(|g| g.0).collect::<Vec<_>>() != want {
            return Err(format!(
                "`{text}`: keys {:?}",
                got.iter().map(|g| g.0).collect::<Vec<_>>()
            ));
        }
        for (k, v) in &got {
            if self.own(*k) && self.shadow.get(k) != Some(v) {
                return Err(format!(
                    "`{text}`: own key {k} reads {v}, shadow {:?}",
                    self.shadow.get(k)
                ));
            }
        }
        Ok(got.len() as u64)
    }

    fn output(resp: Result<Response>) -> Result<QueryOutput> {
        match resp? {
            Response::Output(StatementOutput::Query(q)) => Ok(q),
            other => Err(tcom_core::Error::query(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    fn point(&mut self, k: u64, prepared: Option<StmtId>) -> std::result::Result<(), String> {
        let text = format!("SELECT k, v FROM acct WHERE k = {k}");
        let resp = match prepared {
            Some(id) => self.tr.span("client.execute", || self.client.execute(id)),
            None => self.tr.span("client.query", || self.client.query(&text)),
        };
        let out = Self::output(resp).map_err(|e| fail(&text, e))?;
        self.out.rows += self.check_rows(k..k + 1, &out, &text)?;
        if prepared.is_none() && self.out.point_texts.len() < 256 {
            self.out.point_texts.push(text);
        }
        Ok(())
    }

    fn range(&mut self, a: u64) -> std::result::Result<(), String> {
        let text = format!("SELECT k, v FROM acct WHERE k >= {a} AND k < {}", a + 8);
        let resp = self.tr.span("client.query", || self.client.query(&text));
        let out = Self::output(resp).map_err(|e| fail(&text, e))?;
        self.out.rows += self.check_rows(a..a + 8, &out, &text)?;
        Ok(())
    }

    fn update(&mut self, k: u64) -> std::result::Result<(), String> {
        let v = self.rng.below(1_000_000) as i64;
        let text = format!("UPDATE acct SET v = {v} WHERE k = {k}");
        let client = &mut self.client;
        let tr = &mut self.tr;
        let (resp, retries) =
            crate::retry_wait_die(|| tr.span("client.query", || client.query(&text)));
        self.out.tally.retries += retries;
        match resp.map_err(|e| fail(&text, e))? {
            Response::Output(StatementOutput::Modified(1, _)) => {
                self.shadow.insert(k, v);
                self.out.commits += 1;
                self.out.rows += 1;
                self.out.user_bytes += crate::tuple_bytes(&tuple(k, v));
                Ok(())
            }
            other => Err(format!("`{text}`: {other:?}")),
        }
    }

    fn insert(&mut self) -> std::result::Result<(), String> {
        let k = self.next_insert;
        let v = self.rng.below(1_000_000) as i64;
        let text = format!(
            "INSERT INTO acct (k, v, owner, note) VALUES ({k}, {v}, {}, 'acct-{k}')",
            self.c
        );
        let mut retries = 0;
        loop {
            let client = &mut self.client;
            let tr = &mut self.tr;
            let attempt = (|| {
                tr.span("client.begin", || client.begin())?;
                tr.span("client.query", || client.query(&text))?;
                tr.span("client.commit", || client.commit())
            })();
            match attempt {
                Ok(_) => break,
                Err(e) => {
                    let _ = self.client.rollback();
                    if crate::is_wait_die(&e) && retries < 400 {
                        retries += 1;
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        continue;
                    }
                    self.out.tally.retries += retries;
                    return Err(fail(&text, e));
                }
            }
        }
        self.out.tally.retries += retries;
        self.next_insert += CONNS as u64;
        self.shadow.insert(k, v);
        self.out.commits += 1;
        self.out.rows += 1;
        self.out.user_bytes += crate::tuple_bytes(&tuple(k, v));
        Ok(())
    }

    fn run(mut self, start: Instant) -> ConnOut {
        // The cycle's ops run in a fresh random order each time, so the two
        // connections' slow UPDATEs do not keep one phase for a whole run.
        let mut order = CYCLE;
        let mut shuffle = Rng::new(self.opts.seed, 40 + self.c as u64);
        let mut coin = crate::trace_coin(self.opts.seed + self.c as u64);
        let per_conn = Opts {
            max_ops: self.opts.max_ops.map(|n| n / CONNS as u64),
            ..self.opts.clone()
        };
        while per_conn.keep_going(start, self.out.tally.attempted) {
            let traced = self.opts.trace && coin.below(2) == 1;
            self.tr.set(traced);
            let c0 = Instant::now();
            for i in (1..order.len()).rev() {
                order.swap(i, shuffle.below(i as u64 + 1) as usize);
            }
            for &op in &order {
                self.tr.new_op();
                let span = self.tr.enter(match op {
                    Op::Point => "op.point",
                    Op::Prepared => "op.prepared",
                    Op::Range => "op.range",
                    Op::Update => "op.update",
                    Op::Insert => "op.insert",
                });
                let t0 = Instant::now();
                let outcome = match op {
                    Op::Point => {
                        let k = self.rng.skewed(self.n);
                        self.point(k, None)
                    }
                    Op::Prepared => {
                        let (id, k) = self.prepared[self.rng.below(PREPARED as u64) as usize];
                        self.point(k, Some(id))
                    }
                    Op::Range => {
                        let a = self.rng.below(self.n - 8);
                        self.range(a)
                    }
                    Op::Update => {
                        let k =
                            self.rng.below(self.n / CONNS as u64) * CONNS as u64 + self.c as u64;
                        self.update(k)
                    }
                    Op::Insert => self.insert(),
                };
                let took = t0.elapsed();
                self.tr.exit(span);
                let ok = self.out.tally.record(outcome);
                let lat = match op {
                    Op::Point | Op::Prepared => &mut self.out.point,
                    Op::Update => &mut self.out.update,
                    Op::Insert => &mut self.out.commit,
                    Op::Range => continue,
                };
                if ok {
                    lat.push(took);
                } else {
                    lat.push_failed();
                }
            }
            self.out.cycles[traced as usize].push(c0.elapsed());
        }
        self.out.shadow = self.shadow;
        self.out.tracer = Some(self.tr);
        self.out
    }
}

fn connect<'a>(
    addr: SocketAddr,
    c: usize,
    n: u64,
    values: &[i64],
    opts: &'a Opts,
) -> Result<Conn<'a>> {
    let mut client = Client::connect(addr)?;
    let mut rng = Rng::new(opts.seed, 20 + c as u64);
    let mut prepared = Vec::with_capacity(PREPARED);
    for _ in 0..PREPARED {
        let k = rng.skewed(n);
        prepared.push((
            client.prepare(&format!("SELECT k, v FROM acct WHERE k = {k}"))?,
            k,
        ));
    }
    let shadow = (0..n)
        .filter(|k| k % CONNS as u64 == c as u64)
        .map(|k| (k, values[k as usize]))
        .collect();
    Ok(Conn {
        c,
        client,
        n,
        shadow,
        prepared,
        next_insert: n + c as u64,
        rng,
        out: ConnOut::default(),
        tr: Tracer::new((c as u64) << 40),
        opts,
    })
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report> {
    let n = rows_at_setup(opts.scale);
    let (loaded, dir, setup_s) =
        crate::timed_setups(opts, crate::setup_repeats(opts.scale), |dir| {
            setup(dir, n, opts.seed)
        })?;
    let Loaded {
        db,
        mut server,
        mut values,
        user_bytes: mut setup_bytes,
    } = loaded;
    let dbdir = dir.join("db");
    let image = dir.join("image");
    setup_bytes += crash_tail(&db, &mut values, opts.seed)?;
    crate::capture_crash_image(&dbdir, &image)?;
    let mut report = Report::default();
    report.put(
        "setup_s",
        "s",
        setup_s,
        Some(crate::setup_repeats(opts.scale)),
    );
    report.meta("store", "split");
    report.meta("flush", "OnCommit, group commit");
    report.meta("pool_frames", config().buffer_frames);
    report.meta("data_pages", crate::dir_bytes(&dbdir) / 8192);
    report.meta(
        "heap_pages",
        db.store_stats()?
            .iter()
            .map(|(_, s)| s.heap_pages)
            .sum::<u64>(),
    );
    report.meta("rows", n);
    report.meta("connections", CONNS);

    let addr = server.local_addr();
    let conns = (0..CONNS)
        .map(|c| connect(addr, c, n, &values, opts))
        .collect::<Result<Vec<_>>>()?;
    let phase = Phase::start(&db);
    let start = Instant::now();
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|c| s.spawn(move || c.run(start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    report.put("peak_rss_mib", "MiB", crate::peak_rss_mib(), None);

    let mut tally = Tally::default();
    let (mut point, mut update, mut commit) = (Lat::default(), Lat::default(), Lat::default());
    let mut cycles = [Lat::default(), Lat::default()];
    let (mut commits, mut rows, mut run_bytes) = (0, 0, 0);
    let mut shadow: HashMap<u64, i64> = HashMap::new();
    let mut tracer = Tracer::new(0);
    let mut point_texts = Vec::new();
    for o in outs {
        tally.merge(o.tally);
        point.extend(&o.point);
        update.extend(&o.update);
        commit.extend(&o.commit);
        cycles[0].extend(&o.cycles[0]);
        cycles[1].extend(&o.cycles[1]);
        commits += o.commits;
        rows += o.rows;
        run_bytes += o.user_bytes;
        shadow.extend(o.shadow);
        point_texts.extend(o.point_texts);
        if let Some(t) = o.tracer {
            tracer.absorb(t);
        }
    }
    let ops = tally.attempted;
    let retries = tally.retries;
    let d = phase.delta(&db);
    crate::put_counts(&mut report, &d);
    report.put("ops_per_s", "1/s", ops as f64 / elapsed, Some(ops as usize));
    report.put("point_p50_us", "us", point.pct_us(50.0), Some(point.n()));
    report.put("point_p99_us", "us", point.pct_us(99.0), Some(point.n()));
    report.put("update_p50_us", "us", update.pct_us(50.0), Some(update.n()));
    report.put("commit_p50_us", "us", commit.pct_us(50.0), Some(commit.n()));
    report.put("commit_p99_us", "us", commit.pct_us(99.0), Some(commit.n()));

    if opts.trace {
        let base = LayerBase {
            ops,
            commits,
            rows,
            histories: 0,
            reads: ops - commits,
            user_bytes: run_bytes,
            retries,
        };
        crate::put_counter_layers(&mut report, &db, &phase, &base);
        probes(
            &db,
            &point_texts,
            &shadow,
            &mut tracer,
            &mut tally,
            &mut report,
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
        report.put("repl.bytes_per_txn", "B", 0.0, Some(0));
        let _ = tracer.write(
            &opts
                .work_dir
                .join(format!("spans-oltp_wire-{}.tsv", opts.seed)),
        );
    }

    server.shutdown();
    drop(server);
    let db = Arc::try_unwrap(db).map_err(|_| tcom_core::Error::query("database still shared"))?;
    report.put(
        "space_amp",
        "ratio",
        crate::dir_bytes(&dbdir) as f64 / (setup_bytes + run_bytes) as f64,
        None,
    );
    let (db, recover_end_s) = crate::crash_and_reopen(db, &dbdir, config())?;
    report.put("recover_end_s", "s", recover_end_s, Some(1));
    crate::put_recovery(&mut report, opts, &image, config(), 9)?;
    // Durability: every acknowledged write of both connections is readable.
    let check = match tcom_query::execute(&db, "SELECT k, v FROM acct") {
        Ok(QueryOutput::Rows { rows, .. }) => {
            let mut seen = 0;
            let mut bad = None;
            for r in &rows {
                if let (Some(Value::Int(k)), Some(Value::Int(v))) =
                    (r.values.first(), r.values.get(1))
                {
                    seen += 1;
                    if shadow.get(&(*k as u64)) != Some(v) && bad.is_none() {
                        bad = Some(format!(
                            "after reopen key {k} reads {v}, acknowledged {:?}",
                            shadow.get(&(*k as u64))
                        ));
                    }
                }
            }
            match bad {
                Some(b) => Err(b),
                None if seen != shadow.len() => Err(format!(
                    "after reopen {seen} rows, acknowledged {}",
                    shadow.len()
                )),
                None => Ok(()),
            }
        }
        Ok(_) => Err("after reopen: not a row result".into()),
        Err(e) => Err(fail("after reopen", e)),
    };
    tally.record(check);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    tally.finish(&mut report);
    Ok(report)
}

/// Traced run: the ad-hoc point SELECTs answered embedded (parse, plan,
/// exec), by the core call, and through the wire codec; the wire's share
/// is the client-observed round trip minus the embedded execution.
fn probes(
    db: &Database,
    texts: &[String],
    shadow: &HashMap<u64, i64>,
    tr: &mut Tracer,
    tally: &mut Tally,
    report: &mut Report,
) {
    tr.set(true);
    for text in texts {
        tr.new_op();
        let outcome = (|| -> std::result::Result<(), String> {
            let stmt = tr
                .span("query.parse", || parse_statement(text))
                .map_err(|e| fail(text, e))?;
            let Statement::Select(q) = stmt else {
                return Err(format!("`{text}` is not a SELECT"));
            };
            let p = tr
                .span("query.plan", || {
                    prepare_query(db, q, ExecOptions::default())
                })
                .map_err(|e| fail(text, e))?;
            let out = tr
                .span("query.exec", || p.run(db))
                .map_err(|e| fail(text, e))?;
            let QueryOutput::Rows { rows, .. } = &out else {
                return Err(format!("`{text}`: not a row result"));
            };
            let [row] = rows.as_slice() else {
                return Err(format!("`{text}`: {} rows", rows.len()));
            };
            let vs = tr
                .span("core.current", || db.current_versions(row.atom))
                .map_err(|e| fail(text, e))?;
            let k = match vs.first().map(|v| v.tuple.get(0)) {
                Some(Value::Int(k)) => *k as u64,
                _ => return Err(format!("`{text}`: no current version")),
            };
            if !matches!(vs[0].tuple.get(1), Value::Int(v) if shadow.get(&k) == Some(v)) {
                return Err(format!(
                    "`{text}`: core read differs from the acknowledged value"
                ));
            }
            let wrapped = StatementOutput::Query(out);
            let back = tr.span("client.codec", || {
                proto::dec_output(&proto::enc_output(&wrapped))
            });
            match back {
                Ok(b) if b == wrapped => Ok(()),
                other => Err(format!("`{text}`: codec round trip gave {other:?}")),
            }
        })();
        tally.record(outcome);
    }
    let st = tr.stats();
    let g = |n: &str| st.get(n).copied().unwrap_or_default();
    for (name, span) in [
        ("query.parse_us", "query.parse"),
        ("query.plan_us", "query.plan"),
        ("query.exec_us", "query.exec"),
        ("core.current_us", "core.current"),
        ("client.codec_us", "client.codec"),
    ] {
        let s = g(span);
        report.put(name, "us", s.self_us(), Some(s.count as usize));
    }
    // Round trip of the ad-hoc point SELECTs in traced cycles, minus their
    // embedded parse + plan + exec.
    let rtt = tracer_point_rtt(tr);
    let embedded =
        g("query.parse").mean_us() + g("query.plan").mean_us() + g("query.exec").mean_us();
    report.put("server.wire_us", "us", rtt.0 - embedded, Some(rtt.1));
}

/// Mean `client.query` duration under `op.point` spans, with its count.
fn tracer_point_rtt(tr: &Tracer) -> (f64, usize) {
    let spans = tr.spans();
    let (mut sum, mut n) = (0u64, 0usize);
    for s in spans {
        if s.name == "client.query" && s.parent.is_some_and(|p| spans[p].name == "op.point") {
            sum += s.end_ns - s.start_ns;
            n += 1;
        }
    }
    (
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1_000.0
        },
        n,
    )
}
