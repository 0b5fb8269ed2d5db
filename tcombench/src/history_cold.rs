//! `history_cold`: the paper's temporal reads on data larger than the
//! buffer pool. Embedded, one thread, read-only after set-up.
//!
//! Set-up builds the University schema (`dept → emp → proj` molecule
//! type) and churns it to tens of versions per atom on a split store with
//! a pool several times smaller than the heaps. The timed phase is a
//! closed loop over a fixed cycle of `ASOF TT` full-type slices, HISTORY
//! reads, past-tt molecule materializations, non-indexed full-type scans
//! and indexed current point reads. Every answer is checked against the
//! generator's model: slice row counts, per-atom version counts, molecule
//! sizes, scan match counts and current values.

use crate::trace::Tracer;
use crate::{fail, Lat, LayerBase, Opts, Phase, Report, Rng, Scale, Tally};
use std::path::Path;
use std::time::Instant;
use tcom_core::{
    AtomId, AtomTypeId, AttrDef, AttrId, DataType, Database, DbConfig, Interval, MoleculeEdge,
    MoleculeTypeId, Result, StoreKind, SyncPolicy, TimePoint, Tuple, Value,
};
use tcom_query::{parse_statement, prepare_query, ExecOptions, QueryOutput, Statement};

struct Size {
    depts: usize,
    emps_per_dept: usize,
    projs: usize,
    rounds: usize,
    frames: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        // 1,000 emps + 1,000 projs churned over 32 rounds: ~3 MiB of
        // heap pages against a 1 MiB pool.
        Scale::Full => Size {
            depts: 20,
            emps_per_dept: 50,
            projs: 1000,
            rounds: 32,
            frames: 128,
        },
        Scale::Tiny => Size {
            depts: 4,
            emps_per_dept: 8,
            projs: 32,
            rounds: 6,
            frames: 64,
        },
    }
}

fn config(frames: usize) -> DbConfig {
    DbConfig::default()
        .store_kind(StoreKind::Split)
        .sync_policy(SyncPolicy::OnCommit)
        .buffer_frames(frames)
}

/// Distinct grades an employee can hold (the scan predicate's domain).
const GRADES: u64 = 8;

/// The generator's model of everything it wrote.
struct Model {
    emp_ty: AtomTypeId,
    mol: MoleculeTypeId,
    emps: Vec<AtomId>,
    emp_born: Vec<u64>,
    emp_versions: Vec<usize>,
    emp_salary: Vec<i64>,
    emp_grade: Vec<i64>,
    /// Per emp: `(tt, number of projects)` at every change.
    emp_works: Vec<Vec<(u64, usize)>>,
    depts: Vec<AtomId>,
    dept_born: Vec<u64>,
    dept_members: Vec<Vec<usize>>,
    /// Tuple bytes of every version written.
    user_bytes: u64,
    now: u64,
}

impl Model {
    fn works_at(&self, e: usize, tt: u64) -> usize {
        self.emp_works[e]
            .iter()
            .rev()
            .find(|(t, _)| *t <= tt)
            .map_or(0, |w| w.1)
    }

    fn emps_at(&self, tt: u64) -> usize {
        self.emp_born.iter().filter(|&&b| b <= tt).count()
    }

    fn molecule_size(&self, d: usize, tt: u64) -> usize {
        1 + self.dept_members[d]
            .iter()
            .map(|&e| 1 + self.works_at(e, tt))
            .sum::<usize>()
    }
}

fn pick_projs(rng: &mut Rng, projs: &[AtomId]) -> Vec<AtomId> {
    let n = 1 + rng.below(3) as usize;
    let mut out: Vec<AtomId> = Vec::new();
    while out.len() < n {
        let p = projs[rng.below(projs.len() as u64) as usize];
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

fn emp_tuple(name: &str, eno: usize, salary: i64, grade: i64, works: Vec<AtomId>) -> Tuple {
    Tuple::new(vec![
        Value::from(name.to_string()),
        Value::Int(eno as i64),
        Value::Int(salary),
        Value::Int(grade),
        Value::ref_set(works),
    ])
}

/// Frames the history is loaded with. Loading through the measured pool
/// fails for some seeds: committing one churn round (~1,900 updates) on a
/// 128-frame split store runs out of unpinned frames (README findings).
const LOAD_FRAMES: usize = 1024;

fn setup(dir: &Path, sz: &Size, seed: u64) -> Result<(Database, Model)> {
    let m = load(dir, sz, seed)?;
    Ok((Database::open(dir.join("db"), config(sz.frames))?, m))
}

/// One-row commits between the last set-up checkpoint and the crash image
/// that `recover_s` reopens.
const CRASH_TAIL: usize = 50;

/// Builds and churns the history, takes the crash image, then closes the
/// database cleanly.
fn load(dir: &Path, sz: &Size, seed: u64) -> Result<Model> {
    let db = Database::open(dir.join("db"), config(LOAD_FRAMES))?;
    let proj = db.define_atom_type(
        "proj",
        vec![
            AttrDef::new("title", DataType::Text),
            AttrDef::new("budget", DataType::Int).indexed(),
        ],
    )?;
    let emp = db.define_atom_type(
        "emp",
        vec![
            AttrDef::new("name", DataType::Text).not_null(),
            AttrDef::new("eno", DataType::Int).indexed(),
            AttrDef::new("salary", DataType::Int),
            AttrDef::new("grade", DataType::Int),
            AttrDef::new("works_on", DataType::RefSet(proj)),
        ],
    )?;
    let dept = db.define_atom_type(
        "dept",
        vec![
            AttrDef::new("name", DataType::Text).not_null(),
            AttrDef::new("dno", DataType::Int).indexed(),
            AttrDef::new("budget", DataType::Int),
            AttrDef::new("employs", DataType::RefSet(emp)),
        ],
    )?;
    let mol = db.define_molecule_type(
        "dept_mol",
        dept,
        vec![
            MoleculeEdge {
                from: dept,
                attr: AttrId(3),
                to: emp,
            },
            MoleculeEdge {
                from: emp,
                attr: AttrId(4),
                to: proj,
            },
        ],
        None,
    )?;
    let mut rng = Rng::new(seed, 1);
    // The history's shape (which atoms skip a round, project sets and
    // their sizes) is the same for every seed; the seed picks the values.
    // The shape sets the page layout, and with it how much of every read
    // misses a pool this small.
    let mut shape = Rng::new(0x5EED, 1);
    let mut user_bytes = 0u64;

    let mut txn = db.begin();
    let mut projs = Vec::new();
    let mut proj_cur = Vec::new();
    for i in 0..sz.projs {
        let t = Tuple::new(vec![
            Value::from(format!("proj-{i}")),
            Value::Int(10 + rng.below(990) as i64),
        ]);
        user_bytes += crate::tuple_bytes(&t);
        projs.push(txn.insert_atom(proj, Interval::all(), t.clone())?);
        proj_cur.push(t);
    }
    txn.commit()?;

    let n_emps = sz.depts * sz.emps_per_dept;
    let mut m = Model {
        emp_ty: emp,
        mol,
        emps: Vec::with_capacity(n_emps),
        emp_born: Vec::new(),
        emp_versions: Vec::new(),
        emp_salary: Vec::new(),
        emp_grade: Vec::new(),
        emp_works: Vec::new(),
        depts: Vec::new(),
        dept_born: Vec::new(),
        dept_members: Vec::new(),
        user_bytes: 0,
        now: 0,
    };
    let mut emp_cur: Vec<Tuple> = Vec::new();
    let mut dept_cur: Vec<Tuple> = Vec::new();
    for d in 0..sz.depts {
        let mut txn = db.begin();
        let mut members = Vec::new();
        let mut pending = Vec::new();
        for e in 0..sz.emps_per_dept {
            let eno = m.emps.len() + members.len();
            let works = pick_projs(&mut shape, &projs);
            let salary = 300 + rng.below(3000) as i64;
            let grade = rng.below(GRADES) as i64;
            let t = emp_tuple(&format!("emp-{d}-{e}"), eno, salary, grade, works.clone());
            user_bytes += crate::tuple_bytes(&t);
            let id = txn.insert_atom(emp, Interval::all(), t.clone())?;
            members.push(id);
            pending.push((id, salary, grade, works.len(), t));
        }
        let t = Tuple::new(vec![
            Value::from(format!("dept-{d}")),
            Value::Int(d as i64),
            Value::Int(1000 + rng.below(9000) as i64),
            Value::ref_set(members.clone()),
        ]);
        user_bytes += crate::tuple_bytes(&t);
        let did = txn.insert_atom(dept, Interval::all(), t.clone())?;
        let tt = txn.commit()?.0;
        let first = m.emps.len();
        for (id, salary, grade, works, t) in pending {
            m.emps.push(id);
            m.emp_born.push(tt);
            m.emp_versions.push(1);
            m.emp_salary.push(salary);
            m.emp_grade.push(grade);
            m.emp_works.push(vec![(tt, works)]);
            emp_cur.push(t);
        }
        m.depts.push(did);
        m.dept_born.push(tt);
        m.dept_members.push((first..m.emps.len()).collect());
        dept_cur.push(t);
    }

    // Churn: every round is one transaction that gives most atoms a new
    // version (each atom skips a round with probability 1/16).
    for _ in 0..sz.rounds {
        let mut txn = db.begin();
        let mut changed_works = Vec::new();
        let mut touched = Vec::new();
        for (e, t) in emp_cur.iter_mut().enumerate() {
            if shape.below(16) == 0 {
                continue;
            }
            m.emp_salary[e] += 1 + rng.below(100) as i64;
            t.set(2, Value::Int(m.emp_salary[e]));
            if rng.below(20) == 0 {
                m.emp_grade[e] = rng.below(GRADES) as i64;
                t.set(3, Value::Int(m.emp_grade[e]));
            }
            if shape.below(10) == 0 {
                let works = pick_projs(&mut shape, &projs);
                changed_works.push((e, works.len()));
                t.set(4, Value::ref_set(works));
            }
            user_bytes += crate::tuple_bytes(t);
            txn.update(m.emps[e], Interval::all(), t.clone())?;
            touched.push(e);
        }
        for (p, t) in proj_cur.iter_mut().enumerate() {
            if shape.below(16) == 0 {
                continue;
            }
            t.set(1, Value::Int(10 + rng.below(990) as i64));
            user_bytes += crate::tuple_bytes(t);
            txn.update(projs[p], Interval::all(), t.clone())?;
        }
        for (d, t) in dept_cur.iter_mut().enumerate() {
            t.set(2, Value::Int(1000 + rng.below(9000) as i64));
            user_bytes += crate::tuple_bytes(t);
            txn.update(m.depts[d], Interval::all(), t.clone())?;
        }
        let tt = txn.commit()?.0;
        for e in touched {
            m.emp_versions[e] += 1;
        }
        for (e, n) in changed_works {
            m.emp_works[e].push((tt, n));
        }
    }
    // The crash image `recover_s` reopens: a checkpoint, then a fixed tail
    // of one-row salary updates.
    db.checkpoint()?;
    for _ in 0..CRASH_TAIL {
        let e = shape.below(n_emps as u64) as usize;
        let t = &mut emp_cur[e];
        m.emp_salary[e] += 1 + rng.below(100) as i64;
        t.set(2, Value::Int(m.emp_salary[e]));
        user_bytes += crate::tuple_bytes(t);
        let mut txn = db.begin();
        txn.update(m.emps[e], Interval::all(), t.clone())?;
        txn.commit()?;
        m.emp_versions[e] += 1;
    }
    crate::capture_crash_image(&dir.join("db"), &dir.join("image"))?;
    m.user_bytes = user_bytes;
    m.now = db.now().0;
    Ok(m)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Slice,
    History,
    Molecule,
    Scan,
    Point,
}

/// One cycle of the closed loop. Fixed, so every run has the same mix.
/// A TQL HISTORY with a key predicate walks every atom's history (HISTORY
/// cannot use the current-value index), so it is one op per cycle; the
/// cheap point reads are many, so their p99 rests on enough samples.
const CYCLE: [Op; 24] = {
    use Op::*;
    [
        Slice, Point, Point, Point, History, Point, Point, Point, Molecule, Point, Point, Point,
        Scan, Point, Point, Point, Molecule, Point, Point, Point, Point, Point, Point, Point,
    ]
};

/// One op's generated input and expected answer.
struct Input {
    op: Op,
    text: String,
    /// Emp index (history, point), dept index (molecule), grade (scan).
    key: usize,
    tt: u64,
}

fn gen(op: Op, rng: &mut Rng, m: &Model) -> Input {
    let n_emps = m.emps.len() as u64;
    match op {
        Op::Slice => {
            let tt = 1 + rng.below(m.now);
            Input {
                op,
                text: format!("SELECT name, salary FROM emp ASOF TT {tt}"),
                key: 0,
                tt,
            }
        }
        Op::History => {
            let e = rng.below(n_emps) as usize;
            Input {
                op,
                text: format!("SELECT HISTORY FROM emp e WHERE e.eno = {e}"),
                key: e,
                tt: 0,
            }
        }
        Op::Molecule => {
            let d = rng.below(m.depts.len() as u64) as usize;
            let born = m.dept_born[d];
            let tt = born + rng.below(m.now - born + 1);
            Input {
                op,
                text: format!("SELECT MOLECULE FROM dept_mol WHERE root.dno = {d} ASOF TT {tt}"),
                key: d,
                tt,
            }
        }
        Op::Scan => {
            let g = rng.below(GRADES) as usize;
            Input {
                op,
                text: format!("SELECT name FROM emp WHERE grade = {g}"),
                key: g,
                tt: 0,
            }
        }
        Op::Point => {
            // Uniform keys: the median point read stays a pool miss. With
            // hot keys it sat between the hit and the miss cost, and moved
            // by half between seeds.
            let e = rng.below(n_emps) as usize;
            Input {
                op,
                text: format!("SELECT name, salary FROM emp WHERE eno = {e}"),
                key: e,
                tt: 0,
            }
        }
    }
}

/// Checks a query answer against the model; returns rows returned.
fn check(inp: &Input, out: &QueryOutput, m: &Model) -> std::result::Result<u64, String> {
    let bad = |what: String| Err(format!("{:?} `{}`: {what}", inp.op, inp.text));
    match (inp.op, out) {
        (Op::Slice, QueryOutput::Rows { rows, .. }) => {
            let want = m.emps_at(inp.tt);
            if rows.len() != want {
                return bad(format!("{} rows, model has {want}", rows.len()));
            }
            Ok(rows.len() as u64)
        }
        (Op::History, QueryOutput::Histories(h)) => {
            let want = m.emp_versions[inp.key];
            match h.as_slice() {
                [(atom, vs)] if *atom == m.emps[inp.key] && vs.len() == want => Ok(vs.len() as u64),
                _ => bad(format!(
                    "history shape {:?}, model has {want} versions",
                    h.iter().map(|x| x.1.len()).collect::<Vec<_>>()
                )),
            }
        }
        (Op::Molecule, QueryOutput::Molecules(ms)) => {
            let want = m.molecule_size(inp.key, inp.tt);
            match ms.as_slice() {
                [mol] if mol.size() == want => Ok(want as u64),
                _ => bad(format!(
                    "molecule sizes {:?}, model has {want}",
                    ms.iter().map(|x| x.size()).collect::<Vec<_>>()
                )),
            }
        }
        (Op::Scan, QueryOutput::Rows { rows, .. }) => {
            let want = m.emp_grade.iter().filter(|&&g| g == inp.key as i64).count();
            if rows.len() != want {
                return bad(format!("{} rows, model has {want}", rows.len()));
            }
            Ok(rows.len() as u64)
        }
        (Op::Point, QueryOutput::Rows { rows, .. }) => match rows.as_slice() {
            [r] if r.values.get(1) == Some(&Value::Int(m.emp_salary[inp.key])) => Ok(1),
            _ => bad(format!(
                "rows {rows:?}, model salary {}",
                m.emp_salary[inp.key]
            )),
        },
        _ => bad("wrong output kind".to_string()),
    }
}

/// Runs one op through TQL; traced, it splits into parse, plan and exec.
fn run_op(db: &Database, inp: &Input, tr: &mut Tracer) -> Result<QueryOutput> {
    if !tr.is_on() {
        return tcom_query::execute(db, &inp.text);
    }
    let stmt = tr.span("query.parse", || parse_statement(&inp.text))?;
    let Statement::Select(q) = stmt else {
        return Err(tcom_core::Error::query("not a SELECT"));
    };
    let p = tr.span("query.plan", || {
        prepare_query(db, q, ExecOptions::default())
    })?;
    tr.span("query.exec", || p.run(db))
}

/// The same input answered by direct core calls (traced run only).
fn probe(
    db: &Database,
    inp: &Input,
    m: &Model,
    tr: &mut Tracer,
) -> std::result::Result<(), String> {
    let bad = |what: String| Err(format!("core probe {:?}: {what}", inp.op));
    match inp.op {
        Op::Slice => {
            let mut seen = 0;
            let s = tr.enter("core.slice");
            for &a in &m.emps {
                if !db
                    .versions_at(a, TimePoint(inp.tt))
                    .map_err(|e| fail("versions_at", e))?
                    .is_empty()
                {
                    seen += 1;
                }
            }
            tr.exit(s);
            if seen != m.emps_at(inp.tt) {
                return bad(format!("{seen} atoms visible"));
            }
        }
        Op::History => {
            let h = tr.span("core.history", || db.history(m.emps[inp.key]));
            let n = h.map_err(|e| fail("history", e))?.len();
            if n != m.emp_versions[inp.key] {
                return bad(format!("{n} versions"));
            }
        }
        Op::Molecule => {
            let mol = tr.span("core.molecule", || {
                db.materialize(m.mol, m.depts[inp.key], TimePoint(inp.tt), TimePoint(0))
            });
            let size = mol
                .map_err(|e| fail("materialize", e))?
                .map_or(0, |x| x.size());
            if size != m.molecule_size(inp.key, inp.tt) {
                return bad(format!("size {size}"));
            }
        }
        Op::Scan => {
            let mut hits = 0;
            let s = tr.enter("core.scan");
            db.scan_current(m.emp_ty, TimePoint(0), |_, v| {
                hits += (v.tuple.get(3) == &Value::Int(inp.key as i64)) as usize;
                Ok(true)
            })
            .map_err(|e| fail("scan_current", e))?;
            tr.exit(s);
            if hits != m.emp_grade.iter().filter(|&&g| g == inp.key as i64).count() {
                return bad(format!("{hits} matches"));
            }
        }
        Op::Point => {
            let vs = tr.span("core.current", || db.current_versions(m.emps[inp.key]));
            let vs = vs.map_err(|e| fail("current_versions", e))?;
            if vs.len() != 1 || vs[0].tuple.get(2) != &Value::Int(m.emp_salary[inp.key]) {
                return bad("current version differs from the model".into());
            }
        }
    }
    Ok(())
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Slice => "op.slice",
        Op::History => "op.history",
        Op::Molecule => "op.molecule",
        Op::Scan => "op.scan",
        Op::Point => "op.point",
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report> {
    let sz = size(opts.scale);
    let (built, dir, setup_s) =
        crate::timed_setups(opts, crate::setup_repeats(opts.scale), |dir| {
            setup(dir, &sz, opts.seed)
        })?;
    let (db, m) = built;
    let mut report = Report::default();
    report.put(
        "setup_s",
        "s",
        setup_s,
        Some(crate::setup_repeats(opts.scale)),
    );
    let dbdir = dir.join("db");
    let image = dir.join("image");
    let data_bytes = crate::dir_bytes(&dbdir);
    let heap_pages: u64 = db.store_stats()?.iter().map(|(_, s)| s.heap_pages).sum();
    report.meta("store", "split");
    report.meta("flush", "OnCommit (read-only after set-up)");
    report.meta("pool_frames", sz.frames);
    report.meta("data_pages", data_bytes / 8192);
    report.meta("heap_pages", heap_pages);
    report.meta("atoms", m.emps.len() * 2 + m.depts.len());
    report.meta(
        "versions",
        db.store_stats()?
            .iter()
            .map(|(_, s)| s.versions)
            .sum::<u64>(),
    );

    // Timed phase. A traced run traces a random half of the cycles (the
    // difference to the other half is the tracing overhead) and keeps a
    // fifth of the time for the core-level probes.
    let mut rng = Rng::new(opts.seed, 2);
    let mut tally = Tally::default();
    let mut lat: [Lat; 5] = Default::default();
    let mut tr = Tracer::new(0);
    let mut cycle_ns = [Lat::default(), Lat::default()];
    let mut rows = 0u64;
    let mut histories = 0u64;
    let phase = Phase::start(&db);
    let budget = if opts.trace { 0.8 } else { 1.0 };
    let timed = Opts {
        seconds: opts.seconds * budget,
        ..opts.clone()
    };
    let start = Instant::now();
    let mut coin = crate::trace_coin(opts.seed);
    while timed.keep_going(start, tally.attempted) {
        let traced = opts.trace && coin.below(2) == 1;
        tr.set(traced);
        let c0 = Instant::now();
        for &op in &CYCLE {
            let inp = gen(op, &mut rng, &m);
            tr.new_op();
            let span = tr.enter(op_name(op));
            let t0 = Instant::now();
            let out = run_op(&db, &inp, &mut tr);
            let took = t0.elapsed();
            tr.exit(span);
            let outcome = match out {
                Ok(out) => check(&inp, &out, &m).map(|n| {
                    rows += n;
                }),
                Err(e) => Err(fail(&inp.text, e)),
            };
            histories += (op == Op::History) as u64;
            let slot = &mut lat[op as usize];
            if tally.record(outcome) {
                slot.push(took);
            } else {
                slot.push_failed();
            }
        }
        cycle_ns[traced as usize].push(c0.elapsed());
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.put("peak_rss_mib", "MiB", crate::peak_rss_mib(), None);
    let ops = tally.attempted;
    let d = phase.delta(&db);
    crate::put_counts(&mut report, &d);
    let base = LayerBase {
        ops,
        commits: 0,
        rows,
        histories,
        reads: ops,
        user_bytes: 0,
        retries: 0,
    };

    if opts.trace {
        crate::put_counter_layers(&mut report, &db, &phase, &base);
        // Core-level probes: the same kind of inputs answered by direct
        // calls into `tcom-core`.
        tr.set(true);
        let pstart = Instant::now();
        let mut i = 0usize;
        while pstart.elapsed().as_secs_f64() < opts.seconds * (1.0 - budget) || i < CYCLE.len() {
            let inp = gen(CYCLE[i % CYCLE.len()], &mut rng, &m);
            tr.new_op();
            tally.record(probe(&db, &inp, &m, &mut tr));
            i += 1;
            if opts.max_ops.is_some() && i >= CYCLE.len() {
                break;
            }
        }
        let st = tr.stats();
        let g = |n: &str| st.get(n).copied().unwrap_or_default();
        let n_emps = m.emps.len() as f64;
        for (name, span) in [
            ("query.parse_us", "query.parse"),
            ("query.plan_us", "query.plan"),
            ("query.exec_us", "query.exec"),
            ("core.current_us", "core.current"),
            ("core.history_us", "core.history"),
            ("core.molecule_us", "core.molecule"),
        ] {
            let s = g(span);
            report.put(name, "us", s.self_us(), Some(s.count as usize));
        }
        let s = g("core.slice");
        report.put(
            "core.slice_us_per_atom",
            "us",
            s.self_us() / n_emps,
            Some(s.count as usize),
        );
        let s = g("core.scan");
        report.put(
            "core.scan_us_per_atom",
            "us",
            s.self_us() / n_emps,
            Some(s.count as usize),
        );
        // No replication here: the layer reads as idle.
        report.put("repl.bytes_per_txn", "B", 0.0, Some(0));
        let (plain, traced) = (cycle_ns[0].mean_us(), cycle_ns[1].mean_us());
        report.put(
            "trace.overhead_pct",
            "%",
            if plain > 0.0 {
                (traced / plain - 1.0) * 100.0
            } else {
                0.0
            },
            Some(cycle_ns[1].n()),
        );
        let _ = tr.write(
            &opts
                .work_dir
                .join(format!("spans-history_cold-{}.tsv", opts.seed)),
        );
    }

    report.put("ops_per_s", "1/s", ops as f64 / elapsed, Some(ops as usize));
    let [slice, hist, mol, scan, point] = &lat;
    report.put("point_p50_us", "us", point.pct_us(50.0), Some(point.n()));
    report.put("point_p99_us", "us", point.pct_us(99.0), Some(point.n()));
    report.put("history_p50_us", "us", hist.pct_us(50.0), Some(hist.n()));
    report.put("slice_p50_us", "us", slice.pct_us(50.0), Some(slice.n()));
    report.put("molecule_p50_us", "us", mol.pct_us(50.0), Some(mol.n()));
    let scan_p50 = scan.pct_us(50.0);
    report.put(
        "scan_rows_per_s",
        "1/s",
        if scan_p50 > 0.0 {
            m.emps.len() as f64 / (scan_p50 / 1e6)
        } else {
            0.0
        },
        Some(scan.n()),
    );
    report.put(
        "space_amp",
        "ratio",
        crate::dir_bytes(&dbdir) as f64 / m.user_bytes as f64,
        None,
    );

    // Crash, reopen, and check the reopened store still holds the modeled
    // history.
    let (db, recover_end_s) = crate::crash_and_reopen(db, &dbdir, config(sz.frames))?;
    report.put("recover_end_s", "s", recover_end_s, Some(1));
    // Replay on the measured 128-frame pool stalls (README findings), so
    // the crash image is reopened with the pool it was loaded with.
    crate::put_recovery(&mut report, opts, &image, config(LOAD_FRAMES), 5)?;
    let e = rng.below(m.emps.len() as u64) as usize;
    let after = db.history(m.emps[e]).map(|h| h.len());
    tally.record(match after {
        Ok(n) if n == m.emp_versions[e] => Ok(()),
        other => Err(format!(
            "after reopen: history of emp {e} is {other:?}, model has {}",
            m.emp_versions[e]
        )),
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    tally.finish(&mut report);
    Ok(report)
}
