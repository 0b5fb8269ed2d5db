//! Crash-recovery matrix over the deterministic fault-injection VFS.
//!
//! A fixed multi-transaction temporal workload is first executed against an
//! unarmed [`FaultVfs`] (the *golden* run) to learn the exact sequence of
//! mutation I/O operations and the engine state after every acked commit.
//! Then, for every mutation-op index in the workload window, the run is
//! repeated with a power cut armed at that index: the VFS discards every
//! byte written since the last per-file sync, the database is reopened on
//! the surviving bytes, and recovery must land on exactly the state after
//! `acked` or `acked + 1` commits (the `+1` case is a commit whose WAL
//! frame became durable but whose post-commit work died) — never anything
//! else, never a torn hybrid, never an uncommitted write.
//!
//! `TCOM_CRASH_SAMPLE=k` strides the matrix (test every k-th op index) to
//! bound CI wall-clock; the default tests every single crash point.

use std::path::PathBuf;
use std::sync::Arc;
use tcom_core::{
    AtomId, AtomTypeId, AttrDef, DataType, Database, DbConfig, Fault, FaultVfs, Interval,
    StoreKind, SyncPolicy, TimePoint, Tuple, Value,
};

/// Transactions in the workload. Sized so the mutation-op window
/// comfortably exceeds the 50-crash-point floor for every store kind.
const NUM_TXNS: usize = 12;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-recov-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn cfg(kind: StoreKind) -> DbConfig {
    // A small checkpoint interval forces the double-write journal and the
    // WAL reset into the crash window several times per run.
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(128)
        .sync_policy(SyncPolicy::OnCommit)
        .checkpoint_interval(4)
}

fn setup(db: &Database) -> AtomTypeId {
    db.define_atom_type(
        "emp",
        vec![
            AttrDef::new("salary", DataType::Int).indexed(),
            AttrDef::new("note", DataType::Text),
        ],
    )
    .unwrap()
}

fn tup(salary: i64, note: &str) -> Tuple {
    Tuple::new(vec![Value::Int(salary), Value::from(note)])
}

/// Executes transaction `k` of the deterministic workload. The op mix
/// covers inserts, bitemporal updates (splitting + coalescing), and
/// logical deletes over varied valid-time intervals.
fn run_txn(
    db: &Database,
    ty: AtomTypeId,
    k: usize,
    atoms: &mut Vec<AtomId>,
) -> tcom_core::Result<TimePoint> {
    let mut txn = db.begin();
    if k == 0 {
        for i in 0..3 {
            let a = txn.insert_atom(ty, Interval::all(), tup(100 + i, "init"))?;
            atoms.push(a);
        }
    } else {
        let a = atoms[k % atoms.len()];
        let lo = (k as u64 * 7) % 90;
        match k % 3 {
            1 => {
                let vt = Interval::new(TimePoint(lo), TimePoint(lo + 15)).unwrap();
                txn.update(a, vt, tup(1000 + k as i64, "upd"))?;
            }
            2 => {
                let vt = Interval::new(TimePoint(lo + 2), TimePoint(lo + 7)).unwrap();
                txn.delete(a, vt)?;
            }
            _ => {
                let vt = Interval::from_start(TimePoint(100 + k as u64));
                let b = txn.insert_atom(ty, vt, tup(2000 + k as i64, "ins"))?;
                atoms.push(b);
            }
        }
    }
    txn.commit()
}

/// Full bitemporal dump of every atom of `ty`: one line per recorded
/// version with its exact vt/tt coordinates and tuple. Sorted, so two
/// dumps are comparable regardless of replay order.
fn dump(db: &Database, ty: AtomTypeId) -> Vec<String> {
    let mut out = Vec::new();
    for atom in db.all_atoms(ty).unwrap() {
        for v in db.history(atom).unwrap() {
            out.push(format!(
                "{atom} vt={} tt={} tuple={:?}",
                v.vt, v.tt, v.tuple
            ));
        }
    }
    out.sort();
    out
}

struct Golden {
    /// Mutation-op count after open + DDL (start of the crash window).
    op_base: u64,
    /// Mutation-op count after the last commit (end of the crash window).
    op_end: u64,
    /// `snapshots[k]` = full dump after `k` acked commits.
    snapshots: Vec<Vec<String>>,
}

fn golden_run(kind: StoreKind, tag: &str) -> Golden {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    let op_base = vfs.mut_ops();
    let mut atoms = Vec::new();
    let mut snapshots = vec![dump(&db, ty)];
    for k in 0..NUM_TXNS {
        run_txn(&db, ty, k, &mut atoms).unwrap();
        snapshots.push(dump(&db, ty));
    }
    let op_end = vfs.mut_ops();
    db.crash();
    let _ = std::fs::remove_dir_all(&dir);
    Golden {
        op_base,
        op_end,
        snapshots,
    }
}

struct CrashOutcome {
    acked: usize,
    fingerprint: u64,
    ops_at_crash: u64,
}

/// One cell of the matrix: arm a power cut at mutation-op `j`, run the
/// workload until it dies, reopen on the surviving bytes, and check the
/// recovery invariants.
fn run_crash_point(kind: StoreKind, g: &Golden, j: u64, tag: &str) -> CrashOutcome {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    assert_eq!(
        vfs.mut_ops(),
        g.op_base,
        "setup I/O must be deterministic (crash point {j})"
    );
    vfs.power_cut_at(j);

    let mut atoms = Vec::new();
    let mut acked = 0usize;
    for k in 0..NUM_TXNS {
        match run_txn(&db, ty, k, &mut atoms) {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    db.crash();
    assert!(
        vfs.crashed(),
        "power cut armed at op {j} inside the window must fire"
    );
    let fingerprint = vfs.durable_fingerprint();
    let ops_at_crash = vfs.mut_ops();

    // Reopen on exactly the durable bytes; recovery runs inside open.
    vfs.reset_after_crash();
    let db = Database::open_with_vfs(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let got = dump(&db, ty);

    // Invariant: recovered state is the exact post-commit snapshot for
    // `acked` commits — or `acked + 1` when the dying commit's WAL frame
    // reached durability before the cut. Nothing in between, nothing else.
    let exact = got == g.snapshots[acked];
    let one_ahead = acked + 1 < g.snapshots.len() && got == g.snapshots[acked + 1];
    assert!(
        exact || one_ahead,
        "crash at op {j}: recovered state matches neither S_{} nor S_{}\n\
         acked={acked}\ngot:\n  {}\nwant S_{}:\n  {}",
        acked,
        acked + 1,
        got.join("\n  "),
        acked,
        g.snapshots[acked].join("\n  "),
    );

    // Structural invariant: stores, indexes, and time indexes agree.
    let report = db.verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "crash at op {j}: integrity violations after recovery: {:?}",
        report.violations
    );

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    CrashOutcome {
        acked,
        fingerprint,
        ops_at_crash,
    }
}

fn crash_sample() -> u64 {
    std::env::var("TCOM_CRASH_SAMPLE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&k| k >= 1)
        .unwrap_or(1)
}

fn crash_matrix(kind: StoreKind, tag: &str) {
    let g = golden_run(kind, &format!("{tag}-golden"));
    let window = g.op_end - g.op_base;
    assert!(
        window >= 50,
        "workload must expose at least 50 crash points, got {window}"
    );
    let step = crash_sample();
    let mut tested = 0u64;
    let mut j = g.op_base;
    while j < g.op_end {
        run_crash_point(kind, &g, j, &format!("{tag}-p{j}"));
        tested += 1;
        j += step;
    }
    eprintln!("crash matrix [{tag}]: {tested} crash points over a window of {window} mutation ops");
}

#[test]
fn crash_matrix_split() {
    crash_matrix(StoreKind::Split, "split");
}

#[test]
fn crash_matrix_chain() {
    crash_matrix(StoreKind::Chain, "chain");
}

#[test]
fn crash_matrix_delta() {
    crash_matrix(StoreKind::Delta, "delta");
}

/// Same seed + same schedule ⇒ same failure, same acked prefix, and
/// bit-identical durable file images.
#[test]
fn fault_injection_is_deterministic() {
    let g = golden_run(StoreKind::Split, "det-golden");
    let j = g.op_base + (g.op_end - g.op_base) / 2;
    let a = run_crash_point(StoreKind::Split, &g, j, "det-run");
    let b = run_crash_point(StoreKind::Split, &g, j, "det-run");
    assert_eq!(a.acked, b.acked, "acked commit count must be reproducible");
    assert_eq!(
        a.ops_at_crash, b.ops_at_crash,
        "op counter at crash must be reproducible"
    );
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "durable bytes after the crash must be bit-identical across runs"
    );
}

// ---- group-commit batch crash matrix ----
//
// Group commit batches multiple commits' WAL records between fsyncs. The
// engine stages each commit's records under the `wal_order` mutex at the
// moment its transaction time is drawn, so WAL byte order always equals
// transaction-time order — which is what makes a torn batch recover to a
// *prefix* of the batch, never an interior subset. This matrix simulates
// losing an arbitrary tail of a multi-transaction batch: under
// `SyncPolicy::OnCheckpoint` no commit fsyncs, so the whole workload is
// one unsynced batch, and a power cut at mutation-op `j` discards every
// WAL byte written after the last sync. Recovery must land on *exactly*
// `snapshots[m]` for some batch prefix length `m` — a commit may only be
// durable if every earlier commit is too.

fn batch_cfg(kind: StoreKind) -> DbConfig {
    // No per-commit fsync and no auto-checkpoint: every commit of the
    // workload joins one open WAL batch. A large pool keeps the no-steal
    // pressure flush out of the window, so *only* WAL bytes are at risk.
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(1024)
        .sync_policy(SyncPolicy::OnCheckpoint)
        .checkpoint_interval(0)
}

/// Transaction `k` of the batch workload: inserts one atom whose tuple
/// holds `k`, so every prefix of the batch has a distinct, recognizable
/// dump.
fn run_batch_txn(db: &Database, ty: AtomTypeId, k: usize) -> tcom_core::Result<TimePoint> {
    let mut txn = db.begin();
    txn.insert_atom(ty, Interval::all(), tup(3000 + k as i64, "batch"))?;
    txn.commit()
}

const BATCH_TXNS: usize = 32;

fn batch_golden(kind: StoreKind, tag: &str) -> Golden {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, batch_cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    let op_base = vfs.mut_ops();
    let mut snapshots = vec![dump(&db, ty)];
    for k in 0..BATCH_TXNS {
        run_batch_txn(&db, ty, k).unwrap();
        snapshots.push(dump(&db, ty));
    }
    let op_end = vfs.mut_ops();
    db.crash();
    let _ = std::fs::remove_dir_all(&dir);
    Golden {
        op_base,
        op_end,
        snapshots,
    }
}

/// One cell: cut the power at op `j` mid-batch, reopen, and demand that
/// recovery kept exactly a prefix of the batch's commits.
fn run_batch_crash_point(kind: StoreKind, g: &Golden, j: u64, tag: &str) {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, batch_cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    assert_eq!(vfs.mut_ops(), g.op_base, "batch setup I/O deterministic");
    vfs.power_cut_at(j);

    let mut acked = 0usize;
    for k in 0..BATCH_TXNS {
        match run_batch_txn(&db, ty, k) {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    db.crash();
    assert!(vfs.crashed(), "cut at op {j} inside the window must fire");

    vfs.reset_after_crash();
    let db = Database::open_with_vfs(&dir, batch_cfg(kind), Arc::new(vfs.clone())).unwrap();
    let got = dump(&db, ty);

    // Exactly-a-prefix: the recovered dump must equal snapshots[m] for
    // some m — commit m+1 durable without commit m would be an interior
    // subset and match nothing.
    let prefix_len = g.snapshots.iter().position(|s| *s == got);
    assert!(
        prefix_len.is_some(),
        "batch crash at op {j} (acked={acked}): recovered state is not a \
         batch prefix\ngot:\n  {}",
        got.join("\n  "),
    );
    // Unsynced batch: durability can never exceed what the workload acked.
    let m = prefix_len.unwrap();
    assert!(
        m <= acked + 1,
        "batch crash at op {j}: {m} commits recovered but only {acked} acked"
    );
    let report = db.verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "batch crash at op {j}: integrity violations: {:?}",
        report.violations
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

fn batch_crash_matrix(kind: StoreKind, tag: &str) {
    let g = batch_golden(kind, &format!("{tag}-golden"));
    let window = g.op_end - g.op_base;
    assert!(
        window >= 30,
        "batch workload must expose at least 30 crash points, got {window}"
    );
    let step = crash_sample();
    let mut tested = 0u64;
    let mut j = g.op_base;
    while j < g.op_end {
        run_batch_crash_point(kind, &g, j, &format!("{tag}-p{j}"));
        tested += 1;
        j += step;
    }
    eprintln!("batch crash matrix [{tag}]: {tested} crash points over {window} ops");
}

#[test]
fn batch_crash_matrix_split() {
    batch_crash_matrix(StoreKind::Split, "batch-split");
}

#[test]
fn batch_crash_matrix_chain() {
    batch_crash_matrix(StoreKind::Chain, "batch-chain");
}

#[test]
fn batch_crash_matrix_delta() {
    batch_crash_matrix(StoreKind::Delta, "batch-delta");
}

/// A transient write failure (no power cut) fails the in-flight commit but
/// leaves the engine consistent and usable: the failed transaction's
/// writes stay invisible and later transactions proceed normally.
#[test]
fn transient_write_failure_fails_commit_cleanly() {
    let dir = tmpdir("transient");
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(StoreKind::Split), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);

    let mut txn = db.begin();
    let atom = txn
        .insert_atom(ty, Interval::all(), tup(500, "base"))
        .unwrap();
    txn.commit().unwrap();

    // Fail the very next mutation op: the first WAL append of the commit.
    let mut sched = tcom_core::FaultSchedule::default();
    sched.on_mutation.insert(vfs.mut_ops(), Fault::FailWrite);
    vfs.set_schedule(sched);
    let mut txn = db.begin();
    txn.update(atom, Interval::all(), tup(999, "lost")).unwrap();
    assert!(
        txn.commit().is_err(),
        "commit must surface the injected write failure"
    );
    assert!(!vfs.crashed(), "a failed write is transient, not a crash");

    // The failed update is invisible and the engine still works.
    let t = db.current_tuple(atom, TimePoint(5)).unwrap().unwrap();
    assert_eq!(t.values()[0], Value::Int(500));
    let mut txn = db.begin();
    txn.update(atom, Interval::all(), tup(777, "ok")).unwrap();
    txn.commit().unwrap();
    let t = db.current_tuple(atom, TimePoint(5)).unwrap().unwrap();
    assert_eq!(t.values()[0], Value::Int(777));
    assert!(db.verify_integrity().unwrap().is_ok());

    // And the failed txn stays invisible across a clean reopen.
    drop(db);
    let db = Database::open_with_vfs(&dir, cfg(StoreKind::Split), Arc::new(vfs.clone())).unwrap();
    let t = db.current_tuple(atom, TimePoint(5)).unwrap().unwrap();
    assert_eq!(t.values()[0], Value::Int(777));
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- recovery under buffer-pool pressure ----
//
// A small no-steal pool bounds how many pages may be dirty at once, and
// recovery dirties pages in three phases: WAL replay, the value-index and
// time-index rebuilds, and the closing checkpoint. Each phase must flush
// at pressure points instead of running the pool dry, and a power cut in
// any of them must leave an image the next open recovers from — in
// particular a half-written index rebuild, which the next open must redo
// even though its replay finds every primitive already applied.

const PRESSURE_FRAMES: usize = 128;

fn pressure_cfg() -> DbConfig {
    DbConfig::default()
        .store_kind(StoreKind::Split)
        .buffer_frames(PRESSURE_FRAMES)
        .sync_policy(SyncPolicy::OnCommit)
        .checkpoint_interval(0)
}

/// Indexed attributes of the pressure workload's type. Enough index
/// entries that rebuilding them dirties more than half the pool, so the
/// rebuild itself must flush — and can be cut by a power failure.
const PRESSURE_INDEXES: usize = 5;

fn pressure_tuple(n: i64) -> Tuple {
    let mut vals: Vec<Value> = (0..PRESSURE_INDEXES as i64)
        .map(|i| Value::Int((n * 7919 + i * 104_729) % 1_000_003))
        .collect();
    vals.push(Value::from(format!("{n:0>60}")));
    Tuple::new(vals)
}

/// Builds the crash image: 4,000 atoms checkpointed, then a WAL tail of
/// update transactions larger than the whole pool, and a crash before any
/// checkpoint covers it. The image is written through a pool large enough
/// that the tail never flushes, so recovery on the small pool has to
/// replay all of it. Returns the image and the expected dump.
fn pressure_image(dir: &std::path::Path) -> (FaultVfs, AtomTypeId, Vec<String>) {
    let vfs = FaultVfs::new();
    let big_pool = pressure_cfg().buffer_frames(8192);
    let db = Database::open_with_vfs(dir, big_pool, Arc::new(vfs.clone())).unwrap();
    let mut attrs: Vec<AttrDef> = (0..PRESSURE_INDEXES)
        .map(|i| AttrDef::new(format!("k{i}"), DataType::Int).indexed())
        .collect();
    attrs.push(AttrDef::new("note", DataType::Text));
    let ty = db.define_atom_type("wide", attrs).unwrap();
    let mut atoms = Vec::new();
    for chunk in 0..80 {
        let mut txn = db.begin();
        for i in 0..50 {
            let n = chunk * 50 + i;
            atoms.push(
                txn.insert_atom(ty, Interval::all(), pressure_tuple(n))
                    .unwrap(),
            );
        }
        txn.commit().unwrap();
    }
    db.checkpoint().unwrap();
    for round in 0..3i64 {
        for (c, chunk) in atoms.chunks(50).enumerate() {
            let mut txn = db.begin();
            for (i, a) in chunk.iter().enumerate() {
                let n = 10_000 * (round + 1) + (c * 50 + i) as i64;
                txn.update(*a, Interval::all(), pressure_tuple(n)).unwrap();
            }
            txn.commit().unwrap();
        }
    }
    assert!(
        db.wal_len() > (PRESSURE_FRAMES * 8192) as u64,
        "the WAL tail must outgrow the pool ({} bytes)",
        db.wal_len()
    );
    let want = dump(&db, ty);
    db.crash();
    vfs.reset_after_crash();
    (vfs, ty, want)
}

/// Opens on `vfs` in a helper thread; `None` when it did not return in
/// time (a failed open must report its error, never hang). The thread is
/// detached on purpose: a hung open cannot be joined.
fn open_bounded(dir: &std::path::Path, vfs: &FaultVfs) -> Option<tcom_core::Result<Database>> {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let (dir, vfs) = (dir.to_path_buf(), vfs.clone());
    std::thread::spawn(move || {
        let _ = tx.send(Database::open_with_vfs(&dir, pressure_cfg(), Arc::new(vfs)));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(r) => Some(r),
        Err(RecvTimeoutError::Timeout) => None,
        Err(RecvTimeoutError::Disconnected) => panic!("open panicked"),
    }
}

/// The time index answers every `ASOF TT` slice exactly like per-atom
/// chain walks, and the value index agrees with the stores.
fn assert_indexes_equivalent(db: &Database, ty: AtomTypeId, ctx: &str) {
    let atoms = db.all_atoms(ty).unwrap();
    let now = db.now().0;
    let mut tts: Vec<TimePoint> = (0..=4).map(|q| TimePoint(1 + (now - 1) * q / 4)).collect();
    tts.push(TimePoint::FOREVER);
    for tt in tts {
        let mut sliced = Vec::new();
        db.slice_at(ty, tt, &mut |no, vs| {
            sliced.push((no, vs));
            Ok(true)
        })
        .unwrap();
        let walk_tt = if tt.is_forever() { db.now() } else { tt };
        let walked: Vec<_> = atoms
            .iter()
            .map(|a| (a.no, db.versions_at(*a, walk_tt).unwrap()))
            .filter(|(_, vs)| !vs.is_empty())
            .collect();
        assert!(
            sliced == walked,
            "{ctx}: time-index slice at {tt:?} differs"
        );
    }
    let report = db.verify_integrity().unwrap();
    assert!(report.is_ok(), "{ctx}: {:?}", report.violations);
}

#[test]
fn recovery_under_pool_pressure_survives_power_cuts() {
    let dir = tmpdir("pressure");
    let (image, ty, want) = pressure_image(&dir);

    // Unfaulted reopen: the window of mutation ops recovery performs.
    let golden = image.fork();
    let start = golden.mut_ops();
    let db = open_bounded(&dir, &golden)
        .expect("recovery hung")
        .expect("recovery on a pressured pool must succeed");
    let end = golden.mut_ops();
    assert_eq!(dump(&db, ty), want);
    assert_indexes_equivalent(&db, ty, "golden");
    drop(db);
    assert!(end - start > 100, "recovery must flush under pressure");

    // Power cuts spread over replay, the index rebuilds and the final
    // checkpoint; every reopen after the cut must recover the same state.
    let points = (24 / crash_sample()).max(8);
    let step = ((end - start) / points).max(1);
    let mut j = start + step / 2;
    while j < end {
        let vfs = image.fork();
        vfs.power_cut_at(j);
        match open_bounded(&dir, &vfs).expect("a failed open must return, not hang") {
            Ok(db) => panic!("open survived a power cut at op {j}: {}", db.now()),
            Err(_) => assert!(vfs.crashed(), "cut at op {j} must fire"),
        }
        vfs.reset_after_crash();
        let db = open_bounded(&dir, &vfs)
            .expect("recovery hung")
            .unwrap_or_else(|e| panic!("reopen after a cut at op {j} failed: {e}"));
        assert!(
            dump(&db, ty) == want,
            "cut at op {j}: recovered state differs"
        );
        assert_indexes_equivalent(&db, ty, &format!("cut at op {j}"));
        drop(db);
        j += step;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An I/O error during replay makes `open` return that error promptly:
/// the half-recovered database must not run its shutdown checkpoint,
/// which would wait forever for commits recovery never published.
#[test]
fn failed_open_returns_its_error() {
    let dir = tmpdir("open-err");
    let (image, ty, want) = pressure_image(&dir);
    let golden = image.fork();
    let start = golden.mut_ops();
    drop(open_bounded(&dir, &golden).unwrap().unwrap());
    let end = golden.mut_ops();
    // A tenth into the window, replay of a WAL tail larger than the pool
    // is still flushing; from there on every write fails.
    let vfs = image.fork();
    let mut sched = tcom_core::FaultSchedule::default();
    for op in start + (end - start) / 10..end + 64 {
        sched.on_mutation.insert(op, Fault::FailWrite);
    }
    vfs.set_schedule(sched);
    let r = open_bounded(&dir, &vfs).expect("open must return instead of hanging in its drop");
    assert!(
        matches!(r, Err(tcom_core::Error::FaultInjected(_))),
        "{:?}",
        r.map(|db| db.now())
    );
    // With the faults gone the same image recovers normally.
    vfs.set_schedule(tcom_core::FaultSchedule::default());
    let db = open_bounded(&dir, &vfs).unwrap().unwrap();
    assert!(dump(&db, ty) == want);
    assert_indexes_equivalent(&db, ty, "after a failed open");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
