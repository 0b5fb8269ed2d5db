//! Keyed DML through the value index.
//!
//! `UPDATE` and `DELETE` find their targets the way a keyed `SELECT` does:
//! they take the type's commit stripe, probe the value index when a
//! conjunct is indexable, add the transaction's own touched atoms and
//! re-check the filter on the transaction's view. This suite holds that
//! path to the directory scan it replaces: on chain, delta and split
//! stores, a script of DML statements must give the same statement
//! results, the same WAL records and the same `ASOF TT` slices whether or
//! not the key attribute carries a value index. It also pins the index
//! probe's own contract (each atom once, in atom order) and the
//! stripe-before-probe ordering under a concurrent insert.

use std::path::PathBuf;
use tcom_core::{Database, DbConfig, StoreKind};
use tcom_kernel::{AtomTypeId, AttrId, Lsn};
use tcom_query::{
    apply_statement, execute_with, parse_statement, run_statement, ExecOptions, QueryOutput,
    StatementApply, StatementOutput,
};
use tcom_storage::keys::encode_int;
use tcom_wal::{decode_frames, LogRecord};

const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-dmlx-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &std::path::Path, kind: StoreKind) -> Database {
    Database::open(
        dir,
        DbConfig::default()
            .store_kind(kind)
            .buffer_frames(256)
            .checkpoint_interval(0),
    )
    .unwrap()
}

fn run(db: &Database, sql: &str) -> StatementOutput {
    run_statement(db, sql).unwrap_or_else(|e| panic!("statement failed: {sql}\n  {e}"))
}

fn rows(db: &Database, sql: &str, opts: ExecOptions) -> QueryOutput {
    execute_with(db, sql, opts).unwrap_or_else(|e| panic!("query failed: {sql}\n  {e}"))
}

/// Every record of the database's WAL since its last checkpoint.
fn wal_records(db: &Database) -> Vec<LogRecord> {
    let chunk = db.wal_chunk(Lsn(0), usize::MAX).unwrap();
    decode_frames(chunk.start, &chunk.bytes)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

/// Autocommit statements, then one multi-statement transaction (`None`
/// marks its boundaries). Keys repeat, some rows get several valid-time
/// slices with different keys, and one row has a NULL key.
fn script() -> Vec<Option<String>> {
    let mut s: Vec<Option<String>> = (0..24)
        .map(|i| {
            Some(format!(
                "INSERT INTO t (k, v, tag) VALUES ({}, {i}, 'r{i}')",
                i % 8
            ))
        })
        .collect();
    let more = [
        "INSERT INTO t (v, tag) VALUES (55, 'nullkey')",
        "INSERT INTO t (k, v, tag) VALUES (6, 56, 'late') VALID FROM 50",
        // `=`, ranges and two conjuncts.
        "UPDATE t SET v = 100 WHERE k = 3",
        "UPDATE t SET k = 9 WHERE k = 4 VALID IN [10, 20)",
        "UPDATE t SET v = 7 WHERE k >= 2 AND k < 5",
        "UPDATE t SET v = 8 WHERE k = 9 AND v > 10",
        "UPDATE t SET v = 9 WHERE v >= 7 AND k <= 4 AND k > 1",
        "UPDATE t SET v = 10 WHERE 2 = k",
        "UPDATE t SET v = 11 WHERE k >= 4 AND k <= 3",
        // VALID windows on both statement kinds.
        "DELETE FROM t WHERE k = 5 VALID IN [30, 40)",
        "UPDATE t SET tag = 'w' WHERE k = 9 VALID FROM 15",
        // NULL literals and NULL keys.
        "UPDATE t SET v = 1 WHERE k = NULL",
        "UPDATE t SET v = 2 WHERE k IS NULL",
        // Non-indexable filters fall back to the scan.
        "UPDATE t SET k = 1 WHERE tag = 'nullkey'",
        "UPDATE t SET v = 4 WHERE tag = 'r3' OR k = 2",
        "UPDATE t SET v = 5 WHERE k = 3.0",
        "UPDATE t SET v = 6 WHERE k <> 7",
        "DELETE FROM t WHERE k > 6",
    ];
    s.extend(more.iter().map(|q| Some(q.to_string())));
    // Read-your-writes: earlier statements move atoms into and out of
    // the keys later statements select on, and create new ones.
    s.push(None);
    let txn = [
        "UPDATE t SET k = 20 WHERE k = 1",
        "UPDATE t SET v = 21 WHERE k = 20",
        "UPDATE t SET v = 22 WHERE k = 1",
        "UPDATE t SET k = 23 WHERE k = 2 VALID IN [0, 5)",
        "UPDATE t SET v = 24 WHERE k = 2",
        "INSERT INTO t (k, v, tag) VALUES (2, 25, 'new')",
        "UPDATE t SET v = 26 WHERE k >= 2 AND k < 3",
        "DELETE FROM t WHERE k = 23",
        "UPDATE t SET k = 3 WHERE k = 20 VALID FROM 70",
        "UPDATE t SET v = 27 WHERE k = 3",
    ];
    s.extend(txn.iter().map(|q| Some(q.to_string())));
    s.push(None);
    s
}

/// Runs the script, returning one line per statement outcome.
fn run_script(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    let mut txn = None;
    for step in script() {
        match step {
            None => match txn.take() {
                None => txn = Some(db.begin()),
                Some(t) => out.push(format!("commit {:?}", t.commit().unwrap())),
            },
            Some(sql) => {
                let r = match txn.as_mut() {
                    Some(t) => format!(
                        "{:?}",
                        apply_statement(db, t, parse_statement(&sql).unwrap()).unwrap()
                    ),
                    None => format!("{:?}", run(db, &sql)),
                };
                out.push(format!("{sql} => {r}"));
            }
        }
    }
    out
}

/// Every `ASOF TT` slice from the first commit to now, plus the current
/// state, rendered with atom ids and both time extents.
fn slices(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for tt in 1..=db.now().0 {
        out.push(format!(
            "{tt}: {:?}",
            rows(
                db,
                &format!("SELECT * FROM t ASOF TT {tt}"),
                ExecOptions::default()
            )
        ));
    }
    out.push(format!(
        "now: {:?}",
        rows(db, "SELECT * FROM t", ExecOptions::default())
    ));
    out
}

#[test]
fn keyed_dml_matches_the_unindexed_scan() {
    for kind in KINDS {
        let mut runs = Vec::new();
        for indexed in [true, false] {
            let dir = tmpdir(&format!("eq-{kind}-{indexed}"));
            let db = open(&dir, kind);
            let ix = if indexed { " INDEXED" } else { "" };
            run(&db, &format!("CREATE TYPE t (k INT{ix}, v INT, tag TEXT)"));
            let results = run_script(&db);
            runs.push((results, wal_records(&db), slices(&db)));
            db.assert_integrity().unwrap();
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let (with, without) = (&runs[0], &runs[1]);
        assert_eq!(with.0, without.0, "{kind}: statement results differ");
        assert_eq!(with.1, without.1, "{kind}: WAL records differ");
        assert_eq!(with.2, without.2, "{kind}: ASOF TT slices differ");
        // The script must actually have modified rows on both paths.
        assert!(with.0.iter().any(|l| l.contains("Modified(4")), "{kind}");
    }
}

/// An atom whose current slices carry different indexed values must come
/// back from an index probe once, and probes return atoms in ascending
/// atom-number order.
#[test]
fn index_probe_returns_each_atom_once_in_atom_order() {
    for kind in KINDS {
        let dir = tmpdir(&format!("dup-{kind}"));
        let db = open(&dir, kind);
        run(&db, "CREATE TYPE t (k INT INDEXED, v INT)");
        run(&db, "INSERT INTO t (k, v) VALUES (5, 1)");
        run(&db, "INSERT INTO t (k, v) VALUES (6, 2)");
        // Atom 0 now carries k = 5 over [0, 10) and k = 7 from 10 on.
        run(&db, "UPDATE t SET k = 7 WHERE k = 5 VALID FROM 10");
        let sql = "SELECT k, v FROM t WHERE k >= 5";
        let scan = ExecOptions {
            force_scan: true,
            ..ExecOptions::default()
        };
        let by_index = rows(&db, sql, ExecOptions::default());
        assert_eq!(by_index.len(), 3, "{kind}: {by_index:?}");
        assert_eq!(by_index, rows(&db, sql, scan), "{kind}");

        let ty: AtomTypeId = db.atom_type_id("t").unwrap();
        let atoms = db
            .index_range_inclusive(ty, AttrId(0), encode_int(5), encode_int(7))
            .unwrap();
        let nos: Vec<u64> = atoms.iter().map(|a| a.no.0).collect();
        assert_eq!(nos, vec![0, 1], "{kind}");

        // UPDATE through the same probe touches the two-slice atom once.
        match run(&db, "UPDATE t SET v = 9 WHERE k >= 5") {
            StatementOutput::Modified(n, _) => assert_eq!(n, 2, "{kind}"),
            other => panic!("{other:?}"),
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Index path vs scan path for SELECT on atoms with several current
/// slices and keys that move between them.
#[test]
fn index_and_scan_paths_agree_on_multi_slice_atoms() {
    for kind in KINDS {
        let dir = tmpdir(&format!("diff-{kind}"));
        let db = open(&dir, kind);
        run(&db, "CREATE TYPE t (k INT INDEXED, v INT)");
        for i in 0..12 {
            run(
                &db,
                &format!("INSERT INTO t (k, v) VALUES ({}, {i})", i % 4),
            );
        }
        for (i, lo) in [(0, 5), (1, 12), (2, 20), (3, 33)] {
            run(
                &db,
                &format!(
                    "UPDATE t SET k = {} WHERE k = {i} VALID IN [{lo}, {})",
                    (i + 1) % 4,
                    lo + 9
                ),
            );
        }
        let scan = ExecOptions {
            force_scan: true,
            ..ExecOptions::default()
        };
        for filter in [
            "k = 1",
            "k >= 1",
            "k < 3",
            "k > 0 AND k <= 2",
            "k >= 2 AND k < 2",
            "k = 2 AND v > 3",
            "v > 3 AND k >= 1 AND k < 3",
        ] {
            for sql in [
                format!("SELECT * FROM t WHERE {filter}"),
                format!("SELECT k, v FROM t WHERE {filter} VALID IN [10, 30)"),
                format!("SELECT COUNT(*) FROM t WHERE {filter}"),
            ] {
                assert_eq!(
                    rows(&db, &sql, ExecOptions::default()),
                    rows(&db, &sql, scan),
                    "{kind}: {sql}"
                );
            }
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Index encodings are lossy in two places: a text longer than 8 bytes
/// shares its prefix code with other strings, and the two float zeros
/// compare equal but encode apart. Probe ranges must still admit every
/// match, for SELECT and for the DML that plans through the same probe.
#[test]
fn probe_ranges_cover_lossy_encodings() {
    let dir = tmpdir("lossy");
    let db = open(&dir, StoreKind::Split);
    run(&db, "CREATE TYPE u (name TEXT INDEXED, f FLOAT INDEXED)");
    let names = [
        "abc",
        "abcdefgh",
        "abcdefghA",
        "abcdefghZ",
        "abcdefghZZ",
        "abd",
    ];
    let floats = ["-2.5", "-0.0", "0.0", "1.5"];
    for (i, n) in names.iter().enumerate() {
        let f = floats[i % floats.len()];
        run(&db, &format!("INSERT INTO u (name, f) VALUES ('{n}', {f})"));
    }
    let scan = ExecOptions {
        force_scan: true,
        ..ExecOptions::default()
    };
    let filters = [
        "name < 'abcdefghZ'",
        "name <= 'abcdefghA'",
        "name > 'abcdefghA'",
        "name >= 'abcdefghZZ'",
        "name = 'abcdefghZ'",
        "name > 'abcdefgh' AND name < 'abcdefghZZ'",
        "f = 0.0",
        "f = -0.0",
        "f >= 0.0",
        "f > -0.0",
        "f <= -0.0",
        "f < 0.0",
        "f < 1.5 AND f >= 0.0",
    ];
    for filter in filters {
        let sql = format!("SELECT * FROM u WHERE {filter}");
        let by_index = rows(&db, &sql, ExecOptions::default());
        assert!(!by_index.is_empty(), "{sql}");
        assert_eq!(by_index, rows(&db, &sql, scan), "{sql}");
    }
    match run(
        &db,
        "UPDATE u SET f = 9.5 WHERE f >= 0.0 AND name > 'abcdefghA'",
    ) {
        StatementOutput::Modified(n, _) => assert_eq!(n, 2),
        other => panic!("{other:?}"),
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stripe is taken before the probe: an UPDATE that has to wait for a
/// younger transaction's insert of a matching key must see that row once
/// the insert commits, not a probe result from before it.
#[test]
fn concurrent_insert_of_a_matching_key_is_not_lost() {
    for kind in KINDS {
        let dir = tmpdir(&format!("race-{kind}"));
        let db = open(&dir, kind);
        run(&db, "CREATE TYPE t (k INT INDEXED, v INT)");
        run(&db, "INSERT INTO t (k, v) VALUES (42, 1)");
        let mut older = db.begin();
        let mut younger = db.begin();
        apply_statement(
            &db,
            &mut younger,
            parse_statement("INSERT INTO t (k, v) VALUES (42, 2)").unwrap(),
        )
        .unwrap();
        let waits = db.metrics().counter("txn.stripe_waits");
        let modified = std::thread::scope(|s| {
            let h = s.spawn(|| {
                let stmt = parse_statement("UPDATE t SET v = 3 WHERE k = 42").unwrap();
                apply_statement(&db, &mut older, stmt).unwrap()
            });
            // The older transaction blocks on the stripe the younger one
            // holds; commit only once it is waiting.
            while db.metrics().counter("txn.stripe_waits") == waits {
                std::thread::yield_now();
            }
            younger.commit().unwrap();
            h.join().unwrap()
        });
        assert_eq!(modified, StatementApply::Modified(2), "{kind}");
        older.commit().unwrap();
        let QueryOutput::Rows { rows: got, .. } =
            rows(&db, "SELECT v FROM t WHERE k = 42", ExecOptions::default())
        else {
            panic!("not rows");
        };
        assert_eq!(got.len(), 2, "{kind}");
        assert!(got
            .iter()
            .all(|r| r.values[0] == tcom_kernel::Value::Int(3)));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
