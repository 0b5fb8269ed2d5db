//! Smoke tests for keyed DML and recovery on a small pool, through the
//! facade crate: a keyed UPDATE costs a handful of page fetches however
//! many rows its type holds, and a crash image whose WAL replay dirties
//! far more pages than the pool holds reopens cleanly.

use tcom::prelude::*;
use tcom::query::{run_statement, StatementOutput};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-kdml-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn load(db: &Database, rows: i64) {
    run_statement(db, "CREATE TYPE acct (k INT INDEXED, v INT, note TEXT)").unwrap();
    let ty = db.atom_type_id("acct").unwrap();
    for chunk in 0..rows / 250 {
        let mut txn = db.begin();
        for k in chunk * 250..(chunk + 1) * 250 {
            let t = Tuple::new(vec![
                Value::Int(k),
                Value::Int(0),
                Value::from(format!("acct-{k:0>40}")),
            ]);
            txn.insert_atom(ty, Interval::all(), t).unwrap();
        }
        txn.commit().unwrap();
    }
}

fn modified(db: &Database, sql: &str) -> usize {
    match run_statement(db, sql).unwrap() {
        StatementOutput::Modified(n, _) => n,
        other => panic!("{sql}: {other:?}"),
    }
}

fn value_of(db: &Database, k: i64) -> Vec<Value> {
    let QueryOutput::Rows { rows, .. } =
        execute(db, &format!("SELECT v FROM acct WHERE k = {k}")).unwrap()
    else {
        panic!("not rows");
    };
    rows.into_iter().map(|r| r.values[0].clone()).collect()
}

/// Page fetches of one statement.
fn fetches(db: &Database, sql: &str) -> u64 {
    let before = db.buffer_stats().fetches;
    assert_eq!(modified(db, sql), 1, "{sql}");
    db.buffer_stats().fetches - before
}

#[test]
fn keyed_update_cost_does_not_grow_with_the_type() {
    let dir = tmpdir("cost");
    let db = Database::open(&dir, DbConfig::default().checkpoint_interval(0)).unwrap();
    load(&db, 5_000);
    // Warm-up: the first statement on a type pays one-time planner work.
    modified(&db, "UPDATE acct SET v = 1 WHERE k = 17");
    let keyed = fetches(&db, "UPDATE acct SET v = 2 WHERE k = 2500");
    assert!(keyed < 100, "keyed UPDATE fetched {keyed} pages");
    // The same statement on a non-indexed column must visit every row —
    // the bound above is what the index probe buys.
    let scanned = fetches(
        &db,
        "UPDATE acct SET k = 2500 WHERE note = 'acct-0000000000000000000000000000000000002500'",
    );
    assert!(scanned > 5_000, "scan fetched only {scanned} pages");
    assert_eq!(value_of(&db, 2500), vec![Value::Int(2)]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn small_pool_crash_and_reopen() {
    let dir = tmpdir("reopen");
    let cfg = DbConfig::default()
        .store_kind(StoreKind::Split)
        .checkpoint_interval(0);
    {
        // Written through a roomy pool, so the WAL tail never flushes and
        // the reopen below has to replay all of it.
        let db = Database::open(&dir, cfg.buffer_frames(4096)).unwrap();
        load(&db, 1_500);
        db.checkpoint().unwrap();
        for k in (0..1_500).step_by(3) {
            modified(&db, &format!("UPDATE acct SET v = {} WHERE k = {k}", k + 7));
        }
        db.crash();
    }
    let db = Database::open(&dir, cfg.buffer_frames(32)).unwrap();
    for k in [0, 3, 1, 750, 1_497, 1_499] {
        let want = if k % 3 == 0 { k + 7 } else { 0 };
        assert_eq!(value_of(&db, k), vec![Value::Int(want)], "k = {k}");
    }
    db.assert_integrity().unwrap();
    assert_eq!(modified(&db, "UPDATE acct SET v = 1 WHERE k = 1"), 1);
    drop(db);
    let db = Database::open(&dir, cfg.buffer_frames(32)).unwrap();
    assert_eq!(value_of(&db, 1), vec![Value::Int(1)]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
