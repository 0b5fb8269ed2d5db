//! V3 — `SplitStore`: separate current store and append-only history store.
//!
//! The defining property: **current-version access never touches history
//! pages.** All current (tt-open) versions of an atom live in a single
//! *current-set* record in the current heap; closing a version moves it
//! into the append-only history heap, whose per-atom backward chains are
//! ordered by closing time. Current pages therefore stay dense no matter
//! how long histories grow — the locality effect E1/E9 measure.
//!
//! A useful corollary of append-at-close ordering: walking an atom's
//! history chain visits records in descending `tt.end`, so a past
//! time-slice at transaction time `t` can stop at the first record with
//! `tt.end <= t` — cost proportional to the *distance into the past*, not
//! to total history length.

use crate::record::{AtomVersion, Payload, VersionRecord};
use crate::segment::SegmentSet;
use crate::store::{
    dir_get, dir_scan, dir_set, emit_slice, sort_by_vt, sort_history, tt_visible, StoreKind,
    StoreObs, StoreStats, VersionStore,
};
use crate::timeindex::TimeIndex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tcom_kernel::codec::{Decoder, Encoder};
use tcom_kernel::{AtomNo, Error, Interval, RecordId, Result, TimePoint, Tuple};
use tcom_storage::btree::BTree;
use tcom_storage::buffer::{BufferPool, FileId};
use tcom_storage::heap::HeapFile;

/// All current versions of one atom, clustered in one record.
#[derive(Clone, Debug, PartialEq, Default)]
struct CurrentSet {
    entries: Vec<(Interval, TimePoint, Tuple)>, // (vt, tt_start, tuple)
}

impl CurrentSet {
    fn encode(&self, no: AtomNo) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        e.put_u64(no.0);
        e.put_u64(self.entries.len() as u64);
        for (vt, tt_start, tuple) in &self.entries {
            e.put_interval(vt);
            e.put_time(*tt_start);
            e.put_tuple(tuple);
        }
        e.finish()
    }

    fn decode(bytes: &[u8], expect_no: AtomNo) -> Result<CurrentSet> {
        let mut d = Decoder::new(bytes);
        let no = AtomNo(d.get_u64()?);
        if no != expect_no {
            return Err(Error::corruption(format!(
                "current-set record of atom {} found while reading atom {}",
                no.0, expect_no.0
            )));
        }
        let n = d.get_u64()? as usize;
        if n > d.remaining() {
            return Err(Error::corruption("current-set entry count exceeds buffer"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let vt = d.get_interval()?;
            let tt_start = d.get_time()?;
            let tuple = d.get_tuple()?;
            entries.push((vt, tt_start, tuple));
        }
        if !d.is_exhausted() {
            return Err(Error::corruption("trailing bytes in current-set record"));
        }
        Ok(CurrentSet { entries })
    }
}

/// Split current/history store.
pub struct SplitStore {
    cur_heap: HeapFile,
    cur_dir: BTree,
    hist_heap: HeapFile,
    hist_dir: BTree,
    /// Transaction-time interval index. Current-set records relocate on
    /// every update, so the open partition is keyed by *atom number*
    /// (`lo = payload = atom_no`); history records are stable, so the
    /// closed partition uses `lo = hist record id` with a `tt.end` payload
    /// for heap-free visibility filtering.
    tix: TimeIndex,
    /// Archived closed history (compressed immutable segments).
    segs: Arc<SegmentSet>,
    obs: StoreObs,
}

impl SplitStore {
    /// Formats a fresh store over five pre-registered files.
    pub fn create(
        pool: Arc<BufferPool>,
        cur_heap: FileId,
        cur_dir: FileId,
        hist_heap: FileId,
        hist_dir: FileId,
        tix_file: FileId,
    ) -> Result<SplitStore> {
        Ok(SplitStore {
            cur_heap: HeapFile::create(pool.clone(), cur_heap)?,
            cur_dir: BTree::create(pool.clone(), cur_dir)?,
            hist_heap: HeapFile::create(pool.clone(), hist_heap)?,
            hist_dir: BTree::create(pool.clone(), hist_dir)?,
            tix: TimeIndex::create(pool, tix_file)?,
            segs: SegmentSet::new(),
            obs: StoreObs::default(),
        })
    }

    /// Opens an existing store.
    pub fn open(
        pool: Arc<BufferPool>,
        cur_heap: FileId,
        cur_dir: FileId,
        hist_heap: FileId,
        hist_dir: FileId,
        tix_file: FileId,
    ) -> Result<SplitStore> {
        Ok(SplitStore {
            cur_heap: HeapFile::open(pool.clone(), cur_heap)?,
            cur_dir: BTree::open(pool.clone(), cur_dir)?,
            hist_heap: HeapFile::open(pool.clone(), hist_heap)?,
            hist_dir: BTree::open(pool.clone(), hist_dir)?,
            tix: TimeIndex::open(pool, tix_file)?,
            segs: SegmentSet::new(),
            obs: StoreObs::default(),
        })
    }

    fn load_current(&self, no: AtomNo) -> Result<Option<(RecordId, CurrentSet)>> {
        match dir_get(&self.cur_dir, no)? {
            None => Ok(None),
            Some(rid) => {
                let set = self
                    .cur_heap
                    .with_record(rid, |b| CurrentSet::decode(b, no))??;
                Ok(Some((rid, set)))
            }
        }
    }

    fn store_current(&self, no: AtomNo, rid: Option<RecordId>, set: &CurrentSet) -> Result<()> {
        let bytes = set.encode(no);
        let new_rid = match rid {
            Some(rid) => self.cur_heap.update(rid, &bytes)?,
            None => self.cur_heap.insert(&bytes)?,
        };
        if rid != Some(new_rid) {
            dir_set(&self.cur_dir, no, new_rid)?;
        }
        Ok(())
    }

    /// Walks the history chain (descending `tt.end`). `f` returning `false`
    /// stops early.
    fn walk_history(
        &self,
        no: AtomNo,
        mut f: impl FnMut(&VersionRecord) -> Result<bool>,
    ) -> Result<()> {
        self.obs.chain_walks.inc();
        let mut cur = dir_get(&self.hist_dir, no)?.filter(|r| !r.is_invalid());
        while let Some(rid) = cur {
            self.obs.chain_steps.inc();
            let rec = self.hist_heap.with_record(rid, VersionRecord::decode)??;
            if rec.atom_no != no {
                return Err(Error::corruption(format!(
                    "history chain of atom {} reached record of atom {}",
                    no.0, rec.atom_no.0
                )));
            }
            if !f(&rec)? {
                return Ok(());
            }
            cur = (!rec.prev.is_invalid()).then_some(rec.prev);
        }
        Ok(())
    }
}

impl VersionStore for SplitStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Split
    }

    fn exists(&self, no: AtomNo) -> Result<bool> {
        Ok(dir_get(&self.cur_dir, no)?.is_some() || dir_get(&self.hist_dir, no)?.is_some())
    }

    fn insert_version(
        &self,
        no: AtomNo,
        vt: Interval,
        tt_start: TimePoint,
        tuple: &Tuple,
    ) -> Result<()> {
        let (rid, mut set) = match self.load_current(no)? {
            Some((rid, set)) => (Some(rid), set),
            None => (None, CurrentSet::default()),
        };
        set.entries.push((vt, tt_start, tuple.clone()));
        set.entries.sort_by_key(|(vt, _, _)| vt.start());
        self.store_current(no, rid, &set)?;
        // Open key is (tt_start, atom_no): duplicates within one atom and
        // tick collapse into one entry, which is all a slice needs.
        self.tix.insert(true, tt_start, no.0, no.0)
    }

    fn close_version(&self, no: AtomNo, vt_start: TimePoint, tt_end: TimePoint) -> Result<bool> {
        let Some((rid, mut set)) = self.load_current(no)? else {
            return Ok(false);
        };
        let Some(pos) = set
            .entries
            .iter()
            .position(|(vt, _, _)| vt.start() == vt_start)
        else {
            return Ok(false);
        };
        let (vt, tt_start, tuple) = set.entries.remove(pos);
        // Append the closed version to the history chain.
        let tt = Interval::new(tt_start, tt_end)
            .ok_or_else(|| Error::internal("tt close before tt start"))?;
        let prev = dir_get(&self.hist_dir, no)?.unwrap_or(RecordId::INVALID);
        let rec = VersionRecord {
            atom_no: no,
            vt,
            tt,
            prev,
            payload: Payload::Full(tuple),
        };
        let hist_rid = self.hist_heap.insert(&rec.encode())?;
        dir_set(&self.hist_dir, no, hist_rid)?;
        self.obs.split_migrations.inc();
        // Shrink the current set (kept even when empty: the directory entry
        // marks the atom as existing).
        self.store_current(no, Some(rid), &set)?;
        self.tix
            .insert(false, tt_start, hist_rid.pack(), tt_end.0)?;
        // The open entry is shared by every current version of this atom
        // with the same tt_start; drop it only when none remain.
        if !set.entries.iter().any(|(_, s, _)| *s == tt_start) {
            self.tix.remove(true, tt_start, no.0)?;
        }
        Ok(true)
    }

    fn current_versions(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let Some((_, set)) = self.load_current(no)? else {
            return Ok(Vec::new());
        };
        Ok(sort_by_vt(
            set.entries
                .into_iter()
                .map(|(vt, tt_start, tuple)| AtomVersion {
                    vt,
                    tt: Interval::from_start(tt_start),
                    tuple,
                })
                .collect(),
        ))
    }

    fn versions_at(&self, no: AtomNo, tt: TimePoint) -> Result<Vec<AtomVersion>> {
        let mut out: Vec<AtomVersion> = self
            .current_versions(no)?
            .into_iter()
            .filter(|v| tt_visible(&v.tt, tt))
            .collect();
        // History chain: descending tt.end allows early termination.
        self.walk_history(no, |rec| {
            if rec.tt.end() <= tt {
                return Ok(false); // everything older closed even earlier
            }
            if rec.tt.contains(tt) {
                if let Payload::Full(t) = &rec.payload {
                    out.push(AtomVersion {
                        vt: rec.vt,
                        tt: rec.tt,
                        tuple: t.clone(),
                    });
                } else {
                    return Err(Error::corruption("delta record in split history store"));
                }
            }
            Ok(true)
        })?;
        self.segs.versions_at_for(no, tt, &mut out)?;
        Ok(sort_by_vt(out))
    }

    fn history(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let mut out = self.current_versions(no)?;
        self.walk_history(no, |rec| {
            if let Payload::Full(t) = &rec.payload {
                out.push(AtomVersion {
                    vt: rec.vt,
                    tt: rec.tt,
                    tuple: t.clone(),
                });
                Ok(true)
            } else {
                Err(Error::corruption("delta record in split history store"))
            }
        })?;
        self.segs.history_for(no, &mut out)?;
        Ok(sort_history(out))
    }

    fn scan_atoms(&self, f: &mut dyn FnMut(AtomNo) -> Result<bool>) -> Result<()> {
        // Every atom ever inserted has a current-set record (possibly empty),
        // so the current directory is the authoritative atom list.
        dir_scan(&self.cur_dir, f)
    }

    fn obs(&self) -> &StoreObs {
        &self.obs
    }

    fn extract_closed(&self, no: AtomNo, cutoff: TimePoint) -> Result<Vec<AtomVersion>> {
        // History chains are ordered by descending tt.end, so extractable
        // records form a contiguous tail; collect the kept prefix and
        // rebuild it (oldest→newest) with the tail cut off.
        let mut kept: Vec<(RecordId, VersionRecord)> = Vec::new();
        let mut prune_rids: Vec<RecordId> = Vec::new();
        let mut cur = dir_get(&self.hist_dir, no)?.filter(|r| !r.is_invalid());
        while let Some(rid) = cur {
            let rec = self.hist_heap.with_record(rid, VersionRecord::decode)??;
            let next = (!rec.prev.is_invalid()).then_some(rec.prev);
            if rec.tt.end() <= cutoff {
                prune_rids.push(rid);
            } else {
                kept.push((rid, rec));
            }
            cur = next;
        }
        if prune_rids.is_empty() {
            return Ok(Vec::new());
        }
        // All history records live in the closed partition under their old
        // record ids; drop those entries before the rebuild relocates the
        // kept ones. The extractable tail's records must be re-read (only
        // their rids were kept above); that re-read also materializes the
        // versions this method returns.
        let mut extracted = Vec::with_capacity(prune_rids.len());
        for rid in &prune_rids {
            let rec = self.hist_heap.with_record(*rid, VersionRecord::decode)??;
            self.tix.remove(false, rec.tt.start(), rid.pack())?;
            let Payload::Full(tuple) = rec.payload else {
                return Err(Error::corruption("delta record in split history store"));
            };
            extracted.push(AtomVersion {
                vt: rec.vt,
                tt: rec.tt,
                tuple,
            });
        }
        for (rid, rec) in &kept {
            self.tix.remove(false, rec.tt.start(), rid.pack())?;
        }
        for rid in &prune_rids {
            self.hist_heap.delete(*rid)?;
        }
        let mut new_prev = RecordId::INVALID;
        for (rid, mut rec) in kept.into_iter().rev() {
            rec.prev = new_prev;
            new_prev = self.hist_heap.update(rid, &rec.encode())?;
            self.tix
                .insert(false, rec.tt.start(), new_prev.pack(), rec.tt.end().0)?;
        }
        if new_prev.is_invalid() {
            // No history left: drop the directory entry by pointing it at
            // INVALID (dir entries are never removed; INVALID ends walks).
            dir_set(&self.hist_dir, no, RecordId::INVALID)?;
        } else {
            dir_set(&self.hist_dir, no, new_prev)?;
        }
        Ok(extracted)
    }

    fn collect_closed(&self, no: AtomNo, cutoff: TimePoint) -> Result<Vec<AtomVersion>> {
        let mut out = Vec::new();
        self.walk_history(no, |rec| {
            if rec.tt.end() <= cutoff {
                let Payload::Full(tuple) = &rec.payload else {
                    return Err(Error::corruption("delta record in split history store"));
                };
                out.push(AtomVersion {
                    vt: rec.vt,
                    tt: rec.tt,
                    tuple: tuple.clone(),
                });
            }
            Ok(true)
        })?;
        Ok(out)
    }

    fn segments(&self) -> &Arc<SegmentSet> {
        &self.segs
    }

    fn slice_at(
        &self,
        tt: TimePoint,
        f: &mut dyn FnMut(AtomNo, Vec<AtomVersion>) -> Result<bool>,
    ) -> Result<()> {
        let mut groups: BTreeMap<u64, Vec<AtomVersion>> = BTreeMap::new();
        // Open partition → atoms with a current version started by `tt`;
        // load each current set once and keep the entries that had started.
        let mut open_atoms: Vec<u64> = Vec::new();
        self.tix.scan(true, tt, &mut |e| {
            open_atoms.push(e.payload);
            Ok(true)
        })?;
        open_atoms.sort_unstable();
        open_atoms.dedup();
        for no in open_atoms {
            let Some((_, set)) = self.load_current(AtomNo(no))? else {
                continue;
            };
            for (vt, tt_start, tuple) in set.entries {
                if tt.is_forever() || tt_start <= tt {
                    groups.entry(no).or_default().push(AtomVersion {
                        vt,
                        tt: Interval::from_start(tt_start),
                        tuple,
                    });
                }
            }
        }
        // Closed partition: the tt_end payload filters invisible candidates
        // without touching the history heap. Nothing closed is visible at
        // FOREVER (current-state semantics).
        if !tt.is_forever() {
            let mut rids: Vec<RecordId> = Vec::new();
            self.tix.scan(false, tt, &mut |e| {
                if tt.0 < e.payload {
                    rids.push(RecordId::unpack(e.lo));
                }
                Ok(true)
            })?;
            for rid in rids {
                let rec = self.hist_heap.with_record(rid, VersionRecord::decode)??;
                debug_assert!(
                    tt_visible(&rec.tt, tt),
                    "time index surfaced invisible record"
                );
                let Payload::Full(tuple) = rec.payload else {
                    return Err(Error::corruption("delta record in split history store"));
                };
                groups.entry(rec.atom_no.0).or_default().push(AtomVersion {
                    vt: rec.vt,
                    tt: rec.tt,
                    tuple,
                });
            }
        }
        self.segs.slice_into(tt, &mut groups)?;
        emit_slice(groups, f)
    }

    fn rebuild_time_index(&self, between: &mut dyn FnMut() -> Result<()>) -> Result<()> {
        let mut atoms = Vec::new();
        dir_scan(&self.cur_dir, &mut |no| {
            atoms.push(no);
            Ok(true)
        })?;
        let mut entries = Vec::new();
        for no in atoms {
            let Some((_, set)) = self.load_current(no)? else {
                continue;
            };
            for (_, tt_start, _) in &set.entries {
                entries.push((true, *tt_start, no.0, no.0));
            }
        }
        self.hist_heap.scan(|rid, bytes| {
            let rec = VersionRecord::decode(bytes)?;
            entries.push((false, rec.tt.start(), rid.pack(), rec.tt.end().0));
            Ok(true)
        })?;
        self.tix.reconcile(entries, between).map(drop)
    }

    fn changed_in(&self, window: Interval, atoms: &mut BTreeSet<u64>) -> Result<()> {
        // Open entries carry the atom number; closed ones carry `tt_end`,
        // so only their history records that did change need a read.
        let mut rids = Vec::new();
        self.tix.scan_window(window, &mut |open, e| {
            if open {
                atoms.insert(e.payload);
            } else if window.contains(e.tt_start) || window.contains(TimePoint(e.payload)) {
                rids.push(RecordId::unpack(e.lo));
            }
        })?;
        for rid in rids {
            let rec = self.hist_heap.with_record(rid, VersionRecord::decode)??;
            atoms.insert(rec.atom_no.0);
        }
        self.segs.changed_in(&window, atoms)
    }

    fn compact_time_index(&self) -> Result<()> {
        self.tix.compact()
    }

    fn resident_pages(&self) -> u64 {
        self.cur_heap.resident_pages() + self.hist_heap.resident_pages()
    }

    fn stats(&self) -> Result<StoreStats> {
        let mut versions = 0u64;
        let mut bytes = 0u64;
        let mut open = 0u64;
        let mut depth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        self.cur_heap.scan(|_, rec| {
            // One current-set record may hold several versions; decode the
            // entry count cheaply (skip the atom_no varint, read n).
            let mut d = Decoder::new(rec);
            let no = d.get_u64()?;
            let n = d.get_u64()?;
            versions += n;
            open += n;
            *depth.entry(no).or_insert(0) += n;
            bytes += rec.len() as u64;
            Ok(true)
        })?;
        self.hist_heap.scan(|_, rec| {
            let r = VersionRecord::decode(rec)?;
            versions += 1;
            *depth.entry(r.atom_no.0).or_insert(0) += 1;
            bytes += rec.len() as u64;
            Ok(true)
        })?;
        let seg = self.segs.stats();
        Ok(StoreStats {
            atoms: self.cur_dir.len()?,
            versions,
            heap_pages: (self.cur_heap.data_pages() + self.hist_heap.data_pages()) as u64,
            record_bytes: bytes,
            dir_height: self.cur_dir.height()?,
            open_versions: open,
            max_depth: depth.values().copied().max().unwrap_or(0),
            time_entries: self.tix.len()?,
            resident_pages: self.cur_heap.resident_pages() + self.hist_heap.resident_pages(),
            segments: seg.segments,
            segment_pages: seg.pages,
            segment_versions: seg.versions,
        })
    }
}

impl SplitStore {
    /// Diagnostic: data pages of (current heap, history heap) — the
    /// locality argument in numbers.
    pub fn heap_shape(&self) -> (u32, u32) {
        (self.cur_heap.data_pages(), self.hist_heap.data_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_kernel::time::{iv, iv_from};
    use tcom_kernel::Value;
    use tcom_storage::disk::DiskManager;

    fn store(name: &str) -> (SplitStore, Vec<std::path::PathBuf>) {
        let pool = BufferPool::new(64);
        let mut paths = Vec::new();
        let mut files = Vec::new();
        for suffix in ["ch", "cd", "hh", "hd", "tix"] {
            let p = std::env::temp_dir().join(format!(
                "tcom-split-{}-{}-{}",
                std::process::id(),
                name,
                suffix
            ));
            let _ = std::fs::remove_file(&p);
            files.push(pool.register_file(Arc::new(DiskManager::open(&p).unwrap())));
            paths.push(p);
        }
        (
            SplitStore::create(pool, files[0], files[1], files[2], files[3], files[4]).unwrap(),
            paths,
        )
    }

    fn cleanup(paths: &[std::path::PathBuf]) {
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    fn tup(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v), Value::from("some payload text")])
    }

    fn run_updates(s: &SplitStore, no: AtomNo, n: u64) {
        s.insert_version(no, iv_from(0), TimePoint(1), &tup(0))
            .unwrap();
        for t in 1..n {
            s.close_version(no, TimePoint(0), TimePoint(t + 1)).unwrap();
            s.insert_version(no, iv_from(0), TimePoint(t + 1), &tup(t as i64))
                .unwrap();
        }
    }

    #[test]
    fn current_and_slices() {
        let (s, paths) = store("cur");
        let no = AtomNo(1);
        run_updates(&s, no, 10);
        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 1);
        assert_eq!(cur[0].tuple, tup(9));
        for t in 1..=10u64 {
            let vs = s.versions_at(no, TimePoint(t)).unwrap();
            assert_eq!(vs.len(), 1, "tt={t}");
            assert_eq!(vs[0].tuple, tup(t as i64 - 1));
        }
        assert!(s.versions_at(no, TimePoint(0)).unwrap().is_empty());
        assert_eq!(s.history(no).unwrap().len(), 10);
        cleanup(&paths);
    }

    #[test]
    fn logical_delete_empties_current() {
        let (s, paths) = store("del");
        let no = AtomNo(2);
        s.insert_version(no, iv_from(0), TimePoint(1), &tup(5))
            .unwrap();
        assert!(s.close_version(no, TimePoint(0), TimePoint(3)).unwrap());
        assert!(s.current_versions(no).unwrap().is_empty());
        assert!(
            s.exists(no).unwrap(),
            "deleted atom still exists historically"
        );
        // Still visible in the past.
        let vs = s.versions_at(no, TimePoint(2)).unwrap();
        assert_eq!(vs.len(), 1);
        cleanup(&paths);
    }

    #[test]
    fn current_heap_stays_small() {
        let (s, paths) = store("locality");
        for no in 0..50u64 {
            run_updates(&s, AtomNo(no), 20);
        }
        let (cur_pages, hist_pages) = s.heap_shape();
        assert!(
            hist_pages > cur_pages * 2,
            "history should dominate: cur={cur_pages} hist={hist_pages}"
        );
        cleanup(&paths);
    }

    #[test]
    fn multiple_vt_slices() {
        let (s, paths) = store("slices");
        let no = AtomNo(3);
        s.insert_version(no, iv(0, 10), TimePoint(1), &tup(1))
            .unwrap();
        s.insert_version(no, iv(10, 20), TimePoint(2), &tup(2))
            .unwrap();
        s.insert_version(no, iv_from(20), TimePoint(3), &tup(3))
            .unwrap();
        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 3);
        assert_eq!(cur[0].vt, iv(0, 10));
        // Close the middle slice.
        assert!(s.close_version(no, TimePoint(10), TimePoint(5)).unwrap());
        assert_eq!(s.current_versions(no).unwrap().len(), 2);
        // At tt=4, all three were visible.
        assert_eq!(s.versions_at(no, TimePoint(4)).unwrap().len(), 3);
        // At tt=5, only two.
        assert_eq!(s.versions_at(no, TimePoint(5)).unwrap().len(), 2);
        cleanup(&paths);
    }

    #[test]
    fn close_false_cases() {
        let (s, paths) = store("false");
        let no = AtomNo(4);
        assert!(!s.close_version(no, TimePoint(0), TimePoint(1)).unwrap());
        s.insert_version(no, iv_from(0), TimePoint(1), &tup(0))
            .unwrap();
        assert!(!s.close_version(no, TimePoint(42), TimePoint(2)).unwrap());
        assert!(s.close_version(no, TimePoint(0), TimePoint(2)).unwrap());
        assert!(!s.close_version(no, TimePoint(0), TimePoint(3)).unwrap());
        cleanup(&paths);
    }

    #[test]
    fn stats_count_both_areas() {
        let (s, paths) = store("stats");
        for no in 0..10u64 {
            run_updates(&s, AtomNo(no), 5);
        }
        let st = s.stats().unwrap();
        assert_eq!(st.atoms, 10);
        assert_eq!(st.versions, 50);
        assert!(st.record_bytes > 0);
        cleanup(&paths);
    }

    #[test]
    fn slice_at_matches_walks_and_forever_is_current() {
        let (s, paths) = store("ix");
        for no in [1u64, 2, 5] {
            run_updates(&s, AtomNo(no), 6);
        }
        // Atom 2 ends logically deleted; atom 5 loses its old history.
        s.close_version(AtomNo(2), TimePoint(0), TimePoint(7))
            .unwrap();
        assert!(s.prune(AtomNo(5), TimePoint(4)).unwrap() > 0);
        let sweep = |tt: TimePoint| {
            let mut out = Vec::new();
            s.scan_atoms(&mut |no| {
                let vs = s.versions_at(no, tt).unwrap();
                if !vs.is_empty() {
                    out.push((no.0, vs));
                }
                Ok(true)
            })
            .unwrap();
            out
        };
        let slice = |tt: TimePoint| {
            let mut out = Vec::new();
            s.slice_at(tt, &mut |no, vs| {
                out.push((no.0, vs));
                Ok(true)
            })
            .unwrap();
            out
        };
        for tt in (0..=8u64).map(TimePoint).chain([TimePoint::FOREVER]) {
            assert_eq!(slice(tt), sweep(tt), "tt={tt:?}");
        }
        // FOREVER == current state: the deleted atom 2 is absent.
        let cur = slice(TimePoint::FOREVER);
        assert_eq!(cur.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![1, 5]);
        s.rebuild_time_index(&mut || Ok(())).unwrap();
        assert_eq!(slice(TimePoint(6)), sweep(TimePoint(6)));
        cleanup(&paths);
    }

    #[test]
    fn scan_lists_deleted_atoms_too() {
        let (s, paths) = store("scan");
        s.insert_version(AtomNo(1), iv_from(0), TimePoint(1), &tup(1))
            .unwrap();
        s.insert_version(AtomNo(2), iv_from(0), TimePoint(1), &tup(2))
            .unwrap();
        s.close_version(AtomNo(1), TimePoint(0), TimePoint(2))
            .unwrap();
        let mut seen = Vec::new();
        s.scan_atoms(&mut |no| {
            seen.push(no.0);
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, vec![1, 2]);
        cleanup(&paths);
    }
}
