//! V1 — `ChainStore`: full-copy backward version chains.
//!
//! Every version is stored in full. Versions of one atom form a backward
//! chain (newest first); the atom directory points at the newest record.
//!
//! * Current access: directory lookup + a short walk over the leading
//!   (tt-open) records — O(1) in history length as long as the number of
//!   *current* valid-time slices is small, **but** the leading records of
//!   different atoms share pages with old versions, so page locality
//!   degrades as histories grow (the effect experiments E1/E9 measure).
//! * Past access at transaction time `t`: walk the chain until records
//!   older than `t` stop appearing.
//! * Storage: no delta savings; every update stores a full tuple.

use crate::record::{AtomVersion, Payload, VersionRecord};
use crate::segment::SegmentSet;
use crate::store::{
    changed_in_via_records, dir_get, dir_scan, dir_set, emit_slice, filter_at_tt, sort_by_vt,
    sort_history, tt_visible, StoreKind, StoreObs, StoreStats, VersionStore,
};
use crate::timeindex::TimeIndex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use tcom_kernel::{AtomNo, Error, Interval, RecordId, Result, TimePoint, Tuple};
use tcom_storage::btree::BTree;
use tcom_storage::buffer::{BufferPool, FileId};
use tcom_storage::heap::HeapFile;

/// Full-copy version-chain store.
pub struct ChainStore {
    heap: HeapFile,
    dir: BTree,
    /// Transaction-time interval index. `lo` is the packed record id (chain
    /// records shrink in place on close and never relocate outside `prune`,
    /// which re-indexes); the closed-partition payload is `tt.end`, so a
    /// time slice filters invisible candidates on index entries alone.
    tix: TimeIndex,
    /// Archived closed history (merged into reads, fed by the compactor).
    segs: Arc<SegmentSet>,
    obs: StoreObs,
}

impl ChainStore {
    /// Formats a fresh store over three pre-registered files.
    pub fn create(
        pool: Arc<BufferPool>,
        heap_file: FileId,
        dir_file: FileId,
        tix_file: FileId,
    ) -> Result<ChainStore> {
        Ok(ChainStore {
            heap: HeapFile::create(pool.clone(), heap_file)?,
            dir: BTree::create(pool.clone(), dir_file)?,
            tix: TimeIndex::create(pool, tix_file)?,
            segs: SegmentSet::new(),
            obs: StoreObs::default(),
        })
    }

    /// Opens an existing store.
    pub fn open(
        pool: Arc<BufferPool>,
        heap_file: FileId,
        dir_file: FileId,
        tix_file: FileId,
    ) -> Result<ChainStore> {
        Ok(ChainStore {
            heap: HeapFile::open(pool.clone(), heap_file)?,
            dir: BTree::open(pool.clone(), dir_file)?,
            tix: TimeIndex::open(pool, tix_file)?,
            segs: SegmentSet::new(),
            obs: StoreObs::default(),
        })
    }

    /// Heap-resident versions of `no`, unsorted (no segment merge).
    fn heap_history(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let mut out = Vec::new();
        self.walk(no, |_, rec| {
            out.push(AtomVersion {
                vt: rec.vt,
                tt: rec.tt,
                tuple: Self::tuple_of(rec)?.clone(),
            });
            Ok(true)
        })?;
        Ok(out)
    }

    /// Walks an atom's chain, newest first, decoding every record.
    /// `f` returning `false` stops the walk.
    fn walk(
        &self,
        no: AtomNo,
        mut f: impl FnMut(RecordId, &VersionRecord) -> Result<bool>,
    ) -> Result<()> {
        self.obs.chain_walks.inc();
        let mut cur = dir_get(&self.dir, no)?.filter(|r| !r.is_invalid());
        while let Some(rid) = cur {
            self.obs.chain_steps.inc();
            let rec = self.heap.with_record(rid, VersionRecord::decode)??;
            if rec.atom_no != no {
                return Err(Error::corruption(format!(
                    "chain of atom {} reached record of atom {} at {rid:?}",
                    no.0, rec.atom_no.0
                )));
            }
            if !f(rid, &rec)? {
                return Ok(());
            }
            cur = (!rec.prev.is_invalid()).then_some(rec.prev);
        }
        Ok(())
    }

    fn tuple_of(rec: &VersionRecord) -> Result<&Tuple> {
        match &rec.payload {
            Payload::Full(t) => Ok(t),
            Payload::Delta(_) => Err(Error::corruption("delta record in full-copy chain store")),
        }
    }
}

impl VersionStore for ChainStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Chain
    }

    fn exists(&self, no: AtomNo) -> Result<bool> {
        Ok(dir_get(&self.dir, no)?.is_some())
    }

    fn insert_version(
        &self,
        no: AtomNo,
        vt: Interval,
        tt_start: TimePoint,
        tuple: &Tuple,
    ) -> Result<()> {
        let prev = dir_get(&self.dir, no)?.unwrap_or(RecordId::INVALID);
        let rec = VersionRecord {
            atom_no: no,
            vt,
            tt: Interval::from_start(tt_start),
            prev,
            payload: Payload::Full(tuple.clone()),
        };
        let rid = self.heap.insert(&rec.encode())?;
        dir_set(&self.dir, no, rid)?;
        self.tix
            .insert(true, tt_start, rid.pack(), TimePoint::FOREVER.0)?;
        Ok(())
    }

    fn close_version(&self, no: AtomNo, vt_start: TimePoint, tt_end: TimePoint) -> Result<bool> {
        let mut target: Option<(RecordId, VersionRecord)> = None;
        self.walk(no, |rid, rec| {
            if rec.is_current() && rec.vt.start() == vt_start {
                target = Some((rid, rec.clone()));
                return Ok(false);
            }
            Ok(true)
        })?;
        let Some((rid, mut rec)) = target else {
            return Ok(false);
        };
        rec.tt = Interval::new(rec.tt.start(), tt_end)
            .ok_or_else(|| Error::internal("tt close before tt start"))?;
        let new_rid = self.heap.update(rid, &rec.encode())?;
        debug_assert_eq!(new_rid, rid, "closing a version shrinks its record");
        self.tix
            .close(rec.tt.start(), rid.pack(), new_rid.pack(), tt_end.0)?;
        Ok(true)
    }

    fn current_versions(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let mut out = Vec::new();
        self.walk(no, |_, rec| {
            if rec.is_current() {
                out.push(AtomVersion {
                    vt: rec.vt,
                    tt: rec.tt,
                    tuple: Self::tuple_of(rec)?.clone(),
                });
            }
            Ok(true)
        })?;
        Ok(sort_by_vt(out))
    }

    fn versions_at(&self, no: AtomNo, tt: TimePoint) -> Result<Vec<AtomVersion>> {
        let mut out = filter_at_tt(self.heap_history(no)?, tt);
        self.segs.versions_at_for(no, tt, &mut out)?;
        Ok(sort_by_vt(out))
    }

    fn history(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let mut out = self.heap_history(no)?;
        self.segs.history_for(no, &mut out)?;
        Ok(sort_history(out))
    }

    fn scan_atoms(&self, f: &mut dyn FnMut(AtomNo) -> Result<bool>) -> Result<()> {
        dir_scan(&self.dir, f)
    }

    fn obs(&self) -> &StoreObs {
        &self.obs
    }

    fn extract_closed(&self, no: AtomNo, cutoff: TimePoint) -> Result<Vec<AtomVersion>> {
        // Collect the whole chain, partition, delete extracted records and
        // rebuild the kept chain (oldest→newest so relocations can never
        // invalidate an already-written pointer).
        let mut all: Vec<(RecordId, VersionRecord)> = Vec::new();
        self.walk(no, |rid, rec| {
            all.push((rid, rec.clone()));
            Ok(true)
        })?;
        let (pruned, kept): (Vec<_>, Vec<_>) =
            all.into_iter().partition(|(_, r)| r.tt.end() <= cutoff);
        if pruned.is_empty() {
            return Ok(Vec::new());
        }
        let extracted = pruned
            .iter()
            .map(|(_, r)| {
                Ok(AtomVersion {
                    vt: r.vt,
                    tt: r.tt,
                    tuple: Self::tuple_of(r)?.clone(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        // Drop index entries under the *old* record ids first: rebuilding the
        // kept chain relocates records, and the stale rids would otherwise be
        // unreachable.
        for (rid, rec) in pruned.iter().chain(kept.iter()) {
            self.tix
                .remove(rec.is_current(), rec.tt.start(), rid.pack())?;
        }
        for (rid, _) in &pruned {
            self.heap.delete(*rid)?;
        }
        let mut new_prev = RecordId::INVALID;
        for (rid, mut rec) in kept.into_iter().rev() {
            rec.prev = new_prev;
            new_prev = self.heap.update(rid, &rec.encode())?;
            let open = rec.is_current();
            let payload = if open {
                TimePoint::FOREVER.0
            } else {
                rec.tt.end().0
            };
            self.tix
                .insert(open, rec.tt.start(), new_prev.pack(), payload)?;
        }
        dir_set(&self.dir, no, new_prev)?;
        Ok(extracted)
    }

    fn collect_closed(&self, no: AtomNo, cutoff: TimePoint) -> Result<Vec<AtomVersion>> {
        Ok(self
            .heap_history(no)?
            .into_iter()
            .filter(|v| v.tt.end() <= cutoff)
            .collect())
    }

    fn segments(&self) -> &Arc<SegmentSet> {
        &self.segs
    }

    fn slice_at(
        &self,
        tt: TimePoint,
        f: &mut dyn FnMut(AtomNo, Vec<AtomVersion>) -> Result<bool>,
    ) -> Result<()> {
        // Open entries with tt_start <= tt are all visible; closed candidates
        // are filtered by the tt_end payload without touching the heap.
        let mut rids: Vec<RecordId> = Vec::new();
        self.tix.scan(true, tt, &mut |e| {
            rids.push(RecordId::unpack(e.lo));
            Ok(true)
        })?;
        if !tt.is_forever() {
            self.tix.scan(false, tt, &mut |e| {
                if tt.0 < e.payload {
                    rids.push(RecordId::unpack(e.lo));
                }
                Ok(true)
            })?;
        }
        let mut groups: BTreeMap<u64, Vec<AtomVersion>> = BTreeMap::new();
        for rid in rids {
            let rec = self.heap.with_record(rid, VersionRecord::decode)??;
            debug_assert!(
                tt_visible(&rec.tt, tt),
                "time index surfaced invisible record"
            );
            groups.entry(rec.atom_no.0).or_default().push(AtomVersion {
                vt: rec.vt,
                tt: rec.tt,
                tuple: Self::tuple_of(&rec)?.clone(),
            });
        }
        self.segs.slice_into(tt, &mut groups)?;
        emit_slice(groups, f)
    }

    fn rebuild_time_index(&self, between: &mut dyn FnMut() -> Result<()>) -> Result<()> {
        let mut entries = Vec::new();
        self.heap.scan(|rid, bytes| {
            let rec = VersionRecord::decode(bytes)?;
            let open = rec.is_current();
            let payload = if open {
                TimePoint::FOREVER.0
            } else {
                rec.tt.end().0
            };
            entries.push((open, rec.tt.start(), rid.pack(), payload));
            Ok(true)
        })?;
        self.tix.reconcile(entries, between).map(drop)
    }

    fn changed_in(&self, window: Interval, atoms: &mut BTreeSet<u64>) -> Result<()> {
        changed_in_via_records(&self.tix, &self.heap, &self.segs, window, atoms)
    }

    fn compact_time_index(&self) -> Result<()> {
        self.tix.compact()
    }

    fn resident_pages(&self) -> u64 {
        self.heap.resident_pages()
    }

    fn stats(&self) -> Result<StoreStats> {
        let mut versions = 0u64;
        let mut bytes = 0u64;
        let mut open = 0u64;
        let mut depth: HashMap<u64, u64> = HashMap::new();
        self.heap.scan(|_, rec| {
            let r = VersionRecord::decode(rec)?;
            versions += 1;
            bytes += rec.len() as u64;
            open += u64::from(r.is_current());
            *depth.entry(r.atom_no.0).or_insert(0) += 1;
            Ok(true)
        })?;
        let seg = self.segs.stats();
        Ok(StoreStats {
            atoms: self.dir.len()?,
            versions,
            heap_pages: self.heap.data_pages() as u64,
            record_bytes: bytes,
            dir_height: self.dir.height()?,
            open_versions: open,
            max_depth: depth.values().copied().max().unwrap_or(0),
            time_entries: self.tix.len()?,
            resident_pages: self.heap.resident_pages(),
            segments: seg.segments,
            segment_pages: seg.pages,
            segment_versions: seg.versions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_kernel::time::{iv, iv_from};
    use tcom_kernel::Value;
    use tcom_storage::disk::DiskManager;

    fn store(name: &str) -> (ChainStore, Vec<std::path::PathBuf>) {
        let pool = BufferPool::new(64);
        let mut paths = Vec::new();
        let mut files = Vec::new();
        for suffix in ["heap", "dir", "tix"] {
            let p = std::env::temp_dir().join(format!(
                "tcom-chain-{}-{}-{}",
                std::process::id(),
                name,
                suffix
            ));
            let _ = std::fs::remove_file(&p);
            files.push(pool.register_file(Arc::new(DiskManager::open(&p).unwrap())));
            paths.push(p);
        }
        (
            ChainStore::create(pool, files[0], files[1], files[2]).unwrap(),
            paths,
        )
    }

    fn tup(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v), Value::from("payload")])
    }

    fn cleanup(paths: &[std::path::PathBuf]) {
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn insert_and_read_current() {
        let (s, paths) = store("cur");
        let no = AtomNo(1);
        assert!(!s.exists(no).unwrap());
        s.insert_version(no, iv_from(0), TimePoint(1), &tup(10))
            .unwrap();
        assert!(s.exists(no).unwrap());
        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 1);
        assert_eq!(cur[0].tuple, tup(10));
        assert_eq!(cur[0].tt, iv_from(1));
        cleanup(&paths);
    }

    #[test]
    fn update_sequence_builds_history() {
        let (s, paths) = store("hist");
        let no = AtomNo(7);
        // tt=1: value 10; tt=2: close and write 20; tt=3: close and write 30.
        s.insert_version(no, iv_from(0), TimePoint(1), &tup(10))
            .unwrap();
        assert!(s.close_version(no, TimePoint(0), TimePoint(2)).unwrap());
        s.insert_version(no, iv_from(0), TimePoint(2), &tup(20))
            .unwrap();
        assert!(s.close_version(no, TimePoint(0), TimePoint(3)).unwrap());
        s.insert_version(no, iv_from(0), TimePoint(3), &tup(30))
            .unwrap();

        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 1);
        assert_eq!(cur[0].tuple, tup(30));

        // Time-slice at tt=1 and tt=2.
        let v1 = s.versions_at(no, TimePoint(1)).unwrap();
        assert_eq!(v1.len(), 1);
        assert_eq!(v1[0].tuple, tup(10));
        let v2 = s.versions_at(no, TimePoint(2)).unwrap();
        assert_eq!(v2[0].tuple, tup(20));
        // Before creation: nothing.
        assert!(s.versions_at(no, TimePoint(0)).unwrap().is_empty());

        let h = s.history(no).unwrap();
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].tuple, tup(30)); // newest first
        assert_eq!(h[2].tuple, tup(10));
        cleanup(&paths);
    }

    #[test]
    fn close_unknown_version_returns_false() {
        let (s, paths) = store("nf");
        let no = AtomNo(3);
        assert!(!s.close_version(no, TimePoint(0), TimePoint(5)).unwrap());
        s.insert_version(no, iv(0, 10), TimePoint(1), &tup(1))
            .unwrap();
        // wrong vt start
        assert!(!s.close_version(no, TimePoint(5), TimePoint(5)).unwrap());
        // right vt start
        assert!(s.close_version(no, TimePoint(0), TimePoint(5)).unwrap());
        // already closed: idempotent false
        assert!(!s.close_version(no, TimePoint(0), TimePoint(6)).unwrap());
        cleanup(&paths);
    }

    #[test]
    fn multiple_current_vt_slices() {
        let (s, paths) = store("slices");
        let no = AtomNo(9);
        s.insert_version(no, iv(0, 10), TimePoint(1), &tup(1))
            .unwrap();
        s.insert_version(no, iv(10, 20), TimePoint(1), &tup(2))
            .unwrap();
        s.insert_version(no, iv_from(20), TimePoint(2), &tup(3))
            .unwrap();
        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 3);
        assert_eq!(cur[0].vt, iv(0, 10)); // sorted by vt
        assert_eq!(cur[2].vt, iv_from(20));
        cleanup(&paths);
    }

    #[test]
    fn scan_atoms_in_order() {
        let (s, paths) = store("scan");
        for no in [5u64, 1, 9, 3] {
            s.insert_version(AtomNo(no), iv_from(0), TimePoint(1), &tup(no as i64))
                .unwrap();
        }
        let mut seen = Vec::new();
        s.scan_atoms(&mut |no| {
            seen.push(no.0);
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, vec![1, 3, 5, 9]);
        cleanup(&paths);
    }

    #[test]
    fn stats_reflect_growth() {
        let (s, paths) = store("stats");
        for i in 0..50u64 {
            s.insert_version(AtomNo(i), iv_from(0), TimePoint(1), &tup(i as i64))
                .unwrap();
        }
        for i in 0..50u64 {
            s.close_version(AtomNo(i), TimePoint(0), TimePoint(2))
                .unwrap();
            s.insert_version(AtomNo(i), iv_from(0), TimePoint(2), &tup(-(i as i64)))
                .unwrap();
        }
        let st = s.stats().unwrap();
        assert_eq!(st.atoms, 50);
        assert_eq!(st.versions, 100);
        assert!(st.record_bytes > 0);
        assert!(st.heap_pages >= 1);
        cleanup(&paths);
    }

    /// The walk-backed reference: per-atom `versions_at` over `scan_atoms`.
    fn sweep(s: &ChainStore, tt: TimePoint) -> Vec<(u64, Vec<AtomVersion>)> {
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
    }

    fn slice(s: &ChainStore, tt: TimePoint) -> Vec<(u64, Vec<AtomVersion>)> {
        let mut out = Vec::new();
        s.slice_at(tt, &mut |no, vs| {
            out.push((no.0, vs));
            Ok(true)
        })
        .unwrap();
        out
    }

    #[test]
    fn slice_at_matches_walks_and_survives_rebuild() {
        let (s, paths) = store("slice");
        for no in [2u64, 5, 8] {
            s.insert_version(AtomNo(no), iv_from(0), TimePoint(1), &tup(no as i64))
                .unwrap();
            s.close_version(AtomNo(no), TimePoint(0), TimePoint(3))
                .unwrap();
            s.insert_version(AtomNo(no), iv_from(0), TimePoint(3), &tup(no as i64 + 100))
                .unwrap();
        }
        // Atom 8 is pruned of its closed history.
        assert_eq!(s.prune(AtomNo(8), TimePoint(3)).unwrap(), 1);
        for tt in [0u64, 1, 2, 3, 4] {
            assert_eq!(
                slice(&s, TimePoint(tt)),
                sweep(&s, TimePoint(tt)),
                "tt={tt}"
            );
        }
        // FOREVER means the current state on both paths.
        assert_eq!(slice(&s, TimePoint::FOREVER), sweep(&s, TimePoint::FOREVER));
        assert_eq!(slice(&s, TimePoint::FOREVER).len(), 3);
        // A rebuild from the heap reproduces the incrementally-kept index.
        s.rebuild_time_index(&mut || Ok(())).unwrap();
        for tt in [1u64, 3] {
            assert_eq!(slice(&s, TimePoint(tt)), sweep(&s, TimePoint(tt)));
        }
        cleanup(&paths);
    }
}
