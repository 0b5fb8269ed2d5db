//! V2 — `DeltaStore`: full current versions + backward attribute deltas.
//!
//! The chain layout matches [`crate::chain::ChainStore`] (newest first,
//! directory points at the head), but closed versions are *compressed*:
//! once a version is no longer current it is rewritten as an
//! attribute-level backward delta relative to its chain predecessor (the
//! next-newer record). Reconstruction of a past version walks the chain
//! from the head, applying deltas to a running tuple.
//!
//! Invariants:
//! * every current (tt-open) record is stored **full**;
//! * a delta record's chain predecessor always exists and reconstructs the
//!   tuple the delta is relative to;
//! * compression happens only when the delta encoding fits in the record's
//!   existing slot (so records never relocate and chain pointers stay
//!   valid) — otherwise the record simply stays full, trading space for
//!   pointer stability.
//!
//! Trade-off measured by E2/E4: storage shrinks for wide tuples with
//! narrow updates, while past time-slices pay CPU for delta replay.

use crate::record::{AtomVersion, Payload, TupleDelta, VersionRecord};
use crate::segment::SegmentSet;
use crate::store::{
    changed_in_via_records, dir_get, dir_scan, dir_set, filter_at_tt, sort_by_vt, sort_history,
    StoreKind, StoreObs, StoreStats, VersionStore,
};
use crate::timeindex::TimeIndex;
use std::collections::BTreeSet;
use std::sync::Arc;
use tcom_kernel::{AtomNo, Error, Interval, RecordId, Result, TimePoint, Tuple};
use tcom_storage::btree::BTree;
use tcom_storage::buffer::{BufferPool, FileId};
use tcom_storage::heap::HeapFile;

/// Delta-compressed version-chain store.
pub struct DeltaStore {
    heap: HeapFile,
    dir: BTree,
    /// Transaction-time interval index. `lo` is the packed record id; the
    /// payload is the *atom number* in both partitions — reconstructing a
    /// delta record needs a chain walk anyway, so the index narrows a slice
    /// to a candidate atom set rather than to individual records.
    tix: TimeIndex,
    /// Archived closed history; segment versions are stored as *full*
    /// tuples (materialized at extraction), so reads need no chain walk.
    segs: Arc<SegmentSet>,
    obs: StoreObs,
}

impl DeltaStore {
    /// Formats a fresh store over three pre-registered files.
    pub fn create(
        pool: Arc<BufferPool>,
        heap_file: FileId,
        dir_file: FileId,
        tix_file: FileId,
    ) -> Result<DeltaStore> {
        Ok(DeltaStore {
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
    ) -> Result<DeltaStore> {
        Ok(DeltaStore {
            heap: HeapFile::open(pool.clone(), heap_file)?,
            dir: BTree::open(pool.clone(), dir_file)?,
            tix: TimeIndex::open(pool, tix_file)?,
            segs: SegmentSet::new(),
            obs: StoreObs::default(),
        })
    }

    /// Heap-resident versions of `no` (reconstructed tuples), unsorted.
    fn heap_history(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let mut out = Vec::new();
        self.walk_reconstruct(no, |_, rec, tuple, _| {
            out.push(AtomVersion {
                vt: rec.vt,
                tt: rec.tt,
                tuple: tuple.clone(),
            });
            Ok(true)
        })?;
        Ok(out)
    }

    /// Walks the chain newest→oldest, reconstructing each record's tuple.
    /// `f` receives `(rid, record, reconstructed tuple, stored length)`;
    /// returning `false` stops.
    fn walk_reconstruct(
        &self,
        no: AtomNo,
        mut f: impl FnMut(RecordId, &VersionRecord, &Tuple, usize) -> Result<bool>,
    ) -> Result<()> {
        self.obs.chain_walks.inc();
        let mut cur = dir_get(&self.dir, no)?.filter(|r| !r.is_invalid());
        let mut newer_tuple: Option<Tuple> = None;
        while let Some(rid) = cur {
            self.obs.chain_steps.inc();
            let (rec, len) = self
                .heap
                .with_record(rid, |bytes| (VersionRecord::decode(bytes), bytes.len()))?;
            let rec = rec?;
            if rec.atom_no != no {
                return Err(Error::corruption(format!(
                    "chain of atom {} reached record of atom {} at {rid:?}",
                    no.0, rec.atom_no.0
                )));
            }
            let tuple = match &rec.payload {
                Payload::Full(t) => t.clone(),
                Payload::Delta(d) => {
                    let base = newer_tuple.as_ref().ok_or_else(|| {
                        Error::corruption("delta record at chain head has no base tuple")
                    })?;
                    self.obs.delta_reconstructions.inc();
                    d.apply(base)
                }
            };
            if !f(rid, &rec, &tuple, len)? {
                return Ok(());
            }
            cur = (!rec.prev.is_invalid()).then_some(rec.prev);
            newer_tuple = Some(tuple);
        }
        Ok(())
    }

    /// Tries to rewrite record `rid` (reconstructing to `tuple`) as a delta
    /// relative to `base`. Skipped when the delta encoding would not fit in
    /// place (record relocation would break incoming chain pointers).
    fn try_compress(
        &self,
        rid: RecordId,
        rec: &VersionRecord,
        tuple: &Tuple,
        stored_len: usize,
        base: &Tuple,
    ) -> Result<()> {
        if matches!(rec.payload, Payload::Delta(_)) || rec.is_current() {
            return Ok(());
        }
        let delta = TupleDelta::diff(base, tuple);
        let new_rec = VersionRecord {
            atom_no: rec.atom_no,
            vt: rec.vt,
            tt: rec.tt,
            prev: rec.prev,
            payload: Payload::Delta(delta),
        };
        let bytes = new_rec.encode();
        if bytes.len() <= stored_len {
            let new_rid = self.heap.update(rid, &bytes)?;
            debug_assert_eq!(new_rid, rid, "in-place compression must not relocate");
        }
        Ok(())
    }
}

impl VersionStore for DeltaStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Delta
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
        let old_head = dir_get(&self.dir, no)?;
        let rec = VersionRecord {
            atom_no: no,
            vt,
            tt: Interval::from_start(tt_start),
            prev: old_head.unwrap_or(RecordId::INVALID),
            payload: Payload::Full(tuple.clone()),
        };
        let rid = self.heap.insert(&rec.encode())?;
        dir_set(&self.dir, no, rid)?;
        self.tix.insert(true, tt_start, rid.pack(), no.0)?;
        // Compression opportunity: the old head is now covered (its newer
        // neighbour exists); if it is closed and still full, delta it.
        if let Some(old_rid) = old_head {
            let (old_rec, old_len) = self
                .heap
                .with_record(old_rid, |b| (VersionRecord::decode(b), b.len()))?;
            let old_rec = old_rec?;
            if let Payload::Full(old_tuple) = &old_rec.payload {
                let old_tuple = old_tuple.clone();
                self.try_compress(old_rid, &old_rec, &old_tuple, old_len, tuple)?;
            }
        }
        Ok(())
    }

    fn close_version(&self, no: AtomNo, vt_start: TimePoint, tt_end: TimePoint) -> Result<bool> {
        // Find the target and remember its predecessor's tuple for the
        // compression pass.
        let mut found: Option<(RecordId, VersionRecord, Tuple, usize)> = None;
        let mut pred_tuple: Option<Tuple> = None;
        let mut prev_iter_tuple: Option<Tuple> = None;
        self.walk_reconstruct(no, |rid, rec, tuple, len| {
            if rec.is_current() && rec.vt.start() == vt_start {
                found = Some((rid, rec.clone(), tuple.clone(), len));
                pred_tuple = prev_iter_tuple.clone();
                return Ok(false);
            }
            prev_iter_tuple = Some(tuple.clone());
            Ok(true)
        })?;
        let Some((rid, mut rec, tuple, _len)) = found else {
            return Ok(false);
        };
        rec.tt = Interval::new(rec.tt.start(), tt_end)
            .ok_or_else(|| Error::internal("tt close before tt start"))?;
        let bytes = rec.encode();
        let new_rid = self.heap.update(rid, &bytes)?;
        debug_assert_eq!(new_rid, rid, "closing a version shrinks its record");
        self.tix
            .close(rec.tt.start(), rid.pack(), new_rid.pack(), no.0)?;
        // Now closed: compress against the predecessor when one exists.
        if let Some(base) = pred_tuple {
            self.try_compress(rid, &rec, &tuple, bytes.len(), &base)?;
        }
        Ok(true)
    }

    fn current_versions(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let mut out = Vec::new();
        self.walk_reconstruct(no, |_, rec, tuple, _| {
            if rec.is_current() {
                out.push(AtomVersion {
                    vt: rec.vt,
                    tt: rec.tt,
                    tuple: tuple.clone(),
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
        // Reconstruct the full chain (deltas depend on their newer
        // neighbours, which may be extracted), then rebuild the kept chain
        // with freshly computed payloads: the new head full, closed
        // non-head records as deltas against their new newer neighbour.
        let mut all: Vec<(RecordId, VersionRecord, Tuple)> = Vec::new();
        self.walk_reconstruct(no, |rid, rec, tuple, _| {
            all.push((rid, rec.clone(), tuple.clone()));
            Ok(true)
        })?;
        let (pruned, kept): (Vec<_>, Vec<_>) =
            all.into_iter().partition(|(_, r, _)| r.tt.end() <= cutoff);
        if pruned.is_empty() {
            return Ok(Vec::new());
        }
        // Drop index entries under the *old* record ids before the rebuild
        // relocates the kept records.
        for (rid, rec, _) in pruned.iter().chain(kept.iter()) {
            self.tix
                .remove(rec.is_current(), rec.tt.start(), rid.pack())?;
        }
        for (rid, _, _) in &pruned {
            self.heap.delete(*rid)?;
        }
        let mut new_prev = RecordId::INVALID;
        // kept[0] is the newest (chain order); write oldest→newest.
        for i in (0..kept.len()).rev() {
            let (rid, rec, tuple) = &kept[i];
            let payload = if i == 0 || rec.is_current() {
                Payload::Full(tuple.clone())
            } else {
                let (_, _, newer_tuple) = &kept[i - 1];
                Payload::Delta(TupleDelta::diff(newer_tuple, tuple))
            };
            let new_rec = VersionRecord {
                atom_no: rec.atom_no,
                vt: rec.vt,
                tt: rec.tt,
                prev: new_prev,
                payload,
            };
            new_prev = self.heap.update(*rid, &new_rec.encode())?;
            self.tix
                .insert(rec.is_current(), rec.tt.start(), new_prev.pack(), no.0)?;
        }
        dir_set(&self.dir, no, new_prev)?;
        Ok(pruned
            .into_iter()
            .map(|(_, rec, tuple)| AtomVersion {
                vt: rec.vt,
                tt: rec.tt,
                tuple,
            })
            .collect())
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
        // Delta reconstruction needs the chain anyway, so the index yields a
        // candidate *atom set* (over-approximate for the closed partition)
        // and each candidate answers through the ordinary walk.
        let mut atoms: BTreeSet<u64> = BTreeSet::new();
        self.tix.scan(true, tt, &mut |e| {
            atoms.insert(e.payload);
            Ok(true)
        })?;
        if !tt.is_forever() {
            self.tix.scan(false, tt, &mut |e| {
                atoms.insert(e.payload);
                Ok(true)
            })?;
        }
        // Atoms whose entire closed history was archived have no closed tix
        // entries left; the segment fences contribute those candidates.
        self.segs.visible_atoms(tt, &mut atoms)?;
        for no in atoms {
            let vs = self.versions_at(AtomNo(no), tt)?;
            if vs.is_empty() {
                continue;
            }
            if !f(AtomNo(no), vs)? {
                return Ok(());
            }
        }
        Ok(())
    }

    fn rebuild_time_index(&self, between: &mut dyn FnMut() -> Result<()>) -> Result<()> {
        let mut entries = Vec::new();
        self.heap.scan(|rid, bytes| {
            let rec = VersionRecord::decode(bytes)?;
            entries.push((rec.is_current(), rec.tt.start(), rid.pack(), rec.atom_no.0));
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
        let mut depth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
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

impl DeltaStore {
    /// Diagnostic: counts `(full, delta)` records of one atom's chain.
    pub fn chain_shape(&self, no: AtomNo) -> Result<(usize, usize)> {
        let (mut full, mut delta) = (0, 0);
        self.walk_reconstruct(no, |_, rec, _, _| {
            match rec.payload {
                Payload::Full(_) => full += 1,
                Payload::Delta(_) => delta += 1,
            }
            Ok(true)
        })?;
        Ok((full, delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_kernel::time::iv_from;
    use tcom_kernel::Value;
    use tcom_storage::disk::DiskManager;

    fn store(name: &str) -> (DeltaStore, Vec<std::path::PathBuf>) {
        let pool = BufferPool::new(64);
        let mut paths = Vec::new();
        let mut files = Vec::new();
        for suffix in ["heap", "dir", "tix"] {
            let p = std::env::temp_dir().join(format!(
                "tcom-delta-{}-{}-{}",
                std::process::id(),
                name,
                suffix
            ));
            let _ = std::fs::remove_file(&p);
            files.push(pool.register_file(Arc::new(DiskManager::open(&p).unwrap())));
            paths.push(p);
        }
        (
            DeltaStore::create(pool, files[0], files[1], files[2]).unwrap(),
            paths,
        )
    }

    fn cleanup(paths: &[std::path::PathBuf]) {
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Wide tuple where only one attribute changes per update — the delta
    /// store's sweet spot.
    fn wide(v: i64) -> Tuple {
        let mut vals: Vec<Value> = (0..16)
            .map(|i| Value::Text(format!("attr-{i}-constant-payload")))
            .collect();
        vals[3] = Value::Int(v);
        Tuple::new(vals)
    }

    fn run_updates(s: &DeltaStore, no: AtomNo, n: u64) {
        s.insert_version(no, iv_from(0), TimePoint(1), &wide(0))
            .unwrap();
        for t in 1..n {
            s.close_version(no, TimePoint(0), TimePoint(t + 1)).unwrap();
            s.insert_version(no, iv_from(0), TimePoint(t + 1), &wide(t as i64))
                .unwrap();
        }
    }

    #[test]
    fn history_reconstructs_through_deltas() {
        let (s, paths) = store("hist");
        let no = AtomNo(1);
        run_updates(&s, no, 10);
        let h = s.history(no).unwrap();
        assert_eq!(h.len(), 10);
        for (i, v) in h.iter().enumerate() {
            assert_eq!(v.tuple, wide((9 - i) as i64), "version {i}");
        }
        // All but the head should have been compressed to deltas.
        let (full, delta) = s.chain_shape(no).unwrap();
        assert_eq!(full, 1);
        assert_eq!(delta, 9);
        cleanup(&paths);
    }

    #[test]
    fn timeslices_match_semantics() {
        let (s, paths) = store("slice");
        let no = AtomNo(2);
        run_updates(&s, no, 8);
        for t in 1..=8u64 {
            let vs = s.versions_at(no, TimePoint(t)).unwrap();
            assert_eq!(vs.len(), 1, "tt={t}");
            assert_eq!(vs[0].tuple, wide(t as i64 - 1), "tt={t}");
        }
        assert!(s.versions_at(no, TimePoint(0)).unwrap().is_empty());
        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 1);
        assert_eq!(cur[0].tuple, wide(7));
        cleanup(&paths);
    }

    #[test]
    fn delta_store_uses_less_space_than_full_copies() {
        let (s, paths) = store("space");
        for no in 0..20u64 {
            run_updates(&s, AtomNo(no), 16);
        }
        let st = s.stats().unwrap();
        assert_eq!(st.versions, 320);
        // A full wide() tuple encodes to ~400 bytes; a one-attribute delta
        // to ~15. With 15/16 of records compressed, the average must be far
        // below the full size.
        let avg = st.record_bytes / st.versions;
        let full_len = VersionRecord {
            atom_no: AtomNo(0),
            vt: iv_from(0),
            tt: iv_from(1),
            prev: RecordId::INVALID,
            payload: Payload::Full(wide(0)),
        }
        .encode()
        .len() as u64;
        assert!(
            avg < full_len / 3,
            "avg record {avg} bytes vs full {full_len} bytes"
        );
        cleanup(&paths);
    }

    #[test]
    fn multiple_current_slices_stay_full() {
        let (s, paths) = store("multi");
        let no = AtomNo(5);
        use tcom_kernel::time::iv;
        s.insert_version(no, iv(0, 10), TimePoint(1), &wide(1))
            .unwrap();
        s.insert_version(no, iv(10, 20), TimePoint(1), &wide(2))
            .unwrap();
        // Both are current: nothing may be compressed.
        let (full, delta) = s.chain_shape(no).unwrap();
        assert_eq!((full, delta), (2, 0));
        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 2);
        assert_eq!(cur[0].tuple, wide(1));
        assert_eq!(cur[1].tuple, wide(2));
        // Close the older slice; a later insert compresses it.
        s.close_version(no, TimePoint(0), TimePoint(2)).unwrap();
        s.insert_version(no, iv(0, 10), TimePoint(2), &wide(3))
            .unwrap();
        let h = s.history(no).unwrap();
        assert_eq!(h.len(), 3);
        // Everything still reconstructs.
        assert!(h.iter().any(|v| v.tuple == wide(1)));
        assert!(h.iter().any(|v| v.tuple == wide(2)));
        assert!(h.iter().any(|v| v.tuple == wide(3)));
        cleanup(&paths);
    }

    #[test]
    fn slice_at_matches_walks_through_compression() {
        let (s, paths) = store("ix");
        for no in [1u64, 4, 6] {
            run_updates(&s, AtomNo(no), 6);
        }
        // Chains are mostly deltas now; the index-backed slice must still
        // agree with the per-atom walk at every tick, including FOREVER.
        for tt in (0..=7u64).map(TimePoint).chain([TimePoint::FOREVER]) {
            let mut swept = Vec::new();
            s.scan_atoms(&mut |no| {
                let vs = s.versions_at(no, tt).unwrap();
                if !vs.is_empty() {
                    swept.push((no.0, vs));
                }
                Ok(true)
            })
            .unwrap();
            let mut sliced = Vec::new();
            s.slice_at(tt, &mut |no, vs| {
                sliced.push((no.0, vs));
                Ok(true)
            })
            .unwrap();
            assert_eq!(sliced, swept, "tt={tt:?}");
        }
        s.rebuild_time_index(&mut || Ok(())).unwrap();
        let mut after = Vec::new();
        s.slice_at(TimePoint(3), &mut |no, vs| {
            after.push((no.0, vs.len()));
            Ok(true)
        })
        .unwrap();
        assert_eq!(after, vec![(1, 1), (4, 1), (6, 1)]);
        cleanup(&paths);
    }

    #[test]
    fn close_false_cases() {
        let (s, paths) = store("false");
        let no = AtomNo(8);
        assert!(!s.close_version(no, TimePoint(0), TimePoint(1)).unwrap());
        s.insert_version(no, iv_from(0), TimePoint(1), &wide(0))
            .unwrap();
        assert!(!s.close_version(no, TimePoint(99), TimePoint(2)).unwrap());
        assert!(s.close_version(no, TimePoint(0), TimePoint(2)).unwrap());
        assert!(!s.close_version(no, TimePoint(0), TimePoint(3)).unwrap());
        cleanup(&paths);
    }
}
