//! The [`VersionStore`] abstraction: what every temporal storage format
//! must provide, plus shared directory helpers.
//!
//! The engine performs bitemporal DML through two primitives —
//! [`VersionStore::insert_version`] and [`VersionStore::close_version`] —
//! and reads through the three visibility queries (`current_versions`,
//! `versions_at`, `history`). The three implementations trade current-
//! access speed, past-access speed and storage consumption against each
//! other; comparing them is the heart of the reproduced evaluation.

use crate::record::{AtomVersion, VersionRecord};
use crate::segment::SegmentSet;
use crate::timeindex::TimeIndex;
use std::collections::BTreeSet;
use std::sync::Arc;
use tcom_kernel::{AtomNo, Interval, RecordId, Result, TimePoint, Tuple};
use tcom_obs::Counter;
use tcom_storage::btree::BTree;
use tcom_storage::heap::HeapFile;
use tcom_storage::keys::BKey;

/// Which storage format a store implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// Full-copy backward version chains (V1).
    Chain,
    /// Full current version + backward attribute deltas (V2).
    Delta,
    /// Split current store / append-only history store (V3).
    Split,
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreKind::Chain => write!(f, "chain"),
            StoreKind::Delta => write!(f, "delta"),
            StoreKind::Split => write!(f, "split"),
        }
    }
}

/// Storage-consumption and shape statistics of a store.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Number of atoms (directory entries).
    pub atoms: u64,
    /// Total stored version records (full + delta + history).
    pub versions: u64,
    /// Data pages across the store's heap file(s).
    pub heap_pages: u64,
    /// Sum of encoded record lengths in bytes.
    pub record_bytes: u64,
    /// Height of the atom directory B⁺-tree.
    pub dir_height: u32,
    /// Versions whose transaction time is still open (current versions).
    pub open_versions: u64,
    /// Deepest per-atom version history (stored versions of one atom).
    pub max_depth: u64,
    /// Entries in the transaction-time interval index.
    pub time_entries: u64,
    /// Heap pages currently resident in the buffer pool (snapshot; moves
    /// with the workload).
    pub resident_pages: u64,
    /// Live compressed segments of archived closed history.
    pub segments: u64,
    /// Total pages across the segment files.
    pub segment_pages: u64,
    /// Versions archived into segments (not counted in `versions`, which
    /// covers only the hot heaps).
    pub segment_versions: u64,
}

impl StoreStats {
    /// Mean stored versions per atom.
    pub fn mean_depth(&self) -> f64 {
        self.versions as f64 / self.atoms.max(1) as f64
    }

    /// Fraction of stored versions still tt-open.
    pub fn open_ratio(&self) -> f64 {
        self.open_versions as f64 / self.versions.max(1) as f64
    }
}

/// Shared observability handles of one store instance. Cloning shares the
/// underlying cells, so a metrics registry can hold the same handles the
/// store increments; fields irrelevant to a given format simply stay zero.
#[derive(Clone, Default)]
pub struct StoreObs {
    /// Version-chain walks started (one per read primitive that touches a
    /// chain).
    pub chain_walks: Counter,
    /// Chain records visited across all walks.
    pub chain_steps: Counter,
    /// Tuples reconstructed by applying a backward attribute delta
    /// (delta store only).
    pub delta_reconstructions: Counter,
    /// Closed versions migrated from the current set into the history
    /// chain (split store only).
    pub split_migrations: Counter,
}

/// A temporal storage format for the versions of one atom type.
///
/// Invariants the engine maintains through the two mutation primitives:
///
/// * the valid-time intervals of an atom's *current* (tt-open) versions are
///   pairwise disjoint;
/// * `close_version` targets a current version identified by its unique
///   `vt.start`;
/// * stamps of closed versions are immutable forever after.
pub trait VersionStore: Send + Sync {
    /// Which format this store implements.
    fn kind(&self) -> StoreKind;

    /// True iff the atom has ever been inserted.
    fn exists(&self, no: AtomNo) -> Result<bool>;

    /// Stores a new version with `tt = [tt_start, ∞)`.
    fn insert_version(
        &self,
        no: AtomNo,
        vt: Interval,
        tt_start: TimePoint,
        tuple: &Tuple,
    ) -> Result<()>;

    /// Closes the transaction time of the current version whose valid time
    /// starts at `vt_start`. Returns `false` when no such current version
    /// exists (idempotent-redo friendly).
    fn close_version(&self, no: AtomNo, vt_start: TimePoint, tt_end: TimePoint) -> Result<bool>;

    /// The current (tt-open) versions, sorted by valid-time start.
    fn current_versions(&self, no: AtomNo) -> Result<Vec<AtomVersion>>;

    /// The versions visible at transaction time `tt`, sorted by valid-time
    /// start.
    fn versions_at(&self, no: AtomNo, tt: TimePoint) -> Result<Vec<AtomVersion>>;

    /// Every stored version, newest-recorded first.
    fn history(&self, no: AtomNo) -> Result<Vec<AtomVersion>>;

    /// Calls `f` for every atom in the store (directory order); `false`
    /// stops the scan.
    fn scan_atoms(&self, f: &mut dyn FnMut(AtomNo) -> Result<bool>) -> Result<()>;

    /// Exhaustive storage statistics (scans the store).
    fn stats(&self) -> Result<StoreStats>;

    /// Heap pages of this store currently resident in the buffer pool —
    /// a cheap live sample (one pass over the pool's shard tags), unlike
    /// the exhaustive [`VersionStore::stats`]. Feeds the planner's
    /// residency discount.
    fn resident_pages(&self) -> u64;

    /// Physically discards this atom's *heap-resident* versions whose
    /// transaction time ended at or before `cutoff` — they are invisible
    /// to every slice at `tt >= cutoff`. Slices at earlier transaction
    /// times stop being faithful (that is the point of pruning). Returns
    /// the number of versions removed. Current (tt-open) versions are
    /// never pruned, and versions already archived into segments are not
    /// touched (segment retention is a separate, file-level decision).
    fn prune(&self, no: AtomNo, cutoff: TimePoint) -> Result<usize> {
        Ok(self.extract_closed(no, cutoff)?.len())
    }

    /// Removes this atom's closed versions with `tt.end <= cutoff` from
    /// the hot heaps and returns them, oldest extraction order
    /// unspecified, with delta payloads materialized to full tuples. The
    /// heap-side half of a segment swap: the compactor first copies
    /// exactly this set (every closed version at or below the cutoff)
    /// into a segment file, then extracts it. Idempotent — a second call
    /// with the same cutoff finds nothing and returns an empty vector,
    /// which is what makes crash-recovery redo of a logged swap safe.
    fn extract_closed(&self, no: AtomNo, cutoff: TimePoint) -> Result<Vec<AtomVersion>>;

    /// Read-only preview of [`VersionStore::extract_closed`]: this atom's
    /// *heap-resident* closed versions with `tt.end <= cutoff`, delta
    /// payloads materialized, already-archived segment versions excluded.
    /// The compactor copies exactly this set into a segment file before
    /// extracting it, so a crash between the two leaves either state
    /// readable.
    fn collect_closed(&self, no: AtomNo, cutoff: TimePoint) -> Result<Vec<AtomVersion>>;

    /// The store's immutable compressed segments of archived history.
    /// Read paths merge these transparently; the engine publishes into
    /// the set under its quiescence protocol.
    fn segments(&self) -> &Arc<SegmentSet>;

    /// Index-backed snapshot scan: calls `f` once per atom that has at
    /// least one version visible at transaction time `tt`, in ascending
    /// atom-number order, with that atom's visible versions sorted by
    /// valid-time start — exactly what a per-atom
    /// [`VersionStore::versions_at`] sweep over
    /// [`VersionStore::scan_atoms`] would produce, but driven by the
    /// transaction-time interval index instead of walking every chain.
    /// `f` returning `false` stops the scan. `TimePoint::FOREVER` means
    /// the current state.
    fn slice_at(
        &self,
        tt: TimePoint,
        f: &mut dyn FnMut(AtomNo, Vec<AtomVersion>) -> Result<bool>,
    ) -> Result<()>;

    /// Rebuilds the transaction-time interval index from the store's
    /// heaps (recovery / consistency repair): derives every entry, then
    /// writes only the ones the index gets wrong. `between` runs between
    /// batches of index writes with no page pinned, so a no-steal pool
    /// owner can flush there and a rebuild never needs more dirty frames
    /// than one batch.
    fn rebuild_time_index(&self, between: &mut dyn FnMut() -> Result<()>) -> Result<()>;

    /// Adds to `atoms` every atom with a stored version (heap or segment)
    /// whose transaction time started or ended inside `window`. Answered
    /// from the transaction-time index, reading the version record where
    /// an entry doesn't carry the atom number or the end time.
    fn changed_in(&self, window: Interval, atoms: &mut BTreeSet<u64>) -> Result<()>;

    /// Repacks the transaction-time index into dense nodes. Index
    /// deletion is lazy, so a segment swap that extracts most closed
    /// versions leaves the index's emptied leaf pages on the scan chain;
    /// until they are repacked, every slice reads the index at its
    /// pre-extraction size. The engine calls this as the final step of a
    /// swap, under the same quiescence as the extraction itself.
    fn compact_time_index(&self) -> Result<()>;

    /// The store's observability counter handles (clone them to register
    /// in a metrics registry).
    fn obs(&self) -> &StoreObs;
}

/// Convenience queries derived from the trait primitives.
pub trait VersionStoreExt: VersionStore {
    /// The single version visible at `(tt, vt)`, if any.
    fn version_at(&self, no: AtomNo, tt: TimePoint, vt: TimePoint) -> Result<Option<AtomVersion>> {
        Ok(self
            .versions_at(no, tt)?
            .into_iter()
            .find(|v| v.vt.contains(vt)))
    }

    /// The current version valid at `vt`, if any.
    fn current_at(&self, no: AtomNo, vt: TimePoint) -> Result<Option<AtomVersion>> {
        Ok(self
            .current_versions(no)?
            .into_iter()
            .find(|v| v.vt.contains(vt)))
    }
}

impl<T: VersionStore + ?Sized> VersionStoreExt for T {}

// ---- shared directory helpers ----

/// Looks up an atom's chain head in a directory tree.
pub(crate) fn dir_get(dir: &BTree, no: AtomNo) -> Result<Option<RecordId>> {
    Ok(dir.get(BKey::new(no.0, 0))?.map(RecordId::unpack))
}

/// Points an atom's directory entry at `rid`.
pub(crate) fn dir_set(dir: &BTree, no: AtomNo, rid: RecordId) -> Result<()> {
    dir.insert(BKey::new(no.0, 0), rid.pack())?;
    Ok(())
}

/// Scans all atom numbers in a directory.
pub(crate) fn dir_scan(dir: &BTree, f: &mut dyn FnMut(AtomNo) -> Result<bool>) -> Result<()> {
    dir.scan_range(BKey::MIN, BKey::MAX, |k, _| f(AtomNo(k.hi)))
}

/// Sorts versions by valid-time start (the canonical result order).
pub(crate) fn sort_by_vt(mut vs: Vec<AtomVersion>) -> Vec<AtomVersion> {
    vs.sort_by_key(|v| v.vt.start());
    vs
}

/// Transaction-time visibility at `tt`, with `FOREVER` clamped to
/// current-version semantics: the sentinel lies past every half-open
/// interval (`tt.contains(FOREVER)` is false even for open intervals), so a
/// slice at `∞` means "the versions recorded until changed" — exactly the
/// tt-open ones.
pub(crate) fn tt_visible(tt_iv: &Interval, tt: TimePoint) -> bool {
    if tt.is_forever() {
        tt_iv.is_open_ended()
    } else {
        tt_iv.contains(tt)
    }
}

/// True iff a version with transaction time `tt` started or ended inside
/// `window` (the change predicate of [`VersionStore::changed_in`]).
pub(crate) fn changed_within(tt: &Interval, window: &Interval) -> bool {
    window.contains(tt.start()) || window.contains(tt.end())
}

/// [`VersionStore::changed_in`] for stores whose index `lo` word is the
/// heap record id in both partitions (chain, delta): every candidate is
/// resolved through its record, which carries the atom number and both
/// transaction-time bounds.
pub(crate) fn changed_in_via_records(
    tix: &TimeIndex,
    heap: &HeapFile,
    segs: &SegmentSet,
    window: Interval,
    atoms: &mut BTreeSet<u64>,
) -> Result<()> {
    let mut rids = Vec::new();
    tix.scan_window(window, &mut |_, e| rids.push(RecordId::unpack(e.lo)))?;
    for rid in rids {
        let rec = heap.with_record(rid, VersionRecord::decode)??;
        if changed_within(&rec.tt, &window) {
            atoms.insert(rec.atom_no.0);
        }
    }
    segs.changed_in(&window, atoms)
}

/// Shared helper: filters to versions visible at transaction time `tt`.
pub(crate) fn filter_at_tt(vs: Vec<AtomVersion>, tt: TimePoint) -> Vec<AtomVersion> {
    vs.into_iter().filter(|v| tt_visible(&v.tt, tt)).collect()
}

/// Shared `slice_at` epilogue: emits per-atom version groups in ascending
/// atom-number order, each sorted by valid-time start.
pub(crate) fn emit_slice(
    groups: std::collections::BTreeMap<u64, Vec<AtomVersion>>,
    f: &mut dyn FnMut(AtomNo, Vec<AtomVersion>) -> Result<bool>,
) -> Result<()> {
    for (no, vs) in groups {
        if !f(AtomNo(no), sort_by_vt(vs))? {
            return Ok(());
        }
    }
    Ok(())
}

/// Canonical history order: newest-recorded first
/// (`tt.start` descending, then `vt.start`, then `tt.end`). Every store
/// returns histories in this order so results are comparable across
/// storage formats.
pub(crate) fn sort_history(mut vs: Vec<AtomVersion>) -> Vec<AtomVersion> {
    vs.sort_by(|a, b| {
        b.tt.start()
            .cmp(&a.tt.start())
            .then(a.vt.start().cmp(&b.vt.start()))
            .then(a.tt.end().cmp(&b.tt.end()))
    });
    vs
}

#[allow(unused)]
pub(crate) fn _assert_object_safe(s: &dyn VersionStore) {}
