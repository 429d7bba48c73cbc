//! Schedule-keyed memoization of cost-model evaluations, run as a storage
//! tier: bounded shards with a real eviction policy, snapshot/restore
//! persistence across process restarts, and cross-replica warmth exchange.
//!
//! Training evaluates the cost model millions of times, and early in
//! training (and throughout the immediate-reward mode of Fig. 7) the same
//! `(module, schedule)` pairs recur constantly: every episode starts from
//! the untransformed baseline, popular schedules are re-sampled across
//! trajectories, and PPO revisits the same modules round-robin. A
//! [`SharedEvalCache`] memoizes each estimate's total time
//! ([`crate::ModuleEstimate::total_s`], the one figure its readers use)
//! under a canonical hash of the module and its per-operation schedules so
//! repeated schedules never re-run the roofline estimator.
//!
//! It is the one table implementation: a sharded hash table behind
//! `Arc<Mutex<_>>` shards whose clones *are* the same table. Estimator runs
//! happen *outside* the shard locks (a lost race costs one duplicate
//! evaluation, never a wrong value). Every lookup goes through one body,
//! [`SharedEvalCache::lookup`], which classifies it, counts it and mirrors
//! it into the caller's trace probe; the caller passes the miss in as a
//! closure, so the table never names the estimator. An environment holds
//! one table directly and counts its own lookups next to its episode
//! counters (and prices its misses from operand accesses it builds once
//! per module); the rollout engine, the schedule-search driver and the
//! service hand every worker an environment on one table, so all workers
//! and all branches of a search hit one cache and the parallel hit-rate
//! matches serial collection. [`SharedEvalCache::private_copy`] is the
//! opposite operation: it copies the entries into a new table, so the copy
//! and the original diverge from there on.
//!
//! ## Eviction policy
//!
//! Each shard is a CLOCK (second-chance) table: its keys sit in a ring of
//! slots in insertion order, each entry carries a reference bit, and a hand
//! points at the next slot to consider. A hit sets the entry's bit (setting
//! a clear bit counts as a *promotion*). A new key enters with its bit
//! clear; a full shard first moves the hand forward, clearing every set bit
//! it passes, and overwrites the first slot whose bit was already clear —
//! at most one full turn, amortised `O(1)`, and never a wholesale wipe
//! outside [`SharedEvalCache::clear`]. The victim depends only on the order
//! of operations on that shard, never on hash-map iteration order.
//!
//! ## Accounting contract
//!
//! Every lookup is classified exactly once, as a hit or a miss. Every
//! estimator run is a miss, *even when* the subsequent insert loses a
//! same-key race or is immediately evicted: two threads racing on a new key
//! both count a miss, because both actually ran the estimator, but only one
//! insert is counted. Consequently `hits + misses == lookups` holds for
//! the table's global counters and for every environment's own pair (so
//! `evaluations + cache_hits == total_lookups` on every outcome), and
//! `insertions == distinct keys admitted` holds exactly, with or without
//! eviction churn — eviction affects *which* lookups miss, never how they
//! are counted. The table keeps no spend ledger: the service's
//! [`crate::EvalBudget`] is reconciled to each run's lookups, not to misses.
//!
//! The table's atomic counters are global across every clone (batch
//! accounting for the search driver): hits, misses, insertions, evictions
//! and promotions. Who made a lookup is the caller's to count.
//!
//! ## Persistence and warmth exchange
//!
//! [`SharedEvalCache::snapshot_to`] serializes the table to a compact
//! versioned binary file (an `MLRC` image of the workspace's one framed
//! layout, [`mlir_rl_ir::frame`]: magic, format version, FNV-1a checksum
//! trailer; written to a temporary sibling and renamed into place so a
//! failed write never damages the previous snapshot);
//! [`SharedEvalCache::restore_from`] merges a snapshot back in. Each entry
//! record keeps the version-1 layout's per-op count, written as 0: images
//! from tables that stored per-op breakdowns still restore (their per-op
//! records are validated and dropped). The layout's hit count and segment
//! byte are written as 0 and ignored on read (the segment tag is still
//! validated), so images written under the earlier segmented policy
//! restore too. A corrupt or truncated snapshot is rejected *before* any
//! entry is applied — the error is returned, the table is untouched, and
//! the caller cold-starts; restore never panics. [`SharedEvalCache::absorb`]
//! merges another live table with a deterministic conflict rule: the
//! incumbent entry's time wins. Restored and absorbed entries start with
//! their reference bit clear. Because keys determine estimates, lookup
//! results are bit-identical regardless of eviction policy,
//! snapshot/restore cycles, or absorb order.
//!
//! Keys are 128 bits: a module fingerprint plus a schedule fingerprint. The
//! schedule half is [`ScheduledModule::fingerprint`], which the schedule
//! keeps up to date as transformations are applied (so a lookup re-hashes
//! nothing) and which is a fixed function of the transformation lists —
//! the splitmix64 finalizer over an unambiguous word encoding — the same on
//! every toolchain. The module half, [`module_fingerprint`], is still
//! computed with [`std::collections::hash_map::DefaultHasher`], which is
//! deterministic only for a fixed Rust release, so a snapshot's keys are
//! portable across builds of one toolchain only. Images written before the
//! schedule half became the kept fingerprint restore and validate (the
//! layout and its version are unchanged) but their keys no longer match
//! any lookup. A collision would silently serve a wrong estimate; at 2^128
//! key space this is not a practical concern, the
//! `cached_estimates_match_uncached` property test exercises the
//! construction, and `distinct_schedules_get_distinct_fingerprints` checks
//! the encoding on every one- and many two-step schedule of the paper's
//! operators.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mlir_rl_ir::frame::{self, FrameError};
use mlir_rl_ir::Module;
use mlir_rl_obs::{EventKind, ProbeRef};
use mlir_rl_transforms::ScheduledModule;

use crate::estimator::CostModel;

/// Default maximum number of memoized estimates per table.
pub const DEFAULT_EVAL_CACHE_CAPACITY: usize = 1 << 16;

/// Maximum number of independently locked shards of a [`SharedEvalCache`].
/// A cache whose capacity is smaller than this uses one shard per entry so
/// the global bound still holds exactly.
pub const SHARED_CACHE_SHARDS: usize = 16;

/// Magic bytes opening a cache snapshot file.
const SNAPSHOT_MAGIC: [u8; 4] = *b"MLRC";

/// Current snapshot format version. Bump on any layout change; restore
/// rejects unknown versions as corrupt rather than guessing.
const SNAPSHOT_VERSION: u32 = 1;

/// Canonical identity of a `(module, schedule)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    /// Fingerprint of the module structure (name, ops, loop bounds).
    pub module: u64,
    /// Fingerprint of the per-operation schedules.
    pub schedule: u64,
}

/// Fingerprints a module's identity: its name plus everything about each
/// operation the estimator reads — kind, iteration domain, iterator types,
/// indexing maps and arithmetic profile — so two structurally different
/// modules never share a key even if their names collide.
pub fn module_fingerprint(module: &Module) -> u64 {
    let mut h = DefaultHasher::new();
    module.name().hash(&mut h);
    for op in module.ops() {
        op.id.hash(&mut h);
        op.kind.hash(&mut h);
        op.loop_bounds.hash(&mut h);
        op.iterator_types.hash(&mut h);
        op.indexing_maps.hash(&mut h);
        op.arith.hash(&mut h);
    }
    h.finish()
}

/// The canonical cache key of a scheduled module.
pub fn schedule_key(scheduled: &ScheduledModule) -> ScheduleKey {
    ScheduleKey {
        module: module_fingerprint(scheduled.module()),
        schedule: scheduled.fingerprint(),
    }
}

/// Fraction of `hits + misses` lookups that were hits (0 when there were no
/// lookups) — the one definition behind every hit-rate this workspace
/// reports, from a single episode up to the service metrics.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

/// Why a cache snapshot could not be written or restored. Restore failures
/// leave the table untouched; callers cold-start instead of panicking.
#[derive(Debug)]
pub enum SnapshotError {
    /// The snapshot file could not be read or written.
    Io(std::io::Error),
    /// The snapshot bytes failed structural or checksum validation; the
    /// message names the first check that failed.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot io error: {err}"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            SnapshotError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

impl From<FrameError> for SnapshotError {
    fn from(err: FrameError) -> Self {
        SnapshotError::Corrupt(err.what())
    }
}

/// One memoized total time plus its second chance.
#[derive(Debug, Clone, Copy)]
struct Entry {
    total_s: f64,
    /// Set by a hit, cleared by the clock hand passing over the entry: a
    /// full shard evicts the first entry the hand finds with it clear.
    referenced: bool,
}

/// What one shard insert did, for counter and probe accounting.
#[derive(Debug, Clone, Copy, Default)]
struct InsertOutcome {
    /// A new entry was created (false: the key was present; incumbent kept).
    inserted: bool,
    /// An entry was evicted to make room.
    evicted: bool,
}

/// One independently locked CLOCK shard.
#[derive(Debug, Default)]
struct CacheShard {
    map: HashMap<ScheduleKey, Entry>,
    /// Every key of `map`, in insertion order: the ring the hand sweeps.
    slots: Vec<ScheduleKey>,
    /// The slot the next eviction looks at first.
    hand: usize,
}

impl CacheShard {
    /// Serves a hit on `key`: its time, and whether the hit set a clear
    /// reference bit. `None` if the key is absent.
    fn hit(&mut self, key: &ScheduleKey) -> Option<(f64, bool)> {
        let entry = self.map.get_mut(key)?;
        let promoted = !entry.referenced;
        entry.referenced = true;
        Some((entry.total_s, promoted))
    }

    /// Inserts `key` with its reference bit clear if absent. A shard at
    /// `cap` first moves the hand forward, clearing set bits, and
    /// overwrites the first slot whose bit was clear. An existing key keeps
    /// its incumbent entry untouched.
    fn insert(&mut self, key: ScheduleKey, total_s: f64, cap: usize) -> InsertOutcome {
        if self.map.contains_key(&key) {
            return InsertOutcome::default();
        }
        self.map.insert(
            key,
            Entry {
                total_s,
                referenced: false,
            },
        );
        if self.slots.len() < cap {
            self.slots.push(key);
            return InsertOutcome {
                inserted: true,
                evicted: false,
            };
        }
        let len = self.slots.len();
        loop {
            let slot = &mut self.slots[self.hand];
            self.hand = (self.hand + 1) % len;
            let resident = self.map.get_mut(slot).expect("every slot is in the map");
            if !std::mem::take(&mut resident.referenced) {
                self.map.remove(&std::mem::replace(slot, key));
                return InsertOutcome {
                    inserted: true,
                    evicted: true,
                };
            }
        }
    }
}

/// One sharded, thread-shared memoization table. Cloning shares the table
/// (and the global counters) by reference; handles on any thread see
/// entries inserted by every other handle. See the module docs for the
/// eviction policy, the accounting contract and the persistence format.
#[derive(Debug, Clone)]
pub struct SharedEvalCache {
    shards: Arc<Vec<Mutex<CacheShard>>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    insertions: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
    promotions: Arc<AtomicU64>,
    capacity: usize,
}

impl SharedEvalCache {
    /// Creates a shared cache holding at most `capacity` estimates across
    /// its shards — the bound is global and exact: per-shard capacities sum
    /// to `capacity`, and a capacity below [`SHARED_CACHE_SHARDS`] simply
    /// uses fewer shards instead of silently inflating the bound. A
    /// capacity of zero is clamped to one.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shard_count = SHARED_CACHE_SHARDS.min(capacity);
        Self {
            shards: Arc::new((0..shard_count).map(|_| Mutex::default()).collect()),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            insertions: Arc::new(AtomicU64::new(0)),
            evictions: Arc::new(AtomicU64::new(0)),
            promotions: Arc::new(AtomicU64::new(0)),
            capacity,
        }
    }

    /// Maximum number of memoized estimates, globally across shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard_index(&self, key: &ScheduleKey) -> usize {
        // The fingerprints are already well-mixed hashes; fold them down to
        // a shard index.
        let mix = key.module ^ key.schedule.rotate_left(17);
        (mix as usize) % self.shards.len()
    }

    /// Capacity of shard `index`: `capacity` split as evenly as possible,
    /// remainders to the lowest indices, summing exactly to `capacity`.
    fn shard_cap(&self, index: usize) -> usize {
        let n = self.shards.len();
        self.capacity / n + usize::from(index < self.capacity % n)
    }

    /// Looks up `key`, running `miss` *outside* the shard lock when the
    /// table lacks it, and returns `(total_s, was_hit)`. `miss` must price
    /// the schedule `key` names; the table stores what it returns. Two
    /// threads racing on the same new key both run their miss (same
    /// deterministic result) and both count as misses — see the
    /// module-level accounting contract; one insert wins. The hit/miss
    /// classification and any promotion or eviction the lookup performed
    /// are mirrored into `probe` as trace events; emission is purely
    /// observational, so traced and untraced runs stay bit-identical.
    pub fn lookup(
        &self,
        key: ScheduleKey,
        miss: impl FnOnce() -> f64,
        probe: &ProbeRef,
    ) -> (f64, bool) {
        let index = self.shard_index(&key);
        let shard = index as u64;
        let hit = self.shards[index]
            .lock()
            .expect("cache shard poisoned")
            .hit(&key);
        if let Some((total_s, promoted)) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            probe.emit(EventKind::CacheHit, None, [0, 0, 0]);
            if promoted {
                self.promotions.fetch_add(1, Ordering::Relaxed);
                probe.emit(EventKind::CachePromote, None, [shard, 0, 0]);
            }
            return (total_s, true);
        }
        let total_s = miss();
        self.misses.fetch_add(1, Ordering::Relaxed);
        probe.emit(EventKind::CacheMiss, None, [0, 0, 0]);
        if self.insert(key, total_s).evicted {
            probe.emit(EventKind::CacheEvict, None, [shard, 0, 0]);
        }
        (total_s, false)
    }

    /// [`SharedEvalCache::lookup`] with no trace probe, pricing a miss with
    /// [`CostModel::estimate_scheduled`].
    pub fn total_s_keyed(
        &self,
        key: ScheduleKey,
        model: &CostModel,
        scheduled: &ScheduledModule,
    ) -> (f64, bool) {
        self.lookup(
            key,
            || model.estimate_scheduled(scheduled).total_s,
            &ProbeRef::none(),
        )
    }

    /// Locks the key's shard and inserts (an incumbent keeps its entry),
    /// updating the global counters.
    fn insert(&self, key: ScheduleKey, total_s: f64) -> InsertOutcome {
        let index = self.shard_index(&key);
        let cap = self.shard_cap(index);
        let outcome = self.shards[index]
            .lock()
            .expect("cache shard poisoned")
            .insert(key, total_s, cap);
        if outcome.inserted {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Merges every entry of `other` into this table (replica warmth
    /// exchange). Conflict rule: the incumbent entry wins; new keys are
    /// inserted with their reference bit clear (evicting per policy when
    /// full) in key order, so the merged table is deterministic regardless
    /// of hash-map iteration order. A handle to the same table is a no-op.
    /// Returns the number of newly created entries.
    pub fn absorb(&self, other: &SharedEvalCache) -> u64 {
        if self.same_table(other) {
            return 0;
        }
        self.merge(other.shards.iter().flat_map(sorted_entries))
    }

    /// Inserts `entries` in order under the [`SharedEvalCache::absorb`]
    /// conflict rule and returns the number of newly created entries.
    fn merge(&self, entries: impl IntoIterator<Item = (ScheduleKey, f64)>) -> u64 {
        entries
            .into_iter()
            .map(|(key, total_s)| u64::from(self.insert(key, total_s).inserted))
            .sum()
    }

    /// Global lookups served from the table, across every handle.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Global lookups that ran the estimator, across every handle.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries ever inserted, across every shard and handle.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Entries ever evicted (one at a time, by the clock hand), across
    /// every shard and handle. [`SharedEvalCache::clear`] does not
    /// count as eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits that set a clear reference bit, across every shard and handle.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Global fraction of lookups served from the table.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits(), self.misses())
    }

    /// Number of memoized times across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True if nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all memoized times (counters are kept; this is the one
    /// remaining wholesale wipe, and it is explicit).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.slots.clear();
            shard.hand = 0;
        }
    }

    /// A private copy of the table: a fresh table of the same capacity
    /// holding the same entries, their reference bits clear as after a
    /// snapshot restore, sharing nothing with `self` afterwards.
    pub fn private_copy(&self) -> Self {
        let copy = Self::new(self.capacity);
        copy.absorb(self);
        copy
    }

    /// True if `other` is a handle to the same table.
    pub fn same_table(&self, other: &SharedEvalCache) -> bool {
        Arc::ptr_eq(&self.shards, &other.shards)
    }

    /// Serializes the table to the versioned snapshot byte format (see the
    /// module docs). Entries are emitted in shard order, sorted by key
    /// within each shard, so equal tables produce equal bytes.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let entries: Vec<(ScheduleKey, f64)> =
            self.shards.iter().flat_map(sorted_entries).collect();
        let mut out = frame::begin(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        out.reserve(entries.len() * 41);
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, total_s) in &entries {
            out.extend_from_slice(&key.module.to_le_bytes());
            out.extend_from_slice(&key.schedule.to_le_bytes());
            // The version-1 layout's hit count and segment byte, unused.
            out.extend_from_slice(&0u64.to_le_bytes());
            out.push(0);
            out.extend_from_slice(&total_s.to_bits().to_le_bytes());
            // The per-op count of the version-1 layout: no records follow.
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        frame::seal(out)
    }

    /// Writes a snapshot of the table to `path` and returns the number of
    /// entries written, through [`frame::write_atomic`]: a crash or a full
    /// disk mid-write leaves the previous snapshot intact, and on any
    /// error `path` is untouched.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        let bytes = self.to_snapshot_bytes();
        frame::write_atomic(path.as_ref(), &bytes)?;
        // Entry count sits right after magic + version.
        Ok(u64::from_le_bytes(
            bytes[8..16].try_into().expect("fixed header"),
        ))
    }

    /// Merges a snapshot produced by [`SharedEvalCache::to_snapshot_bytes`]
    /// into this table. The whole image is validated (magic, version,
    /// structure, checksum) *before* any entry is applied: a corrupt
    /// snapshot returns an error and leaves the table untouched. Restored
    /// entries start with their reference bit clear; conflicts follow the
    /// [`SharedEvalCache::absorb`] rule. Returns the number of newly created
    /// entries.
    pub fn restore_from_bytes(&self, bytes: &[u8]) -> Result<u64, SnapshotError> {
        Ok(self.merge(parse_snapshot(bytes)?))
    }

    /// Reads and merges a snapshot file; see
    /// [`SharedEvalCache::restore_from_bytes`]. A missing or unreadable
    /// file is an [`SnapshotError::Io`]; either way the table is untouched
    /// and the caller can cold-start.
    pub fn restore_from(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        let bytes = std::fs::read(path)?;
        self.restore_from_bytes(&bytes)
    }
}

/// One shard's entries as `(key, total_s)`, sorted by key: the
/// deterministic order snapshots and merges walk a table in.
fn sorted_entries(shard: &Mutex<CacheShard>) -> Vec<(ScheduleKey, f64)> {
    let shard = shard.lock().expect("cache shard poisoned");
    let mut entries: Vec<_> = shard.map.iter().map(|(k, e)| (*k, e.total_s)).collect();
    entries.sort_by_key(|(k, _)| (k.module, k.schedule));
    entries
}

/// Fully validates a snapshot image and decodes its entries. Pure: touches
/// no cache state, so callers can reject corrupt images before mutating.
fn parse_snapshot(bytes: &[u8]) -> Result<Vec<(ScheduleKey, f64)>, SnapshotError> {
    let mut reader = frame::open(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let count = reader.u64()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let key = ScheduleKey {
            module: reader.u64()?,
            schedule: reader.u64()?,
        };
        // The hit count and segment tag of the version-1 layout: validated,
        // then ignored.
        reader.u64()?;
        if reader.u8()? > 1 {
            return Err(SnapshotError::Corrupt("unknown segment tag"));
        }
        let total_s = reader.f64()?;
        let per_op_len = reader.u64()?;
        // 40 bytes per op record: reject counts the image cannot hold
        // before allocating.
        if per_op_len > (reader.remaining() as u64) / 40 {
            return Err(SnapshotError::Corrupt("per-op count exceeds image"));
        }
        // Per-op breakdowns (written by older tables) are not kept.
        reader.take(per_op_len as usize * 40)?;
        entries.push((key, total_s));
    }
    reader.finish()?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use mlir_rl_ir::{ModuleBuilder, OpId};
    use mlir_rl_transforms::Transformation;

    fn matmul(m: u64, n: u64, k: u64) -> Module {
        let mut b = ModuleBuilder::new("cache_test");
        let a = b.argument("A", vec![m, k]);
        let w = b.argument("B", vec![k, n]);
        b.matmul(a, w);
        b.finish()
    }

    /// One untraced lookup, keyed the way the environment keys it.
    fn lookup(cache: &SharedEvalCache, cm: &CostModel, sm: &ScheduledModule) -> (f64, bool) {
        cache.total_s_keyed(schedule_key(sm), cm, sm)
    }

    #[test]
    fn cached_result_matches_direct_evaluation() {
        let cm = CostModel::new(MachineModel::default());
        let cache = SharedEvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY);
        let mut sm = ScheduledModule::new(matmul(64, 64, 64));
        sm.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![8, 8, 0],
            },
        )
        .unwrap();
        let direct = cm.estimate_scheduled(&sm).total_s;
        let (cached, was_hit) = lookup(&cache, &cm, &sm);
        assert_eq!((direct.to_bits(), was_hit), (cached.to_bits(), false));
        assert_eq!(cache.misses(), 1);
        // Second lookup is a hit and returns the identical time.
        let (again, was_hit) = lookup(&cache, &cm, &sm);
        assert_eq!((direct.to_bits(), was_hit), (again.to_bits(), true));
        assert_eq!(cache.hits(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_schedules_get_different_keys() {
        let base = ScheduledModule::new(matmul(64, 64, 64));
        let mut tiled = base.clone();
        tiled
            .apply(
                OpId(0),
                Transformation::Tiling {
                    tile_sizes: vec![8, 8, 0],
                },
            )
            .unwrap();
        assert_ne!(schedule_key(&base), schedule_key(&tiled));
        // Same module fingerprint, different schedule fingerprint.
        assert_eq!(schedule_key(&base).module, schedule_key(&tiled).module);
    }

    #[test]
    fn different_modules_get_different_keys() {
        let a = ScheduledModule::new(matmul(64, 64, 64));
        let b = ScheduledModule::new(matmul(128, 64, 64));
        assert_ne!(schedule_key(&a).module, schedule_key(&b).module);
    }

    #[test]
    fn same_name_different_body_gets_different_keys() {
        // Two modules with identical names, shapes and iterator types but
        // different op kinds/arithmetic must not share a fingerprint.
        let mut b1 = ModuleBuilder::new("twin");
        let x1 = b1.argument("x", vec![64, 64]);
        let y1 = b1.argument("y", vec![64, 64]);
        b1.add(x1, y1);
        let mut b2 = ModuleBuilder::new("twin");
        let x2 = b2.argument("x", vec![64, 64]);
        let _y2 = b2.argument("y", vec![64, 64]);
        b2.sigmoid(x2);
        assert_ne!(
            module_fingerprint(&b1.finish()),
            module_fingerprint(&b2.finish())
        );
    }

    #[test]
    fn capacity_bounds_the_owned_table() {
        let cm = CostModel::new(MachineModel::default());
        let cache = SharedEvalCache::new(2);
        for size in [32u64, 48, 64] {
            let sm = ScheduledModule::new(matmul(size, size, size));
            lookup(&cache, &cm, &sm);
        }
        assert_eq!(cache.capacity(), 2);
        assert!(cache.len() <= 2, "capacity must bound the table");
        assert_eq!(cache.misses(), 3);
        assert_eq!(
            cache.evictions(),
            1,
            "overflow evicts one entry, it does not reset the table"
        );
    }

    #[test]
    fn clone_is_a_private_copy_of_the_table() {
        let cm = CostModel::new(MachineModel::default());
        let master = SharedEvalCache::new(64);
        for size in [32u64, 48, 64] {
            let sm = ScheduledModule::new(matmul(size, size, size));
            lookup(&master, &cm, &sm);
        }
        let copy = master.private_copy();
        assert!(!copy.same_table(&master));
        assert_eq!(copy.capacity(), 64);
        // The copy starts with the master's entries...
        let sm = ScheduledModule::new(matmul(32, 32, 32));
        let (_, was_hit) = lookup(&copy, &cm, &sm);
        assert!(was_hit);
        assert_eq!(
            (copy.hits(), copy.misses()),
            (1, 0),
            "its counters start at zero"
        );
        // ...and what it learns afterwards stays with it.
        let fresh = ScheduledModule::new(matmul(96, 96, 96));
        lookup(&copy, &cm, &fresh);
        assert_eq!(copy.len(), 4);
        assert_eq!(master.len(), 3);
        let (_, was_hit) = lookup(&master, &cm, &fresh);
        assert!(!was_hit, "a copy's insert must not reach the original");
    }

    #[test]
    fn shared_global_counters_aggregate_across_handles() {
        use mlir_rl_obs::TraceRecorder;
        let cm = CostModel::new(MachineModel::default());
        let a = SharedEvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY);
        let b = a.clone();
        let recorder = TraceRecorder::new(1 << 6, 2);
        let (probe_a, probe_b) = (recorder.probe(0), recorder.probe(0).with_trace(7));
        let sm = ScheduledModule::new(matmul(64, 64, 64));
        let key = schedule_key(&sm);
        let price = || cm.estimate_scheduled(&sm).total_s;
        let miss = a.lookup(key, price, &probe_a);
        let hit = b.lookup(key, price, &probe_b);
        assert_eq!((miss.1, hit.1), (false, true));
        // Either clone reads the global counters of both lookups.
        for handle in [&a, &b] {
            assert_eq!((handle.hits(), handle.misses()), (1, 1));
            assert!((handle.hit_rate() - 0.5).abs() < 1e-12);
        }
        // Each lookup is attributed only through the probe it was made with.
        let kinds = |trace_id: u64| -> Vec<EventKind> {
            let snapshot = recorder.snapshot();
            let events = snapshot.events.iter().filter(|e| e.trace_id == trace_id);
            events.map(|e| e.kind).collect()
        };
        assert_eq!(kinds(0), [EventKind::CacheMiss]);
        assert_eq!(kinds(7), [EventKind::CacheHit, EventKind::CachePromote]);
    }

    #[test]
    fn absorb_between_same_table_handles_is_a_noop() {
        let cm = CostModel::new(MachineModel::default());
        let a = SharedEvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY);
        let b = a.clone();
        let sm = ScheduledModule::new(matmul(64, 64, 64));
        lookup(&b, &cm, &sm);
        assert_eq!(a.absorb(&b), 0);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn shared_cache_is_consistent_under_concurrent_lookups() {
        let cm = CostModel::new(MachineModel::default());
        let handle = SharedEvalCache::new(1 << 12);
        let sizes: Vec<u64> = (1..24).map(|i| 16 * i).collect();
        let expected: Vec<f64> = sizes
            .iter()
            .map(|s| {
                cm.estimate_scheduled(&ScheduledModule::new(matmul(*s, *s, *s)))
                    .total_s
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = handle.clone();
                let cm = cm.clone();
                let sizes = sizes.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    for (size, want) in sizes.iter().zip(&expected) {
                        let sm = ScheduledModule::new(matmul(*size, *size, *size));
                        let (got, _) = handle.total_s_keyed(schedule_key(&sm), &cm, &sm);
                        assert_eq!(got, *want, "shared value must match direct evaluation");
                    }
                });
            }
        });
        assert_eq!(handle.len(), sizes.len());
        assert_eq!(handle.hits() + handle.misses(), 4 * sizes.len() as u64);
    }

    #[test]
    fn racing_same_key_misses_keep_accounting_exact() {
        // Every estimator run is a miss, even when its insert loses the
        // race — so hits + misses equals total lookups, exactly.
        let cm = CostModel::new(MachineModel::default());
        let handle = SharedEvalCache::new(1 << 8);
        let threads = 8;
        let rounds = 4u64;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let handle = handle.clone();
                let cm = cm.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    for round in 0..rounds {
                        let size = 16 * (round + 1);
                        let sm = ScheduledModule::new(matmul(size, size, size));
                        let key = schedule_key(&sm);
                        barrier.wait(); // all threads race on the same new key
                        handle.total_s_keyed(key, &cm, &sm);
                    }
                });
            }
        });
        let total = threads as u64 * rounds;
        assert_eq!(handle.hits() + handle.misses(), total);
        assert!(handle.misses() >= rounds, "each round misses at least once");
        // Lost insert races must not inflate the insertion counter past
        // one per distinct key.
        assert_eq!(handle.insertions(), rounds);
        assert_eq!(handle.len(), rounds as usize);
    }

    #[test]
    fn tiny_capacity_bound_holds_under_churn() {
        // capacity < SHARED_CACHE_SHARDS used to inflate the bound to one
        // entry *per shard* (16x); the bound is global now.
        let cm = CostModel::new(MachineModel::default());
        for capacity in [1usize, 2, 5, 7] {
            let handle = SharedEvalCache::new(capacity);
            for i in 1..60u64 {
                let sm = ScheduledModule::new(matmul(8 * i, 8 * i, 8 * i));
                handle.total_s_keyed(schedule_key(&sm), &cm, &sm);
                assert!(
                    handle.len() <= capacity,
                    "len {} exceeds capacity {capacity}",
                    handle.len()
                );
            }
            assert!(!handle.is_empty());
            assert!(handle.evictions() > 0, "churn must evict entry-wise");
            assert_eq!(
                handle.insertions() - handle.evictions(),
                handle.len() as u64,
                "inserts minus evictions must equal occupancy"
            );
        }
    }

    #[test]
    fn shard_overflow_evicts_entry_wise_not_wholesale() {
        let cm = CostModel::new(MachineModel::default());
        let handle = SharedEvalCache::new(SHARED_CACHE_SHARDS);
        let mut touched = std::collections::BTreeSet::new();
        for i in 1..40u64 {
            let sm = ScheduledModule::new(matmul(8 * i, 8 * i, 8 * i));
            let key = schedule_key(&sm);
            touched.insert(handle.shard_index(&key));
            handle.total_s_keyed(key, &cm, &sm);
            assert!(handle.len() <= SHARED_CACHE_SHARDS);
        }
        assert!(handle.evictions() > 0, "39 keys overflow 16 slots");
        for (index, shard) in handle.shards.iter().enumerate() {
            let shard = shard.lock().unwrap();
            assert_eq!(shard.map.len(), shard.slots.len());
            assert!(shard.map.len() <= handle.shard_cap(index));
            // A shard that ever received an insert is still full: an insert
            // into a full shard replaces one entry, it never wipes the shard.
            if touched.contains(&index) {
                assert_eq!(
                    shard.map.len(),
                    handle.shard_cap(index),
                    "no shard is wiped"
                );
            }
        }
        assert_eq!(
            handle.insertions() - handle.evictions(),
            handle.len() as u64
        );
    }

    /// Keys that all map to shard 0 of `cache`.
    fn shard_zero_keys(cache: &SharedEvalCache, n: u64) -> Vec<ScheduleKey> {
        let shards = cache.shards.len() as u64;
        (0..n)
            .map(|i| ScheduleKey {
                module: i * shards,
                schedule: 0,
            })
            .inspect(|k| assert_eq!(cache.shard_index(k), 0))
            .collect()
    }

    #[test]
    fn eviction_gives_hit_entries_a_second_chance() {
        let cm = CostModel::new(MachineModel::default());
        // Keys constructed to collide on shard 0, which has room for 4.
        let cache = SharedEvalCache::new(SHARED_CACHE_SHARDS * 4);
        let keys = shard_zero_keys(&cache, 8);
        assert_eq!(cache.shard_cap(0), 4);
        let sm = ScheduledModule::new(matmul(64, 64, 64));

        // Fill shard 0: k0..k3, all with their reference bit clear.
        for key in keys.iter().take(4) {
            cache.total_s_keyed(*key, &cm, &sm);
        }
        // Hit k0 and k1: their bits are set.
        cache.total_s_keyed(keys[0], &cm, &sm);
        cache.total_s_keyed(keys[1], &cm, &sm);
        assert_eq!(cache.promotions(), 2);

        // Insert k4 into the full shard: the hand clears k0 and k1 and
        // evicts the *oldest never-hit* entry, k2 — not a hit one, and not
        // the whole shard.
        cache.total_s_keyed(keys[4], &cm, &sm);
        assert_eq!(cache.evictions(), 1);
        let (_, k0_hit) = cache.total_s_keyed(keys[0], &cm, &sm);
        let (_, k3_hit) = cache.total_s_keyed(keys[3], &cm, &sm);
        assert!(k0_hit, "a hit entry survives");
        assert!(k3_hit, "a younger never-hit entry survives");
        let (_, k2_hit) = cache.total_s_keyed(keys[2], &cm, &sm);
        assert!(!k2_hit, "the oldest never-hit entry was the victim");
    }

    #[test]
    fn a_fully_referenced_shard_sweeps_once_then_evicts_in_slot_order() {
        let cm = CostModel::new(MachineModel::default());
        let cache = SharedEvalCache::new(SHARED_CACHE_SHARDS * 4);
        let keys = shard_zero_keys(&cache, 6);
        let sm = ScheduledModule::new(matmul(32, 32, 32));
        for key in &keys[..4] {
            cache.total_s_keyed(*key, &cm, &sm);
            cache.total_s_keyed(*key, &cm, &sm);
        }
        let state = |cache: &SharedEvalCache| {
            let shard = cache.shards[0].lock().unwrap();
            let bits: Vec<bool> = shard
                .slots
                .iter()
                .map(|k| shard.map[k].referenced)
                .collect();
            (shard.slots.clone(), bits, shard.hand)
        };
        assert_eq!(state(&cache), (keys[..4].to_vec(), vec![true; 4], 0));

        // One full turn clears every bit, and the slot under the hand goes.
        cache.total_s_keyed(keys[4], &cm, &sm);
        let slots = vec![keys[4], keys[1], keys[2], keys[3]];
        assert_eq!(state(&cache), (slots, vec![false; 4], 1));
        // The next insert evicts the following slot without sweeping.
        cache.total_s_keyed(keys[5], &cm, &sm);
        let slots = vec![keys[4], keys[5], keys[2], keys[3]];
        assert_eq!(state(&cache), (slots, vec![false; 4], 2));
        assert_eq!((cache.evictions(), cache.promotions()), (2, 4));
    }

    #[test]
    fn snapshot_roundtrip_restores_warmth_bit_identically() {
        let cm = CostModel::new(MachineModel::default());
        let source = SharedEvalCache::new(1 << 10);
        let schedules: Vec<ScheduledModule> = (1..12u64)
            .map(|i| ScheduledModule::new(matmul(16 * i, 16 * i, 16 * i)))
            .collect();
        for sm in &schedules {
            source.total_s_keyed(schedule_key(sm), &cm, sm);
        }
        // A few repeat hits so hit counts are nonzero in the image.
        source.total_s_keyed(schedule_key(&schedules[0]), &cm, &schedules[0]);

        let bytes = source.to_snapshot_bytes();
        let restored = SharedEvalCache::new(1 << 10);
        let created = restored.restore_from_bytes(&bytes).expect("valid image");
        assert_eq!(created, schedules.len() as u64);
        assert_eq!(restored.len(), source.len());

        // Every restored lookup is a hit with the bit-identical time.
        for sm in &schedules {
            let want = cm.estimate_scheduled(sm).total_s;
            let (got, was_hit) = restored.total_s_keyed(schedule_key(sm), &cm, sm);
            assert!(was_hit, "restored entries must serve hits");
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // Snapshotting equal tables yields equal bytes (determinism).
        assert_eq!(bytes[..], source.to_snapshot_bytes()[..]);

        // File roundtrip too.
        let path =
            std::env::temp_dir().join(format!("mlir-rl-cache-test-{}.snap", std::process::id()));
        source.snapshot_to(&path).expect("snapshot write");
        let from_file = SharedEvalCache::new(1 << 10);
        assert_eq!(
            from_file.restore_from(&path).expect("snapshot read"),
            schedules.len() as u64
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_version_1_cache_image_round_trips_byte_for_byte() {
        // Two entries, in the image's shard order. Every snapshot file on
        // disk is laid out like this; a codec change that moves a byte
        // orphans them all.
        //
        // Written by a table that stored per-op breakdowns and ran the
        // segmented policy (two ops, hit count 5 and segment 1; then one op
        // with a `-0.0` and a `f64::MIN_POSITIVE` among its times, never
        // hit): the same layout with nonzero per-op counts, hit counts and
        // segment tags.
        const OLD_IMAGE: [u8; 226] = [
            77, 76, 82, 67, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 64, 2, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63,
            0, 0, 0, 0, 0, 0, 192, 63, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 8, 7, 6,
            5, 4, 3, 2, 1, 24, 23, 22, 21, 20, 19, 18, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 248, 63, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 248,
            63, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 248, 63, 178,
            118, 53, 180, 231, 220, 6, 47,
        ];
        // Written by this table: hit counts, segment tags and per-op counts
        // are all 0.
        const IMAGE: [u8; 106] = [
            77, 76, 82, 67, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 64, 0, 0, 0, 0, 0, 0, 0, 0,
            8, 7, 6, 5, 4, 3, 2, 1, 24, 23, 22, 21, 20, 19, 18, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 248, 63, 0, 0, 0, 0, 0, 0, 0, 0, 81, 160, 14, 200, 250, 18, 227, 54,
        ];
        let young = (
            ScheduleKey {
                module: 0x0102_0304_0506_0708,
                schedule: 0x1112_1314_1516_1718,
            },
            1.5f64,
        );
        let hit = (
            ScheduleKey {
                module: 2,
                schedule: 0,
            },
            2.25f64,
        );
        let cm = CostModel::new(MachineModel::default());
        let sm = ScheduledModule::new(matmul(16, 16, 16));
        let referenced = |table: &SharedEvalCache, key: &ScheduleKey| {
            table.shards[table.shard_index(key)].lock().unwrap().map[key].referenced
        };
        let table = SharedEvalCache::new(64);
        assert!(table.insert(young.0, young.1).inserted);
        assert!(table.insert(hit.0, hit.1).inserted);
        assert_eq!(table.total_s_keyed(hit.0, &cm, &sm), (2.25, true));
        assert!(referenced(&table, &hit.0));
        assert_eq!(table.to_snapshot_bytes(), IMAGE);

        // Both literals restore to the same table: the times come back bit
        // for bit, every reference bit clear, and then serve hits — which
        // set the bits but leave the image as it was.
        let from_old = SharedEvalCache::new(64);
        assert_eq!(
            from_old.restore_from_bytes(&OLD_IMAGE).expect("version 1"),
            2
        );
        let from_new = SharedEvalCache::new(64);
        assert_eq!(from_new.restore_from_bytes(&IMAGE).expect("version 1"), 2);
        assert_eq!(from_old.to_snapshot_bytes(), IMAGE);
        assert_eq!(from_new.to_snapshot_bytes(), IMAGE);
        for (key, want) in [young, hit] {
            assert!(!referenced(&from_old, &key));
            let (got, was_hit) = from_old.total_s_keyed(key, &cm, &sm);
            assert_eq!((got.to_bits(), was_hit), (want.to_bits(), true));
            assert!(referenced(&from_old, &key));
        }
        assert_eq!(from_old.to_snapshot_bytes(), IMAGE);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_without_mutation() {
        let cm = CostModel::new(MachineModel::default());
        let source = SharedEvalCache::new(64);
        for i in 1..6u64 {
            let sm = ScheduledModule::new(matmul(16 * i, 16 * i, 16 * i));
            source.total_s_keyed(schedule_key(&sm), &cm, &sm);
        }
        let good = source.to_snapshot_bytes();

        let target = SharedEvalCache::new(64);
        let reject = |bytes: &[u8]| {
            let err = target
                .restore_from_bytes(bytes)
                .expect_err("corrupt image must be rejected");
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
            assert!(target.is_empty(), "a rejected restore must not mutate");
        };

        reject(&[]); // empty
        reject(&good[..good.len() - 3]); // truncated
        let mut flipped = good.clone();
        flipped[20] ^= 0x40;
        reject(&flipped); // bit rot
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        reject(&bad_magic); // wrong magic (checksum also trips; both corrupt)
        let mut bad_version = good.clone();
        bad_version[4] = 0xEE;
        reject(&bad_version);
        // Missing file is an io error, also non-fatal.
        let missing = std::env::temp_dir().join("mlir-rl-no-such-snapshot.snap");
        assert!(matches!(
            target.restore_from(&missing),
            Err(SnapshotError::Io(_))
        ));
        assert!(target.is_empty());

        // The pristine image still restores fine afterwards.
        assert_eq!(target.restore_from_bytes(&good).expect("valid"), 5);
    }

    #[test]
    fn failed_snapshot_write_keeps_the_previous_snapshot() {
        let cm = CostModel::new(MachineModel::default());
        let dir = std::env::temp_dir().join(format!("mlir-rl-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let path = dir.join("cache.snap");
        let table_of = |entries: u64| {
            let table = SharedEvalCache::new(64);
            for i in 1..=entries {
                let sm = ScheduledModule::new(matmul(16 * i, 16 * i, 16 * i));
                table.total_s_keyed(schedule_key(&sm), &cm, &sm);
            }
            table
        };
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .expect("scratch directory")
                .map(|entry| entry.expect("entry").file_name())
                .collect();
            names.sort();
            names
        };

        let old = table_of(1);
        assert_eq!(old.snapshot_to(&path).expect("first write"), 1);
        assert_eq!(listing(), ["cache.snap"], "a write leaves no temp sibling");
        let good = std::fs::read(&path).expect("snapshot exists");

        // A snapshot whose name leaves no room for the temp suffix: the next
        // write fails creating its sibling, before it can touch the image.
        let newer = table_of(3);
        let cramped = dir.join("s".repeat(250));
        std::fs::write(&cramped, &good).expect("previous image");
        assert!(matches!(
            newer.snapshot_to(&cramped),
            Err(SnapshotError::Io(_))
        ));
        assert_eq!(std::fs::read(&cramped).expect("still there"), good);
        let restored = SharedEvalCache::new(64);
        assert_eq!(restored.restore_from(&cramped).expect("previous image"), 1);
        assert_eq!(restored.to_snapshot_bytes(), old.to_snapshot_bytes());
        std::fs::remove_file(&cramped).expect("scratch file");

        // A missing target directory fails too, and so does a rename onto
        // an occupied directory — after which the sibling is cleaned up.
        let nowhere = dir.join("missing").join("cache.snap");
        assert!(matches!(
            newer.snapshot_to(&nowhere),
            Err(SnapshotError::Io(_))
        ));
        let occupied = dir.join("occupied");
        std::fs::create_dir(&occupied).expect("blocker");
        std::fs::write(occupied.join("file"), b"x").expect("blocker content");
        assert!(matches!(
            newer.snapshot_to(&occupied),
            Err(SnapshotError::Io(_))
        ));
        assert_eq!(listing(), ["cache.snap", "occupied"]);
        assert_eq!(std::fs::read(&path).expect("still there"), good);

        assert_eq!(newer.snapshot_to(&path).expect("second write"), 3);
        assert_eq!(listing(), ["cache.snap", "occupied"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absorb_keeps_incumbent_and_reconciles_hits() {
        let cm = CostModel::new(MachineModel::default());
        let sm = ScheduledModule::new(matmul(16, 16, 16));
        let key = ScheduleKey {
            module: 7,
            schedule: 9,
        };
        let other = ScheduleKey {
            module: 8,
            schedule: 1,
        };
        let a = SharedEvalCache::new(64);
        let b = SharedEvalCache::new(64);
        a.insert(key, 1.0);
        b.insert(key, 2.0);
        b.insert(other, 4.0);
        // Both of b's entries are hit; of a's, none.
        b.total_s_keyed(key, &cm, &sm);
        b.total_s_keyed(other, &cm, &sm);

        let created = a.absorb(&b);
        assert_eq!(created, 1, "only the non-conflicting key is new");
        assert_eq!(a.len(), 2);
        let entry = |key: &ScheduleKey| a.shards[a.shard_index(key)].lock().unwrap().map[key];
        assert_eq!(entry(&key).total_s, 1.0, "incumbent time wins");
        assert!(!entry(&key).referenced, "the incumbent keeps its own bit");
        assert_eq!(entry(&other).total_s, 4.0);
        assert!(!entry(&other).referenced, "an absorbed entry starts clear");
        // Same-table absorb is a no-op.
        assert_eq!(a.absorb(&a.clone()), 0);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn absorb_order_does_not_change_lookup_results() {
        let cm = CostModel::new(MachineModel::default());
        let schedules: Vec<ScheduledModule> = (1..10u64)
            .map(|i| ScheduledModule::new(matmul(16 * i, 16 * i, 16 * i)))
            .collect();
        let build = |range: std::ops::Range<usize>| {
            let cache = SharedEvalCache::new(6); // tighter than the key count
            for sm in &schedules[range] {
                cache.total_s_keyed(schedule_key(sm), &cm, sm);
            }
            cache
        };
        let ab = build(0..6);
        ab.absorb(&build(3..9));
        let ba = build(3..9);
        ba.absorb(&build(0..6));
        // Which entries survive may differ with capacity pressure, but
        // every lookup answer is bit-identical to direct evaluation in
        // both merge orders.
        for sm in &schedules {
            let want = cm.estimate_scheduled(sm).total_s;
            let (x, _) = ab.total_s_keyed(schedule_key(sm), &cm, sm);
            let (y, _) = ba.total_s_keyed(schedule_key(sm), &cm, sm);
            assert_eq!(x.to_bits(), want.to_bits());
            assert_eq!(y.to_bits(), want.to_bits());
        }
        assert!(ab.len() <= 6 && ba.len() <= 6);
    }

    #[test]
    fn evicted_then_recomputed_entries_stay_bit_identical() {
        let cm = CostModel::new(MachineModel::default());
        let tiny = SharedEvalCache::new(3);
        let roomy = SharedEvalCache::new(1 << 10);
        let schedules: Vec<ScheduledModule> = (1..20u64)
            .map(|i| ScheduledModule::new(matmul(8 * i, 8 * i, 8 * i)))
            .collect();
        // Two passes through the keys: the tiny cache churns hard, the
        // roomy one never evicts; every answer must agree bit for bit.
        for _ in 0..2 {
            for sm in &schedules {
                let key = schedule_key(sm);
                let (a, _) = tiny.total_s_keyed(key, &cm, sm);
                let (b, _) = roomy.total_s_keyed(key, &cm, sm);
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(tiny.evictions() > 0, "the tiny cache must have churned");
        assert_eq!(roomy.evictions(), 0);
    }

    #[test]
    fn probe_mirrors_evictions_and_promotions() {
        use mlir_rl_obs::TraceRecorder;
        let cm = CostModel::new(MachineModel::default());
        let recorder = TraceRecorder::new(1 << 10, 1);
        let cache = SharedEvalCache::new(2);
        let probe = recorder.probe(0);
        let schedules: Vec<ScheduledModule> = (1..6u64)
            .map(|i| ScheduledModule::new(matmul(16 * i, 16 * i, 16 * i)))
            .collect();
        let traced = |sm: &ScheduledModule| {
            cache.lookup(
                schedule_key(sm),
                || cm.estimate_scheduled(sm).total_s,
                &probe,
            )
        };
        // Pin one entry warm (miss, then a promoting hit), then churn the
        // 2-entry table with fresh keys so admissions must evict.
        traced(&schedules[0]);
        traced(&schedules[0]);
        for sm in &schedules[1..] {
            traced(sm);
        }
        let count = |kind: EventKind| {
            recorder
                .snapshot()
                .events
                .iter()
                .filter(|e| e.kind == kind)
                .count()
        };
        assert_eq!(count(EventKind::CacheHit), 1);
        assert_eq!(count(EventKind::CacheMiss), 5);
        assert_eq!(
            count(EventKind::BudgetCharge),
            0,
            "the table keeps no ledger; a CacheMiss marks each estimator run"
        );
        assert_eq!(count(EventKind::CachePromote), 1, "the repeat hit promotes");
        assert!(
            count(EventKind::CacheEvict) >= 3,
            "churning a 2-entry table past capacity must emit evictions"
        );
    }
}
