//! The durable content-addressed store.
//!
//! [`DurableContentStore`] is the on-disk twin of `xpl-store`'s sharded
//! in-memory CAS: blobs keyed by SHA-256 digest, refcounted, deduped on
//! `put`. Bytes live in append-only [`crate::segment`] files; index
//! mutations are logged as [`crate::wal`] records and made durable by a
//! group [`DurableContentStore::commit`]; a [`crate::manifest`]
//! checkpoint bounds replay work and rotates the log to a fresh
//! generation.
//!
//! # Concurrency
//!
//! Reads (`get`, `contains`, `refs_of`, `snapshot_refs`) take only the
//! 16 digest-addressed shard locks and proceed in parallel, exactly like
//! the in-memory CAS. Mutations serialize on the **log lock** — they are
//! appends to a single active segment and a single WAL, so the lock
//! mirrors the physical bottleneck (one disk head); the lock also makes
//! checkpoints consistent (a checkpoint cannot interleave with a
//! half-logged operation). Lock order: `log` → shard; reads never take
//! `log`.
//!
//! # Crash consistency
//!
//! A mutation is a *logged op* followed, sooner or later, by a
//! *commit*. The logged forms ([`DurableContentStore::log_put`],
//! `log_add_ref`, `log_release`) append a new blob to the active segment
//! **unsynced**, queue the WAL record in memory and update the index at
//! once — memory runs ahead of the medium. [`DurableContentStore::commit`]
//! then makes everything logged so far durable in dependency order:
//! every dirty segment is synced **first**, then all queued records go
//! to the WAL in one append, then the WAL is synced once. So a record
//! on the medium never points at a payload that is not, whichever
//! thread logged it, and a batch costs at most one fsync per dirty
//! segment plus one for the log, however many records it holds.
//!
//! What is acknowledged is what was committed: `put` / `add_ref` /
//! `release` are "logged op, then commit" and durable on return; a
//! caller batching the logged forms (a repository publish) owns the
//! commit and may not report success before it returned `Ok`. A power
//! cut inside a batch loses a suffix of its records — a torn WAL append
//! replays a whole-record prefix — and recovery
//! ([`DurableContentStore::open`] / `reopen_in_place`) rebuilds exactly
//! that prefix: manifest, then WAL replay (torn tail dropped), then
//! resume appending at the physical end of the newest segment. A
//! commit that *fails* leaves the index ahead of the medium with the
//! log in an unknown state, so the handle refuses every later commit
//! with the same error until `reopen_in_place` has rebuilt it from
//! disk.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use xpl_obs::{Counter, ObsSlot, Registry, Section, TraceRing};
use xpl_util::{Digest, FxHashMap, Sha256};

use crate::manifest::{self, Manifest, ManifestEntry};
use crate::segment;
use crate::vfs::Vfs;
use crate::wal::{self, WalOp};
use crate::PersistError;

/// Same shard fan-out as the in-memory CAS.
pub const SHARD_COUNT: usize = 16;

fn shard_of(digest: &Digest) -> usize {
    (digest.0[0] as usize) & (SHARD_COUNT - 1)
}

/// Store configuration.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// File-name prefix: `{prefix}.wal-NNNNNN`, `{prefix}.manifest`,
    /// `{prefix}.seg-NNNNNN`.
    pub prefix: String,
    /// Roll to a new segment once the active one reaches this size.
    pub segment_target_bytes: u64,
    /// Checkpoint (manifest swap + WAL rotation) every N logged ops;
    /// 0 disables automatic checkpoints.
    pub checkpoint_every_ops: u64,
}

impl DurableConfig {
    pub fn named(prefix: &str) -> DurableConfig {
        DurableConfig {
            prefix: prefix.to_string(),
            segment_target_bytes: 8 * 1024 * 1024,
            checkpoint_every_ops: 1024,
        }
    }
}

#[derive(Clone, Copy)]
struct DurableBlob {
    segment: u32,
    offset: u64,
    len: u64,
    refs: u32,
}

struct LogState {
    /// Active segment id (1-based).
    segment: u32,
    /// Logged ops since the last checkpoint.
    ops_since_checkpoint: u64,
    /// WAL generation. Each checkpoint rotates to a fresh log file
    /// (`prefix.wal-NNNNNN`) *named by the manifest it belongs to*, so
    /// a crash between the manifest swap and the old log's cleanup can
    /// never replay a stale WAL over a newer manifest.
    epoch: u64,
    /// Frames of logged records not yet appended to the WAL, in log
    /// order.
    pending: Vec<u8>,
    /// Segments holding appended but unsynced records, ascending (the
    /// active one, and its predecessors when the batch rolled).
    dirty_segments: Vec<u32>,
    /// The error that broke a commit or an in-op checkpoint: memory is
    /// ahead of the medium, so no later commit may succeed before
    /// recovery.
    failed: Option<PersistError>,
}

impl LogState {
    fn recovered(r: &Recovered) -> LogState {
        LogState {
            segment: r.segment,
            ops_since_checkpoint: r.report.wal_records_replayed,
            epoch: r.epoch,
            pending: Vec::new(),
            dirty_segments: Vec::new(),
            failed: None,
        }
    }
}

/// What recovery found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    pub manifest_entries: usize,
    pub wal_records_replayed: u64,
    /// Valid WAL bytes (torn tail excluded).
    pub wal_bytes_valid: u64,
    pub torn_wal_tail: bool,
    /// Live blobs after recovery.
    pub blobs: usize,
    pub unique_bytes: u64,
}

/// Pre-resolved `xpl-obs` handles for the durable hot paths. The
/// record and read counters are op-count-derived and deterministic (the
/// log lock serializes mutations, but the *multiset* of logged ops is
/// thread-count-invariant, so totals are too). `persist.fsyncs` is not:
/// a commit flushes whatever any thread has logged, so with concurrent
/// writers the number of syncs depends on scheduling — it lives in the
/// wall section. `deep_verify` — an audit — reads through uncounted
/// helpers and bumps nothing.
pub struct PersistObs {
    wal_appends: Arc<Counter>,
    fsyncs: Arc<Counter>,
    segment_appends: Arc<Counter>,
    segment_reads: Arc<Counter>,
    segment_read_bytes: Arc<Counter>,
    checkpoints: Arc<Counter>,
    recoveries: Arc<Counter>,
    replay_records: Arc<Counter>,
    replay_torn_tails: Arc<Counter>,
}

impl PersistObs {
    /// Resolve (or re-use) the `persist.*` metric family in `reg`.
    pub fn new(reg: &Registry) -> Self {
        PersistObs {
            wal_appends: reg.counter("persist.wal.appends", Section::Det),
            fsyncs: reg.counter("persist.fsyncs", Section::Wall),
            segment_appends: reg.counter("persist.segment.appends", Section::Det),
            segment_reads: reg.counter("persist.segment.reads", Section::Det),
            segment_read_bytes: reg.counter("persist.segment.read_bytes", Section::Det),
            checkpoints: reg.counter("persist.checkpoints", Section::Det),
            recoveries: reg.counter("persist.recover.runs", Section::Det),
            replay_records: reg.counter("persist.recover.replayed", Section::Det),
            replay_torn_tails: reg.counter("persist.recover.torn_tails", Section::Det),
        }
    }
}

/// The durable CAS.
pub struct DurableContentStore {
    vfs: Arc<dyn Vfs>,
    cfg: DurableConfig,
    shards: Vec<RwLock<FxHashMap<Digest, DurableBlob>>>,
    log: Mutex<LogState>,
    unique_bytes: AtomicU64,
    dedup_hits: AtomicU64,
    wal_appends: AtomicU64,
    checkpoints: AtomicU64,
    obs: ObsSlot<PersistObs>,
    /// Optional span sink; recovery replay shows up as
    /// `persist.recover` spans when attached.
    trace: ObsSlot<TraceRing>,
}

/// Recovered logical state, before it is installed into a store.
struct Recovered {
    blobs: FxHashMap<Digest, DurableBlob>,
    segment: u32,
    epoch: u64,
    report: RecoveryReport,
}

/// WAL file of generation `epoch` under `prefix`.
fn wal_name(prefix: &str, epoch: u64) -> String {
    format!("{prefix}.wal-{epoch:06}")
}

/// Parse a WAL file name back to its epoch.
fn parse_wal_name(prefix: &str, name: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_prefix(".wal-")?
        .parse()
        .ok()
}

impl DurableContentStore {
    /// Open (or create) the store on `vfs`: load the manifest if one
    /// exists, replay the WAL over it (dropping a torn tail cleanly),
    /// and resume appending after the newest segment's physical end.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        cfg: DurableConfig,
    ) -> Result<(DurableContentStore, RecoveryReport), PersistError> {
        let recovered = Self::recover_state(vfs.as_ref(), &cfg)?;
        let store = DurableContentStore {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            log: Mutex::new(LogState::recovered(&recovered)),
            unique_bytes: AtomicU64::new(recovered.report.unique_bytes),
            dedup_hits: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            obs: ObsSlot::new(),
            trace: ObsSlot::new(),
            vfs,
            cfg,
        };
        for (digest, blob) in recovered.blobs {
            store.shards[shard_of(&digest)]
                .write()
                .unwrap()
                .insert(digest, blob);
        }
        let report = recovered.report;
        Ok((store, report))
    }

    /// Recover in place after the harness rebooted the medium: drop the
    /// whole in-memory index — records logged but never committed and
    /// a failed commit's error with it — and rebuild it from disk. The
    /// handle stays valid, so callers holding the store through a
    /// write-through CAS keep working after recovery. All 16 shard
    /// locks are held for the swap, so concurrent readers see either the
    /// old state or the recovered one — never a half-cleared index.
    pub fn reopen_in_place(&self) -> Result<RecoveryReport, PersistError> {
        let mut log = self.log.lock().unwrap();
        let _span = self
            .trace
            .get()
            .map(|t| TraceRing::span(t, "persist.recover", None));
        let recovered = Self::recover_state(self.vfs.as_ref(), &self.cfg)?;
        *log = LogState::recovered(&recovered);
        {
            let mut guards: Vec<_> = self.shards.iter().map(|s| s.write().unwrap()).collect();
            for g in guards.iter_mut() {
                g.clear();
            }
            for (digest, blob) in recovered.blobs {
                guards[shard_of(&digest)].insert(digest, blob);
            }
        }
        self.unique_bytes
            .store(recovered.report.unique_bytes, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.recoveries.inc();
            o.replay_records.add(recovered.report.wal_records_replayed);
            if recovered.report.torn_wal_tail {
                o.replay_torn_tails.inc();
            }
        }
        Ok(recovered.report)
    }

    /// Attach an observability registry (idempotent; first wins).
    pub fn attach_obs(&self, reg: &Arc<Registry>) {
        let _ = self.obs.set(Arc::new(PersistObs::new(reg)));
    }

    /// Attach a span sink so recovery replay shows up in traces.
    pub fn attach_trace(&self, ring: &Arc<TraceRing>) {
        let _ = self.trace.set(Arc::clone(ring));
    }

    fn recover_state(vfs: &dyn Vfs, cfg: &DurableConfig) -> Result<Recovered, PersistError> {
        let mut blobs: FxHashMap<Digest, DurableBlob> = FxHashMap::default();
        let mut report = RecoveryReport::default();
        let mut epoch = 0u64;

        let manifest_file = manifest::file_name(&cfg.prefix);
        if vfs.exists(&manifest_file) {
            let m = Manifest::decode(&vfs.read(&manifest_file)?)?;
            let summed: u64 = m.entries.iter().map(|e| e.len).sum();
            if summed != m.unique_bytes {
                return Err(PersistError::CorruptManifest(format!(
                    "size ledger {} vs {} bytes of entries",
                    m.unique_bytes, summed
                )));
            }
            report.manifest_entries = m.entries.len();
            epoch = m.wal_epoch;
            for e in m.entries {
                blobs.insert(
                    e.digest,
                    DurableBlob {
                        segment: e.segment,
                        offset: e.offset,
                        len: e.len,
                        refs: e.refs,
                    },
                );
            }
        }

        // Replay ONLY the log generation the manifest covers: a stale
        // WAL surviving a crash between the manifest swap and its
        // cleanup is ignored, never double-applied.
        let wal_file = wal_name(&cfg.prefix, epoch);
        if vfs.exists(&wal_file) {
            let replayed = wal::replay(&vfs.read(&wal_file)?);
            report.wal_records_replayed = replayed.ops.len() as u64;
            report.wal_bytes_valid = replayed.valid_bytes;
            report.torn_wal_tail = replayed.torn_tail;
            if replayed.torn_tail {
                // Cut the torn tail off the log so post-recovery appends
                // extend a clean record stream (otherwise the garbage
                // would shadow them at the *next* recovery).
                vfs.truncate_to(&wal_file, replayed.valid_bytes)?;
            }
            for op in replayed.ops {
                Self::apply_wal_op(&mut blobs, op)?;
            }
        }

        // Housekeeping: delete log generations older than the
        // manifest's (left behind when a crash hit between the swap and
        // the cleanup), so file count stays O(1) over the store's life.
        for name in vfs.list() {
            if let Some(e) = parse_wal_name(&cfg.prefix, &name) {
                if e < epoch {
                    vfs.remove(&name)?;
                }
            }
        }

        // Resume after the newest segment's physical end; bytes a crash
        // orphaned between segment append and WAL append stay as dead
        // weight (compaction's job), never as live state.
        let segment = vfs
            .list()
            .iter()
            .filter_map(|n| segment::parse_file_name(&cfg.prefix, n))
            .max()
            .unwrap_or(1)
            .max(1);

        report.blobs = blobs.len();
        report.unique_bytes = blobs.values().map(|b| b.len).sum();
        Ok(Recovered {
            blobs,
            segment,
            epoch,
            report,
        })
    }

    fn apply_wal_op(
        blobs: &mut FxHashMap<Digest, DurableBlob>,
        op: WalOp,
    ) -> Result<(), PersistError> {
        let inconsistent =
            |what: String| PersistError::Io(format!("WAL replay inconsistency: {what}"));
        match op {
            WalOp::Put {
                digest,
                segment,
                offset,
                len,
            } => {
                if blobs.contains_key(&digest) {
                    return Err(inconsistent(format!("duplicate put of {}", digest.short())));
                }
                blobs.insert(
                    digest,
                    DurableBlob {
                        segment,
                        offset,
                        len,
                        refs: 1,
                    },
                );
            }
            WalOp::AddRef { digest } => {
                blobs
                    .get_mut(&digest)
                    .ok_or_else(|| inconsistent(format!("add_ref of absent {}", digest.short())))?
                    .refs += 1;
            }
            WalOp::Release { digest } => {
                let blob = blobs
                    .get_mut(&digest)
                    .ok_or_else(|| inconsistent(format!("release of absent {}", digest.short())))?;
                blob.refs -= 1;
                if blob.refs == 0 {
                    blobs.remove(&digest);
                }
            }
        }
        Ok(())
    }

    /// Name of the WAL file of the *current* generation.
    pub fn wal_file(&self) -> String {
        wal_name(&self.cfg.prefix, self.log.lock().unwrap().epoch)
    }

    pub fn prefix(&self) -> &str {
        &self.cfg.prefix
    }

    /// Queue `op`'s frame for the next commit. Caller holds the log
    /// lock and has applied (or is about to apply) the op to the index.
    fn log_record(&self, log: &mut LogState, op: &WalOp) {
        log.pending.extend_from_slice(&op.frame());
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.wal_appends.inc();
        }
        log.ops_since_checkpoint += 1;
        // The checkpoint cadence counts records, not commits, so it
        // falls on the same record whatever the batching. Its I/O error
        // has no way out of a logged op; it waits in `failed` for the
        // commit every acknowledged op goes through.
        if self.cfg.checkpoint_every_ops > 0
            && log.ops_since_checkpoint >= self.cfg.checkpoint_every_ops
        {
            if let Err(e) = self.checkpoint_locked(log) {
                log.failed.get_or_insert(e);
            }
        }
    }

    fn sync_counted(&self, file: &str) -> Result<(), PersistError> {
        self.vfs.sync(file)?;
        if let Some(o) = self.obs.get() {
            o.fsyncs.inc();
        }
        Ok(())
    }

    fn commit_locked(&self, log: &mut LogState) -> Result<(), PersistError> {
        if let Some(e) = &log.failed {
            return Err(e.clone());
        }
        let flushed = self.flush(log);
        if let Err(e) = &flushed {
            log.failed = Some(e.clone());
        }
        flushed
    }

    /// Segments first, then the log: a WAL record may reach the medium
    /// only after the payload it points at.
    fn flush(&self, log: &mut LogState) -> Result<(), PersistError> {
        for segment in log.dirty_segments.drain(..) {
            self.sync_counted(&segment::file_name(&self.cfg.prefix, segment))?;
        }
        if log.pending.is_empty() {
            return Ok(());
        }
        let file = wal_name(&self.cfg.prefix, log.epoch);
        self.vfs.append(&file, &log.pending)?;
        log.pending.clear();
        self.sync_counted(&file)
    }

    /// Make every op logged so far — by any thread — durable: one sync
    /// per dirty segment, one WAL append, one WAL sync; nothing at all
    /// when nothing is pending. See the module's crash-consistency notes
    /// for the order and for what a failure means.
    pub fn commit(&self) -> Result<(), PersistError> {
        self.commit_locked(&mut self.log.lock().unwrap())
    }

    fn checkpoint_locked(&self, log: &mut LogState) -> Result<(), PersistError> {
        // The manifest is written from the in-memory index, which holds
        // everything logged: all of it must be on the medium first.
        self.commit_locked(log)?;
        let mut entries = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().unwrap();
            entries.extend(shard.iter().map(|(digest, b)| ManifestEntry {
                digest: *digest,
                segment: b.segment,
                offset: b.offset,
                len: b.len,
                refs: b.refs,
            }));
        }
        // The new manifest names the *next* log generation: once the
        // swap lands, the old WAL is dead no matter when (or whether)
        // its cleanup below completes — recovery only ever replays the
        // generation the manifest points at.
        let m = Manifest {
            wal_epoch: log.epoch + 1,
            unique_bytes: entries.iter().map(|e| e.len).sum(),
            entries,
        };
        self.vfs
            .write_atomic(&manifest::file_name(&self.cfg.prefix), &m.encode())?;
        let stale = wal_name(&self.cfg.prefix, log.epoch);
        log.epoch += 1;
        log.ops_since_checkpoint = 0;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.checkpoints.inc();
        }
        self.vfs.remove(&stale)?;
        Ok(())
    }

    /// Force a checkpoint now (commit, manifest swap, WAL rotation).
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        let mut log = self.log.lock().unwrap();
        self.checkpoint_locked(&mut log)
    }

    /// Logged put: store bytes under their digest, durable at the next
    /// [`DurableContentStore::commit`]. Returns `true` if the blob is
    /// new, `false` on a dedup hit (which only logs a ref increment).
    pub fn log_put(&self, digest: Digest, bytes: &[u8]) -> Result<bool, PersistError> {
        let mut log = self.log.lock().unwrap();
        let exists = self.shards[shard_of(&digest)]
            .read()
            .unwrap()
            .contains_key(&digest);
        if exists {
            self.shards[shard_of(&digest)]
                .write()
                .unwrap()
                .get_mut(&digest)
                .expect("existence checked under the log lock")
                .refs += 1;
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            self.log_record(&mut log, &WalOp::AddRef { digest });
            return Ok(false);
        }
        // Roll the active segment by physical size, then append at the
        // physical end — offsets derive from the file (one stat per
        // put; two only on a roll), so a partially applied earlier
        // failure can never corrupt later records.
        let mut file = segment::file_name(&self.cfg.prefix, log.segment);
        let mut offset = self.vfs.file_len(&file)?;
        if offset >= self.cfg.segment_target_bytes {
            log.segment += 1;
            file = segment::file_name(&self.cfg.prefix, log.segment);
            offset = self.vfs.file_len(&file)?;
        }
        let segment_id = log.segment;
        self.vfs
            .append(&file, &segment::encode_record(&digest, bytes))?;
        if log.dirty_segments.last() != Some(&segment_id) {
            log.dirty_segments.push(segment_id);
        }
        if let Some(o) = self.obs.get() {
            o.segment_appends.inc();
        }
        self.shards[shard_of(&digest)].write().unwrap().insert(
            digest,
            DurableBlob {
                segment: segment_id,
                offset,
                len: bytes.len() as u64,
                refs: 1,
            },
        );
        self.unique_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.log_record(
            &mut log,
            &WalOp::Put {
                digest,
                segment: segment_id,
                offset,
                len: bytes.len() as u64,
            },
        );
        Ok(true)
    }

    /// [`DurableContentStore::log_put`], durable on return.
    pub fn put_with_digest(&self, digest: Digest, bytes: &[u8]) -> Result<bool, PersistError> {
        let was_new = self.log_put(digest, bytes)?;
        self.commit()?;
        Ok(was_new)
    }

    /// Hash + store, durable on return.
    pub fn put(&self, bytes: &[u8]) -> Result<(Digest, bool), PersistError> {
        let digest = Sha256::digest(bytes);
        Ok((digest, self.put_with_digest(digest, bytes)?))
    }

    /// Logged add_ref: one more reference to an existing blob, durable
    /// at the next commit. `NotFound` is its only error: the record is
    /// queued in memory, and an in-op checkpoint's I/O error waits for
    /// that commit.
    pub fn log_add_ref(&self, digest: Digest) -> Result<(), PersistError> {
        let mut log = self.log.lock().unwrap();
        self.shards[shard_of(&digest)]
            .write()
            .unwrap()
            .get_mut(&digest)
            .ok_or(PersistError::NotFound(digest))?
            .refs += 1;
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        self.log_record(&mut log, &WalOp::AddRef { digest });
        Ok(())
    }

    /// [`DurableContentStore::log_add_ref`], durable on return.
    pub fn add_ref(&self, digest: Digest) -> Result<(), PersistError> {
        self.log_add_ref(digest)?;
        self.commit()
    }

    /// Logged release: drop one reference, durable at the next commit;
    /// returns freed payload bytes when the blob dies (its segment
    /// bytes become dead weight for compaction). Errors like
    /// [`DurableContentStore::log_add_ref`].
    pub fn log_release(&self, digest: &Digest) -> Result<u64, PersistError> {
        let mut log = self.log.lock().unwrap();
        let mut freed = 0;
        {
            let mut shard = self.shards[shard_of(digest)].write().unwrap();
            let blob = shard
                .get_mut(digest)
                .ok_or(PersistError::NotFound(*digest))?;
            blob.refs -= 1;
            if blob.refs == 0 {
                freed = blob.len;
                shard.remove(digest);
                self.unique_bytes.fetch_sub(freed, Ordering::Relaxed);
            }
        }
        self.log_record(&mut log, &WalOp::Release { digest: *digest });
        Ok(freed)
    }

    /// [`DurableContentStore::log_release`], durable on return.
    pub fn release(&self, digest: &Digest) -> Result<u64, PersistError> {
        let freed = self.log_release(digest)?;
        self.commit()?;
        Ok(freed)
    }

    fn lookup(&self, digest: &Digest) -> Result<DurableBlob, PersistError> {
        let shard = self.shards[shard_of(digest)].read().unwrap();
        shard
            .get(digest)
            .copied()
            .ok_or(PersistError::NotFound(*digest))
    }

    /// The uncounted read shared by [`DurableContentStore::get`] and
    /// the `deep_verify` audit (which must not move read metrics).
    fn read_blob(&self, blob: &DurableBlob, digest: &Digest) -> Result<Vec<u8>, PersistError> {
        segment::read_record(
            self.vfs.as_ref(),
            &self.cfg.prefix,
            blob.segment,
            blob.offset,
            blob.len,
            digest,
        )
    }

    /// Read a blob back, validating magic, digest and CRC-32 — a
    /// damaged record is a typed [`PersistError::CorruptRecord`].
    pub fn get(&self, digest: &Digest) -> Result<Vec<u8>, PersistError> {
        let blob = self.lookup(digest)?;
        if let Some(o) = self.obs.get() {
            o.segment_reads.inc();
            o.segment_read_bytes.add(blob.len);
        }
        self.read_blob(&blob, digest)
    }

    /// Read bytes `[start, start+len)` of a blob's payload (clamped
    /// like a slice) without materializing the rest of the record. The
    /// record header is validated (magic, length, digest identity);
    /// the whole-payload CRC is *not* — partial reads are what this
    /// call exists for. Blocked payloads (`xpl_compress::is_blocked`)
    /// get per-block CRC checks at the codec layer on exactly the
    /// bytes read, and [`DurableContentStore::deep_verify`] sweeps
    /// every block of every blocked blob.
    pub fn get_range(
        &self,
        digest: &Digest,
        start: u64,
        len: u64,
    ) -> Result<Vec<u8>, PersistError> {
        let blob = self.lookup(digest)?;
        if let Some(o) = self.obs.get() {
            o.segment_reads.inc();
            o.segment_read_bytes
                .add(len.min(blob.len.saturating_sub(start.min(blob.len))));
        }
        self.read_blob_range(&blob, digest, start, len)
    }

    /// Uncounted ranged read (see [`DurableContentStore::read_blob`]).
    fn read_blob_range(
        &self,
        blob: &DurableBlob,
        digest: &Digest,
        start: u64,
        len: u64,
    ) -> Result<Vec<u8>, PersistError> {
        segment::read_record_range(
            self.vfs.as_ref(),
            &self.cfg.prefix,
            blob.segment,
            blob.offset,
            blob.len,
            digest,
            start,
            len,
        )
    }

    pub fn contains(&self, digest: &Digest) -> bool {
        self.shards[shard_of(digest)]
            .read()
            .unwrap()
            .contains_key(digest)
    }

    pub fn refs_of(&self, digest: &Digest) -> Option<u32> {
        self.shards[shard_of(digest)]
            .read()
            .unwrap()
            .get(digest)
            .map(|b| b.refs)
    }

    pub fn blob_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes.load(Ordering::Relaxed)
    }

    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// `(digest, refs, len)` of every live blob.
    pub fn snapshot_refs(&self) -> Vec<(Digest, u32, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().unwrap();
            out.extend(shard.iter().map(|(d, b)| (*d, b.refs, b.len)));
        }
        out
    }

    /// Canonical fingerprint of the logical state (see
    /// [`cas_state_fingerprint`]); equal to the in-memory CAS's
    /// fingerprint exactly when the two hold the same blobs, refcounts
    /// and size ledger.
    pub fn state_fingerprint(&self) -> String {
        cas_state_fingerprint(self.snapshot_refs(), self.unique_bytes())
    }

    /// Re-read and validate every live blob from its segment (full
    /// content sweep: magic, digest, CRC-32). Payloads in the blocked
    /// compression container additionally get a per-block CRC sweep
    /// ([`xpl_compress::verify_blocks`]), which localizes damage to a
    /// block instead of just "the blob is bad" — the record-level CRC
    /// can only say the latter. Returns the number of blobs verified.
    pub fn deep_verify(&self) -> Result<usize, PersistError> {
        let mut verified = 0usize;
        for (digest, _refs, _len) in self.snapshot_refs() {
            let blob = {
                let shard = self.shards[shard_of(&digest)].read().unwrap();
                match shard.get(&digest) {
                    Some(b) => *b,
                    None => continue, // released since the snapshot
                }
            };
            let corrupt = |detail: String| PersistError::CorruptRecord {
                file: segment::file_name(&self.cfg.prefix, blob.segment),
                offset: blob.offset,
                detail,
            };
            let payload = match self.read_blob(&blob, &digest) {
                Ok(p) => p,
                Err(PersistError::CorruptRecord {
                    file,
                    offset,
                    detail,
                }) => {
                    // The record-level CRC only says "the blob is bad".
                    // If the payload is a blocked container, re-read it
                    // without the record CRC and let the per-block CRCs
                    // name the damaged block.
                    let mut detail = detail;
                    if let Ok(raw) = self.read_blob_range(&blob, &digest, 0, u64::MAX) {
                        if xpl_compress::is_blocked(&raw) {
                            if let Err(e) = xpl_compress::verify_blocks(&raw) {
                                detail = format!("{detail}; {e}");
                            }
                        }
                    }
                    return Err(PersistError::CorruptRecord {
                        file,
                        offset,
                        detail,
                    });
                }
                Err(e) => return Err(e),
            };
            if Sha256::digest(&payload) != digest {
                return Err(corrupt(format!(
                    "blob {} no longer hashes to its digest",
                    digest.short()
                )));
            }
            if xpl_compress::is_blocked(&payload) {
                xpl_compress::verify_blocks(&payload).map_err(|e| {
                    corrupt(format!("blob {}: blocked payload: {e}", digest.short()))
                })?;
            }
            verified += 1;
        }
        Ok(verified)
    }
}

/// Canonical fingerprint of a CAS state: SHA-256 over the
/// digest-sorted `(digest, refs, len)` tuples plus the size ledger.
/// Both the in-memory and the durable CAS hash their state through this
/// one function, so equal fingerprints mean equal blobs, refcounts and
/// `unique_bytes` — the convergence check of the crash-recovery oracle.
pub fn cas_state_fingerprint(mut entries: Vec<(Digest, u32, u64)>, unique_bytes: u64) -> String {
    entries.sort_by_key(|e| e.0 .0);
    let mut h = Sha256::new();
    for (digest, refs, len) in &entries {
        h.update(&digest.0);
        h.update(&refs.to_le_bytes());
        h.update(&len.to_le_bytes());
    }
    h.update(&unique_bytes.to_le_bytes());
    h.finalize().to_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemFs;

    fn fresh(cfg: DurableConfig) -> (Arc<MemFs>, DurableContentStore) {
        let vfs = Arc::new(MemFs::new());
        let (store, report) = DurableContentStore::open(vfs.clone(), cfg).unwrap();
        assert_eq!(report, RecoveryReport::default());
        (vfs, store)
    }

    #[test]
    fn put_get_release_roundtrip() {
        let (_vfs, store) = fresh(DurableConfig::named("cas"));
        let (d, new) = store.put(b"hello durable world").unwrap();
        assert!(new);
        assert_eq!(store.get(&d).unwrap(), b"hello durable world");
        assert!(!store.put(b"hello durable world").unwrap().1);
        assert_eq!(store.refs_of(&d), Some(2));
        assert_eq!(store.dedup_hits(), 1);
        assert_eq!(store.release(&d).unwrap(), 0);
        assert_eq!(store.release(&d).unwrap(), 19);
        assert!(!store.contains(&d));
        assert_eq!(store.unique_bytes(), 0);
        assert_eq!(store.release(&d), Err(PersistError::NotFound(d)));
    }

    #[test]
    fn get_range_slices_without_reading_the_record() {
        let (_vfs, store) = fresh(DurableConfig::named("cas"));
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let (d, _) = store.put(&payload).unwrap();
        assert_eq!(
            store.get_range(&d, 1000, 256).unwrap(),
            &payload[1000..1256]
        );
        assert_eq!(
            store.get_range(&d, 49_990, 100).unwrap(),
            &payload[49_990..]
        );
        assert!(store.get_range(&d, 60_000, 5).unwrap().is_empty());
        assert!(store.get_range(&d, 17, 0).unwrap().is_empty());
        assert_eq!(
            store.get_range(&Sha256::digest(b"nope"), 0, 1),
            Err(PersistError::NotFound(Sha256::digest(b"nope")))
        );
    }

    #[test]
    fn deep_verify_localizes_damage_in_blocked_payloads() {
        let (vfs, store) = fresh(DurableConfig::named("cas"));
        // A multi-block container (small blocks so damage sits in a
        // well-defined block), stored as an ordinary blob.
        let raw: Vec<u8> = (0..20_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        let blocked = xpl_compress::blocked_compress_with(&raw, 4096);
        let (d, _) = store.put(&blocked).unwrap();
        assert_eq!(store.deep_verify().unwrap(), 1);

        // Flip a byte inside the compressed data, behind the container
        // header, directly in the segment file.
        let file = segment::file_name("cas", 1);
        let mut bytes = vfs.read(&file).unwrap();
        let flip = segment::RECORD_HEADER as usize + 8 + 40;
        bytes[flip] ^= 0x40;
        vfs.set_file(&file, &bytes);

        let err = store.deep_verify().unwrap_err();
        match err {
            PersistError::CorruptRecord { detail, .. } => {
                assert!(detail.contains("CRC-32"), "{detail}");
                assert!(detail.contains("block"), "damage not localized: {detail}");
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        // Ranged reads of the damaged span also refuse to lie: the
        // codec layer checks the block CRC on inflate.
        let span = store.get_range(&d, 0, blocked.len() as u64).unwrap();
        let mut reader = xpl_compress::BlockedReader::new(&span).unwrap();
        assert!(reader.read_at(0, 100).is_err());
    }

    #[test]
    fn blocked_lz4_payloads_survive_recovery_and_deep_verify() {
        // The fast-codec container (`XBL1`) is just another blob to the
        // durable layer, but deep_verify's blocked special-case must
        // sweep its per-block CRCs too — and recovery must hand the
        // container back byte-identical.
        let (vfs, store) = fresh(DurableConfig::named("cas"));
        let raw: Vec<u8> = (0..30_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 53) as u8)
            .collect();
        let lz4 = xpl_compress::blocked_compress_inner(&raw, 4096, xpl_compress::InnerCodec::Lz4);
        let (d, _) = store.put(&lz4).unwrap();
        assert_eq!(store.deep_verify().unwrap(), 1);

        let (recovered, _) =
            DurableContentStore::open(vfs.clone(), DurableConfig::named("cas")).expect("reopen");
        assert_eq!(recovered.deep_verify().unwrap(), 1);
        let back = recovered.get(&d).unwrap();
        assert_eq!(back, lz4);
        assert_eq!(xpl_compress::decompress_auto(&back).unwrap(), raw);

        // Damage inside the LZ4 block data is localized by deep_verify.
        let file = segment::file_name("cas", 1);
        let mut bytes = vfs.read(&file).unwrap();
        let flip = segment::RECORD_HEADER as usize + 8 + 40;
        bytes[flip] ^= 0x40;
        vfs.set_file(&file, &bytes);
        match store.deep_verify().unwrap_err() {
            PersistError::CorruptRecord { detail, .. } => {
                assert!(detail.contains("block"), "damage not localized: {detail}");
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
    }

    #[test]
    fn reopen_replays_the_wal() {
        let vfs = Arc::new(MemFs::new());
        let mut cfg = DurableConfig::named("cas");
        cfg.checkpoint_every_ops = 0; // everything stays in the WAL
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        let (d1, _) = store.put(b"first").unwrap();
        let (d2, _) = store.put(b"second").unwrap();
        store.add_ref(d1).unwrap();
        store.release(&d2).unwrap();
        let fp = store.state_fingerprint();

        let (reopened, report) = DurableContentStore::open(vfs, cfg).unwrap();
        assert_eq!(report.wal_records_replayed, 4);
        assert!(!report.torn_wal_tail);
        assert_eq!(report.blobs, 1);
        assert_eq!(reopened.refs_of(&d1), Some(2));
        assert!(!reopened.contains(&d2));
        assert_eq!(reopened.get(&d1).unwrap(), b"first");
        assert_eq!(reopened.state_fingerprint(), fp);
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reopen() {
        let vfs = Arc::new(MemFs::new());
        let cfg = DurableConfig::named("cas");
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        for i in 0..20u32 {
            store.put(&i.to_le_bytes()).unwrap();
        }
        store.checkpoint().unwrap();
        // Checkpoint rotated to a fresh (not-yet-created) generation.
        assert_eq!(vfs.file_len("cas.wal-000001").unwrap(), 0);
        assert_eq!(store.wal_file(), "cas.wal-000001");
        let fp = store.state_fingerprint();
        // Post-checkpoint ops land in the fresh WAL.
        let (d, _) = store.put(b"after checkpoint").unwrap();
        let (reopened, report) = DurableContentStore::open(vfs, cfg).unwrap();
        assert_eq!(report.manifest_entries, 20);
        assert_eq!(report.wal_records_replayed, 1);
        assert_eq!(reopened.blob_count(), 21);
        assert!(reopened.contains(&d));
        assert_ne!(reopened.state_fingerprint(), fp, "state moved on");
    }

    #[test]
    fn segments_roll_at_target_size() {
        let vfs = Arc::new(MemFs::new());
        let mut cfg = DurableConfig::named("cas");
        cfg.segment_target_bytes = 256;
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg).unwrap();
        for i in 0..10u32 {
            store.put(&[i as u8; 100]).unwrap();
        }
        let segments = vfs
            .list()
            .iter()
            .filter(|n| segment::parse_file_name("cas", n).is_some())
            .count();
        assert!(segments > 1, "only {segments} segment(s)");
        for i in 0..10u32 {
            let d = Sha256::digest(&[i as u8; 100]);
            assert_eq!(store.get(&d).unwrap(), vec![i as u8; 100]);
        }
        assert_eq!(store.deep_verify().unwrap(), 10);
    }

    #[test]
    fn power_cut_mid_put_drops_the_op_cleanly() {
        let vfs = Arc::new(MemFs::new());
        let mut cfg = DurableConfig::named("cas");
        cfg.checkpoint_every_ops = 0;
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        let (d1, _) = store.put(b"survives").unwrap();
        let fp = store.state_fingerprint();
        // The next mutating vfs op is the segment append of the new put:
        // it tears, and the op must vanish on recovery.
        vfs.set_crash_at(1);
        assert!(store.put(b"lost to the crash").is_err());
        vfs.power_cut();
        let (recovered, report) = DurableContentStore::open(vfs, cfg).unwrap();
        assert_eq!(report.wal_records_replayed, 1);
        assert_eq!(recovered.blob_count(), 1);
        assert_eq!(recovered.state_fingerprint(), fp);
        assert_eq!(recovered.get(&d1).unwrap(), b"survives");
        // The recovered store accepts new writes (orphaned torn segment
        // bytes are skipped over by the physical-end cursor).
        let (d2, new) = recovered.put(b"post-recovery write").unwrap();
        assert!(new);
        assert_eq!(recovered.get(&d2).unwrap(), b"post-recovery write");
        assert_eq!(recovered.deep_verify().unwrap(), 2);
    }

    #[test]
    fn crash_between_segment_and_wal_leaves_dead_bytes_only() {
        let vfs = Arc::new(MemFs::new());
        let mut cfg = DurableConfig::named("cas");
        cfg.checkpoint_every_ops = 0;
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        store.put(b"one").unwrap();
        // Ops per put: segment append, segment sync, wal append, wal
        // sync. Crash at the 3rd → payload durable, WAL record torn.
        vfs.set_crash_at(3);
        assert!(store.put(b"two").is_err());
        vfs.power_cut();
        let (recovered, report) = DurableContentStore::open(vfs.clone(), cfg).unwrap();
        assert!(report.torn_wal_tail, "half a WAL record must be dropped");
        assert_eq!(recovered.blob_count(), 1);
        // The orphaned payload bytes sit in the segment, dead.
        assert!(vfs.file_len("cas.seg-000001").unwrap() > segment::record_len(3));
        recovered.put(b"three").unwrap();
        assert_eq!(recovered.deep_verify().unwrap(), 2);
    }

    #[test]
    fn a_failed_commit_refuses_later_commits_until_recovery() {
        let vfs = Arc::new(MemFs::new());
        let mut cfg = DurableConfig::named("cas");
        cfg.checkpoint_every_ops = 0;
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        store.put(b"one").unwrap();
        // Segment append, segment sync, then the WAL append tears.
        vfs.set_crash_at(3);
        assert!(store.put(b"two").is_err());
        // The medium comes back, but the index is ahead of it and half
        // a frame sits at the end of the log: appending more records
        // behind it would acknowledge what replay can never reach.
        vfs.power_cut();
        let wal_len = vfs.file_len(&store.wal_file()).unwrap();
        assert_eq!(store.commit(), Err(PersistError::Crashed));
        assert_eq!(store.put(b"three"), Err(PersistError::Crashed));
        assert_eq!(vfs.file_len(&store.wal_file()).unwrap(), wal_len);
        // Recovery rebuilds the index from the medium and lifts it.
        store.reopen_in_place().unwrap();
        assert_eq!(store.blob_count(), 1);
        store.put(b"three").unwrap();
        let (reopened, _) = DurableContentStore::open(vfs, cfg).unwrap();
        assert_eq!(reopened.state_fingerprint(), store.state_fingerprint());
        assert_eq!(reopened.deep_verify().unwrap(), 2);
    }

    #[test]
    fn crash_between_manifest_swap_and_wal_cleanup_never_double_applies() {
        let vfs = Arc::new(MemFs::new());
        let mut cfg = DurableConfig::named("cas");
        cfg.checkpoint_every_ops = 0; // checkpoint only when forced
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        let (d1, _) = store.put(b"kept").unwrap();
        store.put(b"kept").unwrap(); // refs = 2 via AddRef record
        let (d2, _) = store.put(b"dropped-later").unwrap();
        store.release(&d2).unwrap();
        let fp = store.state_fingerprint();
        // Checkpoint = write_atomic(manifest) then truncate(stale wal):
        // crash on the 2nd mutation, after the swap landed.
        vfs.set_crash_at(2);
        assert!(store.checkpoint().is_err());
        vfs.power_cut();
        // The new manifest + the STALE full WAL coexist on the medium.
        assert!(vfs.exists("cas.manifest"));
        assert!(vfs.file_len("cas.wal-000000").unwrap() > 0);
        // Recovery must not replay the stale generation over the
        // manifest (no duplicate-put error, no doubled refcounts).
        let (recovered, report) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        assert_eq!(report.wal_records_replayed, 0, "stale WAL ignored");
        assert_eq!(recovered.state_fingerprint(), fp);
        assert_eq!(recovered.refs_of(&d1), Some(2));
        assert!(!recovered.contains(&d2));
        // Housekeeping deleted the stale generation.
        assert_eq!(vfs.file_len("cas.wal-000000").unwrap(), 0);
        // And the recovered store keeps logging into the new epoch.
        recovered.put(b"next epoch").unwrap();
        assert_eq!(recovered.wal_file(), "cas.wal-000001");
        let (again, _) = DurableContentStore::open(vfs, cfg).unwrap();
        assert_eq!(again.state_fingerprint(), recovered.state_fingerprint());
    }

    #[test]
    fn reopen_in_place_matches_fresh_open() {
        let vfs = Arc::new(MemFs::new());
        let cfg = DurableConfig::named("cas");
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        for i in 0..8u32 {
            store.put(&i.to_le_bytes()).unwrap();
        }
        let fp = store.state_fingerprint();
        vfs.power_cut();
        let report = store.reopen_in_place().unwrap();
        assert_eq!(report.blobs, 8);
        assert_eq!(store.state_fingerprint(), fp);
        // Still writable.
        store.put(b"more").unwrap();
        assert_eq!(store.blob_count(), 9);
    }

    #[test]
    fn corrupted_segment_record_is_a_typed_error() {
        let vfs = Arc::new(MemFs::new());
        let (store, _) =
            DurableContentStore::open(vfs.clone(), DurableConfig::named("cas")).unwrap();
        let (d, _) = store.put(b"to be damaged").unwrap();
        // Flip one payload byte on the medium.
        let file = segment::file_name("cas", 1);
        let mut bytes = vfs.read(&file).unwrap();
        let at = segment::RECORD_HEADER as usize + 2;
        bytes[at] ^= 0x10;
        vfs.set_file(&file, &bytes);
        assert!(matches!(
            store.get(&d),
            Err(PersistError::CorruptRecord { .. })
        ));
        assert!(matches!(
            store.deep_verify(),
            Err(PersistError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn torn_tail_garbage_is_dropped_on_recovery() {
        let vfs = Arc::new(MemFs::new());
        let mut cfg = DurableConfig::named("cas");
        cfg.checkpoint_every_ops = 0;
        let (store, _) = DurableContentStore::open(vfs.clone(), cfg.clone()).unwrap();
        store.put(b"alpha").unwrap();
        store.put(b"beta").unwrap();
        let fp = store.state_fingerprint();
        vfs.inject_torn_tail("cas.wal-000000", &[0xA5; 13]);
        let (recovered, report) = DurableContentStore::open(vfs, cfg).unwrap();
        assert!(report.torn_wal_tail);
        assert_eq!(report.wal_records_replayed, 2);
        assert_eq!(recovered.state_fingerprint(), fp);
    }

    #[test]
    fn fingerprint_is_order_independent_and_state_sensitive() {
        let a = vec![
            (Sha256::digest(b"x"), 2u32, 5u64),
            (Sha256::digest(b"y"), 1, 9),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(
            cas_state_fingerprint(a.clone(), 14),
            cas_state_fingerprint(b, 14)
        );
        assert_ne!(
            cas_state_fingerprint(a.clone(), 14),
            cas_state_fingerprint(a.clone(), 15)
        );
        let mut c = a.clone();
        c[0].1 = 3;
        assert_ne!(cas_state_fingerprint(a, 14), cas_state_fingerprint(c, 14));
    }

    /// Two writer threads on one store, run in lock step through
    /// `script` — `(writer, commits)` per step, a barrier after each —
    /// so the interleaving is the script's, not the scheduler's.
    /// Returns the Det section and the fsync count.
    fn two_writer_run(script: &[(usize, bool)]) -> (String, u64) {
        const PAYLOADS: [[&[u8]; 2]; 2] = [
            [b"a keeps this", b"a drops this"],
            [b"b keeps this", b"b drops this"],
        ];
        let (vfs, store) = fresh(DurableConfig::named("cas"));
        let reg = Registry::new();
        store.attach_obs(&reg);
        let step_done = std::sync::Barrier::new(2);
        let writer = |me: usize| {
            let (vfs, store, step_done) = (&vfs, &store, &step_done);
            let [kept, dropped] = PAYLOADS[me];
            move || {
                for &(who, commits) in script {
                    if who == me && !commits {
                        store.log_put(Sha256::digest(kept), kept).unwrap();
                        store.log_put(Sha256::digest(dropped), dropped).unwrap();
                        store.log_release(&Sha256::digest(dropped)).unwrap();
                    } else if who == me {
                        store.commit().unwrap();
                        // My own commit returned: my ops are on the
                        // medium, whoever flushed them.
                        let medium = vfs.fork();
                        medium.power_cut();
                        let (reopened, _) = DurableContentStore::open(
                            Arc::new(medium),
                            DurableConfig::named("cas"),
                        )
                        .unwrap();
                        assert_eq!(reopened.get(&Sha256::digest(kept)).unwrap(), kept);
                        assert!(!reopened.contains(&Sha256::digest(dropped)));
                    }
                    step_done.wait();
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(writer(0));
            s.spawn(writer(1));
        });
        let snap = reg.snapshot();
        let (_, section, fsyncs) = snap
            .counters
            .iter()
            .find(|(name, _, _)| name == "persist.fsyncs")
            .unwrap();
        assert_eq!(*section, Section::Wall);
        (snap.render_section_json(Section::Det), *fsyncs)
    }

    #[test]
    fn det_counters_ignore_who_commits_whose_records() {
        // Each writer logs then commits its own batch; or both log
        // before either commits, so the first commit flushes both
        // batches and the second finds nothing to do.
        let (det_apart, fsyncs_apart) =
            two_writer_run(&[(0, false), (0, true), (1, false), (1, true)]);
        let (det_overlapped, fsyncs_overlapped) =
            two_writer_run(&[(0, false), (1, false), (0, true), (1, true)]);
        assert_eq!(det_apart, det_overlapped);
        assert!(det_apart.contains("persist.wal.appends"), "{det_apart}");
        // The sync count is what scheduling moves: a segment sync and a
        // WAL sync per commit that had something to flush.
        assert_eq!((fsyncs_apart, fsyncs_overlapped), (4, 2));
    }

    #[test]
    fn shared_access_reads_while_writing() {
        let (_vfs, store) = fresh(DurableConfig::named("cas"));
        let payloads: Vec<Vec<u8>> = (0..32u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for p in &payloads {
            store.put(p).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for p in &payloads {
                        let d = Sha256::digest(p);
                        assert_eq!(&store.get(&d).unwrap(), p);
                    }
                });
            }
            s.spawn(|| {
                for i in 100..132u32 {
                    store.put(&i.to_le_bytes()).unwrap();
                }
            });
        });
        assert_eq!(store.blob_count(), 64);
        assert_eq!(store.deep_verify().unwrap(), 64);
    }
}
