//! Checkpointing, snapshot restore and recovery: everything that turns
//! engine state into text and back — and the one verified re-execution
//! of a recorded batch, [`Engine::apply_recorded_batch`], that journal
//! replay, crash recovery (from text or a store directory) and
//! replication replicas all go through. The journal's line grammar and
//! the walk that yields the batches are `journal.rs`'s.

use crate::backend::BackendKind;
use crate::journal::{Journal, JournalEvent, ReplayDivergence, ReplayError};
use crate::metrics::TallyLines;
use crate::shard::Shard;
use crate::{Engine, EngineConfig};
use realloc_core::router::Router;
use realloc_core::snapshot::{Fields, Restorable, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_telemetry::Severity;

impl Engine {
    /// Re-executes one recorded **batch** (one
    /// [`crate::JournalRecord::Batch`]) and verifies it — the only place
    /// recorded events are submitted, flushed and compared with the
    /// recording: every event of one flush, in recorded order, serviced
    /// at the recorded batch number, with each produced event checked
    /// whole against the recording (batch, shard routing, request, and
    /// netted costs — any mismatch is a [`ReplayError::Divergence`],
    /// whose `index` is the offset *within this slice*).
    ///
    /// Preconditions (violations are graceful [`ReplayError::Corrupt`]
    /// errors, never panics — frames arrive over the network):
    /// * the journal is enabled (outcome verification reads it back),
    /// * `recorded` is non-empty and single-batch, at a batch number not
    ///   yet used by this engine (batch numbers only move forward),
    /// * no locally queued requests (they would be swept into the
    ///   recorded batch and corrupt the comparison).
    pub fn apply_recorded_batch(&mut self, recorded: &[JournalEvent]) -> Result<(), ReplayError> {
        let corrupt = |message: String| ReplayError::Corrupt(ParseError { line: 0, message });
        let Some(first) = recorded.first() else {
            return Err(corrupt("recorded batch is empty".to_string()));
        };
        if self.journal.is_none() {
            return Err(corrupt(
                "recorded batches need the journal enabled to verify outcomes".to_string(),
            ));
        }
        let batch = first.batch;
        if recorded.iter().any(|e| e.batch != batch) {
            return Err(corrupt(format!(
                "recorded batch mixes flush numbers (first is {batch})"
            )));
        }
        if batch < self.batches {
            return Err(corrupt(format!(
                "recorded batch {batch} regresses the flush counter {}",
                self.batches
            )));
        }
        if batch == u64::MAX {
            // Servicing at this number would overflow the counter's
            // post-flush increment; no honest recording gets here.
            return Err(corrupt(
                "recorded batch number overflows the flush counter".to_string(),
            ));
        }
        if self.queued() > 0 {
            return Err(corrupt(format!(
                "{} locally queued requests would be swept into recorded batch {batch}",
                self.queued()
            )));
        }
        // Service the batch at the recorded flush number, then verify
        // what the journal appended against the recording.
        self.batches = batch;
        for e in recorded {
            self.submit(e.request);
        }
        self.flush();
        let journal = self.journal.as_ref().expect("checked above");
        let tail = journal.tail_events();
        debug_assert!(
            tail.len() >= recorded.len(),
            "flush appends one event per submit"
        );
        let replayed = &tail[tail.len() - recorded.len()..];
        for (i, (rec, got)) in recorded.iter().zip(replayed).enumerate() {
            if rec != got {
                return Err(ReplayError::Divergence(Box::new(ReplayDivergence {
                    index: i,
                    recorded: *rec,
                    replayed: Some(*got),
                })));
            }
        }
        Ok(())
    }

    /// Cheap, stable 64-bit digest of the full engine state: FNV-1a over
    /// the canonical snapshot text ([`realloc_core::snapshot::digest64`]).
    /// Two engines with byte-identical state have equal digests, so a
    /// replica can verify it has not diverged from its primary by
    /// comparing 8 bytes per checkpoint instead of shipping snapshots.
    /// Detects drift and corruption; not an authenticator.
    pub fn state_digest(&self) -> u64 {
        realloc_core::snapshot::digest64(&self.snapshot_text())
    }

    /// Takes a checkpoint: flushes anything still queued (recorded as an
    /// ordinary batch), snapshots the **full engine state** — every
    /// shard's scheduler, active set, and telemetry — into the journal
    /// as a checkpoint record, and drops sealed journal segments beyond
    /// [`EngineConfig::retained_segments`].
    ///
    /// After a checkpoint, [`Engine::recover`] rebuilds this exact state
    /// from the serialized journal by restoring the snapshot and
    /// replaying only the tail — O(tail) instead of O(history). No-op
    /// when the journal is disabled (there is nowhere to anchor the
    /// checkpoint). Returns whether a checkpoint was recorded.
    pub fn checkpoint(&mut self) -> bool {
        if self.journal.is_none() {
            return false;
        }
        let t0 = self.tele.as_ref().map(|t| t.now());
        if self.queued() > 0 {
            self.flush();
        }
        let snapshot = self.snapshot_text();
        let batches = self.batches;
        self.journal
            .as_mut()
            .expect("checked above")
            .checkpoint(snapshot, batches);
        // Tee the checkpoint the journal just cut (borrowed, not cloned
        // — snapshots run to megabytes).
        self.tee(|sink, journal| {
            sink.checkpoint(
                journal
                    .latest_checkpoint()
                    .expect("checkpoint() just sealed one"),
            )
        });
        if let Some(tele) = &mut self.tele {
            let took = tele.now().saturating_sub(t0.expect("stamped above"));
            tele.checkpoints_total.inc();
            tele.checkpoint_nanos.record(took);
            tele.t.point(Severity::Info, "checkpoint", batches, took);
        }
        true
    }

    /// Restores an engine from a snapshot document produced by
    /// [`realloc_core::Restorable::snapshot_text`] — the "snapshot,
    /// ship, restore" path for shard/engine migration.
    pub fn restore_snapshot(text: &str) -> Result<Engine, ParseError> {
        <Engine as Restorable>::restore(text)
    }

    /// Recovers an engine from serialized journal text read from
    /// `reader`: parse, restore the latest checkpoint, replay only the
    /// tail with full divergence detection, and resume with the journal
    /// attached (recording continues where the recording left off).
    ///
    /// Equivalent to a full [`Journal::replay`] in outcome — placements,
    /// metrics, and telemetry are byte-identical — but O(tail) in time.
    pub fn recover<R: std::io::Read>(mut reader: R) -> Result<Engine, RecoverError> {
        let mut text = String::new();
        reader.read_to_string(&mut text)?;
        let journal = Journal::from_text(&text)?;
        Ok(journal.recover_engine()?)
    }

    /// Attaches an existing journal (recovery hands the recovered engine
    /// its own history so recording continues seamlessly). Truncation
    /// behavior must follow the restored configuration — the serialized
    /// journal header's retention cap, not the parser's default — so the
    /// cap is re-anchored here; the journal's own config (the *genesis*
    /// shard count, which can differ from the current one after resizes)
    /// is otherwise left alone.
    pub(crate) fn attach_journal(&mut self, mut journal: Journal) {
        self.cfg.journal = true;
        journal.set_retention(self.cfg.retained_segments);
        self.journal = Some(journal);
    }
}

/// Why [`Engine::recover`] failed.
#[derive(Debug)]
pub enum RecoverError {
    /// The reader failed.
    Io(std::io::Error),
    /// The journal text failed to parse.
    Journal(ParseError),
    /// The checkpoint was corrupt or the tail replay diverged.
    Replay(ReplayError),
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<ParseError> for RecoverError {
    fn from(e: ParseError) -> Self {
        RecoverError::Journal(e)
    }
}

impl From<ReplayError> for RecoverError {
    fn from(e: ReplayError) -> Self {
        RecoverError::Replay(e)
    }
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery read failed: {e}"),
            RecoverError::Journal(e) => write!(f, "journal parse failed: {e}"),
            RecoverError::Replay(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RecoverError {}

impl Restorable for Engine {
    const SNAPSHOT_KIND: &'static str = "engine";

    fn write_state(&self, w: &mut SnapshotWriter) {
        // The fourth column was the `parallel` flag; it is always written
        // 0, so snapshot bytes — and `state_digest` — do not move.
        w.line(format_args!(
            "c {} {} {} 0 {} {} {}",
            self.cfg.shards,
            self.cfg.machines_per_shard,
            self.cfg.backend,
            self.cfg.journal as u8,
            self.cfg.retained_segments,
            self.batches
        ));
        self.carry.write_lines(w, ["t", "h", "hb"]);
        w.child(&self.router);
        for shard in &self.shards {
            shard.write_state(w);
        }
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let mut header: Option<(EngineConfig, u64)> = None;
        let mut carry = TallyLines::default();
        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "t" => carry.totals(f)?,
                "h" => carry.hist(f)?,
                "hb" => carry.bucket(f)?,
                "c" => {
                    if header.is_some() {
                        return Err(f.err("duplicate 'c' config line"));
                    }
                    let shards = f.usize("shards")?;
                    let machines_per_shard = f.usize("machines per shard")?;
                    let backend_raw = f.token("backend")?;
                    let backend = match BackendKind::parse(backend_raw) {
                        Ok(b) => b,
                        Err(msg) => return Err(f.err(msg)),
                    };
                    // Read and dropped: the field is inert.
                    f.u64("parallel flag")?;
                    let journal = f.u64("journal flag")? != 0;
                    let retained_segments = f.usize("retained segments")?;
                    let batches = f.u64("batches")?;
                    f.finish()?;
                    if shards == 0 {
                        return Err(f.err("engine needs at least one shard"));
                    }
                    if machines_per_shard == 0 {
                        return Err(f.err("shards need at least one machine"));
                    }
                    header = Some((
                        EngineConfig {
                            shards,
                            machines_per_shard,
                            backend,
                            parallel: false,
                            journal,
                            retained_segments,
                        },
                        batches,
                    ));
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown engine snapshot op '{other}'"),
                    })
                }
            }
        }
        let (cfg, batches) = header.ok_or(ParseError {
            line: 0,
            message: "engine snapshot has no 'c' config line".to_string(),
        })?;
        let carry = carry.finish("engine carryover")?;
        let router = Router::read_state(node.only_child(Router::SNAPSHOT_KIND)?)?;
        if router.shards() != cfg.shards {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "router table covers {} shards but the engine config says {}",
                    router.shards(),
                    cfg.shards
                ),
            });
        }
        let shard_nodes: Vec<&SnapshotNode> = node.children_of("shard").collect();
        if shard_nodes.len() != cfg.shards {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "engine snapshot declares {} shards but embeds {} shard sections",
                    cfg.shards,
                    shard_nodes.len()
                ),
            });
        }
        let mut shards: Vec<Shard> = Vec::with_capacity(cfg.shards);
        for (i, sn) in shard_nodes.into_iter().enumerate() {
            let shard = Shard::read_state(cfg.backend, cfg.machines_per_shard, sn)?;
            if shard.id() != i {
                return Err(ParseError {
                    line: 0,
                    message: format!("shard sections out of order: found {} at {i}", shard.id()),
                });
            }
            shards.push(shard);
        }
        Ok(Engine::assemble(cfg, router, shards, carry, batches))
    }
}
