//! Crash durability for the reallocation engine: an fsync'd on-disk
//! segment/checkpoint store under the in-memory journal, a pluggable
//! I/O layer with a fault-injecting implementation, and a
//! kill-at-any-point crash-matrix harness.
//!
//! The paper's model ([Bender et al., SPAA 2013][paper]) charges every
//! reallocation; this crate makes the *history* of those decisions
//! survive the process. The in-memory journal (PR 2/3) already defines
//! the grammar, checkpoint arithmetic, and O(tail) recovery; this crate
//! is a byte-exact tee of that journal onto disk, so a machine that
//! loses power mid-flush recovers the same engine a clean restart
//! would have.
//!
//! * [`io`] — the [`StoreIo`] trait over raw file operations, with
//!   [`FsIo`] (real file system), [`MemIo`] (in-memory file system with
//!   a POSIX-style write/fsync durability model and simulated crashes),
//!   and [`FaultIo`] (deterministic crash schedules, failed or ignored
//!   fsyncs, bit flips).
//! * [`mod@format`] — file naming and the CRC32+length record framing.
//! * [`store`] — [`DurableStore`] (the [`realloc_engine::DurabilitySink`]
//!   implementation), the recovery [`scan`], and the [`RecoverFromDir`]
//!   extension trait that gives `Engine::recover_from_dir`.
//! * [`harness`] — the crash matrix: run a workload, kill the store at
//!   every write/fsync boundary in every crash mode, recover, and
//!   require that every *acknowledged* flush survives byte-identically
//!   and [`realloc_engine::Engine::validate`] holds.
//! * [`flight`] — the [`FlightRecorder`]: on telemetry incidents
//!   (quorum lost, drain timeout, durability error) dump the metrics
//!   registry and trace ring to a durable file through the same
//!   [`StoreIo`] layer, before the ring overwrites the evidence.
//!
//! # Guarantees
//!
//! With a store attached, `Engine::flush_durable` returning `Ok` — or
//! the wait on an `Engine::flush_mode` ticket returning `Ok` — means
//! the flush's journal records are on stable storage (at most one
//! group-commit `fsync` per flush; flushes staged while another's fsync
//! is in flight share the next one). A crash at *any* instruction
//! boundary loses at most the unacknowledged suffix; recovery truncates
//! a torn tail at the last valid record and never panics on hostile
//! bytes. What it cannot prove valid, it reports as a located error
//! naming the file and offset.
//!
//! [paper]: https://doi.org/10.1145/2486159.2486173

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod format;
pub mod harness;
pub mod io;
pub mod store;
mod tele;

pub use flight::{FlightRecorder, FLIGHT_PREFIX};
pub use format::{
    append_record, checkpoint_file_name, classify, segment_file_name, FileKind, RecordBuf,
    RecordFault, RecordReader, MAX_RECORD_BYTES,
};
pub use harness::{
    run_crash_matrix, run_staged_crash_matrix, CrashMatrixConfig, CrashMatrixReport,
};
pub use io::{CrashMode, FaultIo, FsIo, MemIo, StoreIo};
pub use store::{
    recover_journal_text, scan, DurableStore, OpenReport, RecoverFromDir, Scan, StoreError,
};
