//! Persistent shard worker pool for parallel flushes.
//!
//! PR 1 drained shards on `std::thread::scope` threads spawned inside
//! every flush — one thread per shard, regardless of the host. At
//! serving batch sizes (hundreds of requests across 8–16 shards, i.e.
//! well under a millisecond of work per shard) the per-flush spawn +
//! join cost dominated the drain itself, and on small hosts the
//! oversubscription made `parallel` flushes *slower* than sequential
//! ones. This module replaces that with a pool that is
//!
//! * **persistent** — workers are spawned once at engine construction
//!   and live until the engine drops; a flush costs one channel
//!   round-trip per worker instead of a thread spawn per shard;
//! * **hardware-sized** — `min(shards, available_parallelism)` workers,
//!   each owning a contiguous chunk of shard cells. Extra threads beyond
//!   the hardware can only add context switches, never throughput. On a
//!   single-core host the engine skips the pool entirely and drains
//!   inline, so enabling `parallel` is never a pessimization;
//! * **a full barrier** — `WorkerPool::drain_all` fans one `Drain`
//!   command out per worker, then collects each worker's
//!   [`ShardDrain`]s in shard order. Shards share no state and each
//!   chunk is drained in shard order, so the result is byte-identical
//!   to a sequential flush (the journal property tests pin this down).
//!
//! The shard mutexes are uncontended by construction: the engine only
//! locks a shard to enqueue or read stats between flushes, and workers
//! only lock during a drain command. Everything is `std` — no external
//! runtime — and `unsafe`-free (the crate forbids it), which is why the
//! shards are shared via `Arc<Mutex<_>>` rather than lent as `&mut`.

use crate::shard::{Shard, ShardDrain};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

enum Cmd {
    /// Service everything queued on the worker's shard chunk.
    Drain,
    /// Exit the worker loop.
    Shutdown,
}

struct Worker {
    cmd_tx: Sender<Cmd>,
    res_rx: Receiver<Vec<ShardDrain>>,
    handle: Option<JoinHandle<()>>,
}

/// Persistent, hardware-sized drain workers; see the module docs.
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// How many drain threads a pool over `shards` shards would use:
    /// `min(shards, available_parallelism)`. When this is `<= 1` a pool
    /// cannot beat draining inline and the engine skips it.
    pub(crate) fn threads_for(shards: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        shards.min(hw)
    }

    /// Spawns a hardware-sized pool; see [`WorkerPool::with_threads`].
    pub(crate) fn new(shards: &[Arc<Mutex<Shard>>]) -> Self {
        Self::with_threads(shards, Self::threads_for(shards.len()))
    }

    /// Spawns `threads` workers (clamped to `1..=shards`), handing each
    /// a contiguous chunk of shards. Workers idle on their command
    /// channel until the first flush. The explicit count exists so tests
    /// can exercise multi-worker chunking and the flush barrier on
    /// hosts whose `available_parallelism` is 1.
    pub(crate) fn with_threads(shards: &[Arc<Mutex<Shard>>], threads: usize) -> Self {
        let threads = threads.clamp(1, shards.len().max(1));
        let chunk = shards.len().div_ceil(threads);
        let workers = shards
            .chunks(chunk)
            .enumerate()
            .map(|(id, chunk)| {
                let cells: Vec<Arc<Mutex<Shard>>> = chunk.iter().map(Arc::clone).collect();
                let (cmd_tx, cmd_rx) = channel::<Cmd>();
                let (res_tx, res_rx) = channel::<Vec<ShardDrain>>();
                let handle = std::thread::Builder::new()
                    .name(format!("realloc-drain-{id}"))
                    .spawn(move || {
                        while let Ok(cmd) = cmd_rx.recv() {
                            match cmd {
                                Cmd::Drain => {
                                    let drains: Vec<ShardDrain> =
                                        cells.iter().map(|s| crate::lock(s).drain()).collect();
                                    if res_tx.send(drains).is_err() {
                                        break; // pool dropped mid-flush
                                    }
                                }
                                Cmd::Shutdown => break,
                            }
                        }
                    })
                    .expect("failed to spawn shard drain worker");
                Worker {
                    cmd_tx,
                    res_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Flush barrier: all chunks drain concurrently; the results are
    /// appended to `out` in shard order (chunks are contiguous and each
    /// worker drains its chunk in shard order, so concatenation in
    /// worker order restores the sequential layout exactly).
    pub(crate) fn drain_all(&self, out: &mut Vec<ShardDrain>) {
        for w in &self.workers {
            w.cmd_tx.send(Cmd::Drain).expect("shard worker exited");
        }
        for w in &self.workers {
            out.extend(w.res_rx.recv().expect("shard drain panicked"));
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for w in &self.workers {
            // A worker that already exited (panic) is fine to ignore:
            // join below surfaces nothing, and the drop must not panic.
            let _ = w.cmd_tx.send(Cmd::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use realloc_core::{JobId, Request, Window};

    fn shard_cell(id: usize) -> Arc<Mutex<Shard>> {
        Arc::new(Mutex::new(Shard::new(id, BackendKind::Reservation, 1)))
    }

    #[test]
    fn threads_never_exceed_shards_or_hardware() {
        assert_eq!(WorkerPool::threads_for(0), 0);
        assert_eq!(WorkerPool::threads_for(1), 1);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap();
        assert_eq!(WorkerPool::threads_for(1024), hw.min(1024));
    }

    #[test]
    fn pool_drains_all_shards_in_order() {
        let shards: Vec<_> = (0..6).map(shard_cell).collect();
        for (i, s) in shards.iter().enumerate() {
            s.lock().unwrap().enqueue(Request::Insert {
                id: JobId(i as u64),
                window: Window::new(0, 64),
            });
        }
        let pool = WorkerPool::new(&shards);
        let mut drains = Vec::new();
        pool.drain_all(&mut drains);
        assert_eq!(drains.len(), 6);
        assert!(drains.iter().all(|d| d.stats.processed == 1));
        // Order is shard order regardless of chunking: drain i serviced
        // the request enqueued on shard i.
        for (i, d) in drains.iter().enumerate() {
            assert_eq!(d.records[0].0.job_id(), JobId(i as u64));
        }
        // The pool survives repeated (empty) flushes.
        let mut empty = Vec::new();
        pool.drain_all(&mut empty);
        assert_eq!(empty.len(), 6);
        assert!(empty.iter().all(|d| d.records.is_empty()));
    }

    #[test]
    fn multi_worker_chunking_preserves_shard_order() {
        // Force several workers regardless of the host's parallelism so
        // the chunk-concatenation and cross-worker barrier logic is
        // exercised even on single-core CI: 7 shards over 3 workers
        // chunk as [0..3], [3..6], [6..7].
        let shards: Vec<_> = (0..7).map(shard_cell).collect();
        for (i, s) in shards.iter().enumerate() {
            for k in 0..=(i as u64) {
                s.lock().unwrap().enqueue(Request::Insert {
                    id: JobId(i as u64 * 100 + k),
                    window: Window::new(0, 256),
                });
            }
        }
        let pool = WorkerPool::with_threads(&shards, 3);
        let mut drains = Vec::new();
        pool.drain_all(&mut drains);
        assert_eq!(drains.len(), 7);
        for (i, d) in drains.iter().enumerate() {
            // Shard i serviced exactly its own i+1 requests, in FIFO order.
            assert_eq!(d.stats.processed, i + 1, "shard {i}");
            let ids: Vec<JobId> = d.records.iter().map(|(r, _)| r.job_id()).collect();
            let want: Vec<JobId> = (0..=(i as u64))
                .map(|k| JobId(i as u64 * 100 + k))
                .collect();
            assert_eq!(ids, want, "shard {i} drained out of order");
        }
        // Oversized thread requests clamp to the shard count.
        let wide = WorkerPool::with_threads(&shards, 64);
        let mut again = Vec::new();
        wide.drain_all(&mut again);
        assert_eq!(again.len(), 7);
    }

    #[test]
    fn pool_shutdown_joins_workers() {
        let shards: Vec<_> = (0..2).map(shard_cell).collect();
        let pool = WorkerPool::new(&shards);
        drop(pool); // must not hang or panic
        assert_eq!(shards[0].lock().unwrap().queued(), 0);
    }
}
