//! Behaviour pins: fixed-seed streams through the deployed
//! configurations, asserting literal digests of the journal text, the
//! snapshot text and the state digest.
//!
//! The constants were recorded at the commit that added this file and
//! are the contract for every later change to the request path: a
//! refactor of the shard, the §3/§5 wrapper, the `n*` trimming or the
//! cost accounting that moves any placement, any per-request cost, any
//! journal byte or any snapshot byte fails here. Re-recording a constant
//! is a behaviour change and needs to be argued as one.

use realloc_core::snapshot::digest64;
use realloc_core::{JobId, Request, Restorable, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig};
use realloc_workloads::{ChurnConfig, ChurnGenerator};

fn engine(shards: usize, machines: usize, gamma: u64) -> Engine {
    Engine::new(EngineConfig {
        shards,
        machines_per_shard: machines,
        backend: BackendKind::TheoremOne { gamma },
        parallel: false,
        journal: true,
        ..EngineConfig::default()
    })
}

fn ingest(engine: &mut Engine, requests: &[Request], batch: usize) {
    for chunk in requests.chunks(batch) {
        for &r in chunk {
            engine.submit(r);
        }
        engine.flush();
    }
}

/// `(journal text, snapshot text, state digest)` digests of `engine`.
fn digests(engine: &Engine) -> (u64, u64, u64) {
    (
        digest64(&engine.journal().expect("journal enabled").to_text()),
        digest64(&engine.snapshot_text()),
        engine.state_digest(),
    )
}

/// The `(n*, rebuilds)` of every machine, read off the `g γ n* rebuilds`
/// headers of the snapshot's `trimmed` sections.
fn trim_headers(snapshot: &str) -> Vec<(u64, u64)> {
    snapshot
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("g "))
        .map(|rest| {
            let f: Vec<u64> = rest.split(' ').map(|t| t.parse().unwrap()).collect();
            (f[1], f[2])
        })
        .collect()
}

/// How many `o` lines (pre-trim windows) of the snapshot are wider than
/// their machine's trim bound `(2γn*).next_power_of_two()` — the jobs
/// whose window the trimming really cut.
fn cut_windows(snapshot: &str) -> usize {
    let mut trim_span = 0u64;
    let mut cut = 0;
    for line in snapshot.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| f[i].parse::<u64>().unwrap();
        match f.first() {
            Some(&"g") => trim_span = (2 * num(1) * num(2)).next_power_of_two(),
            Some(&"o") if num(3) - num(2) > trim_span => cut += 1,
            _ => {}
        }
    }
    cut
}

/// `mem_dense`-shaped: 4 shards × 4 machines, `theorem1:8`, the
/// benchmark's span ladder and horizon, unaligned windows, 10 240
/// requests of prefill and 20 000 of churn.
///
/// Re-recorded once, on purpose: an `n*` crossing whose bound re-trims no
/// window (any crossing between two `n*` ≥ 256: spans ≤ 4 096, γ = 8)
/// stopped re-placing the machine's schedule, and reallocations went
/// 1 190 → 673. Requests, failures, active jobs and migrations did not
/// move.
#[test]
fn dense_churn_is_pinned() {
    let mut gen = ChurnGenerator::new(
        ChurnConfig {
            machines: 8,
            gamma: 8,
            horizon: 1 << 16,
            spans: vec![1, 4, 16, 64, 256, 1024, 4096],
            target_active: 8192,
            insert_bias: 0.6,
            unaligned: true,
        },
        0x5eed_0001,
    );
    let mut e = engine(4, 4, 8);
    ingest(&mut e, gen.generate(10_240).requests(), 64);
    ingest(&mut e, gen.generate(20_000).requests(), 32);
    e.validate().unwrap();
    let m = e.metrics();
    assert_eq!((m.requests, m.failed), (30_240, 0));
    assert_eq!(
        (m.active_jobs, m.reallocations, m.migrations),
        (6_212, 673, 306)
    );
    assert_eq!(
        digests(&e),
        (
            0x8ca7_22c2_6ff2_a3b1,
            0xbc49_7b0a_e95f_b900,
            0xbc49_7b0a_e95f_b900
        )
    );
}

/// The short-horizon stream of the two small scenarios: spans up to the
/// whole horizon against `theorem1:1` (trim bound `2n*`, 16 at the
/// floor), so long windows really are cut.
fn short_horizon_churn(len: usize) -> Vec<Request> {
    ChurnGenerator::new(
        ChurnConfig {
            machines: 4,
            gamma: 8,
            horizon: 1 << 10,
            spans: vec![1, 4, 16, 64, 256, 1024],
            target_active: 200,
            insert_bias: 0.7,
            unaligned: true,
        },
        0x5eed_0002,
    )
    .generate(len)
    .requests()
    .to_vec()
}

/// 2 shards × 2 machines, `theorem1:1`: windows are cut, `n*` doubles
/// (ramp-up) and halves (the drain), §3 migrations fire, and a
/// hand-written over-subscribed tail gets some inserts rejected.
#[test]
fn trimmed_churn_with_rejections_is_pinned() {
    let stream = short_horizon_churn(1_600);
    let mut e = engine(2, 2, 1);
    ingest(&mut e, &stream, 16);
    let ramped = e.snapshot_text();
    assert!(
        trim_headers(&ramped)
            .iter()
            .all(|&(n_star, _)| n_star >= 32),
        "ramp-up doubles n* on every machine: {:?}",
        trim_headers(&ramped)
    );
    assert!(cut_windows(&ramped) > 0, "some window is really cut");

    // Drain: delete every live job but a handful, oldest first.
    let mut live: Vec<JobId> = Vec::new();
    for r in &stream {
        match *r {
            Request::Insert { id, .. } => live.push(id),
            Request::Delete { id } => live.retain(|&l| l != id),
        }
    }
    let keep = live.split_off(live.len() - 6);
    let drain: Vec<Request> = live.iter().map(|&id| Request::Delete { id }).collect();
    ingest(&mut e, &drain, 16);
    let drained = trim_headers(&e.snapshot_text());
    assert!(
        drained.iter().all(|&(n_star, _)| n_star == 8),
        "the drain halves n* back to the floor: {drained:?}"
    );
    assert!(
        drained.iter().all(|&(_, rebuilds)| rebuilds >= 4),
        "every machine rebuilt on the way up and on the way down: {drained:?}"
    );
    assert!(e.metrics().migrations > 0, "§3 migrations fired");

    // Over-subscribe two unit-granularity windows: [2048, 2052) holds 4
    // slots × 2 machines per shard; 40 jobs routed over 2 shards do not
    // fit, and the stream keeps being served around the rejections.
    let mut tail: Vec<Request> = Vec::new();
    for i in 0..40u64 {
        tail.push(Request::Insert {
            id: JobId(100_000 + i),
            window: Window::new(2048, 2052),
        });
    }
    for i in 0..12u64 {
        tail.push(Request::Insert {
            id: JobId(200_000 + i),
            window: Window::new(4097, 4099),
        });
    }
    tail.push(Request::Delete { id: keep[0] });
    tail.push(Request::Delete { id: JobId(100_000) });
    tail.push(Request::Insert {
        id: JobId(100_001),
        window: Window::new(0, 64),
    });
    tail.push(Request::Delete { id: JobId(999_999) });
    ingest(&mut e, &tail, 8);
    e.validate().unwrap();
    let m = e.metrics();
    assert!(
        m.failed > 10,
        "the tail over-subscribes: {} failed",
        m.failed
    );
    assert_eq!((m.requests, m.failed, m.active_jobs), (1_816, 34, 24));
    assert_eq!((m.reallocations, m.migrations), (201, 88));
    assert_eq!(
        digests(&e),
        (
            0xc215_991b_1dca_0217,
            0x026f_dff7_cc32_b644,
            0x026f_dff7_cc32_b644
        )
    );
}

/// The same configuration restored from `snapshot_text()` mid-stream:
/// the restored engine serves the second half and must land on the
/// pinned state (its journal holds the second half only).
#[test]
fn mid_stream_restore_is_pinned() {
    let stream = short_horizon_churn(1_600);
    let (first, second) = stream.split_at(800);
    let mut a = engine(2, 2, 1);
    ingest(&mut a, first, 16);
    let mut b = Engine::restore_snapshot(&a.snapshot_text()).expect("restore mid-stream");
    assert_eq!(b.state_digest(), a.state_digest());
    ingest(&mut b, second, 16);
    ingest(&mut a, second, 16);
    b.validate().unwrap();
    assert_eq!(b.state_digest(), a.state_digest(), "restore is invisible");
    assert_eq!(b.placements(), a.placements());
    assert_eq!(
        digests(&b),
        (
            0x9e20_c1e9_7805_82fd,
            0xbf46_f65c_b881_7c2e,
            0xbf46_f65c_b881_7c2e
        )
    );
}
