//! Heap allocations per request on the serving path, as a counted gate.
//!
//! A counting global allocator (this binary only — one `#[test]`, so
//! nothing else allocates while a window is open) brackets 20 000 churn
//! requests after a prefill, twice: (a) in process, through
//! `submit_for` + `flush` in batches of 32 on the deployed configuration
//! (4 shards × 4 machines, `theorem1:8`, journal and telemetry on), and
//! (b) over loopback through a `ServiceServer`, from a client that sends
//! pre-framed bytes and reads replies into a fixed buffer, so every
//! counted allocation is the server's. A count repeats exactly from run
//! to run, which a timing does not: this is the noise-free half of the
//! "no per-request heap traffic the path can avoid" claim.

use realloc_core::textio::write_frame;
use realloc_core::Request;
use realloc_engine::{BackendKind, Engine, EngineConfig, TenantId};
use realloc_service::{ServiceConfig, ServiceServer};
use realloc_telemetry::Telemetry;
use realloc_workloads::{ChurnConfig, ChurnGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap blocks handed out, process-wide (`alloc`/`alloc_zeroed`; growing
/// a block a structure already owns — `realloc` — is not a new block and
/// is not counted).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counter is
// a relaxed atomic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BATCH: usize = 32;
const MEASURED: usize = 20_000;
/// Active jobs per tenant the prefill builds and the churn hovers at.
const TARGET_ACTIVE: usize = 4_096;

/// In-process budget, allocations per request: the 0.25 this test reads
/// since a §3 window group of one keeps its job in its map bucket (0.47
/// before, when every group's first job allocated a 16-byte member list;
/// 2.54 before the scheduler layers appended their moves to a buffer
/// their caller reuses), plus 0.03 headroom. What is left is the run
/// list a window's second job allocates and the per-batch lists of the
/// flush and its drains, one each per 32 requests.
const FLUSH_BUDGET: f64 = 0.28;
/// Loopback budget, allocations per request (server side: the client
/// allocates nothing inside the window): the 0.44 read at the same
/// commit plus 0.05 — the in-process path plus the handler's per-batch
/// lists. The handler parses each command where it lies in the socket's
/// staging buffer; before, it copied every frame's 13–25 byte payload
/// first (1.66).
const SERVICE_BUDGET: f64 = 0.49;

fn deployed_engine(telemetry: &Telemetry) -> Engine {
    let mut engine = Engine::new(EngineConfig {
        shards: 4,
        machines_per_shard: 4,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        ..EngineConfig::default()
    });
    engine.attach_telemetry(telemetry);
    engine
}

/// Two tenants' unaligned churn, interleaved in half-batches: the
/// prefill (until both tenants hold `TARGET_ACTIVE` jobs) followed by
/// `MEASURED` more requests. Returns the list and the prefill's length.
fn stream() -> (Vec<(TenantId, Request)>, usize) {
    let mut gens: Vec<ChurnGenerator> = (1..=2u64)
        .map(|tenant| {
            ChurnGenerator::new(
                ChurnConfig {
                    machines: 4,
                    gamma: 8,
                    horizon: 1 << 16,
                    spans: vec![1, 4, 16, 64, 256, 1024, 4096],
                    target_active: TARGET_ACTIVE,
                    insert_bias: 0.6,
                    unaligned: true,
                },
                0xa110c + tenant,
            )
        })
        .collect();
    let mut out = Vec::new();
    let mut prefill = None;
    while prefill.is_none_or(|p| out.len() < p + MEASURED) {
        for (t, gen) in gens.iter_mut().enumerate() {
            for _ in 0..BATCH / 2 {
                let request = gen.next_request().expect("churn never saturates here");
                out.push((TenantId(t as u16 + 1), request));
            }
        }
        if prefill.is_none() && gens.iter().all(|g| g.active().len() >= TARGET_ACTIVE) {
            prefill = Some(out.len());
        }
    }
    let prefill = prefill.expect("loop ends after the prefill");
    out.truncate(prefill + MEASURED);
    (out, prefill)
}

/// (a): allocations per request through `submit_for` + `flush`.
fn flush_allocations(requests: &[(TenantId, Request)], prefill: usize) -> f64 {
    let mut engine = deployed_engine(&Telemetry::new());
    let mut serve = |chunk: &[(TenantId, Request)]| {
        for &(tenant, request) in chunk {
            engine.submit_for(tenant, request).expect("tenant ids fit");
        }
        assert_eq!(engine.flush().failed(), 0, "density-certified stream");
    };
    requests[..prefill].chunks(BATCH).for_each(&mut serve);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    requests[prefill..].chunks(BATCH).for_each(&mut serve);
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    engine.validate().expect("engine valid after the run");
    counted as f64 / (requests.len() - prefill) as f64
}

/// Sends `frames[..]` (already framed bytes of `count` commands) and
/// consumes `count` reply frames, each of which must start with `ok`.
/// Allocates nothing: the reply is read into a fixed buffer.
fn round_trip(
    conn: &mut TcpStream,
    replies: &mut BufReader<TcpStream>,
    frames: &[u8],
    count: usize,
) {
    conn.write_all(frames).expect("send batch");
    let mut reply = [0u8; 256];
    for _ in 0..count {
        let mut prefix = [0u8; 4];
        replies.read_exact(&mut prefix).expect("reply prefix");
        let len = u32::from_be_bytes(prefix) as usize;
        replies
            .read_exact(&mut reply[..len])
            .expect("reply payload");
        assert!(reply[..len].starts_with(b"ok "), "a command was refused");
    }
}

/// (b): server-side allocations per request over loopback.
fn service_allocations(requests: &[(TenantId, Request)], prefill: usize) -> f64 {
    let telemetry = Telemetry::new();
    let mut server = ServiceServer::bind(
        "127.0.0.1:0",
        deployed_engine(&telemetry),
        ServiceConfig::default(),
        &telemetry,
    )
    .expect("bind loopback");

    // Everything the client will ever send, framed up front; a batch is
    // a byte range.
    let mut wire: Vec<u8> = Vec::new();
    let mut batches: Vec<(usize, usize, usize)> = Vec::new();
    for chunk in requests.chunks(BATCH) {
        let from = wire.len();
        for &(tenant, request) in chunk {
            let line = match request {
                Request::Insert { id, window } => format!(
                    "place {} {} {} {}",
                    tenant.0,
                    id.0,
                    window.start(),
                    window.end()
                ),
                Request::Delete { id } => format!("remove {} {}", tenant.0, id.0),
            };
            write_frame(&mut wire, line.as_bytes()).expect("memory write");
        }
        batches.push((from, wire.len(), chunk.len()));
    }
    let first_measured = prefill.div_ceil(BATCH);

    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut replies = BufReader::new(conn.try_clone().expect("clone socket"));
    for &(from, to, count) in &batches[..first_measured] {
        round_trip(&mut conn, &mut replies, &wire[from..to], count);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut measured = 0;
    for &(from, to, count) in &batches[first_measured..] {
        round_trip(&mut conn, &mut replies, &wire[from..to], count);
        measured += count;
    }
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(conn);
    server.shutdown();
    let engine = server.engine();
    let engine = engine.lock().expect("engine lock");
    engine.validate().expect("engine valid after the run");
    assert_eq!(engine.metrics().failed, 0, "density-certified stream");
    counted as f64 / measured as f64
}

#[test]
fn serving_path_stays_inside_its_allocation_budget() {
    let (requests, prefill) = stream();
    let flush = flush_allocations(&requests, prefill);
    let service = service_allocations(&requests, prefill);
    println!("allocations/request: flush {flush:.2} (budget {FLUSH_BUDGET}), service {service:.2} (budget {SERVICE_BUDGET})");
    assert!(
        flush <= FLUSH_BUDGET,
        "submit_for + flush allocates {flush:.2} times per request, budget {FLUSH_BUDGET}"
    );
    assert!(
        service <= SERVICE_BUDGET,
        "the loopback serving path allocates {service:.2} times per request, budget {SERVICE_BUDGET}"
    );
}
