//! End-to-end serving-tier proofs over real TCP:
//!
//! * protocol round trips (place/remove/window/metrics) through the
//!   service's own client;
//! * typed shedding — `overloaded <retry_after_ms>` on both the
//!   admission cap and a tenant's rate limit, with the connection
//!   surviving every shed;
//! * per-tenant rate limits honored within ±10% under sustained load;
//! * an online `rebalance()` racing mixed-tenant hotspot traffic with
//!   zero admitted requests lost;
//! * per-tenant p50/p95/p99 service times scrapeable over a live
//!   `ObsServer` during the run;
//! * silent clients reaped by the handler read timeout;
//! * every admitted mutation of a pipelined window answered with its
//!   outcome, under both flush modes — two equal ones each with its
//!   own;
//! * README "Serving & QoS" names every `service_*` instrument a
//!   served, traced run registers.

use realloc_core::net::FrameConn;
use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig, FlushMode, TenantId};
use realloc_service::{
    drive_feed, Command, QosClient, QosConfig, RateLimit, Reply, ServiceConfig, ServiceServer,
};
use realloc_store::{DurableStore, MemIo, StoreIo};
use realloc_telemetry::{fetch_metrics, parse_sample, ObsServer, Telemetry};
use realloc_workloads::scenarios::{hotspot, HOTSPOT_WHALE};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(shards: usize) -> Engine {
    Engine::new(EngineConfig {
        shards,
        machines_per_shard: 4,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 2,
    })
}

fn bind(config: ServiceConfig, telemetry: &Telemetry) -> ServiceServer {
    ServiceServer::bind("127.0.0.1:0", engine(4), config, telemetry).expect("bind service")
}

/// The command a well-formed line parses to.
fn cmd(line: &str) -> Command {
    Command::parse(line).expect("a well-formed command")
}

#[test]
fn protocol_round_trips_through_the_client() {
    let t = Telemetry::new();
    let server = bind(ServiceConfig::default(), &t);
    let mut client = QosClient::connect(server.addr()).unwrap();

    // Place: the reply carries the tenant-namespaced global id.
    let global = match client.call(cmd("place 3 7 10 14")).unwrap() {
        Reply::Placed(g) => g,
        other => panic!("place must be admitted: {other:?}"),
    };
    assert_eq!(global.0 >> 48, 3, "global id carries the tenant");

    assert_eq!(
        client.call(cmd("window 3 7")).unwrap(),
        Reply::WindowIs(Window::new(10, 14))
    );
    // Another tenant cannot see it: ids are tenant-scoped.
    assert_eq!(client.call(cmd("window 4 7")).unwrap(), Reply::WindowNone);

    match client.call(Command::Metrics).unwrap() {
        Reply::MetricsIs {
            requests, active, ..
        } => {
            assert_eq!(requests, 1);
            assert_eq!(active, 1);
        }
        other => panic!("metrics must answer: {other:?}"),
    }

    assert_eq!(
        client.call(cmd("remove 3 7")).unwrap(),
        Reply::Removed(global)
    );
    assert_eq!(client.call(cmd("window 3 7")).unwrap(), Reply::WindowNone);

    // Engine rejections come back as typed refusals, not hangs: a
    // delete of a job that never existed.
    match client.call(cmd("remove 3 99")).unwrap() {
        Reply::Err(detail) => {
            assert!(detail.contains("unknown"), "got: {detail}")
        }
        other => panic!("bad delete must be refused: {other:?}"),
    }
    // Tenant 0 is reserved.
    match client.call(cmd("place 0 1 0 4")).unwrap() {
        Reply::Err(detail) => {
            assert!(detail.to_lowercase().contains("reserved"), "got: {detail}")
        }
        other => panic!("tenant 0 must be refused: {other:?}"),
    }
    // The connection survived every refusal.
    assert!(matches!(
        client.call(Command::Metrics).unwrap(),
        Reply::MetricsIs { .. }
    ));

    // Garbage — which the client cannot send — is an err reply on a
    // healthy connection.
    let mut raw = FrameConn::connect(server.addr()).unwrap();
    let mut ask = |line: &str| {
        raw.write(line.as_bytes()).unwrap();
        raw.flush().unwrap();
        Reply::parse(&raw.read_reply(1 << 16).unwrap()).unwrap()
    };
    match ask("frobnicate 1 2 3") {
        (Reply::Err(detail), None) => {
            assert!(detail.contains("unknown command"), "got: {detail}")
        }
        other => panic!("garbage must be refused: {other:?}"),
    }
    assert!(matches!(ask("metrics"), (Reply::MetricsIs { .. }, None)));
}

#[test]
fn the_admission_cap_sheds_typed_and_the_connection_survives() {
    let t = Telemetry::new();
    let server = bind(
        ServiceConfig {
            qos: QosConfig {
                admit_cap: 0, // shed every mutation
                retry_after: Duration::from_millis(250),
                ..QosConfig::default()
            },
            ..ServiceConfig::default()
        },
        &t,
    );
    let mut client = QosClient::connect(server.addr()).unwrap();

    for id in 0..10 {
        match client.call(cmd(&format!("place 1 {id} 0 4"))).unwrap() {
            Reply::Overloaded(retry_after_ms) => {
                assert_eq!(retry_after_ms, 250, "the configured hint is surfaced")
            }
            other => panic!("a full server must shed typed: {other:?}"),
        }
    }
    // Reads are never shed — the connection is alive and serving.
    assert_eq!(client.call(cmd("window 1 0")).unwrap(), Reply::WindowNone);
    match client.call(Command::Metrics).unwrap() {
        Reply::MetricsIs { requests, .. } => {
            assert_eq!(requests, 0, "nothing reached the engine")
        }
        other => panic!("metrics must answer: {other:?}"),
    }
    // The sheds are countable — and so is the connection that made
    // them, counted by its handler before it read the first command.
    assert_eq!(t.counter_value("service_shed_total"), Some(10));
    assert_eq!(t.counter_value("service_connections_total"), Some(1));
}

#[test]
fn per_tenant_rate_limits_hold_within_ten_percent() {
    let t = Telemetry::new();
    let server = bind(
        ServiceConfig {
            qos: QosConfig {
                // Tenant 1 metered tight; tenant 2 unmetered.
                default_limit: None,
                tenant_limits: vec![(
                    1,
                    Some(RateLimit {
                        rate_per_sec: 200,
                        burst: 10,
                    }),
                )],
                ..QosConfig::default()
            },
            ..ServiceConfig::default()
        },
        &t,
    );
    let mut client = QosClient::connect(server.addr()).unwrap();

    // Hammer tenant 1 for a fixed wall-clock span, as fast as the
    // round trips allow; tenant 2 rides along unmetered.
    let span = Duration::from_millis(500);
    let started = Instant::now();
    let (mut admitted, mut shed, mut sent) = (0u64, 0u64, 0u64);
    let mut id = 0u64;
    while started.elapsed() < span {
        id += 1;
        sent += 1;
        // Disjoint windows per id so engine capacity never interferes
        // with the QoS measurement.
        let (start, end) = (id * 4, id * 4 + 4);
        match client
            .call(cmd(&format!("place 1 {id} {start} {end}")))
            .unwrap()
        {
            Reply::Placed(_) => admitted += 1,
            Reply::Overloaded(retry_after_ms) => {
                shed += 1;
                assert!(retry_after_ms >= 1, "rate sheds carry a real hint");
            }
            other => panic!("unexpected: {other:?}"),
        }
        match client
            .call(cmd(&format!("place 2 {id} {start} {end}")))
            .unwrap()
        {
            Reply::Placed(_) => {}
            other => panic!("unmetered tenant must always admit: {other:?}"),
        }
    }
    let elapsed = started.elapsed();
    assert!(shed > 0, "the load exceeded the limit ({sent} sent)");
    // Entitlement over the measured span: burst + rate × elapsed.
    let entitled = 10.0 + 200.0 * elapsed.as_secs_f64();
    let ratio = admitted as f64 / entitled;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "admitted {admitted} vs entitled {entitled:.1} (ratio {ratio:.3}, {sent} sent in {elapsed:?})"
    );
    // Per-tenant counters saw the same split.
    assert_eq!(
        t.counter_value(&realloc_telemetry::labeled(
            "service_admitted_total",
            "tenant",
            1
        )),
        Some(admitted)
    );
    assert_eq!(
        t.counter_value(&realloc_telemetry::labeled(
            "service_shed_total",
            "tenant",
            1
        )),
        Some(shed)
    );
}

/// The acceptance scenario: mixed-tenant hotspot load with a whale, an
/// online `rebalance()` mid-run, per-tenant quantiles scraped live over
/// the ObsServer — and zero admitted requests lost.
#[test]
fn hotspot_load_survives_an_online_rebalance_with_quantiles_scrapeable() {
    let t = Telemetry::new();
    let server = bind(ServiceConfig::default(), &t);
    let obs = ObsServer::bind("127.0.0.1:0", t.clone()).unwrap();
    let addr = server.addr();

    // 3 dwarf tenants + the whale, driven from a client thread.
    let driver = std::thread::spawn(move || {
        let mut feed = hotspot(3, 42);
        let batches = std::iter::from_fn(|| feed.next_batch(6)).take(40);
        drive_feed(addr, batches, 16).expect("drive")
    });

    // Rebalance while the traffic flows: the whale (well over half the
    // active jobs) gets isolated onto its own shard. Early in the run
    // it may not dominate yet (`Ok(None)`), so poll until it does.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut rebalanced = None;
    while rebalanced.is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        let engine = server.engine();
        let mut engine = engine.lock().unwrap();
        rebalanced = engine.rebalance().expect("rebalance under load");
    }

    // Scrape per-tenant quantiles over the ObsServer *during* the run.
    let text = fetch_metrics(obs.addr()).unwrap();
    let whale = HOTSPOT_WHALE;
    let p99 = parse_sample(
        &text,
        &format!("service_request_nanos{{tenant=\"{whale}\",quantile=\"0.99\"}}"),
    );
    let count = parse_sample(
        &text,
        &format!("service_request_nanos_count{{tenant=\"{whale}\"}}"),
    );
    assert!(
        p99.is_some() && count.unwrap_or(0) > 0,
        "whale p99 must be scrapeable mid-run:\n{text}"
    );

    let stats = driver.join().expect("driver thread");
    // No admitted request was lost or refused: the churn feed only
    // produces valid sequences, so with no rate limits every command
    // must come back `ok`.
    for (tenant, s) in &stats {
        assert!(s.sent > 0, "tenant {tenant} drove traffic");
        assert_eq!(
            (s.admitted, s.shed, s.refused),
            (s.sent, 0, 0),
            "tenant {tenant}: every sent command admitted (stats {s:?})"
        );
    }

    // The engine came through consistent, with the whale actually
    // isolated by the mid-run rebalance.
    let engine = server.engine();
    let engine = engine.lock().unwrap();
    engine.validate().expect("engine valid after the run");
    assert!(
        rebalanced.is_some(),
        "the whale dominated, so rebalance() must have acted"
    );
    let whale_active = engine.active_count_for(TenantId(whale));
    assert!(whale_active > 0, "whale jobs are live");
    // Dwarf quantiles are scrapeable too (all tenants instrumented).
    let text = fetch_metrics(obs.addr()).unwrap();
    for tenant in [2u16, 3, 4] {
        let count = parse_sample(
            &text,
            &format!("service_request_nanos_count{{tenant=\"{tenant}\"}}"),
        );
        assert!(count.unwrap_or(0) > 0, "tenant {tenant} histogram missing");
    }
}

#[test]
fn a_silent_service_client_is_reaped_by_the_read_timeout() {
    use std::io::Read as _;
    use std::net::TcpStream;

    let t = realloc_telemetry::disabled();
    let server = bind(
        ServiceConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServiceConfig::default()
        },
        &t,
    );

    let mut silent = TcpStream::connect(server.addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    let n = silent.read(&mut buf).expect("server closes, not stalls");
    assert_eq!(n, 0, "expected EOF from the reaped handler");

    // The server is unharmed.
    let mut client = QosClient::connect(server.addr()).unwrap();
    assert!(matches!(
        client.call(cmd("place 1 1 0 4")).unwrap(),
        Reply::Placed(_)
    ));
}

#[test]
fn pipelined_commands_answer_in_order() {
    let t = realloc_telemetry::disabled();
    let server = bind(ServiceConfig::default(), &t);
    let mut client = QosClient::connect(server.addr()).unwrap();

    // A pipelined burst: 20 places, then the matching windows.
    for id in 0..20u64 {
        client
            .send(&[cmd(&format!("place 5 {id} {} {}", id, id + 4))])
            .unwrap();
    }
    for id in 0..20u64 {
        match client.recv().unwrap() {
            Reply::Placed(g) => assert_eq!(g.0 & 0xffff_ffff, id, "in order"),
            other => panic!("pipelined place {id}: {other:?}"),
        }
    }
    for id in 0..20u64 {
        client.send(&[cmd(&format!("window 5 {id}"))]).unwrap();
    }
    for id in 0..20u64 {
        assert_eq!(
            client.recv().unwrap(),
            Reply::WindowIs(Window::new(id, id + 4)),
            "window {id} in order"
        );
    }
    assert_eq!(client.pending(), 0);
}

/// A four-shard service flushing in `flush` mode (over an in-memory
/// store when durable), and a client whose missing reply fails the test
/// instead of hanging it.
fn serve(flush: FlushMode) -> (ServiceServer, QosClient) {
    let mut engine = engine(4);
    if flush == FlushMode::Durable {
        let store = DurableStore::create(
            Arc::new(MemIo::new()) as Arc<dyn StoreIo>,
            std::path::Path::new("/store"),
            engine.journal().expect("journaled").config(),
        )
        .expect("create store");
        engine.attach_durability(Box::new(store)).expect("attach");
    }
    let config = ServiceConfig {
        flush,
        ..ServiceConfig::default()
    };
    let t = realloc_telemetry::disabled();
    let server = ServiceServer::bind("127.0.0.1:0", engine, config, &t).expect("bind");
    let mut client = QosClient::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (server, client)
}

/// Nothing an admitted mutation can be answered with means "later": a
/// pipelined window comes back as one `ok placed`/`ok removed`/`err …`
/// per command — engine rejections included — and leaves nothing queued.
#[test]
fn every_admitted_mutation_of_a_window_is_answered_with_its_outcome() {
    for flush in [FlushMode::Immediate, FlushMode::Durable] {
        let (server, mut client) = serve(flush);

        // Places, a duplicate of each third one, removes of every other
        // one, and removes of jobs that never existed.
        let tenant = TenantId(6);
        let place = |id| Command::Place {
            tenant,
            id: JobId(id),
            window: Window::new(id * 8, id * 8 + 8),
        };
        let remove = |id| Command::Remove {
            tenant,
            id: JobId(id),
        };
        let mut window: Vec<Command> = Vec::new();
        for id in 0..24u64 {
            window.push(place(id));
            if id % 3 == 0 {
                window.push(place(id));
            }
            if id % 2 == 0 {
                window.push(remove(id));
            }
            window.push(remove(1000 + id));
        }
        client.send(&window).unwrap();
        let (mut placed, mut removed, mut refused) = (0, 0, 0);
        for command in &window {
            match client.recv().unwrap() {
                Reply::Placed(_) => placed += 1,
                Reply::Removed(_) => removed += 1,
                Reply::Err(_) => refused += 1,
                other => panic!("{flush:?}: {command:?} answered {other:?}"),
            }
        }
        assert_eq!((placed, removed, refused), (24, 12, 8 + 24), "{flush:?}");
        assert_eq!(client.pending(), 0);
        let engine = server.engine();
        let engine = engine.lock().unwrap();
        assert_eq!(engine.queued(), 0, "{flush:?}: nothing left unserviced");
        assert_eq!(engine.active_count(), 12, "{flush:?}");
    }
}

/// Two equal mutations in one window are each answered with their own
/// outcome — the reply of the one the journal records as `ok` is `ok`,
/// the other's is its `err` — under both flush modes.
#[test]
fn equal_mutations_in_one_window_get_their_own_outcomes() {
    for flush in [FlushMode::Immediate, FlushMode::Durable] {
        let (server, mut client) = serve(flush);
        for line in ["place 3 7 10 14", "remove 3 7"] {
            client.send(&[cmd(line), cmd(line)]).unwrap();
            let replies = [client.recv().unwrap(), client.recv().unwrap()];
            let engine = server.engine();
            let engine = engine.lock().unwrap();
            let events = engine.journal().expect("journaled").tail_events();
            let journaled: Vec<Reply> = events[events.len() - 2..]
                .iter()
                .map(|event| match (&event.result, event.request) {
                    (Ok(_), Request::Insert { id, .. }) => Reply::Placed(id),
                    (Ok(_), Request::Delete { id }) => Reply::Removed(id),
                    (Err(code), _) => Reply::Err(code.as_str().to_string()),
                })
                .collect();
            assert_eq!(replies.to_vec(), journaled, "{flush:?}: `{line}` twice");
            assert!(matches!(replies[0], Reply::Placed(_) | Reply::Removed(_)));
        }
    }
}

/// The docs-drift gate for README "Serving & QoS": its instrument table
/// names exactly the `service_*` instruments a served, traced run
/// registers — label sets stripped, none missing, none extra.
#[test]
fn readme_lists_every_service_instrument() {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
    let mut documented: Vec<&str> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `service_"))
        .map(|rest| &rest[..rest.find('`').expect("closing backtick")])
        .collect();
    documented.sort_unstable();

    let t = Telemetry::new();
    let server = bind(
        ServiceConfig {
            trace_sample_every: 1,
            ..ServiceConfig::default()
        },
        &t,
    );
    let mut client = QosClient::connect(server.addr()).unwrap();
    client.send(&[cmd("place 1 1 0 4")]).unwrap();
    assert!(matches!(
        client.recv_traced().unwrap(),
        (Reply::Placed(_), Some(_))
    ));
    assert!(matches!(
        client.call(cmd("remove 1 99")).unwrap(),
        Reply::Err(_)
    ));
    let (counters, gauges, hists) = t.registry_contents();
    let mut registered: Vec<String> = counters
        .into_iter()
        .chain(gauges)
        .map(|(name, _)| name)
        .chain(hists.into_iter().map(|(name, _)| name))
        .filter_map(|name| {
            let bare = name.split('{').next().expect("a name");
            bare.strip_prefix("service_").map(str::to_string)
        })
        .collect();
    registered.sort_unstable();
    registered.dedup();
    assert_eq!(
        documented, registered,
        "README table vs registry (service_ prefix and label sets dropped)"
    );
}
