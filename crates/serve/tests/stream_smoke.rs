//! CI `stream-smoke`: boot the DNS front-end with a live streaming engine
//! attached, replay a loadgen burst, and assert the streaming plane's two
//! contracts end to end over real sockets:
//!
//! 1. **Live**: while the front-end is still up (the served database not
//!    yet collected), the engine snapshot is non-empty and all four
//!    stream metrics are scrapeable from the `nxd-obs` plane.
//! 2. **Convergence**: after shutdown, the streaming snapshot equals the
//!    batch query engine run over the served database — which itself
//!    equals the offline reference ingest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use nxd_obs::{client, ObsServer};
use nxd_passive_dns::{query, StreamEngine};
use nxd_serve::{
    build_world, ingest_parity, loadgen, offline_reference, DnsServer, LoadConfig, LoadReport,
    ServeConfig, WorldConfig,
};
use nxd_telemetry::Telemetry;

/// The four metrics the streaming engine registers; every one must be
/// scrapeable from `/metrics` while the run is live.
const STREAM_METRICS: [&str; 4] = [
    "stream_queue_depth",
    "stream_watermark_lag_days",
    "stream_late_rows_total",
    "stream_windows_closed_total",
];

#[test]
fn live_stream_aggregates_are_scrapeable_and_converge_to_offline() {
    let world = build_world(&WorldConfig {
        nx_names: 150,
        registered: 20,
        queries: 2_000,
        ..WorldConfig::default()
    });
    let telemetry = Arc::new(Telemetry::wall());
    let engine = StreamEngine::default();
    engine.attach_metrics(&telemetry.registry);
    engine.attach_journal(telemetry.journal.clone());

    let obs = ObsServer::bind("127.0.0.1:0", telemetry.clone()).expect("obs binds");
    let obs_addr = obs.local_addr().to_string();
    let server = DnsServer::bind(
        "127.0.0.1:0",
        world.dns.clone(),
        telemetry.clone(),
        ServeConfig {
            day: world.day,
            stream: Some(engine.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind on loopback");
    let dns_addr = server.local_addr();

    // Drive the fleet from a scoped worker while this thread polls the
    // observability plane — a best-effort mid-flight race (asserted
    // deterministically below, once the load is done but the server is
    // still up).
    let load = LoadConfig {
        clients: 8,
        tcp_permille: 250,
    };
    let done = AtomicBool::new(false);
    let report_slot: Mutex<Option<LoadReport>> = Mutex::new(None);
    let mut polls = 0u32;
    crossbeam::thread::scope(|scope| {
        scope.spawn(|_| {
            let report = loadgen::run(dns_addr, &world, &load, &telemetry).expect("fleet runs");
            *report_slot.lock().unwrap() = Some(report);
            done.store(true, Ordering::SeqCst);
        });
        while !done.load(Ordering::SeqCst) {
            let scrape = client::http_get(&obs_addr, "/metrics").expect("scrape");
            assert_eq!(scrape.status, 200);
            polls += 1;
        }
    })
    .expect("no worker panicked");
    assert!(polls > 0, "the poller never ran");
    let report = report_slot.into_inner().unwrap().expect("report recorded");
    assert_eq!(report.failures, 0, "every query must be answered");

    // Live contract: the server is still serving, the sink has not been
    // collected — yet the streaming aggregates are already complete and
    // every stream metric is on the exposition.
    let live = engine.snapshot();
    assert!(live.admitted_rows > 0, "live snapshot is empty");
    assert!(live.total_nx_responses > 0, "no NXDOMAINs seen live");
    assert!(live.distinct_nx_estimate > 0, "sketch plane is empty");
    let metrics = client::http_get(&obs_addr, "/metrics").expect("scrape");
    for name in STREAM_METRICS {
        assert!(
            metrics.body.contains(name),
            "{name} missing from /metrics:\n{}",
            metrics.body
        );
    }
    let json = client::http_get(&obs_addr, "/snapshot.json").expect("scrape");
    assert_eq!(json.status, 200);
    assert!(json.body.contains("stream_late_rows_total"));

    // Convergence contract: snapshot ≡ batch oracle over the served rows.
    let served = server.shutdown();
    let snap = engine.snapshot();
    assert_eq!(snap.admitted_rows, served.row_count() as u64);
    assert_eq!(snap.late.rows, 0, "single-day traffic cannot be late");
    assert_eq!(snap.rcode_breakdown, query::rcode_breakdown(&served));
    assert_eq!(snap.total_nx_responses, query::total_nx_responses(&served));
    assert_eq!(snap.distinct_nx_names, query::distinct_nx_names(&served));
    assert_eq!(snap.nx_by_sensor, query::nx_by_sensor(&served));
    assert_eq!(snap.tld_distribution, query::tld_distribution(&served));
    let offline = offline_reference(&world, world.day, 0);
    ingest_parity(&served, &offline).expect("served ingest must equal offline ingest");

    // The queue drained (depth gauge rests at zero), and with all rows on
    // one day the watermark sits exactly `allowed_lateness_days` behind.
    let tsnap = telemetry.snapshot();
    assert_eq!(tsnap.gauge_value("stream_queue_depth"), Some(0));
    assert_eq!(
        tsnap.gauge_value("stream_watermark_lag_days"),
        Some(i64::from(engine.config().window.allowed_lateness_days))
    );
    assert_eq!(tsnap.counter_total("stream_late_rows_total"), 0);
    obs.shutdown();
}
