//! The passive-DNS sensor channel: every answered query streams one
//! [`SensorEvent`] from the thread that served it into a single collector
//! thread owning a [`PassiveDb`] — the same store the offline pipeline
//! ingests into, so a served run is queryable by every §4/§5 analysis.
//!
//! ## Exactness under UDP retries
//!
//! A stub resolver that loses a response retransmits the same query; the
//! server answers again and the sink would see the event twice. To keep a
//! served run's aggregates *exactly* equal to the offline batch ingest of
//! the same query list, UDP events are deduplicated on
//! (peer address, query id, qname) inside a [`RetransmitWindow`] of the
//! last [`RETRANSMIT_WINDOW`] keys. Load clients stamp sequential 16-bit
//! ids, so a peer's key can recur as a *new* query only after 65,535 other
//! keys from that peer; the window is half that, so a wrapped id has left
//! it even when up to half of the peer's id cycle was lost or reordered on
//! the way to the sink. A retransmission is caught as long as fewer than
//! 32,768 keys (from all peers) arrived since its original: a stub's
//! retries over 6 s at up to ~5.4k q/s. TCP delivers each pipelined query
//! exactly once, so TCP events are recorded as-is.
//!
//! This module denies `clippy::disallowed_types` and
//! `clippy::float_arithmetic`: the dedup window is a `BTreeSet` plus a
//! FIFO of interned-name keys and all tallies are integral, so nothing
//! about the served database depends on hash order.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::float_arithmetic))]

use std::collections::{BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use nxd_dns_wire::RCode;
use nxd_passive_dns::{NameId, Observation, PassiveDb, StreamEngine};
use nxd_telemetry::Telemetry;

/// How the query arrived; decides whether the dedup filter applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorTransport {
    Udp,
    Tcp,
}

/// One served response, as the sensor sees it.
#[derive(Debug, Clone)]
pub struct SensorEvent {
    pub peer: SocketAddr,
    pub query_id: u16,
    pub name: String,
    pub rcode: RCode,
    pub transport: SensorTransport,
}

/// Events the channel buffers before workers block in `send` — sized so a
/// slow collector exerts backpressure instead of growing without bound.
const SINK_DEPTH: usize = 1024;

/// UDP keys the dedup window remembers: half the 16-bit id space. A
/// window of the whole space would be exact only for lossless, in-order
/// delivery: one lost or reordered query leaves a wrapped key inside it,
/// that false duplicate is never admitted, and every later wrapped key
/// follows. Keys are 40 bytes (the name is its interned id), so the
/// window stays near 3 MiB whatever the server's lifetime.
const RETRANSMIT_WINDOW: usize = 1 << 15;

type DedupKey = (SocketAddr, u16, NameId);

/// The last `capacity` distinct UDP keys, oldest first: the set answers
/// "seen recently?", the FIFO decides which key leaves when a new one
/// arrives at capacity.
struct RetransmitWindow {
    capacity: usize,
    seen: BTreeSet<DedupKey>,
    order: VecDeque<DedupKey>,
}

impl RetransmitWindow {
    fn new(capacity: usize) -> Self {
        RetransmitWindow {
            capacity,
            seen: BTreeSet::new(),
            order: VecDeque::new(),
        }
    }

    /// Admits `key`, evicting the oldest key at capacity. Returns `false`
    /// when the key is already in the window: a retransmission.
    fn insert(&mut self, key: DedupKey) -> bool {
        if self.seen.contains(&key) {
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.seen.remove(&oldest);
            }
        }
        self.seen.insert(key);
        self.order.push_back(key);
        true
    }
}

/// A running sensor channel: clone [`SensorChannel::sender`] into each
/// worker, then [`SensorChannel::finish`] after the workers are joined to
/// collect the served database.
pub struct SensorChannel {
    tx: Option<Sender<SensorEvent>>,
    collector: Option<JoinHandle<PassiveDb>>,
}

impl SensorChannel {
    /// Spawns the collector thread. Served rows land on `day`/`sensor`
    /// (one live front-end is one sensor in the federation model), and the
    /// database's ingest metrics attach to `telemetry` under
    /// `plane="served"` labels. With a live streaming engine, every
    /// recorded (post-dedup) event is also offered to `stream`, so the
    /// incremental §4 aggregates and sketches update while the front-end
    /// is still serving — and the engine's `stream_queue_depth` gauge
    /// tracks this channel's occupancy.
    pub fn spawn_with_stream(
        day: u32,
        sensor: u16,
        telemetry: Arc<Telemetry>,
        stream: Option<StreamEngine>,
    ) -> Self {
        let (tx, rx) = bounded(SINK_DEPTH);
        let collector = spawn_collector(move || collect(rx, day, sensor, &telemetry, stream));
        SensorChannel {
            tx: Some(tx),
            collector: Some(collector),
        }
    }

    /// A sender handle for one worker thread.
    pub fn sender(&self) -> Option<Sender<SensorEvent>> {
        self.tx.clone()
    }

    /// Drops this side's sender and joins the collector. Callers must drop
    /// (join) every worker first, or this blocks until they exit.
    ///
    /// # Panics
    /// Re-raises a collector panic: a dead collector must not pass for a
    /// served database that recorded nothing.
    pub fn finish(mut self) -> PassiveDb {
        self.tx = None;
        match self.collector.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            None => PassiveDb::default(),
        }
    }
}

/// The sink's sanctioned detached-spawn site: the collector must outlive
/// `SensorChannel::spawn_with_stream`, its handle is joined in `finish`,
/// and `finish` re-raises a collector panic in its caller — the invariant
/// `clippy::disallowed_methods` guards here (worker panics are never lost)
/// holds by other means.
#[expect(
    clippy::disallowed_methods,
    reason = "collector outlives spawn_with_stream(); handle joined in finish(); a collector panic is re-raised by finish(), not a silent death"
)]
fn spawn_collector(f: impl FnOnce() -> PassiveDb + Send + 'static) -> JoinHandle<PassiveDb> {
    std::thread::spawn(f)
}

fn collect(
    rx: Receiver<SensorEvent>,
    day: u32,
    sensor: u16,
    telemetry: &Telemetry,
    stream: Option<StreamEngine>,
) -> PassiveDb {
    let mut db = PassiveDb::new();
    db.attach_metrics_labeled(&telemetry.registry, &[("plane", "served")]);
    let duplicates = telemetry.registry.counter("serve_sink_duplicates_total");
    let recorded = telemetry.registry.counter("serve_sink_recorded_total");
    let mut window = RetransmitWindow::new(RETRANSMIT_WINDOW);
    while let Ok(event) = rx.recv() {
        if let Some(engine) = &stream {
            engine.set_queue_depth(rx.len());
        }
        // Interning before the dedup decision adds nothing for a
        // duplicate: its original was recorded, so its name is interned.
        let name = db.interner_mut().intern_str(&event.name);
        if event.transport == SensorTransport::Udp
            && !window.insert((event.peer, event.query_id, name))
        {
            duplicates.inc();
            continue;
        }
        db.append(Observation {
            name,
            day,
            sensor,
            rcode: event.rcode.to_u8(),
            count: 1,
        });
        recorded.inc();
        if let Some(engine) = &stream {
            // The live plane sees exactly the rows the served database
            // records, so a mid-run snapshot stays parity-comparable to
            // querying the (eventual) served store.
            engine.offer_row(&event.name, day, sensor, event.rcode, 1);
        }
    }
    if let Some(engine) = &stream {
        engine.set_queue_depth(0);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_passive_dns::query;
    use proptest::prelude::*;

    fn key(port: u16, id: u16, name: u32) -> DedupKey {
        (
            format!("127.0.0.1:{port}").parse().unwrap(),
            id,
            NameId(name),
        )
    }

    fn event(port: u16, id: u16, name: &str, transport: SensorTransport) -> SensorEvent {
        SensorEvent {
            peer: format!("127.0.0.1:{port}").parse().unwrap(),
            query_id: id,
            name: name.to_string(),
            rcode: RCode::NxDomain,
            transport,
        }
    }

    #[test]
    fn udp_retransmissions_are_deduplicated() {
        let telemetry = Arc::new(Telemetry::wall());
        let channel = SensorChannel::spawn_with_stream(10, 3, telemetry.clone(), None);
        let tx = channel.sender().unwrap();
        tx.send(event(4000, 7, "a.com", SensorTransport::Udp))
            .unwrap();
        tx.send(event(4000, 7, "a.com", SensorTransport::Udp))
            .unwrap(); // retransmit
        tx.send(event(4000, 8, "a.com", SensorTransport::Udp))
            .unwrap(); // fresh id
        tx.send(event(4001, 7, "a.com", SensorTransport::Udp))
            .unwrap(); // other client
        drop(tx);
        let db = channel.finish();
        assert_eq!(db.row_count(), 3);
        assert_eq!(query::total_nx_responses(&db), 3);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter_total("serve_sink_duplicates_total"), 1);
        assert_eq!(snap.counter_total("serve_sink_recorded_total"), 3);
    }

    #[test]
    fn tcp_events_are_recorded_verbatim() {
        let telemetry = Arc::new(Telemetry::wall());
        let channel = SensorChannel::spawn_with_stream(10, 0, telemetry, None);
        let tx = channel.sender().unwrap();
        tx.send(event(5000, 1, "b.net", SensorTransport::Tcp))
            .unwrap();
        tx.send(event(5000, 1, "b.net", SensorTransport::Tcp))
            .unwrap();
        drop(tx);
        let db = channel.finish();
        assert_eq!(db.row_count(), 2);
    }

    #[test]
    fn stream_engine_sees_recorded_rows_not_duplicates() {
        let telemetry = Arc::new(Telemetry::wall());
        let engine = StreamEngine::default();
        engine.attach_metrics(&telemetry.registry);
        let channel =
            SensorChannel::spawn_with_stream(10, 3, telemetry.clone(), Some(engine.clone()));
        let tx = channel.sender().unwrap();
        tx.send(event(4000, 7, "a.com", SensorTransport::Udp))
            .unwrap();
        tx.send(event(4000, 7, "a.com", SensorTransport::Udp))
            .unwrap(); // retransmit: deduped, never offered to the engine
        tx.send(event(4000, 8, "b.net", SensorTransport::Tcp))
            .unwrap();
        drop(tx);
        let db = channel.finish();
        assert_eq!(db.row_count(), 2);
        let snap = engine.snapshot();
        assert_eq!(snap.admitted_rows, 2);
        assert_eq!(snap.total_nx_responses, 2);
        assert_eq!(snap.distinct_nx_names, 2);
        // The queue drained: the depth gauge rests at zero.
        assert_eq!(
            telemetry.snapshot().gauge_value("stream_queue_depth"),
            Some(0)
        );
    }

    #[test]
    fn rows_land_on_the_configured_day_and_sensor() {
        let telemetry = Arc::new(Telemetry::wall());
        let channel = SensorChannel::spawn_with_stream(123, 9, telemetry, None);
        let tx = channel.sender().unwrap();
        tx.send(event(6000, 2, "c.org", SensorTransport::Udp))
            .unwrap();
        drop(tx);
        let db = channel.finish();
        let row = db.row(0);
        assert_eq!((row.day, row.sensor, row.count), (123, 9, 1));
    }

    #[test]
    fn a_collector_panic_is_reraised_not_an_empty_database() {
        let (tx, _rx) = bounded(1);
        let channel = SensorChannel {
            tx: Some(tx),
            collector: Some(spawn_collector(|| panic!("collector died"))),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| channel.finish()));
        let payload = outcome.expect_err("finish must unwind when the collector panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"collector died"));
    }

    #[test]
    fn a_repeat_inside_the_window_is_a_duplicate() {
        let mut window = RetransmitWindow::new(RETRANSMIT_WINDOW);
        assert!(window.insert(key(4000, 7, 0)));
        // RETRANSMIT_WINDOW - 1 newer keys leave the first one inside.
        for id in 0..RETRANSMIT_WINDOW - 1 {
            assert!(window.insert(key(4001, id as u16, 0)));
        }
        assert!(!window.insert(key(4000, 7, 0)));
        assert_eq!(window.seen.len(), RETRANSMIT_WINDOW);
    }

    #[test]
    fn a_key_pushed_out_of_the_window_is_recorded_again() {
        let telemetry = Arc::new(Telemetry::wall());
        let channel = SensorChannel::spawn_with_stream(10, 3, telemetry.clone(), None);
        let tx = channel.sender().unwrap();
        tx.send(event(4000, 7, "a.com", SensorTransport::Udp))
            .unwrap();
        for id in 0..RETRANSMIT_WINDOW {
            tx.send(event(4001, id as u16, "a.com", SensorTransport::Udp))
                .unwrap();
        }
        // The same (peer, id, name) after the id space wrapped: a new query.
        tx.send(event(4000, 7, "a.com", SensorTransport::Udp))
            .unwrap();
        drop(tx);
        let db = channel.finish();
        assert_eq!(db.row_count(), RETRANSMIT_WINDOW + 2);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter_total("serve_sink_duplicates_total"), 0);
    }

    /// One client stamping sequential ids over a cycle of 16 names sends
    /// query `i` (id `i mod 65,536`) for each `i` in `order`. Returns the
    /// recorded rows and the duplicates counted.
    fn one_peer_run(order: impl IntoIterator<Item = usize>) -> (usize, u64) {
        let telemetry = Arc::new(Telemetry::wall());
        let channel = SensorChannel::spawn_with_stream(10, 3, telemetry.clone(), None);
        let tx = channel.sender().unwrap();
        for i in order {
            let name = format!("n{}.com", i % 16);
            tx.send(event(4000, i as u16, &name, SensorTransport::Udp))
                .unwrap();
        }
        drop(tx);
        let rows = channel.finish().row_count();
        let duplicates = telemetry
            .snapshot()
            .counter_total("serve_sink_duplicates_total");
        (rows, duplicates)
    }

    #[test]
    fn one_peer_retransmits_are_caught_until_its_ids_wrap() {
        // At 5,000 q/s a stub's third retry (after three 2 s timeouts)
        // follows its original by 30,000 queries: still a duplicate.
        assert_eq!(one_peer_run((0..30_000).chain([0])), (30_000, 1));
        // Query 65,536 carries id 0 and query 0's name again once the ids
        // wrap: a new query, recorded.
        assert_eq!(one_peer_run(0..=65_536), (65_537, 0));
    }

    #[test]
    fn lost_or_reordered_queries_do_not_turn_wrapped_ids_into_duplicates() {
        // The first id cycle loses every eighth query and arrives with
        // neighbours swapped; the second cycle reuses every id and name.
        let mut first: Vec<usize> = (0..65_536).filter(|i| i % 8 != 7).collect();
        first.chunks_mut(2).for_each(<[usize]>::reverse);
        let sent = first.len() + 65_536;
        assert_eq!(
            one_peer_run(first.into_iter().chain(65_536..131_072)),
            (sent, 0)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Against a model that keeps every admitted key: a key is a
        /// duplicate iff it is among the last `capacity` admitted, and the
        /// window never holds more than `capacity` keys.
        #[test]
        fn the_window_is_bounded_and_dedups_exactly_the_recent_keys(
            capacity in 1usize..6,
            keys in proptest::collection::vec(
                (0u16..3, 0u16..4, 0u32..2),
                1..80,
            ),
        ) {
            let mut window = RetransmitWindow::new(capacity);
            let mut admitted: Vec<DedupKey> = Vec::new();
            for (port, id, name) in keys {
                let k = key(4000 + port, id, name);
                let recent = &admitted[admitted.len().saturating_sub(capacity)..];
                let expect_new = !recent.contains(&k);
                prop_assert_eq!(window.insert(k), expect_new);
                if expect_new {
                    admitted.push(k);
                }
                prop_assert!(window.seen.len() <= capacity);
                prop_assert_eq!(window.seen.len(), window.order.len());
            }
        }
    }
}
