//! The SIE (Security Information Exchange) channel.
//!
//! Farsight distributes NXDomain observations over SIE channel 221 (paper
//! §4.1). Here the channel is a crossbeam MPSC pipe: any number of sensor
//! shards produce observation batches on worker threads; a single collector
//! drains the channel. Shards intern independently (no cross-thread locking
//! on the hot path) and are re-interned at merge time.
//!
//! Two collection modes:
//!
//! * [`collect_parallel`] — the original serial sink: every producer shard
//!   is merged into one [`PassiveDb`].
//! * [`collect_sharded`] — the scale path: producer shards are routed into
//!   a [`ShardedStore`]'s hash partitions instead of being collapsed into a
//!   single serial store, so the result is immediately queryable by the
//!   parallel executor.
//!
//! A worker panic surfaces as a typed [`SieError`] carrying the panic
//! payload, so a poisoned shard fails the pipeline with context instead of
//! aborting the process.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex};

use crossbeam::channel::{bounded, Sender};
use nxd_dns_wire::RCode;

use crate::shard::ShardedStore;
use crate::store::PassiveDb;
use crate::stream::{Admission, StreamEngine};

/// A batch of rows from one shard, carried with its shard-local interner via
/// a whole shard store.
pub struct ShardBatch(pub PassiveDb);

/// Failure of an SIE collection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SieError {
    /// A producer worker thread panicked; `detail` carries the panic
    /// payload (when it was a string) so the failing shard is identifiable.
    WorkerPanicked { detail: String },
    /// The bounded channel's consumer hung up while a producer still had
    /// data to submit — a shutdown/backpressure race, surfaced as an error
    /// instead of a producer-thread panic so streaming callers can drain
    /// gracefully.
    Disconnected,
}

impl fmt::Display for SieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SieError::WorkerPanicked { detail } => {
                write!(f, "SIE worker thread panicked: {detail}")
            }
            SieError::Disconnected => {
                write!(f, "SIE collector hung up with shards still in flight")
            }
        }
    }
}

impl std::error::Error for SieError {}

impl SieError {
    fn from_panic(payload: Box<dyn Any + Send>) -> Self {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        SieError::WorkerPanicked { detail }
    }
}

/// Handle used by producers to submit finished shards.
#[derive(Clone)]
pub struct SieProducer {
    tx: Sender<ShardBatch>,
    spent: Spent,
}

/// Batches the collector has folded in, handed back for a producer to
/// free: memory is then released on the thread that allocated it, and the
/// producer's next batches reuse it instead of growing that thread's
/// allocator arena while the collector's caches hold on to the pieces.
type Spent = Arc<Mutex<Vec<PassiveDb>>>;

fn lock_spent(spent: &Spent) -> std::sync::MutexGuard<'_, Vec<PassiveDb>> {
    spent.lock().unwrap_or_else(|e| e.into_inner())
}

impl SieProducer {
    /// Submits a shard. Blocks if the channel is full (backpressure).
    ///
    /// Panics if the collector hung up — batch producers treat a vanished
    /// sink as fatal.
    pub fn submit(&self, shard: PassiveDb) {
        // A closed channel means the collector is gone; losing data silently
        // would corrupt experiments, so fail loudly.
        self.try_submit(shard).expect("SIE collector hung up");
    }

    /// Submits a shard, blocking on a full channel (backpressure), and
    /// returns [`SieError::Disconnected`] if the collector is gone instead
    /// of panicking the worker thread.
    fn try_submit(&self, shard: PassiveDb) -> Result<(), SieError> {
        // Free what the collector handed back, outside the lock.
        let spent = std::mem::take(&mut *lock_spent(&self.spent));
        drop(spent);
        self.tx
            .send(ShardBatch(shard))
            .map_err(|_| SieError::Disconnected)
    }
}

/// Runs `producers` closures on worker threads, each building shard stores
/// and submitting them; drains the channel through `sink`.
fn collect_with<F, T>(
    producers: Vec<F>,
    capacity: usize,
    sink: impl FnOnce(crossbeam::channel::Receiver<ShardBatch>, &Spent) -> T,
) -> Result<T, SieError>
where
    F: FnOnce(SieProducer) + Send + 'static,
{
    let (tx, rx) = bounded::<ShardBatch>(capacity.max(1));
    let spent = Spent::default();
    crossbeam::thread::scope(|scope| {
        for p in producers {
            let producer = SieProducer {
                tx: tx.clone(),
                spent: Arc::clone(&spent),
            };
            scope.spawn(move |_| p(producer));
        }
        drop(tx);
        sink(rx, &spent)
    })
    .map_err(SieError::from_panic)
}

/// Runs `producers` closures on worker threads, each building shard stores
/// and submitting them; returns the merged serial database.
///
/// `capacity` bounds in-flight shards to apply backpressure. A worker panic
/// discards the partial result and returns [`SieError::WorkerPanicked`].
pub fn collect_parallel<F>(producers: Vec<F>, capacity: usize) -> Result<PassiveDb, SieError>
where
    F: FnOnce(SieProducer) + Send + 'static,
{
    collect_with(producers, capacity, |rx, spent| {
        let mut db = PassiveDb::new();
        for ShardBatch(shard) in rx {
            db.merge(&shard);
            lock_spent(spent).push(shard);
        }
        db
    })
}

/// Like [`collect_parallel`], but routes every producer shard into a
/// [`ShardedStore`] with `shards` hash partitions instead of collapsing
/// them into one serial store — the ingest half of the sharded scale
/// engine.
pub fn collect_sharded<F>(
    producers: Vec<F>,
    capacity: usize,
    shards: usize,
) -> Result<ShardedStore, SieError>
where
    F: FnOnce(SieProducer) + Send + 'static,
{
    collect_with(producers, capacity, |rx, spent| {
        let mut store = ShardedStore::new(shards);
        for ShardBatch(shard) in rx {
            store.merge_db(&shard);
            lock_spent(spent).push(shard);
        }
        store
    })
}

/// Result of a streaming collection: the admitted rows, sealed into the
/// sharded scale store exactly as [`collect_sharded`] would have, plus a
/// side store holding every watermark-late row (so `admitted + late` is
/// the full offered stream — nothing is dropped).
#[derive(Debug)]
pub struct StreamOutcome {
    /// Rows the watermark admitted, immediately queryable.
    pub store: ShardedStore,
    /// Rows beyond the watermark, preserved verbatim for replay/audit.
    pub late: PassiveDb,
}

/// The streaming collection mode: like [`collect_sharded`], but every batch
/// is folded through `engine` *as it arrives*, so the exact incremental
/// aggregates and the approximate sketches are queryable mid-run — and the
/// `stream_queue_depth` gauge tracks the bounded channel's occupancy.
/// Watermark-late rows are routed to [`StreamOutcome::late`] instead of the
/// main store, which keeps the engine's snapshot bit-identical to the batch
/// query engine over [`StreamOutcome::store`].
pub fn collect_stream<F>(
    producers: Vec<F>,
    capacity: usize,
    shards: usize,
    engine: &StreamEngine,
) -> Result<StreamOutcome, SieError>
where
    F: FnOnce(SieProducer) + Send + 'static,
{
    let engine = engine.clone();
    collect_with(producers, capacity, move |rx, spent| {
        let mut store = ShardedStore::new(shards);
        let mut late = PassiveDb::new();
        for ShardBatch(shard) in rx.iter() {
            engine.set_queue_depth(rx.len());
            let admissions = engine.offer_db_admissions(&shard);
            if admissions.iter().all(|&a| a == Admission::Admitted) {
                // Fast path: the whole batch was admitted, merge wholesale.
                store.merge_db(&shard);
                lock_spent(spent).push(shard);
                continue;
            }
            for (obs, admission) in shard.rows().zip(&admissions) {
                let name = shard.interner().resolve(obs.name);
                let rcode = RCode::from_u8(obs.rcode);
                match admission {
                    Admission::Admitted => {
                        store.record_str(name, obs.day, obs.sensor, rcode, obs.count);
                    }
                    Admission::Late => {
                        late.record_str(name, obs.day, obs.sensor, rcode, obs.count);
                    }
                }
            }
            lock_spent(spent).push(shard);
        }
        engine.set_queue_depth(0);
        StreamOutcome { store, late }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_wire::RCode;

    #[test]
    fn single_producer_collects() {
        let db = collect_parallel(
            vec![|p: SieProducer| {
                let mut shard = PassiveDb::new();
                shard.record_str("a.com", 1, 0, RCode::NxDomain, 2);
                p.submit(shard);
            }],
            4,
        )
        .expect("no worker panicked");
        assert_eq!(db.row_count(), 1);
        assert_eq!(db.aggregate_of("a.com").unwrap().nx_queries, 2);
    }

    #[test]
    fn many_producers_merge_counts() {
        let producers: Vec<Box<dyn FnOnce(SieProducer) + Send>> = (0..8)
            .map(|shard_id: u16| {
                Box::new(move |p: SieProducer| {
                    let mut shard = PassiveDb::new();
                    // Every shard sees the same name plus one unique name.
                    shard.record_str("shared.com", 10, shard_id, RCode::NxDomain, 1);
                    shard.record_str(
                        &format!("only-{shard_id}.com"),
                        10,
                        shard_id,
                        RCode::NxDomain,
                        1,
                    );
                    p.submit(shard);
                }) as Box<dyn FnOnce(SieProducer) + Send>
            })
            .collect();
        let db = collect_parallel(producers, 2).expect("no worker panicked");
        assert_eq!(db.aggregate_of("shared.com").unwrap().nx_queries, 8);
        assert_eq!(db.distinct_names(), 9);
        assert_eq!(db.row_count(), 16);
    }

    #[test]
    fn producer_can_submit_multiple_shards() {
        let db = collect_parallel(
            vec![|p: SieProducer| {
                for day in 0..3u32 {
                    let mut shard = PassiveDb::new();
                    shard.record_str("multi.com", day, 0, RCode::NxDomain, 1);
                    p.submit(shard);
                }
            }],
            1,
        )
        .expect("no worker panicked");
        assert_eq!(db.aggregate_of("multi.com").unwrap().nx_queries, 3);
    }

    #[test]
    fn worker_panic_is_a_typed_error_with_context() {
        let result = collect_parallel(
            vec![|_p: SieProducer| {
                panic!("sensor 7 fed us garbage");
            }],
            4,
        );
        match result {
            Err(SieError::WorkerPanicked { detail }) => {
                assert!(detail.contains("sensor 7"), "lost context: {detail}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn one_poisoned_shard_fails_the_whole_collection() {
        let producers: Vec<Box<dyn FnOnce(SieProducer) + Send>> = vec![
            Box::new(|p: SieProducer| {
                let mut shard = PassiveDb::new();
                shard.record_str("fine.com", 1, 0, RCode::NxDomain, 1);
                p.submit(shard);
            }),
            Box::new(|_p: SieProducer| panic!("poisoned shard")),
        ];
        assert!(collect_parallel(producers, 4).is_err());
    }

    #[test]
    fn collect_sharded_keeps_shard_stores_alive() {
        let producers: Vec<Box<dyn FnOnce(SieProducer) + Send>> = (0..4)
            .map(|shard_id: u16| {
                Box::new(move |p: SieProducer| {
                    let mut shard = PassiveDb::new();
                    shard.record_str("shared.com", 10, shard_id, RCode::NxDomain, 1);
                    shard.record_str(
                        &format!("only-{shard_id}.com"),
                        10 + shard_id as u32,
                        shard_id,
                        RCode::NxDomain,
                        2,
                    );
                    p.submit(shard);
                }) as Box<dyn FnOnce(SieProducer) + Send>
            })
            .collect();
        let store = collect_sharded(producers, 2, 4).expect("no worker panicked");
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.row_count(), 8);
        // shared.com's four rows all landed in its single home shard.
        assert_eq!(store.aggregate_of("shared.com").unwrap().nx_queries, 4);
        assert_eq!(store.total_nx_responses(), 12);
        assert_eq!(store.distinct_nx_names(), 5);
    }

    #[test]
    fn collect_sharded_propagates_panics() {
        let result = collect_sharded(vec![|_p: SieProducer| panic!("boom")], 1, 4);
        assert_eq!(
            result.err(),
            Some(SieError::WorkerPanicked {
                detail: "boom".to_string()
            })
        );
    }

    #[test]
    fn try_submit_surfaces_disconnect_instead_of_panicking() {
        // Regression: a vanished collector used to panic the producer
        // thread from inside `submit`; the streaming path needs the typed
        // error so a mid-run shutdown can drain gracefully.
        let (tx, rx) = bounded::<ShardBatch>(1);
        let producer = SieProducer {
            tx,
            spent: Spent::default(),
        };
        drop(rx);
        let mut shard = PassiveDb::new();
        shard.record_str("orphan.com", 1, 0, RCode::NxDomain, 1);
        assert_eq!(
            producer.try_submit(shard).err(),
            Some(SieError::Disconnected)
        );
        assert_eq!(
            SieError::Disconnected.to_string(),
            "SIE collector hung up with shards still in flight"
        );
    }

    #[test]
    fn collect_stream_matches_collect_sharded_when_nothing_is_late() {
        use crate::stream::{StreamConfig, StreamEngine};

        fn producers() -> Vec<Box<dyn FnOnce(SieProducer) + Send>> {
            (0..4)
                .map(|shard_id: u16| {
                    Box::new(move |p: SieProducer| {
                        let mut shard = PassiveDb::new();
                        shard.record_str("shared.com", 10, shard_id, RCode::NxDomain, 1);
                        shard.record_str(
                            &format!("only-{shard_id}.com"),
                            u32::from(10 + shard_id),
                            shard_id,
                            RCode::NxDomain,
                            2,
                        );
                        p.submit(shard);
                    }) as Box<dyn FnOnce(SieProducer) + Send>
                })
                .collect()
        }

        let engine = StreamEngine::new(StreamConfig::default());
        let outcome = collect_stream(producers(), 2, 4, &engine).expect("no worker panicked");
        let batch = collect_sharded(producers(), 2, 4).expect("no worker panicked");

        // Default lateness (7 days) over a 4-day span: nothing is late,
        // and the streamed store is exactly the batch store.
        assert_eq!(outcome.late.row_count(), 0);
        assert_eq!(outcome.store.row_count(), batch.row_count());
        assert_eq!(
            outcome.store.total_nx_responses(),
            batch.total_nx_responses()
        );
        assert_eq!(outcome.store.rcode_breakdown(), batch.rcode_breakdown());

        // The engine saw the same rows the store sealed.
        let snap = engine.snapshot();
        assert_eq!(snap.admitted_rows, 8);
        assert_eq!(snap.late.rows, 0);
        assert_eq!(snap.total_nx_responses, outcome.store.total_nx_responses());
        assert_eq!(snap.distinct_nx_names, outcome.store.distinct_nx_names());
    }

    #[test]
    fn collect_stream_routes_late_rows_to_the_side_store() {
        use crate::stream::{StreamConfig, StreamEngine, WindowConfig};

        let engine = StreamEngine::new(StreamConfig {
            window: WindowConfig {
                window_days: 10,
                allowed_lateness_days: 0,
            },
            ..Default::default()
        });
        // One producer so batch arrival order is the submit order.
        let outcome = collect_stream(
            vec![|p: SieProducer| {
                let mut fresh = PassiveDb::new();
                fresh.record_str("fresh.com", 100, 0, RCode::NxDomain, 2);
                p.submit(fresh);
                let mut mixed = PassiveDb::new();
                mixed.record_str("straggler.com", 5, 1, RCode::NxDomain, 3);
                mixed.record_str("fresh2.com", 101, 0, RCode::NxDomain, 1);
                p.submit(mixed);
            }],
            2,
            2,
            &engine,
        )
        .expect("no worker panicked");

        assert_eq!(outcome.store.row_count(), 2);
        assert_eq!(outcome.late.row_count(), 1);
        assert_eq!(
            outcome
                .late
                .aggregate_of("straggler.com")
                .unwrap()
                .nx_queries,
            3
        );
        let snap = engine.snapshot();
        assert_eq!(snap.admitted_rows, 2);
        assert_eq!(snap.late.rows, 1);
        assert_eq!(snap.late.nx_responses, 3);
        // Parity holds over the *admitted* store.
        assert_eq!(snap.total_nx_responses, outcome.store.total_nx_responses());
    }
}
