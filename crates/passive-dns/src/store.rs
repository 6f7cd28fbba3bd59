//! The columnar passive-DNS store.
//!
//! Rows are pre-aggregated observations: `(name, day, sensor, rcode, count)`.
//! Ingest appends into uncompressed tail columns (struct-of-arrays); every
//! `BLOCK_ROWS` (65,536) rows the tail seals into a compressed,
//! immutable block with per-block zone maps and
//! exact pre-aggregated summaries — the same reason the paper mirrors
//! Farsight into BigQuery, plus the columnar-compression trick BigQuery
//! applies under the hood. A per-name aggregate index is maintained on
//! ingest for O(1) lifespan lookups, and [`PassiveDb::summary`] memoizes
//! the store's §4 [`ScaleSummary`] until the next append.
//!
//! [`PassiveDb::uncompressed`] builds a store that never seals — the
//! legacy flat layout, kept as the bit-identical reference the property
//! tests and benchmarks compare the compressed engine against.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::ops::Range;
use std::sync::OnceLock;

use nxd_dns_wire::{Name, RCode};
use nxd_telemetry::{Counter, Gauge, Histogram, Journal, Registry, Stopwatch};

use crate::block::{Block, BlockScratch, BLOCK_ROWS};
use crate::intern::{Interner, NameId};
use crate::summary::ScaleSummary;

/// How often ingest emits a journal heartbeat: every this-many appended
/// rows (power of two so the check is a mask).
const INGEST_HEARTBEAT_ROWS: u64 = 65_536;

/// Logical bytes per row in the uncompressed layout
/// (`u32 + u32 + u16 + u8 + u32`).
pub(crate) const ROW_BYTES: usize = 4 + 4 + 2 + 1 + 4;

/// Borrowed column slices `(name, day, sensor, rcode, count)`, one row per index.
pub(crate) type RawColumns<'a> = (&'a [NameId], &'a [u32], &'a [u16], &'a [u8], &'a [u32]);

/// One pre-aggregated observation row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    pub name: NameId,
    /// Days since the Unix epoch.
    pub day: u32,
    pub sensor: u16,
    /// Wire rcode value ([`RCode::to_u8`]).
    pub rcode: u8,
    pub count: u32,
}

/// Per-name aggregate maintained during ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameAggregate {
    /// First day the name was observed with an NXDOMAIN response.
    pub first_nx_day: u32,
    /// Last day the name was observed with an NXDOMAIN response.
    pub last_nx_day: u32,
    /// Total NXDOMAIN responses observed.
    pub nx_queries: u64,
    /// Total responses of any rcode observed.
    pub total_queries: u64,
}

/// Block-skip predicate for [`PassiveDb::for_each_block`]: a scan whose
/// per-row predicate implies this filter may skip any sealed block whose
/// zone maps cannot match. The uncompressed tail is always visited — the
/// filter is a skip *hint*, never a correctness dependency.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanFilter {
    pub day_min: u32,
    pub day_max: u32,
    /// Only rows with this rcode matter to the caller.
    pub rcode: Option<u8>,
}

impl ScanFilter {
    /// No skipping: every block is visited.
    pub fn all() -> Self {
        ScanFilter {
            day_min: 0,
            day_max: u32::MAX,
            rcode: None,
        }
    }

    /// Only rows carrying `rcode` matter.
    pub fn rcode(rcode: u8) -> Self {
        ScanFilter {
            rcode: Some(rcode),
            ..Self::all()
        }
    }

    /// Only rows with `day_min <= day <= day_max` matter.
    pub fn day_range(day_min: u32, day_max: u32) -> Self {
        ScanFilter {
            day_min,
            day_max,
            rcode: None,
        }
    }

    fn admits(&self, summary: &crate::block::BlockSummary) -> bool {
        if summary.max_day < self.day_min || summary.min_day > self.day_max {
            return false;
        }
        match self.rcode {
            Some(rc) => summary.has_rcode(rc),
            None => true,
        }
    }
}

/// Ingest and query-engine telemetry for one [`PassiveDb`]. Detached cells
/// by default; [`PassiveDb::attach_metrics`] re-homes them onto a shared
/// registry as `passive_*` metrics.
#[derive(Debug, Default, Clone)]
struct StoreMetrics {
    rows_ingested: Counter,
    nx_rows: Counter,
    queries: Counter,
    query_latency_us: Histogram,
    intern_names: Gauge,
    intern_tlds: Gauge,
    /// Logical row bytes (uncompressed layout) — `passive_dns_store_bytes`.
    store_bytes: Gauge,
    /// Resident row bytes after block compression —
    /// `passive_dns_compressed_bytes`.
    compressed_bytes: Gauge,
}

impl StoreMetrics {
    fn registered(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        StoreMetrics {
            rows_ingested: registry.counter_with("passive_rows_ingested_total", labels),
            nx_rows: registry.counter_with("passive_nx_rows_total", labels),
            queries: registry.counter_with("passive_queries_total", labels),
            query_latency_us: registry.histogram_with("passive_query_latency_us", labels),
            intern_names: registry.gauge_with("passive_intern_names", labels),
            intern_tlds: registry.gauge_with("passive_intern_tlds", labels),
            store_bytes: registry.gauge_with("passive_dns_store_bytes", labels),
            compressed_bytes: registry.gauge_with("passive_dns_compressed_bytes", labels),
        }
    }
}

/// The passive-DNS database (Farsight substitute).
#[derive(Debug)]
pub struct PassiveDb {
    interner: Interner,
    /// Sealed compressed blocks, each exactly `block_rows` rows.
    sealed: Vec<Block>,
    sealed_rows: usize,
    sealed_bytes: usize,
    /// Tail size that triggers a seal; `usize::MAX` = never (uncompressed).
    block_rows: usize,
    // Struct-of-arrays tail storage (rows not yet sealed).
    col_name: Vec<NameId>,
    col_day: Vec<u32>,
    col_sensor: Vec<u16>,
    col_rcode: Vec<u8>,
    col_count: Vec<u32>,
    /// Per-name aggregates indexed by [`NameId`]: interner ids are dense,
    /// so slot `i` belongs to id `i`. A slot stays `None` until the name's
    /// first row, since a name may be interned before it is appended.
    per_name: Vec<Option<NameAggregate>>,
    /// [`PassiveDb::summary`]'s memo; [`PassiveDb::append`], the only row
    /// mutation, clears it.
    summary: OnceLock<ScaleSummary>,
    metrics: StoreMetrics,
    /// Optional flight recorder ([`PassiveDb::attach_journal`]); ingest
    /// heartbeats every [`INGEST_HEARTBEAT_ROWS`] rows land here.
    journal: Option<Journal>,
}

impl Default for PassiveDb {
    fn default() -> Self {
        Self::new()
    }
}

impl PassiveDb {
    /// A compressed store: seals a block every `BLOCK_ROWS` (65,536) rows.
    pub fn new() -> Self {
        Self::with_block_rows(BLOCK_ROWS)
    }

    /// The legacy flat layout: rows stay in uncompressed columns forever.
    /// This is the reference engine for the compressed-vs-uncompressed
    /// property tests and the serial baseline in the big-world benchmark.
    pub fn uncompressed() -> Self {
        Self::with_block_rows(usize::MAX)
    }

    /// A compressed store sealing every `block_rows` rows (clamped to at
    /// least 1). Small values force many blocks on tiny inputs — the knob
    /// the property tests use to exercise the sealed path.
    pub fn with_block_rows(block_rows: usize) -> Self {
        PassiveDb {
            interner: Interner::default(),
            sealed: Vec::new(),
            sealed_rows: 0,
            sealed_bytes: 0,
            block_rows: block_rows.max(1),
            col_name: Vec::new(),
            col_day: Vec::new(),
            col_sensor: Vec::new(),
            col_rcode: Vec::new(),
            col_count: Vec::new(),
            per_name: Vec::new(),
            summary: OnceLock::new(),
            metrics: StoreMetrics::default(),
            journal: None,
        }
    }

    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Re-homes this store's telemetry onto `registry` (as
    /// `passive_rows_ingested_total`, `passive_nx_rows_total`,
    /// `passive_queries_total`, `passive_query_latency_us`,
    /// `passive_intern_names`, `passive_intern_tlds`,
    /// `passive_dns_store_bytes`, `passive_dns_compressed_bytes`), carrying
    /// counter and gauge values over. Latency samples recorded before
    /// attaching stay in the detached histogram, so attach before running
    /// queries.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.attach_metrics_labeled(registry, &[]);
    }

    /// [`PassiveDb::attach_metrics`] with a label set on every series —
    /// how a [`crate::ShardedStore`](crate::shard::ShardedStore) gives each
    /// shard its own `passive_*{shard="i"}` cells. Per-shard series roll up
    /// through the snapshot algebra: [`nxd_telemetry::Snapshot::counter_total`]
    /// sums across label sets and
    /// [`nxd_telemetry::Snapshot::histogram_total`] merges them.
    #[expect(
        clippy::cast_possible_wrap,
        reason = "gauges are i64; in-memory sizes and counts stay far below i64::MAX"
    )]
    pub fn attach_metrics_labeled(&mut self, registry: &Registry, labels: &[(&str, &str)]) {
        let next = StoreMetrics::registered(registry, labels);
        next.rows_ingested.add(self.metrics.rows_ingested.get());
        next.nx_rows.add(self.metrics.nx_rows.get());
        next.queries.add(self.metrics.queries.get());
        next.intern_names.set(self.interner.len() as i64);
        next.intern_tlds.set(self.interner.tld_count() as i64);
        next.store_bytes.set(self.row_bytes() as i64);
        next.compressed_bytes.set(self.compressed_bytes() as i64);
        self.metrics = next;
    }

    /// Attaches a flight recorder: every `INGEST_HEARTBEAT_ROWS` appended
    /// rows emit one `store`-component heartbeat event (rows so far,
    /// distinct names), and every sealed block emits a `store` event with
    /// its compression ratio, so a live observer sees ingest advance long
    /// before the batch completes.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// Times one query-engine call: records latency (µs) and bumps the
    /// query counter when the returned guard drops.
    pub(crate) fn time_query(&self) -> QueryTimer<'_> {
        QueryTimer {
            metrics: &self.metrics,
            watch: Stopwatch::start(),
        }
    }

    /// Number of rows (pre-aggregated observations).
    pub fn row_count(&self) -> usize {
        self.sealed_rows + self.col_name.len()
    }

    /// Number of distinct names ever observed.
    pub fn distinct_names(&self) -> usize {
        self.interner.len()
    }

    /// Interns a name and appends an observation in one step.
    pub fn record(
        &mut self,
        name: &Name,
        day: u32,
        sensor: u16,
        rcode: RCode,
        count: u32,
    ) -> NameId {
        let id = self.interner.intern(name);
        self.append(Observation {
            name: id,
            day,
            sensor,
            rcode: rcode.to_u8(),
            count,
        });
        id
    }

    /// Interns a pre-normalized name string and appends an observation.
    pub fn record_str(
        &mut self,
        name: &str,
        day: u32,
        sensor: u16,
        rcode: RCode,
        count: u32,
    ) -> NameId {
        let id = self.interner.intern_str(name);
        self.append(Observation {
            name: id,
            day,
            sensor,
            rcode: rcode.to_u8(),
            count,
        });
        id
    }

    /// Appends a row whose name id was produced by this store's interner.
    #[expect(
        clippy::cast_possible_wrap,
        reason = "gauges are i64; in-memory sizes and counts stay far below i64::MAX"
    )]
    pub fn append(&mut self, obs: Observation) {
        debug_assert!(
            (obs.name.0 as usize) < self.interner.len(),
            "foreign NameId"
        );
        self.col_name.push(obs.name);
        self.col_day.push(obs.day);
        self.col_sensor.push(obs.sensor);
        self.col_rcode.push(obs.rcode);
        self.col_count.push(obs.count);
        if self.summary.get().is_some() {
            self.summary = OnceLock::new();
        }
        self.metrics.rows_ingested.inc();
        if obs.rcode == RCode::NxDomain.to_u8() {
            self.metrics.nx_rows.inc();
        }
        if let Some(journal) = &self.journal {
            let rows = self.metrics.rows_ingested.get();
            if rows.is_multiple_of(INGEST_HEARTBEAT_ROWS) {
                journal.info(
                    "store",
                    "ingest heartbeat",
                    &[
                        ("rows", &rows.to_string()),
                        ("names", &self.interner.len().to_string()),
                    ],
                );
            }
        }
        self.metrics.intern_names.set(self.interner.len() as i64);
        self.metrics
            .intern_tlds
            .set(self.interner.tld_count() as i64);

        let slot = obs.name.0 as usize;
        if slot >= self.per_name.len() {
            self.per_name.resize(slot + 1, None);
        }
        let agg = self.per_name[slot].get_or_insert(NameAggregate {
            first_nx_day: u32::MAX,
            last_nx_day: 0,
            nx_queries: 0,
            total_queries: 0,
        });
        agg.total_queries += obs.count as u64;
        if obs.rcode == RCode::NxDomain.to_u8() {
            agg.nx_queries += obs.count as u64;
            agg.first_nx_day = agg.first_nx_day.min(obs.day);
            agg.last_nx_day = agg.last_nx_day.max(obs.day);
        }

        if self.col_name.len() >= self.block_rows {
            self.seal_tail();
        }
        self.metrics.store_bytes.set(self.row_bytes() as i64);
        self.metrics
            .compressed_bytes
            .set(self.compressed_bytes() as i64);
    }

    /// Seals the current tail into a compressed block.
    fn seal_tail(&mut self) {
        let block = Block::seal(
            (
                &self.col_name,
                &self.col_day,
                &self.col_sensor,
                &self.col_rcode,
                &self.col_count,
            ),
            RCode::NxDomain.to_u8(),
            &self.interner,
        );
        debug_assert_eq!(block.summary().rows, block.rows());
        self.sealed_rows += block.rows();
        self.sealed_bytes += block.encoded_bytes();
        if let Some(journal) = &self.journal {
            journal.info(
                "store",
                "block sealed",
                &[
                    ("block", &self.sealed.len().to_string()),
                    ("rows", &block.rows().to_string()),
                    ("nx_rows", &block.summary().nx_rows.to_string()),
                    ("encoded_bytes", &block.encoded_bytes().to_string()),
                    ("raw_bytes", &(block.rows() * ROW_BYTES).to_string()),
                ],
            );
        }
        self.sealed.push(block);
        self.col_name.clear();
        self.col_day.clear();
        self.col_sensor.clear();
        self.col_rcode.clear();
        self.col_count.clear();
    }

    /// The aggregate for a name id, if it has any rows.
    pub fn aggregate(&self, id: NameId) -> Option<&NameAggregate> {
        self.per_name.get(id.0 as usize)?.as_ref()
    }

    /// The aggregate for a name string.
    pub fn aggregate_of(&self, name: &str) -> Option<&NameAggregate> {
        self.interner.get(name).and_then(|id| self.aggregate(id))
    }

    /// Iterates rows as [`Observation`]s in append order (sealed blocks
    /// first — which *is* append order — then the tail).
    pub fn rows(&self) -> impl Iterator<Item = Observation> + '_ {
        self.sealed
            .iter()
            .flat_map(|b| {
                let mut scratch = BlockScratch::default();
                b.decode_into(&mut scratch);
                (0..b.rows())
                    .map(|i| Observation {
                        name: scratch.names[i],
                        day: scratch.days[i],
                        sensor: scratch.sensors[i],
                        rcode: scratch.rcodes[i],
                        count: scratch.counts[i],
                    })
                    .collect::<Vec<_>>()
            })
            .chain((0..self.col_name.len()).map(move |i| self.tail_row(i)))
    }

    fn tail_row(&self, i: usize) -> Observation {
        Observation {
            name: self.col_name[i],
            day: self.col_day[i],
            sensor: self.col_sensor[i],
            rcode: self.col_rcode[i],
            count: self.col_count[i],
        }
    }

    /// Fetches row `i`. Random access into a sealed block decodes that
    /// block (used by the traffic generators' spot checks; scans should
    /// use [`PassiveDb::rows`] or the query engine instead).
    ///
    /// # Panics
    /// Panics if `i >= row_count()`.
    pub fn row(&self, i: usize) -> Observation {
        if i < self.sealed_rows {
            // Every sealed block holds exactly `block_rows` rows.
            let block = &self.sealed[i / self.block_rows];
            let off = i % self.block_rows;
            let mut scratch = BlockScratch::default();
            block.decode_into(&mut scratch);
            Observation {
                name: scratch.names[off],
                day: scratch.days[off],
                sensor: scratch.sensors[off],
                rcode: scratch.rcodes[off],
                count: scratch.counts[off],
            }
        } else {
            self.tail_row(i - self.sealed_rows)
        }
    }

    /// The sealed compressed blocks, in append order.
    pub(crate) fn sealed_blocks(&self) -> &[Block] {
        &self.sealed
    }

    /// Raw column slices for the (uncompressed) tail.
    pub(crate) fn tail_columns(&self) -> RawColumns<'_> {
        (
            &self.col_name,
            &self.col_day,
            &self.col_sensor,
            &self.col_rcode,
            &self.col_count,
        )
    }

    /// Runs `f` over the column slices of every chunk of the store — each
    /// sealed block (decoded into a reused scratch) and then the tail —
    /// skipping sealed blocks whose zone maps cannot satisfy `filter`.
    /// Chunks arrive in append order, so a scan over them visits rows in
    /// exactly the order the flat layout would.
    pub(crate) fn for_each_block<F: FnMut(RawColumns<'_>)>(&self, filter: &ScanFilter, mut f: F) {
        let mut scratch = BlockScratch::default();
        for block in &self.sealed {
            if !filter.admits(block.summary()) {
                continue;
            }
            block.decode_into(&mut scratch);
            f((
                &scratch.names,
                &scratch.days,
                &scratch.sensors,
                &scratch.rcodes,
                &scratch.counts,
            ));
        }
        if !self.col_name.is_empty() {
            f(self.tail_columns());
        }
    }

    /// The §4 [`ScaleSummary`] of every row, built by [`ScaleSummary::of`]
    /// on first use and memoized until the next append.
    pub fn summary(&self) -> &ScaleSummary {
        let _t = self.time_query();
        self.summary.get_or_init(|| ScaleSummary::of(self))
    }

    /// Iterates `(id, aggregate)` for every name with at least one NXDOMAIN
    /// observation, in id order.
    pub fn nx_names(&self) -> impl Iterator<Item = (NameId, &NameAggregate)> {
        self.nx_names_in(0..self.per_name.len())
    }

    /// [`PassiveDb::nx_names`] restricted to the ids in `ids` (clamped to
    /// the ids issued so far), so a scan can split the name space into
    /// contiguous ranges and visit each name exactly once.
    pub fn nx_names_in(&self, ids: Range<usize>) -> impl Iterator<Item = (NameId, &NameAggregate)> {
        let end = ids.end.min(self.per_name.len());
        let start = ids.start.min(end);
        let first = u32::try_from(start).expect("every slot is indexed by a u32 NameId");
        (first..)
            .zip(&self.per_name[start..end])
            .filter_map(|(id, slot)| match slot {
                Some(a) if a.nx_queries > 0 => Some((NameId(id), a)),
                _ => None,
            })
    }

    /// Merges another store built against the *same logical name space*
    /// (used by the parallel SIE ingest: shards intern independently, merge
    /// re-interns by string).
    pub fn merge(&mut self, other: &PassiveDb) {
        for obs in other.rows() {
            let name = other.interner.resolve(obs.name);
            let id = self.interner.intern_str(name);
            self.append(Observation { name: id, ..obs });
        }
    }

    /// Logical bytes of row storage in the uncompressed layout — the
    /// "before" side of the compression ratio.
    pub fn row_bytes(&self) -> usize {
        self.row_count() * ROW_BYTES
    }

    /// Resident bytes of row storage: encoded sealed blocks plus the
    /// uncompressed tail — the "after" side of the compression ratio.
    pub fn compressed_bytes(&self) -> usize {
        self.sealed_bytes + self.col_name.len() * ROW_BYTES
    }
}

/// Drop guard for [`PassiveDb::time_query`].
pub(crate) struct QueryTimer<'a> {
    metrics: &'a StoreMetrics,
    watch: Stopwatch,
}

impl Drop for QueryTimer<'_> {
    fn drop(&mut self) {
        self.metrics.queries.inc();
        self.metrics
            .query_latency_us
            .record(self.watch.elapsed_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn record_and_aggregate() {
        let mut db = PassiveDb::new();
        db.record(&n("dead.com"), 100, 0, RCode::NxDomain, 3);
        db.record(&n("dead.com"), 105, 1, RCode::NxDomain, 2);
        db.record(&n("dead.com"), 90, 0, RCode::NoError, 7);
        let agg = db.aggregate_of("dead.com").unwrap();
        assert_eq!(agg.first_nx_day, 100);
        assert_eq!(agg.last_nx_day, 105);
        assert_eq!(agg.nx_queries, 5);
        assert_eq!(agg.total_queries, 12);
        assert_eq!(db.row_count(), 3);
        assert_eq!(db.distinct_names(), 1);
    }

    #[test]
    fn nx_names_filters_noerror_only() {
        let mut db = PassiveDb::new();
        db.record(&n("alive.com"), 10, 0, RCode::NoError, 4);
        db.record(&n("dead.com"), 10, 0, RCode::NxDomain, 1);
        let nx: Vec<_> = db.nx_names().collect();
        assert_eq!(nx.len(), 1);
        assert_eq!(db.interner().resolve(nx[0].0), "dead.com");
    }

    #[test]
    fn rows_roundtrip() {
        let mut db = PassiveDb::new();
        db.record_str("a.com", 1, 2, RCode::NxDomain, 9);
        let rows: Vec<_> = db.rows().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].day, 1);
        assert_eq!(rows[0].sensor, 2);
        assert_eq!(rows[0].count, 9);
    }

    #[test]
    fn sealed_blocks_preserve_rows_and_random_access() {
        let mut compressed = PassiveDb::with_block_rows(8);
        let mut flat = PassiveDb::uncompressed();
        for i in 0..37u32 {
            let name = format!("n{}.com", i % 11);
            let rc = if i % 3 == 0 {
                RCode::NxDomain
            } else {
                RCode::NoError
            };
            let sensor = u16::try_from(i % 4).unwrap();
            compressed.record_str(&name, 100 + i, sensor, rc, i + 1);
            flat.record_str(&name, 100 + i, sensor, rc, i + 1);
        }
        assert_eq!(compressed.sealed_blocks().len(), 4);
        assert_eq!(compressed.row_count(), flat.row_count());
        let a: Vec<_> = compressed.rows().collect();
        let b: Vec<_> = flat.rows().collect();
        assert_eq!(a, b);
        for i in [0usize, 7, 8, 15, 31, 32, 36] {
            assert_eq!(compressed.row(i), flat.row(i), "row {i}");
        }
        assert_eq!(compressed.row_bytes(), flat.row_bytes());
        assert_eq!(flat.compressed_bytes(), flat.row_bytes());
        assert!(compressed.compressed_bytes() > 0);
    }

    #[test]
    fn scan_filter_skips_blocks_outside_zone_maps() {
        let mut db = PassiveDb::with_block_rows(4);
        for i in 0..8u32 {
            // First block: days 100..104, all NoError. Second: 200..204, NX.
            let (day, rc) = if i < 4 {
                (100 + i, RCode::NoError)
            } else {
                (200 + i, RCode::NxDomain)
            };
            db.record_str(&format!("n{i}.com"), day, 0, rc, 1);
        }
        let mut chunks = 0;
        db.for_each_block(&ScanFilter::all(), |_| chunks += 1);
        assert_eq!(chunks, 2);
        let mut nx_chunks = 0;
        db.for_each_block(&ScanFilter::rcode(RCode::NxDomain.to_u8()), |cols| {
            nx_chunks += 1;
            assert!(cols.3.iter().all(|&rc| rc == RCode::NxDomain.to_u8()));
        });
        assert_eq!(nx_chunks, 1);
        let mut day_chunks = 0;
        db.for_each_block(&ScanFilter::day_range(0, 150), |_| day_chunks += 1);
        assert_eq!(day_chunks, 1);
    }

    #[test]
    fn merge_reinterns() {
        let mut a = PassiveDb::new();
        a.record_str("x.com", 1, 0, RCode::NxDomain, 1);
        let mut b = PassiveDb::with_block_rows(2);
        b.record_str("y.com", 2, 1, RCode::NxDomain, 2);
        b.record_str("x.com", 3, 1, RCode::NxDomain, 4);
        b.record_str("z.com", 4, 1, RCode::NoError, 8);
        a.merge(&b);
        assert_eq!(a.distinct_names(), 3);
        assert_eq!(a.aggregate_of("x.com").unwrap().nx_queries, 5);
        assert_eq!(a.aggregate_of("y.com").unwrap().nx_queries, 2);
        assert_eq!(a.aggregate_of("z.com").unwrap().total_queries, 8);
    }

    #[test]
    fn summary_memo_is_cleared_by_append() {
        let mut db = PassiveDb::with_block_rows(2);
        db.record_str("a.com", 1, 0, RCode::NxDomain, 3);
        assert_eq!(db.summary().total_nx_responses(), 3);
        assert_eq!(db.summary().distinct_nx_names(), 1);
        db.record_str("b.com", 2, 1, RCode::NxDomain, 4);
        assert_eq!(db.summary().total_nx_responses(), 7);
        assert_eq!(db.summary().distinct_nx_names(), 2);
        assert_eq!(*db.summary(), ScaleSummary::of(&db));
    }

    #[test]
    fn interned_name_without_rows_has_no_aggregate() {
        let mut db = PassiveDb::new();
        let pending = db.interner_mut().intern_str("pending.com");
        db.record_str("dead.com", 10, 0, RCode::NxDomain, 1);
        let late = db.interner_mut().intern_str("late.com");
        db.record_str("dead.com", 11, 0, RCode::NxDomain, 1);
        db.record_str("gone.net", 12, 0, RCode::NxDomain, 2);
        db.record_str("alive.com", 12, 0, RCode::NoError, 3);
        assert!(db.aggregate(pending).is_none());
        assert!(db.aggregate(late).is_none());
        assert!(db.aggregate_of("late.com").is_none());
        assert!(db.aggregate(NameId(u32::MAX)).is_none());
        assert_eq!(db.aggregate_of("dead.com").unwrap().nx_queries, 2);
        let nx: Vec<&str> = db
            .nx_names()
            .map(|(id, _)| db.interner().resolve(id))
            .collect();
        assert_eq!(nx, ["dead.com", "gone.net"]);
        // Ranges split the walk without losing or repeating a name.
        let split: Vec<NameId> = (0..db.distinct_names() + 2)
            .flat_map(|i| db.nx_names_in(i..i + 1).map(|(id, _)| id))
            .collect();
        let whole: Vec<NameId> = db.nx_names().map(|(id, _)| id).collect();
        assert_eq!(split, whole);
        assert_eq!(db.nx_names_in(7..9).count(), 0);
    }

    #[test]
    fn aggregate_missing_name() {
        let db = PassiveDb::new();
        assert!(db.aggregate_of("nothing.com").is_none());
    }

    #[test]
    fn journal_heartbeat_and_seal_fire_on_the_row_interval() {
        let mut db = PassiveDb::new();
        let journal = Journal::with_capacity(8);
        db.attach_journal(journal.clone());
        let id = db.interner_mut().intern_str("hb.com");
        let obs = Observation {
            name: id,
            day: 1,
            sensor: 0,
            rcode: RCode::NxDomain.to_u8(),
            count: 1,
        };
        for _ in 0..INGEST_HEARTBEAT_ROWS - 1 {
            db.append(obs);
        }
        assert!(journal.is_empty(), "heartbeat fired early");
        db.append(obs);
        let events = journal.snapshot();
        // Row 65,536 both heartbeats and seals the first block.
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.component == "store"));
        assert!(events.iter().any(|e| e
            .fields
            .iter()
            .any(|(k, v)| k == "rows" && v == &INGEST_HEARTBEAT_ROWS.to_string())));
        assert!(events.iter().any(|e| e.message == "block sealed"));
        assert_eq!(db.sealed_blocks().len(), 1);
        // One name repeated 64Ki times packs into ~1-byte-per-column codes.
        assert!(db.compressed_bytes() * 3 < db.row_bytes());
    }

    #[test]
    fn attach_metrics_tracks_ingest() {
        let registry = Registry::new();
        let mut db = PassiveDb::new();
        db.record_str("early.com", 1, 0, RCode::NxDomain, 1);
        db.attach_metrics(&registry);
        // Pre-attach rows carried over.
        assert_eq!(
            registry
                .snapshot()
                .counter_total("passive_rows_ingested_total"),
            1
        );
        db.record_str("late.com", 2, 0, RCode::NxDomain, 2);
        db.record_str("fine.com", 2, 0, RCode::NoError, 3);
        {
            let _t = db.time_query();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("passive_rows_ingested_total"), 3);
        assert_eq!(snap.counter_total("passive_nx_rows_total"), 2);
        assert_eq!(snap.counter_total("passive_queries_total"), 1);
        assert_eq!(snap.gauge_value("passive_intern_names"), Some(3));
        assert_eq!(snap.gauge_value("passive_intern_tlds"), Some(1));
        assert_eq!(
            snap.histogram_named("passive_query_latency_us")
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn byte_gauges_track_compression_live() {
        let registry = Registry::new();
        let mut db = PassiveDb::with_block_rows(16);
        db.attach_metrics(&registry);
        for i in 0..40u32 {
            db.record_str(&format!("g{}.com", i % 4), 500 + i, 0, RCode::NxDomain, 1);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge_value("passive_dns_store_bytes"),
            Some(db.row_bytes() as i64)
        );
        assert_eq!(
            snap.gauge_value("passive_dns_compressed_bytes"),
            Some(db.compressed_bytes() as i64)
        );
        // Two sealed blocks of tiny dictionaries beat the flat layout.
        assert!(db.compressed_bytes() < db.row_bytes());
    }
}
