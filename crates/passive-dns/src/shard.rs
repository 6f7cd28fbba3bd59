//! The sharded, parallel passive-DNS engine.
//!
//! [`ShardedStore`] partitions observations across N independent
//! [`PassiveDb`] shards by qname hash ([`crate::hash::shard_of`]). Because
//! *every row of a name lands in exactly one shard*, per-name aggregates
//! (first/last NX day, per-name query totals) are complete within their
//! shard, so every analysis of the paper's §4 scale leg decomposes into
//! independent per-shard work plus an order-independent merge:
//!
//! * whole-store group-bys merge the shards' memoized [`ScaleSummary`]s,
//!   the one aggregate algebra the serial store and stream engine share;
//! * row-level families (lifespan, expiry alignment, long-lived counts)
//!   add per-shard partials slot by slot;
//! * name-level results (distinct counts, samples, lifespan name counts)
//!   merge by disjoint union — no name is counted twice.
//!
//! Every parallel query runs one [`fan_out`] item per shard (the first on
//! the calling thread, the rest on scoped workers) and reassembles
//! partials in shard order; every merge is commutative and
//! associative, so results are bit-identical to the serial [`crate::query`]
//! oracle for any shard count — property-tested in `tests/prop_shard.rs`
//! and asserted on the era world by `repro scale-parallel`.
//!
//! Each shard keeps its own intern tables and telemetry cells;
//! [`ShardedStore::attach_metrics`] labels them `shard="i"` so they roll up
//! through `nxd-telemetry`'s snapshot/merge algebra.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

#[expect(
    clippy::disallowed_types,
    reason = "HashMap is only the panel side-input type below; merge state lives in ScaleSummary's BTreeMaps"
)]
use std::collections::HashMap;

use crossbeam::channel::bounded;
use nxd_dns_wire::{Name, RCode};
use nxd_telemetry::Registry;

use crate::hash::shard_of;
use crate::query::{self, LifespanBucket, TldStat};
use crate::scan;
use crate::store::{Observation, PassiveDb};
use crate::summary::ScaleSummary;

/// Rows per shard below which extra shards stop paying for themselves:
/// thread spawn/merge overhead dominates sub-256Ki-row scans (4 compressed
/// blocks). Tuned against the BENCH_4/BENCH_6 suites; see DESIGN §10.
const ROWS_PER_SHARD_TARGET: usize = 262_144;

/// Picks a shard count for a world of `rows` observations: one shard per
/// `ROWS_PER_SHARD_TARGET` (262,144) rows, clamped to `[1, max_parallelism]` (and
/// `max_parallelism` itself clamped to the 1..=8 range the parity suites
/// exercise). Small worlds get 1 shard — the fan-out executor runs a single
/// shard inline, so auto-sharded small inputs behave exactly like the
/// serial engine instead of paying thread overhead.
#[must_use]
pub fn auto_shard_count(rows: usize, max_parallelism: usize) -> usize {
    (rows / ROWS_PER_SHARD_TARGET).clamp(1, max_parallelism.clamp(1, 8))
}

/// [`auto_shard_count`] against the machine's available parallelism.
#[must_use]
pub fn auto_shard_count_here(rows: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    auto_shard_count(rows, cores)
}

/// The parallel executor: runs `f(0)`, …, `f(items - 1)` and returns the
/// results in item order. Item 0 runs on the calling thread and every
/// other item on its own scoped worker, so one item spawns nothing.
///
/// The [`ShardedStore`] queries fan out one item per shard through it, and
/// higher layers (the fused origin pipeline in `nxd-core`) fan out their
/// own work items, so the workspace has one thread-spawn site for
/// data-parallel scans. Results are reassembled by index, never in
/// completion order.
///
/// # Panics
/// Propagates worker panics.
pub fn fan_out<R, F>(items: usize, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    if items <= 1 {
        return (0..items).map(&f).collect();
    }
    let (tx, rx) = bounded::<(usize, R)>(items);
    let partials = crossbeam::thread::scope(|scope| {
        let f = &f;
        for idx in 1..items {
            let tx = tx.clone();
            scope.spawn(move |_| {
                tx.send((idx, f(idx))).expect("fan-out collector hung up");
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..items).map(|_| None).collect();
        out[0] = Some(f(0));
        for (idx, partial) in rx {
            out[idx] = Some(partial);
        }
        out
    })
    .expect("fan-out worker panicked");
    partials
        .into_iter()
        .map(|p| p.expect("worker exited without a partial"))
        .collect()
}

/// A hash-partitioned set of [`PassiveDb`] shards with a parallel
/// executor.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<PassiveDb>,
}

impl ShardedStore {
    /// An empty store with `shards` partitions (clamped to at least 1),
    /// each a compressed-block [`PassiveDb`].
    pub fn new(shards: usize) -> Self {
        ShardedStore {
            shards: (0..shards.max(1)).map(|_| PassiveDb::new()).collect(),
        }
    }

    /// An empty store whose shards seal compressed blocks every
    /// `block_rows` rows — the knob the layout-equivalence property tests
    /// turn to force many tiny blocks.
    pub fn with_block_rows(shards: usize, block_rows: usize) -> Self {
        ShardedStore {
            shards: (0..shards.max(1))
                .map(|_| PassiveDb::with_block_rows(block_rows))
                .collect(),
        }
    }

    /// Re-partitions an existing serial database into `shards` partitions.
    pub fn from_db(db: &PassiveDb, shards: usize) -> Self {
        let mut out = Self::new(shards);
        out.merge_db(db);
        out
    }

    /// Re-partitions a serial database across [`auto_shard_count`] shards.
    #[cfg(test)]
    fn from_db_auto(db: &PassiveDb, max_parallelism: usize) -> Self {
        Self::from_db(db, auto_shard_count(db.row_count(), max_parallelism))
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The individual shard stores, in shard order.
    pub fn shards(&self) -> &[PassiveDb] {
        &self.shards
    }

    /// The shard index a qname routes to.
    pub fn shard_of(&self, name: &str) -> usize {
        shard_of(name, self.shards.len())
    }

    /// Total rows across all shards.
    pub fn row_count(&self) -> usize {
        self.shards.iter().map(PassiveDb::row_count).sum()
    }

    /// Total distinct names across all shards. Exact, not approximate:
    /// hash partitioning makes the per-shard name sets disjoint.
    pub fn distinct_names(&self) -> usize {
        self.shards.iter().map(PassiveDb::distinct_names).sum()
    }

    /// Logical (uncompressed-layout) bytes of row storage across shards.
    pub fn row_bytes(&self) -> usize {
        self.shards.iter().map(PassiveDb::row_bytes).sum()
    }

    /// Resident bytes of row storage across shards: sealed compressed
    /// blocks plus uncompressed tails. `compressed_bytes() / row_bytes()`
    /// is the live compression ratio the byte gauges export.
    pub fn compressed_bytes(&self) -> usize {
        self.shards.iter().map(PassiveDb::compressed_bytes).sum()
    }

    /// Interns a name into its home shard and appends an observation.
    pub fn record(&mut self, name: &Name, day: u32, sensor: u16, rcode: RCode, count: u32) {
        self.record_str(name.as_str(), day, sensor, rcode, count);
    }

    /// Interns a pre-normalized name string into its home shard and appends
    /// an observation.
    pub fn record_str(&mut self, name: &str, day: u32, sensor: u16, rcode: RCode, count: u32) {
        let shard = self.shard_of(name);
        self.shards[shard].record_str(name, day, sensor, rcode, count);
    }

    /// Routes every row of a serial database into its home shard
    /// (re-interning by string). This is the batch-ingest path: SIE
    /// producer stores are distributed here instead of being collapsed
    /// into one serial store.
    pub fn merge_db(&mut self, other: &PassiveDb) {
        for obs in other.rows() {
            let name = other.interner().resolve(obs.name);
            let shard = self.shard_of(name);
            let id = self.shards[shard].interner_mut().intern_str(name);
            self.shards[shard].append(Observation { name: id, ..obs });
        }
    }

    /// Collapses the shards back into one serial database, merging in
    /// shard order (deterministic for a given shard count).
    pub fn to_serial(&self) -> PassiveDb {
        let mut out = PassiveDb::new();
        for shard in &self.shards {
            out.merge(shard);
        }
        out
    }

    /// The aggregate for a name, served by its home shard.
    pub fn aggregate_of(&self, name: &str) -> Option<&crate::store::NameAggregate> {
        self.shards[self.shard_of(name)].aggregate_of(name)
    }

    /// Attaches every shard's telemetry to `registry` with a `shard="i"`
    /// label, so per-shard `passive_*` series coexist and roll up via
    /// [`nxd_telemetry::Snapshot::counter_total`] /
    /// [`nxd_telemetry::Snapshot::histogram_total`].
    pub fn attach_metrics(&mut self, registry: &Registry) {
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            let label = idx.to_string();
            shard.attach_metrics_labeled(registry, &[("shard", label.as_str())]);
        }
    }

    /// Runs `f` against every shard through [`fan_out`] (shard 0 on the
    /// calling thread, every other shard on a scoped worker) and returns
    /// the partial results in shard order: the building block of the
    /// parallel query methods below.
    fn par_map<'s, R, F>(&'s self, f: F) -> Vec<R>
    where
        F: Fn(&'s PassiveDb) -> R + Sync,
        R: Send,
    {
        fan_out(self.shards.len(), |idx| f(&self.shards[idx]))
    }

    // ---- parallel queries -----------------------------------------------
    //
    // Group-bys merge the shards' summaries; row-level families add the
    // per-shard `crate::scan` (or `crate::query`) partials.

    /// The §4 [`ScaleSummary`] of every row: the shards' memoized
    /// [`PassiveDb::summary`]s, merged. The five methods below read one
    /// accessor each; prefer `summary()` when asking more than one.
    pub fn summary(&self) -> ScaleSummary {
        let mut merged = ScaleSummary::default();
        for part in self.par_map(PassiveDb::summary) {
            merged.merge(part);
        }
        merged
    }

    pub fn total_nx_responses(&self) -> u64 {
        self.summary().total_nx_responses()
    }

    pub fn distinct_nx_names(&self) -> u64 {
        self.summary().distinct_nx_names()
    }

    pub fn monthly_nx_series(&self) -> Vec<(i64, u64)> {
        self.summary().monthly_nx_series()
    }

    pub fn tld_distribution(&self) -> Vec<TldStat> {
        self.summary().tld_distribution()
    }

    pub fn rcode_breakdown(&self) -> Vec<(u8, u64)> {
        self.summary().rcode_breakdown()
    }

    /// Deterministic 1-in-`n` sample of NXDomain names, as sorted strings
    /// (parallel [`query::sample_nx_name_strings`]). Membership is a pure
    /// hash of the name, so the sample is identical for any shard count.
    pub fn sample_nx_names(&self, n: u64, salt: u64) -> Vec<String> {
        let mut out: Vec<String> = self
            .par_map(|db| query::sample_nx_name_strings(db, n, salt))
            .into_iter()
            .flatten()
            .collect();
        out.sort();
        out
    }

    /// Fig. 5's lifespan histogram (parallel [`scan::lifespan_histogram`]).
    /// Name counts add exactly because each name's rows — and therefore its
    /// first-NX-day anchor — live in a single shard.
    pub fn lifespan_histogram(&self, max_days: u32) -> Vec<LifespanBucket> {
        self.par_map(|db| scan::lifespan_histogram(db, max_days))
            .into_iter()
            .reduce(|mut merged, partial| {
                for (slot, bucket) in merged.iter_mut().zip(partial) {
                    slot.names += bucket.names;
                    slot.queries += bucket.queries;
                }
                merged
            })
            .expect("a store has at least one shard")
    }

    /// Fig. 6's expiry-aligned series (parallel
    /// [`scan::expiry_aligned_totals`]), with the panel keyed by name
    /// string (shard-local `NameId`s are meaningless across shards). Raw
    /// per-offset totals are summed across shards, then normalized once by
    /// the full panel size in [`scan::expiry_aligned_average`].
    #[expect(
        clippy::disallowed_types,
        reason = "the HashMap panel is iterated only to bucket names by home shard; per-offset sums are order-free and the f64 series comes from the shared divide-once step"
    )]
    pub fn expiry_aligned_series(
        &self,
        expiry_day: &HashMap<String, u32>,
        before: u32,
        after: u32,
    ) -> Vec<(i32, f64)> {
        // Split the panel by home shard, translating to shard-local ids.
        // Panel names the store never saw contribute no rows (exactly as in
        // the serial engine) but still count toward the denominator.
        let mut per_shard = vec![Vec::<(crate::intern::NameId, u32)>::new(); self.shards.len()];
        for (name, &day) in expiry_day {
            let shard = self.shard_of(name);
            if let Some(id) = self.shards[shard].interner().get(name) {
                per_shard[shard].push((id, day));
            }
        }
        let span = (before + after + 1) as usize;
        let mut totals = vec![0u64; span];
        let partials = fan_out(self.shards.len(), |idx| {
            scan::expiry_aligned_totals(&self.shards[idx], &per_shard[idx], before, after)
        });
        for partial in partials {
            for (slot, t) in totals.iter_mut().zip(partial) {
                *slot += t;
            }
        }
        scan::expiry_aligned_average(&totals, expiry_day.len(), before)
    }

    /// §4.4's long-lived NXDomain counts (parallel [`query::long_lived_nx`]).
    pub fn long_lived_nx(&self, min_days: u32) -> (u64, u64) {
        self.par_map(|db| query::long_lived_nx(db, min_days))
            .into_iter()
            .fold((0, 0), |(n, q), (pn, pq)| (n + pn, q + pq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated(shards: usize) -> (PassiveDb, ShardedStore) {
        let mut serial = PassiveDb::new();
        let mut sharded = ShardedStore::new(shards);
        let rows = [
            ("dead.com", 100u32, 0u16, RCode::NxDomain, 3u32),
            ("dead.com", 105, 1, RCode::NxDomain, 2),
            ("gone.ru", 101, 2, RCode::NxDomain, 7),
            ("alive.com", 102, 0, RCode::NoError, 10),
            ("flaky.net", 103, 1, RCode::ServFail, 1),
            ("gone.ru", 130, 2, RCode::NxDomain, 4),
        ];
        for (name, day, sensor, rcode, count) in rows {
            serial.record_str(name, day, sensor, rcode, count);
            sharded.record_str(name, day, sensor, rcode, count);
        }
        (serial, sharded)
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ShardedStore::new(0).shard_count(), 1);
        assert_eq!(ShardedStore::new(4).shard_count(), 4);
    }

    #[test]
    fn rows_route_to_home_shard_only() {
        let (_, sharded) = populated(4);
        assert_eq!(sharded.row_count(), 6);
        // dead.com has two rows; both must be in the same shard.
        let home = sharded.shard_of("dead.com");
        assert_eq!(
            sharded.shards()[home]
                .aggregate_of("dead.com")
                .unwrap()
                .nx_queries,
            5
        );
        for (idx, shard) in sharded.shards().iter().enumerate() {
            if idx != home {
                assert!(shard.aggregate_of("dead.com").is_none());
            }
        }
    }

    #[test]
    fn scalar_queries_match_serial() {
        for shards in [1, 2, 4, 8] {
            let (serial, sharded) = populated(shards);
            assert_eq!(
                sharded.total_nx_responses(),
                query::total_nx_responses(&serial)
            );
            assert_eq!(
                sharded.distinct_nx_names(),
                query::distinct_nx_names(&serial)
            );
            assert_eq!(sharded.long_lived_nx(20), query::long_lived_nx(&serial, 20));
            assert_eq!(sharded.rcode_breakdown(), query::rcode_breakdown(&serial));
            assert_eq!(
                sharded.summary().nxdomain_share(),
                query::nxdomain_share(&serial)
            );
            assert_eq!(
                sharded.summary().nx_by_sensor(),
                query::nx_by_sensor(&serial)
            );
        }
    }

    #[test]
    fn series_queries_match_serial() {
        for shards in [1, 2, 4, 8] {
            let (serial, sharded) = populated(shards);
            assert_eq!(
                sharded.monthly_nx_series(),
                query::monthly_nx_series(&serial)
            );
            assert_eq!(
                sharded.summary().yearly_avg_monthly_nx(),
                query::yearly_avg_monthly_nx(&serial)
            );
            assert_eq!(sharded.tld_distribution(), query::tld_distribution(&serial));
            assert_eq!(
                sharded.lifespan_histogram(40),
                query::lifespan_histogram(&serial, 40)
            );
            assert_eq!(
                sharded.sample_nx_names(1, 7),
                query::sample_nx_name_strings(&serial, 1, 7)
            );
        }
    }

    #[test]
    fn expiry_series_matches_serial() {
        let (serial, sharded) = populated(4);
        let mut by_id = HashMap::new();
        let mut by_name = HashMap::new();
        for (name, day) in [("dead.com", 104u32), ("gone.ru", 110)] {
            by_id.insert(serial.interner().get(name).unwrap(), day);
            by_name.insert(name.to_string(), day);
        }
        assert_eq!(
            sharded.expiry_aligned_series(&by_name, 10, 30),
            query::expiry_aligned_series(&serial, &by_id, 10, 30)
        );
        assert!(sharded
            .expiry_aligned_series(&HashMap::new(), 10, 30)
            .is_empty());
    }

    #[test]
    fn panel_names_unknown_to_store_count_toward_denominator() {
        let (serial, sharded) = populated(4);
        let mut by_id = HashMap::new();
        let mut by_name = HashMap::new();
        by_id.insert(serial.interner().get("dead.com").unwrap(), 104u32);
        by_name.insert("dead.com".to_string(), 104u32);
        // A name with no rows anywhere: the serial engine cannot even name
        // it (no id), so it only affects the denominator — mirror that by
        // dividing the serial series' totals by the larger panel.
        by_name.insert("never-seen.example".to_string(), 104u32);
        let serial_series = query::expiry_aligned_series(&serial, &by_id, 5, 5);
        let sharded_series = sharded.expiry_aligned_series(&by_name, 5, 5);
        for ((o1, v1), (o2, v2)) in serial_series.iter().zip(&sharded_series) {
            assert_eq!(o1, o2);
            assert!((v1 / 2.0 - v2).abs() < 1e-12, "{v1} vs {v2}");
        }
    }

    #[test]
    fn from_db_and_to_serial_roundtrip() {
        let (serial, _) = populated(1);
        let sharded = ShardedStore::from_db(&serial, 4);
        assert_eq!(sharded.row_count(), serial.row_count());
        assert_eq!(sharded.distinct_names(), serial.distinct_names());
        let back = sharded.to_serial();
        assert_eq!(
            query::rcode_breakdown(&back),
            query::rcode_breakdown(&serial)
        );
        assert_eq!(
            query::tld_distribution(&back),
            query::tld_distribution(&serial)
        );
    }

    #[test]
    fn aggregate_of_routes_to_home_shard() {
        let (_, sharded) = populated(4);
        assert_eq!(sharded.aggregate_of("dead.com").unwrap().nx_queries, 5);
        assert_eq!(sharded.aggregate_of("gone.ru").unwrap().nx_queries, 11);
        assert!(sharded.aggregate_of("missing.com").is_none());
    }

    #[test]
    fn metrics_roll_up_across_shards() {
        use nxd_telemetry::Registry;
        let registry = Registry::new();
        let (_, mut sharded) = populated(4);
        sharded.attach_metrics(&registry);
        let _ = sharded.total_nx_responses();
        let snap = registry.snapshot();
        // Rollup across shard labels equals the store-wide truth.
        assert_eq!(snap.counter_total("passive_rows_ingested_total"), 6);
        assert_eq!(snap.counter_total("passive_nx_rows_total"), 4);
        // Every non-empty shard timed its partial scan.
        let latency = snap.histogram_total("passive_query_latency_us");
        assert_eq!(latency.count(), snap.counter_total("passive_queries_total"));
        assert!(latency.count() >= 1);
        // Per-shard series are genuinely distinct label sets.
        let shard_series = snap
            .counters
            .iter()
            .filter(|(id, _)| id.name() == "passive_rows_ingested_total")
            .count();
        assert_eq!(shard_series, 4);
    }

    #[test]
    fn row_bytes_sums_shards() {
        let (serial, sharded) = populated(4);
        assert_eq!(sharded.row_bytes(), serial.row_bytes());
    }

    #[test]
    fn auto_shard_count_scales_with_world_size() {
        // Small worlds stay serial: no thread overhead for toy inputs.
        assert_eq!(auto_shard_count(0, 8), 1);
        assert_eq!(auto_shard_count(100_000, 8), 1);
        assert_eq!(auto_shard_count(ROWS_PER_SHARD_TARGET - 1, 8), 1);
        // One extra shard per 256Ki rows…
        assert_eq!(auto_shard_count(ROWS_PER_SHARD_TARGET, 8), 1);
        assert_eq!(auto_shard_count(2 * ROWS_PER_SHARD_TARGET, 8), 2);
        assert_eq!(auto_shard_count(4 * ROWS_PER_SHARD_TARGET, 8), 4);
        // …capped by the machine and by the 8-shard parity ceiling.
        assert_eq!(auto_shard_count(100 * ROWS_PER_SHARD_TARGET, 4), 4);
        assert_eq!(auto_shard_count(100 * ROWS_PER_SHARD_TARGET, 64), 8);
        // Degenerate parallelism clamps to 1, never 0.
        assert_eq!(auto_shard_count(10 * ROWS_PER_SHARD_TARGET, 0), 1);
        assert!(auto_shard_count_here(0) >= 1);
    }

    #[test]
    fn from_db_auto_uses_one_shard_for_small_worlds() {
        let (serial, _) = populated(1);
        let auto = ShardedStore::from_db_auto(&serial, 8);
        assert_eq!(auto.shard_count(), 1);
        assert_eq!(
            auto.total_nx_responses(),
            query::total_nx_responses(&serial)
        );
    }

    #[test]
    fn tiny_blocks_match_serial_engine() {
        // Force a seal every 2 rows: queries must not notice the layout.
        for shards in [1, 3] {
            let (serial, _) = populated(1);
            let mut sharded = ShardedStore::with_block_rows(shards, 2);
            sharded.merge_db(&serial);
            assert_eq!(
                sharded.total_nx_responses(),
                query::total_nx_responses(&serial)
            );
            assert_eq!(sharded.rcode_breakdown(), query::rcode_breakdown(&serial));
            assert_eq!(sharded.tld_distribution(), query::tld_distribution(&serial));
            assert_eq!(
                sharded.lifespan_histogram(40),
                query::lifespan_histogram(&serial, 40)
            );
            assert!(sharded.compressed_bytes() > 0);
            assert_eq!(sharded.row_bytes(), serial.row_bytes());
        }
    }

    #[test]
    fn record_name_type_routes_like_str() {
        let mut sharded = ShardedStore::new(4);
        let name: Name = "MiXeD.CoM".parse().unwrap();
        sharded.record(&name, 10, 0, RCode::NxDomain, 2);
        assert_eq!(sharded.aggregate_of("mixed.com").unwrap().nx_queries, 2);
    }
}
