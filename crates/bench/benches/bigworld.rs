//! Big-world benchmark backing the `BENCH_6` CI gate: the compressed
//! columnar sharded engine against the flat serial reference on a
//! deterministic multi-million-name world.
//!
//! Two stores are populated from the identical observation stream
//! (`nxd_traffic::bigworld`): a flat [`PassiveDb::uncompressed`] scanned by
//! the serial per-row `query` engine, and the default compressed layout
//! fanned out through [`ShardedStore`], whose whole-store group-bys are
//! answered from per-block summaries without decoding. Result parity is
//! asserted bit-for-bit before anything is timed.
//!
//! Besides the timing lines, the bench prints the compression metric the
//! gate enforces, in the same `bench <name> <n> ns/iter` shape the parser
//! already understands:
//!
//! ```text
//! bench bigworld/row-bytes <uncompressed bytes> ns/iter
//! bench bigworld/compressed-bytes <compressed bytes> ns/iter
//! ```
//!
//! CI runs this quick (`NXD_BENCH_QUICK=1`) and gates with
//!
//! ```text
//! bench_gate.py --input out.txt --baseline BENCH_6.json --group bigworld \
//!     --serial serial --gated fused-4 fused-8 --min-speedup 2.0 \
//!     --ratio-max 0.5 --ratio-numer bigworld/compressed-bytes \
//!     --ratio-denom bigworld/row-bytes
//! ```
//!
//! Set `NXD_BIGWORLD_ROWS` / `NXD_BIGWORLD_NAMES` to resize locally.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use nxd_passive_dns::{query, PassiveDb, ShardedStore};
use nxd_traffic::bigworld::{self, BigWorldConfig};

/// The composite suite: every query family the compressed engine can
/// answer from block summaries or a dense single decode, folded into one
/// digest so the optimizer cannot elide anything.
fn suite_serial(db: &PassiveDb) -> u64 {
    let mut digest = query::total_nx_responses(db);
    digest ^= query::monthly_nx_series(db)
        .iter()
        .map(|&(m, n)| (m as u64).wrapping_mul(31).wrapping_add(n))
        .fold(0, u64::wrapping_add);
    digest ^= query::tld_distribution(db)
        .first()
        .map(|t| t.nx_queries)
        .unwrap_or(0);
    digest ^= query::lifespan_histogram(db, 60)
        .iter()
        .map(|b| b.queries)
        .fold(0, u64::wrapping_add);
    digest ^= query::rcode_breakdown(db)
        .iter()
        .map(|&(rc, n)| u64::from(rc).wrapping_mul(131).wrapping_add(n))
        .fold(0, u64::wrapping_add);
    digest ^= query::nx_by_sensor(db)
        .iter()
        .map(|(&s, &n)| u64::from(s).wrapping_mul(17).wrapping_add(n))
        .fold(0, u64::wrapping_add);
    digest
}

/// The same suite through the compressed sharded executor.
fn suite_fused(store: &ShardedStore) -> u64 {
    let mut digest = store.total_nx_responses();
    digest ^= store
        .monthly_nx_series()
        .iter()
        .map(|&(m, n)| (m as u64).wrapping_mul(31).wrapping_add(n))
        .fold(0, u64::wrapping_add);
    digest ^= store
        .tld_distribution()
        .first()
        .map(|t| t.nx_queries)
        .unwrap_or(0);
    digest ^= store
        .lifespan_histogram(60)
        .iter()
        .map(|b| b.queries)
        .fold(0, u64::wrapping_add);
    digest ^= store
        .rcode_breakdown()
        .iter()
        .map(|&(rc, n)| u64::from(rc).wrapping_mul(131).wrapping_add(n))
        .fold(0, u64::wrapping_add);
    digest ^= store
        .summary()
        .nx_by_sensor()
        .iter()
        .map(|(&s, &n)| u64::from(s).wrapping_mul(17).wrapping_add(n))
        .fold(0, u64::wrapping_add);
    digest
}

fn bench_bigworld(c: &mut Criterion) {
    let quick = std::env::var_os("NXD_BENCH_QUICK").is_some();
    let cfg = BigWorldConfig::from_env();

    let mut flat = PassiveDb::uncompressed();
    bigworld::populate(&mut flat, &cfg);
    let mut compressed = PassiveDb::new();
    bigworld::populate(&mut compressed, &cfg);
    assert_eq!(flat.row_count(), compressed.row_count());

    // Compression metric lines for the gate's ratio check. The parser only
    // understands `bench <name> <n> ns/iter`, so bytes ride the same shape.
    println!("bench bigworld/row-bytes {} ns/iter", flat.row_bytes());
    println!(
        "bench bigworld/compressed-bytes {} ns/iter",
        compressed.compressed_bytes()
    );

    let mut g = c.benchmark_group("bigworld");
    g.sample_size(if quick { 10 } else { 12 });
    let serial_digest = suite_serial(&flat);
    g.bench_function("serial", |b| b.iter(|| black_box(suite_serial(&flat))));
    for shards in [2usize, 4, 8] {
        let store = ShardedStore::from_db(&compressed, shards);
        assert_eq!(
            suite_fused(&store),
            serial_digest,
            "compressed engine diverged from flat serial at {shards} shards"
        );
        g.bench_function(&format!("fused-{shards}"), |b| {
            b.iter(|| black_box(suite_fused(&store)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bigworld);
criterion_main!(benches);
