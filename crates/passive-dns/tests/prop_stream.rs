//! Property tests for the streaming engine's parity contract: for ANY
//! observation stream, ANY arrival order (including adversarial
//! out-of-order and late schedules), ANY producer count, and at EVERY
//! admitted-row prefix, the streaming snapshot must be bit-identical to
//! the batch query engine (`query.rs`, the pinned oracle) run over a
//! `PassiveDb` holding exactly the rows the watermark admitted — with
//! every late row exactly accounted on the side tally.

use nxd_dns_wire::RCode;
use nxd_passive_dns::stream::WindowConfig;
use nxd_passive_dns::{
    collect_stream, query, Admission, PassiveDb, SieProducer, StreamConfig, StreamEngine,
    StreamSnapshot,
};
use proptest::prelude::*;

const TLDS: [&str; 5] = ["com", "net", "ru", "cn", "org"];

/// One generated observation: name index into a small pool, day, sensor,
/// NXDomain-or-NoError, count.
type Obs = (usize, u32, u16, bool, u32);

fn name_of(idx: usize) -> String {
    format!("name-{idx}.{}", TLDS[idx % TLDS.len()])
}

fn rcode_of(nx: bool) -> RCode {
    if nx {
        RCode::NxDomain
    } else {
        RCode::NoError
    }
}

/// Day spans wide enough (16,000..18,500 ≈ mid-2013..mid-2020) that a
/// small lateness tolerance makes shuffled schedules genuinely late-heavy.
fn arb_observations() -> impl Strategy<Value = Vec<Obs>> {
    proptest::collection::vec(
        (0usize..40, 16_000u32..18_500, 0u16..8, 0u32..10, 1u32..10).prop_map(
            // 80% NXDomain, 20% NoError.
            |(idx, day, sensor, nx_sel, count)| (idx, day, sensor, nx_sel < 8, count),
        ),
        0..120,
    )
}

fn arb_config() -> impl Strategy<Value = StreamConfig> {
    (1u32..120, 0u32..2_000, 1u64..50).prop_map(|(window_days, lateness, sample_n)| StreamConfig {
        window: WindowConfig {
            window_days,
            allowed_lateness_days: lateness,
        },
        sample_n,
    })
}

/// Asserts the snapshot ≡ the batch oracle over `admitted` rows.
fn assert_parity(snap: &StreamSnapshot, admitted: &PassiveDb, config: &StreamConfig) {
    assert_eq!(snap.rcode_breakdown, query::rcode_breakdown(admitted));
    assert_eq!(snap.total_nx_responses, query::total_nx_responses(admitted));
    assert_eq!(snap.distinct_nx_names, query::distinct_nx_names(admitted));
    assert_eq!(snap.monthly_nx, query::monthly_nx_series(admitted));
    // Bit-identical floats: both sides fold through yearly_from_monthly.
    assert_eq!(
        snap.yearly_avg_monthly_nx,
        query::yearly_avg_monthly_nx(admitted)
    );
    assert_eq!(snap.nx_by_sensor, query::nx_by_sensor(admitted));
    assert_eq!(snap.tld_distribution, query::tld_distribution(admitted));
    assert_eq!(
        snap.sample_nx_names,
        // The engine samples with salt 0, as every batch-side §4.2 sample.
        query::sample_nx_name_strings(admitted, config.sample_n, 0)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serial arrival: parity holds at EVERY prefix of the stream, and the
    /// admitted/late split exactly partitions the offered rows.
    #[test]
    fn snapshot_matches_oracle_at_every_prefix(
        observations in arb_observations(),
        config in arb_config(),
    ) {
        let engine = StreamEngine::new(config);
        let mut admitted = PassiveDb::new();
        let mut late_rows = 0u64;
        let mut late_responses = 0u64;
        for &(idx, day, sensor, nx, count) in &observations {
            let name = name_of(idx);
            let rcode = rcode_of(nx);
            match engine.offer_row(&name, day, sensor, rcode, count) {
                Admission::Admitted => {
                    admitted.record_str(&name, day, sensor, rcode, count);
                }
                Admission::Late => {
                    late_rows += 1;
                    late_responses += u64::from(count);
                }
            }
            let snap = engine.snapshot();
            prop_assert_eq!(snap.admitted_rows, admitted.row_count() as u64);
            prop_assert_eq!(snap.late.rows, late_rows);
            prop_assert_eq!(snap.late.responses, late_responses);
            prop_assert_eq!(snap.offered_rows, snap.admitted_rows + snap.late.rows);
            assert_parity(&snap, &admitted, &config);
        }
    }

    /// An adversarial arrival order (descending by day — the worst case
    /// for a watermark) still satisfies parity and exact late accounting.
    #[test]
    fn descending_day_order_is_late_heavy_but_exact(
        observations in arb_observations(),
        lateness in 0u32..30,
    ) {
        let config = StreamConfig {
            window: WindowConfig { window_days: 30, allowed_lateness_days: lateness },
            ..Default::default()
        };
        let mut sorted = observations;
        sorted.sort_by_key(|obs| std::cmp::Reverse(obs.1));
        let engine = StreamEngine::new(config);
        let mut admitted = PassiveDb::new();
        let mut late = Vec::new();
        for &(idx, day, sensor, nx, count) in &sorted {
            let name = name_of(idx);
            let rcode = rcode_of(nx);
            match engine.offer_row(&name, day, sensor, rcode, count) {
                Admission::Admitted => { admitted.record_str(&name, day, sensor, rcode, count); }
                Admission::Late => late.push((day, u64::from(count), nx)),
            }
        }
        // Everything within `lateness` days of the max is admitted by
        // construction; anything admitted is within tolerance of the max
        // day seen before it.
        if let Some(&(_, max_day, _, _, _)) = sorted.first() {
            for &(day, _, _) in &late {
                prop_assert!(day < max_day.saturating_sub(lateness));
            }
        }
        let snap = engine.snapshot();
        prop_assert_eq!(snap.late.rows, late.len() as u64);
        prop_assert_eq!(snap.late.responses, late.iter().map(|&(_, c, _)| c).sum::<u64>());
        prop_assert_eq!(
            snap.late.nx_responses,
            late.iter().filter(|&&(_, _, nx)| nx).map(|&(_, c, _)| c).sum::<u64>()
        );
        assert_parity(&snap, &admitted, &config);
    }

    /// The full pipeline: producers → bounded channel → collect_stream.
    /// For 1/2/4/8 producers the engine snapshot must equal the oracle
    /// over the admitted store, and store+late must hold every offered row.
    #[test]
    fn collect_stream_parity_across_producer_counts(
        observations in arb_observations(),
        lateness in 0u32..2_000,
        capacity in 1usize..4,
    ) {
        let total_rows = observations.len();
        for producer_count in [1usize, 2, 4, 8] {
            let config = StreamConfig {
                window: WindowConfig { window_days: 30, allowed_lateness_days: lateness },
                ..Default::default()
            };
            let engine = StreamEngine::new(config);
            // Round-robin rows across producers; each producer submits its
            // rows in several small batches to exercise interleaving.
            let producers: Vec<Box<dyn FnOnce(SieProducer) + Send>> = (0..producer_count)
                .map(|p| {
                    let rows: Vec<Obs> = observations
                        .iter()
                        .copied()
                        .skip(p)
                        .step_by(producer_count)
                        .collect();
                    Box::new(move |producer: SieProducer| {
                        for chunk in rows.chunks(7) {
                            let mut shard = PassiveDb::new();
                            for &(idx, day, sensor, nx, count) in chunk {
                                shard.record_str(&name_of(idx), day, sensor, rcode_of(nx), count);
                            }
                            producer.submit(shard);
                        }
                    }) as Box<dyn FnOnce(SieProducer) + Send>
                })
                .collect();
            let outcome = collect_stream(producers, capacity, 4, &engine).expect("no panic");
            let snap = engine.snapshot();

            // Nothing dropped: admitted + late == offered.
            prop_assert_eq!(
                outcome.store.row_count() + outcome.late.row_count(),
                total_rows
            );
            prop_assert_eq!(snap.offered_rows, total_rows as u64);
            prop_assert_eq!(snap.admitted_rows, outcome.store.row_count() as u64);
            prop_assert_eq!(snap.late.rows, outcome.late.row_count() as u64);

            // Parity: snapshot ≡ oracle over the admitted rows. The store
            // is sharded; serialize it back to one PassiveDb for querying.
            let admitted = outcome.store.to_serial();
            assert_parity(&snap, &admitted, &config);

            // The sharded store's own query surface agrees too.
            prop_assert_eq!(snap.total_nx_responses, outcome.store.total_nx_responses());
            prop_assert_eq!(snap.distinct_nx_names, outcome.store.distinct_nx_names());
            prop_assert_eq!(snap.rcode_breakdown, outcome.store.rcode_breakdown());
        }
    }
}
