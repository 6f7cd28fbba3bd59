//! Detector benchmarks: DGA generation/detection (with the feature
//! ablation), squat generation/classification, blocklist lookups, and
//! passive-store ingest (single-thread vs the parallel SIE channel, plus
//! the interning ablation).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use nxd_blocklist::{Blocklist, ThreatCategory};
use nxd_dga::{all_families, DgaDetector, Weights};
use nxd_dns_wire::RCode;
use nxd_passive_dns::{collect_parallel, PassiveDb, SieProducer};
use nxd_squat::{generate, SquatClassifier};

fn bench_dga(c: &mut Criterion) {
    let mut g = c.benchmark_group("dga");
    for family in all_families() {
        g.bench_function(&format!("generate/{}", family.name()), |b| {
            b.iter(|| black_box(family.generate(42, (2021, 6, 1), 100)))
        });
    }
    let names: Vec<String> = all_families()
        .iter()
        .flat_map(|f| f.generate(7, (2020, 2, 2), 125))
        .collect();
    let detector = DgaDetector::default();
    g.throughput(Throughput::Elements(names.len() as u64));
    g.bench_function("detect/full", |b| {
        b.iter(|| names.iter().filter(|n| detector.is_dga(n)).count())
    });
    // Ablation: drop the (expensive) bigram feature.
    let w = Weights {
        bigram_score: 0.0,
        ..Default::default()
    };
    let ablated = DgaDetector::new(w, 3.2);
    g.bench_function("detect/no_bigram", |b| {
        b.iter(|| names.iter().filter(|n| ablated.is_dga(n)).count())
    });
    g.finish();
}

fn bench_squat(c: &mut Criterion) {
    let mut g = c.benchmark_group("squat");
    g.bench_function("generate/typo(google.com)", |b| {
        b.iter(|| black_box(generate::typosquats("google.com")))
    });
    g.bench_function("generate/bit(google.com)", |b| {
        b.iter(|| black_box(generate::bitsquats("google.com")))
    });
    let classifier = SquatClassifier::default();
    let mixed: Vec<String> = generate::typosquats("google.com")
        .into_iter()
        .chain(generate::combosquats("paypal.com"))
        .chain((0..100).map(|i| format!("unrelated-site-{i}.com")))
        .collect();
    g.throughput(Throughput::Elements(mixed.len() as u64));
    g.bench_function("classify/mixed", |b| {
        b.iter(|| {
            mixed
                .iter()
                .filter(|d| classifier.classify(d).is_some())
                .count()
        })
    });
    g.finish();
}

fn bench_blocklist(c: &mut Criterion) {
    let mut bl = Blocklist::new();
    for i in 0..50_000 {
        bl.insert(&format!("bad-{i}.com"), ThreatCategory::Malware);
    }
    let probes: Vec<String> = (0..1000).map(|i| format!("bad-{}.com", i * 57)).collect();
    c.bench_function("blocklist/lookup_1k", |b| {
        b.iter(|| probes.iter().filter(|d| bl.lookup(d).is_some()).count())
    });
}

fn bench_passive_ingest(c: &mut Criterion) {
    let rows: Vec<(String, u32)> = (0..20_000)
        .map(|i| (format!("name-{}.com", i % 4_000), 16_000 + i % 365))
        .collect();
    let mut g = c.benchmark_group("passive-ingest");
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("single_thread", |b| {
        b.iter(|| {
            let mut db = PassiveDb::new();
            for (name, day) in &rows {
                db.record_str(name, *day, 0, RCode::NxDomain, 1);
            }
            black_box(db.row_count())
        })
    });
    g.bench_function("sie_parallel_4", |b| {
        b.iter(|| {
            let chunks: Vec<Vec<(String, u32)>> =
                rows.chunks(rows.len() / 4).map(|c| c.to_vec()).collect();
            let producers: Vec<Box<dyn FnOnce(SieProducer) + Send>> = chunks
                .into_iter()
                .map(|chunk| {
                    Box::new(move |p: SieProducer| {
                        let mut shard = PassiveDb::new();
                        for (name, day) in &chunk {
                            shard.record_str(name, *day, 1, RCode::NxDomain, 1);
                        }
                        p.submit(shard);
                    }) as Box<dyn FnOnce(SieProducer) + Send>
                })
                .collect();
            black_box(
                collect_parallel(producers, 4)
                    .expect("no worker panicked")
                    .row_count(),
            )
        })
    });
    // Interning ablation: how much heap the interner saves vs raw strings.
    g.bench_function("interning", |b| {
        b.iter(|| {
            let mut interner = nxd_passive_dns::Interner::new();
            for (name, _) in &rows {
                black_box(interner.intern_str(name));
            }
            black_box(interner.heap_bytes())
        })
    });
    g.bench_function("no_interning_strings", |b| {
        b.iter(|| {
            let mut v: Vec<String> = Vec::with_capacity(rows.len());
            for (name, _) in &rows {
                v.push(name.clone());
            }
            black_box(v.len())
        })
    });
    g.finish();
}

fn bench_idn_and_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("extensions");
    g.bench_function("punycode/encode", |b| {
        b.iter(|| black_box(nxd_squat::punycode_encode("pаypal-with-cyrillic-а")))
    });
    g.bench_function("punycode/decode", |b| {
        let encoded = nxd_squat::punycode_encode("pаypal-with-cyrillic-а").unwrap();
        b.iter(|| black_box(nxd_squat::punycode_decode(&encoded)))
    });
    g.bench_function("idn/homosquats(paypal.com)", |b| {
        b.iter(|| black_box(nxd_squat::idn_homosquats("paypal.com")))
    });
    // Stream detector: one client, a 500-name DGA burst.
    let names = all_families()[0].generate(3, (2022, 1, 1), 500);
    g.bench_function("stream_detector/burst_500", |b| {
        b.iter(|| {
            let mut d = nxd_dga::StreamDetector::new(300, DgaDetector::default());
            for (i, n) in names.iter().enumerate() {
                black_box(d.observe_nx(1, n, i as u64));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dga,
    bench_squat,
    bench_blocklist,
    bench_passive_ingest,
    bench_idn_and_stream
);
criterion_main!(benches);
