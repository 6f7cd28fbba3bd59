//! Microbenchmarks of the protocol substrates: DNS wire codec (with the
//! compression ablation), HTTP parsing, and the recursive resolver (with
//! the negative-cache ablation — the design choice that determines how many
//! NXDOMAIN storms reach authoritative servers).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::net::Ipv4Addr;

use nxd_dns_sim::{Resolver, ResolverConfig, SimDns, SimDuration, SimTime};
use nxd_dns_wire::{Message, Name, RCode, RData, RType, Record};
use nxd_httpsim::HttpRequest;

fn sample_response() -> Message {
    let qname: Name = "www.example-benchmark.com".parse().unwrap();
    let q = Message::query(0x1234, qname.clone(), RType::A);
    let mut resp = Message::response(&q, RCode::NoError);
    for i in 0..6 {
        resp.answers.push(Record::new(
            qname.clone(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, i)),
        ));
    }
    resp.authorities.push(Record::new(
        "example-benchmark.com".parse().unwrap(),
        86_400,
        RData::Ns("ns1.example-benchmark.com".parse().unwrap()),
    ));
    resp
}

fn bench_wire(c: &mut Criterion) {
    let msg = sample_response();
    let wire = msg.encode().unwrap();
    let mut g = c.benchmark_group("dns-wire");
    g.bench_function("encode_compressed", |b| {
        b.iter(|| black_box(&msg).encode().unwrap())
    });
    g.bench_function("encode_uncompressed", |b| {
        b.iter(|| black_box(&msg).encode_uncompressed().unwrap())
    });
    g.bench_function("decode", |b| {
        b.iter(|| Message::decode(black_box(&wire)).unwrap())
    });
    g.finish();
}

fn bench_http_parse(c: &mut Criterion) {
    let raw = HttpRequest::get("/getTask.php?imei=1-2-3&country=us&model=Nexus%205X")
        .with_header("Host", "gpclick.com")
        .with_header("User-Agent", "Apache-HttpClient/UNAVAILABLE (java 1.4)")
        .with_header("Accept", "*/*")
        .to_bytes();
    c.bench_function("http/parse_request", |b| {
        b.iter(|| HttpRequest::parse(black_box(&raw)).unwrap())
    });
}

fn resolver_world() -> (SimDns, Vec<Name>) {
    let start = SimTime::ERA_START;
    let mut dns = SimDns::new(&["com"], start);
    let mut names = Vec::new();
    for i in 0..64 {
        let name: Name = format!("domain-{i}.com").parse().unwrap();
        if i % 2 == 0 {
            dns.register_domain(&name, "o", "r", 1, Ipv4Addr::new(192, 0, 2, 1))
                .unwrap();
        }
        names.push(name);
    }
    (dns, names)
}

fn bench_resolver(c: &mut Criterion) {
    let (dns, names) = resolver_world();
    let t = SimTime::ERA_START + SimDuration::days(1);
    let mut g = c.benchmark_group("resolver");
    g.bench_function("resolve_cold", |b| {
        // Fresh resolver each batch: every query walks the hierarchy.
        b.iter_batched(
            || Resolver::new(ResolverConfig::default()),
            |mut r| {
                for n in &names {
                    black_box(r.resolve(&dns, n, RType::A, t));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("resolve_warm", |b| {
        let mut r = Resolver::new(ResolverConfig::default());
        for n in &names {
            r.resolve(&dns, n, RType::A, t);
        }
        b.iter(|| {
            for n in &names {
                black_box(r.resolve(&dns, n, RType::A, t + SimDuration::seconds(1)));
            }
        })
    });
    // Ablation: negative cache off — repeated NXDOMAIN queries hit upstream
    // every time (the amplification the paper's sensors observe).
    g.bench_function("resolve_repeat_negcache_off", |b| {
        let mut r = Resolver::new(ResolverConfig {
            negative_cache: false,
            ..Default::default()
        });
        let ghost: Name = "ghost-name.com".parse().unwrap();
        b.iter(|| black_box(r.resolve(&dns, &ghost, RType::A, t)))
    });
    g.bench_function("resolve_repeat_negcache_on", |b| {
        let mut r = Resolver::new(ResolverConfig::default());
        let ghost: Name = "ghost-name.com".parse().unwrap();
        b.iter(|| black_box(r.resolve(&dns, &ghost, RType::A, t)))
    });
    g.finish();
}

fn bench_zonefile_and_pcap(c: &mut Criterion) {
    const ZONE: &str = "$ORIGIN bench.com.\n$TTL 300\n@ IN SOA ns1 host 1 2 3 4 5\n@ IN NS ns1\nns1 IN A 192.0.2.1\nwww IN A 192.0.2.2\nmail IN MX 10 mx1\nalias IN CNAME www\n";
    c.bench_function("zonefile/parse", |b| {
        let apex: Name = "bench.com".parse().unwrap();
        b.iter(|| black_box(nxd_dns_sim::parse_zone(ZONE, &apex).unwrap()))
    });

    // pcap serialization throughput.
    let packets: Vec<nxd_honeypot::Packet> = (0..256)
        .map(|i| {
            nxd_honeypot::Packet::http(
                HttpRequest::get(&format!("/asset-{i}.png"))
                    .with_header("Host", "bench.com")
                    .with_src(Ipv4Addr::new(203, 0, 113, (i % 250) as u8 + 1))
                    .with_port(80)
                    .with_time(1_650_000_000 + i as u64),
            )
        })
        .collect();
    c.bench_function("pcap/write_256_packets", |b| {
        b.iter(|| {
            let mut w = nxd_honeypot::PcapWriter::new(Ipv4Addr::new(192, 0, 2, 80));
            w.write_all(&packets);
            black_box(w.finish().len())
        })
    });
}

criterion_group!(
    benches,
    bench_wire,
    bench_http_parse,
    bench_resolver,
    bench_zonefile_and_pcap
);
criterion_main!(benches);
