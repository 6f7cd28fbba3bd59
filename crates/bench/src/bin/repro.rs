//! `repro` — regenerates every table and figure of the paper at
//! reproduction scale and prints paper-vs-measured comparisons.
//!
//! ```text
//! cargo run -p nxd-bench --bin repro --release -- all
//! cargo run -p nxd-bench --bin repro --release -- fig3 fig7 table1
//! cargo run -p nxd-bench --bin repro --release -- table1 --metrics
//! cargo run -p nxd-bench --bin repro --release -- all --metrics-json m.json --trace-out t.json
//! ```
//!
//! The experiments are the names in [`EXPERIMENTS`], run in the order
//! given; `all` (or no name) runs every one in table order. An unknown name
//! is rejected with the list of known ones and exit status 2 before any
//! world is generated.
//!
//! Observability flags:
//!
//! * `--metrics` — print a per-experiment metrics delta after each
//!   experiment plus the cumulative snapshot at the end (text table).
//! * `--metrics-json <file>` — write the cumulative snapshot as JSON.
//! * `--trace-out <file>` — write the span timeline as Chrome trace-event
//!   JSON (loadable in `chrome://tracing` / Perfetto).
//! * `--shards <N>` — shard count for the `scale-parallel` and
//!   `origin-parallel` experiments. Defaults to auto: picked from the
//!   world's row count and the machine's parallelism via
//!   [`nxd_passive_dns::auto_shard_count`], so small worlds stay on one
//!   shard and large worlds fan out.
//! * `--serve <addr>` — start the live observability plane (nxd-obs) on
//!   `addr` (e.g. `127.0.0.1:9090`, or port 0 for an ephemeral port) before
//!   the first experiment. `/metrics`, `/journal?since=<seq>`, `/spans`,
//!   and `/snapshot.json` update live while experiments run; `/readyz`
//!   flips to 200 once the first experiment completes. The bound address
//!   is printed on stderr.
//! * `--serve-dns <addr>` — bind the live DNS front-end (nxd-serve) on
//!   `addr` (UDP+TCP on the same port; port 0 for ephemeral) over the
//!   serve world's authoritative hierarchy, and keep it answering real
//!   wire queries while the experiments run. Combine with `--serve` to
//!   watch `serve_*` counters and latency histograms live on `/metrics`;
//!   point a stub resolver (`dig`, or `nxdctl dns`) at the printed
//!   address. Every NXDOMAIN it answers lands in a passive-DNS sensor
//!   database whose row count is reported on shutdown. A streaming
//!   engine rides along: the §4 aggregates and sketches update on every
//!   answered query, so with `--serve` the `stream_*` gauges/counters are
//!   live on `/metrics` and `/snapshot.json` *mid-run*. After the
//!   experiments finish the front-end keeps serving until you press
//!   Enter (or stdin reaches EOF, so piped/CI runs exit immediately).

use std::collections::HashMap;
use std::sync::Arc;

use nxd_bench::{era_world_with, honeypot_world_with, origin_db, origin_world, origin_xref_params};
use nxd_blocklist::ThreatCategory;
use nxd_core::report::{bar_series, commas, compare_line, pct, table};
use nxd_core::{origin as origin_analysis, scale, selection};
use nxd_dga::DgaDetector;
use nxd_dns_sim::HijackPolicy;
use nxd_honeypot::TrafficCategory;
use nxd_squat::{SquatClassifier, SquatKind};
use nxd_telemetry::Telemetry;
use nxd_traffic::era::EraWorld;
use nxd_traffic::origin::OriginWorld;
use nxd_traffic::{HoneypotWorld, IN_APP_MIX, PAPER_GRAND_TOTAL, PAPER_TOTALS, TABLE1};

/// An experiment's name and its driver.
type Experiment = (&'static str, fn(&mut Worlds));

/// Every experiment, in `all` order: the one list that both `all` and
/// dispatch read.
const EXPERIMENTS: [Experiment; 26] = [
    ("scalars", scalars),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("table1", table1),
    ("fig10", fig10),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("filter", filter_exp),
    ("hijack", hijack),
    ("selection", selection_exp),
    ("detector", |_| detector_exp()),
    ("sinkhole", |_| sinkhole_exp()),
    ("federation", federation_exp),
    ("exposure", exposure_exp),
    ("market", |_| market_exp()),
    ("analyzer", |_| analyzer_exp()),
    ("scale-parallel", scale_parallel_exp),
    ("origin-parallel", origin_parallel_exp),
    ("stream", stream_exp),
    ("serve-load", |w| serve_load_exp(w.telemetry)),
];

/// The lazily generated worlds the experiments share, plus the run-wide
/// telemetry and `--shards` flag.
struct Worlds<'a> {
    telemetry: &'a Arc<Telemetry>,
    shards: Option<usize>,
    era: Option<EraWorld>,
    origin: Option<OriginWorld>,
    honeypot: Option<(HoneypotWorld, nxd_core::SecurityReport)>,
}

impl<'a> Worlds<'a> {
    fn new(telemetry: &'a Arc<Telemetry>, shards: Option<usize>) -> Self {
        Worlds {
            telemetry,
            shards,
            era: None,
            origin: None,
            honeypot: None,
        }
    }

    fn era(&mut self) -> &EraWorld {
        if self.era.is_none() {
            eprintln!("[repro] generating passive-DNS era world ...");
            self.era = Some(era_world_with(self.telemetry));
        }
        self.era.as_ref().unwrap()
    }

    fn origin(&mut self) -> &OriginWorld {
        if self.origin.is_none() {
            eprintln!("[repro] generating origin population ...");
            let _span = self.telemetry.span("origin.generate");
            self.origin = Some(origin_world());
        }
        self.origin.as_ref().unwrap()
    }

    fn honeypot(&mut self) -> &(HoneypotWorld, nxd_core::SecurityReport) {
        if self.honeypot.is_none() {
            eprintln!("[repro] generating honeypot world + running §6 pipeline ...");
            let world = honeypot_world_with(self.telemetry);
            let report = nxd_core::security::run_with(&world, self.telemetry);
            self.honeypot = Some((world, report));
        }
        self.honeypot.as_ref().unwrap()
    }
}

fn main() {
    let mut metrics = false;
    let mut metrics_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut serve: Option<String> = None;
    let mut serve_dns: Option<String> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--metrics" => metrics = true,
            "--serve" => {
                serve = Some(raw.next().expect("--serve needs a listen address"));
            }
            "--serve-dns" => {
                serve_dns = Some(raw.next().expect("--serve-dns needs a listen address"));
            }
            "--metrics-json" => {
                metrics_json = Some(raw.next().expect("--metrics-json needs a file path"));
            }
            "--trace-out" => {
                trace_out = Some(raw.next().expect("--trace-out needs a file path"));
            }
            "--shards" => {
                shards = Some(
                    raw.next()
                        .expect("--shards needs a count")
                        .parse()
                        .expect("--shards needs an integer"),
                );
            }
            _ => experiments.push(arg),
        }
    }
    let mut runs: Vec<Experiment> = Vec::new();
    for name in &experiments {
        match EXPERIMENTS.iter().find(|(known, _)| known == name) {
            Some(&entry) => runs.push(entry),
            None if name == "all" => {}
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|&(known, _)| known).collect();
                eprintln!(
                    "[repro] unknown experiment {name:?}; known: {} (or all)",
                    known.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        runs = EXPERIMENTS.to_vec();
    }
    let telemetry = Arc::new(Telemetry::wall());
    let server = serve.map(|addr| {
        let server = nxd_obs::ObsServer::bind(&addr, telemetry.clone())
            .unwrap_or_else(|e| panic!("--serve {addr}: {e}"));
        eprintln!(
            "[repro] observability plane listening on http://{}",
            server.local_addr()
        );
        server
    });
    let dns_front = serve_dns.map(|addr| {
        let world = nxd_serve::build_world(&nxd_serve::WorldConfig::default());
        // The live streaming plane: registered on the same telemetry as
        // `--serve`, so `/metrics` and `/snapshot.json` expose the
        // incremental §4 aggregates while the front-end is answering.
        let engine = nxd_passive_dns::StreamEngine::default();
        engine.attach_metrics(&telemetry.registry);
        engine.attach_journal(telemetry.journal.clone());
        let front = nxd_serve::DnsServer::bind(
            &addr as &str,
            world.dns.clone(),
            telemetry.clone(),
            nxd_serve::ServeConfig {
                day: world.day,
                stream: Some(engine.clone()),
                ..nxd_serve::ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("--serve-dns {addr}: {e}"));
        eprintln!(
            "[repro] dns front-end listening on {} (udp+tcp, live stream aggregates attached)",
            front.local_addr()
        );
        (front, engine)
    });
    let mut worlds = Worlds::new(&telemetry, shards);
    for (exp, run) in runs {
        let before = telemetry.snapshot();
        let span = telemetry.span(&format!("repro.{exp}"));
        run(&mut worlds);
        drop(span);
        if let Some(server) = &server {
            // Readiness flips (once) when the first phase completes.
            server.set_ready();
        }
        if metrics {
            let delta = telemetry.snapshot().delta(&before);
            if !delta.is_empty() {
                println!("\n--- metrics delta: {exp} ---");
                print!("{}", delta.to_text_table());
            }
        }
    }
    if metrics {
        heading("TELEMETRY — cumulative metrics snapshot");
        print!("{}", telemetry.snapshot().to_text_table());
    }
    if let Some(path) = metrics_json {
        let json = telemetry.snapshot().to_json();
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[repro] wrote metrics snapshot to {path}");
    }
    if let Some(path) = trace_out {
        let trace = telemetry.tracer.to_chrome_trace();
        std::fs::write(&path, trace).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[repro] wrote Chrome trace to {path}");
    }
    if let Some((front, engine)) = dns_front {
        // Hold the front-end open for interactive use: the README's
        // two-terminal workflow points `nxdctl dns` here after the
        // experiments finish. A piped stdin (CI) is already at EOF, so
        // `read_line` returns immediately and the run stays batch-shaped.
        eprintln!(
            "[repro] dns front-end still serving on {} — press Enter to stop",
            front.local_addr()
        );
        let mut line = String::new();
        let _ = std::io::stdin().read_line(&mut line);
        let db = front.shutdown();
        let snap = engine.snapshot();
        eprintln!(
            "[repro] dns front-end ingested {} passive-DNS rows",
            db.row_count()
        );
        eprintln!(
            "[repro] live stream plane saw {} rows: {} NXDOMAIN responses, \
             {} distinct NXDomains exact / ~{} sketched",
            snap.admitted_rows,
            snap.total_nx_responses,
            snap.distinct_nx_names,
            snap.distinct_nx_estimate
        );
    }
    if let Some(server) = server {
        server.shutdown();
    }
}

fn heading(title: &str) {
    println!("\n=== {title} ===");
}

fn scalars(worlds: &mut Worlds) {
    heading("E-SCALARS — headline counts (§4.1, §4.4, §5.1)");
    let era = worlds.era();
    let report = scale::headline(&era.db);
    println!(
        "{}",
        compare_line(
            "NXDOMAIN responses",
            "1,069,114,764,701",
            &commas(report.total_nx_responses)
        )
    );
    println!(
        "{}",
        compare_line(
            "distinct NXDomains",
            "146,363,745,785",
            &commas(report.distinct_nx_names)
        )
    );
    println!(
        "{}",
        compare_line(
            ">5y-NX names (§4.4)",
            "1,018,964",
            &commas(report.five_year_names)
        )
    );
    println!(
        "{}",
        compare_line(
            ">5y-NX queries (§4.4)",
            "107,020,820",
            &commas(report.five_year_queries)
        )
    );
    let era = worlds.era();
    let join = origin_analysis::whois_join(&era.db, &era.whois);
    println!(
        "{}",
        compare_line(
            "NXDomains with WHOIS history",
            "91,545,561 (0.06%)",
            &format!(
                "{} ({:.3}%)",
                commas(join.with_history),
                join.expired_fraction * 100.0
            ),
        )
    );
    println!(
        "note: the expired panel is oversampled vs the paper's 0.06% so that Figs. 6-8 have\n\
         statistical mass at laptop scale; EraConfig::paper_proportions() gives the honest ratio."
    );
    let (passed, total) = worlds.era().consistency;
    println!("resolver/registry consistency subsample: {passed}/{total} agree");
}

fn fig3(worlds: &mut Worlds) {
    heading("Fig. 3 — average NXDOMAIN responses per month, by year");
    let series = scale::fig3(&worlds.era().db);
    let display: Vec<(String, f64)> = series.iter().map(|&(y, v)| (y.to_string(), v)).collect();
    print!("{}", bar_series(&display, 48));
    println!("paper shape: rise 2014-2016, flat to 2020, jump 2021 (~20B/mo), 2022 >22B/mo");
}

fn fig4(worlds: &mut Worlds) {
    heading("Fig. 4 — top-20 TLDs by NXDomain count and query volume");
    let dist = scale::fig4(&worlds.era().db, 20);
    let rows: Vec<Vec<String>> = dist
        .iter()
        .map(|t| vec![t.tld.clone(), commas(t.nx_names), commas(t.nx_queries)])
        .collect();
    print!("{}", table(&["tld", "nx names", "nx queries"], &rows));
    println!("paper top-5: com, net, cn, ru, org (names and queries align)");
}

fn fig5(worlds: &mut Worlds) {
    heading("Fig. 5 — NXDomains and queries vs days in NX status (0-60)");
    let hist = scale::fig5(&worlds.era().db);
    let rows: Vec<Vec<String>> = hist
        .iter()
        .step_by(5)
        .map(|b| vec![b.day_offset.to_string(), commas(b.names), commas(b.queries)])
        .collect();
    print!("{}", table(&["day", "names", "queries"], &rows));
    println!("paper shape: steep decay in the first ten days, slow tail after");
}

fn fig6(worlds: &mut Worlds) {
    heading("Fig. 6 — avg queries per domain, 60 d before to 120 d after expiry");
    let era = worlds.era();
    let series = scale::fig6(&era.db, &era.expiry_days);
    let sampled: Vec<(String, f64)> = series
        .iter()
        .filter(|&&(o, _)| o % 10 == 0)
        .map(|&(o, v)| (format!("{o:+}d"), v))
        .collect();
    print!("{}", bar_series(&sampled, 48));
    println!("paper shape: drop at expiry, spike ≈ +30 d exceeding pre-expiry, then decline");
}

fn fig7(worlds: &mut Worlds) {
    heading("Fig. 7 — squatting NXDomains by type (classifier output)");
    let world = worlds.origin();
    let classifier = SquatClassifier::default();
    let counts =
        origin_analysis::squat_scan(world.domains.iter().map(|d| d.name.as_str()), &classifier);
    let paper: HashMap<SquatKind, u64> = [
        (SquatKind::Typo, 45_175),
        (SquatKind::Combo, 38_900),
        (SquatKind::Dot, 6_090),
        (SquatKind::Bit, 313),
        (SquatKind::Homo, 126),
    ]
    .into();
    let rows: Vec<Vec<String>> = SquatKind::ALL
        .iter()
        .map(|k| {
            vec![
                k.label().to_string(),
                commas(paper[k]),
                commas(counts.get(k).copied().unwrap_or(0)),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["type", "paper", "measured (population /1000)"], &rows)
    );
}

fn fig8(worlds: &mut Worlds) {
    heading("Fig. 8 — blocklisted NXDomains by category (rate-limited xref)");
    let world = worlds.origin();
    // Paper: 20 M of 91 M sampled due to the API rate limit; same ratio here.
    let sample = world.domains.len() * 20 / 91;
    let xref = origin_analysis::blocklist_xref(
        world.domains.iter().map(|d| d.name.as_str()),
        &world.blocklist,
        sample,
        500,
        200,
    );
    let paper: [(ThreatCategory, u64, &str); 4] = [
        (ThreatCategory::Malware, 382_135, "79%"),
        (ThreatCategory::Grayware, 42_050, "9%"),
        (ThreatCategory::Phishing, 39_834, "8%"),
        (ThreatCategory::CommandAndControl, 19_868, "4%"),
    ];
    let total_hits: u64 = xref.hits.values().sum();
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(cat, p, ppct)| {
            let got = xref.hits.get(&cat).copied().unwrap_or(0);
            vec![
                cat.label().to_string(),
                format!("{} ({ppct})", commas(p)),
                format!("{} ({})", commas(got), pct(got, total_hits)),
            ]
        })
        .collect();
    print!("{}", table(&["category", "paper", "measured"], &rows));
    println!(
        "sampled {} of {} domains; rate limiter forced {} one-second backoffs",
        commas(xref.queried),
        commas(world.domains.len() as u64),
        commas(xref.rate_limited_rejections)
    );
}

fn table1(worlds: &mut Worlds) {
    heading("Table 1 — HTTP/HTTPS traffic by category (filtered + categorized)");
    let (world, report) = worlds.honeypot();
    let scale_div = world.config.scale;
    let col = |counts: &HashMap<TrafficCategory, u64>, c: TrafficCategory| {
        counts.get(&c).copied().unwrap_or(0).to_string()
    };
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                format!(
                    "{}{}",
                    r.spec.name,
                    if r.spec.malicious { " *" } else { "" }
                ),
                col(&r.counts, TrafficCategory::SearchEngineCrawler),
                col(&r.counts, TrafficCategory::FileGrabber),
                col(&r.counts, TrafficCategory::ScriptSoftware),
                col(&r.counts, TrafficCategory::MaliciousRequest),
                col(&r.counts, TrafficCategory::ReferralSearchEngine),
                col(&r.counts, TrafficCategory::ReferralEmbedded),
                col(&r.counts, TrafficCategory::ReferralMalicious),
                col(&r.counts, TrafficCategory::UserPcMobile),
                col(&r.counts, TrafficCategory::UserInApp),
                col(&r.counts, TrafficCategory::Other),
                r.total.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "domain (* = malicious)",
                "SE",
                "FileGrab",
                "Script",
                "MalReq",
                "Ref:SE",
                "Ref:Emb",
                "Ref:Mal",
                "User",
                "InApp",
                "Others",
                "total"
            ],
            &rows
        )
    );
    println!(
        "{}",
        compare_line(
            &format!("grand total (paper / {scale_div})"),
            &commas(PAPER_GRAND_TOTAL / scale_div),
            &commas(report.grand_total),
        )
    );
    for (label, paper_total, cat) in [
        (
            "script & software",
            PAPER_TOTALS.script_software,
            TrafficCategory::ScriptSoftware,
        ),
        (
            "malicious request",
            PAPER_TOTALS.malicious_request,
            TrafficCategory::MaliciousRequest,
        ),
        (
            "file grabber",
            PAPER_TOTALS.file_grabber,
            TrafficCategory::FileGrabber,
        ),
        (
            "search engine",
            PAPER_TOTALS.search_engine,
            TrafficCategory::SearchEngineCrawler,
        ),
    ] {
        println!(
            "{}",
            compare_line(
                &format!("{label} (paper / {scale_div})"),
                &commas(paper_total / scale_div),
                &commas(report.totals.get(&cat).copied().unwrap_or(0)),
            )
        );
    }
    let _ = TABLE1; // calibration table is embedded in nxd-traffic
}

fn fig10(worlds: &mut Worlds) {
    heading("Fig. 10 — port histograms: (a) NXDomains after filtering, (b) control");
    let (_, report) = worlds.honeypot();
    let a: Vec<Vec<String>> = report
        .ports_nxdomain
        .iter()
        .take(8)
        .map(|&(p, n)| {
            vec![
                format!("{p} ({})", nxd_honeypot::port_service(p)),
                commas(n),
            ]
        })
        .collect();
    print!("{}", table(&["port (a: NXDomains)", "packets"], &a));
    let b: Vec<Vec<String>> = report
        .ports_control
        .iter()
        .take(8)
        .map(|&(p, n)| {
            vec![
                format!("{p} ({})", nxd_honeypot::port_service(p)),
                commas(n),
            ]
        })
        .collect();
    print!("{}", table(&["port (b: control)", "packets"], &b));
    println!("paper: 80/443 dominate (a); port 52646 (AWS monitor) dominates (b) and is filtered from (a)");
}

fn fig12(worlds: &mut Worlds) {
    heading("Fig. 12 — example malicious request to gpclick.com (masked)");
    let (_, report) = worlds.honeypot();
    println!("{}", report.botnet.example_request);
    println!("paper example: /getTask.php?imei=A-BBBBBB-CCCCCC-D&balance=0&country=us&phone=+1…&op=Android&mnc=220&mcc=310&model=Nexus%205X&os=23");
}

fn fig13(worlds: &mut Worlds) {
    heading("Fig. 13 — in-app browsers among user visits");
    let (_, report) = worlds.honeypot();
    let total: u64 = report.in_app_mix.iter().map(|&(_, n)| n).sum();
    let paper_total: u64 = IN_APP_MIX.iter().map(|&(_, n)| n).sum();
    let rows: Vec<Vec<String>> = IN_APP_MIX
        .iter()
        .map(|&(app, p)| {
            let got = report
                .in_app_mix
                .iter()
                .find(|(a, _)| a == app)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            vec![
                app.to_string(),
                format!("{} ({})", commas(p), pct(p, paper_total)),
                format!("{} ({})", commas(got), pct(got, total)),
            ]
        })
        .collect();
    print!("{}", table(&["app", "paper", "measured"], &rows));
}

fn fig14(worlds: &mut Worlds) {
    heading("Fig. 14 — gpclick victim phone country codes (by continent)");
    let (_, report) = worlds.honeypot();
    let b = &report.botnet;
    println!(
        "distinct phone numbers: {} (paper: 55,829)",
        commas(b.distinct_phones)
    );
    let series: Vec<(String, f64)> = b
        .countries
        .iter()
        .map(|(c, n)| (c.clone(), *n as f64))
        .collect();
    print!("{}", bar_series(&series, 40));
    let rows: Vec<Vec<String>> = b
        .continents
        .iter()
        .map(|&(c, n)| vec![c.to_string(), commas(n)])
        .collect();
    print!("{}", table(&["continent", "requests"], &rows));
    println!(
        "paper: victims span Europe, Asia, America, Oceania — not only Russian-speaking countries"
    );
}

fn fig15(worlds: &mut Worlds) {
    heading("Fig. 15 — gpclick source hostname classes");
    let (_, report) = worlds.honeypot();
    let b = &report.botnet;
    let rows: Vec<Vec<String>> = b
        .hostname_classes
        .iter()
        .map(|(h, n)| vec![h.clone(), commas(*n), pct(*n, b.total_requests)])
        .collect();
    print!("{}", table(&["hostname class", "requests", "share"], &rows));
    println!("paper: google-proxy 527,226 = 56.1% of 939,420 malicious requests");
}

fn filter_exp(worlds: &mut Worlds) {
    heading("E-FILTER — two-step noise filter efficacy (§6.1 / Fig. 9)");
    let (_, report) = worlds.honeypot();
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.spec.name.to_string(),
                commas(r.filter.input),
                commas(r.filter.dropped_no_hosting),
                commas(r.filter.dropped_control),
                commas(r.filter.kept),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["domain", "input", "drop:no-hosting", "drop:control", "kept"],
            &rows
        )
    );
}

fn hijack(worlds: &mut Worlds) {
    heading("E-HIJACK — NXDOMAIN hijack sensitivity (§7)");
    let db = &worlds.era().db;
    for rate in [0u16, 48, 200, 500] {
        let policy = HijackPolicy {
            rate_permille: rate,
            ..HijackPolicy::paper_rate(17)
        };
        let (visible, hidden, fraction) = scale::hijack_sensitivity(db, &policy);
        println!(
            "hijack rate {:>5.1}% → visible {} hidden {} ({:.1}% of signal lost)",
            rate as f64 / 10.0,
            commas(visible),
            commas(hidden),
            fraction * 100.0
        );
    }
    println!("paper: 4.8% wild hijack rate — marginal signal loss, study unbiased");
}

fn selection_exp(worlds: &mut Worlds) {
    heading("E-SELECT — §3.3 honeypot domain selection");
    let world = worlds.era();
    let as_of = nxd_dns_sim::SimTime::ERA_END.day_number() as u32;
    // Paper threshold is 10k queries/month at full (1e-6-scaled) volume;
    // scale with the generated volume instead: top names by sustained rate.
    let criteria = selection::SelectionCriteria {
        min_monthly_queries: 30.0,
        min_nx_days: 182,
        as_of_day: as_of,
        max_selected: 19,
    };
    let picked = selection::select(&world.db, &criteria);
    let rows: Vec<Vec<String>> = picked
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.nx_days.to_string(),
                format!("{:.1}", c.avg_monthly_queries),
                commas(c.total_nx_queries),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["candidate", "nx days", "avg q/mo", "total q"], &rows)
    );
    println!(
        "criteria: ≥6 months in NX status and sustained query volume (paper: >10k/mo, 19 picked)"
    );
}

fn exposure_exp(worlds: &mut Worlds) {
    heading("E-SEC64 — §6.4 exposure surfaces per domain");
    let (world, _) = worlds.honeypot();
    let report = nxd_core::exposure_report(world);
    let rows: Vec<Vec<String>> = report
        .iter()
        .map(|e| {
            vec![
                e.domain.clone(),
                commas(e.automated_downloads),
                commas(e.email_fetches),
                commas(e.polling_streams),
                commas(e.injection_surface()),
                commas(e.referral_visits),
                commas(e.user_visits),
                commas(e.residual_trust_surface()),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "domain",
                "auto-dl",
                "email",
                "polling",
                "INJECTION",
                "referral",
                "users",
                "RESIDUAL-TRUST"
            ],
            &rows
        )
    );
    println!("paper §6.4: botnet takeover + malicious file injection + residual trust, quantified");
}

fn market_exp() {
    heading("E-MARKET — expired-domain market: drop-catch vs public re-registration (§2/§8.2)");
    let report = nxd_core::reregistration_market(2_000, 250, 400, 45, 0xA1);
    println!(
        "{} domains: {} drop-caught at release, {} publicly re-registered, {} never (the NXDomain pool)",
        report.domains, report.drop_caught, report.public_reregistered, report.never_reregistered
    );
    println!("re-registration gap CDF (days → fraction of released domains):");
    for (days, fraction) in &report.gap_cdf {
        println!("  ≤{days:>3} d: {:.1}%", fraction * 100.0);
    }
    if let Some(median) = report.median_gap_days {
        println!("median gap among re-registered: {median} days");
    }
    println!(
        "Lauinger et al.: re-registrations cluster at release (drop-catch); long tail stays NX"
    );
}

fn sinkhole_exp() {
    heading("E-SINKHOLE — DGA takedown via NXDomain sinkholing (§7 extension)");
    let report = nxd_core::sinkhole_takedown(25, 40, 0xB07);
    println!(
        "watchlist: {} candidate names (one family, one day)",
        report.watched_names
    );
    println!(
        "redirected {} queries; identified {}/{} bots with {} false positives",
        commas(report.redirected as u64),
        report.bots_detected,
        report.bots_total,
        report.false_positives
    );
    println!("paper §7: \"sinkhole NXDomain traffic to dedicated analysis servers\" — done");
}

fn federation_exp(worlds: &mut Worlds) {
    heading("E-FEDERATION — multi-provider coverage & contributor bias (§7 extension)");
    let coverage = nxd_core::federation_report(worlds.era());
    let rows: Vec<Vec<String>> = coverage
        .iter()
        .map(|c| {
            vec![
                c.provider.clone(),
                commas(c.nx_names),
                commas(c.nx_responses),
                commas(c.unique_names),
                format!("{:.2}", c.jaccard_vs_union),
                format!("{:.3}", c.tld_bias_l1),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "provider",
                "nx names",
                "nx responses",
                "unique",
                "coverage",
                "tld-bias L1"
            ],
            &rows
        )
    );
    println!("paper §7: single-provider bias is real — regional networks deviate in TLD mix");
}

/// Resolves the `--shards` flag: an explicit count wins; otherwise the
/// auto heuristic sizes the fan-out from the world and this machine.
fn resolve_shards(flag: Option<usize>, rows: usize) -> (usize, &'static str) {
    match flag {
        Some(n) => (n.max(1), ""),
        None => (nxd_passive_dns::auto_shard_count_here(rows), ", auto"),
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock timings printed for the operator; results never depend on them"
)]
fn scale_parallel_exp(worlds: &mut Worlds) {
    use nxd_passive_dns::query;
    use std::time::Instant;

    let flag = worlds.shards;
    let era = worlds.era();
    let (shards, picked) = resolve_shards(flag, era.db.row_count());
    heading(&format!(
        "E-SCALE-PARALLEL — sharded store vs query oracle ({shards} shards{picked})"
    ));
    let expiry_strings: HashMap<String, u32> = era
        .expiry_days
        .iter()
        .map(|(&id, &day)| (era.db.interner().resolve(id).to_string(), day))
        .collect();

    // Headline, Fig. 3, Fig. 4 top-20, Fig. 5 and Fig. 6, as `core::scale`
    // parameterizes them.
    let t0 = Instant::now();
    let db = &era.db;
    let mut top20 = query::tld_distribution(db);
    top20.truncate(20);
    let oracle = (
        query::total_nx_responses(db),
        query::distinct_nx_names(db),
        query::long_lived_nx(db, 5 * 365),
        query::yearly_avg_monthly_nx(db),
        top20,
        query::lifespan_histogram(db, 60),
        query::expiry_aligned_series(db, &era.expiry_days, 60, 120),
    );
    let serial_elapsed = t0.elapsed();

    let t1 = Instant::now();
    let store = nxd_passive_dns::ShardedStore::from_db(db, shards);
    let partition_elapsed = t1.elapsed();

    let t2 = Instant::now();
    let summary = store.summary();
    let mut top20 = summary.tld_distribution();
    top20.truncate(20);
    let sharded = (
        summary.total_nx_responses(),
        summary.distinct_nx_names(),
        store.long_lived_nx(5 * 365),
        summary.yearly_avg_monthly_nx(),
        top20,
        store.lifespan_histogram(60),
        store.expiry_aligned_series(&expiry_strings, 60, 120),
    );
    let sharded_elapsed = t2.elapsed();

    assert_eq!(
        sharded, oracle,
        "sharded store diverged from the query oracle"
    );
    println!(
        "headline + Figs. 3-6 bit-identical to the query oracle across {} shards ({} rows, {} names)",
        store.shard_count(),
        commas(store.row_count() as u64),
        commas(store.distinct_names() as u64),
    );
    let speedup = serial_elapsed.as_secs_f64() / sharded_elapsed.as_secs_f64().max(1e-9);
    println!(
        "oracle suite {:>9.3} ms | partition {:>9.3} ms | sharded suite {:>9.3} ms | speedup {speedup:.2}x",
        serial_elapsed.as_secs_f64() * 1e3,
        partition_elapsed.as_secs_f64() * 1e3,
        sharded_elapsed.as_secs_f64() * 1e3,
    );
    let per_shard: Vec<String> = store
        .shards()
        .iter()
        .map(|s| commas(s.row_count() as u64))
        .collect();
    println!("rows per shard: [{}]", per_shard.join(", "));
}

#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock timings printed for the operator; results never depend on them"
)]
fn origin_parallel_exp(worlds: &mut Worlds) {
    use std::time::Instant;

    let telemetry = worlds.telemetry;
    let flag = worlds.shards;
    let world = worlds.origin();
    let db = origin_db(world);
    let (shards, picked) = resolve_shards(flag, db.row_count());
    heading(&format!(
        "E-ORIGIN-PARALLEL — fused §5 engine vs serial four-pass ({shards} shards{picked})"
    ));
    let detector = DgaDetector::default();
    let classifier = SquatClassifier::default();
    let pipeline = nxd_core::OriginPipeline {
        whois: &world.whois,
        detector: &detector,
        classifier: &classifier,
        blocklist: &world.blocklist,
        xref: origin_xref_params(db.distinct_names()),
    };

    let t0 = Instant::now();
    let serial = pipeline.run_serial(&db);
    let serial_elapsed = t0.elapsed();

    let t1 = Instant::now();
    let store = nxd_passive_dns::ShardedStore::from_db(&db, shards);
    let partition_elapsed = t1.elapsed();

    let t2 = Instant::now();
    let bare = pipeline.run(&store);
    let bare_elapsed = t2.elapsed();

    let t3 = Instant::now();
    let fused = pipeline.run_with(&store, telemetry);
    let instrumented_elapsed = t3.elapsed();

    assert_eq!(bare, serial, "OriginPipeline::run diverged from run_serial");
    assert_eq!(
        fused, serial,
        "OriginPipeline::run_with diverged from run_serial"
    );
    println!(
        "all four §5 legs bit-identical across {} shards ({} names)",
        store.shard_count(),
        commas(store.distinct_names() as u64),
    );
    println!(
        "whois: {} with history / {} without ({:.3}% expired)",
        commas(fused.whois.with_history),
        commas(fused.whois.without_history),
        fused.whois.expired_fraction * 100.0
    );
    println!(
        "dga: {} flagged ({:.2}%)",
        commas(fused.dga_flagged),
        fused.dga_fraction * 100.0
    );
    let squats: Vec<String> = SquatKind::ALL
        .iter()
        .filter_map(|k| fused.squat.get(k).map(|n| format!("{} {}", k.label(), n)))
        .collect();
    println!("squats: [{}]", squats.join(", "));
    println!(
        "xref: {} queried, {} blocklist hits, {} rate-limit backoffs",
        commas(fused.xref.queried),
        commas(fused.xref.hits.values().sum::<u64>()),
        commas(fused.xref.rate_limited_rejections)
    );
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    println!("partition {:>9.3} ms", ms(partition_elapsed));
    let speedup = serial_elapsed.as_secs_f64() / bare_elapsed.as_secs_f64().max(1e-9);
    println!(
        "run_serial {:>9.3} ms | run {:>9.3} ms | run_with {:>9.3} ms | speedup (run vs run_serial) {speedup:.2}x",
        ms(serial_elapsed),
        ms(bare_elapsed),
        ms(instrumented_elapsed),
    );
}

fn detector_exp() {
    heading("E-DGA — detector quality (replaces the commercial oracle)");
    let detector = DgaDetector::default();
    let dga_names: Vec<String> = nxd_dga::all_families()
        .iter()
        .flat_map(|f| f.generate(0xD6A, (2021, 6, 1), 500))
        .collect();
    let ev = detector.evaluate(
        nxd_dga::corpus::BENIGN_DOMAINS.iter().copied(),
        dga_names.iter().map(|s| s.as_str()),
    );
    println!(
        "precision {:.3}  recall {:.3}  f1 {:.3}",
        ev.precision(),
        ev.recall(),
        ev.f1()
    );
    println!(
        "tp {} fp {} tn {} fn {}",
        ev.true_positives, ev.false_positives, ev.true_negatives, ev.false_negatives
    );
    println!("(recall includes the deliberately evasive dictionary/markov families)");
}

fn analyzer_exp() {
    use nxd_analyzer::Analyzer;
    use nxd_dns_sim::{Resolver, ResolverConfig, ServerRef, SimDns, SimDuration, SimTime};
    use nxd_dns_wire::{Message, Name, RType};

    heading("E-ANALYZER — RFC-conformance sweep of the simulated ecosystem");
    let start = SimTime::ERA_START;
    let mut dns = SimDns::new(&["com", "net", "org"], start);
    let domains = ["alpha.com", "beta.net", "gamma.org"];
    for (i, d) in domains.iter().enumerate() {
        let name: Name = d.parse().expect("static name");
        dns.register_domain(
            &name,
            "owner",
            "registrar",
            1,
            std::net::Ipv4Addr::new(192, 0, 2, 10 + i as u8),
        )
        .expect("registrable");
    }
    let analyzer = Analyzer::new();

    // Wire pass: every authoritative server answers hits, misses, and NODATA.
    let mut messages = 0u32;
    let mut high = 0usize;
    let mut medium = 0usize;
    let mut low = 0usize;
    let mut servers = vec![ServerRef::Root];
    servers.extend(
        ["com", "net", "org"]
            .iter()
            .map(|t| ServerRef::Tld((*t).to_string())),
    );
    servers.extend(
        domains
            .iter()
            .map(|d| ServerRef::Auth(d.parse().expect("static name"))),
    );
    for server in &servers {
        for qname in ["www.alpha.com", "ghost.alpha.com", "nosuch.zz"] {
            for qtype in [RType::A, RType::Mx] {
                let query =
                    Message::query(messages as u16, qname.parse().expect("static name"), qtype);
                let wire = dns
                    .respond(server, &query.encode().expect("encodable"))
                    .expect("valid query");
                let report = analyzer.analyze_bytes(&wire).expect("decodable response");
                high += report.high_count();
                medium += report.at_severity(nxd_analyzer::Severity::Medium).count();
                low += report.at_severity(nxd_analyzer::Severity::Low).count();
                messages += 1;
            }
        }
    }

    // Zone pass over every zone the hierarchy serves.
    let mut zones = 0u32;
    for zone in dns.zones() {
        let report = analyzer.analyze_zone(zone);
        high += report.high_count();
        medium += report.at_severity(nxd_analyzer::Severity::Medium).count();
        low += report.at_severity(nxd_analyzer::Severity::Low).count();
        zones += 1;
    }

    // Trace pass over a recursive workload with negative-cache churn.
    let mut resolver = Resolver::new(ResolverConfig {
        record_trace: true,
        ..Default::default()
    });
    for dt in 0..600u64 {
        let qname: Name = if dt % 3 == 0 {
            "www.alpha.com"
        } else {
            "dead.net"
        }
        .parse()
        .expect("static name");
        resolver.resolve(&dns, &qname, RType::A, start + SimDuration::seconds(dt * 7));
    }
    let trace = resolver.take_trace();
    let trace_report = analyzer.analyze_trace(&trace);
    high += trace_report.high_count();
    medium += trace_report
        .at_severity(nxd_analyzer::Severity::Medium)
        .count();
    low += trace_report
        .at_severity(nxd_analyzer::Severity::Low)
        .count();

    println!(
        "checked {messages} wire responses, {zones} zones, {} trace events against {} rules",
        trace.len(),
        nxd_analyzer::catalog().len()
    );
    println!("diagnostics: high {high}  medium {medium}  low {low}");
    assert_eq!(
        high, 0,
        "strict mode broken: the simulated ecosystem emitted high-severity violations"
    );
    println!("strict mode holds: the simulated ecosystem emits zero high-severity violations");

    // The paper's pathology on demand: disable RFC 2308 negative caching and
    // watch the trace rules light up.
    let mut broken = Resolver::new(ResolverConfig {
        negative_cache: false,
        record_trace: true,
        ..Default::default()
    });
    for dt in 0..20u64 {
        broken.resolve(
            &dns,
            &"dead.net".parse().expect("static name"),
            RType::A,
            start + SimDuration::seconds(dt),
        );
    }
    let mut ablation = broken.take_trace();
    for ev in &mut ablation {
        if !ev.from_cache && ev.negative_ttl.is_none() {
            ev.negative_ttl = Some(nxd_dns_sim::DEFAULT_NEGATIVE_TTL);
        }
    }
    let ablation_report = analyzer.analyze_trace(&ablation);
    assert!(
        ablation_report.high_count() > 0,
        "negative-cache ablation went unflagged: the trace rules no longer see re-queries"
    );
    println!(
        "ablation (negative_cache off): {} requery-inside-negative-ttl violations in 20 queries",
        ablation_report.high_count()
    );
}

#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock timings printed for the operator; results never depend on them"
)]
fn stream_exp(worlds: &mut Worlds) {
    use std::time::Instant;

    use nxd_dns_wire::RCode;
    use nxd_passive_dns::stream::WindowConfig;
    use nxd_passive_dns::{
        collect_stream, query, PassiveDb, SieProducer, StreamConfig, StreamEngine,
    };

    heading("E-STREAM — incremental window aggregates vs batch oracle (§4, live)");
    let era = worlds.era();
    // Replay the era corpus in event-time order, split into four sensor
    // partitions (every fourth row) — the live-sensor shape: mostly-ordered
    // arrivals with interleaving. One producer submits the partitions'
    // 512-row batches round-robin; racing producer threads would let the
    // scheduler decide which rows fall behind the watermark, and the late
    // tally and sketch would change from run to run.
    let mut rows: Vec<(String, u32, u16, u8, u32)> = era
        .db
        .rows()
        .map(|o| {
            (
                era.db.interner().resolve(o.name).to_string(),
                o.day,
                o.sensor,
                o.rcode,
                o.count,
            )
        })
        .collect();
    rows.sort_by_key(|&(_, day, _, _, _)| day);
    let total_rows = rows.len();

    // Monthly windows with a sensor-federation lateness tolerance: batch
    // interleaving across partitions skews arrival order by a few batches,
    // so the tolerance must cover a few batches' worth of event time.
    let engine = StreamEngine::new(StreamConfig {
        window: WindowConfig {
            window_days: 30,
            allowed_lateness_days: 365,
        },
        ..StreamConfig::default()
    });
    let partitions = 4;
    // Partition p's k-th batch is every fourth row, from the p-th, of the
    // k-th block of 4 × 512 sorted rows.
    let producer = move |producer: SieProducer| {
        for block in rows.chunks(512 * partitions) {
            for p in 0..partitions {
                let mut shard = PassiveDb::new();
                for (name, day, sensor, rcode, count) in block.iter().skip(p).step_by(partitions) {
                    shard.record_str(name, *day, *sensor, RCode::from_u8(*rcode), *count);
                }
                producer.submit(shard);
            }
        }
    };

    let t0 = Instant::now();
    let outcome = collect_stream(vec![producer], 2, 4, &engine)
        .unwrap_or_else(|e| panic!("stream collect: {e}"));
    let elapsed = t0.elapsed();
    let snap = engine.snapshot();

    // Exactness: the snapshot must equal the batch oracle over the
    // admitted store, and admitted+late must account for every row.
    assert_eq!(
        outcome.store.row_count() + outcome.late.row_count(),
        total_rows,
        "stream dropped rows"
    );
    let admitted = outcome.store.to_serial();
    assert_eq!(snap.rcode_breakdown, query::rcode_breakdown(&admitted));
    assert_eq!(
        snap.total_nx_responses,
        query::total_nx_responses(&admitted)
    );
    assert_eq!(snap.distinct_nx_names, query::distinct_nx_names(&admitted));
    assert_eq!(snap.monthly_nx, query::monthly_nx_series(&admitted));
    assert_eq!(snap.nx_by_sensor, query::nx_by_sensor(&admitted));
    assert_eq!(snap.tld_distribution, query::tld_distribution(&admitted));
    println!(
        "snapshot ≡ batch oracle over {} admitted rows ({} windows closed, {} still open)",
        commas(snap.admitted_rows),
        commas(snap.windows_closed),
        commas(snap.windows_open),
    );
    println!(
        "late side-tally: {} rows / {} responses ({} NXDOMAIN) beyond the watermark",
        commas(snap.late.rows),
        commas(snap.late.responses),
        commas(snap.late.nx_responses),
    );

    // Approximate plane vs exact: top TLDs by NX query weight.
    let mut exact_tlds = snap.tld_distribution.clone();
    exact_tlds.sort_by(|a, b| b.nx_queries.cmp(&a.nx_queries).then(a.tld.cmp(&b.tld)));
    let table_rows: Vec<Vec<String>> = snap
        .top_tlds
        .iter()
        .take(5)
        .map(|e| {
            let exact = exact_tlds
                .iter()
                .find(|t| t.tld == e.item)
                .map(|t| t.nx_queries)
                .unwrap_or(0);
            vec![
                e.item.clone(),
                commas(e.count),
                commas(exact),
                commas(e.error),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["tld (top-k)", "estimate", "exact", "±error"], &table_rows)
    );
    println!(
        "distinct NXDomains: sketch ~{} vs exact {} (theoretical σ {:.2}%), {} sketch bytes",
        commas(snap.distinct_nx_estimate),
        commas(snap.distinct_nx_names),
        snap.distinct_standard_error * 100.0,
        commas(snap.approx_heap_bytes as u64),
    );
    let rate = total_rows as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "ingested {} rows as {} interleaved partitions in {:.3} ms — {:.0} rows/s",
        commas(total_rows as u64),
        partitions,
        elapsed.as_secs_f64() * 1e3,
        rate,
    );
    println!("paper §4: the scale aggregates are queryable while ingest is still running");
}

fn serve_load_exp(telemetry: &Arc<Telemetry>) {
    use nxd_dns_wire::RCode;

    heading("E-SERVE-LOAD — live DNS front-end vs offline ingest (§3 sensor path)");
    let world = nxd_serve::build_world(&nxd_serve::WorldConfig::default());
    let front = nxd_serve::DnsServer::bind(
        "127.0.0.1:0",
        world.dns.clone(),
        telemetry.clone(),
        nxd_serve::ServeConfig {
            day: world.day,
            ..nxd_serve::ServeConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("serve-load bind: {e}"));
    eprintln!("[repro] serve-load front-end on {}", front.local_addr());
    let report = nxd_serve::loadgen::run(
        front.local_addr(),
        &world,
        &nxd_serve::LoadConfig::default(),
        telemetry,
    )
    .unwrap_or_else(|e| panic!("serve-load fleet: {e}"));
    let served = front.shutdown();

    assert_eq!(report.failures, 0, "unanswered queries: {report:?}");
    let offline = nxd_serve::offline_reference(&world, world.day, 0);
    nxd_serve::ingest_parity(&served, &offline)
        .unwrap_or_else(|e| panic!("served/offline ingest diverged: {e}"));

    println!(
        "{} queries ({} udp, {} tcp) answered at {:.0} qps, {} retransmits",
        commas(report.queries),
        commas(report.udp_queries),
        commas(report.tcp_queries),
        report.qps(),
        commas(report.retransmits),
    );
    let rows: Vec<Vec<String>> = report
        .rcodes
        .iter()
        .map(|(&code, &n)| vec![format!("{:?}", RCode::from_u8(code)), commas(n)])
        .collect();
    print!("{}", table(&["rcode", "responses"], &rows));
    let p50 = report.latency.quantile(0.5).unwrap_or(0);
    let p99 = report.latency.quantile(0.99).unwrap_or(0);
    println!(
        "per-query latency: p50 {}ns, p99 {}ns",
        commas(p50),
        commas(p99)
    );
    println!(
        "served-ingest ≡ offline-ingest over {} passive-DNS rows",
        commas(served.row_count() as u64)
    );
    println!("paper §3: live sensors stream NXDOMAINs into the passive-DNS plane — reproduced");
}
