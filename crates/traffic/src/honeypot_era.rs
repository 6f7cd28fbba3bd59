//! The six-month honeypot experiment workload (§6).
//!
//! For each of the 19 registered domains, actors emit raw HTTP requests and
//! probe packets whose *shape* (User-Agents, referers, URIs, source ranges)
//! matches what the paper observed; Table 1's cell counts (scaled by
//! `1/scale`) calibrate the volumes. The generator also produces the
//! no-hosting baseline and control-group captures that §6.1's filter is
//! built from — including the noise (cloud scanners, the AWS port-52646
//! monitor, ACME validators) that the filter must remove.

use std::net::Ipv4Addr;

use nxd_dns_sim::{ReverseDns, SimTime};
use nxd_honeypot::{Packet, Transport, WebFilter};
use nxd_httpsim::HttpRequest;
use nxd_passive_dns::hash::fnv1a;
use nxd_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actors::{crawler_ua, email_ua, in_app_ua, IpPool, MOBILE_UAS, PC_UAS, SCRIPT_UAS};
use crate::botnet;
use crate::table1::{DomainSpec, IN_APP_MIX, TABLE1};

/// Collection length in days: the paper's six-month run.
const DAYS: u64 = 183;
/// Experiment start, 2022-01-01T00:00:00Z.
const START: SimTime = SimTime(1_640_995_200);

/// Configuration for the honeypot-era generator.
#[derive(Debug, Clone)]
pub struct HoneypotConfig {
    pub seed: u64,
    /// Volume divisor applied to Table 1's cells (1 = paper scale).
    pub scale: u64,
}

impl Default for HoneypotConfig {
    fn default() -> Self {
        HoneypotConfig {
            seed: 0x4E58_444F,
            scale: 100,
        }
    }
}

/// The recorded capture of one registered domain's hosting phase.
#[derive(Debug)]
pub struct DomainCapture {
    pub spec: DomainSpec,
    pub packets: Vec<Packet>,
}

/// Everything the §6 analysis pipeline consumes.
pub struct HoneypotWorld {
    pub captures: Vec<DomainCapture>,
    /// No-hosting phase packets (filter step 1 input).
    pub baseline_packets: Vec<Packet>,
    /// Control-group packets (filter step 2 input).
    pub control_packets: Vec<Packet>,
    pub webfilter: WebFilter,
    pub reverse_dns: ReverseDns,
    pub config: HoneypotConfig,
}

/// Scales a Table 1 cell: zero stays zero, anything positive keeps at least
/// one request so the category structure survives any scale.
fn scaled(v: u64, scale: u64) -> u64 {
    if v == 0 {
        0
    } else {
        (v / scale).max(1)
    }
}

/// Generates the full honeypot world.
pub fn generate(config: HoneypotConfig) -> HoneypotWorld {
    generate_with(config, &Telemetry::wall())
}

/// Instrumented variant of [`generate`]: stage spans
/// (`honeypot_era.baseline`, `honeypot_era.control`,
/// `honeypot_era.captures`) on the tracer, and phase packet volumes on the
/// registry as `traffic_honeypot_packets_total{phase=...}`.
pub fn generate_with(config: HoneypotConfig, telemetry: &Telemetry) -> HoneypotWorld {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut reverse_dns = ReverseDns::new();
    IpPool::register_all(&mut reverse_dns);

    // Shared noise infrastructure: one scanner fleet and one monitor address
    // appear in the baseline AND in every later capture, so the filter can
    // learn and remove them.
    let scanner_ips: Vec<Ipv4Addr> = (0..64).map(|_| IpPool::Scanner.draw(&mut rng)).collect();
    let monitor_ip = Ipv4Addr::new(52, 94, 133, 7);
    let acme_ips: Vec<Ipv4Addr> = (0..8).map(|_| IpPool::Acme.draw(&mut rng)).collect();

    // Referral web: pages that genuinely embed links to our domains.
    let mut webfilter = WebFilter::new();
    for spec in &TABLE1 {
        for i in 0..16 {
            webfilter.add_page(
                &format!(
                    "https://forum{i}.example-boards.net/thread/{}",
                    fnv1a(spec.name.as_bytes(), 0) % 10_000 + i
                ),
                [spec.name],
            );
        }
    }
    // Pages that exist but do NOT link to any study domain (crafted referers
    // pointing at them classify as malicious links).
    for i in 0..8 {
        webfilter.add_page(
            &format!("https://blog{i}.example-unrelated.org/post"),
            ["elsewhere.com"],
        );
    }

    let baseline_packets = {
        let _span = telemetry.span("honeypot_era.baseline");
        gen_baseline(&mut rng, &config, &scanner_ips, monitor_ip)
    };
    telemetry.journal.info(
        "traffic.honeypot",
        "no-hosting baseline generated",
        &[("packets", &baseline_packets.len().to_string())],
    );
    let control_packets = {
        let _span = telemetry.span("honeypot_era.control");
        gen_control(&mut rng, &config, &scanner_ips, monitor_ip, &acme_ips)
    };
    telemetry.journal.info(
        "traffic.honeypot",
        "control group generated",
        &[("packets", &control_packets.len().to_string())],
    );

    // Per-domain progress for live observers: the gauge climbs 1..=19 and
    // each capture lands one journal event while the phase is in flight.
    let domains_generated = telemetry
        .registry
        .gauge("traffic_honeypot_domains_generated");
    let captures: Vec<DomainCapture> = {
        let _span = telemetry.span("honeypot_era.captures");
        TABLE1
            .iter()
            .enumerate()
            .map(|(domain_index, spec)| {
                let capture = DomainCapture {
                    spec: *spec,
                    packets: gen_domain(
                        &mut rng,
                        &config,
                        spec,
                        &scanner_ips,
                        monitor_ip,
                        &acme_ips,
                    ),
                };
                domains_generated.set(domain_index as i64 + 1);
                telemetry.journal.debug(
                    "traffic.honeypot",
                    "domain capture generated",
                    &[
                        ("domain", spec.name),
                        ("packets", &capture.packets.len().to_string()),
                    ],
                );
                capture
            })
            .collect()
    };

    let packets = |phase: &str| {
        telemetry
            .registry
            .counter_with("traffic_honeypot_packets_total", &[("phase", phase)])
    };
    packets("no-hosting").add(baseline_packets.len() as u64);
    packets("control").add(control_packets.len() as u64);
    packets("hosting").add(captures.iter().map(|c| c.packets.len() as u64).sum());

    HoneypotWorld {
        captures,
        baseline_packets,
        control_packets,
        webfilter,
        reverse_dns,
        config,
    }
}

fn stamp(rng: &mut StdRng) -> u64 {
    START.as_secs() + rng.gen_range(0..DAYS) * 86_400 + rng.gen_range(0..86_400u64)
}

fn http_port(rng: &mut StdRng) -> u16 {
    if rng.gen_range(0..100) < 35 {
        443
    } else {
        80
    }
}

/// No-hosting phase: pure scanning noise (Fig. 10b's shape, dominated by the
/// AWS monitor on port 52646).
fn gen_baseline(
    rng: &mut StdRng,
    config: &HoneypotConfig,
    scanner_ips: &[Ipv4Addr],
    monitor_ip: Ipv4Addr,
) -> Vec<Packet> {
    let mut out = Vec::new();
    let n = (60_000 / config.scale).max(300) as usize;
    const PROBE_PORTS: [u16; 9] = [22, 23, 80, 443, 445, 3389, 8080, 5060, 21];
    for _ in 0..n {
        let t = stamp(rng);
        // 60% AWS monitor chatter, 40% internet scanners.
        if rng.gen_range(0..10) < 6 {
            out.push(Packet::raw(
                monitor_ip,
                52_646,
                Transport::Tcp,
                t,
                b"aws-health",
            ));
        } else {
            let ip = scanner_ips[rng.gen_range(0..scanner_ips.len())];
            let port = PROBE_PORTS[rng.gen_range(0..PROBE_PORTS.len())];
            out.push(Packet::raw(
                ip,
                port,
                Transport::Tcp,
                t,
                b"\x16\x03\x01probe",
            ));
        }
    }
    out
}

/// Control group: ten fresh domains collecting only establishment traffic.
fn gen_control(
    rng: &mut StdRng,
    config: &HoneypotConfig,
    scanner_ips: &[Ipv4Addr],
    monitor_ip: Ipv4Addr,
    acme_ips: &[Ipv4Addr],
) -> Vec<Packet> {
    let mut out = Vec::new();
    let n = (20_000 / config.scale).max(200) as usize;
    for i in 0..n {
        let t = stamp(rng);
        let host = format!("control-{}.com", i % 10);
        match rng.gen_range(0..10) {
            // ACME certificate validation (the "Let's Encrypt consistently
            // querying with correct hostnames" problem).
            0..=2 => {
                let ip = acme_ips[rng.gen_range(0..acme_ips.len())];
                out.push(Packet::http(
                    HttpRequest::get(&format!(
                        "/.well-known/acme-challenge/tok{}",
                        rng.gen_range(0..99)
                    ))
                    .with_header("Host", &host)
                    .with_header(
                        "User-Agent",
                        "Mozilla/5.0 (compatible; Let's Encrypt validation server)",
                    )
                    .with_src(ip)
                    .with_port(80)
                    .with_time(t),
                ));
            }
            // New-domain crawlers fetching the landing page.
            3..=4 => {
                let ip = IpPool::Googlebot.draw(rng);
                out.push(Packet::http(
                    HttpRequest::get("/")
                        .with_header("Host", &host)
                        .with_header("User-Agent", crawler_ua("googlebot"))
                        .with_src(ip)
                        .with_port(http_port(rng))
                        .with_time(t),
                ));
            }
            // AWS monitor (Fig. 10b's dominant port).
            5..=8 => out.push(Packet::raw(
                monitor_ip,
                52_646,
                Transport::Tcp,
                t,
                b"aws-health",
            )),
            // Residual scanning.
            _ => {
                let ip = scanner_ips[rng.gen_range(0..scanner_ips.len())];
                out.push(Packet::raw(ip, 22, Transport::Tcp, t, b"SSH-2.0-scan"));
            }
        }
    }
    out
}

/// One registered domain's capture: calibrated category traffic + the noise
/// the filter must remove.
fn gen_domain(
    rng: &mut StdRng,
    config: &HoneypotConfig,
    spec: &DomainSpec,
    scanner_ips: &[Ipv4Addr],
    monitor_ip: Ipv4Addr,
    acme_ips: &[Ipv4Addr],
) -> Vec<Packet> {
    let s = config.scale;
    let mut out = Vec::new();

    gen_search_engine(rng, spec, scaled(spec.search_engine, s), &mut out);
    gen_file_grabber(rng, spec, scaled(spec.file_grabber, s), &mut out);
    gen_script_software(rng, spec, scaled(spec.script_software, s), &mut out);
    gen_malicious_request(rng, spec, scaled(spec.malicious_request, s), &mut out);
    gen_referrals(rng, config, spec, &mut out);
    gen_users(rng, config, spec, &mut out);
    gen_others(rng, spec, scaled(spec.others, s), &mut out);

    // Establishment + scanning noise, removed by the Fig. 9 filter.
    let noise = (out.len() / 12).max(8);
    for _ in 0..noise {
        let t = stamp(rng);
        match rng.gen_range(0..4) {
            0 => out.push(Packet::http(
                HttpRequest::get(&format!(
                    "/.well-known/acme-challenge/tok{}",
                    rng.gen_range(0..99)
                ))
                .with_header("Host", spec.name)
                .with_header(
                    "User-Agent",
                    "Mozilla/5.0 (compatible; Let's Encrypt validation server)",
                )
                .with_src(acme_ips[rng.gen_range(0..acme_ips.len())])
                .with_port(80)
                .with_time(t),
            )),
            1 => out.push(Packet::raw(
                monitor_ip,
                52_646,
                Transport::Tcp,
                t,
                b"aws-health",
            )),
            _ => {
                let ip = scanner_ips[rng.gen_range(0..scanner_ips.len())];
                let port = [22, 23, 445, 3389, 8080][rng.gen_range(0..5usize)];
                out.push(Packet::raw(ip, port, Transport::Tcp, t, b"probe"));
            }
        }
    }
    // A sprinkle of fresh (unfilterable) non-HTTP probes — the small
    // non-80/443 bars of Fig. 10a.
    for _ in 0..(out.len() / 200).max(2) {
        let t = stamp(rng);
        let ip = IpPool::Residential.draw(rng);
        let port = [21, 22, 25, 8443][rng.gen_range(0..4usize)];
        out.push(Packet::raw(ip, port, Transport::Tcp, t, b"stray"));
    }
    out
}

fn gen_search_engine(rng: &mut StdRng, spec: &DomainSpec, count: u64, out: &mut Vec<Packet>) {
    // Geographic correlation (§6.3): porno-komiksy (ex-Russia) is crawled
    // mostly by mail.ru; resheba (ex-USA) by Google/Bing.
    let mix: &[(&str, IpPool, u32)] = match spec.name {
        "porno-komiksy.com" => &[
            ("mailru", IpPool::MailRuBot, 60),
            ("yandex", IpPool::YandexBot, 20),
            ("googlebot", IpPool::Googlebot, 15),
            ("bingbot", IpPool::Bingbot, 5),
        ],
        "resheba.online" => &[
            ("googlebot", IpPool::Googlebot, 55),
            ("bingbot", IpPool::Bingbot, 30),
            ("mailru", IpPool::MailRuBot, 10),
            ("yandex", IpPool::YandexBot, 5),
        ],
        _ => &[
            ("googlebot", IpPool::Googlebot, 40),
            ("bingbot", IpPool::Bingbot, 20),
            ("yandex", IpPool::YandexBot, 15),
            ("mailru", IpPool::MailRuBot, 10),
            ("baidu", IpPool::BaiduSpider, 15),
        ],
    };
    let total: u32 = mix.iter().map(|(_, _, w)| w).sum();
    for _ in 0..count {
        let mut pick = rng.gen_range(0..total);
        let mut chosen = &mix[0];
        for entry in mix {
            if pick < entry.2 {
                chosen = entry;
                break;
            }
            pick -= entry.2;
        }
        let (service, pool, _) = chosen;
        let path = match rng.gen_range(0..3) {
            0 => "/".to_string(),
            1 => format!("/page-{}.html", rng.gen_range(1..500)),
            _ => format!("/archive/{}.html", rng.gen_range(1..200)),
        };
        out.push(Packet::http(
            HttpRequest::get(&path)
                .with_header("Host", spec.name)
                .with_header("User-Agent", crawler_ua(service))
                .with_src(pool.draw(rng))
                .with_port(http_port(rng))
                .with_time(stamp(rng)),
        ));
    }
}

fn gen_file_grabber(rng: &mut StdRng, spec: &DomainSpec, count: u64, out: &mut Vec<Packet>) {
    let email_heavy = spec.name == "conf-cdn.com";
    for _ in 0..count {
        let t = stamp(rng);
        // conf-cdn: 95.1% of grabs from e-mail providers (gmail > yahoo >
        // microsoft); elsewhere SEO file grabbers dominate.
        let roll = rng.gen_range(0..1000);
        let (ua, src): (&str, Ipv4Addr) = if email_heavy && roll < 951 {
            if roll < 553 {
                (email_ua("gmail"), IpPool::GoogleProxy.draw(rng))
            } else if roll < 795 {
                (email_ua("yahoo"), IpPool::Residential.draw(rng))
            } else {
                (email_ua("outlook"), IpPool::AzureCloud.draw(rng))
            }
        } else if rng.gen_range(0..2) == 0 {
            (crawler_ua("semrush"), IpPool::AmazonEc2.draw(rng))
        } else {
            (crawler_ua("ahrefs"), IpPool::DigitalOcean.draw(rng))
        };
        let ext = ["jpeg", "png", "xml", "gif", "css", "js"][weighted6(rng)];
        let path = format!("/assets/{}.{ext}", rng.gen_range(1..400));
        out.push(Packet::http(
            HttpRequest::get(&path)
                .with_header("Host", spec.name)
                .with_header("User-Agent", ua)
                .with_src(src)
                .with_port(http_port(rng))
                .with_time(t),
        ));
    }
}

/// .jpeg/.png/.xml receive the most grabs (§6.3).
fn weighted6(rng: &mut StdRng) -> usize {
    let roll = rng.gen_range(0..100);
    match roll {
        0..=34 => 0,
        35..=59 => 1,
        60..=79 => 2,
        80..=89 => 3,
        90..=94 => 4,
        _ => 5,
    }
}

fn gen_script_software(rng: &mut StdRng, spec: &DomainSpec, count: u64, out: &mut Vec<Packet>) {
    if spec.name == "1x-sport-bk7.com" {
        // The status.json storm: many addresses, one browser User-Agent,
        // one file, requested in streams (≥ threshold per address) — the
        // categorizer must re-classify it as automated.
        const STORM_UA: &str = "Mozilla/5.0 (Windows NT 6.3; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/41.0.2272.118 Safari/537.36";
        let per_ip = 40;
        let ips = (count / per_ip).max(1);
        let mut emitted = 0;
        'outer: for _ in 0..ips {
            let src = IpPool::Residential.draw(rng);
            for _ in 0..per_ip {
                out.push(Packet::http(
                    HttpRequest::get("/status.json")
                        .with_header("Host", spec.name)
                        .with_header("User-Agent", STORM_UA)
                        .with_src(src)
                        .with_port(http_port(rng))
                        .with_time(stamp(rng)),
                ));
                emitted += 1;
                if emitted >= count {
                    break 'outer;
                }
            }
        }
        return;
    }
    let video_domains = matches!(spec.name, "resheba.online" | "fanserials.moda");
    for _ in 0..count {
        let ua = SCRIPT_UAS[rng.gen_range(0..SCRIPT_UAS.len())];
        let path = if video_domains {
            // Online-course videos and their BitTorrent seeds (§6.3).
            match rng.gen_range(0..10) {
                0 => format!("/courses/lesson-{}.torrent", rng.gen_range(1..300)),
                1..=6 => format!("/courses/lesson-{}.mp4", rng.gen_range(1..300)),
                _ => format!("/courses/lesson-{}.html", rng.gen_range(1..300)),
            }
        } else {
            match rng.gen_range(0..3) {
                0 => "/data.json".to_string(),
                1 => format!("/api/v1/item/{}", rng.gen_range(1..1000)),
                _ => format!("/files/pack-{}.zip", rng.gen_range(1..50)),
            }
        };
        out.push(Packet::http(
            HttpRequest::get(&path)
                .with_header("Host", spec.name)
                .with_header("User-Agent", ua)
                .with_src(IpPool::Residential.draw(rng))
                .with_port(http_port(rng))
                .with_time(stamp(rng)),
        ));
    }
}

fn gen_malicious_request(rng: &mut StdRng, spec: &DomainSpec, count: u64, out: &mut Vec<Packet>) {
    if spec.name == "gpclick.com" {
        for _ in 0..count {
            let t = stamp(rng);
            out.push(Packet::http(botnet::gettask_request(rng, t)));
        }
        return;
    }
    const PROBES: [&str; 8] = [
        "/wp-login.php",
        "/xmlrpc.php",
        "/admin.php",
        "/.env",
        "/phpmyadmin/index.php",
        "/boaform/admin/formLogin",
        "/HNAP1/",
        "/manager/html",
    ];
    for _ in 0..count {
        let path = PROBES[rng.gen_range(0..PROBES.len())];
        let mut req = HttpRequest::get(path)
            .with_header("Host", spec.name)
            .with_src(IpPool::Residential.draw(rng))
            .with_port(http_port(rng))
            .with_time(stamp(rng));
        // Half the probes use script UAs, half an unrecognizable agent.
        req = if rng.gen_range(0..2) == 0 {
            req.with_header("User-Agent", SCRIPT_UAS[rng.gen_range(0..SCRIPT_UAS.len())])
        } else {
            req.with_header("User-Agent", "dx-probe/0.3")
        };
        out.push(Packet::http(req));
    }
}

fn gen_referrals(
    rng: &mut StdRng,
    config: &HoneypotConfig,
    spec: &DomainSpec,
    out: &mut Vec<Packet>,
) {
    let s = config.scale;
    const SEARCH_REFERERS: [&str; 4] = [
        "https://www.google.com/search?q=",
        "https://www.bing.com/search?q=",
        "https://go.mail.ru/search?q=",
        "https://yandex.ru/search/?text=",
    ];
    for _ in 0..scaled(spec.referral_search, s) {
        let referer = format!(
            "{}{}",
            SEARCH_REFERERS[rng.gen_range(0..SEARCH_REFERERS.len())],
            spec.name.split('.').next().unwrap()
        );
        out.push(referral_request(rng, spec, &referer));
    }
    for i in 0..scaled(spec.referral_embedded, s) {
        let referer = format!(
            "https://forum{}.example-boards.net/thread/{}",
            i % 16,
            fnv1a(spec.name.as_bytes(), 0) % 10_000 + (i % 16)
        );
        out.push(referral_request(rng, spec, &referer));
    }
    for i in 0..scaled(spec.referral_malicious, s) {
        // Crafted referers: either unresolvable pages or real pages with no
        // link to us.
        let referer = if i % 2 == 0 {
            format!(
                "https://spam-{}.example-junk.biz/landing",
                rng.gen_range(0..500)
            )
        } else {
            format!("https://blog{}.example-unrelated.org/post", i % 8)
        };
        out.push(referral_request(rng, spec, &referer));
    }
}

fn referral_request(rng: &mut StdRng, spec: &DomainSpec, referer: &str) -> Packet {
    let ua = if rng.gen_range(0..2) == 0 {
        PC_UAS[rng.gen_range(0..PC_UAS.len())]
    } else {
        MOBILE_UAS[rng.gen_range(0..MOBILE_UAS.len())]
    };
    Packet::http(
        HttpRequest::get(&format!("/landing-{}.html", rng.gen_range(0..40)))
            .with_header("Host", spec.name)
            .with_header("User-Agent", ua)
            .with_header("Referer", referer)
            .with_src(IpPool::Residential.draw(rng))
            .with_port(http_port(rng))
            .with_time(stamp(rng)),
    )
}

fn gen_users(rng: &mut StdRng, config: &HoneypotConfig, spec: &DomainSpec, out: &mut Vec<Packet>) {
    let s = config.scale;
    for _ in 0..scaled(spec.user_pc_mobile, s) {
        let ua = if rng.gen_range(0..100) < 55 {
            PC_UAS[rng.gen_range(0..PC_UAS.len())]
        } else {
            MOBILE_UAS[rng.gen_range(0..MOBILE_UAS.len())]
        };
        out.push(Packet::http(
            HttpRequest::get(&format!("/view/{}", rng.gen_range(1..2000)))
                .with_header("Host", spec.name)
                .with_header("User-Agent", ua)
                .with_src(IpPool::Residential.draw(rng))
                .with_port(http_port(rng))
                .with_time(stamp(rng)),
        ));
    }
    // In-app visits follow the global Fig. 13 mix.
    let in_app_total: u64 = IN_APP_MIX.iter().map(|&(_, n)| n).sum();
    for _ in 0..scaled(spec.user_in_app, s) {
        let mut pick = rng.gen_range(0..in_app_total);
        let mut app = "Others";
        for &(a, n) in &IN_APP_MIX {
            if pick < n {
                app = a;
                break;
            }
            pick -= n;
        }
        out.push(Packet::http(
            HttpRequest::get(&format!("/view/{}", rng.gen_range(1..2000)))
                .with_header("Host", spec.name)
                .with_header("User-Agent", in_app_ua(app))
                .with_src(IpPool::Residential.draw(rng))
                .with_port(http_port(rng))
                .with_time(stamp(rng)),
        ));
    }
}

fn gen_others(rng: &mut StdRng, spec: &DomainSpec, count: u64, out: &mut Vec<Packet>) {
    for _ in 0..count {
        // Anonymous connectivity probes: no User-Agent, bare "/".
        out.push(Packet::http(
            HttpRequest::get("/")
                .with_header("Host", spec.name)
                .with_src(IpPool::Residential.draw(rng))
                .with_port(http_port(rng))
                .with_time(stamp(rng)),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> HoneypotWorld {
        generate(HoneypotConfig {
            scale: 2000,
            ..Default::default()
        })
    }

    #[test]
    fn world_has_all_19_domains() {
        let w = small_world();
        assert_eq!(w.captures.len(), 19);
        for c in &w.captures {
            assert!(!c.packets.is_empty(), "{} has no packets", c.spec.name);
        }
    }

    #[test]
    fn baseline_and_control_nonempty() {
        let w = small_world();
        assert!(!w.baseline_packets.is_empty());
        assert!(!w.control_packets.is_empty());
        // Baseline is non-HTTP scanning only.
        assert!(w.baseline_packets.iter().all(|p| !p.is_http()));
        // Control contains the AWS monitor port that dominates Fig. 10b.
        assert!(w.control_packets.iter().any(|p| p.dst_port == 52_646));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(HoneypotConfig {
            scale: 3000,
            ..Default::default()
        });
        let b = generate(HoneypotConfig {
            scale: 3000,
            ..Default::default()
        });
        for (ca, cb) in a.captures.iter().zip(&b.captures) {
            assert_eq!(ca.packets, cb.packets, "{}", ca.spec.name);
        }
        assert_eq!(a.baseline_packets, b.baseline_packets);
    }

    #[test]
    fn scaled_keeps_small_cells_alive() {
        assert_eq!(scaled(0, 100), 0);
        assert_eq!(scaled(20, 100), 1);
        assert_eq!(scaled(1_000, 100), 10);
    }

    #[test]
    fn timestamps_inside_window() {
        let w = small_world();
        assert_eq!(START, SimTime::from_ymd(2022, 1, 1));
        let start = START.as_secs();
        let end = start + DAYS * 86_400;
        for c in &w.captures {
            for p in &c.packets {
                assert!((start..end).contains(&p.timestamp));
            }
        }
    }

    #[test]
    fn instrumented_generation_counts_phases() {
        let telemetry = Telemetry::wall();
        let w = generate_with(
            HoneypotConfig {
                scale: 2000,
                ..Default::default()
            },
            &telemetry,
        );
        let snap = telemetry.snapshot();
        let hosted: u64 = w.captures.iter().map(|c| c.packets.len() as u64).sum();
        assert_eq!(
            snap.counter_total("traffic_honeypot_packets_total"),
            hosted + w.baseline_packets.len() as u64 + w.control_packets.len() as u64
        );
        let names: Vec<String> = telemetry
            .tracer
            .spans()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        for stage in [
            "honeypot_era.baseline",
            "honeypot_era.control",
            "honeypot_era.captures",
        ] {
            assert!(names.contains(&stage.to_string()), "missing span {stage}");
        }
        // Live-progress plumbing: gauge ends at 19, one capture event per
        // domain plus the two phase events.
        assert_eq!(
            snap.gauge_value("traffic_honeypot_domains_generated"),
            Some(19)
        );
        let events = telemetry.journal.snapshot();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.message == "domain capture generated")
                .count(),
            19
        );
        assert!(events
            .iter()
            .any(|e| e.message == "no-hosting baseline generated"));
        assert!(events
            .iter()
            .any(|e| e.message == "control group generated"));
    }

    #[test]
    fn gpclick_carries_botnet_traffic() {
        let w = small_world();
        let gp = w
            .captures
            .iter()
            .find(|c| c.spec.name == "gpclick.com")
            .unwrap();
        let gettask = gp
            .packets
            .iter()
            .filter_map(|p| p.http_request())
            .filter(|r| r.uri.file_name() == "getTask.php")
            .count();
        assert!(gettask > 100, "only {gettask} getTask polls");
    }
}
