//! `nxdctl` — a command-line companion for exploring the nxdomain library:
//! resolution against a simulated DNS world, DGA generation and scoring,
//! squat generation and classification (including IDN homographs), domain
//! lifecycle timelines, and pcap export of a sample honeypot capture.
//!
//! ```text
//! nxdctl resolve paypal.com --register
//! nxdctl dga list
//! nxdctl dga gen lcg 42 2022-06-01 10
//! nxdctl dga check google.com xkqzvwpjh.com
//! nxdctl squat gen paypal.com
//! nxdctl squat check gogle.com twitter-support.com
//! nxdctl idn apple.com
//! nxdctl punycode encode bücher
//! nxdctl lifecycle beloved-project.com
//! nxdctl pcap /tmp/demo.pcap
//! nxdctl obs scrape 127.0.0.1:9090
//! nxdctl obs scrape 127.0.0.1:9090 /snapshot.json
//! nxdctl obs journal 127.0.0.1:9090 42
//! nxdctl dns 127.0.0.1:5353 ghost.example.com
//! nxdctl dns 127.0.0.1:5353 example.com mx --tcp
//! ```
//!
//! `obs` talks to a live observability plane started with
//! `repro --serve <addr>` (see `nxdomain::obs`); `dns` sends a real wire
//! query to a live DNS front-end started with `repro --serve-dns <addr>`
//! (see `nxdomain::serve`) over UDP, or TCP with `--tcp`.

use std::net::Ipv4Addr;

use nxdomain::dga::{all_families, DgaDetector};
use nxdomain::honeypot::{Packet, PcapWriter};
use nxdomain::http::HttpRequest;
use nxdomain::sim::{EventKind, Registry, Resolver, ResolverConfig, SimDns, SimDuration, SimTime};
use nxdomain::squat::{generate, idn, SquatClassifier};
use nxdomain::wire::{Name, RType};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let code = match argv.split_first() {
        Some((&"resolve", rest)) => cmd_resolve(rest),
        Some((&"dga", rest)) => cmd_dga(rest),
        Some((&"squat", rest)) => cmd_squat(rest),
        Some((&"idn", rest)) => cmd_idn(rest),
        Some((&"punycode", rest)) => cmd_punycode(rest),
        Some((&"lifecycle", rest)) => cmd_lifecycle(rest),
        Some((&"pcap", rest)) => cmd_pcap(rest),
        Some((&"obs", rest)) => cmd_obs(rest),
        Some((&"dns", rest)) => cmd_dns(rest),
        _ => {
            eprintln!("usage: nxdctl <resolve|dga|squat|idn|punycode|lifecycle|pcap|obs|dns> ...");
            eprintln!("see the module docs at the top of src/bin/nxdctl.rs for examples");
            2
        }
    };
    std::process::exit(code);
}

fn parse_name(s: &str) -> Result<Name, String> {
    s.parse().map_err(|e| format!("invalid domain {s:?}: {e}"))
}

fn cmd_resolve(args: &[&str]) -> i32 {
    let Some(&domain) = args.first() else {
        eprintln!("usage: nxdctl resolve <name> [--register]");
        return 2;
    };
    let name = match parse_name(domain) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let start = SimTime::from_ymd(2022, 1, 1);
    let mut dns = SimDns::with_popular_tlds(start);
    if args.contains(&"--register") {
        match name.registrable() {
            Some(reg) => {
                match dns.register_domain(&reg, "nxdctl", "cli", 1, Ipv4Addr::new(192, 0, 2, 80)) {
                    Ok(expires) => println!("registered {reg} until {expires}"),
                    Err(e) => {
                        eprintln!("cannot register {reg}: {e:?}");
                        return 1;
                    }
                }
            }
            None => {
                eprintln!("{name} has no registrable form");
                return 1;
            }
        }
    }
    let mut resolver = Resolver::new(ResolverConfig::default());
    let res = resolver.resolve(&dns, &name, RType::A, start);
    println!(
        "{name} → {} ({} upstream queries{})",
        res.rcode,
        res.upstream_queries,
        if res.from_cache { ", cached" } else { "" }
    );
    for record in &res.answers {
        println!("  {} {} {}", record.name, record.rtype(), record.rdata);
    }
    0
}

fn cmd_dga(args: &[&str]) -> i32 {
    match args.split_first() {
        Some((&"list", _)) => {
            for family in all_families() {
                println!("{}", family.name());
            }
            0
        }
        Some((&"gen", rest)) => {
            let (Some(&fam_name), Some(&seed), Some(&date)) =
                (rest.first(), rest.get(1), rest.get(2))
            else {
                eprintln!("usage: nxdctl dga gen <family> <seed> <YYYY-MM-DD> [count]");
                return 2;
            };
            let count: usize = rest.get(3).and_then(|c| c.parse().ok()).unwrap_or(10);
            let Ok(seed) = seed.parse::<u64>() else {
                eprintln!("bad seed {seed:?}");
                return 2;
            };
            let mut parts = date.split('-');
            let (Some(y), Some(m), Some(d)) = (
                parts.next().and_then(|v| v.parse::<i32>().ok()),
                parts.next().and_then(|v| v.parse::<u32>().ok()),
                parts.next().and_then(|v| v.parse::<u32>().ok()),
            ) else {
                eprintln!("bad date {date:?} (want YYYY-MM-DD)");
                return 2;
            };
            let families = all_families();
            let Some(family) = families.iter().find(|f| f.name() == fam_name) else {
                eprintln!("unknown family {fam_name:?} (try `nxdctl dga list`)");
                return 2;
            };
            for candidate in family.generate(seed, (y, m, d), count) {
                println!("{candidate}");
            }
            0
        }
        Some((&"check", names)) if !names.is_empty() => {
            let detector = DgaDetector::default();
            for name in names {
                println!(
                    "{name:<32} score {:>7.2}  {}",
                    detector.score(name),
                    if detector.is_dga(name) {
                        "DGA"
                    } else {
                        "benign"
                    }
                );
            }
            0
        }
        _ => {
            eprintln!("usage: nxdctl dga <list|gen|check> ...");
            2
        }
    }
}

fn cmd_squat(args: &[&str]) -> i32 {
    match args.split_first() {
        Some((&"gen", rest)) => {
            let Some(&target) = rest.first() else {
                eprintln!("usage: nxdctl squat gen <brand.tld>");
                return 2;
            };
            for (label, squats) in [
                ("typo", generate::typosquats(target)),
                ("combo", generate::combosquats(target)),
                ("dot", generate::dotsquats(target)),
                ("bit", generate::bitsquats(target)),
                ("homo", generate::homosquats(target)),
            ] {
                println!("# {label} ({})", squats.len());
                for s in squats.iter().take(8) {
                    println!("{s}");
                }
            }
            0
        }
        Some((&"check", names)) if !names.is_empty() => {
            let classifier = SquatClassifier::default();
            for name in names {
                match classifier.classify(name) {
                    Some(m) => println!("{name:<28} {} of {}", m.kind.label(), m.target),
                    None => println!("{name:<28} not a squat"),
                }
            }
            0
        }
        _ => {
            eprintln!("usage: nxdctl squat <gen|check> ...");
            2
        }
    }
}

fn cmd_idn(args: &[&str]) -> i32 {
    let Some(&target) = args.first() else {
        eprintln!("usage: nxdctl idn <brand.tld>");
        return 2;
    };
    let squats = idn::idn_homosquats(target);
    if squats.is_empty() {
        println!("no confusable characters in {target}");
        return 0;
    }
    println!("{:<24} {:<32} projects-to", "unicode", "registered (IDNA)");
    for (unicode, ascii) in squats {
        let projection = idn::ascii_projection(&ascii).unwrap_or_default();
        println!("{unicode:<24} {ascii:<32} {projection}");
    }
    0
}

fn cmd_punycode(args: &[&str]) -> i32 {
    match args {
        [op, label] => {
            let result = match *op {
                "encode" => idn::punycode_encode(label),
                "decode" => idn::punycode_decode(label),
                _ => None,
            };
            match result {
                Some(out) => {
                    println!("{out}");
                    0
                }
                None => {
                    eprintln!("punycode {op} failed for {label:?}");
                    1
                }
            }
        }
        _ => {
            eprintln!("usage: nxdctl punycode <encode|decode> <label>");
            2
        }
    }
}

fn cmd_lifecycle(args: &[&str]) -> i32 {
    let Some(&domain) = args.first() else {
        eprintln!("usage: nxdctl lifecycle <brand.tld>");
        return 2;
    };
    let name = match parse_name(domain) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let start = SimTime::from_ymd(2022, 1, 1);
    let mut registry = Registry::new(start);
    if let Err(e) = registry.register(&name, "owner", "registrar", 1) {
        eprintln!("cannot register {name}: {e:?}");
        return 1;
    }
    registry.tick(start + SimDuration::days(460));
    for event in registry.drain_events() {
        let what = match &event.kind {
            EventKind::Registered { expires, .. } => format!("registered, expires {expires}"),
            EventKind::Renewed { expires } => format!("renewed until {expires}"),
            EventKind::ExpirationNotice { number } => format!("expiration notice {number}/3"),
            EventKind::Expired => "expired (NXDomain from now on)".into(),
            EventKind::EnteredRedemption => "entered redemption grace period".into(),
            EventKind::Restored { expires } => format!("restored until {expires}"),
            EventKind::PendingDelete => "pending delete".into(),
            EventKind::Released => "released to the public".into(),
            EventKind::DropCaught { catcher } => format!("drop-caught by {catcher}"),
        };
        println!("{}  {what}", event.at);
    }
    0
}

fn cmd_obs(args: &[&str]) -> i32 {
    match args.split_first() {
        Some((&"scrape", rest)) => {
            let Some(&addr) = rest.first() else {
                eprintln!("usage: nxdctl obs scrape <host:port> [path]");
                return 2;
            };
            let path = rest.get(1).copied().unwrap_or("/metrics");
            match nxdomain::obs::http_get(addr, path) {
                Ok(res) if res.status == 200 => {
                    print!("{}", res.body);
                    0
                }
                Ok(res) => {
                    eprintln!("GET {path} → HTTP {}", res.status);
                    eprint!("{}", res.body);
                    1
                }
                Err(e) => {
                    eprintln!("cannot scrape {addr}{path}: {e}");
                    1
                }
            }
        }
        Some((&"journal", rest)) => {
            let Some(&addr) = rest.first() else {
                eprintln!("usage: nxdctl obs journal <host:port> [since-seq]");
                return 2;
            };
            let since: u64 = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
            match nxdomain::obs::http_get(addr, &format!("/journal?since={since}")) {
                Ok(res) if res.status == 200 => {
                    print!("{}", res.body);
                    0
                }
                Ok(res) => {
                    eprintln!("GET /journal → HTTP {}", res.status);
                    1
                }
                Err(e) => {
                    eprintln!("cannot reach {addr}: {e}");
                    1
                }
            }
        }
        _ => {
            eprintln!("usage: nxdctl obs <scrape|journal> <host:port> ...");
            2
        }
    }
}

fn cmd_pcap(args: &[&str]) -> i32 {
    let Some(&path) = args.first() else {
        eprintln!("usage: nxdctl pcap <output-file>");
        return 2;
    };
    let mut writer = PcapWriter::new(Ipv4Addr::new(192, 0, 2, 80));
    // A small representative capture: a botnet poll, a crawler fetch, and a
    // vulnerability probe.
    writer.write_packet(&Packet::http(
        HttpRequest::get("/getTask.php?imei=1-2-3&country=us&model=Nexus%205X")
            .with_header("Host", "gpclick.com")
            .with_header("User-Agent", "Apache-HttpClient/UNAVAILABLE (java 1.4)")
            .with_src(Ipv4Addr::new(66, 102, 1, 2))
            .with_port(80)
            .with_time(1_650_000_000),
    ));
    writer.write_packet(&Packet::http(
        HttpRequest::get("/page-1.html")
            .with_header("Host", "resheba.online")
            .with_header("User-Agent", "Mozilla/5.0 (compatible; Googlebot/2.1)")
            .with_src(Ipv4Addr::new(66, 249, 66, 1))
            .with_port(443)
            .with_time(1_650_000_060),
    ));
    writer.write_packet(&Packet::http(
        HttpRequest::get("/wp-login.php")
            .with_header("Host", "yebeda.org")
            .with_header("User-Agent", "python-requests/2.28")
            .with_src(Ipv4Addr::new(93, 1, 2, 3))
            .with_port(80)
            .with_time(1_650_000_120),
    ));
    let bytes = writer.finish();
    match std::fs::write(path, &bytes) {
        Ok(()) => {
            println!("wrote {} bytes ({} packets) to {path}", bytes.len(), 3);
            0
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            1
        }
    }
}

fn cmd_dns(args: &[&str]) -> i32 {
    use nxdomain::serve::{tcp_exchange, StubResolver, MAX_TCP_MESSAGE};
    use nxdomain::wire::Message;
    use std::net::ToSocketAddrs;
    use std::time::Duration;

    let tcp = args.contains(&"--tcp");
    let positional: Vec<&&str> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let (Some(&&server), Some(&&domain)) = (positional.first(), positional.get(1)) else {
        eprintln!(
            "usage: nxdctl dns <server-addr> <name> [a|aaaa|ns|mx|txt|soa|cname|ptr] [--tcp]"
        );
        return 2;
    };
    let name = match parse_name(domain) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let rtype = match positional.get(2).map(|t| t.to_ascii_lowercase()) {
        None => RType::A,
        Some(t) => match t.as_str() {
            "a" => RType::A,
            "aaaa" => RType::Aaaa,
            "ns" => RType::Ns,
            "mx" => RType::Mx,
            "txt" => RType::Txt,
            "soa" => RType::Soa,
            "cname" => RType::Cname,
            "ptr" => RType::Ptr,
            other => {
                eprintln!("unknown record type {other:?}");
                return 2;
            }
        },
    };
    let Ok(Some(addr)) = server.to_socket_addrs().map(|mut a| a.next()) else {
        eprintln!("cannot resolve server address {server:?}");
        return 2;
    };
    let query = match Message::query(0x4e58, name, rtype).encode() {
        Ok(q) => q,
        Err(e) => {
            eprintln!("cannot encode query: {e}");
            return 2;
        }
    };
    let timeout = Duration::from_secs(3);
    let exchange = if tcp {
        tcp_exchange(addr, std::slice::from_ref(&query), timeout, MAX_TCP_MESSAGE)
            .map(|mut r| r.pop().unwrap_or_default())
    } else {
        StubResolver::connect(addr, timeout, 3).and_then(|stub| {
            stub.exchange(&query).map(|e| {
                if e.retransmits > 0 {
                    eprintln!("({} udp retransmissions)", e.retransmits);
                }
                e.response
            })
        })
    };
    let response = match exchange {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "no answer from {addr} ({}): {e}",
                if tcp { "tcp" } else { "udp" }
            );
            return 1;
        }
    };
    let message = match Message::decode(&response) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("undecodable response ({} bytes): {e}", response.len());
            return 1;
        }
    };
    println!(
        "{:?} from {addr} over {} ({} bytes, aa={})",
        message.header.rcode,
        if tcp { "tcp" } else { "udp" },
        response.len(),
        message.header.aa,
    );
    for (section, records) in [
        ("answer", &message.answers),
        ("authority", &message.authorities),
        ("additional", &message.additionals),
    ] {
        for record in records {
            println!(
                "{section:<10} {} {}s {:?}",
                record.name, record.ttl, record.rdata
            );
        }
    }
    0
}
