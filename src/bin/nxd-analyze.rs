//! `nxd-analyze` — batch front end for the `nxd-analyzer` rule engine.
//!
//! ```text
//! nxd-analyze rules                     # print the rule catalog
//! nxd-analyze message <hex> [--json]    # analyze one wire-format message
//! nxd-analyze zonefile <path> <origin> [--json]
//! nxd-analyze demo [--json]             # analyze a deliberately broken response
//! ```
//!
//! Exit codes: 0 = clean (and `rules`), 1 = any diagnostic found, 2 = usage
//! or input error.

use nxdomain::analyzer::{catalog, Analyzer, Report};
use nxdomain::sim::parse_records;
use nxdomain::wire::{Message, Name, RCode, RData, RType, Record};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let argv: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--json")
        .collect();
    let code = match argv.split_first() {
        Some((&"rules", _)) => cmd_rules(json),
        Some((&"message", rest)) => cmd_message(rest, json),
        Some((&"zonefile", rest)) => cmd_zonefile(rest, json),
        Some((&"demo", _)) => cmd_demo(json),
        _ => {
            eprintln!("usage: nxd-analyze <rules|message|zonefile|demo> [...] [--json]");
            eprintln!("see the module docs at the top of src/bin/nxd-analyze.rs for examples");
            2
        }
    };
    std::process::exit(code);
}

/// Prints a report in the requested format and maps it to an exit code.
fn emit(report: &Report, json: bool) -> i32 {
    if json {
        println!("{}", report.to_json());
    } else if report.is_clean() {
        println!("clean: no diagnostics");
    } else {
        println!("{}", report.to_text());
    }
    i32::from(!report.is_clean())
}

fn cmd_rules(json: bool) -> i32 {
    if json {
        let rows: Vec<String> = catalog()
            .iter()
            .map(|r| {
                format!(
                    "{{\"id\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"rfc\":\"{}\"}}",
                    r.id,
                    r.name,
                    r.severity.as_str(),
                    r.rfc
                )
            })
            .collect();
        println!("[{}]", rows.join(","));
    } else {
        println!("{:<8} {:<8} {:<32} rfc", "id", "severity", "name");
        for rule in catalog() {
            println!(
                "{:<8} {:<8} {:<32} {}",
                rule.id,
                rule.severity.as_str(),
                rule.name,
                rule.rfc
            );
        }
    }
    0
}

fn cmd_message(args: &[&str], json: bool) -> i32 {
    let Some(&hex) = args.first() else {
        eprintln!("usage: nxd-analyze message <hex-encoded-wire-bytes> [--json]");
        return 2;
    };
    let Some(bytes) = decode_hex(hex) else {
        eprintln!("not a hex string: {hex:?}");
        return 2;
    };
    match Analyzer::new().analyze_bytes(&bytes) {
        Ok(report) => emit(&report, json),
        Err(e) => {
            eprintln!("cannot decode message: {e:?}");
            2
        }
    }
}

fn cmd_zonefile(args: &[&str], json: bool) -> i32 {
    let (Some(&path), Some(&origin)) = (args.first(), args.get(1)) else {
        eprintln!("usage: nxd-analyze zonefile <path> <origin> [--json]");
        return 2;
    };
    let apex: Name = match origin.parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("invalid origin {origin:?}: {e}");
            return 2;
        }
    };
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let records = match parse_records(&input, &apex) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return 2;
        }
    };
    let report = Analyzer::new().analyze_records(&apex, &records);
    emit(&report, json)
}

/// Analyzes a deliberately non-conformant NXDOMAIN response: no SOA, a
/// stray answer, and an over-limit TTL — a quick tour of the wire rules.
fn cmd_demo(json: bool) -> i32 {
    let qname: Name = "ghost.example.com".parse().expect("static name");
    let query = Message::query(0x1D4E, qname.clone(), RType::A);
    let mut resp = Message::response(&query, RCode::NxDomain);
    resp.answers.push(Record::new(
        qname,
        0x8000_0000,
        RData::Txt(vec!["oops".to_string()]),
    ));
    let report = Analyzer::new().analyze_message(&resp);
    let code = emit(&report, json);
    if !json {
        println!("(the `rules` subcommand lists every check; RFC 2308 wants an SOA here)");
    }
    code
}

fn decode_hex(s: &str) -> Option<Vec<u8>> {
    let s: String = s.chars().filter(|c| !c.is_ascii_whitespace()).collect();
    // ASCII hex digits only, so the two-byte slices below fall on char
    // boundaries and `from_str_radix` never sees a sign.
    if !s.len().is_multiple_of(2) || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}
