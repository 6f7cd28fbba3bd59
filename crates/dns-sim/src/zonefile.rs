//! RFC 1035 §5 master-file ("zone file") parsing — the standard way to
//! configure authoritative data, so simulated worlds can be described in
//! text instead of code.
//!
//! Supported subset: `$ORIGIN` and `$TTL` directives, `@` for the origin,
//! relative and absolute owner names, owner inheritance from the previous
//! record, optional per-record TTL and class (`IN`), comments (`;`), and
//! the record types the simulation models (SOA, NS, A, AAAA, CNAME, MX,
//! TXT, PTR). Parenthesized multi-line SOA values are supported.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use nxd_dns_wire::{Name, RData, Record, Soa};

use crate::zone::Zone;

/// Parse errors with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneFileError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ZoneFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ZoneFileError {}

fn err(line: usize, message: impl Into<String>) -> ZoneFileError {
    ZoneFileError {
        line,
        message: message.into(),
    }
}

/// Joins parenthesized groups into single logical lines and strips
/// comments. Returns `(line_number, text)` pairs.
fn logical_lines(input: &str) -> Result<Vec<(usize, String)>, ZoneFileError> {
    let mut out = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let text = raw.split(';').next().unwrap_or(raw);
        let mut depth_delta = 0i32;
        for c in text.chars() {
            match c {
                '(' => depth_delta += 1,
                ')' => depth_delta -= 1,
                _ => {}
            }
        }
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(text);
                let total: i32 = acc.matches('(').count() as i32 - acc.matches(')').count() as i32;
                if total > 0 {
                    pending = Some((start, acc));
                } else if total < 0 {
                    return Err(err(line_no, "unbalanced ')'"));
                } else {
                    out.push((start, acc.replace(['(', ')'], " ")));
                }
            }
            None => {
                if depth_delta > 0 {
                    pending = Some((line_no, text.to_string()));
                } else if depth_delta < 0 {
                    return Err(err(line_no, "unbalanced ')'"));
                } else if !text.trim().is_empty() {
                    out.push((line_no, text.to_string()));
                }
            }
        }
    }
    if let Some((start, _)) = pending {
        return Err(err(start, "unterminated '(' group"));
    }
    Ok(out)
}

/// Resolves a possibly-relative owner/target name against the origin.
fn resolve_name(token: &str, origin: &Name, line: usize) -> Result<Name, ZoneFileError> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = token.strip_suffix('.') {
        return absolute
            .parse()
            .map_err(|e| err(line, format!("bad name {token:?}: {e}")));
    }
    // Relative: append the origin.
    let mut labels: Vec<String> = token.split('.').map(str::to_string).collect();
    labels.extend(origin.labels().map(str::to_string));
    Name::from_labels(&labels).map_err(|e| err(line, format!("bad name {token:?}: {e}")))
}

/// Parses a zone file into records. `default_origin` is used until an
/// `$ORIGIN` directive appears (pass the zone apex).
pub fn parse_records(input: &str, default_origin: &Name) -> Result<Vec<Record>, ZoneFileError> {
    let mut origin = default_origin.clone();
    let mut default_ttl: u32 = 3600;
    let mut last_owner: Option<Name> = None;
    let mut records = Vec::new();

    for (line_no, text) in logical_lines(input)? {
        let starts_with_space = text.starts_with(' ') || text.starts_with('\t');
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let Some(&first) = tokens.first() else {
            continue;
        };
        match first {
            "$ORIGIN" => {
                let target = tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "$ORIGIN needs a name"))?;
                origin = resolve_name(target, &Name::root(), line_no)?;
                continue;
            }
            "$TTL" => {
                default_ttl = tokens
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line_no, "$TTL needs a number"))?;
                continue;
            }
            _ => {}
        }

        // Owner: inherited when the line starts with whitespace.
        let mut rest = tokens.as_slice();
        let owner = if starts_with_space {
            last_owner
                .clone()
                .ok_or_else(|| err(line_no, "no previous owner to inherit"))?
        } else {
            let owner = resolve_name(first, &origin, line_no)?;
            rest = rest.get(1..).unwrap_or(&[]);
            owner
        };
        last_owner = Some(owner.clone());

        // Optional TTL and class, in either order.
        let mut ttl = default_ttl;
        let mut i = 0;
        for _ in 0..2 {
            match rest.get(i) {
                Some(tok) if tok.chars().all(|c| c.is_ascii_digit()) => {
                    ttl = tok.parse().map_err(|_| err(line_no, "bad TTL"))?;
                    i += 1;
                }
                Some(&"IN") | Some(&"in") => i += 1,
                _ => {}
            }
        }
        let Some(&rtype) = rest.get(i) else {
            return Err(err(line_no, "missing record type"));
        };
        let data = rest.get(i + 1..).unwrap_or(&[]);
        let rdata = parse_rdata(rtype, data, &origin, line_no)?;
        records.push(Record::new(owner, ttl, rdata));
    }
    Ok(records)
}

fn parse_rdata(
    rtype: &str,
    data: &[&str],
    origin: &Name,
    line: usize,
) -> Result<RData, ZoneFileError> {
    // Slice patterns keep every field access total: a short line falls to
    // the `wrong` arm instead of panicking, and extra fields are tolerated
    // (`..`) exactly as the old positional indexing was.
    let wrong = |n: usize| {
        err(
            line,
            format!("{rtype} needs {n} fields, got {}", data.len()),
        )
    };
    match rtype.to_ascii_uppercase().as_str() {
        "A" => match data {
            [ip, ..] => ip
                .parse::<Ipv4Addr>()
                .map(RData::A)
                .map_err(|_| err(line, format!("bad IPv4 {ip:?}"))),
            [] => Err(wrong(1)),
        },
        "AAAA" => match data {
            [ip, ..] => ip
                .parse::<Ipv6Addr>()
                .map(RData::Aaaa)
                .map_err(|_| err(line, format!("bad IPv6 {ip:?}"))),
            [] => Err(wrong(1)),
        },
        "NS" => match data {
            [target, ..] => Ok(RData::Ns(resolve_name(target, origin, line)?)),
            [] => Err(wrong(1)),
        },
        "CNAME" => match data {
            [target, ..] => Ok(RData::Cname(resolve_name(target, origin, line)?)),
            [] => Err(wrong(1)),
        },
        "PTR" => match data {
            [target, ..] => Ok(RData::Ptr(resolve_name(target, origin, line)?)),
            [] => Err(wrong(1)),
        },
        "MX" => match data {
            [preference, exchange, ..] => Ok(RData::Mx {
                preference: preference
                    .parse()
                    .map_err(|_| err(line, format!("bad MX preference {preference:?}")))?,
                exchange: resolve_name(exchange, origin, line)?,
            }),
            _ => Err(wrong(2)),
        },
        "TXT" => match data {
            [_, ..] => Ok(RData::Txt(
                data.iter()
                    .map(|s| s.trim_matches('"').to_string())
                    .collect(),
            )),
            [] => Err(wrong(1)),
        },
        "SOA" => match data {
            [mname, rname, serial, refresh, retry, expire, minimum, ..] => {
                let parse_u32 = |tok: &str| -> Result<u32, ZoneFileError> {
                    tok.parse()
                        .map_err(|_| err(line, format!("bad SOA number {tok:?}")))
                };
                Ok(RData::Soa(Soa {
                    mname: resolve_name(mname, origin, line)?,
                    rname: resolve_name(rname, origin, line)?,
                    serial: parse_u32(serial)?,
                    refresh: parse_u32(refresh)?,
                    retry: parse_u32(retry)?,
                    expire: parse_u32(expire)?,
                    minimum: parse_u32(minimum)?,
                }))
            }
            _ => Err(wrong(7)),
        },
        other => Err(err(line, format!("unsupported record type {other:?}"))),
    }
}

/// Parses a full zone: the file must contain exactly one SOA at the apex;
/// every record is loaded into a [`Zone`].
pub fn parse_zone(input: &str, apex: &Name) -> Result<Zone, ZoneFileError> {
    let records = parse_records(input, apex)?;
    let (soa_owner, soa, soa_ttl) = records
        .iter()
        .find_map(|r| match &r.rdata {
            RData::Soa(soa) => Some((&r.name, soa.clone(), r.ttl)),
            _ => None,
        })
        .ok_or_else(|| err(0, "zone has no SOA record"))?;
    if *soa_owner != *apex {
        return Err(err(
            0,
            format!("SOA owner {soa_owner} is not the apex {apex}"),
        ));
    }
    let mut zone = Zone::new(apex.clone(), soa, soa_ttl);
    for record in records {
        if matches!(record.rdata, RData::Soa(_)) {
            continue; // Zone::new installed it
        }
        if !record.name.is_subdomain_of(apex) {
            return Err(err(
                0,
                format!("record owner {} outside zone {apex}", record.name),
            ));
        }
        zone.add(record);
    }
    Ok(zone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneAnswer;
    use nxd_dns_wire::RType;

    const EXAMPLE_ZONE: &str = r#"
$ORIGIN example.com.
$TTL 3600
@   IN  SOA ns1 hostmaster (
        2023102401 ; serial
        7200       ; refresh
        3600       ; retry
        1209600    ; expire
        900 )      ; minimum = negative TTL
@       IN  NS   ns1
ns1     IN  A    192.0.2.1
www     300 IN A 192.0.2.80
        IN  AAAA 2001:db8::80
mail    IN  MX   10 mx1.example.com.
alias   IN  CNAME www
notes   IN  TXT  "hello world"
sub     IN  NS   ns1.sub
"#;

    fn apex() -> Name {
        "example.com".parse().unwrap()
    }

    #[test]
    fn parses_full_zone() {
        let zone = parse_zone(EXAMPLE_ZONE, &apex()).unwrap();
        assert_eq!(zone.soa().minimum, 900);
        assert_eq!(zone.soa().serial, 2_023_102_401);

        match zone.lookup(&"www.example.com".parse().unwrap(), RType::A) {
            ZoneAnswer::Answer(records) => {
                assert_eq!(records[0].ttl, 300);
                assert_eq!(records[0].rdata.to_string(), "192.0.2.80");
            }
            other => panic!("{other:?}"),
        }
        // Owner inheritance: the AAAA line had no owner.
        assert!(matches!(
            zone.lookup(&"www.example.com".parse().unwrap(), RType::Aaaa),
            ZoneAnswer::Answer(_)
        ));
        // Relative names resolved against $ORIGIN.
        match zone.lookup(&"alias.example.com".parse().unwrap(), RType::A) {
            ZoneAnswer::Answer(records) => {
                assert_eq!(records[0].rdata.to_string(), "www.example.com");
            }
            other => panic!("{other:?}"),
        }
        // Delegation cut from the file.
        assert!(matches!(
            zone.lookup(&"deep.sub.example.com".parse().unwrap(), RType::A),
            ZoneAnswer::Delegation(_)
        ));
        // Negative answers carry the parsed SOA.
        assert!(matches!(
            zone.lookup(&"missing.example.com".parse().unwrap(), RType::A),
            ZoneAnswer::NxDomain(_)
        ));
    }

    #[test]
    fn mx_and_txt_values() {
        let records = parse_records(EXAMPLE_ZONE, &apex()).unwrap();
        let mx = records.iter().find(|r| r.rtype() == RType::Mx).unwrap();
        assert_eq!(mx.rdata.to_string(), "10 mx1.example.com");
        let txt = records.iter().find(|r| r.rtype() == RType::Txt).unwrap();
        match &txt.rdata {
            RData::Txt(strings) => {
                assert_eq!(strings, &vec!["hello".to_string(), "world".to_string()])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn absolute_names_ignore_origin() {
        let input = "$ORIGIN example.com.\n@ IN SOA ns1 host 1 2 3 4 5\next IN CNAME other.org.\n";
        let records = parse_records(input, &apex()).unwrap();
        let cname = records.iter().find(|r| r.rtype() == RType::Cname).unwrap();
        assert_eq!(cname.rdata.to_string(), "other.org");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let input = "@ IN SOA ns1 host 1 2 3 4 5\nbad IN A not-an-ip\n";
        let e = parse_records(input, &apex()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad IPv4"));
    }

    #[test]
    fn unbalanced_parens_rejected() {
        let input = "@ IN SOA ns1 host ( 1 2 3\n4 5\n";
        let e = parse_records(input, &apex()).unwrap_err();
        assert!(e.message.contains("unterminated"));
        let input2 = "@ IN A ) 1.2.3.4\n";
        assert!(parse_records(input2, &apex()).is_err());
    }

    #[test]
    fn zone_requires_soa_at_apex() {
        let no_soa = "www IN A 192.0.2.1\n";
        assert!(parse_zone(no_soa, &apex())
            .unwrap_err()
            .message
            .contains("no SOA"));
        let wrong_apex = "$ORIGIN other.org.\n@ IN SOA ns1 host 1 2 3 4 5\n";
        assert!(parse_zone(wrong_apex, &apex())
            .unwrap_err()
            .message
            .contains("not the apex"));
    }

    #[test]
    fn unsupported_type_rejected() {
        let input = "@ IN SOA ns1 host 1 2 3 4 5\nx IN SRV 0 0 80 target\n";
        let e = parse_records(input, &apex()).unwrap_err();
        assert!(e.message.contains("unsupported record type"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let input = "; pure comment\n\n@ IN SOA ns1 host 1 2 3 4 5 ; trailing\n";
        let records = parse_records(input, &apex()).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn missing_owner_inheritance_is_an_error() {
        let input = "   IN A 192.0.2.1\n";
        let e = parse_records(input, &apex()).unwrap_err();
        assert!(e.message.contains("no previous owner"));
    }
}
