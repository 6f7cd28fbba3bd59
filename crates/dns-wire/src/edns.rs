//! EDNS(0) — RFC 6891 OPT pseudo-record support.
//!
//! The OPT record repurposes its fixed fields: CLASS carries the requester's
//! UDP payload size, TTL packs the extended RCODE, EDNS version, and the
//! DO bit, and RDATA holds a list of `(option-code, option-data)` pairs.
//! The simulation uses EDNS for realistic message-size negotiation (large
//! responses fit without truncation when the client advertises > 512), and
//! [`fit_udp`] is the one datagram-size policy: what does not fit the
//! querier's limit goes out as a TC=1 stub.

use std::borrow::Cow;

use crate::error::WireError;
use crate::message::{Header, Message, Record};
use crate::name::Name;
use crate::rdata::RData;
use crate::types::{RClass, RType};

/// Default UDP payload size without EDNS (RFC 1035).
pub const CLASSIC_UDP_LIMIT: usize = 512;
/// Common EDNS advertised payload size.
pub const DEFAULT_EDNS_PAYLOAD: u16 = 1232;

/// One EDNS option (kept opaque; cookies and padding round-trip).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdnsOption {
    pub code: u16,
    pub data: Vec<u8>,
}

/// Decoded view of an OPT pseudo-record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edns {
    /// Requester's maximum UDP payload size.
    pub udp_payload: u16,
    /// Upper 8 bits of the extended RCODE.
    pub extended_rcode: u8,
    pub version: u8,
    /// DNSSEC OK bit.
    pub dnssec_ok: bool,
    pub options: Vec<EdnsOption>,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload: DEFAULT_EDNS_PAYLOAD,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }
}

impl Edns {
    /// Builds the OPT record encoding this EDNS state.
    fn to_record(&self) -> Record {
        let mut rdata = Vec::new();
        for opt in &self.options {
            rdata.extend_from_slice(&opt.code.to_be_bytes());
            rdata.extend_from_slice(&(opt.data.len() as u16).to_be_bytes());
            rdata.extend_from_slice(&opt.data);
        }
        let ttl = ((self.extended_rcode as u32) << 24)
            | ((self.version as u32) << 16)
            | if self.dnssec_ok { 0x8000 } else { 0 };
        Record {
            name: Name::root(),
            class: RClass::Other(self.udp_payload),
            ttl,
            rdata: RData::Opt(rdata),
        }
    }

    /// Decodes an OPT record; `None` if the record is not OPT or its RDATA
    /// is malformed.
    fn from_record(record: &Record) -> Option<Edns> {
        let RData::Opt(raw) = &record.rdata else {
            return None;
        };
        let udp_payload = record.class.to_u16();
        let extended_rcode = (record.ttl >> 24) as u8;
        let version = (record.ttl >> 16) as u8;
        let dnssec_ok = record.ttl & 0x8000 != 0;
        let mut options = Vec::new();
        let mut i = 0;
        while let Some(&[c0, c1, l0, l1]) = raw.get(i..i + 4) {
            let code = u16::from_be_bytes([c0, c1]);
            let len = u16::from_be_bytes([l0, l1]) as usize;
            let data = raw.get(i + 4..i + 4 + len)?;
            options.push(EdnsOption {
                code,
                data: data.to_vec(),
            });
            i += 4 + len;
        }
        if i != raw.len() {
            return None;
        }
        Some(Edns {
            udp_payload,
            extended_rcode,
            version,
            dnssec_ok,
            options,
        })
    }
}

/// Message-level EDNS helpers.
pub trait EdnsMessage {
    /// The message's EDNS state, if it carries an OPT record.
    fn edns(&self) -> Option<Edns>;
    /// Attaches (or replaces) the OPT record in the additional section.
    fn set_edns(&mut self, edns: Edns);
    /// The effective UDP payload limit this message's sender can accept.
    fn udp_limit(&self) -> usize;
}

impl EdnsMessage for Message {
    fn edns(&self) -> Option<Edns> {
        self.additionals
            .iter()
            .find(|r| r.rtype() == RType::Opt)
            .and_then(Edns::from_record)
    }

    fn set_edns(&mut self, edns: Edns) {
        self.additionals.retain(|r| r.rtype() != RType::Opt);
        self.additionals.push(edns.to_record());
    }

    fn udp_limit(&self) -> usize {
        self.edns()
            .map(|e| (e.udp_payload as usize).max(CLASSIC_UDP_LIMIT))
            .unwrap_or(CLASSIC_UDP_LIMIT)
    }
}

/// Fits a UDP response to the querier's payload limit
/// ([`EdnsMessage::udp_limit`] of the query). A response that fits is
/// returned byte for byte; an oversized one becomes the RFC 6891 §7 minimal
/// response — the same header with TC=1, the question section, and the
/// response's OPT record if it has one — so the client retries over TCP.
/// Only the oversize path decodes, and only it can fail.
pub fn fit_udp(response: &[u8], limit: usize) -> Result<Cow<'_, [u8]>, WireError> {
    if response.len() <= limit {
        return Ok(Cow::Borrowed(response));
    }
    let Message {
        header,
        questions,
        additionals,
        ..
    } = Message::decode(response)?;
    let stub = Message {
        header: Header { tc: true, ..header },
        questions,
        answers: Vec::new(),
        authorities: Vec::new(),
        additionals: additionals
            .into_iter()
            .filter(|r| r.rtype() == RType::Opt)
            .collect(),
    };
    Ok(Cow::Owned(stub.encode()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RCode;

    #[test]
    fn record_roundtrip() {
        let edns = Edns {
            udp_payload: 4096,
            extended_rcode: 1,
            version: 0,
            dnssec_ok: true,
            options: vec![EdnsOption {
                code: 10,
                data: vec![1, 2, 3, 4, 5, 6, 7, 8],
            }],
        };
        let record = edns.to_record();
        assert_eq!(record.rtype(), RType::Opt);
        assert_eq!(Edns::from_record(&record), Some(edns));
    }

    #[test]
    fn message_roundtrip_through_wire() {
        let mut msg = Message::query(7, "edns-test.com".parse().unwrap(), RType::A);
        msg.set_edns(Edns {
            udp_payload: 1400,
            ..Default::default()
        });
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        let edns = back.edns().expect("OPT survived the wire");
        assert_eq!(edns.udp_payload, 1400);
        assert_eq!(back.udp_limit(), 1400);
    }

    #[test]
    fn no_opt_means_classic_limit() {
        let msg = Message::query(7, "plain.com".parse().unwrap(), RType::A);
        assert_eq!(msg.edns(), None);
        assert_eq!(msg.udp_limit(), CLASSIC_UDP_LIMIT);
    }

    #[test]
    fn tiny_advertised_payload_clamps_to_classic() {
        let mut msg = Message::query(7, "tiny.com".parse().unwrap(), RType::A);
        msg.set_edns(Edns {
            udp_payload: 100,
            ..Default::default()
        });
        assert_eq!(msg.udp_limit(), CLASSIC_UDP_LIMIT);
    }

    #[test]
    fn set_edns_replaces_existing() {
        let mut msg = Message::query(7, "x.com".parse().unwrap(), RType::A);
        msg.set_edns(Edns {
            udp_payload: 1232,
            ..Default::default()
        });
        msg.set_edns(Edns {
            udp_payload: 4096,
            ..Default::default()
        });
        assert_eq!(msg.additionals.len(), 1);
        assert_eq!(msg.edns().unwrap().udp_payload, 4096);
    }

    #[test]
    fn malformed_options_rejected() {
        let record = Record {
            name: Name::root(),
            class: RClass::Other(1232),
            ttl: 0,
            rdata: RData::Opt(vec![0, 10, 0, 9, 1]), // declares 9 bytes, has 1
        };
        assert_eq!(Edns::from_record(&record), None);
        let trailing = Record {
            name: Name::root(),
            class: RClass::Other(1232),
            ttl: 0,
            rdata: RData::Opt(vec![0, 1, 0, 0, 9]), // 1 stray byte
        };
        assert_eq!(Edns::from_record(&trailing), None);
    }

    #[test]
    fn non_opt_record_is_not_edns() {
        let a = Record::new(
            "a.com".parse().unwrap(),
            60,
            RData::A(std::net::Ipv4Addr::LOCALHOST),
        );
        assert_eq!(Edns::from_record(&a), None);
    }

    #[test]
    fn rcode_passthrough_unaffected() {
        // Extended-rcode packing must not disturb the base header rcode.
        let q = Message::query(9, "y.com".parse().unwrap(), RType::A);
        let mut resp = Message::response(&q, RCode::NxDomain);
        resp.set_edns(Edns {
            extended_rcode: 0,
            ..Default::default()
        });
        let back = Message::decode(&resp.encode().unwrap()).unwrap();
        assert!(back.is_nxdomain());
    }
}
