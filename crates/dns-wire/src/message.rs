//! DNS message: header, question, resource records, full encode/decode.

use crate::codec::{WireReader, WireWriter};
use crate::error::WireError;
use crate::name::Name;
use crate::rdata::RData;
use crate::types::{OpCode, RClass, RCode, RType};

/// Message header flags and counts (RFC 1035 §4.1.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    pub id: u16,
    /// Query (false) or response (true).
    pub qr: bool,
    pub opcode: OpCode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncation.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    pub rcode: RCode,
}

impl Header {
    /// A recursive query header.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            qr: false,
            opcode: OpCode::Query,
            aa: false,
            tc: false,
            rd: true,
            ra: false,
            rcode: RCode::NoError,
        }
    }

    /// A response header answering `query` with `rcode`.
    fn response_to(query: &Header, rcode: RCode) -> Self {
        Header {
            id: query.id,
            qr: true,
            opcode: query.opcode,
            aa: false,
            tc: false,
            rd: query.rd,
            ra: true,
            rcode,
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub qname: Name,
    pub qtype: RType,
    pub qclass: RClass,
}

impl Question {
    pub fn new(qname: Name, qtype: RType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RClass::In,
        }
    }
}

/// A resource record in the answer/authority/additional sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub name: Name,
    pub class: RClass,
    pub ttl: u32,
    pub rdata: RData,
}

impl Record {
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: RClass::In,
            ttl,
            rdata,
        }
    }

    pub fn rtype(&self) -> RType {
        self.rdata.rtype()
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub header: Header,
    pub questions: Vec<Question>,
    pub answers: Vec<Record>,
    pub authorities: Vec<Record>,
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a single-question recursive query.
    pub fn query(id: u16, qname: Name, qtype: RType) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![Question::new(qname, qtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Builds a response to `query` carrying `rcode`, echoing the question.
    pub fn response(query: &Message, rcode: RCode) -> Self {
        Message {
            header: Header::response_to(&query.header, rcode),
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Whether this is an NXDOMAIN response.
    pub fn is_nxdomain(&self) -> bool {
        self.header.qr && self.header.rcode.is_nxdomain()
    }

    /// Encodes to wire format with name compression.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        self.encode_with(WireWriter::new())
    }

    /// Encodes without compression (for size-comparison benches/tests).
    pub fn encode_uncompressed(&self) -> Result<Vec<u8>, WireError> {
        self.encode_with(WireWriter::without_compression())
    }

    fn encode_with(&self, mut w: WireWriter) -> Result<Vec<u8>, WireError> {
        let h = &self.header;
        w.put_u16(h.id);
        let mut flags: u16 = 0;
        if h.qr {
            flags |= 0x8000;
        }
        flags |= (h.opcode.to_u8() as u16) << 11;
        if h.aa {
            flags |= 0x0400;
        }
        if h.tc {
            flags |= 0x0200;
        }
        if h.rd {
            flags |= 0x0100;
        }
        if h.ra {
            flags |= 0x0080;
        }
        flags |= h.rcode.to_u8() as u16 & 0x000F;
        w.put_u16(flags);
        w.put_u16(self.questions.len() as u16);
        w.put_u16(self.answers.len() as u16);
        w.put_u16(self.authorities.len() as u16);
        w.put_u16(self.additionals.len() as u16);

        for q in &self.questions {
            w.put_name(&q.qname)?;
            w.put_u16(q.qtype.to_u16());
            w.put_u16(q.qclass.to_u16());
        }
        for section in [&self.answers, &self.authorities, &self.additionals] {
            for rec in section {
                w.put_name(&rec.name)?;
                w.put_u16(rec.rtype().to_u16());
                w.put_u16(rec.class.to_u16());
                w.put_u32(rec.ttl);
                let len_at = w.len();
                w.put_u16(0);
                let before = w.len();
                rec.rdata.encode(&mut w)?;
                let rdlen = w.len() - before;
                if rdlen > u16::MAX as usize {
                    return Err(WireError::MessageTooLong(rdlen));
                }
                w.patch_u16(len_at, rdlen as u16)?;
            }
        }
        w.finish()
    }

    /// Decodes a full message from wire format.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let id = r.read_u16()?;
        let flags = r.read_u16()?;
        let header = Header {
            id,
            qr: flags & 0x8000 != 0,
            opcode: OpCode::from_u8(((flags >> 11) & 0x0F) as u8)?,
            aa: flags & 0x0400 != 0,
            tc: flags & 0x0200 != 0,
            rd: flags & 0x0100 != 0,
            ra: flags & 0x0080 != 0,
            rcode: RCode::from_u8((flags & 0x000F) as u8),
        };
        let qdcount = r.read_u16()? as usize;
        let ancount = r.read_u16()? as usize;
        let nscount = r.read_u16()? as usize;
        let arcount = r.read_u16()? as usize;

        let mut questions = Vec::with_capacity(qdcount.min(32));
        for _ in 0..qdcount {
            questions.push(Question {
                qname: r.read_name()?,
                qtype: RType::from_u16(r.read_u16()?),
                qclass: RClass::from_u16(r.read_u16()?),
            });
        }
        let read_section =
            |count: usize, r: &mut WireReader<'_>| -> Result<Vec<Record>, WireError> {
                let mut out = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    let name = r.read_name()?;
                    let rtype = RType::from_u16(r.read_u16()?);
                    let class = RClass::from_u16(r.read_u16()?);
                    let ttl = r.read_u32()?;
                    let rdlength = r.read_u16()? as usize;
                    let rdata = RData::decode(rtype, rdlength, r)?;
                    out.push(Record {
                        name,
                        class,
                        ttl,
                        rdata,
                    });
                }
                Ok(out)
            };
        let answers = read_section(ancount, &mut r)?;
        let authorities = read_section(nscount, &mut r)?;
        let additionals = read_section(arcount, &mut r)?;
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::Soa;
    use std::net::Ipv4Addr;

    fn qname() -> Name {
        "www.example.com".parse().unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let msg = Message::query(0x1234, qname(), RType::A);
        let buf = msg.encode().unwrap();
        let back = Message::decode(&buf).unwrap();
        assert_eq!(back, msg);
        assert!(!back.header.qr);
        assert!(back.header.rd);
    }

    #[test]
    fn nxdomain_response_roundtrip() {
        let q = Message::query(7, "no-such-name.example".parse().unwrap(), RType::A);
        let mut resp = Message::response(&q, RCode::NxDomain);
        // RFC 2308: NXDOMAIN responses carry the zone SOA in authority.
        resp.authorities.push(Record::new(
            "example".parse().unwrap(),
            900,
            RData::Soa(Soa {
                mname: "ns1.example".parse().unwrap(),
                rname: "host.example".parse().unwrap(),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 900,
            }),
        ));
        let buf = resp.encode().unwrap();
        let back = Message::decode(&buf).unwrap();
        assert!(back.is_nxdomain());
        assert_eq!(back.authorities.len(), 1);
        assert_eq!(back, resp);
    }

    #[test]
    fn full_response_with_all_sections() {
        let q = Message::query(99, qname(), RType::A);
        let mut resp = Message::response(&q, RCode::NoError);
        resp.header.aa = true;
        resp.answers.push(Record::new(
            qname(),
            300,
            RData::A(Ipv4Addr::new(93, 184, 216, 34)),
        ));
        resp.authorities.push(Record::new(
            "example.com".parse().unwrap(),
            86400,
            RData::Ns("ns1.example.com".parse().unwrap()),
        ));
        resp.additionals.push(Record::new(
            "ns1.example.com".parse().unwrap(),
            86400,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let buf = resp.encode().unwrap();
        let back = Message::decode(&buf).unwrap();
        assert_eq!(back, resp);
        assert!(back.header.aa);
    }

    #[test]
    fn compression_shrinks_messages() {
        let q = Message::query(5, qname(), RType::A);
        let mut resp = Message::response(&q, RCode::NoError);
        for i in 0..4 {
            resp.answers.push(Record::new(
                qname(),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, i)),
            ));
        }
        let compressed = resp.encode().unwrap();
        let plain = resp.encode_uncompressed().unwrap();
        assert!(compressed.len() < plain.len());
        assert_eq!(
            Message::decode(&compressed).unwrap(),
            Message::decode(&plain).unwrap()
        );
    }

    #[test]
    fn header_flag_bits_roundtrip() {
        for qr in [false, true] {
            for aa in [false, true] {
                for tc in [false, true] {
                    for rd in [false, true] {
                        for ra in [false, true] {
                            let msg = Message {
                                header: Header {
                                    id: 42,
                                    qr,
                                    opcode: OpCode::Query,
                                    aa,
                                    tc,
                                    rd,
                                    ra,
                                    rcode: RCode::Refused,
                                },
                                questions: vec![],
                                answers: vec![],
                                authorities: vec![],
                                additionals: vec![],
                            };
                            let back = Message::decode(&msg.encode().unwrap()).unwrap();
                            assert_eq!(back, msg);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn response_echoes_question_and_id() {
        let q = Message::query(0xABCD, qname(), RType::Aaaa);
        let resp = Message::response(&q, RCode::NxDomain);
        assert_eq!(resp.header.id, 0xABCD);
        assert_eq!(resp.questions, q.questions);
        assert!(resp.header.ra);
    }

    #[test]
    fn decode_rejects_truncated_message() {
        let msg = Message::query(1, qname(), RType::A);
        let buf = msg.encode().unwrap();
        for cut in [0, 5, 11, buf.len() - 1] {
            assert!(
                Message::decode(&buf[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_garbage_never_panics() {
        // A tiny deterministic fuzz: mutate one byte at every position.
        let msg = Message::query(3, qname(), RType::A);
        let buf = msg.encode().unwrap();
        for i in 0..buf.len() {
            for delta in [1u8, 0x80, 0xC0] {
                let mut m = buf.clone();
                m[i] = m[i].wrapping_add(delta);
                let _ = Message::decode(&m); // must not panic
            }
        }
    }
}
