//! Compressed columnar blocks — the sealed, immutable storage unit behind
//! [`crate::store::PassiveDb`].
//!
//! Ingest appends into uncompressed tail columns; every [`BLOCK_ROWS`]
//! rows the tail is sealed into a [`Block`] whose five columns are encoded
//! independently, each with the cheapest of a few simple schemes:
//!
//! * **names** — already dictionary-encoded store-wide (the interner maps
//!   every qname to a dense `u32`); per block the encoder picks the
//!   smallest of a per-block dictionary (sorted distinct ids + packed
//!   indexes), a packed offset-from-min column, or a zigzag delta +
//!   varint stream.
//! * **days** — delta + varint (zigzag LEB128): day-ordered ingest
//!   collapses to one byte per row.
//! * **sensors** — per-block dictionary (sorted distinct ids + packed
//!   indexes); sensor fleets are small, so indexes are usually one byte.
//! * **rcodes** — run-length encoding when runs are long, raw bytes when
//!   they are not (the encoder compares exact sizes).
//! * **counts** — packed to the narrowest of 1/2/4 bytes.
//!
//! Each block also carries a [`BlockSummary`]: min/max day zone maps plus
//! exact per-rcode, per-sensor, per-month, and per-TLD NXDOMAIN totals.
//! Query kernels answer most of the §4 scale families from summaries
//! alone and use the zone maps to skip blocks a filter can never match;
//! decoding only happens for the row-level families (lifespan, expiry
//! alignment) and for `rows()` iteration. All summary tallies are exact
//! integer sums accumulated through `BTreeMap`, so merge results stay
//! bit-identical to the uncompressed engine.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::collections::BTreeMap;

use nxd_dns_sim::{SimTime, SECONDS_PER_DAY};

use crate::intern::{Interner, NameId};
use crate::store::RawColumns;

/// Rows per sealed block (~64 Ki). Power of two so `row / BLOCK_ROWS`
/// stays a shift in the random-access path.
pub const BLOCK_ROWS: usize = 65_536;

// ---- varint primitives -------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let low = v & 0x7F;
        v >>= 7;
        let byte = if v == 0 { low } else { low | 0x80 };
        out.push(byte.to_le_bytes()[0]);
        if v == 0 {
            break;
        }
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    v
}

#[expect(
    clippy::cast_sign_loss,
    reason = "zigzag encoding is a bijective bit reinterpretation; no count is narrowed"
)]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[expect(
    clippy::cast_possible_wrap,
    reason = "zigzag decoding is a bijective bit reinterpretation; no count is narrowed"
)]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---- packed fixed-width column -----------------------------------------

/// A `u32` column packed at a fixed byte width of 1, 2, or 4.
#[derive(Debug, Clone)]
struct Packed {
    width: usize,
    bytes: Vec<u8>,
}

impl Packed {
    /// Narrowest width that represents every value `<= max`.
    fn width_for(max: u32) -> usize {
        if max < 1 << 8 {
            1
        } else if max < 1 << 16 {
            2
        } else {
            4
        }
    }

    fn encode(values: impl Iterator<Item = u32>, width: usize) -> Packed {
        let mut bytes = Vec::new();
        for v in values {
            let le = v.to_le_bytes();
            bytes.extend_from_slice(&le[..width]);
        }
        Packed { width, bytes }
    }

    fn get(&self, i: usize) -> u32 {
        let at = i * self.width;
        match self.width {
            1 => u32::from(self.bytes[at]),
            2 => u32::from(u16::from_le_bytes([self.bytes[at], self.bytes[at + 1]])),
            _ => u32::from_le_bytes([
                self.bytes[at],
                self.bytes[at + 1],
                self.bytes[at + 2],
                self.bytes[at + 3],
            ]),
        }
    }

    fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

// ---- per-column encodings ----------------------------------------------

/// Name column: the encoder picks the smallest of three layouts.
#[derive(Debug, Clone)]
enum NameCol {
    /// Sorted distinct ids + packed dictionary indexes.
    Dict { dict: Vec<NameId>, idx: Packed },
    /// Packed offsets from the block's minimum id.
    Direct { min: u32, off: Packed },
    /// Zigzag delta + varint stream (first id stored raw).
    Delta {
        first: u32,
        stream: Vec<u8>,
        rows: usize,
    },
}

impl NameCol {
    fn encode(ids: &[NameId]) -> NameCol {
        let min = ids.iter().map(|id| id.0).min().unwrap_or(0);
        let max = ids.iter().map(|id| id.0).max().unwrap_or(0);

        let mut dict: Vec<NameId> = ids.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let dict_idx_width =
            Packed::width_for(u32::try_from(dict.len().saturating_sub(1)).unwrap_or(u32::MAX));
        let dict_size = dict.len() * 4 + ids.len() * dict_idx_width;

        let direct_width = Packed::width_for(max - min);
        let direct_size = ids.len() * direct_width;

        let mut stream = Vec::new();
        let mut prev = i64::from(ids.first().map_or(0, |id| id.0));
        for id in ids.iter().skip(1) {
            let v = i64::from(id.0);
            push_varint(&mut stream, zigzag(v - prev));
            prev = v;
        }
        let delta_size = 4 + stream.len();

        if delta_size <= dict_size && delta_size <= direct_size {
            NameCol::Delta {
                first: ids.first().map_or(0, |id| id.0),
                stream,
                rows: ids.len(),
            }
        } else if dict_size <= direct_size {
            let idx = Packed::encode(
                ids.iter().map(|id| {
                    let pos = dict.binary_search(id).expect("id is in its own dictionary");
                    u32::try_from(pos).expect("dictionary fits u32")
                }),
                dict_idx_width,
            );
            NameCol::Dict { dict, idx }
        } else {
            NameCol::Direct {
                min,
                off: Packed::encode(ids.iter().map(|id| id.0 - min), direct_width),
            }
        }
    }

    fn decode_into(&self, out: &mut Vec<NameId>) {
        out.clear();
        match self {
            NameCol::Dict { dict, idx } => {
                out.extend((0..idx.len()).map(|i| dict[idx.get(i) as usize]));
            }
            NameCol::Direct { min, off } => {
                out.extend((0..off.len()).map(|i| NameId(min + off.get(i))));
            }
            NameCol::Delta {
                first,
                stream,
                rows,
            } => {
                if *rows == 0 {
                    return;
                }
                out.push(NameId(*first));
                let mut prev = i64::from(*first);
                let mut pos = 0usize;
                for _ in 1..*rows {
                    prev += unzigzag(read_varint(stream, &mut pos));
                    out.push(NameId(
                        u32::try_from(prev).expect("name ids round-trip as u32"),
                    ));
                }
            }
        }
    }

    fn byte_len(&self) -> usize {
        match self {
            NameCol::Dict { dict, idx } => dict.len() * 4 + idx.byte_len(),
            NameCol::Direct { off, .. } => 4 + off.byte_len(),
            NameCol::Delta { stream, .. } => 4 + stream.len(),
        }
    }
}

/// Day column: delta + varint (zigzag), first day stored raw.
#[derive(Debug, Clone)]
struct DayCol {
    first: u32,
    stream: Vec<u8>,
    rows: usize,
}

impl DayCol {
    fn encode(days: &[u32]) -> DayCol {
        let mut stream = Vec::new();
        let mut prev = i64::from(days.first().copied().unwrap_or(0));
        for &d in days.iter().skip(1) {
            let v = i64::from(d);
            push_varint(&mut stream, zigzag(v - prev));
            prev = v;
        }
        DayCol {
            first: days.first().copied().unwrap_or(0),
            stream,
            rows: days.len(),
        }
    }

    fn decode_into(&self, out: &mut Vec<u32>) {
        out.clear();
        if self.rows == 0 {
            return;
        }
        out.push(self.first);
        let mut prev = i64::from(self.first);
        let mut pos = 0usize;
        for _ in 1..self.rows {
            prev += unzigzag(read_varint(&self.stream, &mut pos));
            out.push(u32::try_from(prev).expect("days round-trip as u32"));
        }
    }

    fn byte_len(&self) -> usize {
        4 + self.stream.len()
    }
}

/// Rcode column: RLE runs or raw bytes, whichever is smaller.
#[derive(Debug, Clone)]
enum RcodeCol {
    /// `(value, run length)` pairs, run lengths varint-encoded on seal.
    Rle {
        runs: Vec<(u8, u32)>,
    },
    Raw {
        bytes: Vec<u8>,
    },
}

impl RcodeCol {
    fn encode(rcodes: &[u8]) -> RcodeCol {
        let mut runs: Vec<(u8, u32)> = Vec::new();
        for &rc in rcodes {
            match runs.last_mut() {
                Some((v, n)) if *v == rc => *n += 1,
                _ => runs.push((rc, 1)),
            }
        }
        // A run costs ~2 bytes (value + short varint length); raw costs one
        // byte per row.
        if runs.len() * 2 <= rcodes.len() {
            RcodeCol::Rle { runs }
        } else {
            RcodeCol::Raw {
                bytes: rcodes.to_vec(),
            }
        }
    }

    fn decode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            RcodeCol::Rle { runs } => {
                for &(v, n) in runs {
                    out.resize(out.len() + n as usize, v);
                }
            }
            RcodeCol::Raw { bytes } => out.extend_from_slice(bytes),
        }
    }

    fn byte_len(&self) -> usize {
        match self {
            RcodeCol::Rle { runs } => runs.len() * 2,
            RcodeCol::Raw { bytes } => bytes.len(),
        }
    }
}

// ---- block summary ------------------------------------------------------

/// Zone maps and exact pre-aggregated totals for one sealed block.
///
/// Built once at seal time with `BTreeMap` accumulators (sorted output,
/// integer sums), so any merge over summaries is order-independent and
/// bit-identical to scanning the decoded rows.
#[derive(Debug, Clone)]
pub(crate) struct BlockSummary {
    pub rows: usize,
    /// Zone map: minimum day in the block.
    pub min_day: u32,
    /// Zone map: maximum day in the block.
    pub max_day: u32,
    /// Rows carrying NXDOMAIN.
    pub nx_rows: usize,
    /// Summed `count` per rcode, sorted by rcode.
    pub rcode_totals: Vec<(u8, u64)>,
    /// Summed NXDOMAIN `count` per sensor, sorted by sensor.
    pub nx_by_sensor: Vec<(u16, u64)>,
    /// Summed NXDOMAIN `count` per month index, sorted by month.
    pub nx_by_month: Vec<(i64, u64)>,
    /// Summed NXDOMAIN `count` per TLD id, sorted by TLD id.
    pub nx_by_tld: Vec<(u32, u64)>,
}

impl BlockSummary {
    /// Summed `count` for one rcode (0 when the block has none).
    pub fn rcode_total(&self, rcode: u8) -> u64 {
        match self
            .rcode_totals
            .binary_search_by_key(&rcode, |&(rc, _)| rc)
        {
            Ok(i) => self.rcode_totals[i].1,
            Err(_) => 0,
        }
    }

    /// Whether the block contains any row with `rcode`.
    pub fn has_rcode(&self, rcode: u8) -> bool {
        self.rcode_totals
            .binary_search_by_key(&rcode, |&(rc, _)| rc)
            .is_ok()
    }

    fn byte_len(&self) -> usize {
        self.rcode_totals.len() * 9
            + self.nx_by_sensor.len() * 10
            + self.nx_by_month.len() * 16
            + self.nx_by_tld.len() * 12
            + 24
    }
}

/// Month index (months since 2014-01) for a day number — the same
/// conversion `query::monthly_nx_series` applies per row.
pub(crate) fn month_of_day(day: u32) -> i64 {
    SimTime(u64::from(day) * SECONDS_PER_DAY).month_index()
}

// ---- the block ----------------------------------------------------------

/// One sealed, compressed, immutable run of [`BLOCK_ROWS`] rows.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    rows: usize,
    names: NameCol,
    days: DayCol,
    sensor_dict: Vec<u16>,
    sensor_idx: Packed,
    rcodes: RcodeCol,
    counts: Packed,
    summary: BlockSummary,
}

/// Reusable decode buffers; one per scanning thread.
#[derive(Debug, Default)]
pub(crate) struct BlockScratch {
    pub names: Vec<NameId>,
    pub days: Vec<u32>,
    pub sensors: Vec<u16>,
    pub rcodes: Vec<u8>,
    pub counts: Vec<u32>,
}

impl Block {
    /// Seals raw tail columns into a compressed block. The interner is
    /// only consulted for the per-TLD summary.
    pub fn seal(cols: RawColumns<'_>, nx_rcode: u8, interner: &Interner) -> Block {
        let (names, days, sensors, rcodes, counts) = cols;
        let rows = names.len();

        let mut sensor_dict: Vec<u16> = sensors.to_vec();
        sensor_dict.sort_unstable();
        sensor_dict.dedup();
        let sensor_width = Packed::width_for(
            u32::try_from(sensor_dict.len().saturating_sub(1)).unwrap_or(u32::MAX),
        );
        let sensor_idx = Packed::encode(
            sensors.iter().map(|s| {
                let pos = sensor_dict
                    .binary_search(s)
                    .expect("sensor is in its own dictionary");
                u32::try_from(pos).expect("sensor dictionary fits u32")
            }),
            sensor_width,
        );

        let count_width = Packed::width_for(counts.iter().copied().max().unwrap_or(0));
        let counts_packed = Packed::encode(counts.iter().copied(), count_width);

        let mut rcode_totals: BTreeMap<u8, u64> = BTreeMap::new();
        let mut nx_by_sensor: BTreeMap<u16, u64> = BTreeMap::new();
        let mut nx_by_month: BTreeMap<i64, u64> = BTreeMap::new();
        let mut nx_by_tld: BTreeMap<u32, u64> = BTreeMap::new();
        let mut nx_rows = 0usize;
        for i in 0..rows {
            let c = u64::from(counts[i]);
            *rcode_totals.entry(rcodes[i]).or_insert(0) += c;
            if rcodes[i] == nx_rcode {
                nx_rows += 1;
                *nx_by_sensor.entry(sensors[i]).or_insert(0) += c;
                *nx_by_month.entry(month_of_day(days[i])).or_insert(0) += c;
                *nx_by_tld.entry(interner.tld_id(names[i])).or_insert(0) += c;
            }
        }
        let summary = BlockSummary {
            rows,
            min_day: days.iter().copied().min().unwrap_or(0),
            max_day: days.iter().copied().max().unwrap_or(0),
            nx_rows,
            rcode_totals: rcode_totals.into_iter().collect(),
            nx_by_sensor: nx_by_sensor.into_iter().collect(),
            nx_by_month: nx_by_month.into_iter().collect(),
            nx_by_tld: nx_by_tld.into_iter().collect(),
        };

        Block {
            rows,
            names: NameCol::encode(names),
            days: DayCol::encode(days),
            sensor_dict,
            sensor_idx,
            rcodes: RcodeCol::encode(rcodes),
            counts: counts_packed,
            summary,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn summary(&self) -> &BlockSummary {
        &self.summary
    }

    /// Encoded footprint in bytes (columns + summary).
    pub fn encoded_bytes(&self) -> usize {
        self.names.byte_len()
            + self.days.byte_len()
            + self.sensor_dict.len() * 2
            + self.sensor_idx.byte_len()
            + self.rcodes.byte_len()
            + self.counts.byte_len()
            + self.summary.byte_len()
    }

    /// Decodes all five columns into `scratch`, preserving row order.
    pub fn decode_into(&self, scratch: &mut BlockScratch) {
        self.names.decode_into(&mut scratch.names);
        self.days.decode_into(&mut scratch.days);
        scratch.sensors.clear();
        scratch
            .sensors
            .extend((0..self.rows).map(|i| self.sensor_dict[self.sensor_idx.get(i) as usize]));
        self.rcodes.decode_into(&mut scratch.rcodes);
        scratch.counts.clear();
        scratch
            .counts
            .extend((0..self.rows).map(|i| self.counts.get(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(names: &[u32], days: &[u32], sensors: &[u16], rcodes: &[u8], counts: &[u32]) {
        // nx_rcode 99 never matches, so the TLD summary (the only interner
        // consumer) stays empty and synthetic ids need no backing strings.
        let interner = Interner::new();
        let ids: Vec<NameId> = names.iter().map(|&n| NameId(n)).collect();
        let block = Block::seal((&ids, days, sensors, rcodes, counts), 99, &interner);
        let mut s = BlockScratch::default();
        block.decode_into(&mut s);
        assert_eq!(s.names, ids);
        assert_eq!(s.days, days);
        assert_eq!(s.sensors, sensors);
        assert_eq!(s.rcodes, rcodes);
        assert_eq!(s.counts, counts);
    }

    #[test]
    fn roundtrip_repeat_heavy_block_uses_dictionary() {
        // Few distinct ids, many rows: the dictionary layout wins.
        let names: Vec<u32> = (0..1000).map(|i| i % 7).collect();
        let days: Vec<u32> = (0..1000).map(|i| 16_000 + i / 100).collect();
        let sensors: Vec<u16> = (0..1000).map(|i| u16::try_from(i % 3).unwrap()).collect();
        let rcodes: Vec<u8> = (0..1000).map(|i| if i < 700 { 0 } else { 3 }).collect();
        let counts: Vec<u32> = (0..1000).map(|i| i % 50 + 1).collect();
        roundtrip(&names, &days, &sensors, &rcodes, &counts);
    }

    #[test]
    fn roundtrip_wide_id_range_and_alternating_rcodes() {
        // Ids spread over a huge sparse range with alternating rcodes: the
        // encoder must fall back to delta/direct names and raw rcodes.
        let names: Vec<u32> = (0..500).map(|i| i * 8_191 + (i % 13) * 1_000_000).collect();
        let days: Vec<u32> = (0..500).map(|i| 20_000 - i % 97).collect();
        let sensors: Vec<u16> = (0..500).map(|i| u16::try_from(i % 300).unwrap()).collect();
        let rcodes: Vec<u8> = (0..500).map(|i| u8::try_from(i % 4).unwrap()).collect();
        let counts: Vec<u32> = (0..500).map(|i| i * 1000).collect();
        roundtrip(&names, &days, &sensors, &rcodes, &counts);
    }

    #[test]
    fn roundtrip_single_row_and_extremes() {
        roundtrip(&[0], &[0], &[0], &[0], &[0]);
        roundtrip(
            &[u32::MAX - 7],
            &[u32::MAX],
            &[u16::MAX],
            &[255],
            &[u32::MAX],
        );
    }

    #[test]
    fn summary_totals_are_exact() {
        let mut interner = Interner::new();
        let a = interner.intern_str("a.com");
        let b = interner.intern_str("b.ru");
        let ids = vec![a, b, a, b];
        let days = vec![10, 10, 40, 70];
        let sensors = vec![0u16, 1, 0, 1];
        let rcodes = vec![3u8, 0, 3, 3];
        let counts = vec![5u32, 100, 7, 11];
        let block = Block::seal((&ids, &days, &sensors, &rcodes, &counts), 3, &interner);
        let s = block.summary();
        assert_eq!(s.rows, 4);
        assert_eq!((s.min_day, s.max_day), (10, 70));
        assert_eq!(s.nx_rows, 3);
        assert_eq!(s.rcode_total(3), 23);
        assert_eq!(s.rcode_total(0), 100);
        assert_eq!(s.rcode_total(2), 0);
        assert!(s.has_rcode(0) && !s.has_rcode(2));
        assert_eq!(s.nx_by_sensor, vec![(0, 12), (1, 11)]);
        assert_eq!(
            s.nx_by_tld,
            vec![(interner.tld_id(a), 12), (interner.tld_id(b), 11),]
        );
        // Days 10/40 are January 1970-epoch months 0/1 relative to the sim
        // calendar — just assert consistency with the shared conversion.
        let mut want: BTreeMap<i64, u64> = BTreeMap::new();
        for i in [0usize, 2, 3] {
            *want.entry(month_of_day(days[i])).or_insert(0) += u64::from(counts[i]);
        }
        assert_eq!(s.nx_by_month, want.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn compressed_beats_raw_on_ordered_data() {
        // Day-ordered, rcode-grouped, small counts: the shape SIE exports
        // arrive in. 15 bytes/row raw must compress well below half.
        let rows = 4096usize;
        let names: Vec<u32> = (0..rows).map(|i| u32::try_from(i % 512).unwrap()).collect();
        let days: Vec<u32> = (0..rows)
            .map(|i| u32::try_from(16_000 + i / 64).unwrap())
            .collect();
        let sensors: Vec<u16> = (0..rows).map(|i| u16::try_from(i % 16).unwrap()).collect();
        let rcodes: Vec<u8> = (0..rows)
            .map(|i| if (i / 64) % 2 == 0 { 0 } else { 3 })
            .collect();
        let counts: Vec<u32> = (0..rows)
            .map(|i| u32::try_from(i % 200 + 1).unwrap())
            .collect();
        let mut interner = Interner::new();
        for i in 0..512 {
            interner.intern_str(&format!("n{i}.com"));
        }
        let ids: Vec<NameId> = names.iter().map(|&n| NameId(n)).collect();
        let block = Block::seal((&ids, &days, &sensors, &rcodes, &counts), 3, &interner);
        let raw = rows * 15;
        assert!(
            block.encoded_bytes() * 2 < raw,
            "encoded {} vs raw {raw}",
            block.encoded_bytes()
        );
        let mut s = BlockScratch::default();
        block.decode_into(&mut s);
        assert_eq!(s.days, days);
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::from(i32::MAX), i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
