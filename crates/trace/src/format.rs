//! The `.ptrace` on-disk format: header, framed chunks, event record codec,
//! and the JSON metadata sidecar carried inside a META chunk.
//!
//! ## Layout
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   "PTRACE" + version u16 + header_len u32 + payload   │
//! │          payload (v1): base u64, size u64                    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ chunk*   "CHNK" kind u8 flags u8 records u32 len u32 crc u32 │
//! │          followed by `len` payload bytes (CRC-32 of payload) │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer  index_offset u64, total_records u64, "PTRCEND1"     │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All fixed-width integers are little-endian. The header's `header_len`
//! counts the payload bytes after itself, so old readers can skip fields a
//! newer writer appends. Chunk kinds: [`CHUNK_EVENTS`] (delta-coded access
//! records), [`CHUNK_META`] (one JSON [`TraceMeta`]), [`CHUNK_INDEX`]
//! (chunk directory for random access). Unknown kinds are skipped by
//! readers. The trailer is optional — a truncated file simply loses it and
//! readers fall back to a sequential scan.
//!
//! ## Event records
//!
//! Each record is a flags byte followed by two varints:
//!
//! * flags bit 0 — access kind (1 = write);
//! * flags bits 1–3 — size class (1, 2, 4, 8, 16, 32, 64 bytes; class 7
//!   escapes to an explicit varint size);
//! * ZigZag varint: `addr − prev_addr`;
//! * ZigZag varint: `tid − prev_tid`.
//!
//! The `(prev_addr, prev_tid)` pair resets to `(0, 0)` at every chunk
//! boundary, so one corrupt chunk never poisons the decode of its
//! neighbours. Typical stride-loop records cost 3–4 bytes against ~50 for
//! the JSONL encoding.

use predator_alloc::{Callsite, Frame, TrackedHeap};
use predator_core::{ObjectDirectory, ObjectReport, Predator, SiteKind};
use predator_sim::{Access, AccessKind, ThreadId};
use serde::{Deserialize, Serialize};

use crate::varint;

/// File magic, first 6 bytes of every `.ptrace` file.
pub const MAGIC: &[u8; 6] = b"PTRACE";
/// Current schema version.
pub const VERSION: u16 = 1;
/// Chunk frame magic, also the resync marker after corruption.
pub const CHUNK_MAGIC: &[u8; 4] = b"CHNK";
/// Trailing end-of-file magic.
pub const END_MAGIC: &[u8; 8] = b"PTRCEND1";

/// Chunk kind: delta-encoded access records.
pub const CHUNK_EVENTS: u8 = 1;
/// Chunk kind: JSON [`TraceMeta`] payload.
pub const CHUNK_META: u8 = 2;
/// Chunk kind: chunk directory (offsets/kinds/counts) for random access.
pub const CHUNK_INDEX: u8 = 3;

/// Bytes in a chunk frame header: magic + kind + flags + records + len + crc.
pub const CHUNK_FRAME_LEN: usize = 4 + 1 + 1 + 4 + 4 + 4;
/// Bytes in the file trailer: index offset + total records + end magic.
pub const TRAILER_LEN: usize = 8 + 8 + 8;
/// Sanity cap on a single chunk payload; larger lengths are treated as
/// corruption during resync rather than honoured as 4 GiB allocations.
pub const MAX_CHUNK_PAYLOAD: u32 = 16 << 20;

/// Parsed `.ptrace` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Schema version the file was written with.
    pub version: u16,
    /// Base simulated address of the traced space.
    pub base: u64,
    /// Size in bytes of the traced space.
    pub size: u64,
}

/// Serialised header length for version 1 (magic + version + header_len +
/// base + size).
pub const HEADER_V1_LEN: usize = 6 + 2 + 4 + 8 + 8;

/// Alignment a header's `base` must have: the largest portfolio line, so the
/// shadow base is line-aligned at every geometry `whatif` replays at.
pub const BASE_ALIGN: u64 = 256;
/// Largest `size` a header may claim: 1 GiB. Every detector shadows the
/// whole range eagerly at 12 B per line (a write counter and a track slot),
/// so this caps one detector at 192 MiB of shadow with 64 B lines (384 MiB
/// with 32 B lines); recordings cover 64 MiB, a sixteenth of it.
pub const MAX_SPAN: u64 = 1 << 30;

/// What a range derived from events is aligned to: a page — a multiple of
/// [`BASE_ALIGN`] times every line scale a detector analyses (16 at most).
pub(crate) const PAGE: u64 = 4096;

/// First and last byte `events` touch inside `window`, straddlers' far ends
/// included and clipped to it; `None` when they touch nothing there.
pub(crate) fn touched_hull(
    events: &[Access],
    window: std::ops::RangeInclusive<u64>,
) -> Option<(u64, u64)> {
    let (mut lo, mut hi) = (u64::MAX, 0);
    for a in events {
        let first = a.addr.max(*window.start());
        let last = a.addr.saturating_add(a.size.max(1) as u64 - 1);
        let last = last.min(*window.end());
        if first <= last {
            (lo, hi) = (lo.min(first), hi.max(last));
        }
    }
    (lo <= hi).then_some((lo, hi))
}

impl Header {
    /// What a range must satisfy before anything is sized by it: `base`
    /// aligned to [`BASE_ALIGN`], `base + size` inside the address space,
    /// `size` at most [`MAX_SPAN`]. The header is the one part of the file
    /// without a CRC, so this is all that stands between a damaged field
    /// and a shadow allocation. The error names the offending values.
    pub fn validate(&self) -> Result<(), String> {
        let Header { base, size, .. } = *self;
        if base % BASE_ALIGN != 0 {
            return Err(format!("base {base:#x} is not {BASE_ALIGN}-byte aligned"));
        }
        if base.checked_add(size).is_none() {
            return Err(format!("base {base:#x} + size {size:#x} overflows"));
        }
        if size > MAX_SPAN {
            return Err(format!(
                "size {size:#x} exceeds the {MAX_SPAN:#x}-byte span a shadow can cover"
            ));
        }
        Ok(())
    }

    /// Encodes the header for writing.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_V1_LEN);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&16u32.to_le_bytes()); // payload bytes that follow
        out.extend_from_slice(&self.base.to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        out
    }
}

/// Parsed chunk frame (the fixed-width part preceding the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Chunk kind ([`CHUNK_EVENTS`], [`CHUNK_META`], [`CHUNK_INDEX`] …).
    pub kind: u8,
    /// Reserved; zero in version 1.
    pub flags: u8,
    /// Records in the payload (events for event chunks, entries for index).
    pub record_count: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

impl ChunkFrame {
    /// Encodes the frame header (payload follows separately).
    pub fn encode(&self) -> [u8; CHUNK_FRAME_LEN] {
        let mut out = [0u8; CHUNK_FRAME_LEN];
        out[0..4].copy_from_slice(CHUNK_MAGIC);
        out[4] = self.kind;
        out[5] = self.flags;
        out[6..10].copy_from_slice(&self.record_count.to_le_bytes());
        out[10..14].copy_from_slice(&self.payload_len.to_le_bytes());
        out[14..18].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    /// Decodes a frame header from exactly [`CHUNK_FRAME_LEN`] bytes.
    /// Returns `None` if the magic is absent.
    pub fn decode(buf: &[u8; CHUNK_FRAME_LEN]) -> Option<ChunkFrame> {
        if &buf[0..4] != CHUNK_MAGIC {
            return None;
        }
        Some(ChunkFrame {
            kind: buf[4],
            flags: buf[5],
            record_count: u32::from_le_bytes(buf[6..10].try_into().unwrap()),
            payload_len: u32::from_le_bytes(buf[10..14].try_into().unwrap()),
            crc: u32::from_le_bytes(buf[14..18].try_into().unwrap()),
        })
    }
}

const SIZE_CLASSES: [u8; 7] = [1, 2, 4, 8, 16, 32, 64];
const SIZE_ESCAPE: u8 = 7;

/// Streaming event encoder for one chunk payload. Delta state starts at
/// zero and must not be reused across chunks.
#[derive(Debug, Default)]
pub struct EventEncoder {
    prev_addr: u64,
    prev_tid: i64,
    buf: Vec<u8>,
    count: u32,
}

impl EventEncoder {
    /// Fresh encoder with zeroed delta state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one access record.
    pub fn push(&mut self, a: Access) {
        let mut flags: u8 = match a.kind {
            AccessKind::Write => 1,
            AccessKind::Read => 0,
        };
        let class = SIZE_CLASSES.iter().position(|&s| s == a.size);
        match class {
            Some(c) => flags |= (c as u8) << 1,
            None => flags |= SIZE_ESCAPE << 1,
        }
        self.buf.push(flags);
        varint::write_i64(&mut self.buf, a.addr.wrapping_sub(self.prev_addr) as i64);
        varint::write_i64(&mut self.buf, a.tid.0 as i64 - self.prev_tid);
        if class.is_none() {
            varint::write_u64(&mut self.buf, a.size as u64);
        }
        self.prev_addr = a.addr;
        self.prev_tid = a.tid.0 as i64;
        self.count += 1;
    }

    /// Records encoded so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Encoded payload bytes so far.
    pub fn payload_len(&self) -> usize {
        self.buf.len()
    }

    /// Consumes the encoder, returning `(payload, record_count)`.
    pub fn finish(self) -> (Vec<u8>, u32) {
        (self.buf, self.count)
    }
}

/// Decodes an event-chunk payload into `out`. Returns the number of records
/// decoded, or `Err(decoded_so_far)` if the payload ends mid-record or uses
/// an over-long varint — callers count the remainder as lost.
pub fn decode_events(payload: &[u8], expected: u32, out: &mut Vec<Access>) -> Result<u32, u32> {
    let mut pos = 0usize;
    let mut prev_addr: u64 = 0;
    let mut prev_tid: i64 = 0;
    let mut decoded = 0u32;
    while decoded < expected {
        let start = out.len();
        let Some(&flags) = payload.get(pos) else {
            return Err(decoded);
        };
        pos += 1;
        let Some(daddr) = varint::read_i64(payload, &mut pos) else {
            return Err(decoded);
        };
        let Some(dtid) = varint::read_i64(payload, &mut pos) else {
            return Err(decoded);
        };
        let class = (flags >> 1) & 0x7;
        let size = if class == SIZE_ESCAPE {
            match varint::read_u64(payload, &mut pos) {
                Some(s) if s <= u8::MAX as u64 => s as u8,
                _ => return Err(decoded),
            }
        } else {
            SIZE_CLASSES[class as usize]
        };
        let addr = prev_addr.wrapping_add(daddr as u64);
        let tid = prev_tid + dtid;
        if !(0..=u16::MAX as i64).contains(&tid) {
            out.truncate(start);
            return Err(decoded);
        }
        out.push(Access {
            tid: ThreadId(tid as u16),
            addr,
            size,
            kind: if flags & 1 != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        });
        prev_addr = addr;
        prev_tid = tid;
        decoded += 1;
    }
    Ok(decoded)
}

/// One entry of the footer index chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the chunk's frame header from the start of the file.
    pub offset: u64,
    /// Chunk kind.
    pub kind: u8,
    /// Records in the chunk.
    pub record_count: u32,
}

/// Encodes the index chunk payload: entry count, then per entry the offset
/// delta, kind, and record count, all varint-packed.
pub fn encode_index(entries: &[IndexEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 4 + 4);
    varint::write_u64(&mut out, entries.len() as u64);
    let mut prev = 0u64;
    for e in entries {
        varint::write_u64(&mut out, e.offset - prev);
        out.push(e.kind);
        varint::write_u64(&mut out, e.record_count as u64);
        prev = e.offset;
    }
    out
}

/// Decodes an index chunk payload; `None` on any malformation.
pub fn decode_index(payload: &[u8]) -> Option<Vec<IndexEntry>> {
    let mut pos = 0usize;
    let n = varint::read_u64(payload, &mut pos)?;
    if n > (1 << 32) {
        return None;
    }
    let mut entries = Vec::with_capacity(n as usize);
    let mut prev = 0u64;
    for _ in 0..n {
        let delta = varint::read_u64(payload, &mut pos)?;
        let kind = *payload.get(pos)?;
        pos += 1;
        let record_count = varint::read_u64(payload, &mut pos)?;
        let offset = prev + delta;
        entries.push(IndexEntry {
            offset,
            kind,
            record_count: u32::try_from(record_count).ok()?,
        });
        prev = offset;
    }
    (pos == payload.len()).then_some(entries)
}

/// A named global variable captured at record time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaGlobal {
    /// Source-level name.
    pub name: String,
    /// First simulated address.
    pub start: u64,
    /// Size in bytes.
    pub size: u64,
}

/// One stack frame of an allocation callsite.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaFrame {
    /// Source file.
    pub file: String,
    /// Line number.
    pub line: u32,
}

/// A live heap object captured at record time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaObject {
    /// First simulated address.
    pub start: u64,
    /// Requested size in bytes.
    pub size: u64,
    /// Allocating thread.
    pub owner: u16,
    /// Allocation callsite frames, innermost first.
    pub frames: Vec<MetaFrame>,
}

/// Attribution metadata embedded in a META chunk so offline analysis can
/// name the same globals and heap objects a live run would.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Registered globals at the end of recording.
    pub globals: Vec<MetaGlobal>,
    /// Heap objects still live at the end of recording.
    pub objects: Vec<MetaObject>,
    /// `TrackedHeap::live_bytes()` at the end of recording, for the
    /// metadata-overhead ratio in [`predator_core::RunStats`].
    pub app_live_bytes: u64,
}

impl TraceMeta {
    /// Captures attribution state from a runtime and its heap — call after
    /// the workload finishes, before the trace is sealed.
    pub fn capture(rt: &Predator, heap: &TrackedHeap) -> TraceMeta {
        let globals = rt
            .globals_snapshot()
            .into_iter()
            .map(|g| MetaGlobal {
                name: g.name,
                start: g.start,
                size: g.size,
            })
            .collect();
        let mut objects: Vec<MetaObject> = heap
            .live_objects()
            .into_iter()
            .map(|o| {
                let frames = heap
                    .resolve_callsite(o.callsite)
                    .unwrap_or_else(Callsite::unknown)
                    .frames
                    .into_iter()
                    .map(|f| MetaFrame {
                        file: f.file,
                        line: f.line,
                    })
                    .collect();
                MetaObject {
                    start: o.start,
                    size: o.size,
                    owner: o.owner.0,
                    frames,
                }
            })
            .collect();
        objects.sort_by_key(|o| o.start);
        TraceMeta {
            globals,
            objects,
            app_live_bytes: heap.live_bytes(),
        }
    }

    /// Rebuilds the heap-object directory used by
    /// [`predator_core::Attribution::Directory`].
    pub fn directory(&self) -> ObjectDirectory {
        let objects = self.objects.iter().map(|o| {
            let frames = o.frames.iter().map(|f| Frame::new(f.file.clone(), f.line));
            let site = SiteKind::Heap {
                callsite: Callsite::from_frames(frames.collect()),
                owner: ThreadId(o.owner),
            };
            ObjectReport::new(o.start, o.size, site)
        });
        ObjectDirectory::new(objects, self.app_live_bytes)
    }

    /// Re-registers the recorded globals on `rt` so report attribution can
    /// name them.
    pub fn apply_globals(&self, rt: &Predator) {
        for g in &self.globals {
            rt.register_global(g.name.clone(), g.start, g.size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            version: VERSION,
            base: 0x4000_0000,
            size: 64 << 20,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), HEADER_V1_LEN);
        assert_eq!(&enc[0..6], MAGIC);
        assert_eq!(u16::from_le_bytes(enc[6..8].try_into().unwrap()), VERSION);
    }

    #[test]
    fn validate_refuses_ranges_no_shadow_could_cover_naming_the_value() {
        let check = |base, size| {
            let version = VERSION;
            Header {
                version,
                base,
                size,
            }
            .validate()
        };
        assert_eq!(check(0x4000_0000, 64 << 20), Ok(()));
        assert_eq!(check(0, 0), Ok(()));
        // The exclusive end must be an address: the last page is out.
        assert_eq!(check(u64::MAX - 0x1fff, 0x1000), Ok(()));
        assert!(check(u64::MAX - 0xfff, 0x1000).is_err());
        assert_eq!(check(0x100, MAX_SPAN), Ok(()));
        for (base, size, names) in [
            (0x100, MAX_SPAN + 1, "size 0x40000001"),
            (0x4000_0000, 1 << 60, "size 0x1000000000000000"),
            (0x4000_0001, 64 << 20, "base 0x40000001"),
            (0xffff_ffff_ffff_ff00, 64 << 20, "base 0xffffffffffffff00"),
        ] {
            let err = check(base, size).unwrap_err();
            assert!(err.contains(names), "{err}");
        }
    }

    #[test]
    fn chunk_frame_roundtrip() {
        let f = ChunkFrame {
            kind: CHUNK_EVENTS,
            flags: 0,
            record_count: 77,
            payload_len: 123,
            crc: 0xdead_beef,
        };
        assert_eq!(ChunkFrame::decode(&f.encode()), Some(f));
        let mut bad = f.encode();
        bad[0] = b'X';
        assert_eq!(ChunkFrame::decode(&bad), None);
    }

    #[test]
    fn event_codec_roundtrip() {
        let events = vec![
            Access::write(ThreadId(0), 0x4000_0000, 8),
            Access::write(ThreadId(1), 0x4000_0008, 8),
            Access::read(ThreadId(1), 0x4000_0008, 4),
            Access::read(ThreadId(0), 0x3fff_ffff, 1), // negative delta
            Access::write(ThreadId(3), 0x4000_1000, 13), // escaped size
            Access::write(ThreadId(3), 0x4000_1000, 64),
        ];
        let mut enc = EventEncoder::new();
        for &a in &events {
            enc.push(a);
        }
        let (payload, count) = enc.finish();
        assert_eq!(count, events.len() as u32);
        let mut out = Vec::new();
        assert_eq!(decode_events(&payload, count, &mut out), Ok(count));
        assert_eq!(out, events);
    }

    #[test]
    fn event_codec_is_compact_for_stride_loops() {
        let mut enc = EventEncoder::new();
        for i in 0..1000u64 {
            enc.push(Access::write(
                ThreadId((i % 4) as u16),
                0x4000_0000 + (i % 4) * 24,
                8,
            ));
        }
        let (payload, _) = enc.finish();
        let per_record = payload.len() as f64 / 1000.0;
        assert!(per_record < 5.0, "got {per_record} bytes/record");
    }

    #[test]
    fn truncated_payload_reports_partial_decode() {
        let mut enc = EventEncoder::new();
        for i in 0..10u64 {
            enc.push(Access::write(ThreadId(0), 0x1000 + i * 8, 8));
        }
        let (payload, count) = enc.finish();
        let mut out = Vec::new();
        let r = decode_events(&payload[..payload.len() - 3], count, &mut out);
        assert!(
            matches!(r, Err(n) if n < count),
            "truncation must surface as Err: {r:?}"
        );
        assert_eq!(out.len(), r.unwrap_err() as usize);
    }

    #[test]
    fn index_roundtrip() {
        let entries = vec![
            IndexEntry {
                offset: 28,
                kind: CHUNK_EVENTS,
                record_count: 4096,
            },
            IndexEntry {
                offset: 1520,
                kind: CHUNK_EVENTS,
                record_count: 4096,
            },
            IndexEntry {
                offset: 3200,
                kind: CHUNK_META,
                record_count: 1,
            },
        ];
        assert_eq!(decode_index(&encode_index(&entries)), Some(entries));
        assert_eq!(decode_index(&[0]), Some(vec![]));
        assert_eq!(decode_index(&[]), None);
    }

    #[test]
    fn meta_json_roundtrip() {
        let meta = TraceMeta {
            globals: vec![MetaGlobal {
                name: "work_queue".into(),
                start: 0x1000,
                size: 256,
            }],
            objects: vec![MetaObject {
                start: 0x4000_0000,
                size: 4096,
                owner: 0,
                frames: vec![MetaFrame {
                    file: "histogram-pthread.c".into(),
                    line: 213,
                }],
            }],
            app_live_bytes: 4352,
        };
        let json = serde_json::to_string(&meta).unwrap();
        let back: TraceMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, meta);
    }
}
