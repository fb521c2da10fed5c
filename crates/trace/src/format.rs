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

/// Longest record: the flags byte, two deltas and an escaped size.
const RECORD_MAX: usize = 1 + 3 * varint::MAX_VARINT_LEN;

/// Decodes the record at the front of `w`, which holds a whole one whatever
/// its bytes say: the access and the bytes it took. `None` for an over-long
/// varint, a size past `u8` and a thread id outside `u16`.
#[inline(always)]
fn decode_record(w: &[u8; RECORD_MAX], prev_addr: u64, prev_tid: i64) -> Option<(Access, usize)> {
    let flags = w[0];
    let mut at = 1;
    let daddr = varint::read_i64(w, &mut at)?;
    let dtid = varint::read_i64(w, &mut at)?;
    let class = (flags >> 1) & 0x7;
    let size = if class == SIZE_ESCAPE {
        u8::try_from(varint::read_u64(w, &mut at)?).ok()?
    } else {
        SIZE_CLASSES[class as usize]
    };
    // Wrapping: a hostile delta must fail the range check, not the addition.
    let tid = u16::try_from(prev_tid.wrapping_add(dtid)).ok()?;
    let access = Access {
        tid: ThreadId(tid),
        addr: prev_addr.wrapping_add(daddr as u64),
        size,
        kind: if flags & 1 != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    };
    Some((access, at))
}

/// Decodes an event-chunk payload into `out`. Returns the number of records
/// decoded, or `Err(decoded_so_far)` if the payload ends mid-record or uses
/// an over-long varint — callers count the remainder as lost.
///
/// Records are decoded through a fixed [`RECORD_MAX`]-byte window, so the
/// per-byte question "is the payload over?" is asked once per record: while
/// that many bytes remain the window is the payload itself, and the chunk's
/// last records go through a zero-padded copy, where a record cut short
/// reads as one that ends past the payload. `out` is grown once, by what the
/// payload can hold (a record is at least three bytes), never by the frame's
/// untrusted `expected`.
pub fn decode_events(payload: &[u8], expected: u32, out: &mut Vec<Access>) -> Result<u32, u32> {
    out.reserve((expected as usize).min(payload.len() / 3));
    let mut rest = payload;
    let mut padded: [u8; RECORD_MAX];
    let (mut prev_addr, mut prev_tid) = (0u64, 0i64);
    let mut decoded = 0u32;
    while decoded < expected {
        let window = match rest.first_chunk() {
            Some(window) => window,
            None => {
                padded = [0u8; RECORD_MAX];
                padded[..rest.len()].copy_from_slice(rest);
                &padded
            }
        };
        let Some((access, used)) = decode_record(window, prev_addr, prev_tid) else {
            return Err(decoded);
        };
        let Some(after) = rest.get(used..) else {
            return Err(decoded);
        };
        out.push(access);
        (prev_addr, prev_tid) = (access.addr, access.tid.0 as i64);
        rest = after;
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
    use proptest::prelude::*;

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

    /// The decoder this file had before the windowed one, kept as its
    /// oracle: a checked read per byte against the payload's real end. (Its
    /// thread-id sum wraps like a release build's did, so a hostile delta
    /// fails the range check here too instead of the debug overflow trap.)
    fn reference_decode(payload: &[u8], expected: u32, out: &mut Vec<Access>) -> Result<u32, u32> {
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
            let tid = prev_tid.wrapping_add(dtid);
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

    /// Both decoders append to a vector that already holds something, and
    /// must agree on what they appended and on `Ok`/`Err(decoded)`.
    fn assert_decoders_agree(payload: &[u8], expected: u32) -> Result<u32, u32> {
        let held = Access::read(ThreadId(9), 0x99, 1);
        let (mut new, mut old) = (vec![held], vec![held]);
        let got = decode_events(payload, expected, &mut new);
        let want = reference_decode(payload, expected, &mut old);
        assert_eq!((got, &new), (want, &old), "{expected} of {payload:02x?}");
        assert_eq!(got.unwrap_or_else(|n| n) as usize, new.len() - 1);
        got
    }

    /// One raw record: flags, then each varint as given.
    fn raw_record(flags: u8, daddr: i64, dtid: i64, size: Option<u64>) -> Vec<u8> {
        let mut out = vec![flags];
        varint::write_i64(&mut out, daddr);
        varint::write_i64(&mut out, dtid);
        size.into_iter()
            .for_each(|s| varint::write_u64(&mut out, s));
        out
    }

    #[test]
    fn windowed_decoder_equals_reference_on_records_no_writer_emits() {
        let escape = SIZE_ESCAPE << 1;
        let plain = raw_record(1 | 3 << 1, 8, 0, None);
        let cases: Vec<(Vec<u8>, bool)> = vec![
            // Nine- and ten-byte deltas, both signs, to the ends of `u64`.
            (raw_record(0, i64::MAX, 0, None), true),
            (raw_record(1, i64::MIN, 1, None), true),
            (raw_record(0, 1 << 56, 2, None), true),
            (raw_record(0, -(1 << 62), 3, None), true),
            // Escaped sizes at and past `u8`.
            (raw_record(escape, 8, 0, Some(0)), true),
            (raw_record(escape | 1, 8, 0, Some(255)), true),
            (raw_record(escape, 8, 0, Some(256)), false),
            (raw_record(escape, 8, 0, Some(u64::MAX)), false),
            // A thread id walking out of `u16`, by a step and by a leap.
            (raw_record(0, 8, u16::MAX as i64, None), true),
            (raw_record(0, 8, u16::MAX as i64 + 1, None), false),
            (raw_record(0, 8, -1, None), false),
            (raw_record(0, 8, i64::MAX, None), false),
            (raw_record(0, 8, i64::MIN, None), false),
            // A tenth varint byte with bits past 2⁶³, and an eleventh byte.
            ([&[0u8][..], &[0xff; 9], &[0x02, 0x00]].concat(), false),
            ([&[0u8][..], &[0xff; 10], &[0x00, 0x00]].concat(), false),
            ([&[0u8, 0x00][..], &[0x80; 10], &[0x00]].concat(), false),
        ];
        for (record, decodes) in &cases {
            // Alone (the padded tail), then with records on either side of
            // it (the in-payload window), then cut short at every byte.
            assert_eq!(assert_decoders_agree(record, 1).is_ok(), *decodes);
            let mut long = plain.repeat(3);
            long.extend_from_slice(record);
            let after = if *decodes { 12 } else { 0 };
            long.extend_from_slice(&plain.repeat(after));
            let want = if *decodes { Ok(16) } else { Err(3) };
            assert_eq!(assert_decoders_agree(&long, 16), want, "{record:02x?}");
            for cut in 0..long.len() {
                assert!(assert_decoders_agree(&long[..cut], 16).is_err());
            }
        }
        // A thread id that leaves `u16` only once the deltas add up.
        let walk = [
            raw_record(0, 0, 40_000, None),
            raw_record(0, 0, 30_000, None),
        ]
        .concat();
        assert_eq!(assert_decoders_agree(&walk, 2), Err(1));
        // The frame's count is a claim: more than the payload holds is an
        // error after the last whole record, fewer stops early, and neither
        // sizes an allocation.
        assert_eq!(assert_decoders_agree(&plain.repeat(5), u32::MAX), Err(5));
        assert_eq!(assert_decoders_agree(&plain.repeat(50), 7), Ok(7));
        assert_eq!(assert_decoders_agree(&[], 0), Ok(0));
        let mut out = Vec::new();
        assert_eq!(decode_events(&plain.repeat(5), u32::MAX, &mut out), Err(5));
        assert!(out.capacity() <= 2 * out.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Valid chunks, then the same bytes cut at every position and with
        /// every single byte mutated: the windowed decoder and the reference
        /// agree on `out` and on `Ok`/`Err(decoded)`, and neither panics.
        #[test]
        fn prop_windowed_decoder_equals_reference(
            events in proptest::collection::vec(
                (
                    prop_oneof![0u16..4, any::<u16>()],
                    prop_oneof![0u64..4096, 0x4000_0000u64..0x4400_0000, any::<u64>()],
                    prop_oneof![Just(8u8), Just(4u8), Just(64u8), any::<u8>()],
                    any::<bool>(),
                ),
                0..40,
            ),
            mask in 1u8..=255,
        ) {
            let mut enc = EventEncoder::new();
            let mut addr = 0x4000_0000u64;
            for &(tid, step, size, write) in &events {
                addr = addr.wrapping_add(step);
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                enc.push(Access { tid: ThreadId(tid), addr, size, kind });
            }
            let (payload, count) = enc.finish();
            prop_assert_eq!(assert_decoders_agree(&payload, count), Ok(count));
            prop_assert_eq!(assert_decoders_agree(&payload, count + 3), Err(count));
            for cut in 0..payload.len() {
                prop_assert!(assert_decoders_agree(&payload[..cut], count).is_err());
            }
            let mut mutated = payload.clone();
            for at in 0..payload.len() {
                for flip in [mask, 0x80, 0xff] {
                    mutated[at] = payload[at] ^ flip;
                    let _ = assert_decoders_agree(&mutated, count);
                }
                mutated[at] = payload[at];
            }
        }
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
