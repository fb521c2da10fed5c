//! Corruption-tolerant streaming `.ptrace` reader.
//!
//! The reader never trusts the file: every chunk payload is CRC-checked,
//! every length is bounds-checked, and any damage — a flipped byte, a
//! truncated tail, garbage spliced into the middle — is handled by skipping
//! to the next `"CHNK"` resync marker and *counting* what was lost
//! ([`LossStats`]). Corruption therefore costs data, never a panic and
//! never silent mis-decoding (the per-chunk delta reset means a bad chunk
//! cannot skew its neighbours' addresses).
//!
//! Memory stays bounded: the reader holds one refill window (64 KiB reads)
//! plus one decoded chunk of events, regardless of file size.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use predator_sim::Access;
use serde::{Deserialize, Serialize};

use crate::crc32::crc32;
use crate::format::{
    decode_events, decode_index, ChunkFrame, Header, TraceMeta, CHUNK_EVENTS, CHUNK_FRAME_LEN,
    CHUNK_INDEX, CHUNK_META, END_MAGIC, HEADER_V1_LEN, MAGIC, MAX_CHUNK_PAYLOAD, TRAILER_LEN,
    VERSION,
};

/// Why a trace could not be opened (distinct from recoverable mid-stream
/// corruption, which is counted in [`LossStats`] instead).
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `.ptrace` magic.
    NotPtrace,
    /// The file's schema version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The header is malformed beyond recovery.
    Corrupt(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::NotPtrace => write!(
                f,
                "not a .ptrace file (bad magic); convert JSONL with \
                 `predator trace import <in.jsonl> -o <out.ptrace>`"
            ),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .ptrace schema version {v} (this build reads {VERSION})"
                )
            }
            TraceError::Corrupt(m) => write!(f, "corrupt .ptrace header: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Damage accounting for one read pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossStats {
    /// Chunks dropped or partially dropped (CRC mismatch, frame damage,
    /// decode failure, truncation mid-chunk).
    pub chunks_skipped: u64,
    /// Event records known lost (from the damaged chunks' record counts).
    pub records_lost: u64,
    /// Raw bytes skipped while hunting for the next resync marker.
    pub bytes_skipped: u64,
    /// The stream ended without a valid trailer (truncated or unsealed).
    pub truncated: bool,
}

impl LossStats {
    /// True if anything at all was lost.
    pub fn any(&self) -> bool {
        self.chunks_skipped > 0 || self.records_lost > 0 || self.bytes_skipped > 0 || self.truncated
    }
}

/// Reads and validates the fixed header ([`Header::validate`]: a range no
/// shadow could be laid over is [`TraceError::Corrupt`], not an allocation).
/// Consumes exactly the header bytes on success.
pub fn read_header<R: Read>(r: &mut R) -> Result<Header, TraceError> {
    let mut fixed = [0u8; 12];
    r.read_exact(&mut fixed).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::NotPtrace
        } else {
            TraceError::Io(e)
        }
    })?;
    if &fixed[0..6] != MAGIC {
        return Err(TraceError::NotPtrace);
    }
    let version = u16::from_le_bytes(fixed[6..8].try_into().unwrap());
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let hlen = u32::from_le_bytes(fixed[8..12].try_into().unwrap()) as usize;
    if !(16..=4096).contains(&hlen) {
        return Err(TraceError::Corrupt(format!("header payload length {hlen}")));
    }
    let mut payload = vec![0u8; hlen];
    r.read_exact(&mut payload)
        .map_err(|_| TraceError::Corrupt("header truncated".into()))?;
    let header = Header {
        version,
        base: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
        size: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
    };
    header.validate().map_err(TraceError::Corrupt)?;
    Ok(header)
}

const READ_CHUNK: usize = 64 << 10;
/// Bytes kept when sliding the resync window: enough for a `"CHNK"` magic
/// straddling the refill boundary and for the whole trailer at EOF.
const RESYNC_KEEP: usize = TRAILER_LEN + 3;

/// Streaming event reader. Iterate it for [`Access`] records; inspect
/// [`stats`](TraceReader::stats) afterwards for loss, and
/// [`meta`](TraceReader::meta) for the attribution sidecar (the META chunk
/// is written at the end of the file, so it is only available once the
/// stream is drained).
pub struct TraceReader<R: Read> {
    r: R,
    header: Header,
    buf: Vec<u8>,
    start: usize,
    eof: bool,
    ended: bool,
    saw_trailer: bool,
    io_error: Option<io::Error>,
    queue: Vec<Access>,
    qpos: usize,
    meta: Option<TraceMeta>,
    loss: LossStats,
    events_read: u64,
    event_chunks: u64,
    chunks_seen: u64,
    /// Events [`collect_events`](TraceReader::collect_events) makes room for
    /// up front; 0 for a stream nobody could ask.
    reserve: usize,
}

impl TraceReader<BufReader<File>> {
    /// The one way a file becomes events: opens `path`, checks the magic and
    /// validates the header. The error names the file and, for anything that
    /// is not a `.ptrace`, the conversion (`predator trace import`).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let open = || -> Result<Self, TraceError> {
            let mut f = File::open(path)?;
            let reserve = sealed_records(&mut f)?;
            let mut r = TraceReader::new(BufReader::new(f))?;
            r.reserve = reserve;
            Ok(r)
        };
        open().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The record count in the trailer `f` ends with, capped by the file's byte
/// length: a record is at least one byte, so whatever a damaged or hostile
/// trailer claims, the room made for it is at most `size_of::<Access>()` (16)
/// times the file. 0 when there is no intact trailer. Leaves `f` at its start.
fn sealed_records(f: &mut File) -> io::Result<usize> {
    let file_bytes = f.metadata()?.len();
    if file_bytes == 0 {
        return Ok(0); // empty, or a pipe: nothing to seek in
    }
    let trailer = read_trailer(f, file_bytes)?;
    f.rewind()?;
    let records = trailer.map_or(0, |(_, records)| records.min(file_bytes));
    Ok(usize::try_from(records).unwrap_or(0))
}

/// `(index offset, total records)` of the trailer a sealed file of
/// `file_bytes` ends with; `None`, without a seek, when it cannot hold one.
fn read_trailer(f: &mut File, file_bytes: u64) -> io::Result<Option<(u64, u64)>> {
    if file_bytes < (HEADER_V1_LEN + TRAILER_LEN) as u64 {
        return Ok(None);
    }
    f.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
    let mut trailer = [0u8; TRAILER_LEN];
    f.read_exact(&mut trailer)?;
    let word = |at: usize| u64::from_le_bytes(trailer[at..at + 8].try_into().unwrap());
    Ok((&trailer[16..24] == END_MAGIC).then(|| (word(0), word(8))))
}

impl<R: Read> TraceReader<R> {
    /// Reads a trace from any byte stream, validating magic, version and
    /// header range. Header damage is a hard error; everything after the
    /// header is recoverable.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let header = read_header(&mut r)?;
        Ok(TraceReader {
            r,
            header,
            buf: Vec::new(),
            start: 0,
            eof: false,
            ended: false,
            saw_trailer: false,
            io_error: None,
            queue: Vec::new(),
            qpos: 0,
            meta: None,
            loss: LossStats::default(),
            events_read: 0,
            event_chunks: 0,
            chunks_seen: 0,
            reserve: 0,
        })
    }

    /// The file header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// Base simulated address of the traced space.
    pub fn base(&self) -> u64 {
        self.header.base
    }

    /// Size in bytes of the traced space.
    pub fn size(&self) -> u64 {
        self.header.size
    }

    /// Loss accounting so far (final once the iterator is drained).
    pub fn stats(&self) -> LossStats {
        let mut loss = self.loss;
        if self.ended && !self.saw_trailer {
            loss.truncated = true;
        }
        loss
    }

    /// Attribution sidecar, available once the META chunk has been passed
    /// (it sits at the end of the file — drain the iterator first).
    pub fn meta(&self) -> Option<&TraceMeta> {
        self.meta.as_ref()
    }

    /// Takes ownership of the sidecar.
    pub fn take_meta(&mut self) -> Option<TraceMeta> {
        self.meta.take()
    }

    /// Event records yielded so far.
    pub fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Valid event chunks decoded so far.
    pub fn event_chunks(&self) -> u64 {
        self.event_chunks
    }

    /// Valid chunks of any kind seen so far.
    pub fn chunks_seen(&self) -> u64 {
        self.chunks_seen
    }

    /// The stream ended with a valid trailer.
    pub fn saw_trailer(&self) -> bool {
        self.saw_trailer
    }

    /// I/O error that ended the stream early, if any (reported as
    /// truncation in [`stats`](TraceReader::stats) as well).
    pub fn io_error(&self) -> Option<&io::Error> {
        self.io_error.as_ref()
    }

    fn avail(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Grows the window until at least `want` bytes are available or EOF.
    fn ensure(&mut self, want: usize) -> usize {
        if self.start > 0 && (self.avail() == 0 || self.start >= READ_CHUNK) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        while !self.eof && self.avail() < want {
            let old = self.buf.len();
            self.buf.resize(old + READ_CHUNK, 0);
            match self.r.read(&mut self.buf[old..]) {
                Ok(0) => {
                    self.buf.truncate(old);
                    self.eof = true;
                }
                Ok(n) => self.buf.truncate(old + n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => self.buf.truncate(old),
                Err(e) => {
                    self.buf.truncate(old);
                    self.io_error = Some(e);
                    self.eof = true;
                }
            }
        }
        self.avail()
    }

    /// Consumes the trailer if the window is exactly it; returns true.
    fn try_trailer(&mut self) -> bool {
        let avail = self.ensure(TRAILER_LEN + 1);
        if avail == TRAILER_LEN && self.buf[self.start + 16..self.start + TRAILER_LEN] == *END_MAGIC
        {
            self.start += TRAILER_LEN;
            self.saw_trailer = true;
            return true;
        }
        false
    }

    /// Skips at least one byte, then scans forward for the next `"CHNK"`
    /// marker (or a clean trailer). Returns true if positioned on a marker.
    fn resync(&mut self) -> bool {
        self.start += 1;
        self.loss.bytes_skipped += 1;
        loop {
            let avail = self.ensure(RESYNC_KEEP + READ_CHUNK);
            let window = &self.buf[self.start..];
            if let Some(pos) = window
                .windows(4)
                .position(|w| w == crate::format::CHUNK_MAGIC)
            {
                self.loss.bytes_skipped += pos as u64;
                self.start += pos;
                return true;
            }
            if self.eof {
                // Tail without a marker: a clean trailer ends the hunt
                // gracefully, anything else is counted and dropped.
                if avail >= TRAILER_LEN && window[avail - 8..] == *END_MAGIC {
                    self.loss.bytes_skipped += (avail - TRAILER_LEN) as u64;
                    self.saw_trailer = true;
                } else {
                    self.loss.bytes_skipped += avail as u64;
                }
                self.start = self.buf.len();
                self.ended = true;
                return false;
            }
            let keep = RESYNC_KEEP.min(window.len());
            let skip = window.len() - keep;
            self.loss.bytes_skipped += skip as u64;
            self.start += skip;
        }
    }

    /// Reads chunks until events are queued or the stream ends. Returns
    /// true if the queue is non-empty.
    fn advance(&mut self) -> bool {
        loop {
            if self.ended {
                return false;
            }
            let avail = self.ensure(CHUNK_FRAME_LEN);
            if avail == 0 {
                self.ended = true;
                return false;
            }
            if avail < CHUNK_FRAME_LEN {
                // Tail shorter than any frame (the trailer is longer, so
                // this cannot be one): truncation.
                self.loss.bytes_skipped += avail as u64;
                self.loss.chunks_skipped += 1;
                self.start += avail;
                self.ended = true;
                return false;
            }
            let frame_bytes: [u8; CHUNK_FRAME_LEN] = self.buf
                [self.start..self.start + CHUNK_FRAME_LEN]
                .try_into()
                .unwrap();
            let Some(frame) = ChunkFrame::decode(&frame_bytes) else {
                if self.try_trailer() {
                    self.ended = true;
                    return false;
                }
                self.loss.chunks_skipped += 1;
                if !self.resync() {
                    return false;
                }
                continue;
            };
            if frame.payload_len > MAX_CHUNK_PAYLOAD {
                self.loss.chunks_skipped += 1;
                if !self.resync() {
                    return false;
                }
                continue;
            }
            let need = CHUNK_FRAME_LEN + frame.payload_len as usize;
            let avail = self.ensure(need);
            if avail < need {
                // Truncated mid-chunk.
                if frame.kind == CHUNK_EVENTS {
                    self.loss.records_lost += frame.record_count as u64;
                }
                self.loss.chunks_skipped += 1;
                self.loss.bytes_skipped += avail as u64;
                self.start += avail;
                self.ended = true;
                return false;
            }
            let payload_range = self.start + CHUNK_FRAME_LEN..self.start + need;
            let crc_ok = crc32(&self.buf[payload_range.clone()]) == frame.crc;
            if !crc_ok {
                if frame.kind == CHUNK_EVENTS {
                    self.loss.records_lost += frame.record_count as u64;
                }
                self.loss.chunks_skipped += 1;
                self.loss.bytes_skipped += need as u64;
                self.start += need;
                continue;
            }
            self.chunks_seen += 1;
            match frame.kind {
                CHUNK_EVENTS => {
                    let mut queue = std::mem::take(&mut self.queue);
                    queue.clear();
                    let decode =
                        decode_events(&self.buf[payload_range], frame.record_count, &mut queue);
                    self.queue = queue;
                    self.qpos = 0;
                    self.event_chunks += 1;
                    if let Err(decoded) = decode {
                        // CRC passed but decode failed: writer bug or
                        // version skew inside the payload. Count the rest.
                        self.loss.records_lost += (frame.record_count - decoded) as u64;
                        self.loss.chunks_skipped += 1;
                    }
                    self.start += need;
                    if !self.queue.is_empty() {
                        self.events_read += self.queue.len() as u64;
                        return true;
                    }
                }
                CHUNK_META => {
                    match std::str::from_utf8(&self.buf[payload_range])
                        .ok()
                        .and_then(|s| serde_json::from_str::<TraceMeta>(s).ok())
                    {
                        Some(m) => self.meta = Some(m),
                        None => self.loss.chunks_skipped += 1,
                    }
                    self.start += need;
                }
                CHUNK_INDEX => {
                    // Sequential readers don't need the directory.
                    self.start += need;
                }
                _ => {
                    // Unknown kind from a newer writer: skip, not loss.
                    self.start += need;
                }
            }
        }
    }

    /// Hands over what is left of the current decoded chunk, or decodes the
    /// next one: the stream a whole chunk at a time, for consumers that loop
    /// over a slice instead of asking [`next`](Iterator::next) per event.
    /// `None` once the stream is dry.
    pub(crate) fn next_chunk(&mut self) -> Option<&[Access]> {
        if self.qpos == self.queue.len() && !self.advance() {
            return None;
        }
        let from = std::mem::replace(&mut self.qpos, self.queue.len());
        Some(&self.queue[from..])
    }

    /// Drains the remaining stream (discarding events) so that
    /// [`meta`](TraceReader::meta) and final [`stats`](TraceReader::stats)
    /// become available.
    pub fn drain(&mut self) {
        while self.next_chunk().is_some() {}
    }

    /// Drains the remaining stream into one vector, a chunk at a time. A
    /// sealed file's trailer says how many events to make room for, so the
    /// vector is allocated once instead of doubling its way up through a copy
    /// per step; without an intact trailer (or with one that claims too
    /// little) it grows.
    pub fn collect_events(&mut self) -> Vec<Access> {
        let mut events = Vec::with_capacity(self.reserve);
        while let Some(chunk) = self.next_chunk() {
            events.extend_from_slice(chunk);
        }
        events
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        loop {
            if let Some(&a) = self.queue.get(self.qpos) {
                self.qpos += 1;
                return Some(a);
            }
            // A new chunk starts the cursor over; a dry stream ends it.
            if !self.advance() {
                return None;
            }
        }
    }
}

/// Summary of a trace file, as shown by `predator trace info`.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    /// Parsed file header.
    pub header: Header,
    /// File size in bytes.
    pub file_bytes: u64,
    /// Total event records.
    pub events: u64,
    /// Event chunks.
    pub event_chunks: u64,
    /// All valid chunks (events + meta + index).
    pub total_chunks: u64,
    /// Attribution sidecar, if present and intact.
    pub meta: Option<TraceMeta>,
    /// Loss accounting (all zeros for an intact file).
    pub loss: LossStats,
    /// The file ends with a valid trailer.
    pub has_footer: bool,
    /// The summary came from the footer index (no full scan needed).
    pub via_index: bool,
}

/// Summarises a trace file. Uses the footer index when intact (O(1) in the
/// number of event chunks); falls back to a full corruption-tolerant scan
/// otherwise — also when the header is unusable, which the scan's
/// [`TraceReader::open`] then reports, naming the file.
pub fn read_info(path: &Path) -> Result<TraceInfo, String> {
    match read_info_indexed(path) {
        Ok(Some(info)) => Ok(info),
        Ok(None) | Err(_) => read_info_scan(path),
    }
}

/// Summarises a trace file by a full corruption-tolerant scan, ignoring the
/// footer index even when intact. The index only proves chunks *existed* at
/// seal time — a scan additionally CRC-checks every payload, so this is the
/// way to audit a file for mid-stream damage (`trace info --deep`).
pub fn read_info_scan(path: &Path) -> Result<TraceInfo, String> {
    let mut r = TraceReader::open(path)?;
    let file_bytes = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    r.drain();
    Ok(TraceInfo {
        header: r.header(),
        file_bytes,
        events: r.events_read(),
        event_chunks: r.event_chunks(),
        total_chunks: r.chunks_seen(),
        meta: r.take_meta(),
        loss: r.stats(),
        has_footer: r.saw_trailer(),
        via_index: false,
    })
}

fn read_chunk_at(f: &mut File, offset: u64) -> io::Result<Option<(ChunkFrame, Vec<u8>)>> {
    f.seek(SeekFrom::Start(offset))?;
    let mut frame_bytes = [0u8; CHUNK_FRAME_LEN];
    f.read_exact(&mut frame_bytes)?;
    let Some(frame) = ChunkFrame::decode(&frame_bytes) else {
        return Ok(None);
    };
    if frame.payload_len > MAX_CHUNK_PAYLOAD {
        return Ok(None);
    }
    let mut payload = vec![0u8; frame.payload_len as usize];
    f.read_exact(&mut payload)?;
    if crc32(&payload) != frame.crc {
        return Ok(None);
    }
    Ok(Some((frame, payload)))
}

fn read_info_indexed(path: &Path) -> Result<Option<TraceInfo>, TraceError> {
    let mut f = File::open(path)?;
    let header = read_header(&mut f)?;
    let file_bytes = f.metadata()?.len();
    let Some((index_offset, total_records)) = read_trailer(&mut f, file_bytes)? else {
        return Ok(None);
    };
    if index_offset >= file_bytes {
        return Ok(None);
    }
    let Some((index_frame, index_payload)) = read_chunk_at(&mut f, index_offset)? else {
        return Ok(None);
    };
    if index_frame.kind != CHUNK_INDEX {
        return Ok(None);
    }
    let Some(entries) = decode_index(&index_payload) else {
        return Ok(None);
    };
    let mut meta = None;
    if let Some(e) = entries.iter().find(|e| e.kind == CHUNK_META) {
        let Some((_, payload)) = read_chunk_at(&mut f, e.offset)? else {
            return Ok(None);
        };
        match std::str::from_utf8(&payload)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
        {
            Some(m) => meta = Some(m),
            None => return Ok(None),
        }
    }
    let event_chunks = entries.iter().filter(|e| e.kind == CHUNK_EVENTS).count() as u64;
    Ok(Some(TraceInfo {
        header,
        file_bytes,
        events: total_records,
        event_chunks,
        total_chunks: entries.len() as u64 + 1, // + the index chunk itself
        meta,
        loss: LossStats::default(),
        has_footer: true,
        via_index: true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use predator_sim::ThreadId;

    fn sample_trace(chunks: usize, per_chunk: usize) -> (Vec<u8>, Vec<Access>) {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        let mut w = TraceWriter::create(&mut buf, 0x1000, 1 << 20).unwrap();
        let mut addr = 0x1000u64;
        for c in 0..chunks {
            let mut events = Vec::new();
            for i in 0..per_chunk {
                addr += 8;
                events.push(Access::write(ThreadId(((c + i) % 4) as u16), addr, 8));
            }
            w.write_events(&events).unwrap();
            all.extend_from_slice(&events);
        }
        w.write_meta(&TraceMeta {
            app_live_bytes: 42,
            ..TraceMeta::default()
        })
        .unwrap();
        let _ = w.finish().unwrap();
        (buf, all)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (bytes, events) = sample_trace(5, 100);
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let got: Vec<Access> = (&mut r).collect();
        assert_eq!(got, events);
        assert!(
            !r.stats().any(),
            "clean file must report zero loss: {:?}",
            r.stats()
        );
        assert!(r.saw_trailer());
        assert_eq!(r.meta().unwrap().app_live_bytes, 42);
        assert_eq!(r.event_chunks(), 5);
    }

    #[test]
    fn chunks_and_single_events_share_one_cursor() {
        let (bytes, events) = sample_trace(4, 50);
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut got = vec![r.next().unwrap()]; // opens chunk 1...
        got.extend_from_slice(r.next_chunk().unwrap()); // ...whose other 49 follow,
        got.extend_from_slice(r.next_chunk().unwrap()); // then chunk 2, whole.
        assert_eq!(got.len(), 100);
        got.extend(r.by_ref().take(75)); // chunk 3 and half of chunk 4
        got.extend_from_slice(r.next_chunk().unwrap());
        assert!(r.next_chunk().is_none() && r.next().is_none());
        assert_eq!(got, events);
        assert_eq!(r.events_read(), 200);
        assert!(!r.stats().any() && r.meta().is_some());
    }

    #[test]
    fn flipped_payload_byte_loses_one_chunk_only() {
        let (mut bytes, events) = sample_trace(5, 100);
        // Flip a byte inside the 3rd event chunk's payload.
        let off = find_nth_chunk(&bytes, 2) + CHUNK_FRAME_LEN + 10;
        bytes[off] ^= 0xff;
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let got: Vec<Access> = (&mut r).collect();
        let stats = r.stats();
        assert_eq!(stats.chunks_skipped, 1);
        assert_eq!(stats.records_lost, 100);
        assert!(!stats.truncated);
        assert_eq!(got.len(), events.len() - 100);
        // Chunks 1,2,4,5 survive intact.
        assert_eq!(&got[..200], &events[..200]);
        assert_eq!(&got[200..], &events[300..]);
        assert!(r.meta().is_some(), "meta after the damage still decodes");
    }

    #[test]
    fn truncated_file_reports_loss_not_panic() {
        let (bytes, _) = sample_trace(5, 100);
        for cut in [
            bytes.len() - 10,
            bytes.len() / 2,
            HEADER_V1_LEN + 5,
            HEADER_V1_LEN,
        ] {
            let mut r = TraceReader::new(&bytes[..cut]).unwrap();
            let got: Vec<Access> = (&mut r).collect();
            let stats = r.stats();
            assert!(stats.truncated, "cut at {cut} must report truncation");
            assert!(got.len() <= 500);
        }
    }

    #[test]
    fn unknown_version_is_a_clean_error() {
        let (mut bytes, _) = sample_trace(1, 10);
        bytes[6] = 9; // version 9
        match TraceReader::new(&bytes[..]) {
            Err(TraceError::UnsupportedVersion(9)) => {}
            Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("expected UnsupportedVersion, got a reader"),
        }
    }

    #[test]
    fn not_ptrace_is_a_clean_error() {
        assert!(matches!(
            TraceReader::new(&b"hello world, this is jsonl"[..]),
            Err(TraceError::NotPtrace)
        ));
        assert!(matches!(
            TraceReader::new(&b"PT"[..]),
            Err(TraceError::NotPtrace)
        ));
    }

    #[test]
    fn header_range_validate_refuses_is_corrupt() {
        let (mut bytes, _) = sample_trace(1, 10);
        bytes[20..28].copy_from_slice(&(1u64 << 60).to_le_bytes()); // size
        match TraceReader::new(&bytes[..]) {
            Err(e @ TraceError::Corrupt(_)) => {
                assert!(e.to_string().contains("0x1000000000000000"), "{e}")
            }
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got a reader"),
        }
    }

    #[test]
    fn open_names_the_file_and_the_conversion() {
        let path = std::env::temp_dir().join(format!("predator-door-{}", std::process::id()));
        std::fs::write(
            &path,
            b"{\"tid\":0,\"addr\":4096,\"size\":8,\"kind\":\"Write\"}\n",
        )
        .unwrap();
        let err = TraceReader::open(&path).err().expect("JSONL is refused");
        assert!(err.contains(path.to_str().unwrap()), "{err}");
        assert!(err.contains("predator trace import"), "{err}");
        std::fs::remove_file(&path).unwrap();
        let err = TraceReader::open(&path).err().expect("a missing file too");
        assert!(err.contains(path.to_str().unwrap()), "{err}");
    }

    #[test]
    fn collect_events_sizes_the_vector_from_a_trailer_it_never_trusts() {
        let path = std::env::temp_dir().join(format!("predator-reserve-{}", std::process::id()));
        let (intact, events) = sample_trace(5, 100);
        let mut damaged = intact.clone();
        damaged[find_nth_chunk(&intact, 2) + CHUNK_FRAME_LEN + 10] ^= 0xff;
        for bytes in [intact, damaged] {
            const HOSTILE: u64 = 1 << 60;
            for claimed in [0, events.len() as u64, HOSTILE] {
                let mut forged = bytes.clone();
                let count_at = forged.len() - TRAILER_LEN + 8;
                forged[count_at..count_at + 8].copy_from_slice(&claimed.to_le_bytes());
                std::fs::write(&path, &forged).unwrap();
                let mut file = TraceReader::open(&path).unwrap();
                let got = file.collect_events();
                // Same events, same loss, same sidecar as the stream reader,
                // which never sees the count.
                let mut stream = TraceReader::new(&forged[..]).unwrap();
                assert_eq!(got, stream.by_ref().collect::<Vec<_>>());
                assert_eq!(file.stats(), stream.stats());
                assert_eq!(file.meta(), stream.meta());
                match claimed {
                    // Nothing to go by: grown by doubling.
                    0 => assert!(got.capacity() <= 2 * got.len()),
                    // 2^60 records in a 2 KB file: room for one per byte.
                    HOSTILE => assert_eq!(got.capacity(), forged.len()),
                    // Allocated once, whether or not a chunk was then lost.
                    _ => assert_eq!(got.capacity(), events.len()),
                }
            }
        }
        // Cut mid-trailer, the file has no count to offer.
        let (bytes, events) = sample_trace(5, 100);
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let got = r.collect_events();
        assert_eq!((got.len(), r.stats().truncated), (events.len(), true));
        assert!(got.capacity() <= 2 * got.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_spliced_midfile_resyncs() {
        let (bytes, events) = sample_trace(4, 50);
        let splice_at = find_nth_chunk(&bytes, 2);
        let mut mangled = bytes[..splice_at].to_vec();
        mangled.extend_from_slice(&[0xa5u8; 997]); // garbage, no CHNK inside
        mangled.extend_from_slice(&bytes[splice_at..]);
        let mut r = TraceReader::new(&mangled[..]).unwrap();
        let got: Vec<Access> = (&mut r).collect();
        assert_eq!(got, events, "all real chunks recovered after resync");
        let stats = r.stats();
        assert_eq!(stats.bytes_skipped, 997);
        assert!(!stats.truncated);
    }

    /// Byte offset of the n-th (0-based) chunk frame.
    fn find_nth_chunk(bytes: &[u8], n: usize) -> usize {
        let mut off = HEADER_V1_LEN;
        for _ in 0..n {
            let frame =
                ChunkFrame::decode(&bytes[off..off + CHUNK_FRAME_LEN].try_into().unwrap()).unwrap();
            off += CHUNK_FRAME_LEN + frame.payload_len as usize;
        }
        off
    }
}
