//! Streaming `.ptrace` writers.
//!
//! [`TraceWriter`] is the single-threaded framing layer: it owns the output
//! stream, tracks chunk offsets for the footer index, and seals the file
//! with a META chunk, the index, and the trailer. [`TraceSink`] puts one
//! buffer in front of it, so a run records through an [`AccessSink`] one
//! [`CHUNK_CAPACITY`] chunk at a time. The buffer follows the detector's
//! owner rule ([`Owner`]): the thread that built the sink appends with
//! plain loads and stores, a [shared](TraceSink::into_shared) sink takes a
//! lock per event, and any other thread panics.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

use predator_core::owner::Owner;
use predator_sim::{Access, AccessKind, AccessSink, ThreadId};

use crate::crc32::crc32;
use crate::format::{
    ChunkFrame, EventEncoder, Header, IndexEntry, TraceMeta, CHUNK_EVENTS, CHUNK_INDEX, CHUNK_META,
    END_MAGIC, VERSION,
};

/// Summary returned by [`TraceWriter::finish`] / [`TraceSink::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Total event records written.
    pub events: u64,
    /// Total bytes written, trailer included.
    pub bytes: u64,
    /// Chunks written (events + meta + index).
    pub chunks: usize,
}

/// Single-threaded streaming writer for the `.ptrace` format.
pub struct TraceWriter<W: Write> {
    w: W,
    offset: u64,
    index: Vec<IndexEntry>,
    total_records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the file header for a trace over `[base, base + size)`.
    pub fn create(mut w: W, base: u64, size: u64) -> io::Result<Self> {
        let header = Header {
            version: VERSION,
            base,
            size,
        }
        .encode();
        w.write_all(&header)?;
        Ok(TraceWriter {
            w,
            offset: header.len() as u64,
            index: Vec::new(),
            total_records: 0,
        })
    }

    fn write_chunk(&mut self, kind: u8, record_count: u32, payload: &[u8]) -> io::Result<()> {
        let frame = ChunkFrame {
            kind,
            flags: 0,
            record_count,
            payload_len: payload.len() as u32,
            crc: crc32(payload),
        };
        self.index.push(IndexEntry {
            offset: self.offset,
            kind,
            record_count,
        });
        self.w.write_all(&frame.encode())?;
        self.w.write_all(payload)?;
        self.offset += (crate::format::CHUNK_FRAME_LEN + payload.len()) as u64;
        Ok(())
    }

    /// Writes one events chunk. Delta state is per-chunk, so any slicing of
    /// a per-thread stream into consecutive `write_events` calls is valid.
    pub fn write_events(&mut self, events: &[Access]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        let mut enc = EventEncoder::new();
        for &a in events {
            enc.push(a);
        }
        let (payload, count) = enc.finish();
        self.total_records += count as u64;
        self.write_chunk(CHUNK_EVENTS, count, &payload)
    }

    /// Writes the META chunk carrying attribution state.
    pub fn write_meta(&mut self, meta: &TraceMeta) -> io::Result<()> {
        let payload = serde_json::to_string(meta)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .into_bytes();
        self.write_chunk(CHUNK_META, 1, &payload)
    }

    /// Seals the file: index chunk, trailer, flush. Returns the summary and
    /// the underlying stream.
    pub fn finish(mut self) -> io::Result<(WriteSummary, W)> {
        let index_offset = self.offset;
        let payload = crate::format::encode_index(&self.index);
        let entries = self.index.len() as u32;
        self.write_chunk(CHUNK_INDEX, entries, &payload)?;
        self.w.write_all(&index_offset.to_le_bytes())?;
        self.w.write_all(&self.total_records.to_le_bytes())?;
        self.w.write_all(END_MAGIC)?;
        self.offset += crate::format::TRAILER_LEN as u64;
        self.w.flush()?;
        let summary = WriteSummary {
            events: self.total_records,
            bytes: self.offset,
            chunks: self.index.len(),
        };
        Ok((summary, self.w))
    }

    /// Event records written so far.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }
}

/// Events per events chunk: the batch [`TraceSink`] writes, and the slice
/// `trace import` hands [`TraceWriter::write_events`].
pub const CHUNK_CAPACITY: usize = 4096;

/// The writer behind a [`TraceSink`]: taken once a chunk is full, and per
/// event when the sink is shared.
struct SinkState<W: Write> {
    writer: Option<TraceWriter<W>>,
    /// The chunk being written, decoded from the sink's words.
    chunk: Vec<Access>,
    error: Option<io::Error>,
}

/// Recording sink: implements [`AccessSink`] over one buffer, written out
/// as an events chunk every [`CHUNK_CAPACITY`] events.
///
/// Events reach the file in arrival order. I/O errors are latched and
/// surfaced by [`finish`](TraceSink::finish); events arriving after an
/// error are dropped.
pub struct TraceSink<W: Write> {
    owner: Owner,
    /// The pending events, two words each: the address, then the thread,
    /// size and kind. Their atomics are only ever loaded and stored: the
    /// owner is alone in them, and a shared sink holds `state`'s lock.
    words: Box<[AtomicU64]>,
    len: AtomicUsize,
    state: Mutex<SinkState<W>>,
}

impl<W: Write> TraceSink<W> {
    /// Starts a trace file over `[base, base + size)` on `w`, owned by the
    /// calling thread.
    pub fn create(w: W, base: u64, size: u64) -> io::Result<Self> {
        let state = SinkState {
            writer: Some(TraceWriter::create(w, base, size)?),
            chunk: Vec::with_capacity(CHUNK_CAPACITY),
            error: None,
        };
        Ok(TraceSink {
            owner: Owner::me(),
            words: (0..2 * CHUNK_CAPACITY).map(|_| AtomicU64::new(0)).collect(),
            len: AtomicUsize::new(0),
            state: Mutex::new(state),
        })
    }

    /// Lets every thread record into the sink, each event under its lock.
    pub fn into_shared(mut self) -> Self {
        self.owner.share();
        self
    }

    fn lock(&self) -> MutexGuard<'_, SinkState<W>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock when the sink is shared, nothing for its owner.
    ///
    /// # Panics
    /// When another thread owns the sink.
    fn enter(&self) -> Option<MutexGuard<'_, SinkState<W>>> {
        (!self.owner.exclusive()).then(|| self.lock())
    }

    /// Writes the pending events as one chunk, latching the first error.
    fn flush(&self, st: &mut SinkState<W>) {
        let n = self.len.load(Relaxed);
        st.chunk.clear();
        st.chunk
            .extend(self.words[..2 * n].chunks_exact(2).map(|w| {
                let packed = w[1].load(Relaxed);
                Access {
                    tid: ThreadId(packed as u16),
                    addr: w[0].load(Relaxed),
                    size: (packed >> 16) as u8,
                    kind: match packed >> 24 {
                        0 => AccessKind::Read,
                        _ => AccessKind::Write,
                    },
                }
            }));
        if let (None, Some(w)) = (&st.error, st.writer.as_mut()) {
            if let Err(e) = w.write_events(&st.chunk) {
                st.error = Some(e);
            }
        }
        self.len.store(0, Relaxed);
    }

    /// Seals the trace: writes the pending events, then the META chunk,
    /// index, and trailer. A latched I/O error is returned here.
    pub fn finish(&self, meta: &TraceMeta) -> io::Result<WriteSummary> {
        let mut st = self.enter().unwrap_or_else(|| self.lock());
        self.flush(&mut st);
        if let Some(e) = st.error.take() {
            return Err(e);
        }
        let mut writer = st
            .writer
            .take()
            .ok_or_else(|| io::Error::other("trace already finished"))?;
        writer.write_meta(meta)?;
        let (summary, _w) = writer.finish()?;
        Ok(summary)
    }
}

impl<W: Write + Send> AccessSink for TraceSink<W> {
    #[inline]
    fn access(&self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        let held = self.enter();
        let n = self.len.load(Relaxed);
        let packed = u64::from(tid.0) | u64::from(size) << 16 | u64::from(kind.is_write()) << 24;
        self.words[2 * n].store(addr, Relaxed);
        self.words[2 * n + 1].store(packed, Relaxed);
        self.len.store(n + 1, Relaxed);
        if n + 1 == CHUNK_CAPACITY {
            self.flush(&mut held.unwrap_or_else(|| self.lock()));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn writer_produces_header_chunks_trailer() {
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::create(&mut buf, 0x1000, 0x2000).unwrap();
            w.write_events(&[Access::write(ThreadId(0), 0x1000, 8)])
                .unwrap();
            w.write_events(&[Access::read(ThreadId(1), 0x1008, 4)])
                .unwrap();
            w.write_meta(&TraceMeta::default()).unwrap();
            let (summary, _) = w.finish().unwrap();
            assert_eq!(summary.events, 2);
            assert_eq!(summary.chunks, 4); // 2 events + meta + index
            assert_eq!(summary.bytes, buf.len() as u64);
        }
        assert_eq!(&buf[0..6], crate::format::MAGIC);
        assert_eq!(&buf[buf.len() - 8..], END_MAGIC);
        let total = u64::from_le_bytes(buf[buf.len() - 16..buf.len() - 8].try_into().unwrap());
        assert_eq!(total, 2);
    }

    #[test]
    fn sink_writes_the_chunks_import_writes() {
        let events: Vec<Access> = (0..2 * CHUNK_CAPACITY as u64 + 1)
            .map(|i| Access::write(ThreadId((i % 3) as u16), 0x1000 + i % 512 * 8, 8))
            .collect();
        let meta = TraceMeta::default();
        let mut recorded = Vec::new();
        {
            let sink = TraceSink::create(&mut recorded, 0x1000, 0x2000).unwrap();
            for a in &events {
                sink.record(*a);
            }
            assert_eq!(sink.finish(&meta).unwrap().events, events.len() as u64);
        }
        let mut imported = Vec::new();
        let mut w = TraceWriter::create(&mut imported, 0x1000, 0x2000).unwrap();
        for c in events.chunks(CHUNK_CAPACITY) {
            w.write_events(c).unwrap();
        }
        w.write_meta(&meta).unwrap();
        w.finish().unwrap();
        assert!(recorded == imported, "sink and import disagree");

        let at = recorded.len() - crate::format::TRAILER_LEN;
        let index_at = u64::from_le_bytes(recorded[at..at + 8].try_into().unwrap()) as usize;
        let payload = &recorded[index_at + crate::format::CHUNK_FRAME_LEN..at];
        let counts: Vec<u32> = crate::format::decode_index(payload)
            .unwrap()
            .iter()
            .filter(|e| e.kind == CHUNK_EVENTS)
            .map(|e| e.record_count)
            .collect();
        assert_eq!(counts, [4096, 4096, 1]);
    }

    #[test]
    fn sink_records_across_threads_without_loss() {
        let state = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = TraceSink::create(Shared(state.clone()), 0, 1 << 20)
            .unwrap()
            .into_shared();
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..3000u64 {
                        sink.access(ThreadId(t), i * 8, 8, AccessKind::Write);
                    }
                });
            }
        });
        let summary = sink.finish(&TraceMeta::default()).unwrap();
        assert_eq!(summary.events, 12_000);
        assert_eq!(summary.chunks, 3 + 2); // 4096 + 4096 + 3808, meta, index
        assert_eq!(state.lock().unwrap().len() as u64, summary.bytes);
    }

    /// An owned sink is its builder's: another thread that records into it
    /// panics before it touches the buffer, and the owner goes on.
    #[test]
    fn another_thread_cannot_record_into_an_owned_sink() {
        let mut buf = Vec::new();
        let sink = TraceSink::create(&mut buf, 0, 1 << 20).unwrap();
        sink.access(ThreadId(0), 0, 8, AccessKind::Write);
        let foreign = std::thread::scope(|s| {
            s.spawn(|| sink.access(ThreadId(1), 8, 8, AccessKind::Read))
                .join()
        });
        let err = foreign.expect_err("a foreign thread recorded into an owned sink");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("driven from another"), "{msg}");
        sink.access(ThreadId(0), 16, 4, AccessKind::Read);
        assert_eq!(sink.finish(&TraceMeta::default()).unwrap().events, 2);
    }
}
