//! `.ptrace` v1 bytes do not move: `fixtures/v1_small.ptrace` was written by
//! the build before the sliced checksum and the windowed decoder (PR 22's
//! `TraceWriter`: 368 events in five event chunks — one of them records no
//! workload produces: escaped sizes, ten-byte deltas, thread id 65 535 —
//! then META, index and trailer). This build must read it without loss and
//! write the same bytes back.

use predator_sim::{Access, AccessKind, ThreadId};
use predator_trace::crc32::crc32;
use predator_trace::format::{
    decode_events, ChunkFrame, CHUNK_EVENTS, CHUNK_FRAME_LEN, CHUNK_INDEX, CHUNK_META,
    HEADER_V1_LEN, TRAILER_LEN,
};
use predator_trace::{LossStats, TraceMeta, TraceReader, TraceWriter};

const FIXTURE: &[u8] = include_bytes!("fixtures/v1_small.ptrace");

#[test]
fn the_reader_reads_the_parent_builds_file_without_loss() {
    let mut r = TraceReader::new(FIXTURE).unwrap();
    assert_eq!((r.base(), r.size()), (0x4000_0000, 64 << 20));
    let events: Vec<Access> = r.by_ref().collect();
    assert_eq!(events.len(), 368);
    assert_eq!(r.stats(), LossStats::default());
    assert_eq!((r.event_chunks(), r.chunks_seen()), (5, 7));
    assert!(r.saw_trailer());
    assert_eq!(r.meta().expect("META decodes").objects.len(), 2);
    // The hand-written chunk, as the parent's writer was given it.
    let (base, top) = (0x4000_0000u64, 0x4400_0000u64);
    let odd = [
        Access::write(ThreadId(0), base + 0x100, 3),
        Access::read(ThreadId(u16::MAX), base + 0x108, 255),
        Access::write(ThreadId(0), top + 0x7fff_0000_0000, 8),
        Access::read(ThreadId(300), u64::MAX - 15, 16),
        Access::write(ThreadId(1), base + 61, 8),
        Access::read(ThreadId(2), base, 0),
        Access::write(ThreadId(2), 0, 64),
        Access::write(ThreadId(3), base + 0x40, 32),
    ];
    assert_eq!(events[360..], odd);
    let writes = events.iter().filter(|a| a.kind == AccessKind::Write);
    assert_eq!(writes.count(), 125);
}

#[test]
fn the_writer_reproduces_the_parent_builds_file_byte_for_byte() {
    let mut r = TraceReader::new(FIXTURE).unwrap();
    let mut w = TraceWriter::create(Vec::new(), r.base(), r.size()).unwrap();
    // Walk the frames by hand: the chunk boundaries are part of the bytes.
    let mut at = HEADER_V1_LEN;
    while at < FIXTURE.len() - TRAILER_LEN {
        let frame = FIXTURE[at..at + CHUNK_FRAME_LEN].try_into().unwrap();
        let frame = ChunkFrame::decode(frame).expect("a frame at every boundary");
        let payload = &FIXTURE[at + CHUNK_FRAME_LEN..][..frame.payload_len as usize];
        assert_eq!(crc32(payload), frame.crc, "chunk at {at}");
        match frame.kind {
            CHUNK_EVENTS => {
                let mut events = Vec::new();
                let n = decode_events(payload, frame.record_count, &mut events);
                assert_eq!(n, Ok(frame.record_count));
                w.write_events(&events).unwrap();
            }
            CHUNK_META => {
                let meta: TraceMeta =
                    serde_json::from_str(std::str::from_utf8(payload).unwrap()).unwrap();
                r.drain();
                assert_eq!(r.meta(), Some(&meta));
                w.write_meta(&meta).unwrap();
            }
            kind => assert_eq!(kind, CHUNK_INDEX, "the index closes the file"),
        }
        at += CHUNK_FRAME_LEN + payload.len();
    }
    let (summary, bytes) = w.finish().unwrap();
    assert_eq!((summary.events, summary.chunks), (368, 7));
    assert!(
        bytes == FIXTURE,
        "the rewritten file differs from the fixture"
    );
}
