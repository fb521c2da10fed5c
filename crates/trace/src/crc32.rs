//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) over chunk
//! payloads. Slicing-by-16: sixteen bytes per step through sixteen
//! 256-entry tables built at compile time (16 KiB of read-only data), no
//! dependencies. The one checksum of the crate: the reader, the writer and
//! `fleet ingest`'s content id all call [`crc32`].

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;
/// Bytes folded per step, one table each.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes, which is what lets a whole
/// step's bytes be looked up independently and xor-ed together.
const TABLES: [[u32; 256]; SLICES] = {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data` (init `0xffff_ffff`, final xor `0xffff_ffff`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c: u32 = 0xffff_ffff;
    let mut steps = data.chunks_exact(SLICES);
    for s in &mut steps {
        // The running CRC folds into the step's first four bytes; byte `i`
        // then has `SLICES - 1 - i` bytes after it.
        let (head, tail) = s.split_at(4);
        let head = c ^ u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        let bytes = head.to_le_bytes().into_iter().chain(tail.iter().copied());
        c = bytes
            .zip(TABLES.iter().rev())
            .fold(0, |c, (b, table)| c ^ table[b as usize]);
    }
    for &b in steps.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, a bit at a time: the oracle the tables answer to.
    fn bitwise(data: &[u8]) -> u32 {
        let mut c: u32 = 0xffff_ffff;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xffff_ffff
    }

    /// xorshift bytes: every table row gets exercised.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check values for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn sliced_equals_bitwise_at_every_length_and_offset() {
        let data = noise(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bitwise(s), "start {start}, len {len}");
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), bitwise(&big));
        assert_eq!(crc32(&big[3..]), bitwise(&big[3..]));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0xabu8; 256];
        let base = crc32(&data);
        for i in [0usize, 100, 255] {
            let mut flipped = data.clone();
            flipped[i] ^= 0x01;
            assert_ne!(
                crc32(&flipped),
                base,
                "flip at byte {i} must change the CRC"
            );
        }
    }
}
