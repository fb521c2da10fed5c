//! LEB128 variable-length integers and ZigZag signed mapping.
//!
//! The `.ptrace` event encoding stores addresses and thread ids as deltas
//! from the previous record; deltas are small and sign-alternating, so
//! ZigZag + LEB128 packs the common case into one or two bytes.

/// Maximum encoded length of a `u64` varint (⌈64/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` to `out` as an unsigned LEB128 varint.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` to `out` ZigZag-mapped then LEB128-encoded.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Maps a signed value to an unsigned one with small absolute values staying
/// small: 0, -1, 1, -2, 2 … → 0, 1, 2, 3, 4 …
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads an unsigned LEB128 varint from `buf[*pos..]`, advancing `pos`.
/// Returns `None` on truncation, on a varint longer than [`MAX_VARINT_LEN`]
/// and on a tenth byte carrying bits past 2⁶³: nothing a `u64` cannot hold
/// decodes to one. Deltas are small, so one and two bytes are decided
/// before the general loop.
#[inline]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b0 = *buf.get(*pos)?;
    if b0 < 0x80 {
        *pos += 1;
        return Some(b0 as u64);
    }
    let b1 = *buf.get(*pos + 1)?;
    if b1 < 0x80 {
        *pos += 2;
        return Some((b0 & 0x7f) as u64 | (b1 as u64) << 7);
    }
    // The general loop picks up after the two bytes already read.
    let mut v = (b0 & 0x7f) as u64 | ((b1 & 0x7f) as u64) << 7;
    let mut at = *pos + 2;
    let mut shift = 14u32;
    loop {
        let byte = *buf.get(at)?;
        at += 1;
        if shift == 63 && byte > 1 {
            return None; // bits past 2⁶³, or an eleventh byte
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            *pos = at;
            return Some(v);
        }
        shift += 7;
    }
}

/// Reads a ZigZag-ed signed varint.
#[inline]
pub fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    read_u64(buf, pos).map(unzigzag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_write_then_read_round_trips(
            v in prop_oneof![0u64..0x8000, any::<u64>()],
            shift in 0u32..64,
        ) {
            roundtrip_u(v >> shift);
            roundtrip_i((v >> shift) as i64);
            roundtrip_i(((v >> shift) as i64).wrapping_neg());
        }
    }

    fn roundtrip_u(v: u64) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        assert!(buf.len() <= MAX_VARINT_LEN);
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    }

    fn roundtrip_i(v: i64) {
        let mut buf = Vec::new();
        write_i64(&mut buf, v);
        let mut pos = 0;
        assert_eq!(read_i64(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn unsigned_roundtrips() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            roundtrip_u(v);
        }
    }

    #[test]
    fn signed_roundtrips() {
        for v in [
            0,
            1,
            -1,
            63,
            -64,
            64,
            -65,
            i32::MAX as i64,
            i64::MIN,
            i64::MAX,
        ] {
            roundtrip_i(v);
        }
    }

    #[test]
    fn zigzag_keeps_small_values_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in -1000..1000 {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn one_byte_for_small_deltas() {
        let mut buf = Vec::new();
        write_i64(&mut buf, 8); // the typical next-word address delta
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_input_is_none_not_panic() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_u64(&buf[..cut], &mut pos), None);
        }
    }

    #[test]
    fn a_tenth_byte_holds_one_bit() {
        let read = |buf: &[u8]| read_u64(buf, &mut 0);
        let nines = [0xffu8; 9];
        assert_eq!(read(&[&nines[..], &[0x01]].concat()), Some(u64::MAX));
        assert_eq!(read(&[&nines[..], &[0x00]].concat()), Some(u64::MAX >> 1));
        // Bits shifted past 2⁶³ used to be dropped silently.
        assert_eq!(read(&[&nines[..], &[0x02]].concat()), None);
        assert_eq!(read(&[&nines[..], &[0x7f]].concat()), None);
        assert_eq!(read(&[&nines[..], &[0x81, 0x00]].concat()), None);
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        let buf = [0x80u8; 11]; // 11 continuation bytes: > 64 bits of shift
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }
}
