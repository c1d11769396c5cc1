//! Hand-rolled byte codec: LEB128 varints, zigzag deltas and
//! run-length-encoded bit streams.

use crate::TraceError;

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit =
/// continuation; at most 10 bytes).
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

/// Zigzag-maps a signed delta into an unsigned varint payload.
#[must_use]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked cursor over a byte slice. All reads return
/// [`TraceError::Truncated`] past the end instead of panicking.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.buf.get(self.pos).ok_or(TraceError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(TraceError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn take_u64_le(&mut self) -> Result<u64, TraceError> {
        let s = self.take_bytes(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64, TraceError> {
        Ok(f64::from_bits(self.take_u64_le()?))
    }

    pub(crate) fn take_varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8()?;
            if shift == 63 && byte > 1 {
                return Err(TraceError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Corrupt("varint longer than 10 bytes".into()));
            }
        }
    }

    pub(crate) fn take_str(&mut self) -> Result<String, TraceError> {
        let len = self.take_varint()?;
        let len = usize::try_from(len)
            .map_err(|_| TraceError::Corrupt("string length overflows usize".into()))?;
        let bytes = self.take_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceError::Corrupt("string is not UTF-8".into()))
    }
}

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an `f64` as its 8 little-endian IEEE-754 bytes.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Run-length encoder for a bit stream (conditional outcomes). The
/// encoding is the first bit's value followed by varint run lengths of
/// alternating bit values.
#[derive(Default)]
pub(crate) struct BitRunEncoder {
    first: u8,
    cur: u8,
    run: u64,
    count: u64,
    runs: Vec<u8>,
}

impl BitRunEncoder {
    pub(crate) fn push(&mut self, bit: u8) {
        debug_assert!(bit <= 1);
        if self.count == 0 {
            self.first = bit;
            self.cur = bit;
            self.run = 1;
        } else if bit == self.cur {
            self.run += 1;
        } else {
            put_varint(&mut self.runs, self.run);
            self.cur = bit;
            self.run = 1;
        }
        self.count += 1;
    }

    /// Flushes the final run and returns `(bit count, first bit,
    /// encoded run lengths)`.
    pub(crate) fn finish(mut self) -> (u64, u8, Vec<u8>) {
        if self.count > 0 {
            put_varint(&mut self.runs, self.run);
        }
        (self.count, self.first, self.runs)
    }
}

/// Streaming decoder for a [`BitRunEncoder`] section. Construction
/// assumes the section was validated by the trace parser; `next`
/// panics (with a clear message) only if stepped past the recorded
/// bit count, which replay never does.
pub(crate) struct BitRunCursor<'a> {
    cur: Cur<'a>,
    bit: u8,
    left_in_run: u64,
    started: bool,
}

impl<'a> BitRunCursor<'a> {
    pub(crate) fn new(first: u8, runs: &'a [u8]) -> Self {
        BitRunCursor {
            cur: Cur::new(runs),
            // Pre-flipped: the first run flips it back to `first`.
            bit: first ^ 1,
            left_in_run: 0,
            started: false,
        }
    }

    pub(crate) fn next(&mut self) -> u8 {
        if self.left_in_run == 0 {
            self.left_in_run = self
                .cur
                .take_varint()
                .expect("validated bit-run stream exhausted");
            self.bit ^= 1;
            if !self.started {
                self.started = true;
            }
        }
        self.left_in_run -= 1;
        self.bit
    }

    /// Validates that the run lengths sum to exactly `count` and the
    /// section has no trailing bytes.
    pub(crate) fn validate(first: u8, runs: &[u8], count: u64) -> Result<(), TraceError> {
        if first > 1 {
            return Err(TraceError::Corrupt("outcome first-bit is not 0/1".into()));
        }
        let mut cur = Cur::new(runs);
        let mut total = 0u64;
        while cur.remaining() > 0 {
            let run = cur.take_varint()?;
            if run == 0 {
                return Err(TraceError::Corrupt("zero-length outcome run".into()));
            }
            total = total
                .checked_add(run)
                .ok_or_else(|| TraceError::Corrupt("outcome run lengths overflow".into()))?;
        }
        if total != count {
            return Err(TraceError::Corrupt(format!(
                "outcome runs cover {total} bits but header claims {count}"
            )));
        }
        Ok(())
    }
}

/// Zigzag-delta encoder for a `u64` value stream (addresses).
#[derive(Default)]
pub(crate) struct DeltaEncoder {
    prev: u64,
    count: u64,
    bytes: Vec<u8>,
}

impl DeltaEncoder {
    pub(crate) fn push(&mut self, v: u64) {
        let delta = (v as i64).wrapping_sub(self.prev as i64);
        put_varint(&mut self.bytes, zigzag(delta));
        self.prev = v;
        self.count += 1;
    }

    pub(crate) fn finish(self) -> (u64, Vec<u8>) {
        (self.count, self.bytes)
    }
}

/// Streaming decoder for a [`DeltaEncoder`] section.
pub(crate) struct DeltaCursor<'a> {
    cur: Cur<'a>,
    prev: u64,
}

impl<'a> DeltaCursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        DeltaCursor {
            cur: Cur::new(bytes),
            prev: 0,
        }
    }

    pub(crate) fn next(&mut self) -> u64 {
        let delta = self
            .cur
            .take_varint()
            .expect("validated delta stream exhausted");
        self.prev = (self.prev as i64).wrapping_add(unzigzag(delta)) as u64;
        self.prev
    }

    /// Validates that exactly `count` varints consume the whole
    /// section.
    pub(crate) fn validate(bytes: &[u8], count: u64) -> Result<(), TraceError> {
        let mut cur = Cur::new(bytes);
        for _ in 0..count {
            cur.take_varint()?;
        }
        if cur.remaining() != 0 {
            return Err(TraceError::Corrupt(format!(
                "delta stream has {} trailing bytes",
                cur.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        let cases = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.take_varint().unwrap(), v, "value {v:#x}");
            assert_eq!(cur.remaining(), 0);
        }
    }

    #[test]
    fn varint_truncated_is_err() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut cur = Cur::new(&buf);
        assert_eq!(cur.take_varint(), Err(TraceError::Truncated));
    }

    #[test]
    fn varint_overlong_is_err() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut cur = Cur::new(&buf);
        assert!(matches!(cur.take_varint(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn bit_runs_roundtrip() {
        let bits: Vec<u8> = (0..1000u32).map(|i| u8::from(i % 7 < 3)).collect();
        let mut enc = BitRunEncoder::default();
        for &b in &bits {
            enc.push(b);
        }
        let (count, first, runs) = enc.finish();
        assert_eq!(count, 1000);
        BitRunCursor::validate(first, &runs, count).unwrap();
        let mut cur = BitRunCursor::new(first, &runs);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(cur.next(), b, "bit {i}");
        }
    }

    #[test]
    fn empty_bit_stream_validates() {
        let (count, first, runs) = BitRunEncoder::default().finish();
        assert_eq!(count, 0);
        assert!(runs.is_empty());
        BitRunCursor::validate(first, &runs, 0).unwrap();
    }

    #[test]
    fn bit_run_count_mismatch_is_err() {
        let mut enc = BitRunEncoder::default();
        enc.push(1);
        enc.push(1);
        let (_, first, runs) = enc.finish();
        assert!(BitRunCursor::validate(first, &runs, 3).is_err());
    }

    #[test]
    fn delta_roundtrip() {
        let vals = [
            0x1000_0000u64,
            0x1000_0008,
            0x1000_0000,
            0xffff_ffff_0000,
            8,
        ];
        let mut enc = DeltaEncoder::default();
        for &v in &vals {
            enc.push(v);
        }
        let (count, bytes) = enc.finish();
        DeltaCursor::validate(&bytes, count).unwrap();
        let mut cur = DeltaCursor::new(&bytes);
        for &v in &vals {
            assert_eq!(cur.next(), v);
        }
    }

    #[test]
    fn delta_trailing_bytes_is_err() {
        let mut enc = DeltaEncoder::default();
        enc.push(5);
        let (count, mut bytes) = enc.finish();
        bytes.push(0);
        assert!(DeltaCursor::validate(&bytes, count).is_err());
    }
}
