//! LSB-first bit I/O as required by DEFLATE (RFC 1951 §3.1.1).
//!
//! Huffman codes are written most-significant-bit first *within the code*
//! but packed into bytes starting from the least significant bit; the
//! helpers here keep those two conventions separate (`BitWriter::write_bits`
//! for extra-bits fields, `BitWriter::write_code` for Huffman codes).

/// Bit-level writer producing a DEFLATE-conformant byte stream.
pub(crate) struct BitWriter {
    out: Vec<u8>,
    /// Bit accumulator; bits fill from the LSB upward.
    acc: u64,
    /// Number of valid bits in `acc`.
    nbits: u32,
}

impl Default for BitWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }

    /// Write `n` bits of `value` (LSB of `value` emitted first). Used for
    /// block headers and extra-bits fields.
    ///
    /// The accumulator holds fewer than 32 valid bits on entry, so a
    /// 32-bit value always fits in the 64-bit word; once 32 bits have
    /// accumulated they are flushed as one little-endian word instead of
    /// byte by byte.
    #[inline]
    pub(crate) fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || value < (1u32 << n));
        debug_assert!(self.nbits < 32);
        self.acc |= (value as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Write a Huffman code of `len` bits. DEFLATE transmits Huffman codes
    /// MSB-first, so the code's bit order is reversed before packing.
    #[inline]
    pub(crate) fn write_code(&mut self, code: u32, len: u32) {
        let rev = reverse_bits(code, len);
        self.write_bits(rev, len);
    }

    /// Pad to a byte boundary with zero bits and drain the accumulator
    /// (stored-block alignment; `write_bytes` relies on the drain).
    pub(crate) fn align_byte(&mut self) {
        let pad = (8 - (self.nbits & 7)) & 7;
        if pad > 0 {
            self.write_bits(0, pad);
        }
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
        debug_assert_eq!(self.nbits, 0);
        debug_assert_eq!(self.acc, 0);
    }

    /// Append raw bytes; caller must be byte-aligned.
    pub(crate) fn write_bytes(&mut self, data: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(data);
    }

    /// Flush any partial byte and return the stream.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reverse the low `len` bits of `v`.
#[inline]
pub(crate) fn reverse_bits(v: u32, len: u32) -> u32 {
    let mut r = 0u32;
    for i in 0..len {
        r |= ((v >> i) & 1) << (len - 1 - i);
    }
    r
}

/// Bit-level reader over a DEFLATE byte stream.
pub(crate) struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

/// Errors from bit-level reading.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum BitError {
    /// Ran off the end of the input.
    UnexpectedEof,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n` bits, LSB-first.
    #[inline]
    pub(crate) fn read_bits(&mut self, n: u32) -> Result<u32, BitError> {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(BitError::UnexpectedEof);
            }
        }
        let mask = if n == 0 { 0 } else { (1u64 << n) - 1 };
        let v = (self.acc & mask) as u32;
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub(crate) fn read_bit(&mut self) -> Result<u32, BitError> {
        self.read_bits(1)
    }

    /// Discard bits to the next byte boundary.
    pub(crate) fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Read raw bytes (must be byte-aligned).
    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, BitError> {
        debug_assert_eq!(self.nbits % 8, 0);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let b = self.read_bits(8)?;
            out.push(b as u8);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11110000, 8);
        w.write_bits(0x3FFF, 14);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0b11110000);
        assert_eq!(r.read_bits(14).unwrap(), 0x3FFF);
    }

    #[test]
    fn code_is_msb_first() {
        // A 3-bit Huffman code 0b110 must appear reversed (0b011) in the
        // LSB-first packing.
        let mut w = BitWriter::new();
        w.write_code(0b110, 3);
        let bytes = w.finish();
        assert_eq!(bytes[0] & 0b111, 0b011);
    }

    #[test]
    fn reverse_bits_known() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b100, 3), 0b001);
        assert_eq!(reverse_bits(0b1011, 4), 0b1101);
    }

    #[test]
    fn align_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_byte();
        w.write_bytes(&[0xAB, 0xCD]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit().unwrap(), 1);
        r.align_byte();
        assert_eq!(r.read_bytes(2).unwrap(), vec![0xAB, 0xCD]);
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(BitError::UnexpectedEof));
    }
}
