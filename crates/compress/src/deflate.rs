//! DEFLATE (RFC 1951) encoder and decoder.
//!
//! The encoder tokenizes with [`crate::lz77`], then emits whichever of the
//! three block types (stored / fixed Huffman / dynamic Huffman) is smallest
//! for the data. The decoder implements the full specification; the
//! blocked container runs it once per `XBC1` block.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{build_lengths, canonical_codes, HuffError, HuffmanDecoder};
use crate::lz77::{self, Token};

/// Length-code table: `(code, extra_bits, base_length)` for codes 257–285.
const LENGTH_CODES: [(u16, u8, u16); 29] = [
    (257, 0, 3),
    (258, 0, 4),
    (259, 0, 5),
    (260, 0, 6),
    (261, 0, 7),
    (262, 0, 8),
    (263, 0, 9),
    (264, 0, 10),
    (265, 1, 11),
    (266, 1, 13),
    (267, 1, 15),
    (268, 1, 17),
    (269, 2, 19),
    (270, 2, 23),
    (271, 2, 27),
    (272, 2, 31),
    (273, 3, 35),
    (274, 3, 43),
    (275, 3, 51),
    (276, 3, 59),
    (277, 4, 67),
    (278, 4, 83),
    (279, 4, 99),
    (280, 4, 115),
    (281, 5, 131),
    (282, 5, 163),
    (283, 5, 195),
    (284, 5, 227),
    (285, 0, 258),
];

/// Distance-code table: `(extra_bits, base_distance)` for codes 0–29.
const DIST_CODES: [(u8, u16); 30] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (1, 5),
    (1, 7),
    (2, 9),
    (2, 13),
    (3, 17),
    (3, 25),
    (4, 33),
    (4, 49),
    (5, 65),
    (5, 97),
    (6, 129),
    (6, 193),
    (7, 257),
    (7, 385),
    (8, 513),
    (8, 769),
    (9, 1025),
    (9, 1537),
    (10, 2049),
    (10, 3073),
    (11, 4097),
    (11, 6145),
    (12, 8193),
    (12, 12289),
    (13, 16385),
    (13, 24577),
];

/// Transmission order of code-length-code lengths (RFC 1951 §3.2.7).
const CL_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

const EOB: usize = 256;

/// `LEN_TO_CODE[len - 3]` = `(code, extra_bits, base)` — O(1) lookup for
/// every representable match length, replacing the per-token scan.
const LEN_TO_CODE: [(u16, u8, u16); 256] = {
    let mut t = [(0u16, 0u8, 0u16); 256];
    let mut i = 0;
    while i < 256 {
        let len = (i + 3) as u16;
        let mut j = LENGTH_CODES.len() - 1;
        loop {
            let (code, extra, base) = LENGTH_CODES[j];
            if len >= base {
                t[i] = (code, extra, base);
                break;
            }
            j -= 1;
        }
        i += 1;
    }
    t
};

/// zlib-style two-level distance bucket: `d <= 256` indexes the first
/// half directly; above that, code boundaries are multiples of 128, so
/// `(d - 1) >> 7` picks the bucket.
const DIST_BUCKET: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut i = 0;
    while i < 512 {
        let d = if i < 256 {
            (i + 1) as u16
        } else {
            // Any distance in the bucket maps to the same code; use the
            // largest (capped at the 32 KiB window) so the scan below
            // lands on it.
            let hi = ((i - 256) << 7) as u32 + 128;
            if hi > 32768 {
                32768u16
            } else {
                hi as u16
            }
        };
        let mut j = DIST_CODES.len() - 1;
        loop {
            let (_, base) = DIST_CODES[j];
            if d >= base {
                t[i] = j as u8;
                break;
            }
            j -= 1;
        }
        i += 1;
    }
    t
};

#[inline]
fn length_to_code(len: u16) -> (u16, u8, u16) {
    let (code, extra, base) = LEN_TO_CODE[(len - 3) as usize];
    (code, extra, len - base)
}

#[inline]
fn dist_to_code(dist: u16) -> (u16, u8, u16) {
    let code = if dist <= 256 {
        DIST_BUCKET[(dist - 1) as usize]
    } else {
        DIST_BUCKET[256 + ((dist as usize - 1) >> 7)]
    } as usize;
    let (extra, base) = DIST_CODES[code];
    (code as u16, extra, dist - base)
}

fn fixed_lit_lengths() -> Vec<u32> {
    let mut l = vec![0u32; 288];
    l[0..144].fill(8);
    l[144..256].fill(9);
    l[256..280].fill(7);
    l[280..288].fill(8);
    l
}

fn fixed_dist_lengths() -> Vec<u32> {
    vec![5u32; 32]
}

/// Compress `data` into a raw DEFLATE stream.
pub fn deflate(data: &[u8]) -> Vec<u8> {
    let tokens = lz77::tokenize(data);
    let mut w = BitWriter::new();
    emit_block(&mut w, data, &tokens, true);
    w.finish()
}

/// Histogram of literal/length and distance code usage for a token stream.
fn token_freqs(tokens: &[Token]) -> (Vec<u32>, Vec<u32>) {
    let mut lit = vec![0u32; 286];
    let mut dist = vec![0u32; 30];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit[b as usize] += 1,
            Token::Match { len, dist: d } => {
                lit[length_to_code(len).0 as usize] += 1;
                dist[dist_to_code(d).0 as usize] += 1;
            }
        }
    }
    lit[EOB] += 1;
    (lit, dist)
}

/// Cost in bits of emitting a token stream with the given histograms
/// under the given code lengths. Pure arithmetic over the histograms —
/// no second pass over the tokens. (The EOB symbol is already counted in
/// `lit_f` by [`token_freqs`].)
fn cost_from_freqs(lit_f: &[u32], dist_f: &[u32], lit_len: &[u32], dist_len: &[u32]) -> u64 {
    let mut bits = 0u64;
    for (&f, &l) in lit_f.iter().zip(lit_len) {
        bits += f as u64 * l as u64;
    }
    for (k, &(_, extra, _)) in LENGTH_CODES.iter().enumerate() {
        bits += lit_f[257 + k] as u64 * extra as u64;
    }
    for (c, &(extra, _)) in DIST_CODES.iter().enumerate() {
        bits += dist_f[c] as u64 * (dist_len[c] as u64 + extra as u64);
    }
    bits
}

/// Code-length alphabet symbols after run-length encoding.
enum ClSym {
    /// Emit a literal code length 0–15.
    Len(u32),
    /// Code 16: repeat previous length, 3–6 times (2 extra bits).
    Rep(u32),
    /// Code 17: run of zeros, 3–10 (3 extra bits).
    Zeros(u32),
    /// Code 18: run of zeros, 11–138 (7 extra bits).
    ZerosLong(u32),
}

fn rle_code_lengths(all: &[u32]) -> Vec<ClSym> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < all.len() {
        let v = all[i];
        let mut run = 1;
        while i + run < all.len() && all[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                out.push(ClSym::ZerosLong(take as u32));
                left -= take;
            }
            if left >= 3 {
                out.push(ClSym::Zeros(left as u32));
                left = 0;
            }
            for _ in 0..left {
                out.push(ClSym::Len(0));
            }
        } else {
            out.push(ClSym::Len(v));
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                out.push(ClSym::Rep(take as u32));
                left -= take;
            }
            for _ in 0..left {
                out.push(ClSym::Len(v));
            }
        }
        i += run;
    }
    out
}

fn emit_tokens(w: &mut BitWriter, tokens: &[Token], lit: &[(u32, u32)], dist: &[(u32, u32)]) {
    // Reverse each code's bit order once per block instead of once per
    // emitted symbol (DEFLATE transmits Huffman codes MSB-first inside
    // the LSB-first packing); the token loop then uses plain write_bits.
    let rev = |codes: &[(u32, u32)]| -> Vec<(u32, u32)> {
        codes
            .iter()
            .map(|&(c, l)| (crate::bitio::reverse_bits(c, l), l))
            .collect()
    };
    let lit = rev(lit);
    let dist = rev(dist);
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                let (c, l) = lit[b as usize];
                w.write_bits(c, l);
            }
            Token::Match { len, dist: d } => {
                let (lc, le, lx) = length_to_code(len);
                let (c, l) = lit[lc as usize];
                w.write_bits(c, l);
                if le > 0 {
                    w.write_bits(lx as u32, le as u32);
                }
                let (dc, de, dx) = dist_to_code(d);
                let (c, l) = dist[dc as usize];
                w.write_bits(c, l);
                if de > 0 {
                    w.write_bits(dx as u32, de as u32);
                }
            }
        }
    }
    let (c, l) = lit[EOB];
    w.write_bits(c, l);
}

fn emit_block(w: &mut BitWriter, data: &[u8], tokens: &[Token], bfinal: bool) {
    let (lit_f, dist_f) = token_freqs(tokens);
    let mut lit_len = build_lengths(&lit_f, 15);
    let mut dist_len = build_lengths(&dist_f, 15);
    // A block with no matches still must transmit a (possibly incomplete)
    // distance code; one 1-bit code is the convention.
    if dist_len.iter().all(|&l| l == 0) {
        dist_len[0] = 1;
    }
    lit_len.resize(286, 0);
    dist_len.resize(30, 0);

    // Dynamic header cost.
    let hlit = (257..=286)
        .rev()
        .find(|&n| n == 257 || lit_len[n - 1] > 0)
        .unwrap_or(257);
    let hdist = (1..=30)
        .rev()
        .find(|&n| n == 1 || dist_len[n - 1] > 0)
        .unwrap_or(1);
    let mut combined: Vec<u32> = Vec::with_capacity(hlit + hdist);
    combined.extend_from_slice(&lit_len[..hlit]);
    combined.extend_from_slice(&dist_len[..hdist]);
    let cl_syms = rle_code_lengths(&combined);
    let mut cl_freq = vec![0u32; 19];
    for s in &cl_syms {
        match s {
            ClSym::Len(v) => cl_freq[*v as usize] += 1,
            ClSym::Rep(_) => cl_freq[16] += 1,
            ClSym::Zeros(_) => cl_freq[17] += 1,
            ClSym::ZerosLong(_) => cl_freq[18] += 1,
        }
    }
    let cl_len = build_lengths(&cl_freq, 7);
    let hclen = (4..=19)
        .rev()
        .find(|&n| n == 4 || cl_len[CL_ORDER[n - 1]] > 0)
        .unwrap_or(4);
    let mut dyn_header_bits = 5 + 5 + 4 + 3 * hclen as u64;
    for s in &cl_syms {
        dyn_header_bits += match s {
            ClSym::Len(v) => cl_len[*v as usize] as u64,
            ClSym::Rep(_) => cl_len[16] as u64 + 2,
            ClSym::Zeros(_) => cl_len[17] as u64 + 3,
            ClSym::ZerosLong(_) => cl_len[18] as u64 + 7,
        };
    }
    let dyn_bits = dyn_header_bits + cost_from_freqs(&lit_f, &dist_f, &lit_len, &dist_len);

    let fixed_lit = fixed_lit_lengths();
    let fixed_dist = fixed_dist_lengths();
    let fixed_bits = cost_from_freqs(&lit_f, &dist_f, &fixed_lit, &fixed_dist);

    // Stored: 3-bit header + pad + per-chunk 4-byte LEN/NLEN + raw bytes.
    let chunks = data.len().div_ceil(65_535).max(1);
    let stored_bits = (chunks as u64) * (3 + 32) + 8 + (data.len() as u64) * 8;

    if stored_bits < dyn_bits.min(fixed_bits) + 3 {
        emit_stored(w, data, bfinal);
    } else if fixed_bits <= dyn_bits {
        w.write_bits(bfinal as u32, 1);
        w.write_bits(1, 2); // fixed Huffman
        emit_tokens(
            w,
            tokens,
            &canonical_codes(&fixed_lit),
            &canonical_codes(&fixed_dist),
        );
    } else {
        w.write_bits(bfinal as u32, 1);
        w.write_bits(2, 2); // dynamic Huffman
        w.write_bits((hlit - 257) as u32, 5);
        w.write_bits((hdist - 1) as u32, 5);
        w.write_bits((hclen - 4) as u32, 4);
        for &idx in CL_ORDER.iter().take(hclen) {
            w.write_bits(cl_len[idx], 3);
        }
        let cl_codes = canonical_codes(&cl_len);
        for s in &cl_syms {
            match s {
                ClSym::Len(v) => {
                    let (c, l) = cl_codes[*v as usize];
                    w.write_code(c, l);
                }
                ClSym::Rep(n) => {
                    let (c, l) = cl_codes[16];
                    w.write_code(c, l);
                    w.write_bits(n - 3, 2);
                }
                ClSym::Zeros(n) => {
                    let (c, l) = cl_codes[17];
                    w.write_code(c, l);
                    w.write_bits(n - 3, 3);
                }
                ClSym::ZerosLong(n) => {
                    let (c, l) = cl_codes[18];
                    w.write_code(c, l);
                    w.write_bits(n - 11, 7);
                }
            }
        }
        emit_tokens(
            w,
            tokens,
            &canonical_codes(&lit_len),
            &canonical_codes(&dist_len),
        );
    }
}

fn emit_stored(w: &mut BitWriter, data: &[u8], bfinal: bool) {
    let mut chunks: Vec<&[u8]> = data.chunks(65_535).collect();
    if chunks.is_empty() {
        chunks.push(&[]);
    }
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.iter().enumerate() {
        w.write_bits((bfinal && i == last) as u32, 1);
        w.write_bits(0, 2);
        w.align_byte();
        let len = chunk.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(chunk);
    }
}

/// Decoder errors.
#[derive(Debug, PartialEq, Eq)]
pub enum InflateError {
    UnexpectedEof,
    /// LEN/NLEN mismatch in a stored block.
    StoredLenMismatch,
    /// Reserved block type 3.
    BadBlockType,
    /// Corrupt Huffman table.
    BadTable,
    /// Symbol or distance out of range.
    BadSymbol,
    /// Back-reference before start of output.
    BadDistance,
}

impl From<crate::bitio::BitError> for InflateError {
    fn from(_: crate::bitio::BitError) -> Self {
        InflateError::UnexpectedEof
    }
}

impl From<HuffError> for InflateError {
    fn from(e: HuffError) -> Self {
        match e {
            HuffError::Eof => InflateError::UnexpectedEof,
            HuffError::InvalidTable => InflateError::BadTable,
            HuffError::InvalidCode => InflateError::BadSymbol,
        }
    }
}

/// Decompress a raw DEFLATE stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let r = &mut BitReader::new(data);
    let mut out: Vec<u8> = Vec::new();
    loop {
        let bfinal = r.read_bit()?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => {
                r.align_byte();
                let len = r.read_bits(16)? as usize;
                let nlen = r.read_bits(16)? as usize;
                if len != (!nlen & 0xFFFF) {
                    return Err(InflateError::StoredLenMismatch);
                }
                let bytes = r.read_bytes(len)?;
                out.extend_from_slice(&bytes);
            }
            1 => {
                let lit = HuffmanDecoder::new(&fixed_lit_lengths())?;
                let dist = HuffmanDecoder::new(&fixed_dist_lengths())?;
                inflate_huffman_block(r, &lit, Some(&dist), &mut out)?;
            }
            2 => {
                let hlit = r.read_bits(5)? as usize + 257;
                let hdist = r.read_bits(5)? as usize + 1;
                let hclen = r.read_bits(4)? as usize + 4;
                let mut cl_len = vec![0u32; 19];
                for &idx in CL_ORDER.iter().take(hclen) {
                    cl_len[idx] = r.read_bits(3)?;
                }
                let cl_dec = HuffmanDecoder::new(&cl_len)?;
                let mut lengths = Vec::with_capacity(hlit + hdist);
                while lengths.len() < hlit + hdist {
                    let sym = cl_dec.decode(r)?;
                    match sym {
                        0..=15 => lengths.push(sym),
                        16 => {
                            let &prev = lengths.last().ok_or(InflateError::BadSymbol)?;
                            let n = r.read_bits(2)? + 3;
                            for _ in 0..n {
                                lengths.push(prev);
                            }
                        }
                        17 => {
                            let n = r.read_bits(3)? + 3;
                            lengths.resize(lengths.len() + n as usize, 0);
                        }
                        18 => {
                            let n = r.read_bits(7)? + 11;
                            lengths.resize(lengths.len() + n as usize, 0);
                        }
                        _ => return Err(InflateError::BadSymbol),
                    }
                }
                if lengths.len() != hlit + hdist {
                    return Err(InflateError::BadTable);
                }
                let lit_lengths = &lengths[..hlit];
                let dist_lengths = &lengths[hlit..];
                let lit = HuffmanDecoder::new(lit_lengths)?;
                let dist = if dist_lengths.iter().any(|&l| l > 0) {
                    Some(HuffmanDecoder::new(dist_lengths)?)
                } else {
                    None
                };
                inflate_huffman_block(r, &lit, dist.as_ref(), &mut out)?;
            }
            _ => return Err(InflateError::BadBlockType),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn inflate_huffman_block(
    r: &mut BitReader<'_>,
    lit: &HuffmanDecoder,
    dist: Option<&HuffmanDecoder>,
    out: &mut Vec<u8>,
) -> Result<(), InflateError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let (_, extra, base) = LENGTH_CODES[(sym - 257) as usize];
                let len = base as usize + r.read_bits(extra as u32)? as usize;
                let dist_dec = dist.ok_or(InflateError::BadSymbol)?;
                let dsym = dist_dec.decode(r)?;
                if dsym >= 30 {
                    return Err(InflateError::BadSymbol);
                }
                let (dextra, dbase) = DIST_CODES[dsym as usize];
                let d = dbase as usize + r.read_bits(dextra as u32)? as usize;
                if d > out.len() {
                    return Err(InflateError::BadDistance);
                }
                crate::lz77::copy_back_reference(out, d, len);
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let compressed = deflate(data);
        let back = inflate(&compressed).expect("inflate");
        assert_eq!(back, data, "roundtrip mismatch for {} bytes", data.len());
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(b"");
    }

    #[test]
    fn roundtrip_small_strings() {
        roundtrip(b"a");
        roundtrip(b"hello world");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaa");
    }

    #[test]
    fn roundtrip_text() {
        let text = "Infrastructure-as-a-service Clouds concurrently accommodate \
                    diverse sets of user requests, requiring an efficient strategy \
                    for storing and retrieving virtual machine images at scale. "
            .repeat(50);
        roundtrip(text.as_bytes());
        // Text must actually compress.
        let c = deflate(text.as_bytes());
        assert!(c.len() < text.len() / 3, "{} -> {}", text.len(), c.len());
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = xpl_util::SplitMix64::new(7);
        for size in [1usize, 100, 4096, 70_000, 200_000] {
            let mut data = vec![0u8; size];
            rng.fill_bytes(&mut data);
            roundtrip(&data);
        }
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        let mut rng = xpl_util::SplitMix64::new(11);
        let mut data = vec![0u8; 100_000];
        rng.fill_bytes(&mut data);
        let c = deflate(&data);
        // Stored framing overhead is ~5 bytes per 64 KiB chunk.
        assert!(c.len() <= data.len() + 32, "{} -> {}", data.len(), c.len());
    }

    #[test]
    fn roundtrip_structured_binary() {
        // Repeating 16-byte records with a couple of varying fields —
        // the qcow2-cluster-like case the Gzip baseline sees.
        let mut data = Vec::new();
        for i in 0u32..5000 {
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
            data.extend_from_slice(&(i % 17).to_le_bytes());
            data.extend_from_slice(&[0u8; 4]);
        }
        roundtrip(&data);
        let c = deflate(&data);
        assert!(c.len() < data.len() / 4);
    }

    #[test]
    fn inflate_rejects_garbage() {
        // Reserved block type.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(3, 2);
        let bytes = w.finish();
        assert_eq!(inflate(&bytes), Err(InflateError::BadBlockType));
    }

    #[test]
    fn inflate_rejects_truncated() {
        let c = deflate(b"hello world hello world hello world");
        for cut in 1..c.len().min(8) {
            let r = inflate(&c[..c.len() - cut]);
            assert!(r.is_err(), "truncation by {cut} must fail");
        }
    }

    #[test]
    fn inflate_known_stored_block() {
        // Hand-assembled stored block: BFINAL=1, BTYPE=00, LEN=3, "abc".
        let bytes = [0x01, 0x03, 0x00, 0xFC, 0xFF, b'a', b'b', b'c'];
        assert_eq!(inflate(&bytes).unwrap(), b"abc");
    }

    #[test]
    fn inflate_known_fixed_block() {
        // zlib-produced fixed-Huffman stream for "abcabcabcabc" (raw
        // deflate, no zlib wrapper): verified against `python zlib`.
        let bytes = [0x4b, 0x4c, 0x4a, 0x4e, 0x84, 0x21, 0x00];
        let out = inflate(&bytes);
        // Accept either success matching the plaintext, or prove our own
        // encoder agrees with the reference on the same input.
        match out {
            Ok(v) => assert_eq!(v, b"abcabcabcabc"),
            Err(e) => panic!("reference fixed-huffman stream failed: {e:?}"),
        }
    }

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_to_code(3), (257, 0, 0));
        assert_eq!(length_to_code(10), (264, 0, 0));
        assert_eq!(length_to_code(11), (265, 1, 0));
        assert_eq!(length_to_code(12), (265, 1, 1));
        assert_eq!(length_to_code(257), (284, 5, 30));
        assert_eq!(length_to_code(258), (285, 0, 0));
    }

    #[test]
    fn dist_code_boundaries() {
        assert_eq!(dist_to_code(1), (0, 0, 0));
        assert_eq!(dist_to_code(4), (3, 0, 0));
        assert_eq!(dist_to_code(5), (4, 1, 0));
        assert_eq!(dist_to_code(24577), (29, 13, 0));
        assert_eq!(dist_to_code(32768), (29, 13, 8191));
    }

    #[test]
    fn all_match_lengths_roundtrip() {
        // Exercise every representable match length at least once by
        // constructing highly repetitive inputs of varied period.
        for period in [1usize, 2, 3, 7, 13] {
            let data: Vec<u8> = (0..2000).map(|i| (i % period) as u8).collect();
            roundtrip(&data);
        }
    }
}
