//! Canonical Huffman coding for DEFLATE.
//!
//! * `build_lengths` turns symbol frequencies into length-limited code
//!   lengths (≤15 bits, as DEFLATE requires) using frequency-halving
//!   rebuilds — simple, and provably convergent because equal frequencies
//!   produce a balanced tree of depth ⌈log₂ n⌉ ≤ 9 for n ≤ 288.
//! * `canonical_codes` assigns the RFC 1951 canonical code values.
//! * `HuffmanDecoder` decodes canonical codes bit by bit using the
//!   counts/offsets method (fast enough for our stream sizes and trivially
//!   correct).

use crate::bitio::{BitError, BitReader};

/// Build length-limited Huffman code lengths from frequencies.
///
/// Symbols with zero frequency get length 0 (absent). At least one symbol
/// must have nonzero frequency. If only one symbol is present it gets
/// length 1 (DEFLATE requires complete-enough codes; a 1-bit code for a
/// single symbol is the conventional choice).
pub(crate) fn build_lengths(freqs: &[u32], max_len: u32) -> Vec<u32> {
    assert!(!freqs.is_empty());
    let mut f: Vec<u64> = freqs.iter().map(|&x| x as u64).collect();
    loop {
        let lengths = huffman_lengths_once(&f);
        let max = lengths.iter().copied().max().unwrap_or(0);
        if max <= max_len {
            return lengths;
        }
        // Halve (rounding up to keep nonzero) and retry; flattens the
        // frequency distribution, shrinking maximum depth.
        for x in f.iter_mut() {
            if *x > 0 {
                *x = (*x).div_ceil(2);
            }
        }
    }
}

/// One unconstrained Huffman construction returning code lengths.
fn huffman_lengths_once(freqs: &[u64]) -> Vec<u32> {
    #[derive(Clone)]
    struct Node {
        freq: u64,
        // Child indexes into the node arena, or symbol for leaves.
        kind: NodeKind,
    }
    #[derive(Clone)]
    enum NodeKind {
        Leaf(usize),
        Internal(usize, usize),
    }

    let live: Vec<usize> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, _)| i)
        .collect();
    let mut lengths = vec![0u32; freqs.len()];
    match live.len() {
        0 => return lengths,
        1 => {
            lengths[live[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    let mut arena: Vec<Node> = live
        .iter()
        .map(|&s| Node {
            freq: freqs[s],
            kind: NodeKind::Leaf(s),
        })
        .collect();

    // Min-heap of (freq, arena index); tie-break on index for determinism.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = arena
        .iter()
        .enumerate()
        .map(|(i, n)| Reverse((n.freq, i)))
        .collect();

    while heap.len() > 1 {
        let Reverse((fa, a)) = heap.pop().unwrap();
        let Reverse((fb, b)) = heap.pop().unwrap();
        let idx = arena.len();
        arena.push(Node {
            freq: fa + fb,
            kind: NodeKind::Internal(a, b),
        });
        heap.push(Reverse((fa + fb, idx)));
    }

    // Depth-first walk assigning depths to leaves.
    let root = heap.pop().unwrap().0 .1;
    let mut stack = vec![(root, 0u32)];
    while let Some((idx, depth)) = stack.pop() {
        match arena[idx].kind {
            NodeKind::Leaf(sym) => lengths[sym] = depth.max(1),
            NodeKind::Internal(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }
    lengths
}

/// Assign canonical (RFC 1951 §3.2.2) code values for the given lengths.
/// Returns `(code, length)` pairs; absent symbols have length 0.
pub(crate) fn canonical_codes(lengths: &[u32]) -> Vec<(u32, u32)> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max_len + 1) as usize];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max_len + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max_len {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                (0, 0)
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                (c, l)
            }
        })
        .collect()
}

/// Verify the Kraft inequality holds with equality margin (i.e. the code is
/// not oversubscribed). Used by the decoder to reject corrupt tables.
pub(crate) fn kraft_ok(lengths: &[u32]) -> bool {
    let mut sum = 0u64;
    const ONE: u64 = 1 << 32;
    for &l in lengths {
        if l > 0 {
            if l > 32 {
                return false;
            }
            sum += ONE >> l;
            if sum > ONE {
                return false;
            }
        }
    }
    true
}

/// Canonical Huffman decoder (counts/offsets method).
pub(crate) struct HuffmanDecoder {
    /// count[len] = number of codes with that length.
    count: Vec<u32>,
    /// Symbols sorted by (length, symbol order).
    symbols: Vec<u32>,
    max_len: u32,
}

/// Decoder construction / decode errors.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum HuffError {
    /// Code table oversubscribed or empty.
    InvalidTable,
    /// Bit pattern doesn't map to any symbol.
    InvalidCode,
    /// Input exhausted mid-code.
    Eof,
}

impl From<BitError> for HuffError {
    fn from(_: BitError) -> Self {
        HuffError::Eof
    }
}

impl HuffmanDecoder {
    pub fn new(lengths: &[u32]) -> Result<Self, HuffError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 || !kraft_ok(lengths) {
            return Err(HuffError::InvalidTable);
        }
        let mut count = vec![0u32; (max_len + 1) as usize];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // offsets[len] = index of first symbol of that length in `symbols`.
        let mut offsets = vec![0u32; (max_len + 2) as usize];
        for l in 1..=max_len {
            offsets[(l + 1) as usize] = offsets[l as usize] + count[l as usize];
        }
        let mut symbols = vec![0u32; lengths.iter().filter(|&&l| l > 0).count()];
        let mut next = offsets.clone();
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[next[l as usize] as usize] = sym as u32;
                next[l as usize] += 1;
            }
        }
        Ok(HuffmanDecoder {
            count,
            symbols,
            max_len,
        })
    }

    /// Decode one symbol from the reader.
    pub(crate) fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffError> {
        let mut code: u32 = 0;
        let mut first: u32 = 0;
        let mut index: u32 = 0;
        for len in 1..=self.max_len {
            code |= r.read_bit()?;
            let cnt = self.count[len as usize];
            if code < first + cnt {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += cnt;
            first = (first + cnt) << 1;
            code <<= 1;
        }
        Err(HuffError::InvalidCode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    #[test]
    fn lengths_respect_limit() {
        // Pathological exponential frequencies force long codes; the
        // limiter must cap them at the requested bound.
        let freqs: Vec<u32> = (0..40).map(|i| 1u32 << (i % 30)).collect();
        let lengths = build_lengths(&freqs, 15);
        assert!(lengths.iter().all(|&l| l <= 15));
        assert!(kraft_ok(&lengths));
        assert!(lengths.iter().any(|&l| l > 0));
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let mut freqs = vec![0u32; 10];
        freqs[3] = 7;
        let lengths = build_lengths(&freqs, 15);
        assert_eq!(lengths[3], 1);
        assert!(lengths.iter().enumerate().all(|(i, &l)| i == 3 || l == 0));
    }

    #[test]
    fn canonical_assignment_matches_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) yield codes
        // 010,011,100,101,110,00,1110,1111.
        let lengths = [3, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        let expect = [0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111];
        for (i, &(c, l)) in codes.iter().enumerate() {
            assert_eq!(l, lengths[i]);
            assert_eq!(c, expect[i], "symbol {i}");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let freqs = [5u32, 9, 12, 13, 16, 45, 0, 1];
        let lengths = build_lengths(&freqs, 15);
        let codes = canonical_codes(&lengths);
        let dec = HuffmanDecoder::new(&lengths).unwrap();

        let msg: Vec<u32> = vec![5, 0, 2, 4, 5, 5, 3, 7, 1, 5];
        let mut w = BitWriter::new();
        for &s in &msg {
            let (c, l) = codes[s as usize];
            assert!(l > 0, "symbol {s} must have a code");
            w.write_code(c, l);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn decoder_rejects_oversubscribed() {
        // Three 1-bit codes: impossible.
        assert_eq!(
            HuffmanDecoder::new(&[1, 1, 1]).err(),
            Some(HuffError::InvalidTable)
        );
    }

    #[test]
    fn kraft_accepts_exact_and_under() {
        assert!(kraft_ok(&[1, 1]));
        assert!(kraft_ok(&[1, 2, 2]));
        assert!(kraft_ok(&[2, 2, 2])); // undersubscribed is fine
        assert!(!kraft_ok(&[1, 1, 2]));
    }

    #[test]
    fn weighted_lengths_shorter_for_frequent() {
        let freqs = [100u32, 1, 1, 1, 1, 1, 1, 1];
        let lengths = build_lengths(&freqs, 15);
        let min = *lengths.iter().filter(|&&l| l > 0).min().unwrap();
        assert_eq!(lengths[0], min, "most frequent symbol gets shortest code");
    }
}
