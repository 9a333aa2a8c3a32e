//! An LZ4-class byte-oriented fast codec.
//!
//! DEFLATE buys ratio with an entropy stage that costs a bit-oriented
//! decode loop; this codec skips entropy coding entirely. The stream is
//! a sequence of *sequences*: a token byte whose high nibble is the
//! literal-run length and whose low nibble is the match length minus
//! `MIN_MATCH`, each nibble saturating at 15 with `0xFF`-extension
//! bytes, then the literals, then a 2-byte little-endian match offset:
//!
//! ```text
//! ┌────────────┬─────────────┬──────────┬─────────────┬─────────────┐
//! │ token      │ lit-len ext │ literals │ offset      │ mlen ext    │
//! │ LLLL MMMM  │ 0xFF…, last │ L bytes  │ u16 LE ≥ 1  │ 0xFF…, last │
//! │ 1 byte     │ byte < 255  │          │ 2 bytes     │ byte < 255  │
//! └────────────┴─────────────┴──────────┴─────────────┴─────────────┘
//! ```
//!
//! The final sequence is literals-only (no offset, no match), so a
//! decoder always terminates on a literal run. Matches are found by a
//! greedy single-probe hash table over 4-byte windows — one lookup per
//! position, no chains, no lazy evaluation — which is what makes the
//! encoder byte-oriented and fast; the decoder is two `memcpy`-shaped
//! loops. Decompression therefore runs several times faster than
//! inflate, at a worse ratio: exactly the hot-tier trade.
//!
//! Corrupt or truncated input surfaces as a typed [`Lz4Error`], never a
//! panic, and the decoder's output is capped by the caller-provided
//! bound so hostile lengths cannot force huge allocations.

/// Matches shorter than this are not worth a 3-byte sequence overhead;
/// the low token nibble encodes `match_len - MIN_MATCH`.
pub(crate) const MIN_MATCH: usize = 4;

/// Match offsets are `u16`, so the sliding window is 64 KiB - 1.
const MAX_OFFSET: usize = u16::MAX as usize;

/// The last bytes of the input are always emitted as literals: a match
/// never extends into the final 5 bytes, and the match search stops 12
/// bytes short of the end (the classic LZ4 end-condition, which lets
/// the copy loops run without per-byte bounds checks near the tail).
const LAST_LITERALS: usize = 5;
const MATCH_SEARCH_LIMIT: usize = 12;

/// 2^14-entry single-probe hash table: 64 KiB of scratch per call.
const HASH_BITS: u32 = 14;

/// Upper bound on how much an LZ4-class stream can expand when decoded:
/// a worst-case sequence of ~1 + k bytes (token + extension bytes, the
/// offset amortizing away) emits at most ~19 + 255·k match bytes, so
/// the ratio approaches 255 from below. An index entry claiming more
/// than this per compressed byte is corrupt by construction.
pub(crate) const MAX_LZ4_EXPANSION: u64 = 256;

/// Decode failures. Every malformed input is a value of this type.
#[derive(Debug, PartialEq, Eq)]
pub enum Lz4Error {
    /// The stream ended mid-token, mid-literal-run, or mid-offset.
    Truncated,
    /// A match offset of zero, or one reaching before the output start.
    BadOffset { at: usize, offset: usize },
    /// Decoded output would exceed the caller's bound.
    TooLong { cap: u64 },
}

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz4Error::Truncated => write!(f, "truncated lz4 stream"),
            Lz4Error::BadOffset { at, offset } => {
                write!(
                    f,
                    "lz4 offset {offset} at input byte {at} reaches before the output start"
                )
            }
            Lz4Error::TooLong { cap } => {
                write!(f, "lz4 stream decodes past the {cap}-byte bound")
            }
        }
    }
}

impl std::error::Error for Lz4Error {}

#[inline(always)]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Append a length in the token-nibble + `0xFF`-extension encoding.
#[inline]
fn push_ext_len(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(0xFF);
        len -= 255;
    }
    out.push(len as u8);
}

/// Emit one sequence: `literals`, then (unless final) a match of
/// `match_len` bytes at `offset`.
fn push_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15);
    let (match_nibble, tail) = match m {
        Some((_, match_len)) => ((match_len - MIN_MATCH).min(15), m),
        None => (0, None),
    };
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        push_ext_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, match_len)) = tail {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_nibble == 15 {
            push_ext_len(out, match_len - MIN_MATCH - 15);
        }
    }
}

/// How far the match at (`pos`, `cand`) extends, comparing 8 bytes per
/// step; the match may run up to `limit` (exclusive).
#[inline]
fn match_length(src: &[u8], cand: usize, pos: usize, limit: usize) -> usize {
    let mut len = 0;
    while pos + len + 8 <= limit {
        let a = u64::from_le_bytes(src[cand + len..cand + len + 8].try_into().unwrap());
        let b = u64::from_le_bytes(src[pos + len..pos + len + 8].try_into().unwrap());
        let x = a ^ b;
        if x != 0 {
            return len + (x.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while pos + len < limit && src[cand + len] == src[pos + len] {
        len += 1;
    }
    len
}

/// Compress `src` with the greedy single-probe matcher. Deterministic:
/// the same input always yields the same stream.
pub fn lz4_compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    if src.len() < MATCH_SEARCH_LIMIT + MIN_MATCH {
        push_sequence(&mut out, src, None);
        return out;
    }
    let mut table = vec![u32::MAX; 1 << HASH_BITS];
    let search_end = src.len() - MATCH_SEARCH_LIMIT;
    let match_end = src.len() - LAST_LITERALS;
    let mut anchor = 0usize;
    let mut pos = 0usize;
    while pos <= search_end {
        let h = hash4(&src[pos..]);
        let cand = table[h] as usize;
        table[h] = pos as u32;
        if cand != u32::MAX as usize
            && pos - cand <= MAX_OFFSET
            && src[cand..cand + 4] == src[pos..pos + 4]
        {
            // Extend backwards over bytes the literal run would repeat.
            let mut start = pos;
            let mut m = cand;
            while start > anchor && m > 0 && src[m - 1] == src[start - 1] {
                start -= 1;
                m -= 1;
            }
            let len = MIN_MATCH + match_length(src, m + MIN_MATCH, start + MIN_MATCH, match_end);
            push_sequence(&mut out, &src[anchor..start], Some((start - m, len)));
            pos = start + len;
            anchor = pos;
            continue;
        }
        pos += 1;
    }
    push_sequence(&mut out, &src[anchor..], None);
    out
}

/// Decompress an [`lz4_compress`] stream. `cap` bounds the output: a
/// stream decoding past it is a typed error, and the initial allocation
/// never exceeds it — the caller (the blocked container, which knows
/// each block's exact uncompressed size) supplies a trustworthy bound.
pub fn lz4_decompress(src: &[u8], cap: u64) -> Result<Vec<u8>, Lz4Error> {
    let cap_usize = cap.min(isize::MAX as u64) as usize;
    let mut out: Vec<u8> = Vec::with_capacity(cap_usize);
    if src.is_empty() {
        return Ok(out);
    }
    let mut pos = 0usize;
    loop {
        let token = src[pos];
        pos += 1;
        // Literal run.
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            loop {
                let b = *src.get(pos).ok_or(Lz4Error::Truncated)?;
                pos += 1;
                lit_len += b as usize;
                if b != 0xFF {
                    break;
                }
            }
        }
        if pos + lit_len > src.len() {
            return Err(Lz4Error::Truncated);
        }
        if out.len() + lit_len > cap_usize {
            return Err(Lz4Error::TooLong { cap });
        }
        out.extend_from_slice(&src[pos..pos + lit_len]);
        pos += lit_len;
        if pos == src.len() {
            return Ok(out); // final literals-only sequence
        }
        // Match.
        if pos + 2 > src.len() {
            return Err(Lz4Error::Truncated);
        }
        let offset = u16::from_le_bytes(src[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(Lz4Error::BadOffset {
                at: pos - 2,
                offset,
            });
        }
        let mut match_len = MIN_MATCH + (token & 0x0F) as usize;
        if token & 0x0F == 15 {
            loop {
                let b = *src.get(pos).ok_or(Lz4Error::Truncated)?;
                pos += 1;
                match_len += b as usize;
                if b != 0xFF {
                    break;
                }
            }
        }
        if out.len() + match_len > cap_usize {
            return Err(Lz4Error::TooLong { cap });
        }
        let start = out.len() - offset;
        if offset >= match_len {
            out.extend_from_within(start..start + match_len);
        } else {
            // Overlapping match: the span from `start` is a repeating
            // pattern of period `offset`; each copy doubles what is
            // available to copy from.
            let mut remaining = match_len;
            while remaining > 0 {
                let avail = (out.len() - start).min(remaining);
                out.extend_from_within(start..start + avail);
                remaining -= avail;
            }
        }
        if pos == src.len() {
            // A stream may validly end right after a match only if the
            // encoder emitted an empty final literal run — ours never
            // does, but the empty-run token `0x00` handles it above, so
            // ending here means the terminating sequence is missing.
            return Err(Lz4Error::Truncated);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        let mut rng = xpl_util::SplitMix64::new(seed);
        while out.len() < n {
            match rng.next_u64() % 4 {
                0 => out.extend_from_slice(b"/var/lib/dpkg/info/"),
                1 => out.extend_from_slice(&rng.next_u64().to_le_bytes()),
                2 => out.extend_from_slice(&[0u8; 23]),
                _ => out.extend_from_slice(b"package-version-1.2.3"),
            }
        }
        out.truncate(n);
        out
    }

    #[test]
    fn roundtrip_shapes() {
        for n in [0, 1, 2, 12, 13, 17, 100, 4096, 65535, 65536, 65537, 300_000] {
            let data = sample(n, 42);
            let c = lz4_compress(&data);
            assert_eq!(
                lz4_decompress(&c, n as u64).unwrap(),
                data,
                "n={n} failed round-trip"
            );
        }
    }

    #[test]
    fn compresses_redundant_input() {
        let data = vec![7u8; 100_000];
        let c = lz4_compress(&data);
        assert!(c.len() < data.len() / 50, "{} bytes", c.len());
        assert_eq!(lz4_decompress(&c, data.len() as u64).unwrap(), data);
    }

    #[test]
    fn incompressible_input_expands_boundedly() {
        let mut rng = xpl_util::SplitMix64::new(9);
        let data: Vec<u8> = (0..50_000).map(|_| rng.next_u64() as u8).collect();
        let c = lz4_compress(&data);
        assert!(c.len() < data.len() + data.len() / 128 + 32);
        assert_eq!(lz4_decompress(&c, data.len() as u64).unwrap(), data);
    }

    #[test]
    fn overlapping_matches_decode() {
        // Period-1 and period-3 runs force the overlapping-copy path.
        let mut data = b"abcabcabcabcabcabcabcabcabcabc".to_vec();
        data.extend(std::iter::repeat_n(b'z', 500));
        data.extend_from_slice(b"tail-literals");
        let c = lz4_compress(&data);
        assert_eq!(lz4_decompress(&c, data.len() as u64).unwrap(), data);
    }

    #[test]
    fn cap_bounds_output_and_allocation() {
        let data = vec![0u8; 100_000];
        let c = lz4_compress(&data);
        assert_eq!(
            lz4_decompress(&c, 99_999),
            Err(Lz4Error::TooLong { cap: 99_999 })
        );
        assert_eq!(lz4_decompress(&c, 100_000).unwrap(), data);
    }

    #[test]
    fn truncation_at_every_byte_is_typed_or_an_exact_prefix() {
        // A raw LZ4 stream has no trailer, so a cut landing exactly on
        // a sequence boundary decodes to a (correct) prefix — the
        // blocked container's per-block length + CRC checks are what
        // reject those (pinned in `blocked::tests`). Everything else
        // must be a typed error; nothing may panic.
        let data = sample(10_000, 3);
        let c = lz4_compress(&data);
        let mut short_decodes = 0usize;
        for cut in 0..c.len() {
            match lz4_decompress(&c[..cut], data.len() as u64) {
                Ok(got) => {
                    assert!(
                        data.starts_with(&got) && got.len() < data.len(),
                        "truncation to {cut} bytes decoded a non-prefix"
                    );
                    short_decodes += 1;
                }
                Err(
                    Lz4Error::Truncated | Lz4Error::BadOffset { .. } | Lz4Error::TooLong { .. },
                ) => {}
            }
        }
        assert!(short_decodes < c.len() / 4, "too many boundary decodes");
    }

    #[test]
    fn zero_and_hostile_offsets_are_typed() {
        // token: 1 literal + match, then a zero offset.
        let err = lz4_decompress(&[0x10, b'a', 0x00, 0x00], 100).unwrap_err();
        assert_eq!(err, Lz4Error::BadOffset { at: 2, offset: 0 });
        // Offset pointing before the start of the output.
        let err = lz4_decompress(&[0x10, b'a', 0x09, 0x00], 100).unwrap_err();
        assert_eq!(err, Lz4Error::BadOffset { at: 2, offset: 9 });
    }
}
