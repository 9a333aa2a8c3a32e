//! LZ77 tokenization with a hash-chain matcher (zlib-style, with one-step
//! lazy matching).
//!
//! Produces the token stream consumed by the DEFLATE block encoder:
//! literals, and `(length 3–258, distance 1–32768)` back-references.

pub(crate) const MIN_MATCH: usize = 3;
pub(crate) const MAX_MATCH: usize = 258;
pub(crate) const WINDOW_SIZE: usize = 32 * 1024;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Bound on chain walks per position — the compression/speed knob.
const MAX_CHAIN: usize = 96;
/// Stop searching when a match at least this long is found.
const GOOD_MATCH: usize = 64;

/// One LZ77 token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Token {
    Literal(u8),
    /// Back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        len: u16,
        dist: u16,
    },
}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, up to
/// `max_len`, comparing 8 bytes per step via `u64` loads. Returns the
/// index of the first mismatch — identical to a byte-at-a-time scan.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    // One bounds check per slice, then check-free 8-byte strides.
    let sa = &data[a..a + max_len];
    let sb = &data[b..b + max_len];
    let mut l = 0usize;
    let mut ca = sa.chunks_exact(8);
    let mut cb = sb.chunks_exact(8);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        let x = u64::from_le_bytes(xa.try_into().unwrap());
        let y = u64::from_le_bytes(xb.try_into().unwrap());
        let xor = x ^ y;
        if xor != 0 {
            // First differing byte = first differing little-endian octet.
            return l + (xor.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    for (&pa, &pb) in ca.remainder().iter().zip(cb.remainder()) {
        if pa != pb {
            break;
        }
        l += 1;
    }
    l
}

thread_local! {
    /// Reusable hash-chain scratch (`head` + `prev`, ~160 KiB): zeroing
    /// `head` per call is far cheaper than allocating both arrays, and
    /// per-thread storage keeps the pool's parallel `tokenize` calls
    /// independent.
    static SCRATCH: std::cell::RefCell<(Vec<u32>, Vec<u32>)> =
        std::cell::RefCell::new((vec![0u32; HASH_SIZE], vec![0u32; WINDOW_SIZE]));
}

/// Tokenize `data` into literals and matches.
pub(crate) fn tokenize(data: &[u8]) -> Vec<Token> {
    SCRATCH.with(|s| {
        let (head, prev) = &mut *s.borrow_mut();
        // `head` must start empty; `prev` needs no clearing — chains only
        // ever reach entries written during this call (via `head`).
        head.fill(0);
        tokenize_with(data, head, prev)
    })
}

fn tokenize_with(data: &[u8], head: &mut [u32], prev: &mut [u32]) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 3 + 16);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }

    // head[h] = most recent position with hash h (+1, 0 = none).
    // prev[i & (WINDOW-1)] = previous position with the same hash as i.
    // `h` is precomputed by the caller so a search + insert at the same
    // position hashes once.
    #[inline]
    fn insert(head: &mut [u32], prev: &mut [u32], h: usize, i: usize) {
        prev[i & (WINDOW_SIZE - 1)] = head[h];
        head[h] = (i + 1) as u32;
    }

    /// Longest match for position `i` against candidates on its chain.
    fn best_match(
        head: &[u32],
        prev: &[u32],
        data: &[u8],
        h: usize,
        i: usize,
        min_beat: usize,
    ) -> Option<(usize, usize)> {
        let n = data.len();
        if i + MIN_MATCH > n {
            return None;
        }
        let max_len = (n - i).min(MAX_MATCH);
        if max_len < MIN_MATCH {
            return None;
        }
        let mut cand = head[h];
        let mut best_len = min_beat.max(MIN_MATCH - 1);
        let mut best_dist = 0usize;
        // Quick-reject byte (the byte just past the current best match),
        // loaded once per improvement instead of once per candidate.
        let scan_end_ok = i + best_len < n;
        let mut scan_end = if scan_end_ok { data[i + best_len] } else { 0 };
        let window_floor = i.saturating_sub(WINDOW_SIZE);
        let mut chain = 0;
        while cand != 0 && chain < MAX_CHAIN {
            let c = (cand - 1) as usize;
            if c < window_floor || c >= i {
                break;
            }
            if scan_end_ok && data[c + best_len] == scan_end {
                let l = match_len(data, c, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l >= GOOD_MATCH || l == max_len {
                        break;
                    }
                    // l < max_len ≤ n - i keeps the quick-reject byte in
                    // bounds.
                    scan_end = data[i + best_len];
                }
            }
            cand = prev[c & (WINDOW_SIZE - 1)];
            chain += 1;
        }
        if best_dist > 0 && best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    }

    let mut i = 0usize;
    while i < n {
        if i + MIN_MATCH > n {
            tokens.push(Token::Literal(data[i]));
            i += 1;
            continue;
        }
        let h = hash3(data, i);
        let here = best_match(head, prev, data, h, i, 0);
        match here {
            None => {
                insert(head, prev, h, i);
                tokens.push(Token::Literal(data[i]));
                i += 1;
            }
            Some((len, dist)) => {
                // One-step lazy matching: if the next position has a
                // strictly better match, emit a literal instead.
                insert(head, prev, h, i);
                let take_lazy = len < GOOD_MATCH
                    && i + 1 + MIN_MATCH <= n
                    && matches!(
                        best_match(head, prev, data, hash3(data, i + 1), i + 1, len),
                        Some((nl, _)) if nl > len
                    );
                if take_lazy {
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                } else {
                    tokens.push(Token::Match {
                        len: len as u16,
                        dist: dist as u16,
                    });
                    // Index the skipped positions so future matches can
                    // reference into this region.
                    let end = (i + len).min(n.saturating_sub(MIN_MATCH - 1));
                    for j in i + 1..end {
                        insert(head, prev, hash3(data, j), j);
                    }
                    i += len;
                }
            }
        }
    }
    tokens
}

/// Append `len` bytes copied from `dist` bytes back, in bulk. Overlapping
/// references (dist < len) double the copied span each round, preserving
/// the byte-at-a-time semantics RFC 1951 requires.
#[inline]
pub(crate) fn copy_back_reference(out: &mut Vec<u8>, dist: usize, len: usize) {
    // dist == 0 would make the loop below spin forever; fail fast like
    // the byte-at-a-time code this replaced.
    assert!(dist > 0, "back-reference distance must be nonzero");
    let start = out.len() - dist;
    let mut remaining = len;
    while remaining > 0 {
        let avail = out.len() - start;
        let take = remaining.min(avail);
        out.extend_from_within(start..start + take);
        remaining -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expand a token stream back into bytes: the reference decoder the
    /// tokenizer tests compare against.
    fn detokenize(tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for t in tokens {
            match *t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    copy_back_reference(&mut out, dist as usize, len as usize);
                }
            }
        }
        out
    }

    #[test]
    fn roundtrip_simple() {
        let data = b"abcabcabcabcabcabc";
        let tokens = tokenize(data);
        assert_eq!(detokenize(&tokens), data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "repetition must produce matches: {tokens:?}"
        );
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            assert_eq!(detokenize(&tokenize(data)), data);
        }
    }

    #[test]
    fn roundtrip_incompressible() {
        let mut rng = xpl_util::SplitMix64::new(99);
        let mut data = vec![0u8; 5000];
        rng.fill_bytes(&mut data);
        assert_eq!(detokenize(&tokenize(&data)), data);
    }

    #[test]
    fn overlapping_match_rle() {
        // "aaaa..." compresses via overlapping dist=1 matches.
        let data = vec![b'a'; 1000];
        let tokens = tokenize(&data);
        assert_eq!(detokenize(&tokens), data);
        assert!(
            tokens.len() < 20,
            "run should collapse, got {} tokens",
            tokens.len()
        );
    }

    #[test]
    fn long_repetition_capped_at_max_match() {
        let data = vec![b'x'; 10_000];
        let tokens = tokenize(&data);
        for t in &tokens {
            if let Token::Match { len, .. } = t {
                assert!((*len as usize) <= MAX_MATCH);
            }
        }
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn distances_within_window() {
        // Repetition separated by more than the window cannot be matched.
        let mut data = vec![b'q'; 100];
        data.extend(std::iter::repeat_n(0u8, WINDOW_SIZE + 10));
        data.extend(std::iter::repeat_n(b'q', 100));
        let tokens = tokenize(&data);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!((*dist as usize) <= WINDOW_SIZE);
            }
        }
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn text_compresses_well() {
        let text = "the quick brown fox jumps over the lazy dog. ".repeat(100);
        let tokens = tokenize(text.as_bytes());
        assert_eq!(detokenize(&tokens), text.as_bytes());
        // Token count should be far below input length.
        assert!(
            tokens.len() < text.len() / 4,
            "{} tokens for {} bytes",
            tokens.len(),
            text.len()
        );
    }
}
