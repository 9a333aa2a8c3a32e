//! Rabin-style rolling fingerprint and content-defined chunking.
//!
//! Rabin (1981) fingerprinting treats a byte window as a polynomial over
//! GF(2) reduced by an irreducible polynomial; the key property for
//! chunking is *rolling* evaluation — the fingerprint of window
//! `[i+1, i+w]` derives from `[i, i+w-1]` in O(1). Chunk boundaries are
//! declared where `fingerprint & mask == magic`, making them content-
//! defined: an insertion only disturbs boundaries near the edit.
//!
//! This implementation uses the standard table-driven polynomial rolling
//! hash (the same construction LBFS popularized).

use crate::ChunkSpan;

/// Window width in bytes for the rolling fingerprint.
pub(crate) const WINDOW: usize = 48;

/// Irreducible polynomial of degree 53 (same class as LBFS's choice).
const POLY: u64 = 0x003D_A335_8B4D_C173;

/// Precomputed tables for O(1) rolling.
pub(crate) struct RabinTables {
    /// `mod_table[b]` = `(b << 53) mod POLY` — reduction of the incoming
    /// high byte.
    mod_table: [u64; 256],
    /// `out_table[b]` = contribution of byte `b` leaving the window.
    out_table: [u64; 256],
}

fn poly_mod_shift(mut value: u64, shift_bits: u32) -> u64 {
    // Compute (value << shift_bits) mod POLY bit by bit.
    for _ in 0..shift_bits {
        value <<= 1;
        if value & (1 << 53) != 0 {
            value ^= POLY | (1 << 53);
        }
    }
    value
}

impl RabinTables {
    pub fn new() -> Self {
        let mut mod_table = [0u64; 256];
        let mut out_table = [0u64; 256];
        for b in 0..256u64 {
            mod_table[b as usize] = poly_mod_shift(b, 53);
            // A byte leaving the window was multiplied by x^(8*(WINDOW-1)).
            out_table[b as usize] = poly_mod_shift(b, (8 * (WINDOW - 1)) as u32);
        }
        RabinTables {
            mod_table,
            out_table,
        }
    }
}

impl Default for RabinTables {
    fn default() -> Self {
        Self::new()
    }
}

fn tables() -> &'static RabinTables {
    use std::sync::OnceLock;
    static T: OnceLock<RabinTables> = OnceLock::new();
    T.get_or_init(RabinTables::new)
}

/// The rolling fingerprint state over a fixed-width window.
///
/// The window starts zeroed, and a zero byte's leaving contribution is
/// zero (`out_table[0] == 0`), so removal is unconditional — no warm-up
/// counter in the per-byte path.
pub(crate) struct RollingHash {
    window: [u8; WINDOW],
    pos: usize,
    fp: u64,
    /// Cached once at construction so the per-byte hot path never pays
    /// the `OnceLock` atomic load.
    tables: &'static RabinTables,
}

impl Default for RollingHash {
    fn default() -> Self {
        Self::new()
    }
}

impl RollingHash {
    pub fn new() -> Self {
        RollingHash {
            window: [0; WINDOW],
            pos: 0,
            fp: 0,
            tables: tables(),
        }
    }

    /// Push one byte; returns the fingerprint after the push.
    #[inline]
    pub(crate) fn push(&mut self, b: u8) -> u64 {
        let t = self.tables;
        let old = self.window[self.pos];
        self.window[self.pos] = b;
        self.pos += 1;
        if self.pos == WINDOW {
            self.pos = 0;
        }
        // Remove the leaving byte's contribution (a no-op while the
        // window is still filling: the zeroed slots contribute nothing).
        self.fp ^= t.out_table[old as usize];
        // Shift in the new byte: fp = (fp * x^8 + b) mod POLY.
        let high = (self.fp >> 45) as usize & 0xFF;
        self.fp = ((self.fp << 8) | b as u64) & ((1 << 53) - 1);
        self.fp ^= t.mod_table[high];
        self.fp
    }

    pub(crate) fn reset(&mut self) {
        self.window = [0; WINDOW];
        self.pos = 0;
        self.fp = 0;
    }
}

/// Parameters for content-defined chunking.
#[derive(Clone, Copy, Debug)]
pub struct CdcParams {
    pub min_size: usize,
    /// Average chunk size; must be a power of two (defines the boundary
    /// mask).
    pub avg_size: usize,
    pub max_size: usize,
}

impl CdcParams {
    /// The classic 2/8/16 KiB configuration scaled by `avg`.
    pub fn with_avg(avg_size: usize) -> Self {
        assert!(
            avg_size.is_power_of_two(),
            "average size must be a power of two"
        );
        CdcParams {
            min_size: avg_size / 4,
            avg_size,
            max_size: avg_size * 4,
        }
    }
}

/// Content-defined chunking of `data`.
///
/// Hot-path structure: the fingerprint only matters once a chunk reaches
/// `min_size` (no boundary can be declared earlier), and it depends only
/// on the last `WINDOW` bytes — so after each boundary the scan skips
/// ahead `min_size - WINDOW` bytes and warms the window on the remainder.
/// Byte-identical to the naive push-every-byte scan: a fresh window is
/// all zeros, whose polynomial contributions vanish (`out_table[0] == 0`),
/// so the fingerprint at every checked position is unchanged.
pub fn chunk_cdc(data: &[u8], params: CdcParams) -> Vec<ChunkSpan> {
    assert!(params.min_size >= 1);
    assert!(params.avg_size.is_power_of_two());
    assert!(params.min_size <= params.avg_size && params.avg_size <= params.max_size);
    let mask = (params.avg_size - 1) as u64;
    // Boundary condition: low bits equal a fixed magic (not all-zeros, to
    // avoid degenerate behaviour on zero-filled regions). Masked once,
    // outside the loop.
    let magic = mask & 0x1FFF_FFFF_5A5A_5A5A;

    let n = data.len();
    let mut spans = Vec::with_capacity(n / params.avg_size + 2);
    let mut start = 0usize;
    let mut hash = RollingHash::new();
    if params.min_size > WINDOW {
        // Fast path: skip ahead `min_size - WINDOW`, warm the window with
        // no boundary checks, then run a fingerprint-only scan (the
        // max-size cut is the loop bound, not a per-byte comparison).
        while start < n {
            let check_from = start + params.min_size - 1;
            if check_from >= n {
                spans.push(ChunkSpan {
                    offset: start,
                    len: n - start,
                });
                break;
            }
            for &b in &data[start + params.min_size - WINDOW..check_from] {
                hash.push(b);
            }
            let hard_cut = start + params.max_size - 1;
            let check_end = hard_cut.min(n - 1);
            let mut cut = None;
            for (k, &b) in data[check_from..=check_end].iter().enumerate() {
                if (hash.push(b) & mask) == magic {
                    cut = Some(check_from + k);
                    break;
                }
            }
            if cut.is_none() && check_end == hard_cut {
                cut = Some(hard_cut);
            }
            match cut {
                Some(i) => {
                    spans.push(ChunkSpan {
                        offset: start,
                        len: i - start + 1,
                    });
                    start = i + 1;
                    hash.reset();
                }
                None => {
                    spans.push(ChunkSpan {
                        offset: start,
                        len: n - start,
                    });
                    break;
                }
            }
        }
    } else {
        // Generic path (tiny min sizes): check every position.
        let mut i = 0usize;
        while i < n {
            let fp = hash.push(data[i]);
            let len = i - start + 1;
            let boundary =
                (len >= params.min_size && (fp & mask) == magic) || len >= params.max_size;
            if boundary {
                spans.push(ChunkSpan { offset: start, len });
                start = i + 1;
                hash.reset();
            }
            i += 1;
        }
        if start < n {
            spans.push(ChunkSpan {
                offset: start,
                len: n - start,
            });
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spans_cover, ChunkIndex};

    fn random_data(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = xpl_util::SplitMix64::new(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn rolling_hash_is_windowed() {
        // Fingerprint must depend only on the last WINDOW bytes.
        let a = random_data(1, 300);
        let b = random_data(2, 300);
        let mut ha = RollingHash::new();
        let mut hb = RollingHash::new();
        for &x in &a {
            ha.push(x);
        }
        for &x in &b {
            hb.push(x);
        }
        // Feed both the same trailing window.
        let tail = random_data(3, WINDOW);
        let mut fa = 0;
        let mut fb = 0;
        for &x in &tail {
            fa = ha.push(x);
            fb = hb.push(x);
        }
        assert_eq!(fa, fb, "window property violated");
    }

    #[test]
    fn rolling_differs_for_different_windows() {
        let mut h1 = RollingHash::new();
        let mut h2 = RollingHash::new();
        let mut f1 = 0;
        let mut f2 = 0;
        for i in 0..WINDOW {
            f1 = h1.push(i as u8);
            f2 = h2.push((i as u8).wrapping_add(1));
        }
        assert_ne!(f1, f2);
    }

    #[test]
    fn cdc_covers_input() {
        for len in [0usize, 1, 100, 5000, 100_000] {
            let data = random_data(len as u64 + 10, len);
            let spans = chunk_cdc(&data, CdcParams::with_avg(4096));
            assert!(spans_cover(&spans, len), "len {len}");
        }
    }

    #[test]
    fn cdc_respects_bounds() {
        let data = random_data(42, 200_000);
        let p = CdcParams::with_avg(4096);
        let spans = chunk_cdc(&data, p);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.len <= p.max_size, "chunk {i} too big: {}", s.len);
            if i + 1 != spans.len() {
                assert!(s.len >= p.min_size, "chunk {i} too small: {}", s.len);
            }
        }
    }

    #[test]
    fn cdc_average_in_expected_band() {
        let data = random_data(77, 1 << 20);
        let p = CdcParams::with_avg(4096);
        let spans = chunk_cdc(&data, p);
        let avg = data.len() as f64 / spans.len() as f64;
        // Truncated-geometric expectation: roughly avg_size±50 %.
        assert!(
            (2048.0..8192.0).contains(&avg),
            "average chunk {avg} outside expected band"
        );
    }

    #[test]
    fn cdc_boundaries_survive_insertion() {
        // The CDC selling point: a single-byte insertion near the front
        // must leave most chunks (and hence dedup) intact.
        let base = random_data(5, 256 * 1024);
        let mut edited = base.clone();
        edited.insert(1000, 0x55);

        let p = CdcParams::with_avg(4096);
        let mut ix = ChunkIndex::new();
        ix.ingest(&base, &chunk_cdc(&base, p));
        let before = ix.unique_bytes();
        ix.ingest(&edited, &chunk_cdc(&edited, p));
        let added = ix.unique_bytes() - before;
        assert!(
            (added as f64) < 0.10 * edited.len() as f64,
            "CDC should re-find most chunks after insertion; added {added} of {}",
            edited.len()
        );
    }

    #[test]
    fn cdc_deterministic() {
        let data = random_data(9, 50_000);
        let a = chunk_cdc(&data, CdcParams::with_avg(2048));
        let b = chunk_cdc(&data, CdcParams::with_avg(2048));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_region_hits_max_size() {
        // All-zero data never matches the nonzero magic, so chunks max out.
        let data = vec![0u8; 100_000];
        let p = CdcParams::with_avg(4096);
        let spans = chunk_cdc(&data, p);
        for s in &spans[..spans.len() - 1] {
            assert_eq!(s.len, p.max_size);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_avg_rejected() {
        CdcParams::with_avg(3000);
    }
}
