//! Blocked random-access compression — a BGZF-style seekable container.
//!
//! Single-stream DEFLATE forces a reader to inflate from byte zero: no
//! parallelism, no range reads. This module splits input into fixed-size
//! blocks (default [`DEFAULT_BLOCK_SIZE`]), deflates each block as an
//! *independent* raw DEFLATE stream, and appends a CRC-checked block
//! index, so
//!
//! * decompression fans out across the thread pool one block per task
//!   ([`blocked_decompress_parallel`]), and
//! * any byte range maps to the minimal set of blocks
//!   ([`read_range`]) — the "virtual offset" of uncompressed byte `o`
//!   is simply block `o / block_size` because every block but the last
//!   holds exactly `block_size` bytes.
//!
//! # Container layout
//!
//! ```text
//! [magic "XBC1": 4][block_size: u32 LE]                      header (8)
//! [raw DEFLATE stream of block 0][… block 1]…                blocks
//! [comp_len: u32][uncomp_len: u32][crc32(uncomp): u32] × N   index (12·N)
//! [block_count: u32][total_uncompressed: u64 LE]
//! [crc32(index bytes): u32][end magic "XBE1": 4]             footer (20)
//! ```
//!
//! The index sits at the *end* so compression writes blocks straight
//! through; a reader finds it from the fixed-size footer. Every field a
//! range read touches is covered by a checksum: the index by the footer
//! CRC, each block's payload by its per-block CRC — so partial reads
//! validate exactly what they inflate, which a whole-payload checksum
//! (the persist segment CRC) cannot do for a range.
//!
//! Corruption and truncation anywhere in the container surface as typed
//! [`BlockedError`]s, never a panic: the index is fully validated
//! (region sizes, offsets, CRC) before any block slice is formed.

use crate::deflate::{deflate, inflate, InflateError};
use crate::lz4::{lz4_compress, lz4_decompress, Lz4Error, MAX_LZ4_EXPANSION};
use rayon::prelude::*;
use xpl_util::Crc32;

/// Default uncompressed block size: 64 KiB, the BGZF sweet spot between
/// seek granularity and DEFLATE window utilization.
pub const DEFAULT_BLOCK_SIZE: usize = 64 * 1024;

const MAGIC: &[u8; 4] = b"XBC1";
const LZ4_MAGIC: &[u8; 4] = b"XBL1";
const END_MAGIC: &[u8; 4] = b"XBE1";
const HEADER: usize = 8;
const FOOTER: usize = 20;
const INDEX_ENTRY: usize = 12;

/// Upper bound on how much a raw DEFLATE stream can inflate: ~1032×
/// (one distance-1/length-258 match per ~2 bits of input, plus stream
/// framing). An index entry claiming more than this per compressed byte
/// describes bytes its block cannot contain — only a corrupt or hostile
/// index (the footer CRC is attacker-recomputable) can say that.
const MAX_INFLATE_RATIO: u64 = 1032;

/// The per-block compression algorithm a container was written with,
/// chosen by its leading magic. The layout (header, blocks, index,
/// footer) is identical for every inner codec; only the block streams
/// and the expansion-plausibility bound differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InnerCodec {
    /// Raw DEFLATE blocks — the dense tier (magic `XBC1`).
    Deflate,
    /// LZ4-class blocks — the fast tier (magic `XBL1`).
    Lz4,
}

impl InnerCodec {
    fn magic(self) -> &'static [u8; 4] {
        match self {
            InnerCodec::Deflate => MAGIC,
            InnerCodec::Lz4 => LZ4_MAGIC,
        }
    }

    /// Maximum uncompressed-per-compressed-byte ratio a valid block of
    /// this codec can reach; an index claiming more is corrupt.
    fn max_expansion(self) -> u64 {
        match self {
            InnerCodec::Deflate => MAX_INFLATE_RATIO,
            InnerCodec::Lz4 => MAX_LZ4_EXPANSION,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            InnerCodec::Deflate => "blocked-deflate",
            InnerCodec::Lz4 => "blocked-lz4",
        }
    }

    fn compress_block(self, chunk: &[u8]) -> Vec<u8> {
        match self {
            InnerCodec::Deflate => deflate(chunk),
            InnerCodec::Lz4 => lz4_compress(chunk),
        }
    }
}

/// The inner codec of a container, by magic; `None` for anything else.
pub(crate) fn inner_codec(bytes: &[u8]) -> Option<InnerCodec> {
    if bytes.len() < 4 {
        return None;
    }
    match &bytes[0..4] {
        m if m == MAGIC => Some(InnerCodec::Deflate),
        m if m == LZ4_MAGIC => Some(InnerCodec::Lz4),
        _ => None,
    }
}

/// Preallocation for a decode buffer: trust the index's claimed size
/// only up to a small multiple of the compressed input, so a corrupt or
/// hostile footer can never force a huge up-front allocation (e.g.
/// `total_len = u64::MAX` aborting in `Vec::with_capacity`). Payloads
/// that genuinely inflate further grow the buffer organically.
fn decode_capacity(claimed: u64, compressed_len: usize) -> usize {
    let plausible = (compressed_len as u64).saturating_mul(32).max(4096);
    claimed.min(plausible).min(isize::MAX as u64) as usize
}

/// Errors of the blocked format. Every decode failure is a value of
/// this type — corrupt or truncated input must never panic.
#[derive(Debug, PartialEq, Eq)]
pub enum BlockedError {
    /// The container starts with neither magic ("XBC1", "XBL1").
    BadMagic,
    /// Fewer bytes than the layout requires.
    Truncated { need: u64, have: u64 },
    /// The block index is internally inconsistent or fails its CRC.
    CorruptIndex(String),
    /// A block inflated to bytes whose CRC-32 does not match the index.
    BlockCrcMismatch { block: usize },
    /// A block inflated to the wrong number of bytes.
    BlockLenMismatch { block: usize, expect: u32, got: u64 },
    /// A block's DEFLATE stream is damaged.
    Inflate { block: usize, err: InflateError },
    /// A block's LZ4 stream is damaged.
    Lz4 { block: usize, err: Lz4Error },
}

impl std::fmt::Display for BlockedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockedError::BadMagic => write!(f, "not a blocked container (bad magic)"),
            BlockedError::Truncated { need, have } => {
                write!(f, "truncated container: need {need} bytes, have {have}")
            }
            BlockedError::CorruptIndex(detail) => write!(f, "corrupt block index: {detail}"),
            BlockedError::BlockCrcMismatch { block } => {
                write!(f, "block {block}: CRC-32 mismatch")
            }
            BlockedError::BlockLenMismatch { block, expect, got } => {
                write!(
                    f,
                    "block {block}: inflated to {got} bytes, index says {expect}"
                )
            }
            BlockedError::Inflate { block, err } => {
                write!(f, "block {block}: inflate failed: {err:?}")
            }
            BlockedError::Lz4 { block, err } => {
                write!(f, "block {block}: lz4 decode failed: {err}")
            }
        }
    }
}

impl std::error::Error for BlockedError {}

/// One block's index entry, offsets resolved to absolute positions.
#[derive(Clone, Copy, Debug)]
pub struct BlockEntry {
    /// Absolute offset of the block's DEFLATE stream in the container.
    pub comp_off: u64,
    pub comp_len: u32,
    /// Offset of the block's first byte in the uncompressed stream.
    pub uncomp_off: u64,
    pub uncomp_len: u32,
    /// CRC-32 of the uncompressed block.
    pub crc: u32,
}

/// The parsed, validated block index of a container.
#[derive(Clone, Debug)]
pub struct BlockIndex {
    pub codec: InnerCodec,
    pub block_size: u32,
    pub total_len: u64,
    pub entries: Vec<BlockEntry>,
}

impl BlockIndex {
    /// Parse and fully validate a container's index (footer magic, CRC,
    /// region sizes, per-block offsets). After `parse` succeeds, every
    /// block slice the entries describe is in bounds.
    pub fn parse(data: &[u8]) -> Result<BlockIndex, BlockedError> {
        let have = data.len() as u64;
        if data.len() < HEADER + FOOTER {
            return Err(BlockedError::Truncated {
                need: (HEADER + FOOTER) as u64,
                have,
            });
        }
        let Some(codec) = inner_codec(data) else {
            return Err(BlockedError::BadMagic);
        };
        if &data[data.len() - 4..] != END_MAGIC {
            return Err(BlockedError::CorruptIndex("bad footer magic".into()));
        }
        let block_size = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if block_size == 0 {
            return Err(BlockedError::CorruptIndex("block size is zero".into()));
        }
        let foot = data.len() - FOOTER;
        let block_count = u32::from_le_bytes(data[foot..foot + 4].try_into().unwrap()) as u64;
        let total_len = u64::from_le_bytes(data[foot + 4..foot + 12].try_into().unwrap());
        let index_crc = u32::from_le_bytes(data[foot + 12..foot + 16].try_into().unwrap());
        let index_len = block_count * INDEX_ENTRY as u64;
        let need = (HEADER + FOOTER) as u64 + index_len;
        if have < need {
            return Err(BlockedError::Truncated { need, have });
        }
        let index_start = foot - index_len as usize;
        let index_bytes = &data[index_start..foot];
        if Crc32::checksum(index_bytes) != index_crc {
            return Err(BlockedError::CorruptIndex("index CRC-32 mismatch".into()));
        }

        let mut entries = Vec::with_capacity(block_count as usize);
        let mut comp_off = HEADER as u64;
        let mut uncomp_off = 0u64;
        for i in 0..block_count as usize {
            let at = i * INDEX_ENTRY;
            let comp_len = u32::from_le_bytes(index_bytes[at..at + 4].try_into().unwrap());
            let uncomp_len = u32::from_le_bytes(index_bytes[at + 4..at + 8].try_into().unwrap());
            let crc = u32::from_le_bytes(index_bytes[at + 8..at + 12].try_into().unwrap());
            if comp_len == 0 {
                return Err(BlockedError::CorruptIndex(format!(
                    "block {i}: zero compressed length"
                )));
            }
            let full = i + 1 < block_count as usize;
            if full && uncomp_len != block_size {
                return Err(BlockedError::CorruptIndex(format!(
                    "block {i}: {uncomp_len} uncompressed bytes in a non-final block of size {block_size}"
                )));
            }
            if !full && (uncomp_len == 0 || uncomp_len > block_size) {
                return Err(BlockedError::CorruptIndex(format!(
                    "final block: {uncomp_len} uncompressed bytes vs block size {block_size}"
                )));
            }
            if uncomp_len as u64 > comp_len as u64 * codec.max_expansion() {
                return Err(BlockedError::CorruptIndex(format!(
                    "block {i}: {uncomp_len} uncompressed bytes from {comp_len} compressed \
                     exceeds {}'s maximum expansion",
                    codec.name()
                )));
            }
            entries.push(BlockEntry {
                comp_off,
                comp_len,
                uncomp_off,
                uncomp_len,
                crc,
            });
            comp_off += comp_len as u64;
            uncomp_off += uncomp_len as u64;
        }
        if comp_off != index_start as u64 {
            return Err(BlockedError::CorruptIndex(format!(
                "blocks region is {} bytes, index accounts for {}",
                index_start as u64 - HEADER as u64,
                comp_off - HEADER as u64
            )));
        }
        if uncomp_off != total_len {
            return Err(BlockedError::CorruptIndex(format!(
                "footer says {total_len} uncompressed bytes, entries sum to {uncomp_off}"
            )));
        }
        Ok(BlockIndex {
            codec,
            block_size,
            total_len,
            entries,
        })
    }

    /// Indices of the blocks a byte range touches (empty range or a
    /// start past the end touches none). Clamping mirrors slice
    /// semantics: `[start, min(start+len, total))`.
    pub(crate) fn blocks_for_range(&self, start: u64, len: u64) -> std::ops::Range<usize> {
        let end = start.saturating_add(len).min(self.total_len);
        if start >= end {
            return 0..0;
        }
        let first = (start / self.block_size as u64) as usize;
        let last = ((end - 1) / self.block_size as u64) as usize;
        first..last + 1
    }
}

/// `true` if `bytes` carries either blocked-container magic (DEFLATE or
/// LZ4 inner codec — the layout, and thus every reader, is shared).
pub fn is_blocked(bytes: &[u8]) -> bool {
    inner_codec(bytes).is_some()
}

/// Compress with the default block size (DEFLATE inner codec).
pub fn blocked_compress(data: &[u8]) -> Vec<u8> {
    blocked_compress_inner(data, DEFAULT_BLOCK_SIZE, InnerCodec::Deflate)
}

/// Compress with the default block size and the LZ4 inner codec — the
/// fast tier.
pub fn blocked_compress_lz4(data: &[u8]) -> Vec<u8> {
    blocked_compress_inner(data, DEFAULT_BLOCK_SIZE, InnerCodec::Lz4)
}

/// Compress `data` into a blocked container, encoding blocks in
/// parallel across the rayon pool with the chosen inner codec.
pub fn blocked_compress_inner(data: &[u8], block_size: usize, codec: InnerCodec) -> Vec<u8> {
    assert!(block_size > 0 && block_size <= u32::MAX as usize);
    let compressed: Vec<(Vec<u8>, u32, u32)> = data
        .par_chunks(block_size)
        .map(|chunk| {
            (
                codec.compress_block(chunk),
                chunk.len() as u32,
                Crc32::checksum(chunk),
            )
        })
        .collect();
    let blocks_bytes: usize = compressed.iter().map(|(b, _, _)| b.len()).sum();
    let mut out =
        Vec::with_capacity(HEADER + blocks_bytes + compressed.len() * INDEX_ENTRY + FOOTER);
    out.extend_from_slice(codec.magic());
    out.extend_from_slice(&(block_size as u32).to_le_bytes());
    for (block, _, _) in &compressed {
        out.extend_from_slice(block);
    }
    let index_start = out.len();
    for (block, uncomp_len, crc) in &compressed {
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&uncomp_len.to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
    }
    let index_crc = Crc32::checksum(&out[index_start..]);
    out.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&index_crc.to_le_bytes());
    out.extend_from_slice(END_MAGIC);
    out
}

/// Decode and CRC-check one block, dispatching on the container's
/// inner codec.
pub(crate) fn inflate_block(
    data: &[u8],
    index: &BlockIndex,
    block: usize,
) -> Result<Vec<u8>, BlockedError> {
    let e = &index.entries[block];
    let comp = &data[e.comp_off as usize..(e.comp_off + e.comp_len as u64) as usize];
    let out = match index.codec {
        InnerCodec::Deflate => inflate(comp).map_err(|err| BlockedError::Inflate { block, err })?,
        InnerCodec::Lz4 => lz4_decompress(comp, e.uncomp_len as u64)
            .map_err(|err| BlockedError::Lz4 { block, err })?,
    };
    if out.len() as u64 != e.uncomp_len as u64 {
        return Err(BlockedError::BlockLenMismatch {
            block,
            expect: e.uncomp_len,
            got: out.len() as u64,
        });
    }
    if Crc32::checksum(&out) != e.crc {
        return Err(BlockedError::BlockCrcMismatch { block });
    }
    Ok(out)
}

/// Decompress a whole container sequentially (the 1-thread reference
/// path; [`blocked_decompress_parallel`] must match it byte for byte).
pub fn blocked_decompress(data: &[u8]) -> Result<Vec<u8>, BlockedError> {
    let index = BlockIndex::parse(data)?;
    let mut out = Vec::with_capacity(decode_capacity(index.total_len, data.len()));
    for i in 0..index.entries.len() {
        out.extend_from_slice(&inflate_block(data, &index, i)?);
    }
    Ok(out)
}

/// Decompress a whole container, one block per pool task. Blocks are
/// independent DEFLATE streams, so inflation is embarrassingly parallel;
/// output order is restored by index, making the result byte-identical
/// at any thread count.
pub fn blocked_decompress_parallel(data: &[u8]) -> Result<Vec<u8>, BlockedError> {
    let index = BlockIndex::parse(data)?;
    let blocks: Vec<Result<Vec<u8>, BlockedError>> = (0..index.entries.len())
        .into_par_iter()
        .map(|i| inflate_block(data, &index, i))
        .collect();
    let mut out = Vec::with_capacity(decode_capacity(index.total_len, data.len()));
    for block in blocks {
        out.extend_from_slice(&block?);
    }
    Ok(out)
}

/// Read `[start, start+len)` of the uncompressed stream, inflating only
/// the blocks the range overlaps. Clamps like a slice: bytes past the
/// end are simply absent, so the result can be shorter than `len`.
pub fn read_range(data: &[u8], start: u64, len: u64) -> Result<Vec<u8>, BlockedError> {
    let index = BlockIndex::parse(data)?;
    read_range_indexed(data, &index, start, len)
}

/// [`read_range`] against an already-parsed index (amortizes parsing
/// across many reads of the same container).
pub(crate) fn read_range_indexed(
    data: &[u8],
    index: &BlockIndex,
    start: u64,
    len: u64,
) -> Result<Vec<u8>, BlockedError> {
    let end = start.saturating_add(len).min(index.total_len);
    if start >= end {
        return Ok(Vec::new());
    }
    let span = index.blocks_for_range(start, len);
    let mut out = Vec::with_capacity(decode_capacity(end - start, data.len()));
    for i in span {
        let e = &index.entries[i];
        let block = inflate_block(data, index, i)?;
        let from = start.saturating_sub(e.uncomp_off) as usize;
        let to = (end - e.uncomp_off).min(block.len() as u64) as usize;
        out.extend_from_slice(&block[from..to]);
    }
    Ok(out)
}

/// Inflate and CRC-check every block (the persist `deep_verify` sweep
/// over blocked payloads). Returns the number of blocks verified.
pub fn verify_blocks(data: &[u8]) -> Result<usize, BlockedError> {
    let index = BlockIndex::parse(data)?;
    for i in 0..index.entries.len() {
        inflate_block(data, &index, i)?;
    }
    Ok(index.entries.len())
}

/// Pre-resolved `xpl-obs` handles for blocked-codec random access.
/// Counters are cumulative across every reader wired to the same
/// registry, so callers no longer have to harvest per-reader fields —
/// the registry is the one source of truth. All deterministic: which
/// blocks a range read inflates is a pure function of the range and
/// the container geometry. `verify_blocks` (the audit sweep) bypasses
/// readers entirely and never moves these.
pub struct CodecObs {
    blocks_inflated: std::sync::Arc<xpl_obs::Counter>,
    inflated_bytes: std::sync::Arc<xpl_obs::Counter>,
    compressed_bytes_touched: std::sync::Arc<xpl_obs::Counter>,
}

impl CodecObs {
    /// Resolve (or re-use) the `codec.*` metric family in `reg`.
    pub fn new(reg: &xpl_obs::Registry) -> Self {
        use xpl_obs::Section;
        CodecObs {
            blocks_inflated: reg.counter("codec.blocks_inflated", Section::Det),
            inflated_bytes: reg.counter("codec.inflated_bytes", Section::Det),
            compressed_bytes_touched: reg.counter("codec.compressed_bytes_touched", Section::Det),
        }
    }
}

/// A random-access reader over one container that caches inflated
/// blocks, so overlapping reads (a binary search, a cluster walk) pay
/// each block's inflation once. Tracks distinct blocks inflated — the
/// honest "how much decompression did this range cost" metric — both
/// in per-reader accessors and, when an obs sink is attached, in
/// registry counters bumped incrementally at each cache miss.
pub struct BlockedReader<'a> {
    data: &'a [u8],
    index: BlockIndex,
    cache: std::collections::HashMap<usize, Vec<u8>>,
    obs: Option<std::sync::Arc<CodecObs>>,
}

impl<'a> BlockedReader<'a> {
    pub fn new(data: &'a [u8]) -> Result<BlockedReader<'a>, BlockedError> {
        Ok(BlockedReader {
            data,
            index: BlockIndex::parse(data)?,
            cache: std::collections::HashMap::new(),
            obs: None,
        })
    }

    /// Wire this reader's block accounting into a registry. The fixed
    /// container overhead (header, footer, index) is charged once, at
    /// attach time — per-block compressed bytes accrue on each miss,
    /// keeping the counter consistent with
    /// [`BlockedReader::compressed_bytes_touched`].
    pub fn attach_obs(&mut self, obs: std::sync::Arc<CodecObs>) {
        debug_assert!(self.cache.is_empty(), "attach before reading");
        obs.compressed_bytes_touched
            .add((HEADER + FOOTER) as u64 + self.index.entries.len() as u64 * INDEX_ENTRY as u64);
        self.obs = Some(obs);
    }

    pub fn index(&self) -> &BlockIndex {
        &self.index
    }

    pub fn total_len(&self) -> u64 {
        self.index.total_len
    }

    /// Distinct blocks inflated so far.
    pub fn blocks_inflated(&self) -> usize {
        self.cache.len()
    }

    /// Uncompressed bytes produced by the blocks inflated so far — the
    /// honest decompression-work figure a store charges time for.
    pub fn uncompressed_bytes_inflated(&self) -> u64 {
        self.cache.values().map(|b| b.len() as u64).sum()
    }

    /// Compressed bytes backing the blocks inflated so far (plus the
    /// container's fixed overhead) — what a store charges for the reads.
    pub fn compressed_bytes_touched(&self) -> u64 {
        let blocks: u64 = self
            .cache
            .keys()
            .map(|&i| self.index.entries[i].comp_len as u64)
            .sum();
        blocks + (HEADER + FOOTER) as u64 + self.index.entries.len() as u64 * INDEX_ENTRY as u64
    }

    /// Read `[start, start+len)` of the uncompressed stream (clamped),
    /// inflating only uncached overlapping blocks.
    pub fn read_at(&mut self, start: u64, len: u64) -> Result<Vec<u8>, BlockedError> {
        let end = start.saturating_add(len).min(self.index.total_len);
        if start >= end {
            return Ok(Vec::new());
        }
        let span = self.index.blocks_for_range(start, len);
        let mut out = Vec::with_capacity((end - start) as usize);
        for i in span {
            if !self.cache.contains_key(&i) {
                let block = inflate_block(self.data, &self.index, i)?;
                if let Some(o) = &self.obs {
                    o.blocks_inflated.inc();
                    o.inflated_bytes.add(block.len() as u64);
                    o.compressed_bytes_touched
                        .add(self.index.entries[i].comp_len as u64);
                }
                self.cache.insert(i, block);
            }
            let e = &self.index.entries[i];
            let block = &self.cache[&i];
            let from = start.saturating_sub(e.uncomp_off) as usize;
            let to = (end - e.uncomp_off).min(block.len() as u64) as usize;
            out.extend_from_slice(&block[from..to]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        // Compressible but non-trivial: repeated vocabulary + counters.
        let mut out = Vec::with_capacity(n);
        let mut rng = xpl_util::SplitMix64::new(77);
        while out.len() < n {
            out.extend_from_slice(b"/usr/lib/pkg/");
            out.extend_from_slice(&(out.len() as u32).to_le_bytes());
            if rng.next_u64().is_multiple_of(4) {
                out.extend_from_slice(&[0u8; 17]);
            }
        }
        out.truncate(n);
        out
    }

    #[test]
    fn roundtrip_sizes() {
        for n in [
            0,
            1,
            100,
            DEFAULT_BLOCK_SIZE - 1,
            DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE + 1,
        ] {
            let data = sample(n);
            let c = blocked_compress(&data);
            assert_eq!(blocked_decompress(&c).unwrap(), data, "n={n}");
            assert_eq!(blocked_decompress_parallel(&c).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn multi_block_layout() {
        let data = sample(300_000);
        let c = blocked_compress(&data);
        let idx = BlockIndex::parse(&c).unwrap();
        assert_eq!(idx.entries.len(), 300_000usize.div_ceil(DEFAULT_BLOCK_SIZE));
        assert_eq!(idx.total_len, 300_000);
        assert!(idx.entries[..idx.entries.len() - 1]
            .iter()
            .all(|e| e.uncomp_len as usize == DEFAULT_BLOCK_SIZE));
    }

    #[test]
    fn range_reads_touch_minimal_blocks() {
        let data = sample(8 * 1024 * 1024);
        let c = blocked_compress(&data);
        let idx = BlockIndex::parse(&c).unwrap();
        assert_eq!(idx.entries.len(), 128);
        // A 64 KiB span straddles at most 2 of the 128 blocks.
        let span = idx.blocks_for_range(1_000_000, 64 * 1024);
        assert!(span.len() <= 2, "{span:?}");
        let got = read_range(&c, 1_000_000, 64 * 1024).unwrap();
        assert_eq!(got, &data[1_000_000..1_000_000 + 64 * 1024]);
    }

    #[test]
    fn range_clamps_like_a_slice() {
        let data = sample(1000);
        let c = blocked_compress(&data);
        assert_eq!(read_range(&c, 900, 500).unwrap(), &data[900..]);
        assert_eq!(read_range(&c, 5000, 10).unwrap(), b"");
        assert_eq!(read_range(&c, 0, 0).unwrap(), b"");
        assert_eq!(read_range(&c, 0, u64::MAX).unwrap(), data);
    }

    #[test]
    fn reader_caches_blocks() {
        let data = sample(256 * 1024);
        let c = blocked_compress(&data);
        let mut r = BlockedReader::new(&c).unwrap();
        assert_eq!(r.read_at(0, 100).unwrap(), &data[..100]);
        assert_eq!(r.read_at(10, 50).unwrap(), &data[10..60]);
        assert_eq!(r.blocks_inflated(), 1, "second read hits the cache");
        r.read_at(200_000, 10_000).unwrap();
        assert!(r.blocks_inflated() <= 3);
        assert!(r.compressed_bytes_touched() < c.len() as u64);
    }

    #[test]
    fn corrupt_block_is_typed_error() {
        let data = sample(200_000);
        let mut c = blocked_compress(&data);
        // Flip a byte in the middle of the blocks region.
        c[HEADER + 1000] ^= 0x20;
        let err = blocked_decompress(&c).unwrap_err();
        assert!(
            matches!(
                err,
                BlockedError::BlockCrcMismatch { block: 0 }
                    | BlockedError::BlockLenMismatch { block: 0, .. }
                    | BlockedError::Inflate { block: 0, .. }
            ),
            "{err:?}"
        );
        // Other blocks still serve ranges.
        let got = read_range(&c, 150_000, 100).unwrap();
        assert_eq!(got, &data[150_000..150_100]);
    }

    /// A syntactically valid container whose single index entry claims
    /// `uncomp_len` for one small real DEFLATE block, with the index CRC
    /// recomputed the way an attacker would — only semantic validation
    /// can reject it.
    fn forged_container(uncomp_len: u32, total_len: u64) -> Vec<u8> {
        let block = deflate(&[b'a'; 100]);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&u32::MAX.to_le_bytes()); // huge block_size
        out.extend_from_slice(&block);
        let index_start = out.len();
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&uncomp_len.to_le_bytes());
        out.extend_from_slice(&Crc32::checksum(&[b'a'; 100]).to_le_bytes());
        let index_crc = Crc32::checksum(&out[index_start..]);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&total_len.to_le_bytes());
        out.extend_from_slice(&index_crc.to_le_bytes());
        out.extend_from_slice(END_MAGIC);
        out
    }

    #[test]
    fn hostile_footer_is_typed_error_not_huge_preallocation() {
        // Regression: the index claims ~4 GiB uncompressed from a
        // ~dozen-byte block. Pre-fix, parse accepted this and every
        // decompress path did `Vec::with_capacity(total_len)` straight
        // off the footer — a multi-GiB preallocation (abort under a
        // memory limit) before any semantic validation ran.
        let c = forged_container(u32::MAX, u32::MAX as u64);
        for err in [
            BlockIndex::parse(&c).map(|_| ()).unwrap_err(),
            blocked_decompress(&c).map(|_| ()).unwrap_err(),
            blocked_decompress_parallel(&c).map(|_| ()).unwrap_err(),
            read_range(&c, 0, 10).map(|_| ()).unwrap_err(),
        ] {
            assert!(matches!(err, BlockedError::CorruptIndex(_)), "{err:?}");
        }
        // A footer whose total_len disagrees with the entry sum is also
        // a typed error (u64::MAX never reaches an allocation).
        let c = forged_container(100, u64::MAX);
        assert!(matches!(
            BlockIndex::parse(&c),
            Err(BlockedError::CorruptIndex(_))
        ));
    }

    #[test]
    fn decode_capacity_is_bounded_by_input() {
        // Even if a claimed size got past parsing, preallocation is
        // clamped to a small multiple of the compressed input.
        assert_eq!(decode_capacity(u64::MAX, 1000), 32_000);
        assert_eq!(decode_capacity(100, 1000), 100);
        assert_eq!(decode_capacity(10_000, 10), 4096);
    }

    #[test]
    fn verify_blocks_counts_and_detects() {
        let data = sample(200_000);
        let c = blocked_compress(&data);
        assert_eq!(verify_blocks(&c).unwrap(), 4);
        let mut bad = c.clone();
        bad[HEADER + 5] ^= 0x01;
        assert!(verify_blocks(&bad).is_err());
    }

    #[test]
    fn lz4_container_roundtrips_and_serves_ranges() {
        for n in [
            0,
            1,
            DEFAULT_BLOCK_SIZE - 1,
            DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE + 1,
            300_000,
        ] {
            let data = sample(n);
            let c = blocked_compress_lz4(&data);
            assert_eq!(inner_codec(&c), Some(InnerCodec::Lz4), "n={n}");
            assert!(is_blocked(&c));
            assert_eq!(blocked_decompress(&c).unwrap(), data, "n={n}");
            assert_eq!(blocked_decompress_parallel(&c).unwrap(), data, "n={n}");
        }
        let data = sample(500_000);
        let c = blocked_compress_lz4(&data);
        let idx = BlockIndex::parse(&c).unwrap();
        assert_eq!(idx.codec, InnerCodec::Lz4);
        // Range reads inflate only the touched blocks, same as DEFLATE.
        let got = read_range(&c, 123_456, 10_000).unwrap();
        assert_eq!(got, &data[123_456..133_456]);
        assert!(idx.blocks_for_range(123_456, 10_000).len() <= 2);
        let mut r = BlockedReader::new(&c).unwrap();
        assert_eq!(r.read_at(400_000, 64).unwrap(), &data[400_000..400_064]);
        assert!(r.blocks_inflated() <= 2);
        assert_eq!(verify_blocks(&c).unwrap(), idx.entries.len());
    }

    #[test]
    fn lz4_container_corruption_and_truncation_are_typed() {
        let data = sample(150_000);
        let c = blocked_compress_lz4(&data);
        // A flipped block byte is caught by the per-block checks even
        // when the damaged stream still decodes (CRC backstop).
        let mut bad = c.clone();
        bad[HEADER + 977] ^= 0x40;
        let err = blocked_decompress(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                BlockedError::Lz4 { block: 0, .. }
                    | BlockedError::BlockCrcMismatch { block: 0 }
                    | BlockedError::BlockLenMismatch { block: 0, .. }
            ),
            "{err:?}"
        );
        // Every truncation of the container is a typed error: the index
        // and footer live at the end, so no prefix parses.
        let small = blocked_compress_lz4(&sample(3000));
        for cut in 0..small.len() {
            let err = blocked_decompress(&small[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    BlockedError::BadMagic
                        | BlockedError::Truncated { .. }
                        | BlockedError::CorruptIndex(_)
                ),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn codec_magic_prefixes_are_typed_errors_never_misdetected() {
        // Every proper prefix of either container magic — blocked
        // DEFLATE ("XBC1"), blocked LZ4 ("XBL1") — is not a container:
        // a 3-byte "XBC" must not be blocked, alone or followed by
        // enough bytes to fill a header and footer.
        for magic in [MAGIC, LZ4_MAGIC] {
            for take in 0..magic.len() {
                let prefix = &magic[..take];
                assert!(!is_blocked(prefix), "prefix {prefix:?} of {magic:?}");
                assert!(matches!(
                    BlockIndex::parse(prefix),
                    Err(BlockedError::Truncated { .. })
                ));
                let mut padded = prefix.to_vec();
                padded.resize(HEADER + FOOTER, 0);
                assert!(!is_blocked(&padded));
                assert_eq!(
                    blocked_decompress_parallel(&padded).err(),
                    Some(BlockedError::BadMagic),
                    "prefix {prefix:?} of {magic:?} must not decode"
                );
            }
            // The complete magic alone is a container that fails typed
            // (truncated) — never a panic, never Ok.
            assert!(is_blocked(magic));
            assert!(matches!(
                blocked_decompress_parallel(magic),
                Err(BlockedError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn lz4_codec_dispatch_roundtrip() {
        let data = sample(200_000);
        let fast = blocked_compress_lz4(&data);
        assert_eq!(BlockIndex::parse(&fast).unwrap().codec, InnerCodec::Lz4);
        assert_eq!(blocked_decompress_parallel(&fast).unwrap(), data);
        assert_eq!(
            read_range(&fast, 9_876, 543).unwrap(),
            &data[9_876..9_876 + 543]
        );
        // The two inner codecs stay distinguishable by magic alone.
        let dense = blocked_compress(&data);
        assert_eq!(
            BlockIndex::parse(&dense).unwrap().codec,
            InnerCodec::Deflate
        );
        // LZ4 trades ratio for decode speed: the fast container may be
        // larger, but both reproduce the bytes.
        assert_eq!(
            blocked_decompress_parallel(&dense).unwrap(),
            blocked_decompress_parallel(&fast).unwrap()
        );
    }
}
