//! The qcow2-style image.
//!
//! Structure mirrors qcow2's essentials: a guest (virtual) address space
//! mapped through an L1 table of L2 tables to physical clusters.
//! Unallocated guest ranges read as zeros.

/// Default cluster size exponent: 2^8 = 256 materialized bytes
/// (256 KiB nominal — qcow2's typical 64 KiB–1 MiB range).
pub(crate) const DEFAULT_CLUSTER_BITS: u32 = 8;

/// Entries per L2 table. qcow2 uses cluster_size/8; we keep that density
/// scaled to our cluster size.
const L2_ENTRIES_BITS: u32 = 9; // 512 entries per L2 table

const MAGIC: &[u8; 4] = b"XQC\x02";

/// Errors from image operations.
#[derive(Debug, PartialEq, Eq)]
pub enum QcowError {
    /// Access beyond the virtual disk size.
    OutOfBounds {
        offset: u64,
        len: usize,
        virtual_size: u64,
    },
    /// Serialization payload malformed.
    Corrupt(&'static str),
}

impl std::fmt::Display for QcowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QcowError::OutOfBounds {
                offset,
                len,
                virtual_size,
            } => write!(
                f,
                "access [{offset}, +{len}) beyond virtual size {virtual_size}"
            ),
            QcowError::Corrupt(what) => write!(f, "corrupt image: {what}"),
        }
    }
}

impl std::error::Error for QcowError {}

/// An L2 table: guest-cluster → physical-cluster index (`u64::MAX` =
/// unallocated).
#[derive(Clone)]
struct L2Table {
    entries: Box<[u64]>,
}

impl L2Table {
    fn new() -> Self {
        L2Table {
            entries: vec![u64::MAX; 1 << L2_ENTRIES_BITS].into_boxed_slice(),
        }
    }
}

/// The cluster-mapped disk image.
#[derive(Clone)]
pub struct QcowImage {
    virtual_size: u64,
    cluster_bits: u32,
    /// L1: guest L2-index → L2 table (lazy).
    l1: Vec<Option<L2Table>>,
    /// Physical cluster storage.
    clusters: Vec<Box<[u8]>>,
}

impl QcowImage {
    /// Create an empty image of `virtual_size` materialized bytes.
    pub fn create(virtual_size: u64) -> Self {
        Self::create_with_cluster_bits(virtual_size, DEFAULT_CLUSTER_BITS)
    }

    pub(crate) fn create_with_cluster_bits(virtual_size: u64, cluster_bits: u32) -> Self {
        assert!(
            (4..=20).contains(&cluster_bits),
            "cluster_bits out of range"
        );
        let cluster = 1u64 << cluster_bits;
        let clusters_total = virtual_size.div_ceil(cluster);
        let l2_span = 1u64 << L2_ENTRIES_BITS;
        let l1_len = clusters_total.div_ceil(l2_span) as usize;
        QcowImage {
            virtual_size,
            cluster_bits,
            l1: (0..l1_len).map(|_| None).collect(),
            clusters: Vec::new(),
        }
    }

    pub fn virtual_size(&self) -> u64 {
        self.virtual_size
    }

    pub fn cluster_size(&self) -> u64 {
        1 << self.cluster_bits
    }

    #[inline]
    fn split(&self, guest_cluster: u64) -> (usize, usize) {
        let l1 = (guest_cluster >> L2_ENTRIES_BITS) as usize;
        let l2 = (guest_cluster & ((1 << L2_ENTRIES_BITS) - 1)) as usize;
        (l1, l2)
    }

    fn lookup(&self, guest_cluster: u64) -> Option<u64> {
        let (i1, i2) = self.split(guest_cluster);
        match self.l1.get(i1)?.as_ref() {
            Some(t) => {
                let e = t.entries[i2];
                (e != u64::MAX).then_some(e)
            }
            None => None,
        }
    }

    /// Read `len` bytes at guest offset; unallocated clusters read as zeros.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, QcowError> {
        if offset + len as u64 > self.virtual_size {
            return Err(QcowError::OutOfBounds {
                offset,
                len,
                virtual_size: self.virtual_size,
            });
        }
        let cs = self.cluster_size();
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let pos = offset + done as u64;
            let gc = pos / cs;
            let within = (pos % cs) as usize;
            let take = ((cs as usize) - within).min(len - done);
            if let Some(pc) = self.lookup(gc) {
                out[done..done + take]
                    .copy_from_slice(&self.clusters[pc as usize][within..within + take]);
            }
            done += take;
        }
        Ok(out)
    }

    /// Ensure a guest cluster is allocated, zero-filled if new; returns
    /// the physical index.
    fn ensure_cluster(&mut self, gc: u64) -> u64 {
        if let Some(pc) = self.lookup(gc) {
            return pc;
        }
        let pc = self.push_cluster(&[]);
        self.map(gc, pc);
        pc
    }

    /// Append a physical cluster holding `bytes`, zero-padded to the
    /// cluster size; returns its index.
    fn push_cluster(&mut self, bytes: &[u8]) -> u64 {
        let mut cluster = vec![0u8; self.cluster_size() as usize].into_boxed_slice();
        cluster[..bytes.len()].copy_from_slice(bytes);
        self.clusters.push(cluster);
        (self.clusters.len() - 1) as u64
    }

    /// Point guest cluster `gc` (inside the virtual size) at physical
    /// cluster `pc`, creating its L2 table on first use.
    fn map(&mut self, gc: u64, pc: u64) {
        let (i1, i2) = self.split(gc);
        self.l1[i1].get_or_insert_with(L2Table::new).entries[i2] = pc;
    }

    /// Write bytes at a guest offset (allocating clusters).
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), QcowError> {
        if offset + data.len() as u64 > self.virtual_size {
            return Err(QcowError::OutOfBounds {
                offset,
                len: data.len(),
                virtual_size: self.virtual_size,
            });
        }
        let cs = self.cluster_size();
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let gc = pos / cs;
            let within = (pos % cs) as usize;
            let take = ((cs as usize) - within).min(data.len() - done);
            let pc = self.ensure_cluster(gc);
            self.clusters[pc as usize][within..within + take]
                .copy_from_slice(&data[done..done + take]);
            done += take;
        }
        Ok(())
    }

    /// Number of allocated clusters.
    pub(crate) fn allocated_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Allocated payload bytes + metadata overhead (header, L1, live L2
    /// tables, refcount table) — the image's on-disk footprint, which is
    /// what the Qcow2 baseline accounts.
    pub fn allocated_bytes(&self) -> u64 {
        let payload = self.allocated_clusters() as u64 * self.cluster_size();
        let l2_tables = self.l1.iter().filter(|t| t.is_some()).count() as u64;
        let meta = 64 // header
            + self.l1.len() as u64 * 8
            + l2_tables * ((1 << L2_ENTRIES_BITS) * 8)
            + self.clusters.len() as u64 * 2;
        payload + meta
    }

    /// Serialize the full image (header + mapping + live clusters). The
    /// encoding is deterministic and content-only: images with equal
    /// content serialize identically (dedup and compression baselines
    /// depend on this).
    pub fn serialize(&self) -> Vec<u8> {
        let cs = self.cluster_size() as usize;
        let mut out = Vec::with_capacity(self.allocated_bytes() as usize + 1024);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.virtual_size.to_le_bytes());
        out.extend_from_slice(&self.cluster_bits.to_le_bytes());
        // Mapping: (guest_cluster, cluster bytes) pairs in guest order.
        let mut mapped: Vec<(u64, u64)> = Vec::new();
        for (i1, t) in self.l1.iter().enumerate() {
            if let Some(t) = t {
                for (i2, &e) in t.entries.iter().enumerate() {
                    if e != u64::MAX {
                        let gc = ((i1 as u64) << L2_ENTRIES_BITS) | i2 as u64;
                        mapped.push((gc, e));
                    }
                }
            }
        }
        out.extend_from_slice(&(mapped.len() as u64).to_le_bytes());
        for (gc, pc) in mapped {
            out.extend_from_slice(&gc.to_le_bytes());
            out.extend_from_slice(&self.clusters[pc as usize][..cs]);
        }
        out
    }

    /// Reconstruct an image from [`QcowImage::serialize`] output.
    ///
    /// The stream is untrusted: every malformation — truncation, a
    /// virtual size whose L1 table would exceed a fixed cap, a
    /// guest-cluster key past the virtual size or not strictly above the
    /// one before it, trailing bytes — is [`QcowError::Corrupt`].
    pub fn deserialize(data: &[u8]) -> Result<QcowImage, QcowError> {
        let header = StreamHeader::parse(data)?;
        let mut img = QcowImage::create_with_cluster_bits(header.virtual_size, header.cluster_bits);
        let cs = img.cluster_size() as usize;
        let clusters_total = header.virtual_size.div_ceil(cs as u64);
        let mut pos = STREAM_HEADER as usize;
        let mut next_min = 0u64;
        for _ in 0..header.mapped {
            let gc = le_u64(data, pos)?;
            let bytes = slice_at(data, pos + 8, cs)?;
            if gc >= clusters_total {
                return Err(QcowError::Corrupt("cluster out of range"));
            }
            if gc < next_min {
                return Err(QcowError::Corrupt("cluster keys out of order"));
            }
            next_min = gc + 1;
            let pc = img.push_cluster(bytes);
            img.map(gc, pc);
            pos += 8 + cs;
        }
        if pos != data.len() {
            return Err(QcowError::Corrupt("trailing bytes"));
        }
        Ok(img)
    }

    /// A sparse image over a raw device of `raw.len()` bytes: clusters
    /// holding a nonzero byte are allocated, all-zero ones stay unmapped
    /// and read as zeros (`qemu-img convert -S` on a raw file). The
    /// result reads like `raw` over its whole virtual size.
    pub fn from_raw(raw: &[u8]) -> QcowImage {
        let mut img = QcowImage::create(raw.len() as u64);
        let cs = img.cluster_size() as usize;
        for (gc, chunk) in raw.chunks(cs).enumerate() {
            if chunk.iter().any(|&b| b != 0) {
                let pc = img.push_cluster(chunk);
                img.map(gc as u64, pc);
            }
        }
        img
    }
}

/// Byte length of the serialized-stream header (magic + virtual_size +
/// cluster_bits + mapped count).
pub(crate) const STREAM_HEADER: u64 = 24;

/// The most L1 entries a parsed stream may ask for. 2^16 entries map
/// 2^25 clusters (8 GiB materialized at the default cluster size, three
/// orders of magnitude past any image here), so a forged virtual size is
/// rejected before it can size a table.
const MAX_L1_ENTRIES: u64 = 1 << 16;

/// `len` bytes of `data` at `at`, or `Corrupt("truncated")`.
fn slice_at(data: &[u8], at: usize, len: usize) -> Result<&[u8], QcowError> {
    at.checked_add(len)
        .and_then(|end| data.get(at..end))
        .ok_or(QcowError::Corrupt("truncated"))
}

fn le_u64(data: &[u8], at: usize) -> Result<u64, QcowError> {
    let mut word = [0u8; 8];
    word.copy_from_slice(slice_at(data, at, 8)?);
    Ok(u64::from_le_bytes(word))
}

fn le_u32(data: &[u8], at: usize) -> Result<u32, QcowError> {
    let mut word = [0u8; 4];
    word.copy_from_slice(slice_at(data, at, 4)?);
    Ok(u32::from_le_bytes(word))
}

/// The fixed header of a [`QcowImage::serialize`] stream, validated.
struct StreamHeader {
    virtual_size: u64,
    cluster_bits: u32,
    mapped: u64,
}

impl StreamHeader {
    fn parse(data: &[u8]) -> Result<StreamHeader, QcowError> {
        let data = slice_at(data, 0, STREAM_HEADER as usize)?;
        if &data[0..4] != MAGIC {
            return Err(QcowError::Corrupt("bad magic"));
        }
        let virtual_size = le_u64(data, 4)?;
        let cluster_bits = le_u32(data, 12)?;
        if !(4..=20).contains(&cluster_bits) {
            return Err(QcowError::Corrupt("bad cluster bits"));
        }
        let l1_len = virtual_size
            .div_ceil(1 << cluster_bits)
            .div_ceil(1 << L2_ENTRIES_BITS);
        if l1_len > MAX_L1_ENTRIES {
            return Err(QcowError::Corrupt("virtual size too large"));
        }
        Ok(StreamHeader {
            virtual_size,
            cluster_bits,
            mapped: le_u64(data, 16)?,
        })
    }
}

/// Read `[start, start+len)` of the *virtual disk* directly from a
/// [`QcowImage::serialize`] stream without materializing the image.
///
/// `fetch(off, len)` returns `len` bytes at stream offset `off`; the
/// caller backs it with the raw stream or with a blocked-container
/// reader, so only the compressed blocks the answer needs are ever
/// inflated. The function touches: the fixed header, O(log mapped)
/// 8-byte guest-cluster keys per cluster of the span (binary search
/// over the guest-ordered mapping, with a monotonic hint so sequential
/// clusters don't restart the search), and the overlapping cluster
/// payload slices. Unmapped clusters read as zeros; the range clamps
/// to the virtual size like a slice. A mapping key it meets past the
/// virtual size is `Corrupt`.
pub fn read_serialized_range<F>(mut fetch: F, start: u64, len: u64) -> Result<Vec<u8>, QcowError>
where
    F: FnMut(u64, u64) -> Result<Vec<u8>, QcowError>,
{
    let header = StreamHeader::parse(&fetch(0, STREAM_HEADER)?)?;
    let cs = 1u64 << header.cluster_bits;
    let clusters_total = header.virtual_size.div_ceil(cs);
    let entry_len = 8 + cs;
    // Stream offset of mapping entry `i` (plus `within`), checked: the
    // mapped count is untrusted.
    let entry_at = |i: u64, within: u64| {
        i.checked_mul(entry_len)
            .and_then(|o| o.checked_add(STREAM_HEADER + within))
            .ok_or(QcowError::Corrupt("mapping offset overflows"))
    };
    let end = start.saturating_add(len).min(header.virtual_size);
    if start >= end {
        return Ok(Vec::new());
    }
    let mut out = vec![0u8; (end - start) as usize];
    let mut done = 0u64;
    // Mapping keys are strictly increasing in guest order, so once a
    // cluster is located every later cluster lives at a higher index.
    let mut lo_hint = 0u64;
    while start + done < end {
        let pos = start + done;
        let gc = pos / cs;
        let within = pos % cs;
        let take = (cs - within).min(end - pos);
        let (mut lo, mut hi) = (lo_hint, header.mapped);
        let mut found = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let k = le_u64(&fetch(entry_at(mid, 0)?, 8)?, 0)?;
            if k >= clusters_total {
                return Err(QcowError::Corrupt("cluster out of range"));
            }
            match k.cmp(&gc) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    found = Some(mid);
                    break;
                }
            }
        }
        if let Some(i) = found {
            let bytes = fetch(entry_at(i, 8 + within)?, take)?;
            if bytes.len() as u64 != take {
                return Err(QcowError::Corrupt("truncated"));
            }
            out[done as usize..(done + take) as usize].copy_from_slice(&bytes);
            lo_hint = i + 1;
        } else {
            lo_hint = lo; // unmapped: zeros stay
        }
        done += take;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_image_reads_zero() {
        let img = QcowImage::create(10_000);
        let data = img.read_at(0, 100).unwrap();
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(img.allocated_clusters(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut img = QcowImage::create(100_000);
        let payload: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        img.write_at(12_345, &payload).unwrap();
        assert_eq!(img.read_at(12_345, payload.len()).unwrap(), payload);
        // Surrounding bytes untouched.
        assert!(img.read_at(0, 100).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut img = QcowImage::create(1000);
        assert!(matches!(
            img.write_at(990, &[0u8; 20]),
            Err(QcowError::OutOfBounds { .. })
        ));
        assert!(img.read_at(1001, 1).is_err());
    }

    #[test]
    fn allocation_is_cluster_granular() {
        let mut img = QcowImage::create(100_000);
        img.write_at(0, &[1]).unwrap();
        assert_eq!(img.allocated_clusters(), 1);
        img.write_at(5, &[2]).unwrap(); // same cluster
        assert_eq!(img.allocated_clusters(), 1);
        img.write_at(img.cluster_size(), &[3]).unwrap(); // next cluster
        assert_eq!(img.allocated_clusters(), 2);
    }

    #[test]
    fn serialize_roundtrip() {
        let mut img = QcowImage::create(50_000);
        img.write_at(1000, b"hello qcow").unwrap();
        img.write_at(30_000, &[0xAB; 600]).unwrap();
        let bytes = img.serialize();
        let back = QcowImage::deserialize(&bytes).unwrap();
        assert_eq!(back.virtual_size(), 50_000);
        assert_eq!(back.read_at(1000, 10).unwrap(), b"hello qcow");
        assert_eq!(back.read_at(30_000, 600).unwrap(), vec![0xAB; 600]);
        assert_eq!(back.allocated_clusters(), img.allocated_clusters());
    }

    #[test]
    fn serialize_is_deterministic() {
        let build = || {
            let mut img = QcowImage::create(20_000);
            img.write_at(0, b"aaa").unwrap();
            img.write_at(9_000, b"bbb").unwrap();
            img.serialize()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let mut img = QcowImage::create(10_000);
        img.write_at(0, b"x").unwrap();
        let mut bytes = img.serialize();
        bytes[0] ^= 0xFF;
        assert!(QcowImage::deserialize(&bytes).is_err());
        let ser = img.serialize();
        assert!(QcowImage::deserialize(&ser[..ser.len() - 1]).is_err());
    }

    /// A two-cluster stream whose fields the hostile cases overwrite.
    fn two_cluster_stream() -> Vec<u8> {
        let mut img = QcowImage::create(10_000);
        img.write_at(0, b"first").unwrap();
        img.write_at(img.cluster_size() * 3, b"second").unwrap();
        img.serialize()
    }

    #[test]
    fn deserialize_rejects_a_key_whose_offset_overflows() {
        let mut bytes = two_cluster_stream();
        bytes[24..32].copy_from_slice(&(1u64 << 63).to_le_bytes());
        let err = Some(QcowError::Corrupt("cluster out of range"));
        assert_eq!(QcowImage::deserialize(&bytes).err(), err);
        // The range reader meets the forged key in its binary search.
        let fetch = |off: u64, len: u64| Ok(bytes[off as usize..(off + len) as usize].to_vec());
        assert_eq!(read_serialized_range(fetch, 0, 8).err(), err);
    }

    #[test]
    fn forged_virtual_size_is_rejected_before_sizing_l1() {
        let mut bytes = two_cluster_stream();
        // Bit 6 of header byte 11: a virtual size of 2^62.
        bytes[11] ^= 0x40;
        let err = Some(QcowError::Corrupt("virtual size too large"));
        assert_eq!(QcowImage::deserialize(&bytes).err(), err);
        let fetch = |off: u64, len: u64| Ok(bytes[off as usize..(off + len) as usize].to_vec());
        assert_eq!(read_serialized_range(fetch, 0, 8).err(), err);
    }

    #[test]
    fn deserialize_rejects_keys_out_of_order() {
        let bytes = two_cluster_stream();
        let cs = 1usize << DEFAULT_CLUSTER_BITS;
        let (first, second) = (24..24 + 8 + cs, 24 + 8 + cs..bytes.len());
        let mut swapped = bytes[..24].to_vec();
        swapped.extend_from_slice(&bytes[second]);
        swapped.extend_from_slice(&bytes[first.clone()]);
        let order = Some(QcowError::Corrupt("cluster keys out of order"));
        assert_eq!(QcowImage::deserialize(&swapped).err(), order);
        let mut repeated = bytes[..24].to_vec();
        repeated.extend_from_slice(&bytes[first.clone()]);
        repeated.extend_from_slice(&bytes[first]);
        assert_eq!(QcowImage::deserialize(&repeated).err(), order);
    }

    #[test]
    fn from_raw_reads_like_the_device_and_skips_zero_clusters() {
        let mut img = QcowImage::create(5_000);
        let cs = img.cluster_size();
        img.write_at(cs, &vec![0u8; cs as usize]).unwrap(); // allocated zeros
        img.write_at(10, b"head").unwrap();
        img.write_at(4_990, b"tail-bytes").unwrap(); // the short last cluster
        let raw = img.read_at(0, 5_000).unwrap();
        let sparse = QcowImage::from_raw(&raw);
        assert_eq!(sparse.virtual_size(), 5_000);
        assert_eq!(sparse.read_at(0, 5_000).unwrap(), raw);
        assert_eq!(sparse.allocated_clusters(), img.allocated_clusters() - 1);
    }

    #[test]
    fn allocated_bytes_includes_metadata() {
        let mut img = QcowImage::create(1_000_000);
        assert!(img.allocated_bytes() > 0, "metadata even when empty");
        let before = img.allocated_bytes();
        img.write_at(0, &[1u8; 300]).unwrap();
        assert!(img.allocated_bytes() > before);
    }

    #[test]
    fn serialized_range_matches_read_at() {
        let mut img = QcowImage::create(200_000);
        let big: Vec<u8> = (0..80_000u32).map(|i| (i % 253) as u8).collect();
        img.write_at(1000, &big).unwrap();
        img.write_at(99_990, b"straddles a cluster").unwrap();
        img.write_at(180_000, &[9; 100]).unwrap();
        let stream = img.serialize();
        let mut fetched = 0u64;
        let mut fetch = |off: u64, len: u64| {
            let end = (off + len).min(stream.len() as u64);
            let off = off.min(end);
            fetched += end - off;
            Ok(stream[off as usize..end as usize].to_vec())
        };
        for (start, len) in [
            (0u64, 100u64),
            (999, 5002),    // mapped span with edges
            (90_000, 1000), // unmapped (zeros)
            (99_980, 50),   // straddles cluster + zero boundary
            (199_990, 500), // clamps at virtual size
            (300_000, 10),  // fully past the end
            (0, 0),
        ] {
            let got = read_serialized_range(&mut fetch, start, len).unwrap();
            let end = (start + len).min(200_000);
            let expect = if start >= end {
                Vec::new()
            } else {
                img.read_at(start, (end - start) as usize).unwrap()
            };
            assert_eq!(got, expect, "range [{start}, +{len})");
        }
        // The point of the exercise: far less than the whole stream moved.
        assert!(
            fetched < stream.len() as u64 / 2,
            "{fetched} of {} stream bytes fetched",
            stream.len()
        );
    }

    #[test]
    fn serialized_range_rejects_garbage() {
        let err = read_serialized_range(|_o, _l| Ok(vec![0u8; 24]), 0, 10);
        assert_eq!(err, Err(QcowError::Corrupt("bad magic")));
        let err = read_serialized_range(|_o, _l| Ok(Vec::new()), 0, 10);
        assert_eq!(err, Err(QcowError::Corrupt("truncated")));
    }

    #[test]
    fn cross_cluster_write() {
        let mut img = QcowImage::create(10_000);
        let cs = img.cluster_size();
        let data: Vec<u8> = (0..cs as usize * 2 + 37).map(|i| (i % 255) as u8).collect();
        img.write_at(cs - 10, &data).unwrap();
        assert_eq!(img.read_at(cs - 10, data.len()).unwrap(), data);
    }
}
