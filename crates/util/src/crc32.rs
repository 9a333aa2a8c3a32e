//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Checks the blocked compression container's index and blocks, the
//! persist segment, WAL and manifest records, and the wire frames.
//! Slice-by-8 table-driven: eight derived tables let the hot loop fold
//! one 64-bit word per step instead of one byte, producing the same CRC
//! values as the classic byte-wise form.

/// Streaming CRC-32 state.
#[derive(Clone)]
pub struct Crc32 {
    value: u32,
}

const POLY: u32 = 0xEDB8_8320;

fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        // t[k][i] = CRC of byte i followed by k zero bytes.
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { value: 0xFFFF_FFFF }
    }

    /// One-shot CRC of a byte slice.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(data);
        c.finalize()
    }

    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut c = self.value;
        let mut chunks = data.chunks_exact(8);
        for ch in chunks.by_ref() {
            let lo = u32::from_le_bytes(ch[0..4].try_into().unwrap()) ^ c;
            let hi = u32::from_le_bytes(ch[4..8].try_into().unwrap());
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.value = c;
    }

    pub fn finalize(&self) -> u32 {
        self.value ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::checksum(b""), 0);
        assert_eq!(Crc32::checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(Crc32::checksum(b"abc"), 0x3524_41C2);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|x| (x * 31 % 256) as u8).collect();
        let one = Crc32::checksum(&data);
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), one);
    }

    #[test]
    fn differs_on_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let base = Crc32::checksum(&data);
        data[17] ^= 0x04;
        assert_ne!(Crc32::checksum(&data), base);
    }
}
