//! Property-based tests over the core substrates (DESIGN.md §8).

use proptest::prelude::*;

// ---------------------------------------------------------------- compress

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deflate_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let compressed = expelliarmus::compress::deflate(&data);
        let back = expelliarmus::compress::inflate(&compressed).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn deflate_roundtrip_with_repetition(
        seed in any::<u64>(),
        len in 0usize..30_000,
        period in 1usize..512,
    ) {
        // Periodic data stresses the LZ77 matcher.
        let mut rng = expelliarmus::util::SplitMix64::new(seed);
        let pattern: Vec<u8> = (0..period).map(|_| rng.next_u64() as u8).collect();
        let data: Vec<u8> = (0..len).map(|i| pattern[i % period]).collect();
        let c = expelliarmus::compress::deflate(&data);
        prop_assert_eq!(expelliarmus::compress::inflate(&c).unwrap(), data);
    }
}

// ---------------------------------------------------------------- chunking

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunks_reassemble_exactly(
        data in proptest::collection::vec(any::<u8>(), 0..50_000),
        avg_pow in 8u32..13,
    ) {
        use expelliarmus::chunking::rabin::{chunk_cdc, CdcParams};
        let spans = chunk_cdc(&data, CdcParams::with_avg(1 << avg_pow));
        prop_assert!(expelliarmus::chunking::spans_cover(&spans, data.len()));
        let mut rebuilt = Vec::with_capacity(data.len());
        for s in &spans {
            rebuilt.extend_from_slice(&data[s.offset..s.offset + s.len]);
        }
        prop_assert_eq!(rebuilt, data);
    }

    #[test]
    fn fixed_chunks_reassemble(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        block in 1usize..5_000,
    ) {
        let spans = expelliarmus::chunking::fixed::chunk_fixed(&data, block);
        prop_assert!(expelliarmus::chunking::spans_cover(&spans, data.len()));
    }
}

// ------------------------------------------------------------------- pkg

fn version_strategy() -> impl Strategy<Value = String> {
    (
        0u32..3,
        proptest::collection::vec(0u32..40, 1..4),
        proptest::option::of("[a-z]{1,3}[0-9]{0,2}"),
    )
        .prop_map(|(epoch, parts, suffix)| {
            let nums: Vec<String> = parts.iter().map(u32::to_string).collect();
            let mut v = String::new();
            if epoch > 0 {
                v.push_str(&format!("{epoch}:"));
            }
            v.push_str(&nums.join("."));
            if let Some(s) = suffix {
                v.push('~');
                v.push_str(&s);
            }
            v
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn version_ordering_is_total_and_consistent(
        a in version_strategy(),
        b in version_strategy(),
        c in version_strategy(),
    ) {
        use expelliarmus::pkg::Version;
        use std::cmp::Ordering;
        let (va, vb, vc) = (Version::parse(&a), Version::parse(&b), Version::parse(&c));
        // Antisymmetry.
        prop_assert_eq!(va.cmp(&vb), vb.cmp(&va).reverse());
        // Reflexivity.
        prop_assert_eq!(va.cmp(&va), Ordering::Equal);
        // Transitivity (spot form): if a<=b and b<=c then a<=c.
        if va <= vb && vb <= vc {
            prop_assert!(va <= vc, "{} <= {} <= {} but not {} <= {}", va, vb, vc, va, vc);
        }
    }

    #[test]
    fn version_bump_is_strictly_greater(v in version_strategy(), by in 1u32..5) {
        use expelliarmus::pkg::Version;
        let base = Version::parse(&v);
        prop_assert!(base.bumped(by) > base);
    }

    #[test]
    fn version_display_parse_roundtrip(v in version_strategy()) {
        use expelliarmus::pkg::Version;
        let parsed = Version::parse(&v);
        let reparsed = Version::parse(&parsed.to_string());
        prop_assert_eq!(parsed, reparsed);
    }
}

// ------------------------------------------------------------------- util

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..4_096),
        splits in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        use expelliarmus::util::Sha256;
        let oneshot = Sha256::digest(&data);
        let mut points: Vec<usize> = splits.iter().map(|i| i.index(data.len() + 1)).collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for p in points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let encoded = expelliarmus::util::hex::encode(&data);
        prop_assert_eq!(expelliarmus::util::hex::decode(&encoded).unwrap(), data);
    }

    #[test]
    fn content_generation_deterministic(seed in any::<u64>(), len in 0usize..4_096) {
        let a = expelliarmus::pkg::content::generate(seed, len);
        let b = expelliarmus::pkg::content::generate(seed, len);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), len);
    }
}

// ------------------------------------------------------------------ vdisk

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn qcow_write_read_consistency(
        writes in proptest::collection::vec(
            (0u64..40_000, proptest::collection::vec(any::<u8>(), 1..600)),
            1..12,
        ),
    ) {
        use expelliarmus::vdisk::QcowImage;
        let mut img = QcowImage::create(50_000);
        let mut shadow = vec![0u8; 50_000];
        for (offset, data) in &writes {
            img.write_at(*offset, data).unwrap();
            shadow[*offset as usize..*offset as usize + data.len()].copy_from_slice(data);
        }
        // Serialized roundtrip preserves every byte.
        let restored = QcowImage::deserialize(&img.serialize()).unwrap();
        let all = restored.read_at(0, 50_000).unwrap();
        prop_assert_eq!(all, shadow);
    }
}

// ------------------------------------------------------------------ metadb

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn metadb_rollback_restores_state(
        keep in proptest::collection::vec("[a-z]{1,8}", 1..6),
        tx in proptest::collection::vec("[a-z]{1,8}", 1..6),
    ) {
        use expelliarmus::metadb::{ColumnDef, Database, Schema, Value};
        let mut db = Database::new();
        db.create_table(Schema::new("t", vec![ColumnDef::indexed("k")])).unwrap();
        let mut kept = Vec::new();
        for k in &keep {
            kept.push(db.insert("t", vec![Value::from(k.as_str())]).unwrap());
        }
        db.begin();
        let mut tx_ids = Vec::new();
        for k in &tx {
            tx_ids.push(db.insert("t", vec![Value::from(k.as_str())]).unwrap());
        }
        for id in &kept {
            db.delete("t", *id).unwrap();
        }
        db.rollback().unwrap();
        // Semantic equality: kept rows restored with their values, tx rows
        // gone, indexes consistent. (`next_id` deliberately never rolls
        // back — row ids are not reused, like SQLite AUTOINCREMENT.)
        for (id, k) in kept.iter().zip(&keep) {
            let row = db.get("t", *id).unwrap();
            prop_assert_eq!(row, Some(&[Value::from(k.as_str())][..]));
            prop_assert!(db.find_by("t", "k", &Value::from(k.as_str())).unwrap().contains(id));
        }
        for id in &tx_ids {
            prop_assert_eq!(db.get("t", *id).unwrap(), None);
        }
    }
}
