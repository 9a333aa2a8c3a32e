//! The benchmark's vocabulary: workload names and every metric with its
//! unit. `BENCHMARK.json` at the repo root carries the same lists (plus
//! direction and regression bound); a test pins the two together.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = [
    "paper_lifecycle",
    "baseline_blobs",
    "churn_durable",
    "wire_serve",
];

/// What a user of the repository sees. Every workload reports every one
/// of these in its untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("publish_p50_ms", "ms"),
    ("retrieve_p50_ms", "ms"),
    ("retrieve_p90_ms", "ms"),
    ("range_p50_ms", "ms"),
    ("delete_p50_ms", "ms"),
    ("publish_mib_per_s", "MiB/s"),
    ("retrieve_mib_per_s", "MiB/s"),
    ("repo_bytes_per_image_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer ledger of the traced run. `run.*` are span means of the
/// workload's own ops; counts come from the `xpl_obs::Registry` and the
/// counting `Vfs` attached to the workload's real run (0 where the layer
/// is idle); everything else is a layer probe over a seeded sample of the
/// workload's own images.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The traced run itself.
    ("run.publish_ms", "ms"),
    ("run.retrieve_ms", "ms"),
    ("run.range_ms", "ms"),
    ("run.delete_us", "us"),
    ("obs.trace_overhead_frac", "frac"),
    // xpl-guestfs
    ("guestfs.mkfs_ms", "ms"),
    ("guestfs.vmi_clone_ms", "ms"),
    ("guestfs.strip_ms", "ms"),
    ("guestfs.export_deb_us", "us"),
    ("guestfs.install_pkg_us", "us"),
    ("guestfs.range_extents_us", "us"),
    // xpl-core
    ("core.publish_ms", "ms"),
    ("core.retrieve_ms", "ms"),
    ("core.range_ms", "ms"),
    ("core.delete_us", "us"),
    ("core.analyze_ms", "ms"),
    ("core.select_base_us", "us"),
    ("core.publish_unattributed_frac", "frac"),
    ("core.retrieve_unattributed_frac", "frac"),
    // xpl-semgraph
    ("semgraph.sim_g_us", "us"),
    ("semgraph.absorb_us", "us"),
    ("semgraph.master_vertices", "count"),
    // xpl-pkg
    ("pkg.install_closure_us", "us"),
    // xpl-vdisk
    ("vdisk.serialize_mib_per_s", "MiB/s"),
    ("vdisk.deserialize_mib_per_s", "MiB/s"),
    ("vdisk.read_at_us", "us"),
    // xpl-util
    ("util.sha256_mib_per_s", "MiB/s"),
    ("util.crc32_mib_per_s", "MiB/s"),
    // xpl-chunking
    ("chunking.cdc_mib_per_s", "MiB/s"),
    ("chunking.chunks_per_mib", "1/MiB"),
    // xpl-compress
    ("compress.deflate_mib_per_s", "MiB/s"),
    ("compress.inflate_mib_per_s", "MiB/s"),
    ("compress.lz4_compress_mib_per_s", "MiB/s"),
    ("compress.lz4_decompress_mib_per_s", "MiB/s"),
    ("compress.deflate_ratio", "ratio"),
    ("compress.lz4_ratio", "ratio"),
    ("compress.range_blocks_per_read", "count"),
    // xpl-store
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.get_range_us", "us"),
    ("store.release_us", "us"),
    ("store.maintain_ms", "ms"),
    ("store.put_new", "count"),
    ("store.put_dedup", "count"),
    ("store.dedup_hit_ratio", "ratio"),
    ("store.encoded_bytes_per_logical_byte", "ratio"),
    ("store.promoted", "count"),
    // xpl-persist
    ("persist.put_us", "us"),
    ("persist.get_us", "us"),
    ("persist.release_us", "us"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.open_ms", "ms"),
    ("persist.vfs_sync_us", "us"),
    ("persist.wal_appends", "count"),
    ("persist.checkpoints", "count"),
    ("persist.segment_bytes", "bytes"),
    ("persist.bytes_written_per_user_byte", "ratio"),
    ("persist.vfs_syncs", "count"),
    ("persist.vfs_append_bytes", "bytes"),
    ("persist.disk_bytes_per_live_byte", "ratio"),
    // xpl-metadb
    ("metadb.insert_us", "us"),
    // xpl-baselines
    ("baselines.qcow2.publish_ms", "ms"),
    ("baselines.qcow2.retrieve_ms", "ms"),
    ("baselines.qcow2.range_ms", "ms"),
    ("baselines.qcow2.repo_bytes", "bytes"),
    ("baselines.gzip.publish_ms", "ms"),
    ("baselines.gzip.retrieve_ms", "ms"),
    ("baselines.gzip.range_ms", "ms"),
    ("baselines.gzip.repo_bytes", "bytes"),
    ("baselines.mirage.publish_ms", "ms"),
    ("baselines.mirage.retrieve_ms", "ms"),
    ("baselines.mirage.range_ms", "ms"),
    ("baselines.mirage.repo_bytes", "bytes"),
    ("baselines.hemera.publish_ms", "ms"),
    ("baselines.hemera.retrieve_ms", "ms"),
    ("baselines.hemera.range_ms", "ms"),
    ("baselines.hemera.repo_bytes", "bytes"),
    ("baselines.cdc.publish_ms", "ms"),
    ("baselines.cdc.retrieve_ms", "ms"),
    ("baselines.cdc.range_ms", "ms"),
    ("baselines.cdc.repo_bytes", "bytes"),
    // xpl-simio: the model beside the machine.
    ("simio.publish_sim_s", "sim_s"),
    ("simio.retrieve_sim_s", "sim_s"),
    ("simio.publish_sim_per_wall", "ratio"),
    ("simio.retrieve_sim_per_wall", "ratio"),
    // xpl-registry
    ("registry.admit_ns", "ns"),
    ("registry.overloads", "count"),
    // xpl-net
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.loopback_rtt_us", "us"),
    ("net.overhead_us", "us"),
    ("net.capacity_per_s", "1/s"),
    ("net.load20.p50_ms", "ms"),
    ("net.load50.p50_ms", "ms"),
    ("net.load80.p50_ms", "ms"),
    ("net.gen_late_p99_us", "us"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    // xpl-workloads
    ("workloads.build_image_ms", "ms"),
];

/// Named values of one run, each checked against the list it belongs to.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`; panics on a name in neither list (a harness bug,
    /// caught by the smoke test) and on a non-finite value.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's vocabulary"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(known.0, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    /// The values of `list` in list order; panics if one was never set.
    pub fn in_order(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        list.iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|entry| {
                    fields
                        .iter()
                        .map(|f| {
                            entry
                                .get(f)
                                .and_then(Json::as_str)
                                .unwrap_or_else(|| panic!("{key} entry has a string {f}"))
                                .to_string()
                        })
                        .collect()
                })
                .collect()
        };
        let pairs = |list: &[(&str, &str)]| -> Vec<Vec<String>> {
            list.iter()
                .map(|(n, u)| vec![n.to_string(), u.to_string()])
                .collect()
        };
        let workloads: Vec<Vec<String>> = WORKLOADS.iter().map(|w| vec![w.to_string()]).collect();
        assert_eq!(names("workloads", &["name"]), workloads);
        assert_eq!(names("end_to_end", &["name", "unit"]), pairs(END_TO_END));
        assert_eq!(names("per_layer", &["name", "unit"]), pairs(PER_LAYER));
        for entry in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert!((0.0..=0.25).contains(&bound));
        }
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's vocabulary")]
    fn unknown_metric_names_are_rejected() {
        Metrics::default().set("made_up_ms", 1.0);
    }
}
