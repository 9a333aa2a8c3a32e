//! Deterministic lifecycle traces.
//!
//! A [`Trace`] is a seeded sequence of repository lifecycle operations —
//! publish, retrieve (whole-image and byte-range), upgrade-and-republish,
//! delete, and flash-crowd retrieval bursts — over a catalog of image
//! names. The generator is a
//! SplitMix64-threaded state machine: the same seed over the same name
//! list produces a byte-identical trace (see [`Trace::render`]), which
//! is what lets the churn oracle assert reproducibility end to end.
//!
//! Ops only ever reference *live* images (published and not deleted), so
//! any replay failure is a store bug, not a generator artifact. Deleted
//! images may be re-published later at a bumped generation — the
//! re-publish path one-shot experiments never exercise.

use xpl_util::{Sha256, SplitMix64};

/// One lifecycle operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// First-time publish, or re-publish after a delete.
    Publish { image: String, generation: u32 },
    /// Retrieve the image's current generation.
    Retrieve { image: String },
    /// Retrieve only a byte range of the image's disk. `start_frac` is
    /// a position in 1/256ths of the disk (the generator does not know
    /// disk sizes; the replayer scales it), `len` is in bytes.
    RetrieveRange {
        image: String,
        start_frac: u32,
        len: u32,
    },
    /// Upgrade-and-republish: same name, next generation.
    Upgrade { image: String, generation: u32 },
    /// Remove the image from the repository.
    Delete { image: String },
    /// Flash crowd: `count` back-to-back retrievals.
    Burst { image: String, count: u32 },
    /// Temperature-driven maintenance: every store re-encodes hot
    /// content onto its fast codec and demotes cooled content, per its
    /// tier policy. Logical content is pinned; a no-op for untiered
    /// stores.
    Maintain,
    /// Power-cut the durable medium (torn WAL tail, unsynced bytes
    /// lost). A no-op for purely in-memory replicas.
    Crash,
    /// Reopen the durable store from the medium: manifest load + WAL
    /// replay; the oracle checks the recovered state converges to the
    /// uncrashed in-memory run.
    Recover,
}

impl TraceOp {
    /// Canonical one-line form (the byte-identity the oracle hashes).
    pub fn render(&self) -> String {
        match self {
            TraceOp::Publish { image, generation } => format!("publish {image} gen={generation}"),
            TraceOp::Retrieve { image } => format!("retrieve {image}"),
            TraceOp::RetrieveRange {
                image,
                start_frac,
                len,
            } => format!("range {image} frac={start_frac} len={len}"),
            TraceOp::Upgrade { image, generation } => format!("upgrade {image} gen={generation}"),
            TraceOp::Delete { image } => format!("delete {image}"),
            TraceOp::Burst { image, count } => format!("burst {image} x{count}"),
            TraceOp::Maintain => "maintain".to_string(),
            TraceOp::Crash => "crash".to_string(),
            TraceOp::Recover => "recover".to_string(),
        }
    }
}

/// Generator parameters. The op mix is fixed; scale comes from `ops`.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    pub seed: u64,
    /// Number of trace entries (a burst counts as one entry).
    pub ops: usize,
}

/// A generated lifecycle trace.
#[derive(Clone, Debug)]
pub struct Trace {
    pub seed: u64,
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Generate a trace over `images` (catalog order matters: it seeds
    /// the publish order).
    pub fn generate(images: &[String], cfg: &TraceConfig) -> Trace {
        assert!(!images.is_empty(), "trace needs at least one image");
        let mut rng = SplitMix64::new(cfg.seed).derive("lifecycle-trace");
        let mut pool: Vec<String> = images.to_vec();
        pool.reverse(); // pop() takes catalog order
        let mut retired: Vec<(String, u32)> = Vec::new();
        let mut live: Vec<(String, u32)> = Vec::new();
        let mut ops = Vec::with_capacity(cfg.ops);

        while ops.len() < cfg.ops {
            let roll = rng.next_f64();
            let op = if live.is_empty() || (roll < 0.18 && !(pool.is_empty() && retired.is_empty()))
            {
                // Publish: fresh catalog images first, then resurrect
                // deleted ones at a bumped generation.
                let (image, generation) = if let Some(name) = pool.pop() {
                    (name, 0)
                } else {
                    let idx = rng.next_below(retired.len() as u64) as usize;
                    let (name, gen) = retired.swap_remove(idx);
                    (name, gen + 1)
                };
                live.push((image.clone(), generation));
                TraceOp::Publish { image, generation }
            } else {
                let idx = rng.next_below(live.len() as u64) as usize;
                if roll < 0.54 {
                    TraceOp::Retrieve {
                        image: live[idx].0.clone(),
                    }
                } else if roll < 0.60 {
                    TraceOp::RetrieveRange {
                        image: live[idx].0.clone(),
                        start_frac: rng.next_below(256) as u32,
                        len: rng.next_range(512, 16 * 1024) as u32,
                    }
                } else if roll < 0.75 {
                    live[idx].1 += 1;
                    TraceOp::Upgrade {
                        image: live[idx].0.clone(),
                        generation: live[idx].1,
                    }
                } else if roll < 0.85 && live.len() > 2 {
                    let (image, gen) = live.swap_remove(idx);
                    retired.push((image.clone(), gen));
                    TraceOp::Delete { image }
                } else if roll < 0.88 {
                    TraceOp::Maintain
                } else {
                    TraceOp::Burst {
                        image: live[idx].0.clone(),
                        count: rng.next_range(3, 8) as u32,
                    }
                }
            };
            ops.push(op);
        }
        Trace {
            seed: cfg.seed,
            ops,
        }
    }

    /// Inject `count` crash-recovery pairs at deterministic positions:
    /// a `Crash` immediately followed by a `Recover`, never before the
    /// first op (crashing an empty repository recovers trivially).
    /// Positions derive from `seed` alone, so the same call on the
    /// same trace is byte-identical.
    pub fn inject_crashes(&mut self, seed: u64, count: usize) {
        if self.ops.is_empty() || count == 0 {
            return;
        }
        let mut rng = SplitMix64::new(seed).derive("crash-injection");
        let mut positions: Vec<usize> = (0..count)
            .map(|_| 1 + rng.next_below(self.ops.len() as u64) as usize)
            .collect();
        // Insert back-to-front so earlier positions stay valid.
        positions.sort_unstable();
        for &pos in positions.iter().rev() {
            self.ops.insert(pos, TraceOp::Recover);
            self.ops.insert(pos, TraceOp::Crash);
        }
    }

    /// Canonical textual form, one op per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.render());
            out.push('\n');
        }
        out
    }

    /// SHA-256 of [`Trace::render`] — the reproducibility fingerprint.
    pub fn digest_hex(&self) -> String {
        Sha256::digest(self.render().as_bytes()).to_hex()
    }

    /// Count ops of each kind: (publish, retrieve, upgrade, delete,
    /// burst). Range retrievals count as retrieves here.
    pub fn mix(&self) -> (usize, usize, usize, usize, usize) {
        let mut m = (0, 0, 0, 0, 0);
        for op in &self.ops {
            match op {
                TraceOp::Publish { .. } => m.0 += 1,
                TraceOp::Retrieve { .. } | TraceOp::RetrieveRange { .. } => m.1 += 1,
                TraceOp::Upgrade { .. } => m.2 += 1,
                TraceOp::Delete { .. } => m.3 += 1,
                TraceOp::Burst { .. } => m.4 += 1,
                TraceOp::Maintain | TraceOp::Crash | TraceOp::Recover => {}
            }
        }
        m
    }

    /// Count of maintenance ops (tallied separately from [`Trace::mix`],
    /// like crashes: maintenance touches no image).
    pub fn maintains(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Maintain))
            .count()
    }

    /// Count of injected crash-recovery pairs.
    pub fn crashes(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Crash))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Trace {
        /// Count of range-retrieval ops.
        fn range_retrieves(&self) -> usize {
            self.ops
                .iter()
                .filter(|op| matches!(op, TraceOp::RetrieveRange { .. }))
                .count()
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("img-{i:03}")).collect()
    }

    #[test]
    fn same_seed_byte_identical() {
        let cfg = TraceConfig { seed: 99, ops: 400 };
        let a = Trace::generate(&names(20), &cfg);
        let b = Trace::generate(&names(20), &cfg);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.digest_hex(), b.digest_hex());
    }

    #[test]
    fn different_seed_differs() {
        let a = Trace::generate(&names(20), &TraceConfig { seed: 1, ops: 200 });
        let b = Trace::generate(&names(20), &TraceConfig { seed: 2, ops: 200 });
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn all_op_kinds_appear_at_scale() {
        let t = Trace::generate(&names(24), &TraceConfig { seed: 7, ops: 500 });
        let (p, r, u, d, b) = t.mix();
        assert_eq!(p + r + u + d + b + t.maintains(), 500);
        assert!(p > 0 && r > 0 && u > 0 && d > 0 && b > 0, "{:?}", t.mix());
        assert!(t.maintains() > 0, "no maintenance ops at scale");
        assert!(t.range_retrieves() > 0, "no range retrievals at scale");
        assert!(
            t.ops.iter().all(|op| match op {
                TraceOp::RetrieveRange {
                    start_frac, len, ..
                } => *start_frac < 256 && (512..=16 * 1024).contains(len),
                _ => true,
            }),
            "range parameters out of bounds"
        );
    }

    #[test]
    fn ops_only_touch_live_images() {
        use std::collections::HashMap;
        let t = Trace::generate(&names(16), &TraceConfig { seed: 3, ops: 600 });
        let mut live: HashMap<&str, u32> = HashMap::new();
        for op in &t.ops {
            match op {
                TraceOp::Publish { image, generation } => {
                    assert!(!live.contains_key(image.as_str()), "double publish {image}");
                    live.insert(image, *generation);
                }
                TraceOp::Upgrade { image, generation } => {
                    let g = live.get_mut(image.as_str()).expect("upgrade of dead image");
                    assert_eq!(*generation, *g + 1, "generation must step by one");
                    *g = *generation;
                }
                TraceOp::Retrieve { image }
                | TraceOp::RetrieveRange { image, .. }
                | TraceOp::Burst { image, .. } => {
                    assert!(live.contains_key(image.as_str()), "op on dead {image}");
                }
                TraceOp::Delete { image } => {
                    assert!(live.remove(image.as_str()).is_some(), "delete dead {image}");
                }
                TraceOp::Maintain | TraceOp::Crash | TraceOp::Recover => {}
            }
        }
    }

    #[test]
    fn crash_injection_is_deterministic_and_paired() {
        let cfg = TraceConfig { seed: 5, ops: 200 };
        let mut a = Trace::generate(&names(12), &cfg);
        let mut b = Trace::generate(&names(12), &cfg);
        a.inject_crashes(42, 3);
        b.inject_crashes(42, 3);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.crashes(), 3);
        assert_eq!(a.ops.len(), 206);
        // Every crash is immediately followed by its recover, and the
        // trace never starts with one.
        assert!(!matches!(a.ops[0], TraceOp::Crash | TraceOp::Recover));
        for (i, op) in a.ops.iter().enumerate() {
            if matches!(op, TraceOp::Crash) {
                assert!(matches!(a.ops[i + 1], TraceOp::Recover), "at {i}");
            }
        }
        let mut c = Trace::generate(&names(12), &cfg);
        c.inject_crashes(43, 3);
        assert_ne!(a.render(), c.render(), "different seed, different spots");
    }

    #[test]
    fn republish_after_delete_bumps_generation() {
        // Long trace over few images: deletes must eventually recycle.
        let t = Trace::generate(&names(6), &TraceConfig { seed: 11, ops: 800 });
        assert!(
            t.ops
                .iter()
                .any(|op| matches!(op, TraceOp::Publish { generation, .. } if *generation > 0)),
            "expected a resurrection publish"
        );
    }
}
