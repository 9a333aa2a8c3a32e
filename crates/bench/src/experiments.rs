//! Experiment runners for every table and figure.
//!
//! Multi-store sweeps (Figures 3, 4, 5b) fan the stores out across the
//! worker pool: each store owns its simulated environment and publishes
//! the same prebuilt image sequence in order, so the per-store series —
//! and the JSON written by `repro all` — are byte-identical to a
//! sequential run regardless of pool size.

use rayon::prelude::*;
use serde::Serialize;
use xpl_baselines::{HemeraStore, MirageStore};
use xpl_core::{ExpelliarmusRepo, PublishMode};
use xpl_guestfs::Vmi;
use xpl_store::{ImageStore, RetrieveRequest};
use xpl_util::bytesize::nominal_gb;
use xpl_workloads::World;

/// One measured Table II row.
#[derive(Clone, Debug, Serialize)]
pub struct MeasuredRow {
    pub name: String,
    pub mounted_gb: f64,
    pub files: u64,
    pub sim_g: f64,
    pub publish_s: f64,
    pub retrieval_s: f64,
}

/// Full Table II result.
#[derive(Clone, Debug, Serialize)]
pub struct Table2Result {
    pub rows: Vec<MeasuredRow>,
}

/// Reproduce Table II: publish the 19 images in order into Expelliarmus,
/// then retrieve each; report characteristics and times.
pub fn table2(world: &World) -> Table2Result {
    let repo = ExpelliarmusRepo::new(world.env());
    let mut rows = Vec::new();
    let mut retrieve_reqs = Vec::new();
    for name in world.image_names() {
        let vmi = world.build_image(name);
        let report = repo.publish(&world.catalog, &vmi).expect("publish");
        retrieve_reqs.push(RetrieveRequest::for_image(&vmi, &world.catalog));
        rows.push(MeasuredRow {
            name: name.to_string(),
            mounted_gb: nominal_gb(vmi.mounted_bytes()),
            files: vmi.file_count() as u64,
            sim_g: report.similarity,
            publish_s: report.duration.as_secs_f64(),
            retrieval_s: 0.0,
        });
    }
    for (row, req) in rows.iter_mut().zip(&retrieve_reqs) {
        let (_vmi, report) = repo.retrieve(&world.catalog, req).expect("retrieve");
        row.retrieval_s = report.duration.as_secs_f64();
    }
    Table2Result { rows }
}

/// Which Figure 3 panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig3Scenario {
    /// 3a: Mini, Base, Desktop, IDE.
    FourImages,
    /// 3b: all 19 Table II images.
    Nineteen,
    /// 3c: 40 successive IDE builds.
    IdeBuilds(u32),
}

/// Cumulative repository size per store after each upload.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Result {
    pub images: Vec<String>,
    /// store name → cumulative nominal GB after each image.
    pub series: Vec<(String, Vec<f64>)>,
}

/// Reproduce Figure 3 (a/b/c): cumulative repository growth across the
/// five encoding schemes, one pool worker per store.
pub fn fig3_sizes(world: &World, scenario: Fig3Scenario) -> Fig3Result {
    let names: Vec<String> = match scenario {
        Fig3Scenario::FourImages => ["Mini", "Base", "Desktop", "IDE"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        Fig3Scenario::Nineteen => world.image_names().iter().map(|s| s.to_string()).collect(),
        Fig3Scenario::IdeBuilds(n) => (0..n).map(|k| format!("IDE-build-{k:02}")).collect(),
    };
    let vmis: Vec<Vmi> = names
        .iter()
        .map(|name| match scenario {
            Fig3Scenario::IdeBuilds(_) => {
                let k: u32 = name.rsplit('-').next().unwrap().parse().unwrap();
                world.ide_build(k)
            }
            _ => world.build_image(name),
        })
        .collect();

    let stores = crate::churn::five_stores(|| world.env());
    let series: Vec<(String, Vec<f64>)> = stores
        .into_par_iter()
        .map(|store| {
            let mut curve = Vec::with_capacity(vmis.len());
            for vmi in &vmis {
                store.publish(&world.catalog, vmi).expect("publish");
                curve.push(nominal_gb(store.repo_bytes()));
            }
            (store.name().to_string(), curve)
        })
        .collect();
    Fig3Result {
        images: names,
        series,
    }
}

/// Publish-time series (Figures 4a/4b).
#[derive(Clone, Debug, Serialize)]
pub struct PublishTimesResult {
    pub images: Vec<String>,
    pub series: Vec<(String, Vec<f64>)>,
}

/// Figure 4a: publishing time of the four study images for Expelliarmus,
/// Mirage and Hemera.
pub fn fig4a_publish(world: &World) -> PublishTimesResult {
    publish_times(world, &["Mini", "Base", "Desktop", "IDE"], false)
}

/// Figure 4b: publishing time of all 19 images, including the "Semantic"
/// (decomposition-without-similarity) variant.
pub fn fig4b_publish(world: &World) -> PublishTimesResult {
    let names: Vec<&str> = world.image_names();
    publish_times(world, &names, true)
}

fn publish_times(world: &World, names: &[&str], with_semantic: bool) -> PublishTimesResult {
    let vmis: Vec<Vmi> = names.iter().map(|n| world.build_image(n)).collect();
    let mut stores: Vec<(String, Box<dyn ImageStore>)> = vec![(
        "Expelliarmus".to_string(),
        Box::new(ExpelliarmusRepo::new(world.env())),
    )];
    if with_semantic {
        stores.push((
            "Semantic".to_string(),
            Box::new(ExpelliarmusRepo::with_mode(
                world.env(),
                PublishMode::SemanticDecomposition,
            )),
        ));
    }
    stores.push((
        "Mirage".to_string(),
        Box::new(MirageStore::new(world.env())),
    ));
    stores.push((
        "Hemera".to_string(),
        Box::new(HemeraStore::new(world.env())),
    ));

    let series: Vec<(String, Vec<f64>)> = stores
        .into_par_iter()
        .map(|(label, store)| {
            let times: Vec<f64> = vmis
                .iter()
                .map(|vmi| {
                    store
                        .publish(&world.catalog, vmi)
                        .expect("publish")
                        .duration
                        .as_secs_f64()
                })
                .collect();
            (label, times)
        })
        .collect();
    PublishTimesResult {
        images: names.iter().map(|s| s.to_string()).collect(),
        series,
    }
}

/// Figure 5a: Expelliarmus retrieval time decomposed into its four phases.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5aResult {
    pub images: Vec<String>,
    /// phase → seconds per image.
    pub phases: Vec<(String, Vec<f64>)>,
}

pub fn fig5a_breakdown(world: &World) -> Fig5aResult {
    let repo = ExpelliarmusRepo::new(world.env());
    let mut reqs = Vec::new();
    for name in world.image_names() {
        let vmi = world.build_image(name);
        repo.publish(&world.catalog, &vmi).expect("publish");
        reqs.push((
            name.to_string(),
            RetrieveRequest::for_image(&vmi, &world.catalog),
        ));
    }
    let phase_names = xpl_core::retrieve::PHASES;
    let mut phases: Vec<(String, Vec<f64>)> = phase_names
        .iter()
        .map(|p| (p.to_string(), Vec::new()))
        .collect();
    let mut images = Vec::new();
    for (name, req) in reqs {
        let (_vmi, report) = repo.retrieve(&world.catalog, &req).expect("retrieve");
        for (i, p) in phase_names.iter().enumerate() {
            phases[i].1.push(report.breakdown.get(p).as_secs_f64());
        }
        images.push(name);
    }
    Fig5aResult { images, phases }
}

/// Figure 5b: retrieval-time comparison across Mirage, Hemera and
/// Expelliarmus over the 19-image repository.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5bResult {
    pub images: Vec<String>,
    pub series: Vec<(String, Vec<f64>)>,
}

pub fn fig5b_retrieval(world: &World) -> Fig5bResult {
    let built: Vec<(String, Vmi, RetrieveRequest)> = world
        .image_names()
        .iter()
        .map(|name| {
            let vmi = world.build_image(name);
            let req = RetrieveRequest::for_image(&vmi, &world.catalog);
            (name.to_string(), vmi, req)
        })
        .collect();

    let stores: Vec<Box<dyn ImageStore>> = vec![
        Box::new(MirageStore::new(world.env())),
        Box::new(HemeraStore::new(world.env())),
        Box::new(ExpelliarmusRepo::new(world.env())),
    ];
    let series: Vec<(String, Vec<f64>)> = stores
        .into_par_iter()
        .map(|store| {
            for (_, vmi, _) in &built {
                store.publish(&world.catalog, vmi).expect("publish");
            }
            let times: Vec<f64> = built
                .iter()
                .map(|(_, _, req)| {
                    store
                        .retrieve(&world.catalog, req)
                        .expect("retrieve")
                        .1
                        .duration
                        .as_secs_f64()
                })
                .collect();
            (store.name().to_string(), times)
        })
        .collect();
    Fig5bResult {
        images: built.into_iter().map(|(name, _, _)| name).collect(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small-world smoke tests; the standard-scale assertions live in the
    // integration suite and the repro binary.
    #[test]
    fn fig3_small_runs_and_orders_stores() {
        let w = World::small();
        let r = fig3_sizes(&w, Fig3Scenario::Nineteen);
        assert_eq!(r.series.len(), 5);
        let last = |name: &str| {
            r.series
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| v.last().copied())
                .unwrap()
        };
        assert!(
            last("Expelliarmus") < last("Qcow2"),
            "semantic must beat raw"
        );
        assert!(last("Mirage") < last("Qcow2"));
    }

    #[test]
    fn parallel_sweep_matches_sequential_byte_for_byte() {
        // `repro all`'s acceptance pin: the five-store sweep must emit
        // identical JSON whether the pool runs one worker or many.
        let w = World::small();
        let par = rayon::with_num_threads(4, || fig3_sizes(&w, Fig3Scenario::Nineteen));
        let seq = rayon::with_num_threads(1, || fig3_sizes(&w, Fig3Scenario::Nineteen));
        assert_eq!(
            serde_json::to_string_pretty(&par).unwrap(),
            serde_json::to_string_pretty(&seq).unwrap()
        );
        let p4 = rayon::with_num_threads(4, || fig4b_publish(&w));
        let s4 = rayon::with_num_threads(1, || fig4b_publish(&w));
        assert_eq!(
            serde_json::to_string_pretty(&p4).unwrap(),
            serde_json::to_string_pretty(&s4).unwrap()
        );
    }
}
