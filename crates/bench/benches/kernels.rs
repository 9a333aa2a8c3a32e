//! Criterion microbenches for the hot kernels: content hashing, DEFLATE,
//! chunking, similarity computation, and the guest-tree walk and mkfs
//! that make up most of a paper-scale retrieve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xpl_chunking::rabin::{chunk_cdc, CdcParams};
use xpl_compress::{deflate, gzip_compress, inflate};
use xpl_semgraph::{sim_g, MasterGraph};
use xpl_util::{Sha256, SplitMix64};
use xpl_workloads::World;

fn payload(len: usize) -> Vec<u8> {
    xpl_pkg::content::generate(42, len)
}

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let data = payload(size);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| Sha256::digest(d))
        });
    }
    g.finish();
}

fn bench_deflate(c: &mut Criterion) {
    let mut g = c.benchmark_group("deflate");
    g.sample_size(10);
    let data = payload(256 * 1024);
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress-256k", |b| b.iter(|| deflate(&data)));
    let compressed = deflate(&data);
    g.bench_function("inflate-256k", |b| b.iter(|| inflate(&compressed).unwrap()));
    g.bench_function("gzip-256k", |b| b.iter(|| gzip_compress(&data)));
    g.finish();
}

fn bench_chunking(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunking");
    let data = payload(1 << 20);
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("cdc-1m", |b| {
        b.iter(|| chunk_cdc(&data, CdcParams::with_avg(4096)))
    });
    g.bench_function("fixed-1m", |b| {
        b.iter(|| xpl_chunking::fixed::chunk_fixed(&data, 4096))
    });
    g.finish();
}

fn bench_similarity(c: &mut Criterion) {
    let world = World::small();
    let names = world.image_names();
    let graphs: Vec<_> = names
        .iter()
        .map(|n| {
            let vmi = world.build_image(n);
            let installed = vmi.pkgdb.installed_ids();
            let primary_set: std::collections::HashSet<_> = vmi.primary.iter().copied().collect();
            let base_roots: Vec<_> = vmi
                .pkgdb
                .manual_ids()
                .into_iter()
                .filter(|id| !primary_set.contains(id))
                .collect();
            xpl_semgraph::SemanticGraph::of_image(
                &world.catalog,
                &vmi.name,
                vmi.base.clone(),
                &installed,
                &vmi.primary,
                &base_roots,
            )
        })
        .collect();
    let mut master = MasterGraph::create(&graphs[0]);
    for g in &graphs[1..] {
        master.absorb(g);
    }
    let mut g = c.benchmark_group("similarity");
    g.bench_function("sim-g-pair", |b| b.iter(|| sim_g(&graphs[0], &graphs[1])));
    g.bench_function("sim-g-master", |b| {
        b.iter(|| master.similarity_to(&graphs[0]))
    });
    g.finish();
}

fn bench_content_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("content");
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function("generate-64k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            xpl_pkg::content::generate(seed, 64 * 1024)
        })
    });
    let mut rng = SplitMix64::new(1);
    g.bench_function("splitmix-fill-64k", |b| {
        let mut buf = vec![0u8; 64 * 1024];
        b.iter(|| rng.fill_bytes(&mut buf))
    });
    g.finish();
}

/// The two kernels of a paper-scale retrieve, on an 80 k-record Table II
/// tree (one shared base layer under an overlay with tombstones).
fn bench_guest_tree(c: &mut Criterion) {
    let fs = World::standard().build_image("Cassandra").fs;
    let mut g = c.benchmark_group("guestfs");
    g.sample_size(10);
    g.throughput(Throughput::Elements(fs.file_count() as u64));
    g.bench_function("fstree-walk", |b| {
        b.iter(|| {
            fs.iter()
                .fold((0u64, 0u64), |(n, bytes), r| (n + 1, bytes + r.size as u64))
        })
    });
    g.bench_function("mkfs", |b| b.iter(|| xpl_guestfs::mkfs::mkfs("bench", &fs)));
    g.finish();
}

criterion_group!(
    kernels,
    bench_sha256,
    bench_deflate,
    bench_chunking,
    bench_similarity,
    bench_content_gen,
    bench_guest_tree
);
criterion_main!(kernels);
