//! Serving acceptance suite: the multi-tenant wire front end over a
//! real store must be byte-faithful.
//!
//! The wire is invisible in the payloads: serving a seeded schedule
//! through the `xpl-net` front end (threaded server, frame codec,
//! admission gate, request coalescing, retrying clients) assembles a
//! key→payload-digest table byte-identical to the one computed in
//! process — over TCP and over the in-memory transport, with a clean
//! transport and under a seeded fault storm alike.

use expelliarmus::bench::serve_net::{
    run_serve_net, NetServeConfig, NetTransportKind, ServeRunConfig,
};

fn small_cfg(seed: u64) -> ServeRunConfig {
    let mut cfg = ServeRunConfig::small(seed);
    cfg.requests = 160;
    cfg.tenants = 4;
    cfg
}

#[test]
fn wire_serve_matches_in_process_digest_table() {
    let cfg = small_cfg(0x41E7);
    let mem = NetServeConfig {
        transport: NetTransportKind::Mem,
        fault_rate: 0,
        net_seed: 1,
        conns_per_tenant: 2,
    };
    let tcp = NetServeConfig {
        transport: NetTransportKind::Tcp,
        conns_per_tenant: 1,
        ..mem
    };
    let runs = [run_serve_net(&cfg, &mem), run_serve_net(&cfg, &tcp)];
    for wire in &runs {
        assert!(wire.violations.is_empty(), "{:?}", wire.violations);
        assert_eq!(wire.served, cfg.requests as u64);
        assert_eq!(wire.wire_key_digests_sha256, wire.key_digests_sha256);
        assert_eq!(
            wire.coalesce_primaries + wire.coalesce_waiters,
            wire.srv_served,
            "every served request either ran the store or shared a call"
        );
    }
    assert_eq!(runs[0].key_digests_sha256, runs[1].key_digests_sha256);
}

#[test]
fn wire_serve_survives_a_fault_storm_byte_identically() {
    let cfg = small_cfg(0x41E8);
    let clean = NetServeConfig {
        transport: NetTransportKind::Mem,
        fault_rate: 0,
        net_seed: 3,
        conns_per_tenant: 2,
    };
    let stormy = NetServeConfig {
        fault_rate: 32,
        ..clean
    };
    let a = run_serve_net(&cfg, &clean);
    let b = run_serve_net(&cfg, &stormy);
    assert!(a.violations.is_empty(), "clean: {:?}", a.violations);
    assert!(b.violations.is_empty(), "storm: {:?}", b.violations);
    assert_eq!(b.wire_key_digests_sha256, a.wire_key_digests_sha256);
    assert_eq!(b.key_digests_sha256, a.key_digests_sha256);
    let injected = b.faults_resets + b.faults_torn_writes + b.faults_short_reads;
    assert!(injected > 0, "the storm never fired");
    assert!(b.retries > 0, "a 32/256 storm must force retries");
}
