//! Tier-1 fleet smoke: 100k tenants stepped to stabilization.
//!
//! Two hundred-thousand-tenant populations (the ring mix, and the mixed
//! ring/diffusing/coloring fleet), cheap enough for every test
//! invocation. Guards the fleet harness's core claims: everyone
//! stabilizes within the checker's certified worst-case bound, the
//! verdict cache misses once per configuration, a ring tenant fits in 64
//! bytes, and worker count and slab size never move the deterministic
//! digest. The million-tenant weekly tier is ignored by default; run it
//! with `cargo test --release --test fleet_smoke -- --ignored`.

use nonmask_fleet::{run_fleet, FleetConfig, FleetProtocol, FleetReport};
use nonmask_obs::Journal;

#[test]
fn hundred_thousand_tenants_stabilize_within_certified_bounds() {
    let config = population(FleetProtocol::ring_mix(), 100_000, 0xF1EE_7001, 2);
    let report = run_fleet(&config, &Journal::disabled()).unwrap();

    assert_eq!(report.counters.get("tenants"), 100_000);
    assert_eq!(report.counters.get("stabilized"), 100_000);
    assert_eq!(report.violations(), 0, "stuck/exhausted/over-bound tenants");
    assert_eq!(report.counters.get("faults"), 200_000);

    // Cache: one enumeration per distinct configuration, everything else
    // hits.
    assert_eq!(report.enumerations, 8);
    assert_eq!(report.counters.get("cache_lookups"), 100_000);
    assert!(report.cache_hit_rate() > 0.9999);

    // Per-tenant footprint: the 64-byte budget the arena layout promises.
    assert!(
        report.bytes_per_instance <= 64,
        "bytes/instance = {}",
        report.bytes_per_instance
    );

    // Latency distribution is sane and bounded.
    assert_eq!(report.histogram.total(), 100_000);
    assert_eq!(report.histogram.overflow(), 0);
    let p50 = report.histogram.percentile(50.0).unwrap();
    let p99 = report.histogram.percentile(99.0).unwrap();
    assert!(p50 <= p99);
    for c in &report.configs {
        let bound = c.bound.expect("rings converge");
        assert!(
            c.max_latency <= bound,
            "{}: {} > bound {}",
            c.key,
            c.max_latency,
            bound
        );
    }
    assert_digest_survives_rescheduling("ring-mix-100k", &config, &report);
}

/// Zero stuck, exhausted or over-bound tenants, a verdict-cache hit rate
/// of at least 99.9%, and (when given) a per-tenant footprint budget.
fn assert_population_gates(name: &str, report: &FleetReport, max_bytes: Option<u64>) {
    assert_eq!(report.violations(), 0, "{name}: stuck/exhausted/over-bound");
    assert!(
        report.cache_hit_rate() >= 0.999,
        "{name}: cache hit rate {:.4}",
        report.cache_hit_rate()
    );
    if let Some(max) = max_bytes {
        assert!(
            report.bytes_per_instance <= max,
            "{name}: {} bytes/instance exceeds {max}",
            report.bytes_per_instance
        );
    }
}

/// Re-run `config` under a different worker count and slab size: the
/// deterministic digest must not move.
fn assert_digest_survives_rescheduling(name: &str, config: &FleetConfig, baseline: &FleetReport) {
    let mut alt = config.clone();
    alt.workers = if baseline.workers == 1 { 4 } else { 1 };
    alt.slab_size = if config.slab_size == 512 { 4096 } else { 512 };
    let report = run_fleet(&alt, &Journal::disabled()).unwrap();
    assert_eq!(
        report.digest(),
        baseline.digest(),
        "{name}: digest moved under workers={} slab={}",
        alt.workers,
        alt.slab_size
    );
}

fn population(protocols: Vec<FleetProtocol>, tenants: u64, seed: u64, faults: u32) -> FleetConfig {
    FleetConfig {
        protocols,
        tenants,
        master_seed: seed,
        faults_per_tenant: faults,
        ..FleetConfig::default()
    }
}

#[test]
fn hundred_thousand_mixed_tenants_stabilize_with_a_warm_cache() {
    let mixed = population(FleetProtocol::mixed(), 100_000, 0xF1EE_7002, 2);
    let report = run_fleet(&mixed, &Journal::disabled()).unwrap();
    assert_population_gates("mixed-100k", &report, None);
    assert_digest_survives_rescheduling("mixed-100k", &mixed, &report);
}

#[test]
#[ignore = "weekly tier: two million-tenant populations; run with --release --ignored"]
fn weekly_million_tenant_populations_stabilize_within_budget() {
    let ring = population(FleetProtocol::ring_mix(), 1_000_000, 0xF1EE_7003, 2);
    let report = run_fleet(&ring, &Journal::disabled()).unwrap();
    assert_population_gates("ring-mix-1m", &report, Some(64));

    let mixed = population(FleetProtocol::mixed(), 1_000_000, 0xF1EE_7004, 3);
    let report = run_fleet(&mixed, &Journal::disabled()).unwrap();
    assert_population_gates("mixed-1m", &report, None);
}
