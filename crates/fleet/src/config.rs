//! Fleet configuration: which protocol instances run, how many tenants,
//! and how they are scheduled.

use crate::FleetProtocol;

/// Configuration of a fleet run (see [`run_fleet`](crate::run_fleet)).
///
/// Tenant `t` runs protocol `protocols[t % protocols.len()]` with the
/// fault stream seeded by `split_seed(master_seed, t)` — a pure function
/// of the config, independent of `workers` and `slab_size`, which is why
/// fleet results are bit-identical across thread counts and slab sizes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The protocol configurations tenants cycle through.
    pub protocols: Vec<FleetProtocol>,
    /// Number of tenants (protocol instances) to run to stabilization.
    pub tenants: u64,
    /// Master seed; per-tenant streams are split from it deterministically.
    pub master_seed: u64,
    /// Worker threads (`0` = auto-detect available parallelism).
    pub workers: usize,
    /// Tenants per slab — the unit of work-stealing and of arena
    /// residency. Any positive value yields identical results.
    pub slab_size: usize,
    /// Transient faults injected per tenant after its initial random
    /// state: each one corrupts a single variable the moment the tenant
    /// has re-stabilized, starting a fresh convergence episode.
    pub faults_per_tenant: u32,
    /// Safety cap on steps per convergence episode; exceeding it marks
    /// the tenant `exhausted` (a verdict-contradicting outcome, since
    /// the cap is far above any checker bound).
    pub max_steps: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            protocols: FleetProtocol::ring_mix(),
            tenants: 10_000,
            master_seed: 0xF1EE_7000,
            workers: 0,
            slab_size: 4096,
            faults_per_tenant: 2,
            max_steps: 100_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_mix_is_distinct_and_small() {
        let mix = FleetProtocol::ring_mix();
        assert_eq!(mix.len(), 8);
        let keys: std::collections::HashSet<_> = mix.iter().map(FleetProtocol::key).collect();
        assert_eq!(keys.len(), 8, "cache keys must be distinct");
        for p in &mix {
            let program = p.spec().program;
            assert!(program.var_count() <= 5, "{}: too wide for 64 B", p.key());
        }
    }
}
