//! Reactor scale gates: the K-state token ring (`k = n`) over the shard
//! mesh, churned through crash-restarts and partition/heals, must
//! converge in every episode, and the shard count must not leak into the
//! logical outcome.
//!
//! Each trial starts from a legitimate state (all zeros: the bottom
//! machine holds the one token), so the first episode is the detection
//! floor and the four churn episodes measure recovery from bounded
//! disturbances. Converging from a fully arbitrary state is Θ(n²) ring
//! moves, protocol physics that would swamp a runtime gate at 10⁴ nodes.
//! The transport is lossless: the churn is the disturbance, so every
//! episode is expected to converge.
//!
//! Every test here opens real sockets for hundreds to thousands of nodes
//! and is ignored by default; run with
//! `cargo test --release -p nonmask-net --test scale -- --ignored`
//! (add `--skip weekly_` for the per-push tier).

use std::time::Duration;

use nonmask_net::{run, DetectorConfig, NetConfig, NetEvent, NetReport};
use nonmask_protocols::token_ring::TokenRing;

/// Two crash-restarts and two partitions. Each event waits for the
/// previous episode to settle, for five episodes per trial.
fn churn(n: usize) -> Vec<NetEvent> {
    let half: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
    let shifted: Vec<usize> = (0..n)
        .map(|i| usize::from((i + n / 4) % n >= n / 2))
        .collect();
    vec![
        NetEvent::CrashRestart {
            node: n / 3,
            at_least: Duration::ZERO,
            down: Duration::from_millis(20),
        },
        NetEvent::Partition {
            groups: half,
            at_least: Duration::ZERO,
            heal_after: Duration::from_millis(30),
        },
        NetEvent::CrashRestart {
            node: 2 * n / 3,
            at_least: Duration::ZERO,
            down: Duration::from_millis(20),
        },
        NetEvent::Partition {
            groups: shifted,
            at_least: Duration::ZERO,
            heal_after: Duration::from_millis(30),
        },
    ]
}

/// One churn trial of an `n`-node ring. Timing is uniform across scales:
/// fast ticks, short cooldown, and sparse heartbeats (the lossless
/// transport needs them only to heal post-partition staleness, and 10⁴
/// nodes heartbeating densely would saturate a single core).
fn trial(n: usize, seed: u64, shards: usize) -> (NetReport, bool) {
    let ring = TokenRing::new(n, n as i64);
    let initial = ring.program().state_from(vec![0; n]).expect("in domain");
    let config = NetConfig {
        seed,
        shards,
        tick: Duration::from_micros(500),
        cooldown_ticks: 2,
        heartbeat_every: 400,
        detector: DetectorConfig {
            stable_for: Duration::from_millis(120),
            stable_fraction: 0.9,
            ..DetectorConfig::default()
        },
        timeout: Duration::from_secs(120),
        events: churn(n),
        ..NetConfig::default()
    };
    let report = run(ring.program(), &initial, &ring.invariant(), &config)
        .unwrap_or_else(|e| panic!("n={n} seed={seed:#x}: {e}"));
    let invariant_holds = ring.invariant().holds(&report.final_state);
    (report, invariant_holds)
}

fn assert_converged(n: usize, seed: u64, (report, invariant_holds): &(NetReport, bool)) {
    assert!(
        report.converged && *invariant_holds,
        "n={n} seed={seed:#x}: an episode failed to converge\n{}",
        report.render()
    );
}

#[test]
#[ignore = "1000 socket nodes under churn; run with --release --ignored"]
fn thousand_node_ring_converges_through_crash_restart_and_partition_churn() {
    assert_converged(1000, 0xBE7_1000, &trial(1000, 0xBE7_1000, 0));
}

/// The logical outcome of a 100-node trial (episode structure and
/// convergence, crash count, final invariant) is identical on 1 and 2
/// shards. Latencies and traffic depend on wall clock and are left out.
#[test]
#[ignore = "two 100-node socket runs under churn; run with --release --ignored"]
fn hundred_node_outcome_is_shard_invariant() {
    let outcome = |shards: usize| {
        let (report, invariant_holds) = trial(100, 0xBE7_0001, shards);
        let episodes: Vec<(String, bool)> = report
            .episodes
            .iter()
            .map(|e| (e.label.clone(), e.latency().is_some()))
            .collect();
        let crashes: u64 = report.nodes.iter().map(|x| x.counters.crashes).sum();
        (
            report.nodes.len(),
            report.converged,
            invariant_holds,
            episodes,
            crashes,
        )
    };
    assert_eq!(outcome(1), outcome(2), "logical outcome moved with shards");
}

#[test]
#[ignore = "weekly tier: up to 10^4 socket nodes under churn; run with --release --ignored"]
fn weekly_latency_curve_converges_from_100_to_10000_nodes() {
    for (n, trials) in [(100, 5), (1000, 5), (10_000, 2)] {
        for t in 0..trials {
            let seed = 0xBE7_1000 + t;
            assert_converged(n, seed, &trial(n, seed, 0));
        }
    }
}
