//! End-to-end tests: real protocols over real TCP loopback sockets,
//! converging under injected faults and crash-restarts.
//!
//! Seeds are fixed so the fault schedule on every link is deterministic;
//! wall-clock latencies still vary run to run, so assertions are on
//! outcomes (convergence, episode structure, counters), never on times.

use std::time::Duration;

use nonmask_net::{run, FaultConfig, NetConfig, NetEvent, NetReport};
use nonmask_program::{Predicate, Program, State};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ≥20% frame loss plus corruption, duplication, and delay/reorder.
fn hostile(seed: u64) -> FaultConfig {
    FaultConfig::hostile(seed, 0.25)
}

fn config(seed: u64, events: Vec<NetEvent>) -> NetConfig {
    NetConfig {
        seed,
        faults: hostile(seed),
        timeout: Duration::from_secs(60),
        events,
        ..NetConfig::default()
    }
}

fn crash_restart(node: usize) -> Vec<NetEvent> {
    vec![NetEvent::CrashRestart {
        node,
        at_least: Duration::ZERO,
        down: Duration::from_millis(30),
    }]
}

fn run_protocol(
    program: &Program,
    goal: &Predicate,
    seed: u64,
    events: Vec<NetEvent>,
) -> NetReport {
    run_protocol_journaled(program, goal, seed, events).0
}

/// Like [`run_protocol`], but also returns the parsed journal so tests
/// can assert on the *recorded* fault and episode lifecycle instead of
/// only the summary report.
fn run_protocol_journaled(
    program: &Program,
    goal: &Predicate,
    seed: u64,
    events: Vec<NetEvent>,
) -> (NetReport, Vec<nonmask_obs::Record>) {
    let initial = program.random_state(&mut StdRng::seed_from_u64(seed));
    let (journal, buffer) = nonmask_obs::Journal::memory();
    let config = NetConfig {
        journal,
        ..config(seed, events)
    };
    let report = run(program, &initial, goal, &config).expect("run starts");
    let records = nonmask_obs::parse_journal(&buffer.contents()).expect("journal is schema-clean");
    (report, records)
}

/// Position of the first journal record matching `pred`.
fn position_of(
    records: &[nonmask_obs::Record],
    pred: impl Fn(&nonmask_obs::Event) -> bool,
) -> Option<usize> {
    records.iter().position(|r| pred(&r.event))
}

fn assert_converged(report: &NetReport, episodes: usize) {
    assert!(report.converged, "did not converge: {}", report.render());
    assert!(!report.timed_out);
    assert_eq!(report.episodes.len(), episodes, "{}", report.render());
    for e in &report.episodes {
        let latency = e.latency().expect("converged episode has a latency");
        assert!(latency > Duration::ZERO);
    }
}

#[test]
fn token_ring_converges_under_loss_and_crash_restart() {
    use nonmask_obs::Event;

    let ring = TokenRing::new(5, 5);
    let (report, records) =
        run_protocol_journaled(ring.program(), &ring.invariant(), 42, crash_restart(2));
    assert_converged(&report, 2);
    assert!(ring.invariant().holds(&report.final_state));
    assert_eq!(ring.privileges(&report.final_state).len(), 1);

    // The faults actually fired and the nodes actually used the network.
    let total: u64 = report.nodes.iter().map(|n| n.counters.dropped).sum();
    assert!(total > 0, "no frames dropped at 25% loss?");
    let corrupted: u64 = report.nodes.iter().map(|n| n.counters.corrupted).sum();
    let rejected: u64 = report.nodes.iter().map(|n| n.counters.rejected).sum();
    assert!(corrupted > 0, "no frames corrupted?");
    assert!(
        rejected > 0,
        "corrupted frames must be rejected by the codec"
    );
    assert!(report.nodes.iter().all(|n| n.counters.sent > 0));
    assert!(report.nodes.iter().all(|n| n.counters.received > 0));
    // Exactly the crashed node records a crash.
    assert_eq!(report.nodes[2].counters.crashes, 1);
    let crashes: u64 = report.nodes.iter().map(|n| n.counters.crashes).sum();
    assert_eq!(crashes, 1);

    // The journal records the whole crash-restart lifecycle, in causal
    // order: crash fault, restart fault, episode open, episode converged.
    let crash = position_of(&records, |e| {
        matches!(e, Event::Fault { kind, detail } if kind == "crash" && detail.contains("node 2"))
    })
    .expect("crash fault journaled");
    let restart = position_of(&records, |e| {
        matches!(e, Event::Fault { kind, detail } if kind == "restart" && detail.contains("node 2"))
    })
    .expect("restart fault journaled");
    let opened = position_of(
        &records,
        |e| matches!(e, Event::EpisodeStarted { label } if label == "crash-restart node 2"),
    )
    .expect("crash episode opened");
    let converged = position_of(
        &records,
        |e| matches!(e, Event::EpisodeConverged { label, .. } if label == "crash-restart node 2"),
    )
    .expect("crash episode converged");
    assert!(
        crash < restart && restart < converged && opened < converged,
        "lifecycle out of order: crash@{crash} restart@{restart} opened@{opened} converged@{converged}"
    );
    // One EpisodeConverged per reported episode — detector and journal agree.
    let journaled_convergences = records
        .iter()
        .filter(|r| matches!(&r.event, Event::EpisodeConverged { .. }))
        .count();
    assert_eq!(journaled_convergences, report.episodes.len());
}

#[test]
fn diffusing_computation_converges_under_loss_and_crash_restart() {
    let dc = DiffusingComputation::new(&Tree::binary(7));
    let report = run_protocol(dc.program(), &dc.invariant(), 1337, crash_restart(3));
    assert_converged(&report, 2);
    assert!(dc.invariant().holds(&report.final_state));
    assert_eq!(report.nodes[3].counters.crashes, 1);
    assert!(report.nodes.iter().map(|n| n.counters.dropped).sum::<u64>() > 0);
}

#[test]
fn token_ring_survives_partition_and_heals() {
    use nonmask_obs::Event;

    let ring = TokenRing::new(4, 4);
    let events = vec![NetEvent::Partition {
        groups: vec![0, 0, 1, 1],
        at_least: Duration::ZERO,
        heal_after: Duration::from_millis(40),
    }];
    let (report, records) = run_protocol_journaled(ring.program(), &ring.invariant(), 7, events);
    assert_converged(&report, 2);
    assert_eq!(report.episodes[1].label, "partition heal");
    assert!(ring.invariant().holds(&report.final_state));

    // Journal lifecycle: the partition splits, later heals, and the heal
    // opens an episode that eventually converges — in that order.
    let split = position_of(
        &records,
        |e| matches!(e, Event::Fault { kind, .. } if kind == "partition"),
    )
    .expect("partition fault journaled");
    let heal = position_of(
        &records,
        |e| matches!(e, Event::Fault { kind, .. } if kind == "heal"),
    )
    .expect("heal fault journaled");
    let opened = position_of(
        &records,
        |e| matches!(e, Event::EpisodeStarted { label } if label == "partition heal"),
    )
    .expect("heal episode opened");
    let converged = position_of(
        &records,
        |e| matches!(e, Event::EpisodeConverged { label, .. } if label == "partition heal"),
    )
    .expect("heal episode converged");
    assert!(
        split < heal && heal <= opened && opened < converged,
        "lifecycle out of order: split@{split} heal@{heal} opened@{opened} converged@{converged}"
    );
}

#[test]
fn report_json_is_machine_readable() {
    let ring = TokenRing::new(3, 3);
    let report = run_protocol(ring.program(), &ring.invariant(), 5, crash_restart(0));
    let json = report.to_json();
    // Structure: episodes with latencies, per-node counters, final state.
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"converged\":true"));
    assert!(json.contains("\"episodes\":[{\"label\":\"initial convergence\""));
    assert!(json.contains("\"label\":\"crash-restart node 0\""));
    assert!(json.contains("\"latency_ms\":"));
    assert!(json.contains("\"final_state\":["));
    for node in 0..3 {
        assert!(json.contains(&format!("{{\"node\":{node},\"counters\":{{\"sent\":")));
    }
    for field in ["dropped", "corrupted", "rejected", "convergence_steps"] {
        assert!(json.contains(&format!("\"{field}\":")), "missing {field}");
    }
}

#[test]
fn faultless_run_reports_clean_counters() {
    let ring = TokenRing::new(3, 3);
    let initial = ring.program().state_from([2, 0, 1]).unwrap();
    let config = NetConfig {
        timeout: Duration::from_secs(60),
        ..NetConfig::default()
    };
    let report = run(ring.program(), &initial, &ring.invariant(), &config).unwrap();
    assert_converged(&report, 1);
    for n in &report.nodes {
        assert_eq!(n.counters.dropped, 0);
        assert_eq!(n.counters.corrupted, 0);
        assert_eq!(n.counters.rejected, 0);
        assert_eq!(n.counters.crashes, 0);
        assert_eq!(n.counters.sent, n.counters.sent.max(1));
    }
    // A lossless network delivers exactly what was sent.
    let sent: u64 = report.nodes.iter().map(|n| n.counters.sent).sum();
    let received: u64 = report.nodes.iter().map(|n| n.counters.received).sum();
    assert_eq!(sent, received);
}

#[test]
fn unrefinable_or_oversized_inputs_error_cleanly() {
    use nonmask_net::NetError;
    use nonmask_program::{Domain, ProcessId};
    // Unbounded domains cannot be crash-restarted into arbitrary states.
    let mut builder = Program::builder("unbounded");
    let x = builder.var_of("x", Domain::Unbounded, ProcessId(0));
    builder.convergence_action(
        "dec",
        [x],
        [x],
        move |s: &State| s.get(x) > 0,
        move |s| {
            let v = s.get(x);
            s.set(x, v - 1);
        },
    );
    let program = builder.build();
    let goal = Predicate::new("zero", [x], move |s: &State| s.get(x) == 0);
    let initial = program.state_from([3]).unwrap();
    let err = run(&program, &initial, &goal, &NetConfig::default()).unwrap_err();
    assert!(matches!(err, NetError::Unbounded), "{err}");

    // Events must reference real nodes.
    let ring = TokenRing::new(3, 3);
    let config = NetConfig {
        events: vec![NetEvent::CrashRestart {
            node: 9,
            at_least: Duration::ZERO,
            down: Duration::ZERO,
        }],
        ..NetConfig::default()
    };
    let initial = ring.initial_state();
    let err = run(ring.program(), &initial, &ring.invariant(), &config).unwrap_err();
    assert!(matches!(err, NetError::BadEvent(_)), "{err}");
}

/// Every fault rate is a probability: NaN or anything outside `[0, 1]`
/// is a typed error before the run starts, never a worker panic or a
/// silently fault-free run.
#[test]
fn fault_rates_outside_the_unit_interval_are_rejected_up_front() {
    use nonmask_net::NetError;
    use nonmask_obs::Journal;

    let ring = TokenRing::new(3, 3);
    let initial = ring.initial_state();
    for name in ["drop_rate", "corrupt_rate", "duplicate_rate", "delay_rate"] {
        for rate in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            let (journal, buffer) = Journal::memory();
            let mut config = NetConfig {
                journal,
                ..NetConfig::default()
            };
            let faults = &mut config.faults;
            *match name {
                "drop_rate" => &mut faults.drop_rate,
                "corrupt_rate" => &mut faults.corrupt_rate,
                "duplicate_rate" => &mut faults.duplicate_rate,
                _ => &mut faults.delay_rate,
            } = rate;
            let err = run(ring.program(), &initial, &ring.invariant(), &config).unwrap_err();
            assert!(
                matches!(err, NetError::BadFaultRate { field, .. } if field == name),
                "{name} = {rate}: {err}"
            );
            assert!(err.to_string().contains(name), "{err}");
            config.journal.flush();
            assert!(
                buffer.contents().is_empty(),
                "{name} = {rate}: the run started"
            );
        }
    }
}

/// A journaled run records the controller's view — hello frames, the
/// detector episode lifecycle, and final per-node counters — and the
/// journal parses back schema-clean.
#[test]
fn journal_captures_episodes_frames_and_counters() {
    use nonmask_obs::{parse_journal, Event, Journal};

    let ring = TokenRing::new(3, 3);
    let (journal, buffer) = Journal::memory();
    let config = NetConfig {
        journal,
        timeout: Duration::from_secs(60),
        ..NetConfig::default()
    };
    let initial = ring.initial_state();
    let report = run(ring.program(), &initial, &ring.invariant(), &config).expect("run starts");
    assert!(report.converged, "{}", report.render());

    let records = parse_journal(&buffer.contents()).expect("journal is schema-clean");
    assert!(records
        .iter()
        .any(|r| matches!(&r.event, Event::Frame { kind, .. } if kind == "hello")));
    assert!(records.iter().any(
        |r| matches!(&r.event, Event::EpisodeStarted { label } if label == "initial convergence")
    ));
    assert!(records
        .iter()
        .any(|r| matches!(&r.event, Event::EpisodeConverged { .. })));
    assert!(records.iter().any(
        |r| matches!(&r.event, Event::Counter { scope, name, .. } if scope == "net-node:0" && name == "sent")
    ));
}

/// Node ids are 16-bit on the wire; a program with more than 65535
/// processes must be rejected up front (`NetError::TooManyNodes`), never
/// panic in a worker thread mid-run.
#[test]
fn more_than_u16_max_nodes_errors_instead_of_panicking() {
    use nonmask_net::NetError;
    use nonmask_program::{Domain, ProcessId};

    let n = usize::from(u16::MAX) + 2;
    let mut builder = Program::builder("too-wide");
    let first = builder.var_of("x.0", Domain::range(0, 1), ProcessId(0));
    for p in 1..n {
        builder.var_of(format!("x.{p}"), Domain::range(0, 1), ProcessId(p));
    }
    let program = builder.build();
    let goal = Predicate::new("first-zero", [first], move |s: &State| s.get(first) == 0);
    let initial = program.state_from(vec![0; n]).unwrap();
    let err = run(&program, &initial, &goal, &NetConfig::default()).unwrap_err();
    assert!(
        matches!(err, NetError::TooManyNodes(count) if count == n),
        "{err}"
    );
}
