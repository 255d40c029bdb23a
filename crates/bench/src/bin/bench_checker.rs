//! B1 perf baseline: state-space construction throughput, resident memory
//! of the CSR representation, and out-of-core (segmented / frontier)
//! throughput, emitted as `BENCH_checker.json`.
//!
//! ```text
//! bench_checker                 # full run (includes the 16.7M-state instances)
//! bench_checker --smoke         # small instances only (CI-sized, seconds)
//! bench_checker --huge          # additionally the 2^28-state frontier instance
//! bench_checker --check         # fail on bytes/state, throughput-curve or frontier-work regressions
//! bench_checker --out FILE      # write the JSON somewhere else
//! ```
//!
//! # What is timed, and why setup is split out
//!
//! Enumeration is reported as three figures: `wall_seconds` (everything),
//! `build_seconds` (the CSR count + fill phases, taken from the checker's
//! own [`CsrPhase`](nonmask_obs::Event::CsrPhase) journal events), and
//! `setup_seconds` (the difference: allocating and zero-filling the
//! offsets/actions/succs columns, building the index, prefix-summing).
//! `states_per_second` divides by `build_seconds`, **not** wall clock:
//! the column allocations are one-time costs linear in the table size and
//! paid before any state is visited, so folding them into the rate made
//! the throughput curve appear to collapse on large instances when the
//! per-state work was in fact flat. The curve itself is gated: with
//! `--check`, within every protocol family the slowest instance's
//! **transitions/s** must stay within `2x` of the fastest's (instances
//! under 100k states are exempt — their timings are noise). The gate is
//! work-normalized on purpose: scaling a family up adds tree nodes, and
//! each node adds both variables to decode and enabled actions per state,
//! so states/s falls with size even at perfectly flat per-transition
//! throughput — a transition evaluated is the size-invariant unit of
//! enumeration work, and a scheduling or memory collapse shows up in it
//! directly.
//!
//! # Out-of-core figures
//!
//! Every resident instance is also swept through [`SegmentedSpace`]
//! (`seg_scan_seconds`, `segments`): the same transition relation built
//! segment-at-a-time by work-stealing workers and dropped after the scan.
//! Diffusing instances additionally run the frontier convergence check
//! ([`check_convergence_frontier_stats`]), which never materializes
//! transitions; `--huge` adds `diffusing-binary-14` (`4^14 = 2^28`
//! states), whose ~24 GB CSR table cannot exist under the default 8 GiB
//! budget, as a frontier-only instance. With `--check`, a frontier
//! instance that also has a resident figure must make no more successor
//! evaluations than its region (the states outside the goal) has
//! transitions: within budget the frontier keeps each segment's rows
//! across rounds and evaluates each region transition once.
//!
//! # The seed comparison
//!
//! `seed_bytes` models the v0 representation (materialized `Vec<State>`,
//! a `HashMap<State, StateId>` with owned cloned keys at 7/8 load factor,
//! one `Vec<(ActionId, StateId)>` row per state):
//!
//! ```text
//! seed_bytes = n·(16 + 8·vars)      states column (fat Box<[i64]> + slots)
//!            + n·(16 + 8·vars)      cloned HashMap keys (heap)
//!            + (n·8/7)·(24 + 1)     hash buckets (key+id) + control bytes
//!            + n·24 + m·8           row Vec headers + 8-byte pairs
//! ```

use std::process::ExitCode;
use std::time::Instant;

use nonmask_checker::{
    check_convergence_frontier_stats, Bitset, CheckOptions, ConvergenceResult, Fairness,
    SegmentedSpace, SpaceIndex, StateSpace,
};
use nonmask_obs::{Event, Journal};
use nonmask_program::{Predicate, Program};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;

/// Which runs include the instance.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Always measured (CI-sized, seconds).
    Smoke,
    /// Default and `--huge` runs (the 16.7M-state instances).
    Full,
    /// `--huge` runs only (the 2^28-state frontier-only instance).
    Huge,
}

/// One benchmark instance. `max_bytes_per_state` is the committed ceiling
/// on CSR bytes per state (`--check` fails above it); ceilings are ~15%
/// over the measured value on the reference container, so noise passes
/// but a layout regression (anything that adds bytes per transition) does
/// not. `goal` enables the frontier convergence measurement (the
/// predicate the protocol converges to without fairness).
struct Instance {
    name: &'static str,
    /// Scaling-family key for the throughput-flatness gate.
    family: &'static str,
    program: Program,
    goal: Option<Predicate>,
    max_bytes_per_state: f64,
    tier: Tier,
    /// `false` for instances whose CSR table exceeds the default budget:
    /// only the frontier figures are measured.
    resident: bool,
}

fn instances(tier: Tier) -> Vec<Instance> {
    let mut all = vec![
        Instance {
            name: "token-ring-n5-k5",
            family: "token-ring",
            program: TokenRing::new(5, 5).program().clone(),
            goal: None,
            max_bytes_per_state: 36.0,
            tier: Tier::Smoke,
            resident: true,
        },
        Instance {
            name: "token-ring-n7-k7",
            family: "token-ring",
            program: TokenRing::new(7, 7).program().clone(),
            goal: None,
            max_bytes_per_state: 52.0,
            tier: Tier::Smoke,
            resident: true,
        },
        {
            let dc = DiffusingComputation::new(&Tree::binary(9));
            Instance {
                name: "diffusing-binary-9",
                family: "diffusing-binary",
                goal: Some(dc.invariant()),
                program: dc.program().clone(),
                max_bytes_per_state: 78.0,
                tier: Tier::Smoke,
                resident: true,
            }
        },
        Instance {
            name: "token-ring-n8-k8",
            family: "token-ring",
            program: TokenRing::new(8, 8).program().clone(),
            goal: None,
            max_bytes_per_state: 62.0,
            tier: Tier::Full,
            resident: true,
        },
        {
            let dc = DiffusingComputation::new(&Tree::binary(12));
            Instance {
                name: "diffusing-binary-12",
                family: "diffusing-binary",
                goal: Some(dc.invariant()),
                program: dc.program().clone(),
                max_bytes_per_state: 110.0,
                tier: Tier::Full,
                resident: true,
            }
        },
        {
            let dc = DiffusingComputation::new(&Tree::binary(14));
            Instance {
                name: "diffusing-binary-14",
                family: "diffusing-binary",
                goal: Some(dc.invariant()),
                program: dc.program().clone(),
                max_bytes_per_state: 0.0,
                tier: Tier::Huge,
                resident: false,
            }
        },
    ];
    all.retain(|i| match tier {
        Tier::Smoke => i.tier == Tier::Smoke,
        Tier::Full => i.tier != Tier::Huge,
        Tier::Huge => true,
    });
    all
}

/// Figures only resident instances have.
struct ResidentFigures {
    transitions: usize,
    /// Transitions leaving states outside the goal: the frontier's region
    /// (`T = true`, so `T ∧ ¬S` is `¬goal`). `None` without a goal.
    region_transitions: Option<u64>,
    wall_seconds: f64,
    setup_seconds: f64,
    build_seconds: f64,
    states_per_second: f64,
    transitions_per_second: f64,
    resident_bytes: usize,
    bytes_per_state: f64,
    seed_bytes: u64,
    seed_bytes_per_state: f64,
    memory_reduction: f64,
    max_bytes_per_state: f64,
    segments: usize,
    seg_scan_seconds: f64,
    seg_states_per_second: f64,
}

/// Figures from the frontier convergence check.
struct FrontierFigures {
    seconds: f64,
    rounds: u64,
    evals: u64,
    states_per_second: f64,
    verdict: &'static str,
}

struct Row {
    name: &'static str,
    family: &'static str,
    states: usize,
    resident: Option<ResidentFigures>,
    frontier: Option<FrontierFigures>,
}

/// Sum of the CSR count + fill phase durations, from the journal the
/// enumeration wrote. This is the per-state work; everything else in the
/// wall time is one-time setup (allocation, index construction).
fn build_micros(journal_lines: &str) -> u64 {
    journal_lines
        .lines()
        .filter_map(|l| Event::parse_line(l).ok())
        .filter_map(|r| match r.event {
            Event::CsrPhase { micros, .. } => Some(micros),
            _ => None,
        })
        .sum()
}

fn measure_resident(inst: &Instance, opts: CheckOptions) -> (usize, ResidentFigures) {
    let (journal, buffer) = Journal::memory();
    let started = Instant::now();
    let space = StateSpace::enumerate_journaled(&inst.program, opts, &journal)
        .expect("resident bench instances fit the default budget");
    let wall = started.elapsed().as_secs_f64();
    journal.flush();
    let build = build_micros(&buffer.contents()) as f64 / 1e6;

    let n = space.len();
    let m = space.transition_count();
    let vars = space.var_count();
    let resident = space.resident_bytes();
    // The seed representation (see the module docs). The hash table is
    // modeled at its 7/8 maximum load factor, i.e. a lower bound on its
    // true capacity.
    let state_bytes = 16 + 8 * vars as u64;
    let seed_bytes = n as u64 * state_bytes * 2   // Vec<State> + cloned keys
        + (n as u64 * 8).div_ceil(7) * 25         // buckets (24 B) + ctrl (1 B)
        + n as u64 * 24                           // row Vec headers
        + m as u64 * 8; // (ActionId, StateId) pairs
    let region_transitions = inst.goal.as_ref().map(|goal| {
        let in_goal = Bitset::for_predicate(&space, goal, opts).expect("goal cache");
        space
            .ids()
            .filter(|&id| !in_goal.contains(id))
            .map(|id| space.successor_ids(id).len() as u64)
            .sum()
    });
    drop(space);

    // The same relation, segment-at-a-time: built by work-stealing
    // workers, scanned, dropped. The count cross-checks the CSR build.
    let seg_space = SegmentedSpace::new(&inst.program, opts).expect("segment plans fit the budget");
    let seg_started = Instant::now();
    let per_segment = seg_space
        .scan(|_ti, seg| seg.transition_count() as u64)
        .expect("segmented scan of a resident-sized instance");
    let seg_secs = seg_started.elapsed().as_secs_f64();
    let seg_m: u64 = per_segment.iter().sum();
    assert_eq!(seg_m, m as u64, "segmented scan must see every transition");

    let figures = ResidentFigures {
        transitions: m,
        region_transitions,
        wall_seconds: wall,
        setup_seconds: (wall - build).max(0.0),
        build_seconds: build,
        states_per_second: n as f64 / build,
        transitions_per_second: m as f64 / build,
        resident_bytes: resident,
        bytes_per_state: resident as f64 / n as f64,
        seed_bytes,
        seed_bytes_per_state: seed_bytes as f64 / n as f64,
        memory_reduction: seed_bytes as f64 / resident as f64,
        max_bytes_per_state: inst.max_bytes_per_state,
        segments: seg_space.segment_count(),
        seg_scan_seconds: seg_secs,
        seg_states_per_second: n as f64 / seg_secs,
    };
    (n, figures)
}

fn measure_frontier(inst: &Instance, goal: &Predicate, opts: CheckOptions) -> FrontierFigures {
    let started = Instant::now();
    let (result, stats) = check_convergence_frontier_stats(
        &inst.program,
        &Predicate::always_true(),
        goal,
        Fairness::Unfair,
        opts,
        &Journal::disabled(),
    )
    .expect("frontier mode stays within the default budget");
    let secs = started.elapsed().as_secs_f64();
    FrontierFigures {
        seconds: secs,
        rounds: stats.rounds,
        evals: stats.evals,
        states_per_second: stats.convergence.region_states as f64 / secs,
        verdict: match result {
            ConvergenceResult::Converges => "converges",
            _ => "diverges",
        },
    }
}

fn measure(inst: &Instance, opts: CheckOptions) -> Row {
    let (states, resident) = if inst.resident {
        let (n, figures) = measure_resident(inst, opts);
        (n, Some(figures))
    } else {
        let index = SpaceIndex::of_program(&inst.program, opts)
            .expect("the index is O(variables), it always fits");
        (index.len(), None)
    };
    let frontier = inst
        .goal
        .as_ref()
        .map(|goal| measure_frontier(inst, goal, opts));
    Row {
        name: inst.name,
        family: inst.family,
        states,
        resident,
        frontier,
    }
}

fn to_json(mode: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bench-checker-v2\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"instances\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"family\": \"{}\",\n", r.family));
        out.push_str(&format!(
            "      \"kind\": \"{}\",\n",
            if r.resident.is_some() {
                "resident"
            } else {
                "frontier-only"
            }
        ));
        out.push_str(&format!("      \"states\": {}", r.states));
        if let Some(f) = &r.resident {
            out.push_str(&format!(
                concat!(
                    ",\n",
                    "      \"transitions\": {},\n",
                    "      \"wall_seconds\": {:.3},\n",
                    "      \"setup_seconds\": {:.3},\n",
                    "      \"build_seconds\": {:.3},\n",
                    "      \"states_per_second\": {:.0},\n",
                    "      \"transitions_per_second\": {:.0},\n",
                    "      \"resident_bytes\": {},\n",
                    "      \"bytes_per_state\": {:.2},\n",
                    "      \"seed_bytes\": {},\n",
                    "      \"seed_bytes_per_state\": {:.2},\n",
                    "      \"memory_reduction\": {:.2},\n",
                    "      \"max_bytes_per_state\": {:.1},\n",
                    "      \"segments\": {},\n",
                    "      \"seg_scan_seconds\": {:.3},\n",
                    "      \"seg_states_per_second\": {:.0}",
                ),
                f.transitions,
                f.wall_seconds,
                f.setup_seconds,
                f.build_seconds,
                f.states_per_second,
                f.transitions_per_second,
                f.resident_bytes,
                f.bytes_per_state,
                f.seed_bytes,
                f.seed_bytes_per_state,
                f.memory_reduction,
                f.max_bytes_per_state,
                f.segments,
                f.seg_scan_seconds,
                f.seg_states_per_second,
            ));
        }
        if let Some(f) = &r.frontier {
            out.push_str(&format!(
                concat!(
                    ",\n",
                    "      \"frontier_seconds\": {:.3},\n",
                    "      \"frontier_rounds\": {},\n",
                    "      \"frontier_evals\": {},\n",
                    "      \"frontier_states_per_second\": {:.0},\n",
                    "      \"frontier_verdict\": \"{}\"",
                ),
                f.seconds, f.rounds, f.evals, f.states_per_second, f.verdict,
            ));
        }
        out.push_str(&format!(
            "\n    }}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Instances below this size are exempt from the flatness gate: their
/// build phases finish in about a millisecond, so their rates are noise.
const FLATNESS_MIN_STATES: usize = 100_000;

/// The committed throughput-curve gate: within one protocol family, the
/// slowest instance's transitions/s (the size-invariant unit of
/// enumeration work — see the module docs) must be within this factor of
/// the fastest's.
const FLATNESS_FACTOR: f64 = 2.0;

fn check_flatness(rows: &[Row]) -> bool {
    let mut ok = true;
    let mut families: Vec<&'static str> = rows.iter().map(|r| r.family).collect();
    families.dedup();
    for family in families {
        let rates: Vec<(&str, f64)> = rows
            .iter()
            .filter(|r| r.family == family && r.states >= FLATNESS_MIN_STATES)
            .filter_map(|r| {
                r.resident
                    .as_ref()
                    .map(|f| (r.name, f.transitions_per_second))
            })
            .collect();
        let Some((min_name, min)) = rates.iter().min_by(|a, b| a.1.total_cmp(&b.1)).copied() else {
            continue;
        };
        let (max_name, max) = rates
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .copied()
            .expect("nonempty");
        if max > min * FLATNESS_FACTOR {
            eprintln!(
                "FAIL {family}: transitions/s is not flat — {max_name} at {max:.0} \
                 is more than {FLATNESS_FACTOR}x {min_name} at {min:.0}"
            );
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let huge = args.iter().any(|a| a == "--huge");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_checker.json".to_string());
    let (tier, mode) = if smoke {
        (Tier::Smoke, "smoke")
    } else if huge {
        (Tier::Huge, "huge")
    } else {
        (Tier::Full, "full")
    };
    let opts = CheckOptions::default();

    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>8} {:>12} {:>8} {:>9} {:>10}",
        "instance",
        "states",
        "transitions",
        "build s",
        "setup s",
        "states/s",
        "B/state",
        "seg s",
        "frontier s"
    );
    let mut rows = Vec::new();
    let mut failed = false;
    for inst in instances(tier) {
        let r = measure(&inst, opts);
        match &r.resident {
            Some(f) => println!(
                "{:<22} {:>12} {:>12} {:>8.3} {:>8.3} {:>12.0} {:>8.2} {:>9.3} {:>10}",
                r.name,
                r.states,
                f.transitions,
                f.build_seconds,
                f.setup_seconds,
                f.states_per_second,
                f.bytes_per_state,
                f.seg_scan_seconds,
                r.frontier
                    .as_ref()
                    .map(|fr| format!("{:.3}", fr.seconds))
                    .unwrap_or_else(|| "-".into()),
            ),
            None => println!(
                "{:<22} {:>12} {:>12} {:>8} {:>8} {:>12} {:>8} {:>9} {:>10}",
                r.name,
                r.states,
                "-",
                "-",
                "-",
                "-",
                "-",
                "-",
                r.frontier
                    .as_ref()
                    .map(|fr| format!("{:.3}", fr.seconds))
                    .unwrap_or_else(|| "-".into()),
            ),
        }
        if check {
            if let Some(f) = &r.resident {
                if f.bytes_per_state > f.max_bytes_per_state {
                    eprintln!(
                        "FAIL {}: {:.2} bytes/state exceeds the committed ceiling {:.1}",
                        r.name, f.bytes_per_state, f.max_bytes_per_state
                    );
                    failed = true;
                }
            }
            if let Some(f) = &r.frontier {
                if f.verdict != "converges" {
                    eprintln!("FAIL {}: frontier verdict is {}", r.name, f.verdict);
                    failed = true;
                }
                // Within budget every segment keeps its rows, so each
                // region transition is evaluated at most once.
                if let Some(m) = r.resident.as_ref().and_then(|res| res.region_transitions) {
                    if f.evals > m {
                        eprintln!(
                            "FAIL {}: frontier made {} successor evaluations for {m} region transitions",
                            r.name, f.evals
                        );
                        failed = true;
                    }
                }
            }
        }
        rows.push(r);
    }
    if check && !check_flatness(&rows) {
        failed = true;
    }

    let json = to_json(mode, &rows);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
