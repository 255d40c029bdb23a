//! The design pipeline the benchmark drives: certify → synthesize →
//! fleet → churn, each stage through the public API of the crates it
//! exercises.
//!
//! Every workload runs every stage, so every end-to-end metric is
//! measured on every workload. The workload picks which stage runs at
//! [`Scale::Full`] and fills most of the run; the others run a small
//! fixed probe. Probes run between the units of the full-scale stage, so
//! their samples spread over the whole run instead of bunching in one
//! stretch of it: the host's speed drifts over seconds, and spread-out
//! samples give a steadier median. Each instance's outputs are checked
//! against a known answer recorded from the unmodified program.

use std::time::{Duration, Instant};

use nonmask::{Design, ToleranceReport};
use nonmask_checker::{
    check_convergence_frontier_stats, CheckOptions, ConvergenceResult, Fairness, StateSpace,
};
use nonmask_fleet::{run_fleet, FleetConfig, FleetProtocol, VerdictCache};
use nonmask_net::{run, DetectorConfig, NetConfig, NetEvent};
use nonmask_obs::Journal;
use nonmask_program::{Predicate, Program, State};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::{windowed_design, TokenRing};
use nonmask_protocols::Tree;
use nonmask_synth::{specs, synthesize, SynthOptions, SynthSpec};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// `split_seed` stream of the fleet's master seed.
const FLEET_STREAM: u64 = 1;
/// `split_seed` stream of the net seed (resurrection states).
const NET_STREAM: u64 = 2;

/// The committed render of the synthesized 4-node windowed token ring.
const TOKEN_RING_GOLDEN: &str = include_str!("../../crates/synth/golden/token_ring.txt");

/// How large one stage runs in a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The stage the workload is named after.
    Full,
    /// A small fixed instance, so the stage's metrics exist everywhere.
    Probe,
}

/// One of the benchmark's workloads: the stage it runs at full scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closure and convergence verdicts on three large designs.
    Certify,
    /// Synthesis of the paper's three specifications.
    Synthesize,
    /// Four million tenants of the mixed protocol fleet.
    Fleet,
    /// Crash-restart churn on a 5000-node token ring over sockets.
    Churn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Certify,
        Workload::Synthesize,
        Workload::Fleet,
        Workload::Churn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Certify => "certify",
            Workload::Synthesize => "synthesize",
            Workload::Fleet => "fleet",
            Workload::Churn => "churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scale(self, stage: Workload) -> Scale {
        if self == stage {
            Scale::Full
        } else {
            Scale::Probe
        }
    }
}

/// Certify-stage instances and their known answers.
struct CertifyPlan {
    /// Binary-tree diffusing computation: nodes, worst-case moves.
    diffusing: (usize, u64),
    /// Windowed token ring: nodes, window, worst-case moves.
    windowed: (usize, i64, u64),
    /// Text-compiled K-state ring: nodes, k, states, transitions.
    ring: (usize, i64, usize, usize),
}

impl CertifyPlan {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => CertifyPlan {
                diffusing: (10, 61),
                windowed: (7, 6, 56),
                ring: (7, 7, 823_543, 4_353_013),
            },
            Scale::Probe => CertifyPlan {
                diffusing: (8, 44),
                windowed: (6, 5, 39),
                ring: (6, 6, 46_656, 202_176),
            },
        }
    }
}

/// One synthesis instance and its known answers.
struct SynthCase {
    name: &'static str,
    /// The span around its `synthesize` call, one per protocol family.
    span: &'static str,
    build: fn() -> SynthSpec,
    candidates: u64,
    golden: Option<&'static str>,
}

fn synth_cases(scale: Scale) -> Vec<SynthCase> {
    let ring = SynthCase {
        name: "token-ring-4-3",
        span: "synth.ring",
        build: || specs::token_ring_windowed(4, 3),
        candidates: 420,
        golden: Some(TOKEN_RING_GOLDEN),
    };
    let coloring = SynthCase {
        name: "coloring-7-3",
        span: "synth.coloring",
        build: || specs::coloring(7, 3),
        candidates: 336,
        golden: None,
    };
    match scale {
        Scale::Full => vec![
            ring,
            SynthCase {
                name: "diffusing-7",
                span: "synth.diffusing",
                build: || specs::diffusing(7),
                candidates: 858,
                golden: None,
            },
            coloring,
        ],
        Scale::Probe => vec![
            ring,
            SynthCase {
                name: "diffusing-5",
                span: "synth.diffusing",
                build: || specs::diffusing(5),
                candidates: 572,
                golden: None,
            },
            coloring,
        ],
    }
}

/// Fleet tenants, and the run digest under [`DEFAULT_SEED`].
fn fleet_plan(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (4_000_000, 0xdb8c_fda8_ce90_f107),
        Scale::Probe => (1_000_000, 0x5008_a763_fc8f_1a08),
    }
}

/// Net ring nodes and crash-restarts.
fn churn_plan(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (5000, 24),
        Scale::Probe => (200, 4),
    }
}

/// One timed step of a stage; a stage execution runs its units in order.
#[derive(Debug, Clone, Copy)]
enum Unit {
    Diffusing,
    Frontier,
    Windowed,
    RingText,
    Synth(usize),
    Fleet,
    Churn,
}

/// Rounds of probes after each unit of the full-scale stage: two after
/// the single long net run of `churn`, one elsewhere, so that every probe
/// gives about ten samples a run.
fn probe_rounds(workload: Workload) -> usize {
    if workload == Workload::Churn {
        2
    } else {
        1
    }
}

/// Everything a pass needs, built before the first measured call.
pub struct Inputs {
    workload: Workload,
    opts: CheckOptions,
    threads: usize,
    certify: CertifyPlan,
    diffusing: Design,
    diffusing_goal: Predicate,
    windowed: Design,
    ring_text: Program,
    synth: Vec<(SynthCase, SynthSpec)>,
    fleet: FleetConfig,
    fleet_digest: Option<u64>,
    ring: TokenRing,
    ring_initial: State,
    net: NetConfig,
    crashes: usize,
}

/// The K-state token ring of `TokenRing::new(n, k)`, as program text.
pub fn ring_text(n: usize, k: i64) -> String {
    let vars: Vec<String> = (0..n).map(|j| format!("x.{j} : 0..{}", k - 1)).collect();
    let mut text = format!("program token_ring\nvar {}\n", vars.join("; "));
    text.push_str(&format!(
        "action pass.0 [combined] : x.0 == x.{} -> x.0 := (x.0 + 1) % {k}\n",
        n - 1
    ));
    for j in 1..n {
        text.push_str(&format!(
            "action pass.{j} [combined] : x.{j} != x.{p} -> x.{j} := x.{p}\n",
            p = j - 1
        ));
    }
    text
}

/// Crash-restarts at `crashes` nodes spread evenly around an `n`-ring.
fn churn_events(n: usize, crashes: usize) -> Vec<NetEvent> {
    (0..crashes)
        .map(|i| NetEvent::CrashRestart {
            node: (i * n / crashes + n / (2 * crashes)) % n,
            at_least: Duration::ZERO,
            down: Duration::from_millis(20),
        })
        .collect()
}

impl Inputs {
    /// Build every stage's inputs for `workload`, drawing the fleet's
    /// master seed and the net seed from `seed`.
    ///
    /// # Errors
    ///
    /// A design or program that fails to build.
    pub fn build(workload: Workload, seed: u64, journal: &Journal) -> Result<Self, String> {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let opts = CheckOptions::default().threads(threads);
        let certify = CertifyPlan::at(workload.scale(Workload::Certify));
        let (churn_nodes, crashes) = churn_plan(workload.scale(Workload::Churn));

        let (diffusing, diffusing_goal, windowed, ring) = {
            let _span = journal.span("protocols.build");
            let dc = DiffusingComputation::new(&Tree::binary(certify.diffusing.0));
            let diffusing = dc.design().map_err(|e| e.to_string())?.with_options(opts);
            let (windowed, _) = windowed_design(certify.windowed.0, certify.windowed.1)
                .map_err(|e| e.to_string())?;
            let ring = TokenRing::new(churn_nodes, churn_nodes as i64);
            (diffusing, dc.invariant(), windowed.with_options(opts), ring)
        };
        let ring_text = {
            let _span = journal.span("lang.compile");
            nonmask_lang::compile(&ring_text(certify.ring.0, certify.ring.1))
                .map_err(|e| e.to_string())?
        };
        let synth = {
            let _span = journal.span("synth.specs");
            synth_cases(workload.scale(Workload::Synthesize))
                .into_iter()
                .map(|case| {
                    let spec = (case.build)();
                    (case, spec)
                })
                .collect()
        };

        let (tenants, digest) = fleet_plan(workload.scale(Workload::Fleet));
        let fleet = FleetConfig {
            protocols: FleetProtocol::mixed(),
            tenants,
            master_seed: rand::split_seed(seed, FLEET_STREAM),
            workers: threads,
            faults_per_tenant: 3,
            ..FleetConfig::default()
        };
        // The token ring is legitimate when every counter is equal.
        let ring_initial = ring
            .program()
            .state_from(vec![0; churn_nodes])
            .map_err(|e| e.to_string())?;
        let net = NetConfig {
            seed: rand::split_seed(seed, NET_STREAM),
            shards: threads,
            tick: Duration::from_micros(500),
            cooldown_ticks: 2,
            heartbeat_every: 400,
            detector: DetectorConfig {
                stable_for: Duration::from_millis(120),
                stable_fraction: 0.9,
                ..DetectorConfig::default()
            },
            timeout: Duration::from_secs(60),
            events: churn_events(churn_nodes, crashes),
            ..NetConfig::default()
        };
        Ok(Inputs {
            workload,
            opts,
            threads,
            certify,
            diffusing,
            diffusing_goal,
            windowed,
            ring_text,
            synth,
            fleet,
            fleet_digest: (seed == DEFAULT_SEED).then_some(digest),
            ring,
            ring_initial,
            net,
            crashes,
        })
    }
}

/// What the passes of one run measured and checked.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: designs, specs, tenants, episodes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Known-answer misses, one line each.
    pub misses: Vec<String>,

    /// Executions of each stage, indexed by `Workload as usize`.
    pub runs: [usize; 4],
    /// Per stage execution, indexed by `Workload as usize`: states
    /// decided per second of checker calls, candidates per second of
    /// `synthesize` calls, and tenant steps per second of `run_fleet`.
    pub rates: [Vec<f64>; 3],

    /// Transitions and states of resident Rust-closure enumerations.
    pub enumerated_transitions: u64,
    /// States of resident Rust-closure enumerations.
    pub enumerated_states: u64,
    /// Resident bytes of those state spaces.
    pub resident_bytes: u64,
    /// Frontier successor evaluations.
    pub frontier_evals: u64,
    /// Transitions of the programs the frontier checked (from the
    /// resident enumeration of the same program).
    pub frontier_transitions: u64,
    /// `ToleranceReport::timings` of the certify stage's verdicts:
    /// predicate evaluation, closure, theorem, convergence, bounds.
    pub verify_phases: [Duration; 5],

    /// Grammar candidates processed.
    pub candidates: u64,
    /// Candidates surviving the attribution prune.
    pub survivors: u64,
    /// Certification oracle sweeps.
    pub oracle_calls: u64,
    /// Time of synthesis's own final re-verify.
    pub synth_verify: Duration,

    /// Tenant steps.
    pub fleet_steps: u64,
    /// Fleet ticks.
    pub fleet_ticks: u64,
    /// `FleetReport::wall`: the stepping loop alone.
    pub fleet_stepping: Duration,
    /// Verdict-cache hit rate of the last fleet.
    pub fleet_hit_rate: f64,
    /// Bytes per tenant of the last fleet.
    pub fleet_bytes: u64,
    /// Digest of the first fleet, which later passes must repeat.
    pub fleet_digest: Option<u64>,

    /// Crash-restart recovery latencies, in milliseconds.
    pub recovery_ms: Vec<f64>,
    /// Per net call: the call's wall time minus `NetReport::wall`.
    pub net_setup: Vec<Duration>,
    /// `NetReport::wall` summed.
    pub net_run: Duration,
    /// Frames sent, frames rejected, steps, convergence steps, heartbeats.
    pub net_counts: [u64; 5],
}

impl Tally {
    fn check(&mut self, ok: bool, miss: impl FnOnce() -> String) {
        if !ok {
            self.misses.push(miss());
        }
    }

    /// A stage execution that did `work` in `time` has ended.
    fn finish(&mut self, stage: Workload, work: u64, time: Duration) {
        self.runs[stage as usize] += 1;
        if let Some(rates) = self.rates.get_mut(stage as usize) {
            rates.push(work as f64 / time.as_secs_f64());
        }
    }
}

/// Run one pass of the pipeline: the full-scale stage once, with a round
/// of probes (every other stage once) after each of its units.
pub fn pass(inputs: &Inputs, journal: &Journal, tally: &mut Tally) {
    let full = inputs.workload;
    execute(inputs, full, journal, tally, &mut |tally| {
        for _ in 0..probe_rounds(full) {
            for stage in Workload::ALL.into_iter().filter(|&s| s != full) {
                execute(inputs, stage, journal, tally, &mut |_| {});
            }
        }
    });
}

fn units(inputs: &Inputs, stage: Workload) -> Vec<Unit> {
    match stage {
        Workload::Certify => vec![
            Unit::Diffusing,
            Unit::Frontier,
            Unit::Windowed,
            Unit::RingText,
        ],
        Workload::Synthesize => (0..inputs.synth.len()).map(Unit::Synth).collect(),
        Workload::Fleet => vec![Unit::Fleet],
        Workload::Churn => vec![Unit::Churn],
    }
}

/// One execution of `stage`: its units in order, with `between` run
/// after each unit (outside the stage's timing).
fn execute(
    inputs: &Inputs,
    stage: Workload,
    journal: &Journal,
    tally: &mut Tally,
    between: &mut dyn FnMut(&mut Tally),
) {
    let (mut work, mut time) = (0, Duration::ZERO);
    for unit in units(inputs, stage) {
        let (w, t) = run_unit(inputs, unit, journal, tally);
        work += w;
        time += t;
        between(tally);
    }
    tally.finish(stage, work, time);
}

/// Run `unit`, returning the work it did (states decided, candidates,
/// tenant steps) and the time of the calls that did it. Certify and
/// synthesize units are one operation each; fleet and churn units count
/// their tenants and episodes themselves, and one more operation if they
/// fail to run at all.
fn run_unit(inputs: &Inputs, unit: Unit, journal: &Journal, tally: &mut Tally) -> (u64, Duration) {
    let counts_itself = matches!(unit, Unit::Fleet | Unit::Churn);
    if !counts_itself {
        tally.attempted += 1;
    }
    let outcome = match unit {
        Unit::Diffusing => certify_diffusing(inputs, journal, tally),
        Unit::Frontier => certify_frontier(inputs, journal, tally),
        Unit::Windowed => certify_windowed(inputs, journal, tally),
        Unit::RingText => certify_ring_text(inputs, journal, tally),
        Unit::Synth(i) => synthesize_one(inputs, i, journal, tally),
        Unit::Fleet => fleet(inputs, journal, tally),
        Unit::Churn => churn(inputs, journal, tally),
    };
    outcome.unwrap_or_else(|e| {
        if counts_itself {
            tally.attempted += 1;
        }
        tally.failed += 1;
        tally.misses.push(e);
        (0, Duration::ZERO)
    })
}

fn expect_verdict(
    name: &str,
    report: &ToleranceReport,
    theorem: &str,
    moves: u64,
) -> Result<(), String> {
    if !report.is_tolerant() || report.theorem.name() != theorem {
        return Err(format!(
            "{name}: expected tolerant under {theorem}, got {}",
            report.summary()
        ));
    }
    if report.worst_case_moves != Some(moves) {
        return Err(format!(
            "{name}: expected {moves} worst-case moves, got {:?}",
            report.worst_case_moves
        ));
    }
    Ok(())
}

fn add_phases(tally: &mut Tally, report: &ToleranceReport) {
    let t = &report.timings;
    for (sum, d) in tally.verify_phases.iter_mut().zip([
        t.predicate_eval,
        t.closure,
        t.theorem,
        t.convergence,
        t.bounds,
    ]) {
        *sum += d;
    }
}

/// Enumerate `program` resident and tally the figures of the space.
fn enumerate(
    program: &Program,
    opts: CheckOptions,
    journal: &Journal,
    tally: &mut Tally,
) -> Result<StateSpace, String> {
    let space = {
        let _span = journal.span("checker.enumerate");
        StateSpace::enumerate_with_options(program, opts).map_err(|e| e.to_string())?
    };
    tally.enumerated_states += space.len() as u64;
    tally.enumerated_transitions += space.transition_count() as u64;
    tally.resident_bytes += space.resident_bytes() as u64;
    Ok(space)
}

/// Work done (states, candidates or steps) and the time of the calls.
type Done = Result<(u64, Duration), String>;

fn certify_diffusing(inputs: &Inputs, journal: &Journal, tally: &mut Tally) -> Done {
    let (nodes, moves) = inputs.certify.diffusing;
    let name = format!("diffusing-{nodes}");
    let _span = journal.span(format!("certify:{name}"));
    let started = Instant::now();
    let space = enumerate(inputs.diffusing.program(), inputs.opts, journal, tally)?;
    let report = {
        let _span = journal.span("core.verify");
        inputs
            .diffusing
            .verify_with(&space)
            .map_err(|e| e.to_string())?
    };
    let elapsed = started.elapsed();
    let (n, m) = (space.len() as u64, space.transition_count() as u64);
    drop(space);
    add_phases(tally, &report);
    tally.frontier_transitions += m;
    if n != 1 << (2 * nodes) {
        return Err(format!("{name}: {n} states, expected 4^{nodes}"));
    }
    expect_verdict(&name, &report, "Theorem 1", moves)?;
    Ok((n, elapsed))
}

/// The frontier (out-of-core) convergence check of the diffusing
/// computation, which never materializes its transitions.
fn certify_frontier(inputs: &Inputs, journal: &Journal, tally: &mut Tally) -> Done {
    let name = format!("frontier-diffusing-{}", inputs.certify.diffusing.0);
    let _span = journal.span(format!("certify:{name}"));
    let started = Instant::now();
    let (verdict, stats) = {
        let _span = journal.span("checker.frontier");
        check_convergence_frontier_stats(
            inputs.diffusing.program(),
            &Predicate::always_true(),
            &inputs.diffusing_goal,
            Fairness::Unfair,
            inputs.opts,
            &Journal::disabled(),
        )
        .map_err(|e| e.to_string())?
    };
    let elapsed = started.elapsed();
    tally.frontier_evals += stats.evals;
    match verdict {
        ConvergenceResult::Converges => Ok((stats.convergence.region_states, elapsed)),
        other => Err(format!("{name}: verdict {other:?}, expected converges")),
    }
}

fn certify_windowed(inputs: &Inputs, journal: &Journal, tally: &mut Tally) -> Done {
    let (nodes, window, moves) = inputs.certify.windowed;
    let name = format!("windowed-{nodes}-{window}");
    let _span = journal.span(format!("certify:{name}"));
    let started = Instant::now();
    let space = enumerate(inputs.windowed.program(), inputs.opts, journal, tally)?;
    let report = {
        let _span = journal.span("core.verify");
        inputs
            .windowed
            .verify_with(&space)
            .map_err(|e| e.to_string())?
    };
    let elapsed = started.elapsed();
    let n = space.len() as u64;
    drop(space);
    add_phases(tally, &report);
    if n != (window as u64 + 1).pow(nodes as u32) {
        return Err(format!(
            "{name}: {n} states, expected {}^{nodes}",
            window + 1
        ));
    }
    expect_verdict(&name, &report, "Theorem 3", moves)?;
    Ok((n, elapsed))
}

fn certify_ring_text(inputs: &Inputs, journal: &Journal, _tally: &mut Tally) -> Done {
    let (nodes, k, states, transitions) = inputs.certify.ring;
    let name = format!("ring-text-{nodes}-{k}");
    let _span = journal.span(format!("certify:{name}"));
    let started = Instant::now();
    let space = {
        let _span = journal.span("lang.enumerate");
        StateSpace::enumerate_with_options(&inputs.ring_text, inputs.opts)
            .map_err(|e| e.to_string())?
    };
    let elapsed = started.elapsed();
    let (n, m) = (space.len(), space.transition_count());
    drop(space);
    if n != states || m != transitions {
        return Err(format!(
            "{name}: {n} states / {m} transitions, expected {states} / {transitions}"
        ));
    }
    Ok((n as u64, elapsed))
}

fn synthesize_one(inputs: &Inputs, index: usize, journal: &Journal, tally: &mut Tally) -> Done {
    let (case, spec) = &inputs.synth[index];
    let _span = journal.span(format!("synthesize:{}", case.name));
    let options = SynthOptions {
        threads: inputs.threads,
        ..SynthOptions::default()
    };
    let started = Instant::now();
    let out = {
        let _span = journal.span(case.span);
        synthesize(spec, &options, &Journal::disabled())
            .map_err(|e| format!("{}: {e}", case.name))?
    };
    let elapsed = started.elapsed();
    tally.candidates += out.metrics.candidates;
    tally.survivors += out.metrics.survivors;
    tally.oracle_calls += out.metrics.oracle_calls;
    tally.synth_verify += out.report.timings.total;
    if !out.report.is_tolerant() || out.distance != 0 {
        return Err(format!(
            "{}: tolerant {} at distance {}, expected tolerant at 0",
            case.name,
            out.report.is_tolerant(),
            out.distance
        ));
    }
    if out.metrics.candidates != case.candidates {
        return Err(format!(
            "{}: {} candidates, expected {}",
            case.name, out.metrics.candidates, case.candidates
        ));
    }
    if case.golden.is_some_and(|golden| out.render() != golden) {
        return Err(format!("{}: render drifted from the golden", case.name));
    }
    Ok((out.metrics.candidates, elapsed))
}

fn fleet(inputs: &Inputs, journal: &Journal, tally: &mut Tally) -> Done {
    let config = &inputs.fleet;
    let _span = journal.span(format!("fleet:mixed-{}", config.tenants));
    {
        let _span = journal.span("checker.verdict_cache");
        let cache = VerdictCache::build(&config.protocols).map_err(|e| e.to_string())?;
        for i in 0..cache.len() {
            cache.verdict(i).map_err(|e| e.to_string())?;
        }
    }
    let started = Instant::now();
    let report = {
        let _span = journal.span("fleet.run");
        run_fleet(config, &Journal::disabled()).map_err(|e| e.to_string())?
    };
    let elapsed = started.elapsed();
    let steps = report.counters.get("steps");
    tally.fleet_stepping += report.wall;
    tally.fleet_steps += steps;
    tally.fleet_ticks += report.counters.get("ticks");
    tally.fleet_hit_rate = report.cache_hit_rate();
    tally.fleet_bytes = report.bytes_per_instance;

    let stabilized = report.counters.get("stabilized");
    tally.attempted += report.tenants;
    tally.failed += report.tenants.saturating_sub(stabilized);
    let name = format!("fleet-{}", config.tenants);
    tally.check(report.violations() == 0, || {
        format!("{name}: {} violations", report.violations())
    });
    tally.check(stabilized == config.tenants, || {
        format!(
            "{name}: {stabilized} of {} tenants stabilized",
            config.tenants
        )
    });
    let digest = report.digest();
    let expected = *tally
        .fleet_digest
        .get_or_insert(inputs.fleet_digest.unwrap_or(digest));
    tally.check(digest == expected, || {
        format!("{name}: digest {digest:016x}, expected {expected:016x}")
    });
    Ok((steps, elapsed))
}

fn churn(inputs: &Inputs, journal: &Journal, tally: &mut Tally) -> Done {
    let n = inputs.ring.len();
    let name = format!("churn-ring-{n}");
    let _span = journal.span(format!("churn:ring-{n}"));
    let started = Instant::now();
    let report = {
        let _span = journal.span("net.run");
        run(
            inputs.ring.program(),
            &inputs.ring_initial,
            &inputs.ring.invariant(),
            &inputs.net,
        )
        .map_err(|e| format!("{name}: {e}"))?
    };
    tally
        .net_setup
        .push(started.elapsed().saturating_sub(report.wall));
    tally.net_run += report.wall;
    for node in &report.nodes {
        let c = &node.counters;
        for (sum, v) in tally.net_counts.iter_mut().zip([
            c.sent,
            c.rejected,
            c.steps,
            c.convergence_steps,
            c.heartbeats,
        ]) {
            *sum += v;
        }
    }
    let crash_episodes: Vec<_> = report
        .episodes
        .iter()
        .filter(|e| e.label.starts_with("crash-restart"))
        .collect();
    for episode in &crash_episodes {
        tally.attempted += 1;
        match episode.latency() {
            Some(latency) => tally.recovery_ms.push(latency.as_secs_f64() * 1e3),
            None => {
                tally.failed += 1;
                tally
                    .misses
                    .push(format!("{name}: {} never converged", episode.label));
            }
        }
    }
    let crashes: u64 = report.nodes.iter().map(|x| x.counters.crashes).sum();
    tally.check(report.converged && !report.timed_out, || {
        format!(
            "{name}: converged {} timed out {}",
            report.converged, report.timed_out
        )
    });
    tally.check(inputs.ring.invariant().holds(&report.final_state), || {
        format!("{name}: final state violates the invariant")
    });
    tally.check(
        crashes == inputs.crashes as u64 && crash_episodes.len() == inputs.crashes,
        || {
            format!(
                "{name}: {crashes} crashes over {} episodes, expected {}",
                crash_episodes.len(),
                inputs.crashes
            )
        },
    );
    Ok((0, Duration::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_text_is_the_k_state_ring() {
        assert_eq!(
            ring_text(3, 3),
            "program token_ring\nvar x.0 : 0..2; x.1 : 0..2; x.2 : 0..2\n\
             action pass.0 [combined] : x.0 == x.2 -> x.0 := (x.0 + 1) % 3\n\
             action pass.1 [combined] : x.1 != x.0 -> x.1 := x.0\n\
             action pass.2 [combined] : x.2 != x.1 -> x.2 := x.1\n"
        );
        let text = nonmask_lang::compile(&ring_text(4, 4)).unwrap();
        let hand = TokenRing::new(4, 4);
        let a = StateSpace::enumerate(&text).unwrap();
        let b = StateSpace::enumerate(hand.program()).unwrap();
        assert_eq!(
            (a.len(), a.transition_count()),
            (b.len(), b.transition_count())
        );
    }

    #[test]
    fn churn_crashes_are_spread_and_distinct() {
        let nodes: Vec<usize> = churn_events(5000, 24)
            .iter()
            .map(|e| match e {
                NetEvent::CrashRestart { node, .. } => *node,
                NetEvent::Partition { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(nodes.len(), 24);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert!(nodes.iter().all(|&n| n < 5000));
    }
}
