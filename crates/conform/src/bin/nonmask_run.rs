//! `nonmask-run`: launch a registered protocol as distributed
//! TCP-loopback nodes under configurable fault rates, or replay/produce
//! observability journals.
//!
//! ```text
//! nonmask-run --list
//! nonmask-run token-ring --nodes 5 --k 5 --loss 0.2 --seed 1
//! nonmask-run diffusing --nodes 7 --loss 0.3 --crash 2 --json out.json
//! nonmask-run coloring --nodes 7 --journal run.jsonl
//! nonmask-run bfs --nodes 6 --loss 0.2
//! nonmask-run spanning-tree --nodes 4 --crash 1
//! nonmask-run check --nodes 5 --journal check.jsonl
//! nonmask-run conform --smoke --out conform-out
//! nonmask-run trace check.jsonl
//! ```
//!
//! Every protocol comes from the registry
//! (`nonmask_protocols::registry`): `--nodes` and `--k` size it, and
//! any other parameter is the conformance corpus instance's. A protocol
//! run starts from a seeded random (usually illegitimate) state, waits
//! for the runtime detector to observe convergence, optionally
//! crash-restarts one node into an arbitrary state and waits for
//! reconvergence, then prints the observability report. `check` runs
//! the exhaustive checker on the token ring and journals a convergence
//! witness as a per-constraint repair timeline; `trace` replays any
//! journal as human-readable text (and fails on schema drift, which is
//! what the CI gate leans on).
//!
//! Each subcommand declares its options in one flag table; one parser
//! reads every table, and `--help` is rendered from the same tables.

use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use nonmask_checker::convergence::check_convergence_stats;
use nonmask_checker::{repair_path, replay_constraints, CheckOptions, Fairness, StateSpace};
use nonmask_net::{run, FaultConfig, Journal, NetConfig, NetEvent};
use nonmask_obs::{parse_journal, render_timeline};
use nonmask_program::Predicate;
use nonmask_protocols::registry::{Protocol, FAMILIES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One subcommand as `--help` shows it and the parser reads it.
///
/// Each `flags` line is both the parser's declaration and the option's
/// `--help` line, so the two cannot drift: its first [`FLAG_COLUMN`]
/// columns hold the option and, if it takes one, a value placeholder
/// (`--nodes N`); a line starting with a space continues the help of the
/// line above.
struct Command {
    /// The subcommand word (`<protocol>` for protocol runs).
    name: &'static str,
    /// Usage after the subcommand word.
    synopsis: &'static str,
    /// The one positional argument the subcommand takes, if any.
    operand: Option<&'static str>,
    /// What the subcommand does, one help line per text line.
    about: &'static str,
    flags: &'static [&'static str],
    /// Runs the subcommand on its parsed arguments.
    main: fn(&Args) -> Result<ExitCode, String>,
}

/// Width of the option column of a `flags` line.
const FLAG_COLUMN: usize = 18;

/// The option a `flags` line declares, and whether it takes a value.
fn declared(line: &str) -> Option<(&str, bool)> {
    let head = line.get(..FLAG_COLUMN).unwrap_or(line).trim_end();
    let (name, value) = head.split_once(' ').unwrap_or((head, ""));
    name.starts_with("--").then_some((name, !value.is_empty()))
}

const RUN: Command = Command {
    name: "<protocol>",
    synopsis: "[options]",
    operand: Some("protocol"),
    about: "run a registered protocol as TCP-loopback socket nodes under\n\
            injected faults until the runtime detector sees convergence",
    flags: &[
        "--nodes N         number of processes (default 5)",
        "--k K             token-ring counter modulus (default = nodes)",
        "--loss P          frame drop probability (default 0.2)",
        "--corrupt P       frame bit-flip probability (default loss/4)",
        "--dup P           frame duplication probability (default loss/4)",
        "--delay P         frame delay probability (default loss/2)",
        "--seed S          RNG seed: faults, initial and restart states (default 1)",
        "--crash NODE      crash-restart NODE into an arbitrary state mid-run",
        "--down-ms MS      crash downtime (default 50)",
        "--timeout-ms MS   abort threshold (default 30000)",
        "--shards S        reactor worker shards (default 0 = auto)",
        "--json PATH       also write the machine-readable report to PATH",
        "--journal PATH    write a JSON-lines event journal to PATH",
        "                  (check: default prints the timeline instead)",
    ],
    main: run_main,
};

const CHECK: Command = Command {
    name: "check",
    synopsis: "[options]",
    operand: None,
    about: "model-check the token ring (--nodes, --k) and journal a convergence\n\
            witness as a per-constraint repair timeline",
    flags: RUN.flags,
    main: check_ring,
};

const TRACE: Command = Command {
    name: "trace",
    synopsis: "<journal.jsonl>",
    operand: Some("journal path"),
    about: "replay a JSON-lines journal as a readable timeline\n\
            (exits nonzero on any schema drift)",
    flags: &[],
    main: trace_main,
};

/// Every subcommand, in `--help` order.
const COMMANDS: [&Command; 7] = [
    &RUN,
    &CHECK,
    &conform::COMMAND,
    &synth::COMMAND,
    &fleet::COMMAND,
    &byzantine::COMMAND,
    &TRACE,
];

/// The help text, rendered from the registry and the flag tables.
fn usage() -> String {
    let mut out = String::new();
    for (i, cmd) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        out += &format!("{lead} nonmask-run {} {}\n", cmd.name, cmd.synopsis);
    }
    out += "       nonmask-run --list | --help\n\nprotocols:\n";
    for (name, about) in FAMILIES {
        out += &format!("  {name:<18}{about}\n");
    }
    for (i, cmd) in COMMANDS.iter().enumerate() {
        out += &format!("\n{} {}\n", cmd.name, cmd.synopsis);
        for line in cmd.about.lines() {
            out += &format!("    {line}\n");
        }
        if i > 0 && !cmd.flags.is_empty() && cmd.flags == COMMANDS[i - 1].flags {
            out += "    (options as above)\n";
            continue;
        }
        for line in cmd.flags {
            out += &format!("    {line}\n");
        }
    }
    out
}

/// The options and operand one subcommand was given.
struct Args {
    values: HashMap<&'static str, String>,
    operand: String,
}

impl Args {
    /// Read `argv` against `cmd`'s flag table. The last occurrence of a
    /// repeated option wins.
    fn parse(cmd: &Command, argv: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut operands = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                operands.push(arg.clone());
                continue;
            }
            let (name, takes_value) = cmd
                .flags
                .iter()
                .filter_map(|line| declared(line))
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown option `{arg}`"))?;
            let value = if takes_value {
                argv.next().ok_or_else(|| format!("{arg} needs a value"))?
            } else {
                ""
            };
            values.insert(name, value.to_owned());
        }
        let wanted = usize::from(cmd.operand.is_some());
        if let Some(extra) = operands.get(wanted) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        let operand = match (cmd.operand, operands.pop()) {
            (Some(name), None) => return Err(format!("missing {name}")),
            (_, operand) => operand.unwrap_or_default(),
        };
        Ok(Args { values, operand })
    }

    /// Whether switch (or option) `name` was given.
    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The raw value of option `name`.
    fn text(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of option `name`, parsed.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.text(name)
            .map(|v| v.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// The value of option `name`, parsed, or `default` when absent.
    fn or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }
}

/// A journal writing to `path`, or a disabled one.
fn journal_at(path: Option<&str>) -> Result<Journal, String> {
    match path {
        Some(path) => Journal::to_file(path).map_err(|e| format!("cannot create {path}: {e}")),
        None => Ok(Journal::disabled()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--list") {
        for (name, _) in FAMILIES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    match dispatch(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Route `argv` to its subcommand; errors are printed as one line.
fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let named = argv
        .first()
        .and_then(|word| COMMANDS.iter().find(|cmd| cmd.name == word));
    let (cmd, rest) = match named {
        Some(cmd) => (*cmd, &argv[1..]),
        None => (&RUN, argv),
    };
    let args = Args::parse(cmd, rest).map_err(|msg| format!("{msg} (see --help)"))?;
    (cmd.main)(&args)
}

/// `trace <journal.jsonl>`: replay a journal as a readable timeline;
/// any schema drift is a hard failure.
fn trace_main(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operand;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let records = parse_journal(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", render_timeline(&records));
    Ok(ExitCode::SUCCESS)
}

/// `<protocol>`: launch the registered protocol as socket
/// nodes from a seeded random state and report its convergence.
fn run_main(args: &Args) -> Result<ExitCode, String> {
    let nodes = args.or("--nodes", 5)?;
    let spec = Protocol::from_family(&args.operand, nodes, args.get("--k")?)?.spec();
    let seed = args.or("--seed", 1)?;
    let loss = args.or("--loss", 0.2)?;
    let initial = spec.program.random_state(&mut StdRng::seed_from_u64(seed));
    let hostile = FaultConfig::hostile(seed, loss);
    let faults = FaultConfig {
        corrupt_rate: args.or("--corrupt", hostile.corrupt_rate)?,
        duplicate_rate: args.or("--dup", hostile.duplicate_rate)?,
        delay_rate: args.or("--delay", hostile.delay_rate)?,
        ..hostile
    };
    let down = Duration::from_millis(args.or("--down-ms", 50)?);
    let events = args
        .get("--crash")?
        .map(|node| NetEvent::CrashRestart {
            node,
            at_least: Duration::ZERO,
            down,
        })
        .into_iter()
        .collect();
    let config = NetConfig {
        seed,
        faults,
        timeout: Duration::from_millis(args.or("--timeout-ms", 30_000)?),
        events,
        journal: journal_at(args.text("--journal"))?,
        shards: args.or("--shards", 0)?,
        ..NetConfig::default()
    };

    println!(
        "launching `{}` as {nodes} socket nodes (loss {:.0}%, seed {seed})",
        spec.program.name(),
        loss * 100.0,
    );
    let report = run(&spec.program, &initial, &spec.goal, &config).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if let Some(path) = args.text("--json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.text("--journal") {
        eprintln!("journal written to {path}");
    }
    Ok(if report.converged {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `check`: model-check the token ring, then journal a witness
/// computation from a corrupt state as a §4 constraint-repair timeline.
fn check_ring(args: &Args) -> Result<ExitCode, String> {
    let n = args.or("--nodes", 5)?;
    let k = args.or("--k", n as i64)?;
    // The registry's decomposition of the ring: c.j ≡ `x.j = x.(j-1)`.
    // The constraint graph is the ring's chain (c.j reads only c.(j-1)'s
    // variables), and on the all-agree states only the root holds the
    // privilege — the paper's Theorem 2 shape.
    let spec = Protocol::from_family("token-ring", n, Some(k))?.spec();
    let program = &spec.program;

    // Journal to the requested file, or to memory (rendered at the end).
    let (journal, memory) = match args.text("--journal") {
        Some(path) => (journal_at(Some(path))?, None),
        None => {
            let (journal, buffer) = Journal::memory();
            (journal, Some(buffer))
        }
    };

    let opts = CheckOptions::default();
    let space = StateSpace::enumerate_journaled(program, opts, &journal)
        .map_err(|e| format!("enumeration failed: {e}"))?;
    let (convergence, _) = check_convergence_stats(
        &space,
        program,
        &Predicate::always_true(),
        &spec.goal,
        Fairness::WeaklyFair,
        opts,
        &journal,
    )
    .map_err(|e| format!("convergence check failed: {e}"))?;

    // A maximally disagreeing start: every boundary violates its
    // constraint, so the witness shows the whole repair cascade.
    let corrupt = program
        .state_from((0..n).map(|j| ((n - j) as i64) % k).collect::<Vec<_>>())
        .map_err(|e| format!("corrupt state: {e}"))?;
    let path = repair_path(&space, program, &corrupt, &spec.constraints)
        .map_err(|e| format!("path search failed: {e}"))?
        .ok_or("no path from the corrupt state to the all-agree states")?;
    let transitions = replay_constraints(program, &path, &spec.constraints, &journal);
    journal.flush();

    println!(
        "token ring n={n} k={k}: {} states, converges: {}, witness path {} steps, {} constraint transitions",
        space.len(),
        convergence.converges(),
        path.len() - 1,
        transitions.len()
    );
    if let Some(buffer) = memory {
        let records =
            parse_journal(&buffer.contents()).map_err(|e| format!("journal replay failed: {e}"))?;
        print!("{}", render_timeline(&records));
    } else if let Some(path) = args.text("--journal") {
        println!("journal written to {path}");
    }
    Ok(if convergence.converges() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `conform`: the fixed-seed differential conformance corpus, plus the
/// planted-bug self-test when built with `--features planted-bug`.
mod conform {
    use std::process::ExitCode;

    use nonmask_conform::corpus::emit_verdict;
    use nonmask_conform::{
        check_run, corpus, run_corpus, run_net_journaled, run_sim, run_sim_journaled,
        shrink_schedule, CorpusConfig, CorpusReport, ProtocolOracle, ProtocolSpec, RunInput,
    };
    use nonmask_obs::Journal;

    use super::{journal_at, Args, Command};

    pub const COMMAND: Command = Command {
        name: "conform",
        synopsis: "[options]",
        operand: None,
        about: "differential conformance: replay every simulator and socket-runtime\n\
                step through the checker's transition relation over a fixed-seed\n\
                corpus; on divergence, shrink the fault schedule and write repro\n\
                artifacts (exit 2)",
        flags: &[
            "--smoke           CI-sized corpus",
            "--seed S          base seed (default 1)",
            "--out DIR         repro artifact directory (default conform-out)",
            "--journal PATH    verdict journal",
            "--sim-only        skip the socket runtime",
            "--planted-bug     self-test; needs cargo feature planted-bug",
        ],
        main,
    };

    pub fn main(args: &Args) -> Result<ExitCode, String> {
        let seed = args.or("--seed", 1)?;
        if args.has("--planted-bug") {
            return planted_main(seed);
        }

        let specs = corpus();
        let mut config = if args.has("--smoke") {
            CorpusConfig::smoke(seed)
        } else {
            CorpusConfig::full(seed)
        };
        config.sim_only = args.has("--sim-only");
        let journal = journal_at(args.text("--journal"))?;
        println!(
            "conformance corpus: {} protocols, {} sim + {} net runs each (base seed {seed})",
            specs.len(),
            config.sim_runs,
            if config.sim_only { 0 } else { config.net_runs },
        );
        let report = run_corpus(&specs, &config, &journal)?;
        journal.flush();
        print!("{}", report.render());
        if let Some(path) = args.text("--journal") {
            eprintln!("verdict journal written to {path}");
        }
        if report.divergent_runs() == 0 {
            return Ok(ExitCode::SUCCESS);
        }
        let out = args.text("--out").unwrap_or("conform-out");
        if let Err(msg) = write_artifacts(&report, &specs, out) {
            eprintln!("error writing artifacts: {msg}");
        }
        // Distinct from infrastructure failure (1): the layers ran, but
        // they disagree with the checker.
        Ok(ExitCode::from(2))
    }

    /// For every divergent run: shrink its fault schedule (sim) to a
    /// 1-minimal reproducer and write the `(protocol, seed, schedule)`
    /// triple plus a re-execution journal under `out`.
    fn write_artifacts(
        report: &CorpusReport,
        specs: &[ProtocolSpec],
        out: &str,
    ) -> Result<(), String> {
        std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        for protocol in &report.protocols {
            if protocol.divergent().next().is_none() {
                continue;
            }
            let spec = specs
                .iter()
                .find(|s| s.name == protocol.name)
                .ok_or_else(|| format!("no spec named {}", protocol.name))?;
            let oracle = ProtocolOracle::build(spec)?;
            for run in protocol.divergent() {
                let stem = format!("{out}/{}-{}-seed{}", protocol.name, run.layer, run.seed);
                let journal = Journal::to_file(format!("{stem}.journal.jsonl"))
                    .map_err(|e| format!("cannot create {stem}.journal.jsonl: {e}"))?;
                match &run.input {
                    RunInput::Sim { schedule, cfg } => {
                        let shrunk = shrink_schedule(schedule, |candidate| {
                            run_sim(&spec.program, &spec.goal, run.seed, candidate, cfg)
                                .map(|o| !check_run(&oracle, spec, &o, true).conforms())
                                .unwrap_or(false)
                        });
                        let outcome = run_sim_journaled(
                            &spec.program,
                            &spec.goal,
                            run.seed,
                            &shrunk,
                            cfg,
                            &journal,
                        )?;
                        let verdict = check_run(&oracle, spec, &outcome, true);
                        emit_verdict(&journal, "sim", &protocol.name, run.seed, &verdict);
                        let text = format!(
                            "# minimal reproducing fault schedule\n# protocol {}\n# layer sim ({})\n# seed {}\n# replay: deterministic given (protocol, seed, schedule)\n{}",
                            protocol.name,
                            run.variant,
                            run.seed,
                            shrunk.render()
                        );
                        std::fs::write(format!("{stem}.schedule"), text)
                            .map_err(|e| format!("cannot write {stem}.schedule: {e}"))?;
                        println!(
                            "repro: {} sim seed {} shrunk to {} fault(s) -> {stem}.schedule",
                            protocol.name,
                            run.seed,
                            shrunk.len()
                        );
                    }
                    RunInput::Net { cfg } => {
                        let outcome =
                            run_net_journaled(&spec.program, &spec.goal, run.seed, cfg, &journal)
                                .map_err(|e| format!("net replay failed: {e}"))?;
                        let verdict = check_run(&oracle, spec, &outcome, true);
                        emit_verdict(&journal, "net", &protocol.name, run.seed, &verdict);
                        println!(
                            "repro: {} net seed {} ({}) -> {stem}.journal.jsonl",
                            protocol.name, run.seed, run.variant
                        );
                    }
                }
                journal.flush();
            }
        }
        Ok(())
    }

    /// Self-test: execute the planted token-ring mutant against the
    /// healthy oracle — the harness must detect the divergence and
    /// shrink the fault schedule to a ≤5-event reproducer.
    #[cfg(feature = "planted-bug")]
    fn planted_main(seed: u64) -> Result<ExitCode, String> {
        use nonmask_conform::{FaultSchedule, Protocol, SimRunConfig};
        use nonmask_program::Predicate;
        use nonmask_protocols::token_ring::TokenRing;

        let spec = Protocol::TokenRing { nodes: 4, k: 4 }.spec();
        let mutant = TokenRing::planted_mutant(4, 4).program().clone();
        let oracle = ProtocolOracle::build(&spec)?;
        // Run for a fixed horizon (never-satisfied goal) so the token
        // always revisits the mutated root action.
        let never = Predicate::always_false();
        let cfg = SimRunConfig {
            max_rounds: 60,
            ..SimRunConfig::default()
        };
        let diverges = |schedule: &FaultSchedule| {
            run_sim(&mutant, &never, seed, schedule, &cfg)
                .map(|o| !check_run(&oracle, &spec, &o, false).conforms())
                .unwrap_or(false)
        };
        let schedule = FaultSchedule::random(&spec.program, 4, seed, 8, 40);
        if !diverges(&schedule) {
            return Err(format!("planted bug NOT detected (seed {seed})"));
        }
        let shrunk = shrink_schedule(&schedule, diverges);
        println!(
            "planted bug detected; schedule shrunk {} -> {} fault(s)",
            schedule.len(),
            shrunk.len()
        );
        println!(
            "repro: protocol {} seed {seed} schedule:\n{}",
            spec.name,
            if shrunk.is_empty() {
                "(empty — the bug needs no faults)".to_owned()
            } else {
                shrunk.render()
            }
        );
        if shrunk.len() > 5 {
            return Err(format!(
                "shrunk schedule still has {} faults (> 5)",
                shrunk.len()
            ));
        }
        Ok(ExitCode::SUCCESS)
    }

    #[cfg(not(feature = "planted-bug"))]
    fn planted_main(_seed: u64) -> Result<ExitCode, String> {
        Err("the planted-bug self-test needs `--features planted-bug` \
             (cargo run -p nonmask-conform --features planted-bug --bin nonmask-run -- conform --planted-bug)"
            .to_owned())
    }
}

/// `fleet`: batch-step a population of lightweight protocol instances to
/// stabilization, with checker verdicts shared through the fleet's
/// first-tenant-pays cache.
mod fleet {
    use std::process::ExitCode;

    use nonmask_fleet::{run_fleet, FleetConfig, FleetProtocol};

    use super::{journal_at, Args, Command};

    pub const COMMAND: Command = Command {
        name: "fleet",
        synopsis: "[options]",
        operand: None,
        about: "batch-step a population of protocol instances to stabilization over\n\
                the verdict cache and report throughput, cache hit rate, and latency\n\
                percentiles versus the certified bounds (exit 2 on a violation)",
        flags: &[
            "--tenants N       population size (default 10000)",
            "--protocols SET   ring|mixed (default ring)",
            "--seed S          master seed (default 4058935296)",
            "--workers N       worker threads (default 0 = auto)",
            "--slab-size N     tenants per slab (default 4096); results are",
            "                  bit-identical for any --workers and --slab-size",
            "--faults N        transient faults per tenant (default 2)",
            "--journal PATH    population-summary journal",
            "--out FILE        write the JSON report",
        ],
        main,
    };

    pub fn main(args: &Args) -> Result<ExitCode, String> {
        let protocols = match args.text("--protocols").unwrap_or("ring") {
            "ring" => FleetProtocol::ring_mix(),
            "mixed" => FleetProtocol::mixed(),
            other => return Err(format!("unknown protocol set `{other}` (ring|mixed)")),
        };
        let defaults = FleetConfig::default();
        let config = FleetConfig {
            protocols,
            tenants: args.or("--tenants", defaults.tenants)?,
            master_seed: args.or("--seed", defaults.master_seed)?,
            workers: args.or("--workers", defaults.workers)?,
            slab_size: args.or("--slab-size", defaults.slab_size)?,
            faults_per_tenant: args.or("--faults", defaults.faults_per_tenant)?,
            ..defaults
        };
        let journal = journal_at(args.text("--journal"))?;
        println!(
            "fleet: {} tenants over {} configurations (seed {:#x}, {} faults/tenant)",
            config.tenants,
            config.protocols.len(),
            config.master_seed,
            config.faults_per_tenant
        );
        let report = run_fleet(&config, &journal).map_err(|e| e.to_string())?;
        journal.flush();

        println!(
            "{} tenants retired in {:.3}s ({:.0} instances/s, {:.0} steps/s), \
             {} B/instance, cache hit rate {:.4}%",
            report.tenants,
            report.wall.as_secs_f64(),
            report.instances_per_second(),
            report.steps_per_second(),
            report.bytes_per_instance,
            report.cache_hit_rate() * 100.0
        );
        println!(
            "latency: p50 {} p99 {} max {} steps; digest {:016x}",
            report.histogram.percentile(50.0).unwrap_or(0),
            report.histogram.percentile(99.0).unwrap_or(0),
            report.histogram.max(),
            report.digest()
        );
        for c in &report.configs {
            println!(
                "  {:<16} {:>8} tenants {:>10} steps  max latency {:>3} / bound {:<4} {}",
                c.key,
                c.tenants,
                c.steps,
                c.max_latency,
                c.bound.map_or("-".to_string(), |b| b.to_string()),
                if c.within_bound() { "ok" } else { "VIOLATED" }
            );
        }
        if let Some(path) = args.text("--journal") {
            eprintln!("population journal written to {path}");
        }
        if let Some(path) = args.text("--out") {
            std::fs::write(path, report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(if report.violations() == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: {} verdict-contradicting tenants/configurations",
                report.violations()
            );
            ExitCode::from(2)
        })
    }
}

/// `synth`: run the constraint-guided synthesizer on one of the paper's
/// decompositions, print the certified design, and optionally golden-diff
/// it or feed it through the conformance corpus.
mod synth {
    use std::process::ExitCode;

    use nonmask_conform::{run_corpus, CorpusConfig, ProtocolSpec};
    use nonmask_obs::Journal;
    use nonmask_synth::{specs, synthesize, SynthOptions, SynthResult, SynthSpec};

    use super::{journal_at, Args, Command};

    pub const COMMAND: Command = Command {
        name: "synth",
        synopsis: "--protocol P [options]",
        operand: None,
        about: "derive the convergence actions of a protocol from its constraint\n\
                decomposition alone and print the checker-certified design",
        flags: &[
            "--protocol P      token-ring|diffusing|coloring (required)",
            "--nodes N         instance size (default 4 ring, 7 trees)",
            "--window W        token-ring window (default 3)",
            "--colors C        coloring colors (default 3)",
            "--threads T       evaluation workers (default 0 = auto)",
            "--seed S          conformance seed for --conform (default 1)",
            "--out FILE        write the rendered design",
            "--journal PATH    synthesis event journal",
            "--golden FILE     diff against a committed design; exit 2 on drift",
            "--conform         feed the design through the smoke conformance corpus",
        ],
        main,
    };

    fn spec_for(args: &Args) -> Result<SynthSpec, String> {
        let nodes = args.get("--nodes")?;
        match args.text("--protocol") {
            Some("token-ring") => Ok(specs::token_ring_windowed(
                nodes.unwrap_or(4),
                args.or("--window", 3)?,
            )),
            Some("diffusing") => Ok(specs::diffusing(nodes.unwrap_or(7))),
            Some("coloring") => Ok(specs::coloring(nodes.unwrap_or(7), args.or("--colors", 3)?)),
            Some(other) => Err(format!("unknown synth protocol `{other}`")),
            None => Err("synth needs --protocol token-ring|diffusing|coloring".to_owned()),
        }
    }

    /// A conformance-corpus spec for the synthesized design: the
    /// program, goal and constraints the synthesizer certified, with each
    /// constraint's derived `repair.*` action as its designated repair.
    fn corpus_spec(out: &SynthResult) -> ProtocolSpec {
        let constraints = out.design.constraints();
        ProtocolSpec {
            name: format!("synth-{}", out.spec_name),
            program: out.design.program().clone(),
            goal: out.design.invariant(),
            constraints: constraints.iter().map(|c| c.predicate().clone()).collect(),
            designated: constraints
                .iter()
                .enumerate()
                .map(|(i, c)| (c.action(), i))
                .collect(),
        }
    }

    pub fn main(args: &Args) -> Result<ExitCode, String> {
        let spec = spec_for(args)?;
        let journal = journal_at(args.text("--journal"))?;
        let opts = SynthOptions {
            threads: args.or("--threads", 0)?,
        };
        let out = synthesize(&spec, &opts, &journal).map_err(|e| e.to_string())?;
        journal.flush();

        let rendered = out.render();
        print!("{rendered}");
        println!(
            "synth {}: {} states, {} candidates -> {} survivors -> {} certified; \
             {} oracle sweeps ({} unpruned, {:.1}x saved); {}",
            out.spec_name,
            out.metrics.states,
            out.metrics.candidates,
            out.metrics.survivors,
            out.metrics.certified,
            out.metrics.oracle_calls,
            out.metrics.oracle_calls_unpruned,
            out.metrics.oracle_calls_unpruned as f64 / out.metrics.oracle_calls.max(1) as f64,
            out.report.summary()
        );
        if let Some(path) = args.text("--out") {
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("design written to {path}");
        }
        if let Some(path) = args.text("--journal") {
            eprintln!("synthesis journal written to {path}");
        }

        if let Some(path) = args.text("--golden") {
            let expected = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read golden {path}: {e}"))?;
            if rendered != expected {
                eprintln!("golden mismatch against {path}:");
                for diff in diff_lines(&expected, &rendered) {
                    eprintln!("{diff}");
                }
                return Ok(ExitCode::from(2));
            }
            println!("golden match: {path}");
        }

        if args.has("--conform") {
            let corpus = corpus_spec(&out);
            let config = CorpusConfig::smoke(args.or("--seed", 1)?);
            println!(
                "conformance: {} sim + {} net runs of {}",
                config.sim_runs, config.net_runs, corpus.name
            );
            let report = run_corpus(std::slice::from_ref(&corpus), &config, &Journal::disabled())?;
            print!("{}", report.render());
            if report.divergent_runs() > 0 {
                return Ok(ExitCode::from(2));
            }
        }
        Ok(ExitCode::SUCCESS)
    }

    /// A minimal unified-ish diff: every line that differs, prefixed.
    fn diff_lines(expected: &str, got: &str) -> Vec<String> {
        let e: Vec<&str> = expected.lines().collect();
        let g: Vec<&str> = got.lines().collect();
        let mut out = Vec::new();
        for i in 0..e.len().max(g.len()) {
            match (e.get(i), g.get(i)) {
                (Some(a), Some(b)) if a == b => {}
                (a, b) => {
                    if let Some(a) = a {
                        out.push(format!("-{a}"));
                    }
                    if let Some(b) = b {
                        out.push(format!("+{b}"));
                    }
                }
            }
        }
        out
    }
}

/// `byzantine`: the containment-radius agreement battery. One Byzantine
/// instance runs through the simulator and the socket runtime on the
/// same seed; each layer's journal gets per-node containment verdicts,
/// and the radius measured from those verdicts must agree across the
/// layers, match the theory's prediction, and match the checker's
/// restricted-region convergence sweep on a small instance of the same
/// topology family. Exit 2 means the layers ran but a radius disagrees
/// — a containment violation.
mod byzantine {
    use std::process::ExitCode;
    use std::time::Duration;

    use nonmask_checker::{certify_containment, CheckOptions, Fairness, StateSpace};
    use nonmask_conform::{
        run_net_journaled, run_sim_journaled, ContainmentMap, FaultSchedule, NetRunConfig,
        SimRunConfig,
    };
    use nonmask_graph::Topology;
    use nonmask_obs::Journal;
    use nonmask_program::{Predicate, Program, State};
    use nonmask_protocols::{MinPlusOne, SpanningTree};

    use super::{journal_at, Args, Command};

    pub const COMMAND: Command = Command {
        name: "byzantine",
        synopsis: "[options]",
        operand: None,
        about: "containment-radius agreement battery: run one Byzantine instance\n\
                through the simulator and the socket runtime on the same seed,\n\
                measure the containment radius from each journal's per-node\n\
                verdicts, and certify the radius with the checker's\n\
                restricted-region convergence sweep on a small instance of the\n\
                same family; exit 2 on any radius violation",
        flags: &[
            "--protocol P      bfs|spanning-tree (default bfs)",
            "--nodes N         graph size (default 64, at least 4)",
            "--degree D        random-graph degree (default 3)",
            "--topo-seed S     random-graph seed (default 1)",
            "--byz A,B         comma-separated liar nodes (default nodes/2, nodes-1)",
            "--seed S          run seed (default 1)",
            "--check-nodes N   checker instance size (default 6 bfs, 4 spanning-tree)",
            "--timeout-ms MS   socket-run abort threshold (default 60000)",
            "--out DIR         write sim/net/small journals and a JSON summary",
        ],
        main,
    };

    /// The checker instance is fully enumerated, so its size is capped
    /// per protocol: min+1 has `n+1` values per node, the spanning
    /// tree `(n+1)·n` (distance × parent).
    fn check_nodes_for(protocol: &str, requested: Option<usize>) -> Result<usize, String> {
        let (default, max) = match protocol {
            "spanning-tree" => (4, 5),
            _ => (6, 7),
        };
        let n = requested.unwrap_or(default);
        if n < 4 || n > max {
            return Err(format!(
                "--check-nodes must be in 4..={max} for {protocol} (the space is enumerated)"
            ));
        }
        Ok(n)
    }

    /// Default liar placement: one mid-graph, one at the highest node
    /// id — deterministic, never the root.
    fn default_byz(nodes: usize) -> Vec<usize> {
        vec![nodes / 2, nodes - 1]
    }

    /// One protocol instance: its program, safe-region goal,
    /// containment expectations, and restricted-region goal family.
    struct Instance {
        program: Program,
        goal: Predicate,
        map: ContainmentMap,
        goal_at: Box<dyn Fn(u64) -> Predicate>,
        max_radius: u64,
        /// Whether the protocol's safety rule is exact (min+1: pure
        /// minimum, no ties) or a sound upper bound (spanning tree:
        /// the strict rule counts tie nodes the lowest-id tie-break
        /// may in fact protect, so the checker can certify less).
        exact: bool,
    }

    fn build(protocol: &str, topo: &Topology, byz: &[usize]) -> Result<Instance, String> {
        for &b in byz {
            if b >= topo.len() {
                return Err(format!("--byz node {b} out of range"));
            }
            if b == 0 {
                return Err("node 0 is the root; pick a non-root liar".to_owned());
            }
        }
        let max_radius = topo.len() as u64;
        match protocol {
            "bfs" => {
                let proto = MinPlusOne::with_byzantine(topo, 0, byz);
                let map = ContainmentMap::bfs(&proto);
                let goal = proto.safe_goal();
                let program = proto.program().clone();
                Ok(Instance {
                    program,
                    goal,
                    map,
                    goal_at: Box::new(move |r| proto.containment_goal(r)),
                    max_radius,
                    exact: true,
                })
            }
            "spanning-tree" => {
                let proto = SpanningTree::with_byzantine(topo, 0, byz);
                let map = ContainmentMap::spanning_tree(&proto);
                let goal = proto.safe_goal();
                let program = proto.program().clone();
                Ok(Instance {
                    program,
                    goal,
                    map,
                    goal_at: Box::new(move |r| proto.containment_goal(r)),
                    max_radius,
                    exact: false,
                })
            }
            other => Err(format!("unknown --protocol `{other}` (bfs|spanning-tree)")),
        }
    }

    /// The journal of layer `name` under `out`, and its path.
    fn journal_for(out: Option<&str>, name: &str) -> Result<(Journal, Option<String>), String> {
        let Some(dir) = out else {
            return Ok((Journal::disabled(), None));
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let path = format!("{dir}/{name}.jsonl");
        Ok((journal_at(Some(&path))?, Some(path)))
    }

    /// Measure one layer's radius: run it, judge the final state, and
    /// append the per-node containment verdicts to the layer journal.
    fn measure_sim(
        inst: &Instance,
        seed: u64,
        journal: &Journal,
    ) -> Result<(u64, State, bool), String> {
        let cfg = SimRunConfig {
            byzantine: inst.map.byzantine().to_vec(),
            byzantine_seed: seed,
            ..SimRunConfig::default()
        };
        let outcome = run_sim_journaled(
            &inst.program,
            &inst.goal,
            seed,
            &FaultSchedule::empty(),
            &cfg,
            journal,
        )?;
        let radius = inst.map.emit(&outcome.final_state, "sim", seed, journal);
        journal.flush();
        Ok((radius, outcome.final_state, outcome.stabilized))
    }

    fn measure_net(
        inst: &Instance,
        seed: u64,
        timeout_ms: u64,
        journal: &Journal,
    ) -> Result<(u64, bool), String> {
        let cfg = NetRunConfig {
            byzantine: inst.map.byzantine().to_vec(),
            byzantine_seed: seed,
            timeout: Duration::from_millis(timeout_ms),
            ..NetRunConfig::default()
        };
        let outcome = run_net_journaled(&inst.program, &inst.goal, seed, &cfg, journal)
            .map_err(|e| format!("net run failed: {e}"))?;
        let radius = inst.map.emit(&outcome.final_state, "net", seed, journal);
        journal.flush();
        Ok((radius, outcome.stabilized))
    }

    /// Print one layer's verdict and measured radius.
    fn report(layer: &str, stabilized: bool, radius: u64, path: Option<String>) {
        println!(
            "{layer}: safe region {}, measured radius {radius}{}",
            if stabilized {
                "stabilized"
            } else {
                "DID NOT stabilize"
            },
            path.map(|p| format!(" -> {p}")).unwrap_or_default()
        );
    }

    pub fn main(args: &Args) -> Result<ExitCode, String> {
        let protocol = args.text("--protocol").unwrap_or("bfs");
        let nodes = args.or("--nodes", 64)?;
        if nodes < 4 {
            return Err("byzantine needs --nodes >= 4".to_owned());
        }
        let degree = args.or("--degree", 3)?;
        let topo_seed = args.or("--topo-seed", 1)?;
        let seed = args.or("--seed", 1)?;
        let out = args.text("--out");
        let byz = match args.text("--byz") {
            Some(list) => list
                .split(',')
                .map(|b| b.trim().parse())
                .collect::<Result<Vec<usize>, _>>()
                .map_err(|e| format!("--byz: {e}"))?,
            None => default_byz(nodes),
        };
        let topo = Topology::random_connected(nodes, degree, topo_seed);
        let inst = build(protocol, &topo, &byz)?;
        println!(
            "byzantine {protocol}: {nodes} nodes (degree {degree}, topo seed {topo_seed}), liars {byz:?}, run seed {seed}"
        );
        println!(
            "predicted containment radius: {}",
            inst.map.predicted_radius
        );

        let (sim_journal, sim_path) = journal_for(out, "sim")?;
        let (sim_radius, _, sim_ok) = measure_sim(&inst, seed, &sim_journal)?;
        report("sim", sim_ok, sim_radius, sim_path);

        let (net_journal, net_path) = journal_for(out, "net")?;
        let (net_radius, net_ok) =
            measure_net(&inst, seed, args.or("--timeout-ms", 60_000)?, &net_journal)?;
        report("net", net_ok, net_radius, net_path);

        // The checker's independent verdict on a small instance of the
        // same family: enumerate the full Byzantine state space (havoc
        // actions included) and sweep the restricted-region goals.
        let check_nodes = check_nodes_for(protocol, args.get("--check-nodes")?)?;
        let small_byz = default_byz(check_nodes);
        let small_topo = Topology::random_connected(check_nodes, 2, topo_seed);
        let small = build(protocol, &small_topo, &small_byz)?;
        let space = StateSpace::enumerate(&small.program)
            .map_err(|e| format!("small-instance enumeration failed: {e}"))?;
        let verdict = certify_containment(
            &space,
            &small.program,
            &small.goal_at,
            small.max_radius,
            Fairness::WeaklyFair,
            CheckOptions::default(),
        )
        .map_err(|e| format!("containment certification failed: {e}"))?;
        let certified = verdict
            .radius
            .ok_or("no radius converged on the small instance")?;

        let (small_journal, small_path) = journal_for(out, "small")?;
        let (small_radius, _, small_ok) = measure_sim(&small, seed, &small_journal)?;
        println!(
            "checker: {} nodes, {} states, certified radius {}; observed small-instance radius {} ({}){}",
            check_nodes,
            space.len(),
            certified,
            small_radius,
            if small_ok { "stabilized" } else { "DID NOT stabilize" },
            small_path.as_deref().map(|p| format!(" -> {p}")).unwrap_or_default()
        );

        // The layers must agree with each other and with the theory;
        // the checker must agree exactly where the safety rule is
        // exact (min+1), and must never certify a *larger* radius than
        // the measured one (a genuine containment violation) where the
        // rule is a sound upper bound (spanning tree ties).
        let checker_agrees = if inst.exact {
            certified == small_radius
        } else {
            certified <= small_radius
        };
        let agree = sim_ok
            && net_ok
            && small_ok
            && sim_radius == net_radius
            && sim_radius == inst.map.predicted_radius
            && small_radius == small.map.predicted_radius
            && checker_agrees;
        if let Some(dir) = out {
            let summary = format!(
                "{{\"protocol\":\"{protocol}\",\"nodes\":{nodes},\"byzantine\":{byz:?},\"seed\":{seed},\
                 \"predicted_radius\":{},\"sim_radius\":{sim_radius},\"net_radius\":{net_radius},\
                 \"check_nodes\":{check_nodes},\"certified_radius\":{certified},\"small_radius\":{small_radius},\
                 \"agree\":{agree}}}\n",
                inst.map.predicted_radius,
            );
            let path = format!("{dir}/summary.json");
            std::fs::write(&path, summary).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("summary written to {path}");
        }
        if agree {
            println!("containment radii agree across sim, net, and checker");
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!("RADIUS VIOLATION: sim/net/checker disagree (see above)");
            Ok(ExitCode::from(2))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag line is laid out the way [`declared`] reads it: an
    /// option (or blanks, for a continuation) in the option column,
    /// help text from [`FLAG_COLUMN`] on, and no option twice.
    #[test]
    fn flag_lines_fill_the_option_column() {
        for cmd in COMMANDS {
            let mut seen = std::collections::HashSet::new();
            for line in cmd.flags {
                let (head, help) = line.split_at(FLAG_COLUMN);
                assert!(head.ends_with(' ') && !help.starts_with(' '), "`{line}`");
                match declared(line) {
                    Some((name, _)) => assert!(seen.insert(name), "{}: {name} twice", cmd.name),
                    None => assert!(head.trim().is_empty(), "`{line}`"),
                }
            }
        }
    }
}
