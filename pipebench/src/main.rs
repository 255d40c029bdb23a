//! One repeatable benchmark for the design pipeline.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload certify|synthesize|fleet|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! A run builds every stage's inputs [`SETUP_REPS`] times (the median is
//! `setup_s`), then repeats passes for about `--seconds`: the workload's
//! own stage at full scale, with small probes of the other stages between
//! its units (see [`pipeline`]). Every output is checked against a known
//! answer. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics untraced, the per-layer metrics traced. Human
//! readable figures go to standard error. The exit code is 0 only when
//! every check passed.

mod metrics;
mod pipeline;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nonmask_obs::Journal;

use metrics::{result_line, END_TO_END, PER_LAYER};
use pipeline::{Inputs, Tally, Workload, DEFAULT_SEED};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Spans whose self time is a per-layer metric (`<name>_s`), with the
/// stage that makes the calls (`None`: set-up). The metric is the self
/// time per execution of that stage, or per set-up.
const LAYER_SPANS: &[(&str, Option<Workload>)] = &[
    ("protocols.build", None),
    ("lang.compile", None),
    ("synth.specs", None),
    ("lang.enumerate", Some(Workload::Certify)),
    ("checker.enumerate", Some(Workload::Certify)),
    ("checker.frontier", Some(Workload::Certify)),
    ("core.verify", Some(Workload::Certify)),
    ("synth.ring", Some(Workload::Synthesize)),
    ("synth.diffusing", Some(Workload::Synthesize)),
    ("synth.coloring", Some(Workload::Synthesize)),
    ("checker.verdict_cache", Some(Workload::Fleet)),
    ("fleet.run", Some(Workload::Fleet)),
    ("net.run", Some(Workload::Churn)),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pipebench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set, in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The end-to-end figures of a run.
fn end_to_end(setups: &[f64], tally: &Tally) -> Result<BTreeMap<&'static str, f64>, String> {
    let net_setup: Vec<f64> = tally.net_setup.iter().copied().map(secs).collect();
    let rate = |stage: Workload| stats::median(&tally.rates[stage as usize]);
    Ok(BTreeMap::from([
        ("setup_s", stats::median(setups) + stats::median(&net_setup)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("certify_states_per_s", rate(Workload::Certify)),
        ("synth_candidates_per_s", rate(Workload::Synthesize)),
        ("fleet_steps_per_s", rate(Workload::Fleet)),
        ("recovery_p50_ms", stats::median(&tally.recovery_ms)),
    ]))
}

/// The per-layer figures of a traced run, from its span journal and the
/// counts the passes tallied. Times and counts are per execution of the
/// stage that produced them.
fn per_layer(
    journal_text: &str,
    e2e: &BTreeMap<&'static str, f64>,
    tally: &Tally,
    passes: usize,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let spans = spans::self_times(journal_text)?;
    let per = |stage: Workload, v: f64| v / tally.runs[stage as usize] as f64;
    let mut out = BTreeMap::new();
    let mut layer_us = 0;
    for &(span, stage) in LAYER_SPANS {
        let name = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix("_s") == Some(span))
            .ok_or_else(|| format!("no per-layer metric for span {span}"))?
            .name;
        let us = spans.get(span).map_or(0, |s| s.self_us);
        layer_us += us;
        let s = us as f64 / 1e6;
        out.insert(
            name,
            stage.map_or(s / SETUP_REPS as f64, |stage| per(stage, s)),
        );
    }
    let all_us: u64 = spans.values().map(|s| s.self_us).sum();
    let enumerate_s = spans.get("checker.enumerate").map_or(0, |s| s.self_us) as f64 / 1e6;
    let [sent, rejected, steps, convergence_steps, heartbeats] =
        tally.net_counts.map(|c| per(Workload::Churn, c as f64));
    let phases = tally.verify_phases.map(|d| per(Workload::Certify, secs(d)));
    let net_setup: Vec<f64> = tally.net_setup.iter().copied().map(secs).collect();
    use Workload::{Certify, Fleet, Synthesize};
    out.extend([
        (
            "bench.glue_s",
            (all_us - layer_us) as f64 / 1e6 / passes as f64,
        ),
        ("bench.passes", passes as f64),
        (
            "checker.transitions_per_s",
            tally.enumerated_transitions as f64 / enumerate_s,
        ),
        (
            "checker.bytes_per_state",
            tally.resident_bytes as f64 / tally.enumerated_states as f64,
        ),
        (
            "checker.frontier_evals",
            per(Certify, tally.frontier_evals as f64),
        ),
        (
            "checker.frontier_evals_per_transition",
            tally.frontier_evals as f64 / tally.frontier_transitions as f64,
        ),
        ("core.predicate_eval_s", phases[0]),
        ("core.closure_s", phases[1]),
        ("core.theorem_s", phases[2]),
        ("core.convergence_s", phases[3]),
        ("core.bounds_s", phases[4]),
        ("synth.verify_s", per(Synthesize, secs(tally.synth_verify))),
        ("synth.candidates", per(Synthesize, tally.candidates as f64)),
        ("synth.survivors", per(Synthesize, tally.survivors as f64)),
        (
            "synth.oracle_calls",
            per(Synthesize, tally.oracle_calls as f64),
        ),
        (
            "synth.prune_ratio",
            1.0 - tally.survivors as f64 / tally.candidates as f64,
        ),
        ("fleet.stepping_s", per(Fleet, secs(tally.fleet_stepping))),
        ("fleet.steps", per(Fleet, tally.fleet_steps as f64)),
        ("fleet.ticks", per(Fleet, tally.fleet_ticks as f64)),
        ("fleet.cache_hit_rate", tally.fleet_hit_rate),
        ("fleet.bytes_per_instance", tally.fleet_bytes as f64),
        ("net.setup_s", stats::median(&net_setup)),
        ("net.run_s", per(Workload::Churn, secs(tally.net_run))),
        ("net.frames_sent", sent),
        ("net.frames_rejected", rejected),
        ("net.steps", steps),
        ("net.convergence_steps", convergence_steps),
        ("net.heartbeats", heartbeats),
        ("net.frames_per_step", sent / steps),
        ("net.recovery_samples", tally.recovery_ms.len() as f64),
    ]);
    for def in END_TO_END {
        let traced = PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("traced.") == Some(def.name))
            .ok_or_else(|| format!("no traced twin of {}", def.name))?;
        out.insert(traced.name, e2e[def.name]);
    }
    Ok(out)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let (journal, buffer) = if args.trace {
        let (j, b) = Journal::memory();
        (j, Some(b))
    } else {
        (Journal::disabled(), None)
    };
    let workload_span = journal.span(format!("workload:{}", args.workload.name()));

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let _span = journal.span("setup");
        let started = Instant::now();
        let built = Inputs::build(args.workload, args.seed, &journal)?;
        setups.push(started.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");

    // Passes until the next one would be expected to end more than half
    // a pass past the budget.
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut passes = 0;
    loop {
        let pass_started = Instant::now();
        {
            let _span = journal.span("pass");
            pipeline::pass(&inputs, &journal, &mut tally);
        }
        passes += 1;
        let last = pass_started.elapsed();
        eprintln!("pass {passes}: {:.3} s", last.as_secs_f64());
        if started.elapsed() + last / 2 > budget {
            break;
        }
    }
    drop(workload_span);
    drop(inputs);

    let e2e = end_to_end(&setups, &tally)?;
    let reportable = stats::highest_reportable(tally.recovery_ms.len());
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "{}: {passes} passes, seed {}, {threads} threads; recovery over {} samples, \
         highest reportable percentile {}",
        args.workload.name(),
        args.seed,
        tally.recovery_ms.len(),
        reportable.map_or("none".to_string(), |p| format!("p{p}")),
    );
    let (defs, values) = match &buffer {
        Some(buffer) => {
            journal.flush();
            (
                PER_LAYER,
                per_layer(&buffer.contents(), &e2e, &tally, passes)?,
            )
        }
        None => (END_TO_END, e2e),
    };
    for def in defs {
        let better = match def.better {
            metrics::Better::Lower => "lower is better",
            metrics::Better::Higher => "higher is better",
        };
        eprintln!(
            "  {:<40} {:>18.6} {:<8} {better}",
            def.name, values[def.name], def.unit
        );
    }
    for miss in &tally.misses {
        eprintln!("MISS {miss}");
    }
    let correct = tally.misses.is_empty() && tally.failed == 0;
    println!(
        "{}",
        result_line(defs, &values, correct, tally.attempted, tally.failed)?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    outcome.unwrap_or_else(|e| {
        eprintln!("pipebench: {e}");
        ExitCode::from(2)
    })
}
