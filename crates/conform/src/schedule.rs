//! Seeded, serializable fault schedules for simulator runs.
//!
//! A [`FaultSchedule`] is the *entire* fault input of a simulator run:
//! given the same `(program, seed, schedule)` triple the run is
//! bit-identical, which is what lets the delta-debugging shrinker
//! ([`crate::shrink`]) re-execute subsets and trust the outcome. The text
//! form (one entry per line, [`FaultSchedule::render`] /
//! [`FaultSchedule::parse`] round-trip exactly) is what divergence
//! artifacts are written in.

use nonmask_program::Program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fault injection, pinned to the simulator round it fires before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleEntry {
    /// Set ground-truth variable `var` (a slot index) to `value`.
    CorruptVar {
        /// Round the fault fires before.
        round: u64,
        /// Slot index of the variable.
        var: usize,
        /// The injected value (always within the variable's domain).
        value: i64,
    },
    /// Corrupt every variable of process `process` to random in-domain
    /// values (drawn from the simulator's own seeded stream).
    CorruptProcess {
        /// Round the fault fires before.
        round: u64,
        /// The target process.
        process: usize,
    },
    /// Crash `process` and restart it from domain-minimum values.
    CrashRestart {
        /// Round the fault fires before.
        round: u64,
        /// The target process.
        process: usize,
    },
    /// Partition the network into groups for a number of rounds.
    Partition {
        /// Round the fault fires before.
        round: u64,
        /// Group id per process (same id = same side).
        groups: Vec<usize>,
        /// How many rounds the partition lasts.
        rounds: u64,
    },
}

impl ScheduleEntry {
    /// The round this entry fires before.
    pub fn round(&self) -> u64 {
        match self {
            ScheduleEntry::CorruptVar { round, .. }
            | ScheduleEntry::CorruptProcess { round, .. }
            | ScheduleEntry::CrashRestart { round, .. }
            | ScheduleEntry::Partition { round, .. } => *round,
        }
    }
}

/// An ordered list of fault injections (kept sorted by round).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The entries, sorted by [`ScheduleEntry::round`] (stable order for
    /// entries sharing a round).
    pub entries: Vec<ScheduleEntry>,
}

impl FaultSchedule {
    /// The empty schedule: no faults beyond the random initial state.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Derive a random schedule from a seed. Deterministic: the same
    /// `(program, processes, seed, max_entries, horizon)` always yields
    /// the same schedule. Corrupt values are drawn from the variable's
    /// own domain so every injected state stays enumerable.
    pub fn random(
        program: &Program,
        processes: usize,
        seed: u64,
        max_entries: usize,
        horizon: u64,
    ) -> Self {
        // Decouple the schedule stream from the simulator's seed stream.
        let mut rng = StdRng::seed_from_u64(rand::split_seed(seed, 0x5EED_5C8E_D01E));
        let vars: Vec<_> = program.var_ids().collect();
        let count = if max_entries == 0 {
            0
        } else {
            rng.gen_range(0..=max_entries)
        };
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let round = rng.gen_range(0..=horizon);
            let kind = rng.gen_range(0..10u32);
            let entry = match kind {
                0..=3 => {
                    let var = rng.gen_range(0..vars.len());
                    let value = program.var(vars[var]).domain().sample(&mut rng);
                    ScheduleEntry::CorruptVar { round, var, value }
                }
                4..=6 => ScheduleEntry::CorruptProcess {
                    round,
                    process: rng.gen_range(0..processes),
                },
                7..=8 => ScheduleEntry::CrashRestart {
                    round,
                    process: rng.gen_range(0..processes),
                },
                _ => {
                    let groups = (0..processes).map(|_| rng.gen_range(0..2usize)).collect();
                    ScheduleEntry::Partition {
                        round,
                        groups,
                        rounds: rng.gen_range(1..=5),
                    }
                }
            };
            entries.push(entry);
        }
        let mut schedule = FaultSchedule { entries };
        schedule.sort();
        schedule
    }

    /// Restore the sorted-by-round ordering (stable).
    pub fn sort(&mut self) {
        self.entries.sort_by_key(ScheduleEntry::round);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as text, one entry per line. Round-trips through
    /// [`FaultSchedule::parse`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            match entry {
                ScheduleEntry::CorruptVar { round, var, value } => {
                    out.push_str(&format!("corrupt-var {round} {var} {value}\n"));
                }
                ScheduleEntry::CorruptProcess { round, process } => {
                    out.push_str(&format!("corrupt-process {round} {process}\n"));
                }
                ScheduleEntry::CrashRestart { round, process } => {
                    out.push_str(&format!("crash-restart {round} {process}\n"));
                }
                ScheduleEntry::Partition {
                    round,
                    groups,
                    rounds,
                } => {
                    let groups: Vec<String> = groups.iter().map(ToString::to_string).collect();
                    out.push_str(&format!(
                        "partition {round} {rounds} {}\n",
                        groups.join(",")
                    ));
                }
            }
        }
        out
    }

    /// Parse the [`FaultSchedule::render`] text form. Blank lines and
    /// `#`-comments are ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("schedule line {}: {what}: `{line}`", lineno + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parse_u64 = |s: &str, what: &str| {
                s.parse::<u64>()
                    .map_err(|_| err(&format!("bad {what} `{s}`")))
            };
            let parse_usize = |s: &str, what: &str| {
                s.parse::<usize>()
                    .map_err(|_| err(&format!("bad {what} `{s}`")))
            };
            let entry = match fields.as_slice() {
                ["corrupt-var", round, var, value] => ScheduleEntry::CorruptVar {
                    round: parse_u64(round, "round")?,
                    var: parse_usize(var, "var")?,
                    value: value
                        .parse::<i64>()
                        .map_err(|_| err(&format!("bad value `{value}`")))?,
                },
                ["corrupt-process", round, process] => ScheduleEntry::CorruptProcess {
                    round: parse_u64(round, "round")?,
                    process: parse_usize(process, "process")?,
                },
                ["crash-restart", round, process] => ScheduleEntry::CrashRestart {
                    round: parse_u64(round, "round")?,
                    process: parse_usize(process, "process")?,
                },
                ["partition", round, rounds, groups] => ScheduleEntry::Partition {
                    round: parse_u64(round, "round")?,
                    rounds: parse_u64(rounds, "duration")?,
                    groups: groups
                        .split(',')
                        .map(|g| parse_usize(g, "group"))
                        .collect::<Result<_, _>>()?,
                },
                _ => return Err(err("unrecognized entry")),
            };
            entries.push(entry);
        }
        let mut schedule = FaultSchedule { entries };
        schedule.sort();
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_protocols::token_ring::TokenRing;

    #[test]
    fn render_parse_round_trips() {
        let ring = TokenRing::new(4, 4);
        for seed in 0..32 {
            let schedule = FaultSchedule::random(ring.program(), 4, seed, 6, 20);
            let parsed = FaultSchedule::parse(&schedule.render()).unwrap();
            assert_eq!(schedule, parsed, "seed {seed}");
        }
    }

    #[test]
    fn random_is_deterministic_and_in_domain() {
        let ring = TokenRing::new(4, 4);
        let a = FaultSchedule::random(ring.program(), 4, 7, 6, 20);
        let b = FaultSchedule::random(ring.program(), 4, 7, 6, 20);
        assert_eq!(a, b);
        for entry in &a.entries {
            if let ScheduleEntry::CorruptVar { var, value, .. } = entry {
                let vars: Vec<_> = ring.program().var_ids().collect();
                assert!(ring.program().var(vars[*var]).domain().contains(*value));
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSchedule::parse("meteor-strike 3 1").is_err());
        assert!(FaultSchedule::parse("corrupt-var 3").is_err());
        assert!(FaultSchedule::parse("corrupt-var x 0 0").is_err());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# a comment\n\ncorrupt-var 3 0 1\n";
        let schedule = FaultSchedule::parse(text).unwrap();
        assert_eq!(schedule.len(), 1);
    }
}
