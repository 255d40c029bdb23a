//! Self-time accounting over a journal of nested spans.
//!
//! The benchmark opens [`Journal::span`](nonmask_obs::Journal::span)s
//! around its own calls into each layer, nested workload → instance →
//! layer call, all on one thread. A span's *self time* is its duration
//! minus the time its direct children cover; summed per span name, the
//! self times partition the traced wall time with nothing counted twice.

use std::collections::BTreeMap;

use nonmask_obs::Event;

/// Totals for every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of their durations, in microseconds.
    pub total_us: u64,
    /// Sum of their self times, in microseconds.
    pub self_us: u64,
}

/// Per-name totals of the span events in a JSON-lines journal. Non-span
/// events are skipped.
///
/// # Errors
///
/// A line that does not parse, a close that does not match the innermost
/// open span, or a span left open at the end.
pub fn self_times(journal: &str) -> Result<BTreeMap<String, SpanTotal>, String> {
    let mut totals: BTreeMap<String, SpanTotal> = BTreeMap::new();
    // Open spans, innermost last: (name, microseconds covered by children).
    let mut open: Vec<(String, u64)> = Vec::new();
    for (i, line) in journal.lines().enumerate() {
        let record = Event::parse_line(line).map_err(|e| format!("journal line {}: {e}", i + 1))?;
        match record.event {
            Event::SpanOpen { name } => open.push((name, 0)),
            Event::SpanClose { name, micros } => {
                let (opened, children) = open
                    .pop()
                    .ok_or_else(|| format!("journal line {}: close of unopened {name}", i + 1))?;
                if opened != name {
                    return Err(format!(
                        "journal line {}: close of {name} inside {opened}",
                        i + 1
                    ));
                }
                let total = totals.entry(name).or_default();
                total.count += 1;
                total.total_us += micros;
                total.self_us += micros.saturating_sub(children);
                if let Some(parent) = open.last_mut() {
                    parent.1 += micros;
                }
            }
            _ => {}
        }
    }
    match open.last() {
        Some((name, _)) => Err(format!("span {name} never closed")),
        None => Ok(totals),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(events: &[Event]) -> String {
        events
            .iter()
            .enumerate()
            .map(|(t, e)| e.to_json_line(t as u64) + "\n")
            .collect()
    }

    fn open(name: &str) -> Event {
        Event::SpanOpen { name: name.into() }
    }

    fn close(name: &str, micros: u64) -> Event {
        Event::SpanClose {
            name: name.into(),
            micros,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // workload (100) ⊃ instance (70) ⊃ {enumerate (30), verify (25)},
        // then a second instance (20) ⊃ enumerate (15).
        let text = journal(&[
            open("workload"),
            open("instance"),
            open("checker.enumerate"),
            close("checker.enumerate", 30),
            open("core.verify"),
            close("core.verify", 25),
            close("instance", 70),
            open("instance"),
            Event::Counter {
                scope: "x".into(),
                name: "y".into(),
                value: 1,
            },
            open("checker.enumerate"),
            close("checker.enumerate", 15),
            close("instance", 20),
            close("workload", 100),
        ]);
        let t = self_times(&text).unwrap();
        let get = |n: &str| t[n];
        assert_eq!(
            get("checker.enumerate"),
            SpanTotal {
                count: 2,
                total_us: 45,
                self_us: 45
            }
        );
        assert_eq!(get("core.verify").self_us, 25);
        assert_eq!(
            get("instance"),
            SpanTotal {
                count: 2,
                total_us: 90,
                self_us: 15 + 5
            }
        );
        assert_eq!(get("workload").self_us, 10);
        // Self times partition the outermost span.
        let sum: u64 = t.values().map(|s| s.self_us).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn malformed_nesting_is_an_error() {
        assert!(self_times(&journal(&[open("a"), close("b", 1)])).is_err());
        assert!(self_times(&journal(&[close("a", 1)])).is_err());
        assert!(self_times(&journal(&[open("a")])).is_err());
        assert!(self_times("not json\n").is_err());
    }
}
