//! Cross-layer conformance corpus: divergences between the executable
//! layers and the checker (E16).

use nonmask_conform::{corpus, run_corpus, CorpusConfig};
use nonmask_obs::Journal;

use crate::table::Table;

/// E16 — the differential conformance sweep: every simulator and
/// socket-runtime step of the fixed-seed smoke corpus (the same corpus
/// CI runs via `nonmask-run conform --smoke`) is replayed through the
/// checker's step oracle; designated repairs must re-establish their
/// attributed constraints and reliable runs must stabilize inside the
/// checker's worst-case bound plus granularity slack. Expected
/// divergences: **zero** — any nonzero count is a bug in one of the
/// three layers, and the harness shrinks its fault schedule to a
/// minimal reproducer.
pub fn e16() -> String {
    let mut t = Table::new(
        "E16: cross-layer conformance corpus (divergences expected: 0)",
        [
            "protocol",
            "states",
            "bound",
            "sim runs",
            "net runs",
            "steps validated",
            "repairs observed",
            "worst observed",
            "divergent",
        ],
    );

    let specs = corpus();
    // Base seed 1 matches the CLI default, so this table reproduces the
    // CI smoke gate bit for bit.
    let report = run_corpus(&specs, &CorpusConfig::smoke(1), &Journal::disabled())
        .expect("corpus infrastructure");

    for protocol in &report.protocols {
        let (mut sim, mut net, mut repairs, mut steps) = (0usize, 0usize, 0u64, 0u64);
        let mut worst = 0u64;
        for run in &protocol.runs {
            match run.layer {
                "sim" => sim += 1,
                _ => net += 1,
            }
            repairs += run.report.repairs_observed;
            steps += run.report.steps_checked;
            if let Some(observed) = run.report.observed {
                worst = worst.max(observed);
            }
        }
        t.row([
            protocol.name.clone(),
            protocol.states.to_string(),
            protocol
                .bound
                .map_or_else(|| "unavailable".to_string(), |b| b.to_string()),
            sim.to_string(),
            net.to_string(),
            steps.to_string(),
            repairs.to_string(),
            worst.to_string(),
            protocol.divergent().count().to_string(),
        ]);
    }
    t.row([
        "total".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        report.steps_checked().to_string(),
        String::new(),
        String::new(),
        report.divergent_runs().to_string(),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit-sized slice of the corpus stays divergence-free.
    #[test]
    fn a_small_corpus_slice_has_zero_divergences() {
        let config = CorpusConfig {
            base_seed: 1,
            sim_runs: 6,
            net_runs: 0,
            sim_only: true,
        };
        let report = run_corpus(&corpus(), &config, &Journal::disabled()).expect("infrastructure");
        assert_eq!(report.divergent_runs(), 0, "{}", report.render());
    }
}
