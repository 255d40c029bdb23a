//! Frontier convergence: the out-of-core convergence check.
//!
//! [`check_convergence`](crate::convergence::check_convergence) needs the
//! whole CSR transition relation resident, which caps the checkable
//! instance at the memory budget. This module answers the same question —
//! does every computation from `T` reach `S`? — from a bare
//! [`SpaceIndex`]: successors are derived on demand, segment by segment.
//! The O(states) floor is a handful of bitsets (predicate caches and the
//! `resolved` frontier), about half a byte per state instead of 8 bytes
//! per *transition*; a segment's derived rows stay resident between
//! rounds only while they fit the memory budget.
//!
//! # Algorithm
//!
//! The monolithic checker peels the region `T ∧ ¬S` Kahn-style: a state is
//! *resolved* (cannot stay in the region forever) exactly when **all** of
//! its internal successors are resolved. The frontier mode computes the
//! same fixpoint in rounds. Each round, work-stealing workers sweep the
//! [segment plan](crate::CheckOptions::segment_plan): a worker buffers the
//! internal-successor rows of its segment's still-unresolved region states
//! (a mini-CSR), then runs an in-segment fixpoint against the shared
//! immutable `resolved` set plus its own local delta bits — so resolution
//! chains *within* a segment collapse in one round. Per-segment deltas are
//! OR-merged after the round (OR is commutative and associative, so the
//! overlapping boundary words of adjacent segments merge identically in
//! any order). Rounds repeat until no state resolves; what remains
//! unresolved is exactly the monolithic peel's residual.
//!
//! # Kept rows
//!
//! After its fixpoint a segment compacts its rows, dropping resolved
//! states and resolved successors, and keeps them for the next round when
//! they fit its share of the [memory
//! budget](crate::CheckOptions::memory_budget): half of what the budget
//! leaves after the bitsets, split evenly over the plan's segments. The
//! next round runs only the in-segment fixpoint over kept rows, with no
//! decode, guard or successor evaluation; a segment whose rows do not fit
//! re-derives them from its unresolved states, as every round once did.
//! With ample budget each region transition is therefore evaluated once,
//! in round 1.
//!
//! Kept rows never make a run fail. The budget check after each round
//! counts the bitsets and one derived row buffer per worker; derived
//! buffers only shrink after round 1, so a run fails exactly when its
//! first round does not fit. Kept rows that do not fit beside the round's
//! buffers are dropped (first fit in plan order) and re-derived next
//! round.
//!
//! Round 1 doubles as the deadlock/escape sweep (every region state is
//! unresolved then, so every row is examined): the lowest-id event wins,
//! matching the monolithic witness. The residual — typically tiny, and
//! empty whenever the program converges — is then analyzed exactly as in
//! the monolithic pipeline: a residual-local CSR (rows in action order,
//! filtered to residual targets), the shared Tarjan pass, and the same
//! fair-admissibility test with enabledness re-derived from guards (an
//! action is enabled at a state iff the CSR would have had a row pair for
//! it). SCC emission order, witness content, and state ordering are
//! identical to the monolithic checker's.
//!
//! # Determinism
//!
//! The resolved fixpoint is monotone, so its final value — and therefore
//! the verdict and every witness — is independent of thread count, segment
//! size, and claim order. With an explicit
//! [`segment_states`](crate::CheckOptions::segment_states) the per-round
//! journal events are invariant across thread counts too (the auto plan
//! sizes segments by worker count, which may change round boundaries but
//! never the verdict). Which segments keep their rows depends only on the
//! plan, the budget and each segment's own rows whenever the round's row
//! buffers fit in half of what the budget leaves after the bitsets. Under
//! a tighter budget, kept rows may be dropped for lack of room beside
//! those buffers, whose size grows with the worker count; then a round's
//! evaluation count (never its resolved states) can differ across thread
//! counts.

use std::sync::Mutex;

use nonmask_obs::{Event, Journal};
use nonmask_program::{Predicate, Program, VarId};

use crate::cache::Bitset;
use crate::convergence::{tarjan_sccs_csr, ConvergenceResult, ConvergenceStats, Fairness};
use crate::options::{steal_tasks, CheckOptions};
use crate::space::{offsets_from_counts, scratch_bytes, SpaceError, SpaceIndex, StateId};

/// Work and progress counters for one frontier convergence pass, wrapping
/// the monolithic [`ConvergenceStats`] so results stay comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// The monolithic-compatible sizes: region, peeled (= resolved at the
    /// fixpoint), residual SCCs.
    pub convergence: ConvergenceStats,
    /// Fixpoint rounds executed (0 when the region is empty).
    pub rounds: u64,
    /// Successor evaluations across all rounds — the frontier's unit of
    /// work. With every segment's rows kept this is exactly the region's
    /// transition count (plus the residual's, when it is not empty);
    /// segments that re-derive add their unresolved states' transitions
    /// again each round.
    pub evals: u64,
    /// Segment row-buffers derived across all rounds: every segment in
    /// round 1, then only segments whose rows were not kept.
    pub segments_built: u64,
}

/// The buffered internal-successor rows of one segment's unresolved
/// region states: row `k` is state `states[k]` (a global id) with
/// successors `succs[offsets[k]..offsets[k + 1]]`, in action order.
#[derive(Debug)]
struct Rows {
    states: Vec<u32>,
    offsets: Vec<u32>,
    succs: Vec<u32>,
}

impl Default for Rows {
    fn default() -> Self {
        Rows {
            states: Vec::new(),
            offsets: vec![0],
            succs: Vec::new(),
        }
    }
}

impl Rows {
    fn row(&self, k: usize) -> &[u32] {
        &self.succs[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Resident bytes of the three columns.
    fn bytes(&self) -> u64 {
        4 * (self.states.len() + self.offsets.len() + self.succs.len()) as u64
    }

    /// Drop, in place and keeping order, the rows of resolved states and
    /// the resolved successors of the rest: resolution is monotone, so
    /// neither can matter to a later round.
    fn compact(&mut self, resolved: impl Fn(usize) -> bool) {
        let (mut rows, mut succs) = (0, 0);
        let mut lo = 0;
        for k in 0..self.states.len() {
            let hi = self.offsets[k + 1] as usize;
            let s = self.states[k];
            if !resolved(s as usize) {
                for j in lo..hi {
                    let t = self.succs[j];
                    if !resolved(t as usize) {
                        self.succs[succs] = t;
                        succs += 1;
                    }
                }
                self.states[rows] = s;
                rows += 1;
                self.offsets[rows] = succs as u32;
            }
            lo = hi;
        }
        self.states.truncate(rows);
        self.offsets.truncate(rows + 1);
        self.succs.truncate(succs);
        self.states.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.succs.shrink_to_fit();
    }
}

/// [`check_convergence`](crate::convergence::check_convergence) without a
/// resident transition relation, with the
/// [default options](CheckOptions::default).
///
/// # Errors
///
/// [`SpaceError`] for unbounded/too-large programs, budget violations,
/// domain escapes at region states, or worker panics.
pub fn check_convergence_frontier(
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    fairness: Fairness,
) -> Result<ConvergenceResult, SpaceError> {
    check_convergence_frontier_opts(program, from, to, fairness, CheckOptions::default())
}

/// [`check_convergence_frontier`] with explicit [`CheckOptions`].
///
/// # Errors
///
/// Same as [`check_convergence_frontier`].
pub fn check_convergence_frontier_opts(
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    fairness: Fairness,
    options: CheckOptions,
) -> Result<ConvergenceResult, SpaceError> {
    Ok(check_convergence_frontier_stats(
        program,
        from,
        to,
        fairness,
        options,
        &Journal::disabled(),
    )?
    .0)
}

/// [`check_convergence_frontier_opts`] that additionally reports
/// [`FrontierStats`] and journals the pass: one [`Event::Segment`] (phase
/// `"frontier-round"`) per round with the states resolved and successor
/// evaluations, plus the same final [`Event::Wave`] the monolithic checker
/// emits.
///
/// # Errors
///
/// Same as [`check_convergence_frontier`].
pub fn check_convergence_frontier_stats(
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    fairness: Fairness,
    options: CheckOptions,
    journal: &Journal,
) -> Result<(ConvergenceResult, FrontierStats), SpaceError> {
    let index = SpaceIndex::of_program(program, options)?;
    let from_bits = Bitset::for_predicate_index(&index, from, options)?;
    let to_bits = Bitset::for_predicate_index(&index, to, options)?;
    check_convergence_frontier_bits_stats(
        program, &index, &from_bits, &to_bits, fairness, options, journal,
    )
}

/// [`check_convergence_frontier_stats`] over precomputed predicate caches
/// (evaluations of `from` and `to` over exactly `index`'s space), for
/// callers sharing the caches across passes.
///
/// # Errors
///
/// Same as [`check_convergence_frontier`].
#[allow(clippy::too_many_arguments)]
pub fn check_convergence_frontier_bits_stats(
    program: &Program,
    index: &SpaceIndex,
    from_bits: &Bitset,
    to_bits: &Bitset,
    fairness: Fairness,
    options: CheckOptions,
    journal: &Journal,
) -> Result<(ConvergenceResult, FrontierStats), SpaceError> {
    let mut stats = FrontierStats::default();
    let n = index.len();
    let region = from_bits.and(&to_bits.not());
    stats.convergence.region_states = region.count_ones() as u64;
    let emit_wave = |stats: &FrontierStats| {
        journal.emit_with(|| Event::Wave {
            fairness: fairness.to_string(),
            region: stats.convergence.region_states,
            peeled: stats.convergence.peeled_states,
            sccs: stats.convergence.sccs_found,
        });
    };
    if stats.convergence.region_states == 0 {
        emit_wave(&stats);
        return Ok((ConvergenceResult::Converges, stats));
    }

    let plan = options.segment_plan(n);
    let workers = options.workers_for(n);
    let nv = index.var_count();
    // Frontier residency floor: the four bitsets (from, to, region,
    // resolved) plus per-worker decode scratch. Checked before the rounds
    // allocate anything; row buffers are accounted after each round, when
    // their actual size is known.
    let bitset_bytes = 4 * (n.div_ceil(64) as u64 * 8);
    let floor = bitset_bytes + scratch_bytes(2 * workers as u64, nv);
    if floor > options.memory_budget {
        return Err(SpaceError::BudgetExceeded {
            required: floor,
            budget: options.memory_budget,
            phase: "frontier bitsets",
        });
    }
    // A segment keeps its compacted rows for the next round when they fit
    // its even share of half the budget left after the bitsets; the other
    // half stays for the row buffers of segments that re-derive. The share
    // depends on the plan and the budget alone, so while those buffers fit
    // in their half, which segments keep their rows — and hence every
    // round's work — is the same for every thread count and claim order.
    let row_quota = options.memory_budget.saturating_sub(bitset_bytes) / (2 * plan.count() as u64);
    let mut kept: Vec<Mutex<Option<Rows>>> = (0..plan.count()).map(|_| Mutex::new(None)).collect();

    let mut resolved = Bitset::zeros(n);

    /// The lowest-id offending observation of the round-1 sweep, in the
    /// same precedence a sequential row scan has: the first offending
    /// successor (in action order) of the lowest offending state.
    enum RegionEvent {
        Deadlock,
        FaultEscape { after: StateId },
        DomainEscape { action: String, var: String },
    }
    struct SegDelta {
        word_start: usize,
        delta: Vec<u64>,
        newly: u64,
        evals: u64,
        /// Bytes of the row buffer derived this round; `None` when the
        /// segment ran on its kept rows.
        rebuilt_bytes: Option<u64>,
        /// Bytes of the rows the segment keeps for the next round.
        kept_bytes: u64,
        event: Option<(usize, RegionEvent)>,
    }

    let mut round: u64 = 0;
    loop {
        round += 1;
        let resolved_ref = &resolved;
        let region_ref = &region;
        let kept_ref = &kept;
        let results: Vec<SegDelta> = steal_tasks(plan.count(), workers, |ti| {
            let range = plan.range(ti);
            let word_start = range.start / 64;
            let word_end = range.end.div_ceil(64);
            let mut delta = vec![0u64; word_end - word_start];
            let previous = kept_ref[ti]
                .lock()
                .expect("no task panics while holding its rows")
                .take();
            let rebuilt = previous.is_none();
            let mut evals = 0u64;
            let mut event: Option<(usize, RegionEvent)> = None;
            let mut rows = previous.unwrap_or_else(|| {
                // Buffer the rows of this segment's unresolved region
                // states: global state id + the internal successors, in
                // action order.
                let mut rows = Rows::default();
                let mut scratch = index.scratch_state();
                let mut succ = index.scratch_state();
                'states: for i in range.clone() {
                    if !region_ref.get(i) || resolved_ref.get(i) {
                        continue;
                    }
                    index.decode_state(StateId::from_index(i), &mut scratch);
                    let mut any_succ = false;
                    for a in program.action_ids() {
                        let act = program.action(a);
                        if !act.enabled(&scratch) {
                            continue;
                        }
                        any_succ = true;
                        act.successor_into(&scratch, &mut succ);
                        evals += 1;
                        let Some(t) = index.id_of(&succ) else {
                            event = Some((
                                i,
                                RegionEvent::DomainEscape {
                                    action: act.name().to_string(),
                                    var: program
                                        .var(VarId::from_index(index.escaping_var(&succ)))
                                        .name()
                                        .to_string(),
                                },
                            ));
                            break 'states;
                        };
                        if to_bits.contains(t) {
                            continue; // exits into S: not an internal edge
                        }
                        if !from_bits.contains(t) {
                            event = Some((i, RegionEvent::FaultEscape { after: t }));
                            break 'states;
                        }
                        rows.succs.push(t.index() as u32);
                    }
                    if !any_succ {
                        event = Some((i, RegionEvent::Deadlock));
                        break 'states;
                    }
                    rows.states.push(i as u32);
                    rows.offsets.push(rows.succs.len() as u32);
                }
                rows
            });
            let rebuilt_bytes = rebuilt.then(|| rows.bytes());
            let mut newly = 0u64;
            let mut kept_bytes = 0u64;
            if event.is_none() {
                // In-segment fixpoint: a buffered state resolves when all
                // its internal successors are resolved — in the shared set
                // (previous rounds) or in this segment's own delta.
                let is_resolved = |t: usize, delta: &[u64]| -> bool {
                    let w = t / 64;
                    if w >= word_start
                        && w < word_end
                        && delta[w - word_start] & (1 << (t % 64)) != 0
                    {
                        return true;
                    }
                    resolved_ref.get(t)
                };
                loop {
                    let mut changed = false;
                    for (k, &s) in rows.states.iter().enumerate() {
                        let s = s as usize;
                        if delta[s / 64 - word_start] & (1 << (s % 64)) != 0 {
                            continue;
                        }
                        if rows.row(k).iter().all(|&t| is_resolved(t as usize, &delta)) {
                            delta[s / 64 - word_start] |= 1 << (s % 64);
                            newly += 1;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                rows.compact(|t| is_resolved(t, &delta));
                if rows.bytes() <= row_quota {
                    kept_bytes = rows.bytes();
                    *kept_ref[ti]
                        .lock()
                        .expect("no task panics while holding its rows") = Some(rows);
                }
            }
            SegDelta {
                word_start,
                delta,
                newly,
                evals,
                rebuilt_bytes,
                kept_bytes,
                event,
            }
        })
        .map_err(SpaceError::from)?;

        stats.segments_built += results.iter().filter(|r| r.rebuilt_bytes.is_some()).count() as u64;
        let round_evals: u64 = results.iter().map(|r| r.evals).sum();
        stats.evals += round_evals;
        stats.rounds = round;

        // Round-1 events: the results are in segment order and each
        // segment reports its first event, so the first Some is the
        // lowest-id witness — exactly the sequential one.
        if let Some((i, ev)) = results.iter().find_map(|r| r.event.as_ref()) {
            let before = index.state(StateId::from_index(*i));
            let result = match ev {
                RegionEvent::Deadlock => ConvergenceResult::DeadlockOutsideTarget { state: before },
                RegionEvent::FaultEscape { after } => ConvergenceResult::EscapesFaultSpan {
                    before,
                    after: index.state(*after),
                },
                RegionEvent::DomainEscape { action, var } => {
                    return Err(SpaceError::EscapedDomain {
                        action: action.clone(),
                        var: var.clone(),
                    })
                }
            };
            emit_wave(&stats);
            return Ok((result, stats));
        }

        // Budget: the concurrent residency this round actually was —
        // bitsets plus one derived row buffer per worker (post-hoc, like
        // the segment builds). Derived rows only shrink after round 1, so
        // this fails exactly when round 1 would have without kept rows.
        let peak_rows = results
            .iter()
            .filter_map(|r| r.rebuilt_bytes)
            .max()
            .unwrap_or(0);
        let working =
            bitset_bytes + workers as u64 * peak_rows + scratch_bytes(2 * workers as u64, nv);
        if working > options.memory_budget {
            return Err(SpaceError::BudgetExceeded {
                required: working,
                budget: options.memory_budget,
                phase: "segment build",
            });
        }
        // Kept rows are an optimization and never fail a run: those that
        // do not fit beside the round's row buffers are dropped, first fit
        // in plan order, and their segments re-derive next round.
        let mut room = options.memory_budget - working;
        for (slot, r) in kept.iter_mut().zip(&results) {
            if r.kept_bytes <= room {
                room -= r.kept_bytes;
            } else {
                *slot
                    .get_mut()
                    .expect("no task panics while holding its rows") = None;
            }
        }

        let round_newly: u64 = results.iter().map(|r| r.newly).sum();
        journal.emit_with(|| Event::Segment {
            phase: "frontier-round".to_string(),
            index: round,
            states: round_newly,
            transitions: round_evals,
        });
        if round_newly == 0 {
            break; // fixpoint: the unresolved remainder is the residual
        }
        for r in &results {
            resolved.or_words(r.word_start, &r.delta);
        }
    }

    let residual_bits = region.and(&resolved.not());
    let residual_ids: Vec<StateId> = residual_bits.iter_ones().map(StateId::from_index).collect();
    stats.convergence.peeled_states = stats.convergence.region_states - residual_ids.len() as u64;
    if residual_ids.is_empty() {
        emit_wave(&stats);
        return Ok((ConvergenceResult::Converges, stats));
    }

    // Residual-local CSR, rows in action order filtered to residual
    // targets: the monolithic Tarjan skips peeled targets through its
    // `alive` mask, so the DFS — and hence the SCC emission order — is
    // identical. The residual is the small hard core (empty in the common
    // converging case), so this build is serial and resident.
    let rn = residual_ids.len();
    let local = |t: StateId| -> Option<usize> { residual_ids.binary_search(&t).ok() };
    let mut offsets: Vec<u32> = Vec::with_capacity(rn + 1);
    offsets.push(0);
    let mut edges: Vec<u32> = Vec::new();
    {
        let mut scratch = index.scratch_state();
        let mut succ = index.scratch_state();
        for &id in &residual_ids {
            index.decode_state(id, &mut scratch);
            for a in program.action_ids() {
                let act = program.action(a);
                if !act.enabled(&scratch) {
                    continue;
                }
                act.successor_into(&scratch, &mut succ);
                stats.evals += 1;
                let t = index
                    .id_of(&succ)
                    .expect("round 1 already vetted every residual state's successors");
                if let Some(lt) = local(t) {
                    edges.push(lt as u32);
                }
            }
            offsets.push(edges.len() as u32);
        }
    }
    debug_assert_eq!(
        offsets_from_counts(
            &offsets
                .windows(2)
                .map(|w| w[1] - w[0])
                .collect::<Vec<u32>>()
        )
        .expect("residual edges fit u32"),
        offsets
    );
    let row = |u: u32| -> &[u32] {
        &edges[offsets[u as usize] as usize..offsets[u as usize + 1] as usize]
    };

    let sccs = tarjan_sccs_csr(&offsets, &edges, &Bitset::ones(rn));
    stats.convergence.sccs_found = sccs.len() as u64;
    for scc in &sccs {
        let mut scc_bits = Bitset::zeros(rn);
        for &u in scc {
            scc_bits.set(u as usize);
        }
        let has_internal_edge = scc
            .iter()
            .any(|&u| row(u).iter().any(|&v| scc_bits.get(v as usize)));
        if !has_internal_edge {
            continue;
        }
        let divergent = match fairness {
            Fairness::Unfair => true,
            Fairness::WeaklyFair => {
                fair_admissible_frontier(program, index, &residual_ids, scc, &scc_bits)
            }
        };
        if divergent {
            let result = ConvergenceResult::Divergence {
                states: scc
                    .iter()
                    .map(|&u| index.state(residual_ids[u as usize]))
                    .collect(),
                fairness,
            };
            emit_wave(&stats);
            return Ok((result, stats));
        }
    }

    emit_wave(&stats);
    Ok((ConvergenceResult::Converges, stats))
}

/// The monolithic fair-admissibility test with enabledness re-derived from
/// guards: an action has a CSR row pair at a state exactly when its guard
/// holds there, so evaluating the guard (and, when enabled, the successor)
/// reproduces the CSR-based test bit for bit.
fn fair_admissible_frontier(
    program: &Program,
    index: &SpaceIndex,
    residual_ids: &[StateId],
    scc: &[u32],
    scc_bits: &Bitset,
) -> bool {
    let mut scratch = index.scratch_state();
    let mut succ = index.scratch_state();
    let in_scc = |t: StateId| -> bool {
        residual_ids
            .binary_search(&t)
            .is_ok_and(|lt| scc_bits.get(lt))
    };
    'actions: for aid in program.action_ids() {
        let act = program.action(aid);
        let mut has_internal = false;
        for &u in scc {
            let id = residual_ids[u as usize];
            index.decode_state(id, &mut scratch);
            if !act.enabled(&scratch) {
                // Not continuously enabled on a tour of the SCC: imposes no
                // fairness obligation here.
                continue 'actions;
            }
            if !has_internal {
                act.successor_into(&scratch, &mut succ);
                let t = index
                    .id_of(&succ)
                    .expect("round 1 already vetted every residual state's successors");
                if in_scc(t) {
                    has_internal = true;
                }
            }
        }
        if !has_internal {
            // Enabled everywhere in the SCC but every execution leaves it:
            // a fair computation cannot stay forever.
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::{check_convergence_opts, check_convergence_stats};
    use crate::space::StateSpace;
    use nonmask_program::Domain;

    fn pred_eq(p: &Program, name: &str, var: &str, value: i64) -> Predicate {
        let v = p.var_by_name(var).unwrap();
        Predicate::new(name, [v], move |s| s.get(v) == value)
    }

    /// A program whose region mixes chains, deadlocks, or cycles depending
    /// on the knobs, used to diff frontier against monolithic.
    fn countdown(max: i64, floor: i64) -> Program {
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, max));
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > floor,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        b.build()
    }

    fn check_both(
        p: &Program,
        from: &Predicate,
        to: &Predicate,
        fairness: Fairness,
        opts: CheckOptions,
    ) -> (ConvergenceResult, ConvergenceResult) {
        let space = StateSpace::enumerate_with_options(p, opts).unwrap();
        let mono = check_convergence_opts(&space, p, from, to, fairness, opts).unwrap();
        let front = check_convergence_frontier_opts(p, from, to, fairness, opts).unwrap();
        (mono, front)
    }

    #[test]
    fn converging_chain_matches_monolithic() {
        let p = countdown(4999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        for threads in [1, 2, 8] {
            for seg in [512, 1000, 4096] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let (mono, front) = check_both(
                    &p,
                    &Predicate::always_true(),
                    &s,
                    Fairness::WeaklyFair,
                    opts,
                );
                assert_eq!(mono, front, "threads={threads} seg={seg}");
                assert!(front.converges());
            }
        }
    }

    #[test]
    fn deadlock_witness_matches_monolithic() {
        // floor=1: x=1 deadlocks outside the target x=0.
        let p = countdown(4999, 1);
        let s = pred_eq(&p, "x=0", "x", 0);
        for threads in [1, 2, 8] {
            let opts = CheckOptions::default().threads(threads).segment_states(777);
            let (mono, front) = check_both(
                &p,
                &Predicate::always_true(),
                &s,
                Fairness::WeaklyFair,
                opts,
            );
            assert_eq!(mono, front, "threads={threads}");
            assert!(
                matches!(front, ConvergenceResult::DeadlockOutsideTarget { ref state } if state.slots() == [1])
            );
        }
    }

    #[test]
    fn escape_witness_matches_monolithic() {
        // T = x<=1, but `jump` at x=1 lands at x=2 outside S ∪ T.
        let mut b = Program::builder("escape");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 2),
        );
        let p = b.build();
        let s = pred_eq(&p, "x=0", "x", 0);
        let x_id = p.var_by_name("x").unwrap();
        let t = Predicate::new("x<=1", [x_id], move |st| st.get(x_id) <= 1);
        let (mono, front) = check_both(&p, &t, &s, Fairness::WeaklyFair, CheckOptions::default());
        assert_eq!(mono, front);
        assert!(matches!(front, ConvergenceResult::EscapesFaultSpan { .. }));
    }

    #[test]
    fn divergence_witness_matches_monolithic() {
        // Spin cycles everywhere in the region plus exits: unfair diverges
        // with a 2-state SCC, weak fairness rescues. Witness content must
        // match the monolithic checker's exactly.
        let mut b = Program::builder("mt-div");
        let x = b.var("x", Domain::range(0, 4095));
        let y = b.var("y", Domain::Bool);
        b.closure_action(
            "spin",
            [x, y],
            [y],
            move |s| s.get(x) > 0,
            move |s| s.toggle(y),
        );
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        let p = b.build();
        let s = pred_eq(&p, "x=0", "x", 0);
        for fairness in [Fairness::Unfair, Fairness::WeaklyFair] {
            for threads in [1, 8] {
                let opts = CheckOptions::default().threads(threads).segment_states(900);
                let (mono, front) = check_both(&p, &Predicate::always_true(), &s, fairness, opts);
                assert_eq!(mono, front, "fairness={fairness} threads={threads}");
            }
        }
    }

    #[test]
    fn fair_divergence_detected() {
        // The only region action cycles within it: even fair computations
        // diverge, and the frontier's on-demand admissibility test must say
        // so.
        let mut b = Program::builder("livelock");
        let y = b.var("y", Domain::Bool);
        let x = b.var("x", Domain::Bool);
        b.closure_action(
            "toggle",
            [x, y],
            [y],
            move |s| !s.get_bool(x),
            move |s| s.toggle(y),
        );
        let p = b.build();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let (mono, front) = check_both(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::default(),
        );
        assert_eq!(mono, front);
        assert!(matches!(
            front,
            ConvergenceResult::Divergence {
                fairness: Fairness::WeaklyFair,
                ..
            }
        ));
    }

    /// The frontier pass with its journal's events.
    fn journaled(
        p: &Program,
        to: &Predicate,
        fairness: Fairness,
        opts: CheckOptions,
    ) -> (ConvergenceResult, FrontierStats, Vec<Event>) {
        let (journal, buffer) = Journal::memory();
        let (result, stats) = check_convergence_frontier_stats(
            p,
            &Predicate::always_true(),
            to,
            fairness,
            opts,
            &journal,
        )
        .unwrap();
        journal.flush();
        let events = buffer
            .contents()
            .lines()
            .map(|l| Event::parse_line(l).unwrap().event)
            .collect();
        (result, stats, events)
    }

    #[test]
    fn stats_match_monolithic_and_rounds_are_journaled() {
        let p = countdown(4999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        let opts = CheckOptions::default().segment_states(1000);
        let space = StateSpace::enumerate_with_options(&p, opts).unwrap();
        let (_, mono_stats) = check_convergence_stats(
            &space,
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            opts,
            &Journal::disabled(),
        )
        .unwrap();
        // Under the default budget every segment keeps its rows, so each
        // region transition is evaluated exactly once, in round 1.
        let region_transitions: u64 = space
            .ids()
            .filter(|&id| !s.holds(&space.state(id)))
            .map(|id| space.successors(id).len() as u64)
            .sum();
        for threads in [1, 4] {
            let (result, stats, events) =
                journaled(&p, &s, Fairness::WeaklyFair, opts.threads(threads));
            assert!(result.converges());
            assert_eq!(stats.convergence, mono_stats);
            assert!(stats.rounds > 1, "the chain crosses segments");
            assert_eq!(stats.evals, region_transitions, "threads={threads}");
            assert_eq!(
                stats.segments_built,
                opts.segment_plan(space.len()).count() as u64,
                "only round 1 derives rows"
            );
            let rounds = events
                .iter()
                .filter(|e| matches!(e, Event::Segment { phase, .. } if phase == "frontier-round"))
                .count() as u64;
            assert_eq!(rounds, stats.rounds);
            assert!(
                matches!(events.last(), Some(Event::Wave { region, peeled, .. })
                    if *region == stats.convergence.region_states
                        && *peeled == stats.convergence.peeled_states),
                "the final Wave mirrors the stats"
            );
        }
    }

    /// A chain that resolves one segment per round below x = 4000, and
    /// spin pairs above it that never resolve: several rounds, then a
    /// divergent residual.
    fn chain_then_spin() -> Program {
        let mut b = Program::builder("chain-spin");
        let x = b.var("x", Domain::range(0, 4095));
        let y = b.var("y", Domain::Bool);
        b.closure_action(
            "spin",
            [x, y],
            [y],
            move |s| s.get(x) >= 4000,
            move |s| s.toggle(y),
        );
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0 && s.get(x) < 4000,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        b.build()
    }

    #[test]
    fn tight_budget_rederives_rows_with_identical_results() {
        // Room for the round's row buffers but too little to keep any
        // non-empty segment's rows: those segments re-derive every round,
        // as before rows were kept. Verdict, peel, residual and witness
        // must equal an ample-budget run, and the round journals must not
        // depend on the thread count.
        let spin = chain_then_spin();
        let cases = [
            (
                countdown(4999, 0),
                pred_eq(&countdown(4999, 0), "x=0", "x", 0),
                512,
                64 << 10,
            ),
            (spin.clone(), pred_eq(&spin, "x=0", "x", 0), 900, 128 << 10),
        ];
        for (p, to, seg, rows_room) in &cases {
            for fairness in [Fairness::Unfair, Fairness::WeaklyFair] {
                let ample = CheckOptions::default().threads(1).segment_states(*seg);
                let (want, want_stats, _) = journaled(p, to, fairness, ample);
                let mut journals = Vec::new();
                for threads in [1, 4, 7] {
                    let opts = ample.threads(threads);
                    let n = SpaceIndex::of_program(p, opts).unwrap().len();
                    let floor = 4 * (n.div_ceil(64) as u64 * 8)
                        + scratch_bytes(2 * opts.workers_for(n) as u64, 2);
                    let (got, stats, events) =
                        journaled(p, to, fairness, opts.memory_budget(floor + rows_room));
                    assert_eq!(got, want, "{} {fairness} threads={threads}", p.name());
                    assert_eq!(stats.convergence, want_stats.convergence);
                    assert_eq!(stats.rounds, want_stats.rounds);
                    assert!(
                        stats.evals > want_stats.evals,
                        "{}: re-derived rows cost evaluations again",
                        p.name()
                    );
                    assert!(stats.segments_built > want_stats.segments_built);
                    journals.push(events);
                }
                assert!(journals.windows(2).all(|w| w[0] == w[1]), "{}", p.name());
            }
        }
    }

    #[test]
    fn kept_rows_never_raise_the_minimal_budget() {
        // The smallest budget that passes is the round-1 working set alone
        // — bitsets, one row buffer per worker, scratch — as it was before
        // rows were kept: kept rows that do not fit are dropped, never an
        // error. Just below it the row buffers are what overflows.
        let p = countdown(4999, 0);
        let to = pred_eq(&p, "x=0", "x", 0);
        let run = |threads: usize, budget: u64| {
            let opts = CheckOptions::default()
                .threads(threads)
                .segment_states(512)
                .memory_budget(budget);
            check_convergence_frontier_stats(
                &p,
                &Predicate::always_true(),
                &to,
                Fairness::Unfair,
                opts,
                &Journal::disabled(),
            )
        };
        let (want, want_stats) = run(1, 1 << 20).unwrap();
        for threads in [1, 4] {
            let workers = CheckOptions::default().threads(threads).workers_for(5000) as u64;
            // The largest round-1 buffer is a full 512-state segment above
            // x = 512: 512 states, 513 offsets and 512 internal successors.
            let peak_rows = 4 * (512 + 513 + 512);
            let minimal = 4 * (5000u64.div_ceil(64) * 8)
                + workers * peak_rows
                + scratch_bytes(2 * workers, 1);
            let (got, stats) = run(threads, minimal).unwrap();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(stats.convergence, want_stats.convergence);
            assert!(
                stats.segments_built > want_stats.segments_built,
                "no room is left for kept rows, so segments re-derive"
            );
            match run(threads, minimal - 1) {
                Err(SpaceError::BudgetExceeded {
                    required, phase, ..
                }) => {
                    assert_eq!(phase, "segment build");
                    assert_eq!(required, minimal);
                }
                other => panic!("expected BudgetExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn frontier_budget_floor_is_enforced() {
        let p = countdown(99_999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        let err = check_convergence_frontier_opts(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::default().memory_budget(1024),
        )
        .unwrap_err();
        let SpaceError::BudgetExceeded { phase, .. } = err else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(phase, "frontier bitsets");
    }

    #[test]
    fn domain_escape_is_an_error() {
        let mut b = Program::builder("bad");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action("overflow", [x], [x], |_| true, move |s| s.set(x, 7));
        let p = b.build();
        let s = pred_eq(&p, "x=0", "x", 0);
        let err =
            check_convergence_frontier(&p, &Predicate::always_true(), &s, Fairness::WeaklyFair)
                .unwrap_err();
        assert_eq!(
            err,
            SpaceError::EscapedDomain {
                action: "overflow".into(),
                var: "x".into()
            }
        );
    }

    #[test]
    fn segment_boundary_states_round_trip() {
        // Every state on a segment boundary must decode and step
        // identically whether reached from the segment before or after the
        // boundary — i.e. verdicts cannot depend on where the plan cuts.
        let p = countdown(4999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        let base = check_convergence_frontier_opts(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::default().segment_states(5000),
        )
        .unwrap();
        // Boundaries at powers of two, at odd primes, and off-by-one from
        // the state count.
        for seg in [64, 127, 4999, 4998, 2500] {
            let r = check_convergence_frontier_opts(
                &p,
                &Predicate::always_true(),
                &s,
                Fairness::WeaklyFair,
                CheckOptions::default().segment_states(seg),
            )
            .unwrap();
            assert_eq!(base, r, "seg={seg}");
        }
    }
}
