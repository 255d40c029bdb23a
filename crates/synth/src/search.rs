//! The synthesis pipeline: factored evaluation → implication lattice →
//! attribution prune → certification battery → selection → final
//! verification.
//!
//! Every candidate is a pair (guard `g`, effect `e`) from its
//! constraint's grammar, so nothing downstream of the grammar needs a
//! transition relation with one action per candidate. Instead each
//! distinct guard, constraint, goal and trigger is evaluated once per
//! state in one decode pass, and each distinct effect's successor column
//! comes from one enumeration of an *effect program* (one always-enabled
//! action per effect). From those columns every effect gets its
//! post-images — where its successor violates its own constraint, or
//! leaves the goal or a lower constraint — and the attribution prune and
//! the certification battery become word-wise tests on `g`, the
//! post-images and the predicate caches. Every verdict, metric and
//! journal record is bit-identical across thread counts: the parallel
//! passes are the checker's thread-invariant ones, the main thread
//! journals in a fixed phase order, and certification never consults
//! wall-clock state.

use nonmask::{CheckOptions, Design, DesignBuilder, ToleranceReport};
use nonmask_checker::{Bitset, CheckError, StateId, StateSpace};
use nonmask_graph::{ConstraintRef, Layering, NodePartition};
use nonmask_lang::{compile_def_with_processes, compile_predicate, ActionDef, Expr, ProgramDef};
use nonmask_obs::{Event, Journal};
use nonmask_program::{ActionId, ActionKind, Predicate};

use crate::grammar::{self, Candidate, SynthSpec};
use crate::lattice::{classify, ImplicationLattice};
use crate::SynthError;

/// How many candidate combinations the final-verification fallback may
/// try before giving up. The selection heuristic picks the right
/// combination on the first attempt for every spec in [`crate::specs`];
/// the odometer exists so a near-miss grammar extension degrades to a
/// slower search instead of a hard failure.
const MAX_ATTEMPTS: usize = 16;

/// Tuning knobs for [`synthesize`]. None affects any result bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthOptions {
    /// Worker threads for the predicate-decode and effect-enumeration
    /// passes; `0` auto-detects.
    pub threads: usize,
}

/// The synthesized repair for one constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChosenAction {
    /// Constraint name from the spec.
    pub constraint: String,
    /// Name of the synthesized action (`repair.<constraint>`).
    pub action_name: String,
    /// Grammar guard index of the winning candidate.
    pub guard_index: usize,
    /// Grammar effect index of the winning candidate.
    pub effect_index: usize,
    /// States where the repair is enabled beyond the required region —
    /// `0` means the guard is exactly the region convergence demands.
    pub extras: u64,
}

/// Work accounting for the prune-vs-enumerate comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthMetrics {
    /// States in the spec's state space.
    pub states: u64,
    /// Candidates the grammar produced.
    pub candidates: u64,
    /// Candidates surviving the attribution prune.
    pub survivors: u64,
    /// Survivors that passed the certification battery.
    pub certified: u64,
    /// Oracle queries spent on certification: per survivor, one
    /// guard-coverage query, one goal-preservation query and one
    /// preservation query per strictly lower constraint. Each is a
    /// bitset test over the cached post-images, not a sweep of a
    /// transition relation.
    pub oracle_calls: u64,
    /// Queries the same battery would cost without the attribution prune
    /// (every candidate pays its full battery).
    pub oracle_calls_unpruned: u64,
    /// Attribution passes over the space (always 1: the prune reads the
    /// one shared guard and effect evaluation).
    pub attribution_sweeps: u64,
    /// Final-verification attempts (1 = first selection verified).
    pub verify_attempts: u64,
}

/// A certified design plus everything needed to replay or audit it.
pub struct SynthResult {
    /// Spec name.
    pub spec_name: String,
    /// The synthesized program definition (base + `repair.*` actions).
    pub def: ProgramDef,
    /// The assembled design (partition, constraints, layering).
    pub design: Design,
    /// The checker's certificate for [`SynthResult::design`].
    pub report: ToleranceReport,
    /// Derived hierarchical partition (constraint indices, lowest first).
    pub layers: Vec<Vec<usize>>,
    /// Winning candidate per constraint, in spec order.
    pub chosen: Vec<ChosenAction>,
    /// Ideal-stabilization distance: total extra enabled states across
    /// the chosen repairs (0 = every guard is exactly the required
    /// region).
    pub distance: u64,
    /// Work accounting.
    pub metrics: SynthMetrics,
}

impl SynthResult {
    /// Render the design as parseable surface syntax followed by a
    /// `#`-commented certificate trailer — the golden-file format.
    pub fn render(&self) -> String {
        let mut out = nonmask_lang::pretty(&self.def);
        out.push_str(&format!("# theorem: {}\n", self.report.theorem.name()));
        if let Some(w) = self.report.worst_case_moves {
            out.push_str(&format!("# worst-case moves: {w}\n"));
        }
        out.push_str(&format!("# distance: {}\n", self.distance));
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|l| {
                let names: Vec<&str> = l
                    .iter()
                    .map(|&i| self.chosen[i].constraint.as_str())
                    .collect();
                names.join(" ")
            })
            .collect();
        out.push_str(&format!("# layers: [{}]\n", layers.join(" | ")));
        for ch in &self.chosen {
            out.push_str(&format!(
                "# {} <- {} (guard {}, effect {}, extras {})\n",
                ch.constraint, ch.action_name, ch.guard_index, ch.effect_index, ch.extras
            ));
        }
        out
    }
}

/// One candidate's certification battery verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    flat: usize,
    /// The guard covers the constraint's required repair region.
    covered: bool,
    certified: bool,
    extras: u64,
    calls: u64,
}

/// What one grammar effect does to the spec's predicates, one bit per
/// state of the space.
struct EffectImage {
    /// States whose successor violates the effect's own constraint.
    misses_own: Bitset,
    /// Goal states whose successor leaves the goal.
    exits_goal: Bitset,
    /// Per strictly lower constraint (in [`ImplicationLattice::lower`]
    /// order): states in it whose successor leaves it.
    exits_lower: Vec<Bitset>,
}

/// Everything the attribution prune and the certification battery read,
/// each evaluated once per state: the predicate caches, one bitset per
/// distinct guard and the post-images of every distinct effect.
struct Evaluation {
    states: usize,
    /// Complement of each constraint cache.
    not_c: Vec<Bitset>,
    lat: ImplicationLattice,
    /// Strictly lower constraints per constraint.
    lower: Vec<Vec<usize>>,
    /// Required repair region per constraint.
    required: Vec<Bitset>,
    /// Theorem 3 assumption per layer: outside the goal, lower layers
    /// hold.
    assuming: Vec<Bitset>,
    /// One cache per distinct guard, keyed `guard_base[ci] + gi`.
    guards: Vec<Bitset>,
    guard_base: Vec<usize>,
    /// One image per distinct effect, keyed `effect_base[ci] + ei`.
    effects: Vec<EffectImage>,
    effect_base: Vec<usize>,
}

impl Evaluation {
    /// Evaluate every distinct guard and effect of `flat` (the grammar's
    /// candidates, constraint-major and guard-major within a constraint).
    fn new(spec: &SynthSpec, flat: &[Candidate], opts: CheckOptions) -> Result<Self, SynthError> {
        let k = spec.constraints.len();
        // Distinct guards and effects keyed `(constraint, index)`: the
        // grammar is a full product, so the effect-0 candidates list
        // every guard and the guard-0 candidates every effect, in order.
        let mut guard_exprs: Vec<&Expr> = Vec::new();
        let mut effect_defs: Vec<ActionDef> = Vec::new();
        let mut effect_owner: Vec<usize> = Vec::new();
        let (mut guard_base, mut effect_base) = (vec![0; k], vec![0; k]);
        for cand in flat {
            let ci = cand.constraint;
            if cand.guard_index == 0 && cand.effect_index == 0 {
                guard_base[ci] = guard_exprs.len();
                effect_base[ci] = effect_defs.len();
            }
            if cand.effect_index == 0 {
                guard_exprs.push(&cand.action.guard);
            }
            if cand.guard_index == 0 {
                effect_owner.push(ci);
                effect_defs.push(ActionDef {
                    name: format!("effect.{ci}.e{}", cand.effect_index),
                    kind: ActionKind::Convergence,
                    guard: Expr::Bool(true),
                    assigns: cand.action.assigns.clone(),
                    line: 0,
                });
            }
        }

        // The effect program: the spec's variables and one always-enabled
        // action per distinct effect, so row `i` of its CSR is effect
        // `e`'s successor of state `i` at position `e`.
        let effect_def = ProgramDef {
            actions: effect_defs,
            ..spec.base.clone()
        };
        let program = compile_def_with_processes(&effect_def)?;
        let space = StateSpace::enumerate_with_options(&program, opts)?;

        // One decode pass evaluates every guard, constraint, the goal and
        // every trigger.
        let compile =
            |name: String, expr: &Expr| compile_predicate(&program, &effect_def, name, expr);
        let mut preds: Vec<Predicate> = Vec::new();
        for (gi, expr) in guard_exprs.iter().enumerate() {
            preds.push(compile(format!("guard.{gi}"), expr)?);
        }
        for c in &spec.constraints {
            preds.push(compile(c.name.clone(), &c.expr)?);
        }
        preds.push(compile("S".into(), &spec.goal)?);
        let triggers: Vec<(usize, &Expr)> = spec
            .constraints
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| Some((ci, c.trigger.as_ref()?)))
            .collect();
        for &(ci, t) in &triggers {
            preds.push(compile(
                format!("trigger.{}", spec.constraints[ci].name),
                t,
            )?);
        }
        let refs: Vec<&Predicate> = preds.iter().collect();
        let mut bits = Bitset::for_predicates(space.index(), &refs, opts)?;
        let trigger_bits = bits.split_off(guard_exprs.len() + k + 1);
        let s_bits = bits.pop().expect("the goal cache");
        let c_bits = bits.split_off(guard_exprs.len());
        let guards = bits;

        let lat = classify(&c_bits);
        let lower: Vec<Vec<usize>> = (0..k).map(|i| lat.lower(i)).collect();
        let not_c: Vec<Bitset> = c_bits.iter().map(Bitset::not).collect();

        // Required repair region per constraint: the violation states the
        // convergence proof needs covered (constraint false, lower layers
        // already established), plus the merge trigger's region.
        let mut required: Vec<Bitset> = (0..k)
            .map(|ci| {
                lower[ci]
                    .iter()
                    .fold(not_c[ci].clone(), |req, &j| req.and(&c_bits[j]))
            })
            .collect();
        for (&(ci, _), t) in triggers.iter().zip(&trigger_bits) {
            required[ci] = required[ci].or(t);
        }
        let not_s = s_bits.not();
        let assuming: Vec<Bitset> = (0..lat.layers.len())
            .map(|l| {
                let mut a = not_s.clone();
                for layer in &lat.layers[..l] {
                    for &j in layer {
                        a = a.and(&c_bits[j]);
                    }
                }
                a
            })
            .collect();

        // Post-images, read off the effect program's successor column.
        let succ = |e: usize, i: usize| space.successor_ids(StateId::from_index(i))[e];
        let leaves = |e: usize, pred: &Bitset| {
            Bitset::from_fn(space.len(), opts, |i| {
                pred.get(i) && !pred.contains(succ(e, i))
            })
        };
        let effects = effect_owner
            .iter()
            .enumerate()
            .map(|(e, &ci)| {
                Ok(EffectImage {
                    misses_own: Bitset::from_fn(space.len(), opts, |i| {
                        !c_bits[ci].contains(succ(e, i))
                    })?,
                    exits_goal: leaves(e, &s_bits)?,
                    exits_lower: lower[ci]
                        .iter()
                        .map(|&j| leaves(e, &c_bits[j]))
                        .collect::<Result<_, CheckError>>()?,
                })
            })
            .collect::<Result<_, CheckError>>()?;

        Ok(Evaluation {
            states: space.len(),
            not_c,
            lat,
            lower,
            required,
            assuming,
            guards,
            guard_base,
            effects,
            effect_base,
        })
    }

    fn guard(&self, cand: &Candidate) -> &Bitset {
        &self.guards[self.guard_base[cand.constraint] + cand.guard_index]
    }

    fn effect(&self, cand: &Candidate) -> &EffectImage {
        &self.effects[self.effect_base[cand.constraint] + cand.effect_index]
    }

    /// The attribution prune: `cand` survives iff it repairs its
    /// constraint (every move lands inside it, some move starts outside
    /// it), never exits the goal, and never exits a strictly lower
    /// constraint.
    fn survives(&self, cand: &Candidate) -> bool {
        let (g, e) = (self.guard(cand), self.effect(cand));
        let ci = cand.constraint;
        g.and_count(&e.misses_own) == 0
            && g.and_count(&self.not_c[ci]) > 0
            && g.and_count(&e.exits_goal) == 0
            && e.exits_lower.iter().all(|x| g.and_count(x) == 0)
    }

    /// The certification battery of candidate `flat[fi]`: guard coverage
    /// of the required region, goal preservation, and lower-layer
    /// preservation under the layer's Theorem 3 assumption. Its query
    /// count does not depend on its verdicts, so pruned and unpruned cost
    /// models are directly comparable.
    fn battery(&self, fi: usize, cand: &Candidate) -> Verdict {
        let (g, e) = (self.guard(cand), self.effect(cand));
        let ci = cand.constraint;
        let covered = self.required[ci].and_count(&g.not()) == 0;
        let extras = (g.count_ones() - g.and_count(&self.required[ci])) as u64;
        let assuming = &self.assuming[self.lat.layer_of[ci]];
        let keeps_goal = g.and_count(&e.exits_goal) == 0;
        let keeps_lower = e
            .exits_lower
            .iter()
            .all(|x| g.and_count(&x.and(assuming)) == 0);
        Verdict {
            flat: fi,
            covered,
            certified: covered && keeps_goal && keeps_lower,
            extras,
            calls: 2 + self.lower[ci].len() as u64,
        }
    }
}

fn synth_event(phase: &str, detail: String, candidates: u64, survivors: u64) -> Event {
    Event::Synth {
        phase: phase.to_string(),
        detail,
        candidates,
        survivors,
    }
}

/// Derive a certified design for `spec`.
///
/// Progress is journaled as [`Event::Synth`] records in a fixed phase
/// order (`grammar`, `classify`, `prune`, `certify`, `select`,
/// `verify`); the journal's *event sequence* is identical for every
/// thread count.
///
/// # Errors
///
/// See [`SynthError`]; notably [`SynthError::NoCertified`] when the
/// grammar contains no certifiable repair for some constraint.
pub fn synthesize(
    spec: &SynthSpec,
    opts: &SynthOptions,
    journal: &Journal,
) -> Result<SynthResult, SynthError> {
    let k = spec.constraints.len();
    if k == 0 {
        return Err(SynthError::BadSpec {
            message: "spec has no constraints".into(),
        });
    }
    let sopts = CheckOptions {
        threads: opts.threads,
        ..CheckOptions::default()
    };
    let base_count = spec.base.actions.len();

    // Phase 1: grammar.
    let mut flat: Vec<Candidate> = Vec::new();
    let mut per_count = Vec::with_capacity(k);
    for ci in 0..k {
        let cands = grammar::candidates(spec, ci)?;
        per_count.push(cands.len());
        journal.emit_with(|| {
            synth_event(
                "grammar",
                spec.constraints[ci].name.clone(),
                cands.len() as u64,
                cands.len() as u64,
            )
        });
        flat.extend(cands);
    }
    let eval = Evaluation::new(spec, &flat, sopts)?;
    let lat = &eval.lat;

    // Phase 2: classify extensions into the implication lattice.
    journal.emit_with(|| {
        let rendered: Vec<String> = lat
            .layers
            .iter()
            .map(|l| {
                let names: Vec<&str> = l
                    .iter()
                    .map(|&i| spec.constraints[i].name.as_str())
                    .collect();
                names.join(" ")
            })
            .collect();
        synth_event(
            "classify",
            format!("[{}]", rendered.join(" | ")),
            k as u64,
            lat.layers.len() as u64,
        )
    });

    // Phase 3: the attribution prune.
    let mut survivors: Vec<usize> = Vec::new();
    let mut survivors_per = vec![0usize; k];
    for (fi, cand) in flat.iter().enumerate() {
        if eval.survives(cand) {
            survivors.push(fi);
            survivors_per[cand.constraint] += 1;
        }
    }
    for ci in 0..k {
        journal.emit_with(|| {
            synth_event(
                "prune",
                spec.constraints[ci].name.clone(),
                per_count[ci] as u64,
                survivors_per[ci] as u64,
            )
        });
    }

    // Phase 4: the per-survivor certification battery.
    let verdicts: Vec<Verdict> = survivors
        .iter()
        .map(|&fi| eval.battery(fi, &flat[fi]))
        .collect();

    let oracle_calls: u64 = verdicts.iter().map(|v| v.calls).sum();
    let oracle_calls_unpruned: u64 = flat
        .iter()
        .map(|c| 2 + eval.lower[c.constraint].len() as u64)
        .sum();

    // Rank certified candidates per constraint: fewest extras, then
    // earliest grammar position.
    let mut ranked: Vec<Vec<Verdict>> = vec![Vec::new(); k];
    let mut certified_per = vec![0usize; k];
    for v in &verdicts {
        if v.certified {
            let ci = flat[v.flat].constraint;
            ranked[ci].push(*v);
            certified_per[ci] += 1;
        }
    }
    for ci in 0..k {
        journal.emit_with(|| {
            synth_event(
                "certify",
                spec.constraints[ci].name.clone(),
                survivors_per[ci] as u64,
                certified_per[ci] as u64,
            )
        });
        if ranked[ci].is_empty() {
            return Err(SynthError::NoCertified {
                constraint: spec.constraints[ci].name.clone(),
            });
        }
        ranked[ci].sort_by_key(|v| {
            (
                v.extras,
                flat[v.flat].guard_index,
                flat[v.flat].effect_index,
            )
        });
    }

    // Phase 5: assemble the cheapest combination and verify end to end;
    // an odometer over the ranked lists is the (deterministic) fallback.
    let mut choice = vec![0usize; k];
    let mut last_summary = String::new();
    for attempt in 0..MAX_ATTEMPTS {
        let mut chosen = Vec::with_capacity(k);
        let mut def = spec.base.clone();
        for (ci, c) in spec.constraints.iter().enumerate() {
            let v = &ranked[ci][choice[ci]];
            let cand = &flat[v.flat];
            let mut action = cand.action.clone();
            action.name = format!("repair.{}", c.name);
            let ch = ChosenAction {
                constraint: c.name.clone(),
                action_name: action.name.clone(),
                guard_index: cand.guard_index,
                effect_index: cand.effect_index,
                extras: v.extras,
            };
            journal.emit_with(|| {
                synth_event(
                    "select",
                    format!(
                        "{} <- g{}/e{} extras={}",
                        ch.constraint, ch.guard_index, ch.effect_index, ch.extras
                    ),
                    certified_per[ci] as u64,
                    1,
                )
            });
            def.actions.push(action);
            chosen.push(ch);
        }

        let program = compile_def_with_processes(&def)?;
        let mut builder: DesignBuilder = Design::builder(program.clone())
            .partition(NodePartition::by_process(&program))
            .options(sopts)
            .invariant_override(compile_predicate(&program, &def, "S", &spec.goal)?);
        for (ci, c) in spec.constraints.iter().enumerate() {
            builder = builder.constraint(
                c.name.clone(),
                compile_predicate(&program, &def, c.name.clone(), &c.expr)?,
                ActionId::from_index(base_count + ci),
            );
        }
        if lat.layers.len() > 1 {
            builder = builder.layering(Layering::new(
                lat.layers
                    .iter()
                    .map(|l| l.iter().map(|&i| ConstraintRef(i)).collect::<Vec<_>>()),
            )?);
        }
        let design = builder.build()?;
        let report = design.verify()?;
        let ok = report.is_tolerant() && report.theorem.applies();
        journal.emit_with(|| {
            synth_event(
                "verify",
                format!(
                    "{} tolerant={}",
                    report.theorem.name(),
                    report.is_tolerant()
                ),
                attempt as u64 + 1,
                u64::from(ok),
            )
        });
        if ok {
            let distance = chosen.iter().map(|c| c.extras).sum();
            return Ok(SynthResult {
                spec_name: spec.name.clone(),
                def,
                design,
                report,
                layers: lat.layers.clone(),
                chosen,
                distance,
                metrics: SynthMetrics {
                    states: eval.states as u64,
                    candidates: flat.len() as u64,
                    survivors: survivors.len() as u64,
                    certified: verdicts.iter().filter(|v| v.certified).count() as u64,
                    oracle_calls,
                    oracle_calls_unpruned,
                    attribution_sweeps: 1,
                    verify_attempts: attempt as u64 + 1,
                },
            });
        }
        last_summary = report.summary();

        // Advance the odometer: first constraint with another ranked
        // candidate steps forward, everything before it resets.
        let mut i = 0;
        loop {
            if i == k {
                return Err(SynthError::VerifyFailed {
                    attempts: attempt + 1,
                    summary: last_summary,
                });
            }
            if choice[i] + 1 < ranked[i].len() {
                choice[i] += 1;
                for c in choice.iter_mut().take(i) {
                    *c = 0;
                }
                break;
            }
            i += 1;
        }
    }
    Err(SynthError::VerifyFailed {
        attempts: MAX_ATTEMPTS,
        summary: last_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs;

    /// The pooled path the factored evaluation replaced, kept as an
    /// oracle: base + every candidate enumerated as one program, one
    /// [`attribute_constraints`] sweep for the prune, and per candidate a
    /// compiled guard cache plus [`preserves_given_bits`] scans of the
    /// pooled relation for the battery. Every candidate's prune decision
    /// and battery verdict must match the factored ones.
    #[test]
    fn factored_evaluation_matches_the_pooled_oracle() {
        use nonmask_checker::{attribute_constraints, preserves_given_bits};

        for spec in [
            specs::token_ring_windowed(3, 2),
            specs::token_ring_windowed(4, 3),
            specs::diffusing(3),
            specs::diffusing(5),
            specs::coloring(3, 3),
            specs::coloring(5, 4),
        ] {
            let k = spec.constraints.len();
            let opts = CheckOptions::default();
            let flat: Vec<Candidate> = (0..k)
                .flat_map(|ci| grammar::candidates(&spec, ci).unwrap())
                .collect();
            let eval = Evaluation::new(&spec, &flat, opts).unwrap();

            let mut pooled = spec.base.clone();
            pooled.actions.extend(flat.iter().map(|c| c.action.clone()));
            let program = compile_def_with_processes(&pooled).unwrap();
            let space = StateSpace::enumerate_with_options(&program, opts).unwrap();
            assert_eq!(eval.states, space.len(), "{}", spec.name);
            let cache = |name: String, expr: &Expr| {
                let pred = compile_predicate(&program, &pooled, name, expr).unwrap();
                Bitset::for_predicate(&space, &pred, opts).unwrap()
            };
            let mut preds: Vec<Predicate> = spec
                .constraints
                .iter()
                .map(|c| compile_predicate(&program, &pooled, c.name.clone(), &c.expr).unwrap())
                .collect();
            preds.push(compile_predicate(&program, &pooled, "S", &spec.goal).unwrap());
            let attr = attribute_constraints(&space, &program, &preds, opts).unwrap();
            let c_bits: Vec<Bitset> = spec
                .constraints
                .iter()
                .map(|c| cache(c.name.clone(), &c.expr))
                .collect();
            let s_bits = cache("S".into(), &spec.goal);
            assert_eq!(eval.lat, classify(&c_bits), "{}", spec.name);
            let required: Vec<Bitset> = spec
                .constraints
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    let mut req = c_bits[ci].not();
                    for &j in &eval.lat.lower(ci) {
                        req = req.and(&c_bits[j]);
                    }
                    match &c.trigger {
                        Some(t) => req.or(&cache("trigger".into(), t)),
                        None => req,
                    }
                })
                .collect();
            assert_eq!(eval.required, required, "{}", spec.name);

            let base_count = spec.base.actions.len();
            for (fi, cand) in flat.iter().enumerate() {
                let aid = ActionId::from_index(base_count + fi);
                let ci = cand.constraint;
                let lower = eval.lat.lower(ci);
                let keep = attr.repairs(aid, ci)
                    && attr.preserves(aid, k)
                    && lower.iter().all(|&j| attr.preserves(aid, j));
                let at = format!("{} {}", spec.name, cand.action.name);
                assert_eq!(eval.survives(cand), keep, "prune differs: {at}");

                let enabled = cache(cand.action.name.clone(), &cand.action.guard);
                let covered = required[ci].and(&enabled.not()).count_ones() == 0;
                let extras = enabled.and(&required[ci].not()).count_ones() as u64;
                let mut certified = covered
                    && preserves_given_bits(&space, aid, &s_bits, &s_bits, opts)
                        .unwrap()
                        .is_none();
                let mut assuming = s_bits.not();
                for layer in &eval.lat.layers[..eval.lat.layer_of[ci]] {
                    for &j in layer {
                        assuming = assuming.and(&c_bits[j]);
                    }
                }
                for &j in &lower {
                    certified &= preserves_given_bits(&space, aid, &c_bits[j], &assuming, opts)
                        .unwrap()
                        .is_none();
                }
                let want = Verdict {
                    flat: fi,
                    covered,
                    certified,
                    extras,
                    calls: 2 + lower.len() as u64,
                };
                assert_eq!(eval.battery(fi, cand), want, "battery differs: {at}");
            }
        }
    }

    #[test]
    fn empty_spec_is_rejected() {
        let mut spec = specs::coloring(3, 3);
        spec.constraints.clear();
        let err = synthesize(&spec, &SynthOptions::default(), &Journal::disabled());
        assert!(matches!(err, Err(SynthError::BadSpec { .. })));
    }

    #[test]
    fn coloring_synthesizes_the_recoloring_repair() {
        let spec = specs::coloring(3, 3);
        let out = synthesize(&spec, &SynthOptions::default(), &Journal::disabled()).unwrap();
        assert!(out.report.is_tolerant());
        assert!(out.report.theorem.applies());
        assert_eq!(out.chosen.len(), 2);
        // The winner is the bare-violation guard with the +1 rotation of
        // the parent's color — the textbook recoloring action.
        for ch in &out.chosen {
            assert_eq!(ch.guard_index, 0, "{}", ch.constraint);
            assert_eq!(ch.extras, 0, "{}", ch.constraint);
        }
        assert_eq!(out.distance, 0);
        assert_eq!(out.metrics.attribution_sweeps, 1);
        assert!(out.metrics.oracle_calls < out.metrics.oracle_calls_unpruned);
    }

    #[test]
    fn renders_parseable_surface_syntax_with_trailer() {
        let spec = specs::coloring(3, 3);
        let out = synthesize(&spec, &SynthOptions::default(), &Journal::disabled()).unwrap();
        let text = out.render();
        assert!(text.contains("# theorem:"));
        assert!(text.contains("repair.R.1"));
        // `#` starts a comment, so the golden text recompiles as-is.
        nonmask_lang::parse(&text).unwrap();
    }
}
