//! Shared-memory vs message-passing vs socket-node execution (E9).

use nonmask_net::{run, NetConfig};
use nonmask_program::scheduler::RoundRobin;
use nonmask_program::{Executor, Predicate, Program, RunConfig, State};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use nonmask_sim::{Refinement, SimConfig, Simulation};

use crate::table::Table;

fn compare(t: &mut Table, name: &str, program: &Program, s: &Predicate, corrupt: State) {
    // Shared memory: the paper's model, round-robin daemon.
    let shared = Executor::new(program).run(
        corrupt.clone(),
        &mut RoundRobin::new(),
        &RunConfig::default().stop_when(s, 1).max_steps(1_000_000),
    );

    // Message passing: cached neighbour state, one action per process per
    // round, heartbeats every round.
    let refinement = Refinement::new(program).expect("refinable");
    let mut sim = Simulation::new(program, refinement, corrupt.clone(), SimConfig::default());
    let mp = sim.run_until_stable(s, 3);

    // Socket nodes: concurrent processes, each acting on its own
    // possibly-stale local view (low atomicity), until the runtime
    // detector sees S hold.
    let net = run(program, &corrupt, s, &NetConfig::default()).expect("socket run starts");
    let net_ok = net.converged && s.holds(&net.final_state);
    let net_actions: u64 = net.nodes.iter().map(|n| n.counters.steps).sum();

    t.row([
        name.to_string(),
        shared.steps.to_string(),
        mp.stabilized_at_round
            .map_or("(none)".into(), |r| r.to_string()),
        mp.messages_delivered.to_string(),
        net_actions.to_string(),
        if net_ok { "yes" } else { "NO" }.to_string(),
    ]);
}

/// E9 — the §8 refinement remark, measured: the same corrupted start is
/// driven to `S` under (a) the paper's shared-memory model, (b) the
/// round-based message-passing refinement, and (c) concurrent socket nodes
/// with local views (`nonmask_net::run`), the low-atomicity refinement.
pub fn e9() -> String {
    let mut t = Table::new(
        "E9: shared memory vs message passing vs socket nodes",
        [
            "protocol",
            "shared-mem steps to S",
            "msg-passing rounds to S",
            "messages",
            "net actions (whole run)",
            "net reached S",
        ],
    );

    let ring = TokenRing::new(5, 5);
    let corrupt = ring
        .program()
        .state_from([3, 1, 4, 1, 2])
        .expect("in domain");
    compare(
        &mut t,
        "token ring n=5",
        ring.program(),
        &ring.invariant(),
        corrupt,
    );

    let ring8 = TokenRing::new(8, 8);
    let corrupt8 = ring8
        .program()
        .state_from([7, 3, 1, 6, 2, 5, 0, 4])
        .expect("in domain");
    compare(
        &mut t,
        "token ring n=8",
        ring8.program(),
        &ring8.invariant(),
        corrupt8,
    );

    let dc = DiffusingComputation::new(&Tree::binary(7));
    let mut corrupt_dc = dc.initial_state();
    for j in [1usize, 3, 4, 6] {
        corrupt_dc.set(dc.color_var(j), nonmask_protocols::diffusing::RED);
        corrupt_dc.set(dc.session_var(j), (j % 2) as i64);
    }
    compare(
        &mut t,
        "diffusing binary-7",
        dc.program(),
        &dc.invariant(),
        corrupt_dc,
    );

    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_all_models_stabilize() {
        let out = e9();
        assert!(
            !out.contains("(none)"),
            "message passing stabilized:\n{out}"
        );
        assert!(!out.contains(" NO"), "socket runs ended inside S:\n{out}");
    }
}
