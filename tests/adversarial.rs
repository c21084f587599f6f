//! Failure injection: adversarially corrupted initial configurations.
//!
//! The paper's protocol assumes a clean leaderless start (all agents in
//! state `X`). It is **not** self-stabilizing — and cannot be: Cai, Izumi &
//! Wada (cited as \[19\]) show uniform self-stabilizing leader election is
//! impossible, and the same obstruction applies here. These tests *inject*
//! corrupted states and document exactly how the protocol degrades or
//! recovers:
//!
//! * an inflated `logSize2` **poisons the whole run** (the max-epidemic
//!   spreads it; restarts re-pace everything to the bogus value) — the
//!   estimate comes out near the planted value, not `log n`;
//! * a corrupted `output`/`protocol_done` pair on one agent is *contained*
//!   (outputs only propagate to agents that finished their own epochs);
//! * corrupted low fields (`time`, `gr`) are *washed out* by the normal
//!   restart machinery — the estimate stays in band.

use uniform_sizeest::engine::{AgentSim, Simulation};
use uniform_sizeest::protocols::log_size::{is_converged_counts, LogSizeEstimation};
use uniform_sizeest::protocols::state::{MainState, Role};

fn run_corrupted(
    n: usize,
    seed: u64,
    corrupt: impl Fn(&mut MainState),
) -> (bool, Option<u64>, f64) {
    let mut sim = AgentSim::new(LogSizeEstimation::paper(), n, seed);
    let mut state = MainState::initial();
    corrupt(&mut state);
    sim.set_state(0, state);
    let budget = 4.0 * uniform_sizeest::protocols::log_size::default_time_budget(n as u64);
    let mut sim = Simulation::from_engine(Box::new(sim));
    let out = sim.run_until(is_converged_counts, budget);
    // The view's first pair holds agent 0's state.
    let output = if out.converged {
        sim.view()[0].0.output
    } else {
        None
    };
    (out.converged, output, out.time)
}

#[test]
fn inflated_logsize2_poisons_the_estimate() {
    // Plant logSize2 = 30 on one agent of n = 200 (true log n ≈ 7.6).
    // The epidemic spreads the bogus maximum; the protocol still converges
    // (to a much longer schedule) but the output is governed by the real
    // geometric samples — gr values stay honest — so the *estimate* stays
    // near log n while the *time* blows up to ~240·30².
    let n = 200;
    let (converged, output, time) = run_corrupted(n, 3, |s| {
        s.role = Role::A;
        s.log_size2 = 30;
    });
    assert!(converged, "corrupted run should still converge");
    let clean_time = uniform_sizeest::protocols::log_size::estimate_log_size(n, 4, None).time;
    assert!(
        time > 3.0 * clean_time,
        "poisoned schedule should be much slower: {time} vs clean {clean_time}"
    );
    // The output is an average of true geometric maxima — still sane.
    let k = output.unwrap() as f64;
    assert!(
        (k - (n as f64).log2()).abs() <= 6.7,
        "estimate {k} drifted out of the extended band"
    );
}

#[test]
fn corrupted_output_flag_is_contained() {
    // One agent claims protocol_done with a wild output before anything
    // ran. Outputs propagate only to agents that are themselves done, and
    // every honest agent finishes with the honest (epoch, sum) chain — so
    // the final common output must NOT be the planted 99.
    let n = 200;
    let (converged, output, _) = run_corrupted(n, 5, |s| {
        s.role = Role::S;
        s.protocol_done = true;
        s.output = Some(99);
    });
    assert!(converged);
    let k = output.unwrap();
    assert_ne!(k, 99, "planted output should not win");
    assert!(
        (k as f64 - (n as f64).log2()).abs() <= 6.7,
        "estimate {k} out of band despite containment"
    );
}

#[test]
fn corrupted_counters_wash_out() {
    // Huge time and gr on one agent: time fires the phase clock early once
    // (harmless — a restart or delivery absorbs it); gr inflates at most
    // one epoch's summand of one S-chain by a bounded amount... measure:
    // the run must converge with an estimate within the extended band.
    let n = 300;
    let (converged, output, _) = run_corrupted(n, 7, |s| {
        s.role = Role::A;
        s.time = 10_000;
        s.gr = 12; // plausible-looking but inflated geometric
    });
    assert!(converged);
    let k = output.unwrap() as f64;
    assert!(
        (k - (n as f64).log2()).abs() <= 6.7,
        "estimate {k} out of band"
    );
}

#[test]
fn planted_epoch_jump_does_not_deadlock() {
    // An agent claiming a far-future epoch drags the A population forward
    // (epoch epidemic) — epochs then lack deliveries, but Update-Sum's
    // catch-up branch and the S-chain reconciliation must keep the run
    // live. The key assertion is convergence, not accuracy.
    let n = 200;
    let (converged, output, _) = run_corrupted(n, 9, |s| {
        s.role = Role::A;
        s.log_size2 = 8;
        s.epoch = 20;
    });
    assert!(converged, "epoch jump deadlocked the protocol");
    assert!(output.is_some());
}

#[test]
fn many_corrupted_agents_still_converge() {
    // 10% of agents start with random-ish corrupted roles and counters.
    let n = 300;
    let mut sim = AgentSim::new(LogSizeEstimation::paper(), n, 21);
    for i in 0..(n / 10) {
        let mut s = MainState::initial();
        s.role = if i % 2 == 0 { Role::A } else { Role::S };
        s.time = (i as u64) * 17 % 500;
        s.epoch = (i as u64) % 4;
        s.gr = 1 + (i as u64) % 9;
        sim.set_state(i, s);
    }
    let budget = 4.0 * uniform_sizeest::protocols::log_size::default_time_budget(n as u64);
    let out = Simulation::from_engine(Box::new(sim)).run_until(is_converged_counts, budget);
    assert!(out.converged, "10% corruption prevented convergence");
}
