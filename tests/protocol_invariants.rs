//! Property-based tests of the main protocol's dynamic invariants: run
//! arbitrary prefixes of real executions and check that the state machine
//! never leaves its legal envelope.

use proptest::prelude::*;
use uniform_sizeest::engine::{AgentSim, Engine as _};
use uniform_sizeest::protocols::log_size::LogSizeEstimation;
use uniform_sizeest::protocols::state::{MainState, Role};

/// Checks every structural invariant of a population snapshot.
fn check_invariants(states: &[MainState], epoch_mult: u64) -> Result<(), String> {
    for (i, s) in states.iter().enumerate() {
        // logSize2 includes the +2 offset once a role-A agent sampled it.
        if s.role != Role::X && s.log_size2 < 1 {
            return Err(format!("agent {i}: logSize2 below 1"));
        }
        // Epoch never exceeds the target implied by its own logSize2
        // (agents stop at 5·logSize2)... except transiently epoch == target.
        if s.epoch > epoch_mult * s.log_size2 {
            return Err(format!(
                "agent {i}: epoch {} beyond target {}",
                s.epoch,
                epoch_mult * s.log_size2
            ));
        }
        // protocol_done implies the target was reached (A agents) or the
        // deliveries completed (S agents) — both mean epoch == target.
        if s.protocol_done && s.epoch < epoch_mult * s.log_size2 {
            return Err(format!("agent {i}: done before target"));
        }
        // An output implies done.
        if s.output.is_some() && !s.protocol_done {
            return Err(format!("agent {i}: output without done"));
        }
        // Role X agents never advance.
        if s.role == Role::X && (s.epoch > 0 || s.time > 0 || s.sum > 0) {
            return Err(format!("agent {i}: X agent advanced"));
        }
        // S agents never run the interaction clock.
        if s.role == Role::S && s.time > 0 {
            return Err(format!("agent {i}: S agent ticked its clock"));
        }
        // gr is a positive geometric sample.
        if s.gr < 1 {
            return Err(format!("agent {i}: gr below 1"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invariants_hold_along_random_executions(
        n in 10usize..150,
        seed in any::<u64>(),
        bursts in 1usize..12,
    ) {
        let protocol = LogSizeEstimation::paper();
        let mut sim = AgentSim::new(protocol, n, seed);
        for _ in 0..bursts {
            sim.steps(50 * n as u64);
            if let Err(e) = check_invariants(sim.states(), protocol.epoch_multiplier) {
                prop_assert!(false, "invariant violated at t={}: {e}", sim.time());
            }
        }
    }

    #[test]
    fn roles_are_stable_once_assigned(n in 10usize..100, seed in any::<u64>()) {
        let mut sim = AgentSim::new(LogSizeEstimation::paper(), n, seed);
        sim.steps(30 * n as u64);
        let roles: Vec<Role> = sim.states().iter().map(|s| s.role).collect();
        sim.steps(100 * n as u64);
        for (i, s) in sim.states().iter().enumerate() {
            if roles[i] != Role::X {
                prop_assert_eq!(s.role, roles[i], "agent {} changed role", i);
            }
        }
    }

    #[test]
    fn logsize2_is_monotone_per_agent(n in 10usize..100, seed in any::<u64>()) {
        let mut sim = AgentSim::new(LogSizeEstimation::paper(), n, seed);
        let mut prev: Vec<u64> = sim.states().iter().map(|s| s.log_size2).collect();
        for _ in 0..8 {
            sim.steps(20 * n as u64);
            for (i, s) in sim.states().iter().enumerate() {
                prop_assert!(
                    s.log_size2 >= prev[i],
                    "agent {} logSize2 decreased {} -> {}",
                    i, prev[i], s.log_size2
                );
                prev[i] = s.log_size2;
            }
        }
    }

    #[test]
    fn population_wide_max_logsize2_never_decreases(n in 20usize..120, seed in any::<u64>()) {
        let mut sim = AgentSim::new(LogSizeEstimation::paper(), n, seed);
        let mut prev_max = 0;
        for _ in 0..10 {
            sim.steps(15 * n as u64);
            let max = sim.states().iter().map(|s| s.log_size2).max().unwrap();
            prop_assert!(max >= prev_max);
            prev_max = max;
        }
    }
}

#[test]
fn s_epoch_tracks_number_of_summands() {
    // White-box invariant: an S agent's sum is a sum of exactly `epoch`
    // geometric maxima, each ≥ 1, so epoch ≤ sum (once epoch > 0) unless a
    // restart zeroed both.
    let mut sim = AgentSim::new(LogSizeEstimation::paper(), 120, 77);
    for _ in 0..40 {
        sim.steps(25 * 120);
        for (i, s) in sim.states().iter().enumerate() {
            if s.role == Role::S && s.epoch > 0 {
                assert!(
                    s.sum >= s.epoch,
                    "agent {i}: sum {} < epoch {} (each summand is ≥ 1)",
                    s.sum,
                    s.epoch
                );
            }
        }
    }
}
