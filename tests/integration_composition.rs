//! Integration tests for the §1.1 composition framework with its two
//! downstream clients, plus the standalone phase clocks.

use uniform_sizeest::baselines::leader_election::run_uniform_election;
use uniform_sizeest::baselines::majority::{
    run_nonuniform_majority, run_uniform_majority, MajorityDownstream,
};
use uniform_sizeest::protocols::aae_clock::time_for_phases;
use uniform_sizeest::protocols::composition::Downstream;
use uniform_sizeest::protocols::phase_clock::{stage_skew, LeaderlessPhaseClock};

#[test]
fn uniformized_majority_agrees_with_nonuniform_on_both_outcomes() {
    let n = 250;
    for (ones, expect) in [(160, 1u8), (90, 0u8)] {
        let uni = run_uniform_majority(n, ones, 11 + ones as u64, 1e8);
        let non = run_nonuniform_majority(n, ones, 13 + ones as u64, 1e8);
        assert!(uni.converged && non.converged);
        assert_eq!(uni.winner, Some(expect), "uniform wrong at ones={ones}");
        assert_eq!(non.winner, Some(expect), "nonuniform wrong at ones={ones}");
    }
}

#[test]
fn composition_overhead_is_constant_factor() {
    let n = 300;
    let uni = run_uniform_majority(n, 180, 21, 1e8);
    let non = run_nonuniform_majority(n, 180, 22, 1e8);
    assert!(uni.converged && non.converged);
    let overhead = uni.time / non.time;
    assert!(
        overhead < 10.0,
        "composition overhead {overhead} not a modest constant"
    );
}

#[test]
fn election_always_keeps_at_least_one_contender() {
    for seed in 0..4 {
        let out = run_uniform_election(150, 70 + seed, 1e8);
        assert!(out.converged);
        assert!(out.contenders >= 1, "seed {seed} eliminated everyone");
        assert!(out.contenders <= 5, "seed {seed} left {}", out.contenders);
    }
}

#[test]
fn majority_parameters_are_n_free() {
    // Structural uniformity: thresholds depend only on the estimate.
    let d = MajorityDownstream::default();
    for s in [5u64, 10, 20] {
        assert_eq!(d.num_stages(s), 4 * s);
        assert_eq!(d.stage_threshold(s), 95 * s);
    }
}

#[test]
fn phase_clock_skew_invariant_holds_under_long_runs() {
    use pp_engine::Engine as _;
    let mut sim = pp_engine::AgentSim::new(LeaderlessPhaseClock::default(), 250, 31);
    // Settle, checking once per parallel-time unit.
    while !sim.states().iter().all(|c| c.stage >= 2) {
        assert!(sim.time() < 1e6, "clock never settled");
        sim.steps(250);
    }
    for _ in 0..100 {
        sim.steps(2 * 250);
        assert!(stage_skew(sim.states()) <= 1);
    }
}

#[test]
fn aae_clock_time_scales_with_phase_count() {
    let t30 = time_for_phases(300, 30, 41);
    let t120 = time_for_phases(300, 120, 42);
    let ratio = t120 / t30;
    assert!(
        (2.0..8.0).contains(&ratio),
        "4x phases should take ~4x time, got {ratio}"
    );
}
