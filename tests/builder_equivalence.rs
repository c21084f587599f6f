//! Builder-vs-legacy equivalence: for fixed seeds, the `Simulation`
//! builder reproduces **byte-identical** outcomes to the free functions'
//! pre-builder bodies.
//!
//! Each test re-implements one deprecated/migrated free function the way
//! it was written before the unified API — direct `AgentSim` /
//! `ConfigSim` construction, predicates over the agent slice or the
//! materialized `config_view()` — and asserts exact equality (`==`, not
//! statistical closeness) against the function's current builder-backed
//! implementation. This pins down the builder's contract: same engine
//! construction order, same RNG stream, same checkpoint cadence, same
//! observation points.
//!
//! The engines no longer carry run drivers of their own (library code
//! runs them through `Simulation`), so the references run on
//! [`legacy_run_until`], this file's copy of the pre-builder loop over
//! [`Engine::steps`]. It shares no code with `Simulation`'s driver, which
//! keeps the references an independent check of it.
//!
//! (This file is the sanctioned home for direct engine constructions
//! outside `pp-engine`; everything else goes through the builder.)

use uniform_sizeest::baselines::alistarh::{weak_estimate, WeakEstimator, WeakState};
use uniform_sizeest::baselines::exact_backup::{
    run_backup, BackupOutcome, BackupState, ExactBackup,
};
use uniform_sizeest::baselines::exact_leader::{
    run_exact_count, CountOutcome, CountState, ExactLeaderCount,
};
use uniform_sizeest::baselines::majority::{
    run_nonuniform_majority, NonuniformMajority, SeededNonuniformMajority,
};
use uniform_sizeest::engine::batch::ConfigSim;
use uniform_sizeest::engine::count_sim::CountConfiguration;
use uniform_sizeest::engine::epidemic::{epidemic_completion_time, InfectionEpidemic};
use uniform_sizeest::engine::interned::Interned;
use uniform_sizeest::engine::{AgentSim, Engine, RunOutcome};
use uniform_sizeest::protocols::leader::{
    run_terminating, run_terminating_agentwise, LeaderState, LeaderTerminating, TerminatingOutcome,
};
use uniform_sizeest::protocols::log_size::{
    estimate_agentwise, is_converged, is_converged_counts, EstimateOutcome, FieldMaxima,
    LogSizeEstimation,
};
use uniform_sizeest::protocols::partition::{run_partition, PartitionOnly, PartitionOutcome};
use uniform_sizeest::protocols::state::Role;

/// The pre-builder run loop, as every engine's own `run_until` ran it:
/// evaluate `done` once before any interaction, then alternate bursts of
/// `min(check_every, remaining)` interactions with one check each, until
/// `done` holds or the absolute budget `⌈max_time · n⌉` is spent.
fn legacy_run_until<S, E: Engine<S>>(
    sim: &mut E,
    mut done: impl FnMut(&E) -> bool,
    check_every: u64,
    max_time: f64,
) -> RunOutcome {
    let max_interactions = (max_time * sim.population_size() as f64).ceil() as u64;
    loop {
        let converged = done(sim);
        if converged || sim.interactions() >= max_interactions {
            return RunOutcome {
                converged,
                time: sim.time(),
                interactions: sim.interactions(),
            };
        }
        sim.steps(check_every.min(max_interactions - sim.interactions()));
    }
}

/// The pre-builder body of `estimate_log_size` (then agent-engine), verbatim;
/// `estimate_agentwise` is its builder-backed successor.
fn legacy_estimate_log_size(n: usize, seed: u64, budget: f64) -> EstimateOutcome {
    let mut sim = AgentSim::new(LogSizeEstimation::paper(), n, seed);
    let mut maxima = FieldMaxima::default();
    let out = legacy_run_until(
        &mut sim,
        |sim| {
            for s in sim.states() {
                maxima.absorb(s);
            }
            is_converged(sim.states())
        },
        n as u64,
        budget,
    );
    let output = if out.converged {
        sim.states()[0].output
    } else {
        None
    };
    EstimateOutcome {
        output,
        time: out.time,
        converged: out.converged,
        maxima,
    }
}

#[test]
fn estimate_agentwise_matches_legacy_agent_sim_byte_for_byte() {
    for (n, seed) in [(100usize, 7u64), (150, 8), (200, 9)] {
        let budget = 1e7;
        let legacy = legacy_estimate_log_size(n, seed, budget);
        let built = estimate_agentwise(LogSizeEstimation::paper(), n, seed, Some(budget));
        assert!(legacy.converged);
        assert_eq!(legacy, built, "n={n} seed={seed}");
    }
}

/// The pre-builder body of the count-engine `estimate_log_size` (interned
/// `ConfigSim`; then named `estimate_log_size_counted`), verbatim.
fn legacy_estimate_counted(n: usize, seed: u64, budget: f64) -> EstimateOutcome {
    let interned = Interned::new(LogSizeEstimation::paper());
    let handle = interned.handle();
    let config = interned.uniform_config(n as u64);
    let mut sim = ConfigSim::new(interned, config, seed);
    let mut maxima = FieldMaxima::default();
    let out = legacy_run_until(
        &mut sim,
        |sim| {
            let decoded = handle.decode(&sim.config_view());
            for (s, _) in &decoded {
                maxima.absorb(s);
            }
            is_converged_counts(&decoded)
        },
        n as u64,
        budget,
    );
    let output = if out.converged {
        handle
            .decode(&sim.config_view())
            .first()
            .and_then(|(s, _)| s.output)
    } else {
        None
    };
    EstimateOutcome {
        output,
        time: out.time,
        converged: out.converged,
        maxima,
    }
}

#[test]
fn estimate_log_size_counted_matches_legacy_config_sim_byte_for_byte() {
    use uniform_sizeest::protocols::log_size::estimate_log_size;
    for (n, seed) in [(100usize, 17u64), (150, 18)] {
        let budget = 1e7;
        let legacy = legacy_estimate_counted(n, seed, budget);
        let built = estimate_log_size(n, seed, Some(budget));
        assert!(legacy.converged);
        assert_eq!(legacy, built, "n={n} seed={seed}");
    }
}

fn finish_terminating(
    counts: std::collections::BTreeMap<u64, u64>,
    n: usize,
    termination_time: f64,
    all_frozen_time: f64,
) -> TerminatingOutcome {
    let (output, agreement) = counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(o, c)| (Some(o), c as f64 / n as f64))
        .unwrap_or((None, 0.0));
    TerminatingOutcome {
        termination_time,
        all_frozen_time,
        output,
        agreement,
        terminated: true,
    }
}

/// The pre-builder body of `run_terminating` (then agent-engine, planted
/// leader via `set_state`), verbatim.
fn legacy_run_terminating(n: usize, seed: u64, max_time: f64) -> TerminatingOutcome {
    let mut sim = AgentSim::new(LeaderTerminating::paper(), n, seed);
    sim.set_state(0, LeaderState::leader());
    let check = n as u64;
    let fired = legacy_run_until(
        &mut sim,
        |sim| sim.states().iter().any(|a| a.terminated),
        check,
        max_time,
    );
    assert!(fired.converged, "legacy harness expects termination");
    let termination_time = fired.time;
    let frozen = legacy_run_until(
        &mut sim,
        |sim| sim.states().iter().all(|a| a.terminated),
        check,
        max_time,
    );
    let mut counts = std::collections::BTreeMap::new();
    for s in sim.states() {
        if let Some(o) = s.main.output {
            *counts.entry(o).or_insert(0u64) += 1;
        }
    }
    finish_terminating(counts, n, termination_time, frozen.time)
}

#[test]
fn run_terminating_agentwise_matches_legacy_agent_sim_byte_for_byte() {
    let (n, seed) = (100usize, 31u64);
    let legacy = legacy_run_terminating(n, seed, 5e6);
    let built = run_terminating_agentwise(n, seed, 5e6);
    assert_eq!(legacy, built);
}

/// The pre-builder body of the count-engine `run_terminating` (interned
/// count engine, planted leader as a non-uniform configuration; then named
/// `run_terminating_counted`), verbatim.
fn legacy_run_terminating_counted(n: usize, seed: u64, max_time: f64) -> TerminatingOutcome {
    let interned = Interned::new(LeaderTerminating::paper());
    let handle = interned.handle();
    let config = interned.config_from_pairs([
        (LeaderState::leader(), 1),
        (LeaderState::initial(), n as u64 - 1),
    ]);
    let mut sim = ConfigSim::new(interned, config, seed);
    let check = n as u64;
    let fired = legacy_run_until(
        &mut sim,
        |sim| {
            handle
                .decode(&sim.config_view())
                .iter()
                .any(|(s, _)| s.terminated)
        },
        check,
        max_time,
    );
    assert!(fired.converged, "legacy harness expects termination");
    let termination_time = fired.time;
    let frozen = legacy_run_until(
        &mut sim,
        |sim| {
            handle
                .decode(&sim.config_view())
                .iter()
                .all(|(s, _)| s.terminated)
        },
        check,
        max_time,
    );
    let mut counts = std::collections::BTreeMap::new();
    for (s, k) in handle.decode(&sim.config_view()) {
        if let Some(o) = s.main.output {
            *counts.entry(o).or_insert(0u64) += k;
        }
    }
    finish_terminating(counts, n, termination_time, frozen.time)
}

#[test]
fn run_terminating_counted_matches_legacy_config_sim_byte_for_byte() {
    let (n, seed) = (80usize, 41u64);
    let legacy = legacy_run_terminating_counted(n, seed, 5e6);
    let built = run_terminating(n, seed, 5e6);
    assert_eq!(legacy, built);
}

#[test]
fn run_partition_matches_legacy_config_sim_byte_for_byte() {
    for (n, seed) in [(500usize, 3u64), (5_000, 4), (10_000, 5)] {
        let legacy: PartitionOutcome = {
            let config = CountConfiguration::uniform(Role::X, n as u64);
            let mut sim = ConfigSim::new(PartitionOnly, config, seed);
            let out = legacy_run_until(
                &mut sim,
                |sim| sim.config_view().count(&Role::X) == 0,
                n as u64,
                f64::MAX,
            );
            assert!(out.converged);
            let a_count = sim.count(&Role::A) as usize;
            PartitionOutcome {
                a_count,
                s_count: n - a_count,
                time: out.time,
            }
        };
        let built = run_partition(n, seed);
        assert_eq!(legacy, built, "n={n} seed={seed}");
    }
}

#[test]
fn epidemic_completion_time_matches_legacy_config_sim_byte_for_byte() {
    // Spans the sequential (small n) and batched (large n) regimes.
    for (n, seed) in [(1_000u64, 11u64), (20_000, 12)] {
        let legacy = {
            let config = CountConfiguration::from_pairs([(false, n - 1), (true, 1)]);
            let mut sim = ConfigSim::new(InfectionEpidemic, config, seed);
            let out = legacy_run_until(
                &mut sim,
                |sim| sim.config_view().count(&true) == n,
                (n / 10).max(1),
                f64::MAX,
            );
            assert!(out.converged);
            out.time
        };
        let built = epidemic_completion_time(n, seed);
        assert_eq!(legacy, built, "n={n} seed={seed}");
    }
}

#[test]
fn weak_estimate_matches_legacy_config_sim_byte_for_byte() {
    for (n, seed) in [(500usize, 21u64), (6_000, 22)] {
        let legacy = {
            let n = n as u64;
            let config = CountConfiguration::uniform(WeakState::initial(), n);
            let mut sim = ConfigSim::new(WeakEstimator, config, seed);
            let out = legacy_run_until(
                &mut sim,
                |sim| WeakEstimator::agreed(&sim.config_view()),
                n.max(2),
                f64::MAX,
            );
            assert!(out.converged);
            let estimate = sim
                .config_view()
                .iter()
                .map(|(s, _)| s.value)
                .max()
                .unwrap_or(0);
            (estimate, out.time)
        };
        let built = weak_estimate(n, seed);
        assert_eq!(legacy, (built.estimate, built.time), "n={n} seed={seed}");
    }
}

#[test]
fn run_backup_matches_legacy_config_sim_byte_for_byte() {
    for (n, seed) in [(300u64, 5u64), (1_000, 6)] {
        let legacy: BackupOutcome = {
            let config = CountConfiguration::uniform(BackupState::Leader(0), n);
            let mut sim = ConfigSim::new(ExactBackup, config, seed);
            let out = legacy_run_until(
                &mut sim,
                |sim| {
                    sim.config_view().iter().all(|(s, &k)| match s {
                        BackupState::Leader(_) => k <= 1,
                        BackupState::Follower(_) => true,
                    })
                },
                (n / 4).max(1),
                f64::MAX,
            );
            assert!(out.converged);
            let final_config = sim.config_view();
            let mut leader_levels: Vec<u32> = final_config
                .iter()
                .filter_map(|(s, &k)| match s {
                    BackupState::Leader(i) if k > 0 => Some(*i),
                    _ => None,
                })
                .collect();
            leader_levels.sort_unstable();
            let max_level = final_config
                .iter()
                .map(|(s, _)| s.level())
                .max()
                .unwrap_or(0);
            BackupOutcome {
                max_level,
                silent_time: out.time,
                leader_levels,
            }
        };
        let built = run_backup(n, seed);
        assert_eq!(legacy, built, "n={n} seed={seed}");
    }
}

#[test]
fn run_exact_count_matches_legacy_agent_sim_byte_for_byte() {
    let (n, seed) = (60usize, 13u64);
    let legacy: CountOutcome = {
        let mut sim = AgentSim::new(ExactLeaderCount::default(), n, seed);
        sim.set_state(
            0,
            CountState::Leader {
                count: 1,
                run: 0,
                done: false,
            },
        );
        let out = legacy_run_until(
            &mut sim,
            |sim| {
                sim.states()
                    .iter()
                    .any(|s| matches!(s, CountState::Leader { done: true, .. }))
            },
            n as u64,
            1e7,
        );
        let count = sim
            .states()
            .iter()
            .find_map(|s| match s {
                CountState::Leader { count, .. } => Some(*count),
                _ => None,
            })
            .unwrap_or(0);
        CountOutcome {
            count,
            time: out.time,
            terminated: out.converged,
        }
    };
    let built = run_exact_count(n, seed, 1e7);
    assert_eq!(legacy, built);
}

#[test]
fn run_nonuniform_majority_matches_legacy_seeded_config_sim_byte_for_byte() {
    for (n, ones, seed) in [(300usize, 190usize, 5u64), (300, 110, 6)] {
        let legacy = {
            let protocol = NonuniformMajority::for_population(n);
            let k = protocol.stage_factor * protocol.log_n;
            let seeded = SeededNonuniformMajority {
                protocol,
                ones: ones as u64,
            };
            let mut sim = ConfigSim::from_seeded(seeded, n as u64, seed);
            let out = legacy_run_until(
                &mut sim,
                |sim| {
                    let mut display = None;
                    sim.config_view().iter().all(|(s, _)| {
                        s.stage >= k && *display.get_or_insert(s.inner.display) == s.inner.display
                    })
                },
                n as u64,
                1e6,
            );
            let winner = if out.converged {
                sim.config_view()
                    .iter()
                    .next()
                    .map(|(s, _)| s.inner.display)
            } else {
                None
            };
            (winner, out.time, out.converged)
        };
        let built = run_nonuniform_majority(n, ones, seed, 1e6);
        assert_eq!(
            legacy,
            (built.winner, built.time, built.converged),
            "n={n} ones={ones} seed={seed}"
        );
    }
}
