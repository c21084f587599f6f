//! `Engine`-trait conformance suite: every simulator behind the unified
//! [`Engine`] interface must honor the same contract —
//!
//! * `view()` is the occupied-state multiset: positive counts summing to
//!   the population size;
//! * `advance(budget)` executes between 1 and `budget` interactions and
//!   never overshoots (run drivers rely on landing checkpoints exactly);
//! * `time()` is `interactions / n`;
//! * trajectories are a deterministic function of the seed;
//! * the dynamic dispatch the sweep layer depends on (`Box<dyn Engine>`)
//!   drives every engine to the same convergence result;
//! * under `Simulation`, the only run driver, a predicate that holds at
//!   the start stops the run at time 0, and an exhausted budget stops it
//!   unconverged at exactly `⌈T·n⌉` interactions.
//!
//! The suite runs against all four engines: `AgentSim`, `CountSim`,
//! `BatchedCountSim`, and the adaptive `ConfigSim` facade.

use pp_engine::batch::{BatchedCountSim, ConfigSim};
use pp_engine::count_sim::{CountConfiguration, CountSim};
use pp_engine::simulation::{count_of, view_population, Engine, EngineKind, Simulation};
use pp_engine::{AgentSim, Protocol, RunOutcome, SimRng};

// Above ConfigSim::BATCH_THRESHOLD so the Auto facade starts batched.
const N: u64 = 8_192;

/// Agent-level one-way epidemic over `bool`, so all four engines share
/// one state type and one conformance harness.
struct AgentEpidemic;

impl Protocol for AgentEpidemic {
    type State = bool;

    fn initial_state(&self) -> bool {
        false
    }

    fn interact(&self, rec: &mut bool, sen: &mut bool, _rng: &mut SimRng) {
        *rec |= *sen;
    }
}

fn config() -> CountConfiguration<bool> {
    CountConfiguration::from_pairs([(false, N - 1), (true, 1)])
}

/// All four engines, seeded, from the same single-source epidemic start.
fn engines(seed: u64) -> Vec<(&'static str, Box<dyn Engine<bool>>)> {
    use pp_engine::epidemic::InfectionEpidemic;
    let mut agent = AgentSim::new(AgentEpidemic, N as usize, seed);
    agent.set_state(0, true);
    vec![
        ("agent", Box::new(agent)),
        (
            "count",
            Box::new(CountSim::new(InfectionEpidemic, config(), seed)),
        ),
        (
            "batched",
            Box::new(BatchedCountSim::new(InfectionEpidemic, config(), seed)),
        ),
        (
            "config_auto",
            Box::new(ConfigSim::new(InfectionEpidemic, config(), seed)),
        ),
        (
            "config_sequential",
            Box::new(ConfigSim::sequential(InfectionEpidemic, config(), seed)),
        ),
    ]
}

#[test]
fn view_is_the_population_multiset() {
    for (name, mut engine) in engines(1) {
        for _ in 0..5 {
            let view = engine.view();
            assert_eq!(view_population(&view), N, "{name}: view does not sum to n");
            assert!(
                view.iter().all(|&(_, c)| c > 0),
                "{name}: zero-count entry in view"
            );
            assert!(
                count_of(&view, &true) >= 1,
                "{name}: infection lost from view"
            );
            engine.advance(N / 4);
        }
    }
}

#[test]
fn advance_lands_within_budget_and_never_overshoots() {
    for (name, mut engine) in engines(2) {
        assert_eq!(engine.interactions(), 0, "{name}: fresh engine not at 0");
        for budget in [1u64, 7, 64, 1_000] {
            let before = engine.interactions();
            let executed = engine.advance(budget);
            assert!(
                (1..=budget).contains(&executed),
                "{name}: advance({budget}) executed {executed}"
            );
            assert_eq!(
                engine.interactions(),
                before + executed,
                "{name}: interaction clock out of sync with advance()"
            );
        }
    }
}

#[test]
fn time_is_interactions_over_n() {
    for (name, mut engine) in engines(3) {
        assert_eq!(engine.population_size(), N, "{name}");
        for _ in 0..4 {
            engine.advance(777);
            let expect = engine.interactions() as f64 / N as f64;
            assert!(
                (engine.time() - expect).abs() < 1e-12,
                "{name}: time {} vs interactions/n {expect}",
                engine.time()
            );
        }
    }
}

#[test]
fn trajectories_are_deterministic_given_seed() {
    let run = |seed: u64| -> Vec<(u64, Vec<(bool, u64)>)> {
        engines(seed)
            .into_iter()
            .map(|(_, mut engine)| {
                let mut executed = 0;
                while executed < 3 * N {
                    executed += engine.advance(3 * N - executed);
                }
                let mut view = engine.view();
                view.sort();
                (engine.interactions(), view)
            })
            .collect()
    };
    assert_eq!(run(42), run(42), "same seed must reproduce all engines");
    assert_ne!(
        run(42),
        run(43),
        "different seeds should (overwhelmingly) differ"
    );
}

#[test]
fn dyn_dispatch_drives_every_engine_to_completion() {
    for (name, engine) in engines(4) {
        let expected_kind = match name {
            "agent" => EngineKind::Agent,
            "batched" | "config_auto" => EngineKind::Batched,
            _ => EngineKind::Sequential,
        };
        assert_eq!(engine.kind(), expected_kind, "{name}");
        // The sweep layer's shape: engine selected at runtime, driven
        // through the one generic run loop.
        let mut sim = Simulation::from_engine(engine);
        let out = sim.run_until(|view| count_of(view, &true) == N, 1e6);
        assert!(out.converged, "{name}: epidemic never completed");
        assert_eq!(sim.count(&true), N, "{name}");
        // ~2 ln n parallel time, with a generous band.
        assert!(out.time < 60.0, "{name}: completion took {}", out.time);
    }
}

#[test]
fn run_driver_stops_at_time_zero_or_exactly_at_the_budget() {
    // A predicate that already holds: converged at time 0, nothing run.
    for (name, engine) in engines(5) {
        let mut sim = Simulation::from_engine(engine);
        let out = sim.run_until(|view| count_of(view, &true) >= 1, 10.0);
        let expect = RunOutcome {
            converged: true,
            time: 0.0,
            interactions: 0,
        };
        assert_eq!(out, expect, "{name}");
        assert_eq!(sim.interactions(), 0, "{name}: ran past a true predicate");
    }
    // A never-true predicate under a budget whose ⌈T·n⌉ is no multiple of
    // n: the driver's last burst (checks fall every n interactions) is
    // clipped, and every engine must land on the budget exactly.
    let max_time = 2.3;
    let budget = (max_time * N as f64).ceil() as u64;
    assert_ne!(budget % N, 0, "budget must cut a burst short");
    for (name, engine) in engines(6) {
        let mut sim = Simulation::from_engine(engine);
        let out = sim.run_until(|_| false, max_time);
        assert!(!out.converged, "{name}");
        assert_eq!(out.interactions, budget, "{name}: overshot or undershot");
        assert_eq!(sim.interactions(), budget, "{name}");
        assert_eq!(out.time, budget as f64 / N as f64, "{name}");
    }
}
