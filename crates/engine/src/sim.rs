//! [`AgentSim`]: the per-agent-state simulator.
//!
//! Stores one state struct per agent and applies interactions drawn from the
//! uniform pair scheduler. This is the simulator used for the paper's main
//! protocols, whose states are records of `O(log log n)`-bit counters.

use crate::protocol::{Protocol, SeededInit};
use crate::rng::{rng_from_seed, SimRng};
use crate::scheduler::{parallel_time, PairScheduler};

/// Outcome of running a simulation until a predicate holds (or a budget ends).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunOutcome {
    /// Whether the stopping predicate was satisfied within the budget.
    pub converged: bool,
    /// Parallel time (interactions / n) at which the run stopped.
    pub time: f64,
    /// Total interactions executed.
    pub interactions: u64,
}

/// A sequential simulator holding an explicit state per agent.
pub struct AgentSim<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
    scheduler: PairScheduler,
    rng: SimRng,
    interactions: u64,
}

impl<P: Protocol> AgentSim<P> {
    /// Creates a population of `n` agents, all in the protocol's initial
    /// state, with all randomness derived from `seed`.
    pub fn new(protocol: P, n: usize, seed: u64) -> Self {
        let states = vec![protocol.initial_state(); n];
        Self {
            protocol,
            states,
            scheduler: PairScheduler::new(n),
            rng: rng_from_seed(seed),
            interactions: 0,
        }
    }

    /// Creates a population whose initial states come from
    /// [`SeededInit::init_state`] (harness-level input assignment).
    pub fn with_inputs(protocol: P, n: usize, seed: u64) -> Self
    where
        P: SeededInit,
    {
        let states = (0..n).map(|i| protocol.init_state(i, n)).collect();
        Self {
            protocol,
            states,
            scheduler: PairScheduler::new(n),
            rng: rng_from_seed(seed),
            interactions: 0,
        }
    }

    /// Rebuilds a simulator from checkpoint parts. The pair scheduler is
    /// stateless (rebuilt from the population size), so `(states, rng,
    /// interactions)` is the simulator's entire mutable state: a restored
    /// run continues byte-for-byte identically to the snapshotted one.
    pub(crate) fn from_snapshot_parts(
        protocol: P,
        states: Vec<P::State>,
        rng: SimRng,
        interactions: u64,
    ) -> Self {
        let n = states.len();
        assert!(n >= 2, "population must have at least 2 agents, got {n}");
        Self {
            protocol,
            states,
            scheduler: PairScheduler::new(n),
            rng,
            interactions,
        }
    }

    /// Checkpoint accessor: the RNG stream.
    pub(crate) fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// Population size.
    pub fn population_size(&self) -> usize {
        self.states.len()
    }

    /// Parallel time elapsed so far.
    pub fn time(&self) -> f64 {
        parallel_time(self.interactions, self.states.len())
    }

    /// Total interactions executed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Immutable view of all agent states.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Overwrites the state of agent `index` (used to plant an initial
    /// leader for the Theorem 3.13 variant).
    pub fn set_state(&mut self, index: usize, state: P::State) {
        self.states[index] = state;
    }

    /// Executes a single interaction.
    pub fn step(&mut self) {
        let pair = self.scheduler.next_pair(&mut self.rng);
        // Split the slice so we can hold two disjoint mutable references.
        let (lo, hi) = (
            pair.receiver.min(pair.sender),
            pair.receiver.max(pair.sender),
        );
        let (left, right) = self.states.split_at_mut(hi);
        let (first, second) = (&mut left[lo], &mut right[0]);
        if pair.receiver < pair.sender {
            self.protocol.interact(first, second, &mut self.rng);
        } else {
            self.protocol.interact(second, first, &mut self.rng);
        }
        self.interactions += 1;
    }
}

impl<P: Protocol> std::fmt::Debug for AgentSim<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentSim")
            .field("n", &self.states.len())
            .field("interactions", &self.interactions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use crate::simulation::{Engine as _, Simulation};
    use rand::Rng;

    /// Epidemic: the receiver becomes infected if the sender is.
    struct Epidemic;

    impl Protocol for Epidemic {
        type State = bool;

        fn initial_state(&self) -> bool {
            false
        }

        fn interact(&self, rec: &mut bool, sen: &mut bool, _rng: &mut SimRng) {
            if *sen {
                *rec = true;
            }
        }
    }

    /// Everyone infected: the decoded view holds only `true`.
    fn all_infected(view: &[(bool, u64)]) -> bool {
        view.iter().all(|&(s, _)| s)
    }

    /// Runs `sim` to full infection through [`Simulation`], checking once
    /// per parallel-time unit.
    fn run_to_infection(sim: AgentSim<Epidemic>, max_time: f64) -> RunOutcome {
        Simulation::from_engine(Box::new(sim)).run_until(all_infected, max_time)
    }

    #[test]
    fn epidemic_reaches_everyone() {
        let mut sim = AgentSim::new(Epidemic, 200, 42);
        sim.set_state(0, true);
        let outcome = run_to_infection(sim, 200.0);
        assert!(outcome.converged);
        // Epidemic completes in ~2 ln n expected parallel time; 200 is ample.
        assert!(outcome.time < 100.0);
    }

    #[test]
    fn epidemic_time_scales_logarithmically() {
        // E[T] = (n-1)/n * H_{n-1} ≈ ln n. Check the mean over a few trials
        // sits well below, say, 3 ln n and above 0.5 ln n.
        let n = 1000;
        let mut total = 0.0;
        let trials = 10;
        for t in 0..trials {
            let (out, _) = Simulation::builder(Epidemic)
                .size(n)
                .seed(100 + t)
                .init_planted([(true, 1)])
                .check_every(50)
                .max_time(200.0)
                .until(all_infected)
                .run();
            assert!(out.converged);
            total += out.time;
        }
        let mean = total / trials as f64;
        let ln_n = (n as f64).ln();
        assert!(mean > 0.5 * ln_n && mean < 3.0 * ln_n, "mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = AgentSim::new(Epidemic, 50, seed);
            sim.set_state(0, true);
            run_to_infection(sim, 100.0)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.interactions, b.interactions);
        assert_ne!(run(8).interactions, 0);
    }

    /// Order-sensitive protocol: receiver records that it received.
    struct OrderSensitive;

    impl Protocol for OrderSensitive {
        type State = (u32, u32); // (times as receiver, times as sender)

        fn initial_state(&self) -> (u32, u32) {
            (0, 0)
        }

        fn interact(&self, rec: &mut (u32, u32), sen: &mut (u32, u32), _rng: &mut SimRng) {
            rec.0 += 1;
            sen.1 += 1;
        }
    }

    #[test]
    fn receiver_sender_roles_are_balanced() {
        // Each agent should be receiver and sender roughly equally often —
        // this is the fair coin the synthetic-coin construction relies on.
        let mut sim = AgentSim::new(OrderSensitive, 20, 9);
        sim.steps(100_000);
        let (total_rec, total_sen) = sim.states().iter().fold((0u64, 0u64), |acc, s| {
            (acc.0 + s.0 as u64, acc.1 + s.1 as u64)
        });
        assert_eq!(total_rec, 100_000);
        assert_eq!(total_sen, 100_000);
        for s in sim.states() {
            let tot = (s.0 + s.1) as f64;
            let frac = s.0 as f64 / tot;
            assert!(
                (0.4..=0.6).contains(&frac),
                "receiver fraction {frac} biased"
            );
        }
    }

    /// A protocol that consumes randomness — used to confirm the RNG is
    /// threaded through and deterministic.
    struct RandomWalk;

    impl Protocol for RandomWalk {
        type State = i64;

        fn initial_state(&self) -> i64 {
            0
        }

        fn interact(&self, rec: &mut i64, _sen: &mut i64, rng: &mut SimRng) {
            *rec += if rng.gen::<bool>() { 1 } else { -1 };
        }
    }

    #[test]
    fn random_protocol_is_reproducible() {
        let run = |seed: u64| {
            let mut sim = AgentSim::new(RandomWalk, 10, seed);
            sim.steps(10_000);
            sim.states().to_vec()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn with_inputs_assigns_by_index() {
        struct Majority;
        impl Protocol for Majority {
            type State = u8;
            fn initial_state(&self) -> u8 {
                0
            }
            fn interact(&self, _r: &mut u8, _s: &mut u8, _rng: &mut SimRng) {}
        }
        impl SeededInit for Majority {
            fn init_state(&self, index: usize, n: usize) -> u8 {
                u8::from(index < n / 3)
            }
        }
        let sim = AgentSim::with_inputs(Majority, 9, 0);
        let ones = sim.states().iter().filter(|&&s| s == 1).count();
        assert_eq!(ones, 3);
    }
}
