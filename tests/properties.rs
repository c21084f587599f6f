//! Property-based tests (proptest) on the core data structures and
//! invariants of the workspace.

use proptest::prelude::*;
use uniform_sizeest::analysis::stats::{quantile, Summary};
use uniform_sizeest::engine::count_sim::CountConfiguration;
use uniform_sizeest::engine::rng::{derive_seed, geometric, geometric_half, rng_from_seed};
use uniform_sizeest::engine::scheduler::PairScheduler;
use uniform_sizeest::engine::Engine as _;
use uniform_sizeest::termination::producible::producible_closure;
use uniform_sizeest::termination::relation::{Transition, TransitionRelation};

proptest! {
    #[test]
    fn derived_seeds_never_collide_with_base_stream(base in any::<u64>(), a in 0u64..512, b in 0u64..512) {
        prop_assume!(a != b);
        prop_assert_ne!(derive_seed(base, a), derive_seed(base, b));
    }

    #[test]
    fn scheduler_pairs_always_distinct_and_in_range(n in 2usize..200, seed in any::<u64>()) {
        let sched = PairScheduler::new(n);
        let mut rng = rng_from_seed(seed);
        for _ in 0..50 {
            let p = sched.next_pair(&mut rng);
            prop_assert!(p.receiver < n);
            prop_assert!(p.sender < n);
            prop_assert_ne!(p.receiver, p.sender);
        }
    }

    #[test]
    fn geometric_always_at_least_one(seed in any::<u64>(), p in 0.01f64..1.0) {
        let mut rng = rng_from_seed(seed);
        prop_assert!(geometric_half(&mut rng) >= 1);
        prop_assert!(geometric(p, &mut rng) >= 1);
    }

    #[test]
    fn count_configuration_conserves_population(
        counts in proptest::collection::vec(1u64..100, 1..10),
        seed in any::<u64>(),
    ) {
        let pairs: Vec<(u32, u64)> = counts.iter().enumerate().map(|(i, &c)| (i as u32, c)).collect();
        let total: u64 = counts.iter().sum();
        let config = CountConfiguration::from_pairs(pairs);
        prop_assert_eq!(config.population_size(), total);
        if total >= 2 {
            // Run a copy-the-sender protocol; population must be conserved.
            struct Copycat;
            impl uniform_sizeest::engine::count_sim::CountProtocol for Copycat {
                type State = u32;
                fn transition(&self, _r: u32, s: u32, _rng: &mut uniform_sizeest::engine::rng::SimRng) -> (u32, u32) {
                    (s, s)
                }
            }
            let mut sim = uniform_sizeest::engine::count_sim::CountSim::new(Copycat, config, seed);
            sim.steps(200);
            prop_assert_eq!(sim.config().population_size(), total);
        }
    }

    #[test]
    fn density_flag_matches_min_fraction(
        counts in proptest::collection::vec(1u64..1000, 1..8),
        alpha in 0.0f64..1.0,
    ) {
        let pairs: Vec<(u32, u64)> = counts.iter().enumerate().map(|(i, &c)| (i as u32, c)).collect();
        let config = CountConfiguration::from_pairs(pairs);
        let n = config.population_size() as f64;
        let min_frac = counts.iter().map(|&c| c as f64 / n).fold(1.0f64, f64::min);
        prop_assert_eq!(config.is_dense(alpha), min_frac >= alpha);
    }

    #[test]
    fn summary_bounds_are_consistent(data in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let s = Summary::of(&data);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.stddev >= 0.0);
        prop_assert_eq!(s.count, data.len());
    }

    #[test]
    fn quantiles_are_monotone(data in proptest::collection::vec(-1e3f64..1e3, 1..40), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&data, lo) <= quantile(&data, hi) + 1e-9);
    }

    #[test]
    fn closure_levels_are_monotone(limit in 2u16..20) {
        let rel = uniform_sizeest::termination::experiment::counter_protocol(limit);
        let closure = producible_closure(&rel, [0u16, 1000u16], 1.0, None);
        for w in closure.levels.windows(2) {
            prop_assert!(w[0].is_subset(&w[1]), "closure must grow monotonically");
        }
        // Fixpoint contains the initial set.
        prop_assert!(closure.final_set().contains(&0));
        prop_assert!(closure.final_set().contains(&1000));
    }

    #[test]
    fn transition_relation_roundtrip(states in proptest::collection::vec((0u8..20, 0u8..20, 0u8..20, 0u8..20), 1..15)) {
        // Dedup by input pair to keep rates valid (each 1.0).
        let mut seen = std::collections::BTreeSet::new();
        let transitions: Vec<Transition<u8>> = states
            .into_iter()
            .filter(|&(a, b, _, _)| seen.insert((a, b)))
            .map(|(a, b, c, d)| Transition::new(a, b, c, d))
            .collect();
        let count = transitions.len();
        let rel = TransitionRelation::new(transitions);
        prop_assert_eq!(rel.transitions().len(), count);
        prop_assert_eq!(rel.min_rate(), 1.0);
    }

    #[test]
    fn max_geometric_sampler_within_sane_range(n in 1u64..1_000_000, seed in any::<u64>()) {
        let mut rng = rng_from_seed(seed);
        let m = uniform_sizeest::analysis::geometric::max_geometric_sample(n, &mut rng);
        prop_assert!(m >= 1);
        // Max of n geometrics essentially never exceeds 4 log n + 80.
        prop_assert!((m as f64) < 4.0 * (n as f64).log2().max(1.0) + 80.0);
    }
}

#[test]
fn protocol_estimate_is_pure_function_of_seed() {
    // Determinism across the whole stack (engine + protocol + runner).
    let a = uniform_sizeest::protocols::log_size::estimate_log_size(120, 1234, None);
    let b = uniform_sizeest::protocols::log_size::estimate_log_size(120, 1234, None);
    assert_eq!(a.output, b.output);
    assert_eq!(a.time, b.time);
    assert_eq!(a.maxima, b.maxima);
}
