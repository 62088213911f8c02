//! # engage-testgen
//!
//! A seedable scenario generator for the Engage pipeline, plus a
//! whole-pipeline differential harness over the generated scenarios.
//!
//! A [`Scenario`] is a `(Universe, PartialInstallSpec,
//! expected-properties)` triple drawn from one of five named topology
//! [`Family`]s — microservice meshes, multi-region DB tiers, deep linear
//! env-dep chains, inheritance-heavy type forests, and three-level
//! provision→configure→release stacks. Every emitted scenario is
//! well-formed by construction (closed universe, acyclic `extends`,
//! solvable — or deliberately UNSAT and tagged as such), and its
//! [`Expected`] properties are computed from the construction, *not*
//! from running the solver, so they double as an independent oracle.
//!
//! The [`differential`] module runs a scenario through
//! configure→plan→deploy→reconfigure — one-shot and through a carried
//! session, then across worker counts × fault settings — and checks that
//! every cell agrees (see `docs/testing.md`). The [`kernel`] module
//! holds checkers of the paper's own statements — Figure 3's guard rule
//! as [`kernel::check_guard_trace`] — that runs are judged against.
//!
//! Scenarios come from three sources:
//!
//! * [`scenario`]`(family, seed)` — knobs sampled from the seed;
//! * [`scenario_with`]`(family, seed, knobs)` — explicit knobs;
//! * [`scenario_strategy`]`()` — an `engage_util::prop` [`Strategy`],
//!   so property tests shrink failing scenarios to minimal knob
//!   settings automatically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
mod families;
pub mod kernel;

use std::fmt;

use engage_model::{PartialInstallSpec, Universe};
use engage_util::prop::{Source, Strategy};
use engage_util::rand::{Rng, SeedableRng, StdRng};

pub use differential::{
    check_scenario, check_scenario_perturbed, observe, Divergence, FaultSetting, Observation,
    Perturbation, SweepStats,
};

/// A named topology family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Microservice mesh: one service type per instance, random
    /// forward-only peer edges (fan-in and fan-out), plus a shared
    /// runtime library each service env-depends on.
    Mesh,
    /// Multi-region database tiers: `depth` abstract tiers with `width`
    /// concrete alternatives each, chained by env-deps, one app per
    /// region — the solver picks one alternative per tier per region.
    DbTiers,
    /// Deep linear env-dep chain: `C{n}` depends on `C{n-1}` all the way
    /// down; one pinned top instance per machine grows a full fresh
    /// chain on that machine.
    Chain,
    /// Inheritance-heavy type forest: an abstract root with `width`
    /// branches of `depth` abstract intermediates ending in one concrete
    /// leaf each; a consumer depends on the root, choosing one leaf.
    TypeForest,
    /// Three-level provision→configure→release stack: machine →
    /// platform service → app releases inside the platform, with a
    /// per-platform config library and a cross-host peer edge onto one
    /// pinned hub service.
    ThreeLevel,
}

impl Family {
    /// Every family, in a fixed order.
    pub const ALL: [Family; 5] = [
        Family::Mesh,
        Family::DbTiers,
        Family::Chain,
        Family::TypeForest,
        Family::ThreeLevel,
    ];

    /// The family's short name (used in scenario names and bench gauges).
    pub fn name(self) -> &'static str {
        match self {
            Family::Mesh => "mesh",
            Family::DbTiers => "db_tiers",
            Family::Chain => "chain",
            Family::TypeForest => "type_forest",
            Family::ThreeLevel => "three_level",
        }
    }

    /// A per-family salt so the same numeric seed yields unrelated
    /// topologies in different families.
    fn salt(self) -> u64 {
        match self {
            Family::Mesh => 0x4d45_5348,
            Family::DbTiers => 0x4442_5452,
            Family::Chain => 0x4348_414e,
            Family::TypeForest => 0x464f_5253,
            Family::ThreeLevel => 0x334c_564c,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Size/depth/branching knobs for a scenario. Not every knob is
/// meaningful for every family (see the field docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Number of machines (regions, hosts). All families.
    pub machines: usize,
    /// Services in the mesh; app releases per platform in three-level.
    pub services: usize,
    /// Chain length; DB tier count; forest branch depth.
    pub depth: usize,
    /// Concrete alternatives per DB tier; forest branch count.
    pub width: usize,
    /// Plant a deliberate conflict (two pinned alternatives of an
    /// exclusive choice) so configuration is UNSAT by construction.
    pub unsat: bool,
}

impl Knobs {
    /// Small fixed knobs for a family: the quickest non-trivial scenario.
    pub fn small(family: Family) -> Knobs {
        match family {
            Family::Mesh => Knobs {
                machines: 2,
                services: 4,
                depth: 0,
                width: 0,
                unsat: false,
            },
            Family::DbTiers => Knobs {
                machines: 2,
                services: 0,
                depth: 2,
                width: 2,
                unsat: false,
            },
            Family::Chain => Knobs {
                machines: 2,
                services: 0,
                depth: 3,
                width: 0,
                unsat: false,
            },
            Family::TypeForest => Knobs {
                machines: 2,
                services: 0,
                depth: 2,
                width: 2,
                unsat: false,
            },
            Family::ThreeLevel => Knobs {
                machines: 2,
                services: 2,
                depth: 0,
                width: 0,
                unsat: false,
            },
        }
    }

    /// Seed-sampled knobs within each family's sweep ranges.
    pub fn sampled(family: Family, rng: &mut StdRng) -> Knobs {
        let machines = rng.gen_range(1usize..=3);
        match family {
            Family::Mesh => Knobs {
                machines,
                services: rng.gen_range(3usize..=8),
                depth: 0,
                width: 0,
                unsat: false,
            },
            Family::DbTiers => Knobs {
                machines,
                services: 0,
                depth: rng.gen_range(1usize..=3),
                width: rng.gen_range(1usize..=3),
                unsat: false,
            },
            Family::Chain => Knobs {
                machines,
                services: 0,
                depth: rng.gen_range(2usize..=6),
                width: 0,
                unsat: false,
            },
            Family::TypeForest => Knobs {
                machines,
                services: 0,
                depth: rng.gen_range(2usize..=4),
                width: rng.gen_range(1usize..=4),
                unsat: false,
            },
            Family::ThreeLevel => Knobs {
                machines,
                services: rng.gen_range(1usize..=3),
                depth: 0,
                width: 0,
                unsat: false,
            },
        }
    }

    /// Knobs drawn from a property-test choice stream, so a failing
    /// scenario shrinks toward fewer machines / services / tiers.
    fn drawn(family: Family, source: &mut Source<'_>) -> Knobs {
        let machines = 1 + source.draw(2) as usize;
        match family {
            Family::Mesh => Knobs {
                machines,
                services: 3 + source.draw(5) as usize,
                depth: 0,
                width: 0,
                unsat: false,
            },
            Family::DbTiers => Knobs {
                machines,
                services: 0,
                depth: 1 + source.draw(2) as usize,
                width: 1 + source.draw(2) as usize,
                unsat: false,
            },
            Family::Chain => Knobs {
                machines,
                services: 0,
                depth: 2 + source.draw(4) as usize,
                width: 0,
                unsat: false,
            },
            Family::TypeForest => Knobs {
                machines,
                services: 0,
                depth: 2 + source.draw(2) as usize,
                width: 1 + source.draw(3) as usize,
                unsat: false,
            },
            Family::ThreeLevel => Knobs {
                machines,
                services: 1 + source.draw(2) as usize,
                depth: 0,
                width: 0,
                unsat: false,
            },
        }
    }
}

/// What a scenario guarantees by construction — the independent oracle
/// the differential harness checks the pipeline against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Whether a full installation specification exists.
    pub satisfiable: bool,
    /// Exact size of every full spec (one instance chosen per
    /// dependency, machines included), when the construction pins it.
    pub spec_len: Option<usize>,
    /// Exact number of minimal configurations, when small enough to
    /// enumerate (`None` when unbounded or deliberately uncounted).
    pub configurations: Option<u64>,
    /// Exact size of every full spec for the reconfigured partial.
    pub reconfigure_len: Option<usize>,
    /// Every dependency resolves to exactly one candidate, so every
    /// correct solve produces the same, byte-identical spec.
    pub unique_model: bool,
}

/// One generated scenario: a well-formed universe, a partial install
/// spec, a reconfiguration step (a superset of the partial), and the
/// properties the pipeline must reproduce.
#[derive(Clone)]
pub struct Scenario {
    /// The topology family this scenario was drawn from.
    pub family: Family,
    /// The seed it was drawn with (reproduce with [`scenario`]).
    pub seed: u64,
    /// The knobs it was built with.
    pub knobs: Knobs,
    /// The generated resource universe (checked well-formed).
    pub universe: Universe,
    /// The partial installation specification to configure.
    pub partial: PartialInstallSpec,
    /// A second partial — `partial` plus one more pinned instance — for
    /// the reconfigure leg of the pipeline.
    pub reconfigure: PartialInstallSpec,
    /// The construction-time oracle.
    pub expected: Expected,
}

impl Scenario {
    /// A reproducible name: `family/seed{n}` (plus `/unsat` when
    /// deliberately unsolvable).
    pub fn name(&self) -> String {
        if self.knobs.unsat {
            format!("{}/seed{}/unsat", self.family, self.seed)
        } else {
            format!("{}/seed{}", self.family, self.seed)
        }
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name())
            .field("knobs", &self.knobs)
            .field("expected", &self.expected)
            .finish_non_exhaustive()
    }
}

/// Generates a scenario with seed-sampled knobs.
pub fn scenario(family: Family, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ family.salt());
    let knobs = Knobs::sampled(family, &mut rng);
    build(family, seed, knobs, &mut rng)
}

/// Generates a deliberately-UNSAT variant: the family topology plus a
/// planted exclusive-choice conflict, tagged `satisfiable: false`.
pub fn unsat_scenario(family: Family, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ family.salt());
    let mut knobs = Knobs::sampled(family, &mut rng);
    knobs.unsat = true;
    build(family, seed, knobs, &mut rng)
}

/// Generates a scenario with explicit knobs (the seed still drives any
/// in-family randomness, e.g. mesh placement and peer edges).
pub fn scenario_with(family: Family, seed: u64, knobs: Knobs) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ family.salt());
    build(family, seed, knobs, &mut rng)
}

fn build(family: Family, seed: u64, knobs: Knobs, rng: &mut StdRng) -> Scenario {
    let built = families::build(family, knobs, rng);
    let universe = engage_dsl::parse_universe(&built.dsl).unwrap_or_else(|e| {
        panic!(
            "testgen emitted unparseable DSL for {}/seed{seed}:\n{}\n---\n{}",
            family,
            e.render(&built.dsl),
            built.dsl
        )
    });
    // The generator's guarantee: every emitted universe is closed and
    // well-typed. A failure here is a bug in testgen, not in Engage.
    if let Err(errors) = universe.check() {
        panic!("testgen emitted an ill-formed universe for {family}/seed{seed}: {errors:?}");
    }
    if let Err(errors) = engage_model::check_declared_subtyping(&universe) {
        panic!("testgen emitted bad subtyping for {family}/seed{seed}: {errors:?}");
    }
    Scenario {
        family,
        seed,
        knobs,
        universe,
        partial: built.partial,
        reconfigure: built.reconfigure,
        expected: built.expected,
    }
}

/// A shrink-capable strategy over all families (satisfiable scenarios
/// only; lexicographically smaller choice streams give fewer machines,
/// services, and tiers).
pub fn scenario_strategy() -> ScenarioStrategy {
    ScenarioStrategy {
        families: Family::ALL.to_vec(),
    }
}

/// A shrink-capable strategy restricted to one family.
pub fn family_strategy(family: Family) -> ScenarioStrategy {
    ScenarioStrategy {
        families: vec![family],
    }
}

/// See [`scenario_strategy`].
#[derive(Debug, Clone)]
pub struct ScenarioStrategy {
    families: Vec<Family>,
}

impl Strategy for ScenarioStrategy {
    type Value = Scenario;

    fn generate(&self, source: &mut Source<'_>) -> Scenario {
        let family = self.families[source.draw(self.families.len() as u64 - 1) as usize];
        let knobs = Knobs::drawn(family, source);
        let seed = source.draw(u64::from(u16::MAX));
        scenario_with(family, seed, knobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scenario() {
        for family in Family::ALL {
            let a = scenario(family, 7);
            let b = scenario(family, 7);
            assert_eq!(a.knobs, b.knobs);
            assert_eq!(a.partial, b.partial);
            assert_eq!(
                engage_dsl::print_universe(&a.universe),
                engage_dsl::print_universe(&b.universe)
            );
        }
    }

    #[test]
    fn every_family_emits_well_formed_scenarios() {
        // `build` panics on ill-formed output; sweep a few seeds.
        for family in Family::ALL {
            for seed in 0..8 {
                let s = scenario(family, seed);
                assert!(s.expected.satisfiable);
                assert!(s.reconfigure.len() > s.partial.len(), "{}", s.name());
                let u = unsat_scenario(family, seed);
                assert!(!u.expected.satisfiable);
            }
        }
    }

    #[test]
    fn strategy_draws_every_family() {
        use engage_util::rand::{SeedableRng, StdRng};
        let strat = scenario_strategy();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let mut source = Source::random(&mut rng);
            seen.insert(strat.generate(&mut source).family);
        }
        assert_eq!(seen.len(), Family::ALL.len(), "{seen:?}");
    }
}
