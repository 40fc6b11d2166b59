//! World-set oracle: `WorldSet::certain` — the core-first certain-answer
//! check — must equal the full per-world intersection.
//!
//! Seeded random world sets over `R`, `S` and `T` cover no world, one
//! world, nested worlds, pairwise disjoint worlds, a world equal to the
//! core, overlapping worlds and repeated worlds. On each set:
//!
//! * the split round-trips: the set's worlds, expanded to `core ⊎ deltaᵢ`,
//!   are the distinct input worlds by ascending size, and the core is
//!   their intersection;
//! * on random plans — positive ones, and the negated ones of the plan
//!   oracle's generator (`tests/support/plan_gen.rs`) — `certain`, run on
//!   pools of 1 and 3 workers, equals the intersection of the plan's
//!   answers over every expanded world and of the `QueryEvaluator`'s.
//!
//! At the engine level, the ASP strategy answers like the naive one on
//! every peer of the small same-trust star (`wide`), whose hub slice has
//! several worlds.

#[path = "support/plan_gen.rs"]
mod plan_gen;

use p2p_data_exchange::{vars, ExecConfig, Executor, QueryEngine, Strategy};
use plan_gen::{random_database, Gen, Rng, DOMAIN, RELATIONS};
use relalg::query::{CompareOp, Formula, QueryEvaluator, Term};
use relalg::{
    ColumnarDatabase, CqPlan, Database, Relation, RelationSchema, SymbolTable, Tuple, WorldSet,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

const SETS: u64 = 240;
const QUERIES_PER_SET: usize = 6;

/// A world's facts: `(relation, tuple)` pairs.
type Facts = BTreeSet<(String, Tuple)>;

/// The world-set shapes the oracle must see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Empty,
    Single,
    Nested,
    Disjoint,
    CoreWorld,
    Overlapping,
}

const KINDS: [Kind; 6] = [
    Kind::Empty,
    Kind::Single,
    Kind::Nested,
    Kind::Disjoint,
    Kind::CoreWorld,
    Kind::Overlapping,
];

fn facts(db: &Database) -> Facts {
    db.ground_atoms()
        .into_iter()
        .map(|atom| (atom.relation.to_string(), atom.tuple))
        .collect()
}

/// A world as a database declaring every relation.
fn database(world: &Facts) -> Database {
    let mut db = Database::new();
    for (name, arity) in RELATIONS {
        db.add_relation(Relation::new(RelationSchema::with_arity(name, arity)));
    }
    for (relation, tuple) in world {
        db.insert(relation, tuple.clone()).unwrap();
    }
    db
}

fn random_facts(rng: &mut Rng) -> Facts {
    facts(&random_database(rng))
}

/// Random worlds of one shape, sometimes with a world repeated.
fn worlds(kind: Kind, rng: &mut Rng) -> Vec<Facts> {
    let count = 2 + rng.below(4);
    let mut worlds: Vec<Facts> = match kind {
        Kind::Empty => Vec::new(),
        Kind::Single => vec![random_facts(rng)],
        Kind::Nested => {
            let mut world = random_facts(rng);
            let mut chain = Vec::new();
            for _ in 0..count {
                chain.push(world.clone());
                world.extend(random_facts(rng));
            }
            if rng.below(2) == 0 {
                chain.reverse();
            }
            chain
        }
        Kind::Disjoint => {
            let mut parts = vec![Facts::new(); count];
            for _ in 0..2 {
                for fact in random_facts(rng) {
                    parts[rng.below(count)].insert(fact);
                }
            }
            parts
        }
        Kind::CoreWorld => {
            let core = random_facts(rng);
            let mut worlds: Vec<Facts> = (1..count)
                .map(|_| core.iter().cloned().chain(random_facts(rng)).collect())
                .collect();
            worlds.insert(rng.below(count), core);
            worlds
        }
        Kind::Overlapping => {
            let base = random_facts(rng);
            (0..count)
                .map(|_| {
                    let mut world: Facts =
                        base.iter().filter(|_| rng.below(4) > 0).cloned().collect();
                    for fact in random_facts(rng) {
                        if rng.below(2) == 0 {
                            world.insert(fact);
                        }
                    }
                    world
                })
                .collect()
        }
    };
    if !worlds.is_empty() && rng.below(3) == 0 {
        let again = worlds[rng.below(worlds.len())].clone();
        worlds.insert(rng.below(worlds.len() + 1), again);
    }
    worlds
}

/// Build the set from the worlds' id rows, one list per relation.
fn world_set(worlds: &[Facts], symbols: &Arc<SymbolTable>) -> WorldSet {
    let rows = worlds.iter().map(|world| {
        RELATIONS
            .iter()
            .map(|(name, _)| {
                world
                    .iter()
                    .filter(|(relation, _)| relation == name)
                    .map(|(_, tuple)| tuple.iter().map(|v| symbols.intern(v).id()).collect())
                    .collect::<Vec<Vec<u32>>>()
            })
            .collect()
    });
    WorldSet::from_id_rows(&RELATIONS, rows, symbols).unwrap()
}

/// Check the split: the expanded worlds are the distinct inputs by
/// ascending size, and the core is their intersection. Returns the
/// distinct worlds.
fn check_split(set: &WorldSet, worlds: &[Facts], symbols: &Arc<SymbolTable>) -> Vec<Facts> {
    let mut distinct: Vec<Facts> = Vec::new();
    for world in worlds {
        if !distinct.contains(world) {
            distinct.push(world.clone());
        }
    }
    assert_eq!(set.len(), distinct.len());
    let expanded: Vec<Facts> = (0..set.len()).map(|i| facts(&set.world(i))).collect();
    assert_eq!(
        expanded.iter().collect::<BTreeSet<_>>(),
        distinct.iter().collect::<BTreeSet<_>>()
    );
    assert!(expanded.windows(2).all(|w| w[0].len() <= w[1].len()));
    let core = distinct
        .iter()
        .cloned()
        .reduce(|a, b| a.intersection(&b).cloned().collect())
        .unwrap_or_default();
    assert_eq!(facts(&set.core().to_database()), core);
    if let [world] = distinct.as_slice() {
        let alone = ColumnarDatabase::from_database(&database(world), symbols);
        assert_eq!(set.exact_bytes(), alone.exact_bytes());
    }
    distinct
}

/// Random plans with no negated sub-block: scans, projections, joins,
/// unions, constants and (negated) comparisons.
fn positive_query(rng: &mut Rng) -> (Formula, Vec<String>) {
    let atom = |relation: &str, terms: &[&str]| Formula::atom(relation, terms.to_vec());
    let c = Term::cnst(*rng.pick(&DOMAIN));
    let (query, free): (Formula, &[&str]) = match rng.below(8) {
        0 => (atom("R", &["X", "Y"]), &["X", "Y"]),
        1 => (Formula::exists(vec!["Y"], atom("S", &["X", "Y"])), &["X"]),
        2 => (
            Formula::and(vec![atom("R", &["X", "Y"]), atom("S", &["Y", "Z"])]),
            &["X", "Z"],
        ),
        3 => (
            Formula::and(vec![atom("R", &["X", "Y"]), atom("R", &["X", "Z"])]),
            &["X", "Y", "Z"],
        ),
        4 => (
            Formula::Or(vec![atom("R", &["X", "Y"]), atom("S", &["Y", "X"])]),
            &["X", "Y"],
        ),
        5 => (
            Formula::and(vec![
                atom("R", &["X", "Y"]),
                Formula::compare(CompareOp::Neq, Term::var("X"), Term::var("Y")),
            ]),
            &["X", "Y"],
        ),
        6 => (
            Formula::and(vec![
                atom("T", &["X"]),
                Formula::atom_terms("S", vec![Term::var("X"), c.clone()]),
                Formula::not(Formula::compare(CompareOp::Lt, Term::var("X"), c)),
            ]),
            &["X"],
        ),
        _ => (
            Formula::exists(
                vec!["Y"],
                Formula::Or(vec![
                    Formula::and(vec![atom("R", &["X", "Y"]), atom("T", &["Y"])]),
                    atom("S", &["X", "Y"]),
                ]),
            ),
            &["X"],
        ),
    };
    (query, free.iter().map(|v| v.to_string()).collect())
}

fn meet(sets: impl Iterator<Item = BTreeSet<Tuple>>) -> BTreeSet<Tuple> {
    sets.reduce(|a, b| a.intersection(&b).cloned().collect())
        .unwrap_or_default()
}

/// What the oracle saw, for its coverage checks.
#[derive(Default)]
struct Seen {
    kinds: BTreeMap<Kind, usize>,
    /// Positive plans on several worlds that evaluated fewer worlds than
    /// the set has.
    skipped: usize,
    /// Positive plans on several worlds with a certain answer from the core
    /// and one only a full check finds.
    core_and_candidates: usize,
    /// Negated plans on several worlds whose certain answers differ from
    /// their answers over the core.
    negated_core_differs: usize,
}

/// `certain` on pools of 1 and 3 workers must equal both per-world
/// intersections. Returns the answers and how many worlds were checked.
fn check_certain(
    set: &WorldSet,
    distinct: &[Facts],
    query: &Formula,
    free: &[String],
    symbols: &Arc<SymbolTable>,
) -> (BTreeSet<Tuple>, usize) {
    let plan = CqPlan::compile(query, free).unwrap_or_else(|| panic!("{query} is in the fragment"));
    let by_plan = meet(distinct.iter().map(|world| {
        let columnar = ColumnarDatabase::from_database(&database(world), symbols);
        CqPlan::materialize(&plan.answers(&columnar).unwrap(), symbols)
    }));
    let by_evaluator = meet(distinct.iter().map(|world| {
        QueryEvaluator::new(&database(world))
            .answers(query, free)
            .unwrap()
    }));
    assert_eq!(by_plan, by_evaluator, "{query}");
    let mut checked = None;
    for workers in [1, 3] {
        let exec = Executor::new(ExecConfig::with_workers(workers));
        let (rows, count) = set
            .certain(&plan, |items, answers| exec.try_intersect(items, answers))
            .unwrap();
        assert_eq!(
            CqPlan::materialize(&rows, symbols),
            by_evaluator,
            "{query} over {free:?}, {workers} workers, {} worlds",
            set.len()
        );
        assert!(count <= set.len() + 1, "{query}: {count} checks");
        if set.len() <= 1 {
            assert_eq!(count, set.len(), "{query}");
        }
        checked = Some(count);
    }
    (by_evaluator, checked.expect("two pool sizes ran"))
}

#[test]
fn certain_answers_match_the_per_world_intersection() {
    let mut seen = Seen::default();
    for seed in 0..SETS {
        let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
        let kind = KINDS[seed as usize % KINDS.len()];
        let worlds = worlds(kind, &mut rng);
        let symbols = Arc::new(SymbolTable::new());
        let set = world_set(&worlds, &symbols);
        let distinct = check_split(&set, &worlds, &symbols);
        *seen.kinds.entry(kind).or_default() += 1;
        let core = facts(&set.core().to_database());
        let over_core = |query: &Formula, free: &[String]| {
            QueryEvaluator::new(&database(&core))
                .answers(query, free)
                .unwrap()
        };
        for _ in 0..QUERIES_PER_SET {
            let (query, free) = positive_query(&mut rng);
            let (certain, checked) = check_certain(&set, &distinct, &query, &free, &symbols);
            if set.len() > 1 {
                seen.skipped += usize::from(checked < set.len());
                let from_core = over_core(&query, &free);
                if !from_core.is_empty() && !from_core.is_superset(&certain) {
                    seen.core_and_candidates += 1;
                }
            }
            let mut gen = Gen {
                rng: &mut rng,
                shapes: Vec::new(),
                fresh: 0,
            };
            let (query, free) = gen.query();
            let (certain, _) = check_certain(&set, &distinct, &query, &free, &symbols);
            if set.len() > 1 && over_core(&query, &free) != certain {
                seen.negated_core_differs += 1;
            }
        }
    }
    for kind in KINDS {
        assert!(
            seen.kinds.get(&kind).copied().unwrap_or(0) >= 20,
            "{kind:?}"
        );
    }
    assert!(
        seen.skipped >= 100,
        "only {} plans skipped a world",
        seen.skipped
    );
    assert!(
        seen.core_and_candidates >= 20,
        "only {} plans needed both the core and a candidate check",
        seen.core_and_candidates
    );
    assert!(
        seen.negated_core_differs >= 20,
        "only {} negated plans differ from their core answers",
        seen.negated_core_differs
    );
}

#[test]
fn asp_answers_like_naive_on_the_wide_system() {
    let system = generate(&WorkloadSpec {
        peers: 3,
        tuples_per_relation: 2,
        violations_per_dec: 1,
        topology: Topology::Star,
        trust_mix: TrustMix::AllSame,
        key_constraint_percent: 50,
        seed: 42,
    })
    .unwrap()
    .system;
    let engine = QueryEngine::new(system.clone());
    let mut several_worlds = 0;
    for peer in system.peer_ids() {
        let relation = system.peer(peer).unwrap().relation_names();
        let relation = relation.first().expect("a generated peer owns a relation");
        let scan = Formula::atom(relation, vec!["X", "Y"]);
        let queries = [
            (scan.clone(), vars(&["X", "Y"])),
            (Formula::exists(vec!["Y"], scan.clone()), vars(&["X"])),
            (
                Formula::and(vec![scan.clone(), Formula::atom(relation, vec!["X", "Z"])]),
                vars(&["X", "Y", "Z"]),
            ),
        ];
        for (query, free) in &queries {
            let asp = engine
                .answer_with(Strategy::Asp, peer, query, free)
                .unwrap();
            let naive = engine
                .answer_with(Strategy::Naive, peer, query, free)
                .unwrap();
            assert_eq!(asp.tuples, naive.tuples, "{peer}: {query}");
            several_worlds += usize::from(asp.stats.worlds > 1);
        }
        // The ASP translation takes positive existential queries only, so
        // the negated query checks the naive strategy against the
        // evaluator run on every solution restricted to the peer.
        let negated = Formula::and(vec![
            scan.clone(),
            Formula::not(Formula::atom(relation, vec!["Y", "X"])),
        ]);
        let free = vars(&["X", "Y"]);
        assert!(engine
            .answer_with(Strategy::Asp, peer, &negated, &free)
            .is_err());
        let naive = engine
            .answer_with(Strategy::Naive, peer, &negated, &free)
            .unwrap();
        let solutions = p2p_data_exchange::core::solution::solutions_for(
            &system,
            peer,
            engine.solution_options(),
        )
        .unwrap();
        let want = meet(solutions.iter().map(|solution| {
            let world = system.restrict_to_peer(&solution.database, peer).unwrap();
            QueryEvaluator::new(&world)
                .answers(&negated, &free)
                .unwrap()
        }));
        assert_eq!(naive.tuples, want, "{peer}: {negated}");
    }
    assert!(several_worlds >= 3, "the hub slice has several worlds");
}
