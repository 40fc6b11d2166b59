//! Database instances: collections of relation instances.
//!
//! A [`Database`] plays two roles in the reproduction: it is a single peer's
//! local instance `r(P)`, and it is also the *global* instance `r̄` obtained
//! by taking the union of the instances of all peers whose schemas appear in
//! `R̄(P)` (Definition 3(b)). Both are just sets of relations; ownership of
//! relations by peers is tracked in `pdes-core`.

use crate::error::RelalgError;
use crate::relation::Relation;
use crate::schema::{RelationSchema, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Ground atom: a relation name plus a tuple. Used by [`crate::delta::Delta`]
/// (the paper's `Σ(r)` of ground atomic formulas) and throughout the repair
/// and solution machinery.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroundAtom {
    /// Relation name.
    pub relation: String,
    /// Tuple of constants.
    pub tuple: Tuple,
}

impl GroundAtom {
    /// Construct a ground atom.
    pub fn new(relation: impl Into<String>, tuple: Tuple) -> Self {
        GroundAtom {
            relation: relation.into(),
            tuple,
        }
    }
}

impl fmt::Display for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.relation, self.tuple)
    }
}

/// A database instance: relations keyed by name.
///
/// Relations are stored as `Arc`-shared *pages*: cloning a `Database` is a
/// shallow copy that shares every relation with the original, and mutation
/// goes through [`Arc::make_mut`], copying only the touched relation when
/// (and only when) it is still shared. This is what makes MVCC epoch
/// publication cheap — a new epoch clones the map, not the data — while
/// single-owner databases mutate in place exactly as before.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a database with one empty relation per schema entry.
    pub fn from_schema(schema: &Schema) -> Self {
        let mut db = Database::new();
        for r in schema.relations() {
            db.add_relation(Relation::new(r.clone()));
        }
        db
    }

    /// Add (or replace) a relation instance.
    pub fn add_relation(&mut self, relation: Relation) {
        self.relations
            .insert(relation.name().to_string(), Arc::new(relation));
    }

    /// Declare an empty relation for the given schema if absent.
    pub fn ensure_relation(&mut self, schema: &RelationSchema) {
        self.relations
            .entry(schema.name().to_string())
            .or_insert_with(|| Arc::new(Relation::new(schema.clone())));
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// Mutable lookup. Copies the relation page first if it is shared with
    /// another database (copy-on-write).
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// True if the database declares the relation.
    pub fn contains_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterate relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(Arc::as_ref)
    }

    /// Relation names in order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|s| s.as_str())
    }

    /// The schema induced by the declared relations.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for r in self.relations.values() {
            // Relations carry consistent schemas by construction.
            let _ = schema.add(r.schema().clone());
        }
        schema
    }

    /// Number of declared relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Insert a tuple into a relation. A no-op insert (tuple already
    /// present) never copies a shared page.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<bool> {
        let page = self
            .relations
            .get_mut(relation)
            .ok_or_else(|| RelalgError::UnknownRelation(relation.to_string()))?;
        if page.contains(&tuple) {
            // Already present (hence already validated): nothing to write.
            return Ok(false);
        }
        Arc::make_mut(page).insert(tuple)
    }

    /// Insert a ground atom, declaring the relation (with positional
    /// attributes) if it does not exist yet.
    pub fn insert_atom(&mut self, atom: &GroundAtom) -> Result<bool> {
        if !self.relations.contains_key(&atom.relation) {
            self.add_relation(Relation::new(RelationSchema::with_arity(
                atom.relation.clone(),
                atom.tuple.arity(),
            )));
        }
        self.insert(&atom.relation, atom.tuple.clone())
    }

    /// Remove a tuple from a relation. Returns `Ok(false)` if the tuple was
    /// absent; errors if the relation is unknown. A no-op removal never
    /// copies a shared page.
    pub fn remove(&mut self, relation: &str, tuple: &Tuple) -> Result<bool> {
        let page = self
            .relations
            .get_mut(relation)
            .ok_or_else(|| RelalgError::UnknownRelation(relation.to_string()))?;
        if !page.contains(tuple) {
            return Ok(false);
        }
        Ok(Arc::make_mut(page).remove(tuple))
    }

    /// Membership test for a ground atom (false if the relation is unknown).
    pub fn holds(&self, relation: &str, tuple: &Tuple) -> bool {
        self.relations
            .get(relation)
            .map(|r| r.contains(tuple))
            .unwrap_or(false)
    }

    /// `Σ(r)`: the set of ground atomic formulas true in this instance
    /// (Definition 1 preamble).
    pub fn ground_atoms(&self) -> BTreeSet<GroundAtom> {
        self.relations
            .values()
            .flat_map(|rel| {
                rel.iter()
                    .map(|t| GroundAtom::new(rel.name().to_string(), t.clone()))
            })
            .collect()
    }

    /// The active domain: every value appearing in some tuple.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.relations
            .values()
            .flat_map(|r| r.active_domain())
            .collect()
    }

    /// Restriction `r|S'` of the instance to a set of relation names
    /// (Definition 3(c)). Unknown names are ignored.
    pub fn restrict<'a, I: IntoIterator<Item = &'a str>>(&self, names: I) -> Database {
        let wanted: BTreeSet<&str> = names.into_iter().collect();
        let mut out = Database::new();
        for (name, rel) in &self.relations {
            if wanted.contains(name.as_str()) {
                // Share the page: a restriction is a read-only view until
                // someone writes through it.
                out.relations.insert(name.clone(), Arc::clone(rel));
            }
        }
        out
    }

    /// Union of two instances: relations present in either; tuple sets merged
    /// for relations present in both. Errors on schema conflicts.
    pub fn union(&self, other: &Database) -> Result<Database> {
        let mut out = self.clone();
        for rel in other.relations() {
            match out.relation_mut(rel.name()) {
                Some(existing) => {
                    if existing.schema() != rel.schema() {
                        return Err(RelalgError::SchemaConflict {
                            relation: rel.name().to_string(),
                            existing: existing.schema().to_string(),
                            new: rel.schema().to_string(),
                        });
                    }
                    for t in rel.iter() {
                        existing.insert(t.clone())?;
                    }
                }
                None => out.add_relation(rel.clone()),
            }
        }
        Ok(out)
    }

    /// Apply a set of insertions and deletions (used by the repair engine).
    /// Unknown relations in insertions are declared on the fly.
    pub fn apply_changes<'a, I, D>(&self, insertions: I, deletions: D) -> Result<Database>
    where
        I: IntoIterator<Item = &'a GroundAtom>,
        D: IntoIterator<Item = &'a GroundAtom>,
    {
        let mut out = self.clone();
        for atom in insertions {
            out.insert_atom(atom)?;
        }
        for atom in deletions {
            out.remove(&atom.relation, &atom.tuple)?;
        }
        Ok(out)
    }

    /// Apply insertions and deletions *in place*, reporting how many shared
    /// relation pages had to be copied before mutation. A page counts once
    /// no matter how many of its tuples changed; pages this database owns
    /// exclusively mutate in place and do not count. This is the
    /// copy-on-write cost an MVCC epoch publication pays (`mvcc.cow_pages`).
    pub fn apply_changes_cow<'a, I, D>(&mut self, insertions: I, deletions: D) -> Result<usize>
    where
        I: IntoIterator<Item = &'a GroundAtom>,
        D: IntoIterator<Item = &'a GroundAtom>,
    {
        let mut copied = BTreeSet::new();
        let mut track = |relations: &BTreeMap<String, Arc<Relation>>, name: &str| {
            if let Some(page) = relations.get(name) {
                if Arc::strong_count(page) > 1 {
                    copied.insert(name.to_string());
                }
            }
        };
        for atom in insertions {
            if !self.holds(&atom.relation, &atom.tuple) {
                track(&self.relations, &atom.relation);
            }
            self.insert_atom(atom)?;
        }
        for atom in deletions {
            if self.holds(&atom.relation, &atom.tuple) {
                track(&self.relations, &atom.relation);
            }
            self.remove(&atom.relation, &atom.tuple)?;
        }
        Ok(copied.len())
    }

    /// Attach every page's tuples as `table`'s symbol ids, interning every
    /// value ([`Relation::symbol_ids`] then hands them out). Pages that hold
    /// them already are left alone, shared or not; the others are copied
    /// first when shared.
    pub fn attach_symbols(&mut self, table: &crate::SymbolTable) {
        for page in self.relations.values_mut() {
            if page.attached(table).is_none() {
                Arc::make_mut(page).attach_symbols(table);
            }
        }
    }

    /// How many relation pages are currently shared with another database
    /// (an `Arc` strong count above 1). Diagnostic hook for the COW tests.
    pub fn shared_page_count(&self) -> usize {
        self.relations
            .values()
            .filter(|page| Arc::strong_count(page) > 1)
            .count()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.relations.values() {
            write!(f, "{rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("R1", &["x", "y"])));
        db.add_relation(Relation::new(RelationSchema::new("R2", &["x", "y"])));
        db.insert("R1", Tuple::strs(["a", "b"])).unwrap();
        db.insert("R1", Tuple::strs(["s", "t"])).unwrap();
        db.insert("R2", Tuple::strs(["c", "d"])).unwrap();
        db
    }

    #[test]
    fn insert_and_holds() {
        let db = sample();
        assert!(db.holds("R1", &Tuple::strs(["a", "b"])));
        assert!(!db.holds("R1", &Tuple::strs(["c", "d"])));
        assert!(!db.holds("R9", &Tuple::strs(["a", "b"])));
    }

    #[test]
    fn insert_unknown_relation_errors() {
        let mut db = sample();
        assert!(db.insert("R9", Tuple::strs(["a", "b"])).is_err());
    }

    #[test]
    fn insert_atom_declares_relation_on_demand() {
        let mut db = Database::new();
        let atom = GroundAtom::new("Fresh", Tuple::strs(["a"]));
        assert!(db.insert_atom(&atom).unwrap());
        assert!(db.holds("Fresh", &Tuple::strs(["a"])));
        assert_eq!(db.relation("Fresh").unwrap().arity(), 1);
    }

    #[test]
    fn ground_atoms_enumerates_sigma_r() {
        let db = sample();
        let atoms = db.ground_atoms();
        assert_eq!(atoms.len(), 3);
        assert!(atoms.contains(&GroundAtom::new("R2", Tuple::strs(["c", "d"]))));
    }

    #[test]
    fn active_domain_spans_relations() {
        let db = sample();
        let dom = db.active_domain();
        assert!(dom.contains(&Value::str("a")));
        assert!(dom.contains(&Value::str("d")));
        assert_eq!(dom.len(), 6);
    }

    #[test]
    fn restriction_matches_definition_3c() {
        let db = sample();
        let restricted = db.restrict(["R1"]);
        assert!(restricted.contains_relation("R1"));
        assert!(!restricted.contains_relation("R2"));
        assert_eq!(restricted.tuple_count(), 2);
    }

    #[test]
    fn union_merges_tuples() {
        let db = sample();
        let mut other = Database::new();
        other.add_relation(Relation::new(RelationSchema::new("R1", &["x", "y"])));
        other.insert("R1", Tuple::strs(["n", "m"])).unwrap();
        let merged = db.union(&other).unwrap();
        assert_eq!(merged.relation("R1").unwrap().len(), 3);
    }

    #[test]
    fn union_rejects_conflicting_schemas() {
        let db = sample();
        let mut other = Database::new();
        other.add_relation(Relation::new(RelationSchema::new("R1", &["only"])));
        assert!(db.union(&other).is_err());
    }

    #[test]
    fn apply_changes_inserts_and_deletes() {
        let db = sample();
        let ins = [GroundAtom::new("R1", Tuple::strs(["c", "d"]))];
        let del = [GroundAtom::new("R1", Tuple::strs(["a", "b"]))];
        let next = db.apply_changes(ins.iter(), del.iter()).unwrap();
        assert!(next.holds("R1", &Tuple::strs(["c", "d"])));
        assert!(!next.holds("R1", &Tuple::strs(["a", "b"])));
        // Original untouched.
        assert!(db.holds("R1", &Tuple::strs(["a", "b"])));
    }

    #[test]
    fn from_schema_declares_empty_relations() {
        let schema = Schema::from_relations([
            RelationSchema::new("A", &["x"]),
            RelationSchema::new("B", &["x", "y"]),
        ])
        .unwrap();
        let db = Database::from_schema(&schema);
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.tuple_count(), 0);
    }

    #[test]
    fn schema_round_trip() {
        let db = sample();
        let schema = db.schema();
        assert!(schema.contains("R1"));
        assert_eq!(schema.relation("R2").unwrap().arity(), 2);
    }

    #[test]
    fn clones_share_pages_until_written() {
        let base = sample();
        let mut copy = base.clone();
        // The clone shares every page with the original.
        assert_eq!(copy.shared_page_count(), 2);
        // Writing one relation copies exactly that page.
        copy.insert("R1", Tuple::strs(["new", "row"])).unwrap();
        assert_eq!(copy.shared_page_count(), 1);
        // The original never observes the write.
        assert!(!base.holds("R1", &Tuple::strs(["new", "row"])));
        assert!(copy.holds("R1", &Tuple::strs(["new", "row"])));
        // Untouched relations are still literally the same allocation.
        assert_eq!(base.relation("R2").unwrap(), copy.relation("R2").unwrap());
    }

    #[test]
    fn no_op_writes_do_not_copy_shared_pages() {
        let base = sample();
        let mut copy = base.clone();
        assert!(!copy.insert("R1", Tuple::strs(["a", "b"])).unwrap());
        assert!(!copy.remove("R1", &Tuple::strs(["zz", "zz"])).unwrap());
        assert_eq!(copy.shared_page_count(), 2, "no-ops must not unshare");
    }

    #[test]
    fn apply_changes_cow_counts_copied_pages_once() {
        let base = sample();
        let mut epoch = base.clone();
        let ins = [
            GroundAtom::new("R1", Tuple::strs(["n1", "m1"])),
            GroundAtom::new("R1", Tuple::strs(["n2", "m2"])),
        ];
        let del = [GroundAtom::new("R1", Tuple::strs(["a", "b"]))];
        // Three changes, one touched page: one copy.
        assert_eq!(epoch.apply_changes_cow(ins.iter(), del.iter()).unwrap(), 1);
        // A second application to the now-exclusive page copies nothing.
        let more = [GroundAtom::new("R1", Tuple::strs(["n3", "m3"]))];
        assert_eq!(epoch.apply_changes_cow(more.iter(), [].iter()).unwrap(), 0);
        // The base saw none of it.
        assert_eq!(base.relation("R1").unwrap().len(), 2);
        assert_eq!(epoch.relation("R1").unwrap().len(), 4);
    }
}
