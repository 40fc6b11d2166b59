//! A relation instance: a finite, ordered set of tuples over a schema.

use crate::error::RelalgError;
use crate::intern::SymbolTable;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A finite relation instance.
///
/// Tuples are kept in a `BTreeSet` so iteration order is deterministic and
/// independent of insertion order; this keeps repairs, solutions and stable
/// models reproducible.
///
/// A page a store serves also carries its tuples as the store's symbol ids
/// ([`Relation::symbol_ids`]), so readers that work on ids never intern
/// the page's values again. Equality ignores them.
#[derive(Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: RelationSchema,
    tuples: BTreeSet<Tuple>,
    /// The tuples as one table's ids, attached by
    /// [`Relation::attach_symbols`] and dropped by any change of the
    /// tuples. Copies of the page share them.
    symbols: Option<Arc<SymbolRows>>,
}

/// A page's tuples as one [`SymbolTable`]'s ids, row after row in tuple
/// order.
#[derive(Debug)]
struct SymbolRows {
    /// The serial of the table that minted the ids.
    table: u64,
    ids: Vec<u32>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl Relation {
    /// Create an empty relation over the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: BTreeSet::new(),
            symbols: None,
        }
    }

    /// Create a relation and populate it with tuples, validating arities.
    pub fn with_tuples<I: IntoIterator<Item = Tuple>>(
        schema: RelationSchema,
        tuples: I,
    ) -> Result<Self> {
        let mut rel = Relation::new(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple. Returns `Ok(true)` if the tuple was new.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.arity() {
            return Err(RelalgError::ArityMismatch {
                relation: self.name().to_string(),
                expected: self.arity(),
                found: tuple.arity(),
            });
        }
        let inserted = self.tuples.insert(tuple);
        if inserted {
            self.symbols = None;
        }
        Ok(inserted)
    }

    /// Remove a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let removed = self.tuples.remove(tuple);
        if removed {
            self.symbols = None;
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterate tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Clone the tuple set.
    pub fn tuples(&self) -> &BTreeSet<Tuple> {
        &self.tuples
    }

    /// All values appearing in this relation (its contribution to the active
    /// domain).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.tuples.iter().flat_map(|t| t.iter().cloned()).collect()
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.symbols = None;
    }

    /// Replace the contents of this relation with the given tuples,
    /// validating arities.
    pub fn replace_with<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) -> Result<()> {
        let mut next = BTreeSet::new();
        for t in tuples {
            if t.arity() != self.arity() {
                return Err(RelalgError::ArityMismatch {
                    relation: self.name().to_string(),
                    expected: self.arity(),
                    found: t.arity(),
                });
            }
            next.insert(t);
        }
        self.tuples = next;
        self.symbols = None;
        Ok(())
    }

    /// Attach the tuples as `table`'s symbol ids ([`Relation::symbol_ids`]),
    /// interning every value.
    pub(crate) fn attach_symbols(&mut self, table: &SymbolTable) {
        let ids = self.symbol_ids(table).into_owned();
        self.symbols = Some(Arc::new(SymbolRows {
            table: table.serial(),
            ids,
        }));
    }

    /// The attached ids, if `table` minted them.
    pub(crate) fn attached(&self, table: &SymbolTable) -> Option<&[u32]> {
        let rows = self.symbols.as_ref()?;
        (rows.table == table.serial()).then_some(&rows.ids[..])
    }

    /// The tuples as `table`'s symbol ids, row after row in tuple order:
    /// the ids a store attached to the page
    /// ([`crate::Database::attach_symbols`]), or, when the page holds none
    /// of `table`'s, the values interned now.
    pub fn symbol_ids(&self, table: &SymbolTable) -> Cow<'_, [u32]> {
        match self.attached(table) {
            Some(ids) => Cow::Borrowed(ids),
            None => {
                let mut ids = Vec::with_capacity(self.len() * self.arity());
                table.intern_rows(&self.tuples, &mut ids);
                Cow::Owned(ids)
            }
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::collections::btree_set::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;

    fn schema() -> RelationSchema {
        RelationSchema::new("R", &["x", "y"])
    }

    #[test]
    fn insert_validates_arity() {
        let mut r = Relation::new(schema());
        assert!(r.insert(Tuple::strs(["a", "b"])).unwrap());
        assert!(!r.insert(Tuple::strs(["a", "b"])).unwrap());
        let err = r.insert(Tuple::strs(["a"])).unwrap_err();
        assert!(matches!(
            err,
            RelalgError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            }
        ));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn with_tuples_builds_and_validates() {
        let r = Relation::with_tuples(schema(), [Tuple::strs(["a", "b"]), Tuple::strs(["c", "d"])])
            .unwrap();
        assert_eq!(r.len(), 2);
        assert!(Relation::with_tuples(schema(), [Tuple::strs(["a"])]).is_err());
    }

    #[test]
    fn remove_and_contains() {
        let mut r = Relation::new(schema());
        let t = Tuple::strs(["a", "b"]);
        r.insert(t.clone()).unwrap();
        assert!(r.contains(&t));
        assert!(r.remove(&t));
        assert!(!r.remove(&t));
        assert!(r.is_empty());
    }

    #[test]
    fn active_domain_collects_all_values() {
        let r = Relation::with_tuples(schema(), [Tuple::strs(["a", "b"]), Tuple::strs(["b", "c"])])
            .unwrap();
        let dom = r.active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::str("c")));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = Relation::new(schema());
        r.insert(Tuple::strs(["z", "z"])).unwrap();
        r.insert(Tuple::strs(["a", "a"])).unwrap();
        let tuples: Vec<&Tuple> = r.iter().collect();
        assert_eq!(tuples[0], &Tuple::strs(["a", "a"]));
    }

    #[test]
    fn attached_symbol_ids_survive_copies_and_drop_on_change() {
        let table = SymbolTable::new();
        let mut r =
            Relation::with_tuples(schema(), [Tuple::strs(["b", "a"]), Tuple::strs(["a", "c"])])
                .unwrap();
        r.attach_symbols(&table);
        // Values are minted in tuple order: (a, c) before (b, a).
        let (a, c, b) = (0, 1, 2);
        assert_eq!(table.len(), 3);
        assert_eq!(*r.symbol_ids(&table), [a, c, b, a]);
        assert!(matches!(r.symbol_ids(&table), Cow::Borrowed(_)));
        let copy = r.clone();
        assert!(matches!(copy.symbol_ids(&table), Cow::Borrowed(_)));
        // Another table's ids are interned on demand, never attached.
        let other = SymbolTable::new();
        assert!(matches!(r.symbol_ids(&other), Cow::Owned(_)));
        // A no-op change keeps the ids; a real one drops them.
        assert!(!r.insert(Tuple::strs(["a", "c"])).unwrap());
        assert!(matches!(r.symbol_ids(&table), Cow::Borrowed(_)));
        assert!(r.remove(&Tuple::strs(["a", "c"])));
        assert!(matches!(r.symbol_ids(&table), Cow::Owned(_)));
        assert_eq!(*r.symbol_ids(&table), [b, a]);
        // Equality reads the tuples only.
        let fresh = Relation::with_tuples(schema(), [Tuple::strs(["b", "a"])]).unwrap();
        assert_eq!(r, fresh);
    }

    #[test]
    fn replace_with_swaps_contents() {
        let mut r = Relation::with_tuples(schema(), [Tuple::strs(["a", "b"])]).unwrap();
        r.replace_with([Tuple::strs(["x", "y"]), Tuple::strs(["u", "v"])])
            .unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&Tuple::strs(["a", "b"])));
        assert!(r.replace_with([Tuple::strs(["only-one"])]).is_err());
    }
}
