//! Ground facts as tables of caller ids.
//!
//! A peer's specification program is fixed rules plus the peers' instances
//! as facts (Section 4.2), and only the facts change from query to query.
//! A caller that already holds its facts as ids — a store's symbol ids —
//! hands them to the grounder as [`FactTable`]s: one signed predicate, an
//! arity and flat rows of `u32` ids, read together with a caller function
//! from id to constant text. The grounder hashes each distinct id's text
//! once ([`crate::IncrementalGround::from_tables`]); the relevance analysis
//! reads only each table's predicate and arity
//! ([`crate::RelevanceAnalysis::analyze_with_facts`]).
//!
//! A text [`crate::Program`]'s own facts are grouped into the same tables
//! (`TextFacts`), so text programs and id tables share one grounding
//! build.

use crate::syntax::{Rule, Term};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// The ground facts of one signed predicate and arity, as rows of caller
/// ids. The ids mean nothing to the table: whoever grounds it supplies the
/// function from id to constant text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactTable {
    predicate: String,
    strong_neg: bool,
    arity: usize,
    /// `rows[i * arity..(i + 1) * arity]` is row `i`.
    rows: Vec<u32>,
    len: usize,
}

impl FactTable {
    /// An empty table of `predicate` facts with `arity` arguments.
    pub fn new(predicate: impl Into<String>, arity: usize) -> Self {
        FactTable {
            predicate: predicate.into(),
            strong_neg: false,
            arity,
            rows: Vec::new(),
            len: 0,
        }
    }

    /// The same table over the classically negated predicate `¬p`.
    pub fn strongly_negated(mut self) -> Self {
        self.strong_neg = true;
        self
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics when the row's length is not the table's arity.
    pub fn push(&mut self, row: &[u32]) {
        assert_eq!(row.len(), self.arity, "row arity of {}", self.predicate);
        self.rows.extend_from_slice(row);
        self.len += 1;
    }

    /// The predicate name (without the `-` of a negated predicate).
    pub fn predicate(&self) -> &str {
        &self.predicate
    }

    /// Is the predicate classically negated?
    pub fn strong_neg(&self) -> bool {
        self.strong_neg
    }

    /// The signed predicate key (`p`, or `-p` for `¬p`), matching
    /// [`crate::Atom::signed_predicate`].
    pub fn signed_predicate(&self) -> Cow<'_, str> {
        if self.strong_neg {
            Cow::Owned(format!("-{}", self.predicate))
        } else {
            Cow::Borrowed(&self.predicate)
        }
    }

    /// Arguments per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`'s ids.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.arity..(i + 1) * self.arity]
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }
}

/// The text function of an empty table list: never called.
pub(crate) fn no_tables(id: u32) -> Arc<str> {
    unreachable!("no fact table holds id {id}")
}

/// The facts of a text program as [`FactTable`]s whose ids index a local
/// list of the constants' texts.
pub(crate) struct TextFacts {
    pub(crate) tables: Vec<FactTable>,
    texts: Vec<Arc<str>>,
    /// Per fact rule, in program order: its row's index in the tables'
    /// rows laid end to end.
    pub(crate) order: Vec<usize>,
}

impl TextFacts {
    /// Group the facts among `rules` by signed predicate and arity, tables
    /// and rows in program order. Facts must be ground (the callers check
    /// safety first).
    pub(crate) fn of(rules: &[Rule]) -> TextFacts {
        let mut tables: Vec<FactTable> = Vec::new();
        let mut table_of: HashMap<(&str, bool, usize), usize> = HashMap::new();
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut texts: Vec<Arc<str>> = Vec::new();
        let mut at: Vec<(usize, usize)> = Vec::new();
        let mut row: Vec<u32> = Vec::new();
        for rule in rules.iter().filter(|r| r.is_fact()) {
            let head = &rule.head[0];
            row.clear();
            for term in &head.terms {
                let Term::Const(c) = term else {
                    unreachable!("fact {rule} passed the safety check with a variable")
                };
                let id = *ids.entry(c).or_insert_with(|| {
                    texts.push(Arc::clone(c));
                    (texts.len() - 1) as u32
                });
                row.push(id);
            }
            let key = (head.predicate.as_str(), head.strong_neg, row.len());
            let table = *table_of.entry(key).or_insert_with(|| {
                let table = FactTable::new(head.predicate.clone(), row.len());
                tables.push(if head.strong_neg {
                    table.strongly_negated()
                } else {
                    table
                });
                tables.len() - 1
            });
            at.push((table, tables[table].len()));
            tables[table].push(&row);
        }
        let mut offsets = Vec::with_capacity(tables.len());
        let mut rows = 0;
        for table in &tables {
            offsets.push(rows);
            rows += table.len();
        }
        TextFacts {
            order: at.iter().map(|&(t, r)| offsets[t] + r).collect(),
            tables,
            texts,
        }
    }

    /// The text of a local id.
    pub(crate) fn text(&self, id: u32) -> Arc<str> {
        Arc::clone(&self.texts[id as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Atom, Program, Rule};

    #[test]
    fn tables_hold_flat_rows() {
        let mut table = FactTable::new("r", 2);
        assert!(table.is_empty());
        table.push(&[3, 4]);
        table.push(&[5, 3]);
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows().collect::<Vec<_>>(), [&[3, 4][..], &[5, 3]]);
        assert_eq!(table.signed_predicate(), "r");
        assert_eq!(table.strongly_negated().signed_predicate(), "-r");
        let mut nullary = FactTable::new("p", 0);
        nullary.push(&[]);
        assert_eq!(nullary.rows().count(), 1);
    }

    #[test]
    fn text_facts_group_by_signed_predicate_and_arity() {
        let mut program = Program::new();
        program.add_fact(Atom::new("r", &["a", "b"]));
        program.add_rule(Rule::new(
            vec![Atom::new("s", &["X"])],
            vec![crate::BodyItem::Pos(Atom::new("r", &["X", "Y"]))],
        ));
        program.add_fact(Atom::new("r", &["a"]));
        program.add_fact(Atom::new("r", &["b", "a"]).strongly_negated());
        program.add_fact(Atom::new("r", &["b", "b"]));
        let facts = TextFacts::of(program.rules());
        let shapes: Vec<(String, usize, usize)> = facts
            .tables
            .iter()
            .map(|t| (t.signed_predicate().into_owned(), t.arity(), t.len()))
            .collect();
        assert_eq!(
            shapes,
            [
                ("r".to_string(), 2, 2),
                ("r".to_string(), 1, 1),
                ("-r".to_string(), 2, 1)
            ]
        );
        // Program order of the facts, as indexes into the rows end to end.
        assert_eq!(facts.order, [0, 2, 3, 1]);
        let row = facts.tables[0].row(1);
        assert_eq!(
            row.iter().map(|&id| facts.text(id)).collect::<Vec<_>>(),
            [Arc::from("b"), Arc::from("b")]
        );
    }
}
