//! Ground facts as tables of caller ids.
//!
//! A peer's specification program is fixed rules plus the peers' instances
//! as facts (Section 4.2), and only the facts change from query to query.
//! A caller that already holds its facts as ids — a store's symbol ids —
//! hands them to the grounder as [`FactTable`]s: one signed predicate, an
//! arity and flat rows of `u32` ids. The relevance analysis reads only each
//! table's predicate and arity
//! ([`crate::RelevanceAnalysis::analyze_with_facts`]). The id-native build
//! ([`crate::CompiledProgram::ground`]) takes text-canonical ids and a
//! [`ConstantIds`] and hashes no table constant's text; the string
//! reference ([`crate::IncrementalGround::from_tables`]) takes a function
//! from id to text and hashes each distinct id's text once.
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
        self.push_rows(row, 1);
    }

    /// Append `len` rows given end to end.
    ///
    /// # Panics
    ///
    /// Panics when `rows` does not hold `len` rows of the table's arity.
    pub fn push_rows(&mut self, rows: &[u32], len: usize) {
        assert_eq!(rows.len(), len * self.arity, "rows of {}", self.predicate);
        self.rows.extend_from_slice(rows);
        self.len += len;
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

/// The constants behind a caller's text-canonical fact-table ids: two ids
/// are equal exactly when their constants' texts are.
pub trait ConstantIds {
    /// The texts of `ids`, appended to `out` in order.
    fn texts(&self, ids: &[u32], out: &mut Vec<Arc<str>>);

    /// The id whose constant's text is `text`, if any: how a constant the
    /// program mentions meets the same constant in the tables.
    fn find(&self, text: &str) -> Option<u32>;
}

/// The facts of a text program as [`FactTable`]s whose ids index a local
/// list of the constants' distinct texts: the text path's id space.
#[derive(Debug, Clone, Default)]
pub(crate) struct TextFacts {
    pub(crate) tables: Vec<FactTable>,
    texts: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
    /// Per fact rule, in program order: its row's index in the tables'
    /// rows laid end to end.
    pub(crate) order: Vec<usize>,
}

impl TextFacts {
    /// Group the facts among `rules` by signed predicate and arity, tables
    /// and rows in program order. Facts must be ground (the callers check
    /// safety first).
    pub(crate) fn of(rules: &[Rule]) -> TextFacts {
        let mut facts = TextFacts::default();
        let mut table_of: HashMap<(&str, bool, usize), usize> = HashMap::new();
        let mut at: Vec<(usize, usize)> = Vec::new();
        let mut row: Vec<u32> = Vec::new();
        for rule in rules.iter().filter(|r| r.is_fact()) {
            let head = &rule.head[0];
            row.clear();
            for term in &head.terms {
                let Term::Const(c) = term else {
                    unreachable!("fact {rule} passed the safety check with a variable")
                };
                row.push(facts.id(c));
            }
            let tables = &mut facts.tables;
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
        let mut offsets = Vec::with_capacity(facts.tables.len());
        let mut rows = 0;
        for table in &facts.tables {
            offsets.push(rows);
            rows += table.len();
        }
        facts.order = at.iter().map(|&(t, r)| offsets[t] + r).collect();
        facts
    }

    /// The local id of a text, added if new.
    fn id(&mut self, text: &Arc<str>) -> u32 {
        let texts = &mut self.texts;
        *self.ids.entry(Arc::clone(text)).or_insert_with(|| {
            texts.push(Arc::clone(text));
            (texts.len() - 1) as u32
        })
    }

    /// Append `tables` of caller ids, read as local ids: `text` gives a
    /// caller id's text, which is hashed once per distinct id.
    pub(crate) fn absorb<'t>(
        &mut self,
        tables: impl IntoIterator<Item = &'t FactTable>,
        text: &dyn Fn(u32) -> Arc<str>,
    ) {
        let mut local: HashMap<u32, u32> = HashMap::new();
        for table in tables {
            let mut table = table.clone();
            for id in &mut table.rows {
                *id = *local.entry(*id).or_insert_with(|| self.id(&text(*id)));
            }
            self.tables.push(table);
        }
    }
}

impl ConstantIds for TextFacts {
    fn texts(&self, ids: &[u32], out: &mut Vec<Arc<str>>) {
        out.extend(ids.iter().map(|&id| Arc::clone(&self.texts[id as usize])));
    }

    fn find(&self, text: &str) -> Option<u32> {
        self.ids.get(text).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Atom, Program, Rule};

    /// Ids that index a list of distinct texts.
    impl ConstantIds for Vec<Arc<str>> {
        fn texts(&self, ids: &[u32], out: &mut Vec<Arc<str>>) {
            out.extend(ids.iter().map(|&id| Arc::clone(&self[id as usize])));
        }

        fn find(&self, text: &str) -> Option<u32> {
            let at = self.iter().position(|t| **t == *text)?;
            Some(at as u32)
        }
    }

    #[test]
    fn tables_hold_flat_rows() {
        let mut table = FactTable::new("r", 2);
        assert!(table.is_empty());
        table.push(&[3, 4]);
        table.push(&[5, 3]);
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows().collect::<Vec<_>>(), [&[3, 4][..], &[5, 3]]);
        table.push_rows(&[1, 2, 7, 8], 2);
        assert_eq!(table.len(), 4);
        assert_eq!(table.row(3), [7, 8]);
        assert_eq!(table.signed_predicate(), "r");
        assert_eq!(table.strongly_negated().signed_predicate(), "-r");
        let mut nullary = FactTable::new("p", 0);
        nullary.push(&[]);
        assert_eq!(nullary.rows().count(), 1);
        nullary.push_rows(&[], 2);
        assert_eq!(nullary.rows().count(), 3);
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
            {
                let mut texts = Vec::new();
                facts.texts(row, &mut texts);
                texts
            },
            [Arc::from("b"), Arc::from("b")]
        );
    }
}
