//! Symbol interning: the front door of the columnar data plane.
//!
//! The paper's semantics never needs late-bound symbols — the shared domain
//! and every relation/attribute name are fixed once the `P2PSystem` is
//! built — so all layers above `relalg` can trade boxed [`Value`]s and
//! `String` keys for dense `u32` [`Symbol`]s minted here. A [`SymbolTable`]
//! is built at store construction, extended (append-only) as commits
//! introduce new constants, and shared by `Arc` with every snapshot pinned
//! from the store: a symbol minted once means the same value forever, so
//! readers never need to re-intern.
//!
//! Two properties the rest of the stack relies on:
//!
//! * **Round-tripping** — `table.intern(&table.resolve(s)) == s` for every
//!   symbol `s` the table has minted, by construction (interning is a
//!   bijection between minted symbols and distinct values).
//! * **Append-only** — symbols are never re-assigned or garbage collected;
//!   a `u32` id embedded in a cached columnar block stays valid for the
//!   lifetime of the table.
//!
//! The table also renders each symbol's text once, when the symbol is
//! minted ([`SymbolTable::resolve_text`]), and sorts symbols into *text
//! classes*: the symbols whose values render alike (the integer `1` and the
//! string `"1"`). A logic program sees constants only as text, so the ASP
//! path works on text-canonical ids: [`SymbolTable::canonicalize`] maps
//! each symbol to its class's first-minted symbol, which never changes, and
//! [`SymbolTable::smallest_alike`] maps it to the class's smallest
//! [`Value`], which is what a constant decodes to whatever the interning
//! order, so every table over the same values agrees.
//! [`SymbolTable::lookup_text`] finds that smallest symbol by its text, for
//! constants a program introduces.

use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A dense interned id for one distinct [`Value`] (or name) of a
/// [`SymbolTable`].
///
/// `Symbol`s are plain `u32`s: cheap to copy, hash and compare, and small
/// enough that a relation column packs sixteen of them per cache line.
/// Symbols from *different* tables are not comparable; the stack avoids
/// confusion by owning exactly one table per store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw id (an index into the owning table).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Reconstruct a symbol from a raw id previously obtained via
    /// [`Symbol::id`]. The caller is responsible for pairing it with the
    /// table that minted the id.
    pub fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Interior state guarded by the table's lock.
struct Inner {
    /// Symbol id → value (the resolve direction).
    values: Vec<Value>,
    /// Symbol id → rendered text.
    texts: Vec<Arc<str>>,
    /// Value → symbol id (the intern direction).
    ids: HashMap<Value, u32>,
    /// Rendered text → the first symbol minted with that text.
    by_text: HashMap<Arc<str>, u32>,
    /// Symbol id → the first symbol minted with the same text (its class).
    canonical: Vec<u32>,
    /// At a class's first symbol: the class member with the smallest value.
    smallest: Vec<u32>,
}

/// Source of [`SymbolTable`] serial numbers. It publishes no other data,
/// so `Relaxed` increments suffice to keep serials unique.
static SERIALS: AtomicU64 = AtomicU64::new(0);

/// A thread-safe, append-only intern table mapping distinct [`Value`]s
/// (constants, relation names, attribute names) to dense [`Symbol`] ids.
///
/// Reads ([`resolve`](SymbolTable::resolve), [`lookup`](SymbolTable::lookup))
/// take a shared lock; interning takes the exclusive lock only when the
/// value is actually new. The table is designed to be built once at store
/// construction and shared by `Arc` with snapshots, engines and cached
/// columnar blocks.
///
/// # Examples
///
/// ```
/// use relalg::{SymbolTable, Value};
///
/// let table = SymbolTable::new();
/// let a = table.intern(&Value::str("a"));
/// assert_eq!(table.intern(&Value::str("a")), a); // stable
/// assert_eq!(table.resolve(a), Value::str("a")); // round-trips
/// assert_eq!(table.intern(&table.resolve(a)), a);
/// ```
pub struct SymbolTable {
    inner: RwLock<Inner>,
    /// Tells this table's ids apart from every other table's (see
    /// [`crate::Relation::symbol_ids`]).
    serial: u64,
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        SymbolTable {
            inner: RwLock::new(Inner {
                values: Vec::new(),
                texts: Vec::new(),
                ids: HashMap::new(),
                by_text: HashMap::new(),
                canonical: Vec::new(),
                smallest: Vec::new(),
            }),
            serial: SERIALS.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The serial number no other table in the process shares.
    pub(crate) fn serial(&self) -> u64 {
        self.serial
    }

    /// Intern a value, minting a fresh symbol if it has not been seen.
    ///
    /// Idempotent: interning the same value always returns the same symbol.
    pub fn intern(&self, value: &Value) -> Symbol {
        if let Some(id) = self.read().ids.get(value) {
            return Symbol(*id);
        }
        Symbol(Self::mint(&mut self.write(), value))
    }

    /// The id of `value`, minting it (its text and its text class too) if
    /// it is new.
    fn mint(inner: &mut Inner, value: &Value) -> u32 {
        if let Some(id) = inner.ids.get(value) {
            return *id;
        }
        let id = u32::try_from(inner.values.len()).expect("symbol table overflow");
        let text: Arc<str> = match value {
            // Strings share the value's own payload; no new allocation.
            Value::Str(s) => Arc::clone(s),
            other => Arc::from(other.render().as_ref()),
        };
        let class = *inner.by_text.entry(Arc::clone(&text)).or_insert(id);
        inner.values.push(value.clone());
        inner.texts.push(text);
        inner.ids.insert(value.clone(), id);
        inner.canonical.push(class);
        inner.smallest.push(id);
        let kept = inner.smallest[class as usize] as usize;
        if *value < inner.values[kept] {
            inner.smallest[class as usize] = id;
        }
        id
    }

    /// Intern a name (relation or attribute) as a string value.
    pub fn intern_name(&self, name: &str) -> Symbol {
        self.intern(&Value::str(name))
    }

    /// Look a value up without minting: `None` if the value was never
    /// interned. Queries use this for their constants — a constant the
    /// store has never seen cannot match any stored tuple.
    pub fn lookup(&self, value: &Value) -> Option<Symbol> {
        self.read().ids.get(value).map(|id| Symbol(*id))
    }

    /// The value a symbol stands for.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was not minted by this table.
    pub fn resolve(&self, symbol: Symbol) -> Value {
        self.read().values[symbol.0 as usize].clone()
    }

    /// The rendered text of a symbol's value (see [`Value::render`]). All
    /// callers share one `Arc<str>` per symbol, which is what lets the ASP
    /// encoder stop re-allocating constant text for every tuple occurrence.
    pub fn resolve_text(&self, symbol: Symbol) -> Arc<str> {
        Arc::clone(&self.read().texts[symbol.0 as usize])
    }

    /// The rendered texts of `ids`, appended to `out` in order, under one
    /// lock.
    pub fn resolve_texts(&self, ids: &[u32], out: &mut Vec<Arc<str>>) {
        let inner = self.read();
        out.extend(ids.iter().map(|&id| Arc::clone(&inner.texts[id as usize])));
    }

    /// The symbol whose value renders as `text` ([`Value::render`]), or
    /// `None` when no interned value does. When several do (the integer
    /// `1` and the string `"1"`), the smallest value's symbol, whatever
    /// the interning order.
    pub fn lookup_text(&self, text: &str) -> Option<Symbol> {
        let inner = self.read();
        let class = *inner.by_text.get(text)?;
        Some(Symbol(inner.smallest[class as usize]))
    }

    /// Replace each of `ids` with its text class's canonical id: the first
    /// symbol minted whose value renders alike. Ids whose values render
    /// alike become equal, and a symbol's canonical id never changes.
    pub fn canonicalize<'a>(&self, ids: impl IntoIterator<Item = &'a mut u32>) {
        let inner = self.read();
        for id in ids {
            *id = inner.canonical[*id as usize];
        }
    }

    /// Replace each of `ids` with the symbol of the smallest value that
    /// renders like its own: what [`SymbolTable::lookup_text`] returns for
    /// its text.
    pub fn smallest_alike<'a>(&self, ids: impl IntoIterator<Item = &'a mut u32>) {
        let inner = self.read();
        for id in ids {
            *id = inner.smallest[inner.canonical[*id as usize] as usize];
        }
    }

    /// Number of distinct symbols minted so far.
    pub fn len(&self) -> usize {
        self.read().values.len()
    }

    /// True if no symbol has been minted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact resident bytes of the table's payload, deterministic across
    /// platforms: per symbol, the id (4 bytes in the reverse map plus 4 in
    /// each of the three forward id slots: value, text class and smallest
    /// member), a one-byte value tag, the value payload (string bytes, 8 for
    /// integers, 1 for booleans, 0 for null) and the rendered text where it
    /// does not alias the string payload; plus 4 bytes (its id) per
    /// distinct text in the text index, whose keys are the renderings
    /// counted above.
    pub fn resident_bytes(&self) -> usize {
        let inner = self.read();
        let mut bytes = 4 * inner.by_text.len();
        for (value, text) in inner.values.iter().zip(inner.texts.iter()) {
            bytes += 16 + 1 + value_payload_bytes(value);
            if !matches!(value, Value::Str(_)) {
                bytes += text.len();
            }
        }
        bytes
    }

    /// Intern every value of the tuple, in order.
    pub fn intern_tuple(&self, tuple: &crate::Tuple) -> Vec<Symbol> {
        tuple.iter().map(|v| self.intern(v)).collect()
    }

    /// Intern every value of `tuples`, appending the ids to `out` row after
    /// row. Values the table already holds are read under one shared lock;
    /// the exclusive lock is taken only from the first new value on.
    pub fn intern_rows<'t>(
        &self,
        tuples: impl IntoIterator<Item = &'t crate::Tuple>,
        out: &mut Vec<u32>,
    ) {
        let mut values = tuples.into_iter().flat_map(|tuple| tuple.iter());
        {
            let inner = self.read();
            for value in values.by_ref() {
                match inner.ids.get(value) {
                    Some(&id) => out.push(id),
                    None => {
                        drop(inner);
                        let mut inner = self.write();
                        out.push(Self::mint(&mut inner, value));
                        out.extend(values.map(|value| Self::mint(&mut inner, value)));
                        return;
                    }
                }
            }
        }
    }

    /// Intern everything a database instance mentions: relation names,
    /// attribute names and every constant of every tuple. Stores call this
    /// at construction so the table fronts the whole pipeline.
    pub fn intern_database(&self, db: &crate::Database) {
        for relation in db.relations() {
            self.intern_name(relation.name());
            for attr in relation.schema().attributes() {
                self.intern_name(attr);
            }
            for tuple in relation.iter() {
                for value in tuple.iter() {
                    self.intern(value);
                }
            }
        }
    }
}

/// Deterministic payload size of a value (see
/// [`SymbolTable::resident_bytes`]).
fn value_payload_bytes(value: &Value) -> usize {
    match value {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 8,
        Value::Str(s) => s.len(),
    }
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable::new()
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolTable")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tuple;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let table = SymbolTable::new();
        let a = table.intern(&Value::str("a"));
        let b = table.intern(&Value::str("b"));
        assert_ne!(a, b);
        assert_eq!(table.intern(&Value::str("a")), a);
        assert_eq!(table.len(), 2);
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
    }

    #[test]
    fn resolve_round_trips_every_value_class() {
        let table = SymbolTable::new();
        for v in [
            Value::Null,
            Value::bool(true),
            Value::int(-42),
            Value::str("peer"),
        ] {
            let s = table.intern(&v);
            assert_eq!(table.resolve(s), v);
            assert_eq!(table.intern(&table.resolve(s)), s);
        }
    }

    #[test]
    fn lookup_does_not_mint() {
        let table = SymbolTable::new();
        assert_eq!(table.lookup(&Value::str("ghost")), None);
        assert!(table.is_empty());
        let s = table.intern(&Value::str("real"));
        assert_eq!(table.lookup(&Value::str("real")), Some(s));
    }

    #[test]
    fn resolve_text_is_shared_and_stable() {
        let table = SymbolTable::new();
        let s = table.intern(&Value::int(7));
        let t1 = table.resolve_text(s);
        let t2 = table.resolve_text(s);
        assert_eq!(&*t1, "7");
        assert!(Arc::ptr_eq(&t1, &t2));
        // String symbols alias the value's own payload.
        let name = table.intern(&Value::str("R1"));
        assert_eq!(&*table.resolve_text(name), "R1");
    }

    #[test]
    fn resident_bytes_is_exact_and_monotone() {
        let table = SymbolTable::new();
        assert_eq!(table.resident_bytes(), 0);
        table.intern(&Value::str("abc"));
        // 4 (text index) + 16 (ids) + 1 (tag) + 3 (payload); the text
        // aliases the payload.
        assert_eq!(table.resident_bytes(), 24);
        // An integer's rendering is its own text.
        let five = table.intern(&Value::int(5));
        assert_eq!(table.resident_bytes(), 24 + 4 + 16 + 1 + 8 + 1);
        // Reading texts back allocates nothing.
        table.resolve_text(five);
        assert_eq!(table.lookup_text("5"), Some(five));
        assert_eq!(table.resident_bytes(), 54);
        // A second value with a known text adds no index entry.
        table.intern(&Value::str("5"));
        assert_eq!(table.lookup_text("5"), Some(five));
        assert_eq!(table.resident_bytes(), 54 + 16 + 1 + 1);
    }

    #[test]
    fn text_classes_are_stable_and_decode_to_the_smallest_value() {
        let table = SymbolTable::new();
        let s = table.intern(&Value::str("1")).id();
        let other = table.intern(&Value::str("2")).id();
        let mut ids = [s, other];
        table.canonicalize(&mut ids);
        assert_eq!(ids, [s, other]);
        // The integer joins the string's class: the canonical id stays the
        // first-minted one, the smallest value moves to the integer.
        let i = table.intern(&Value::int(1)).id();
        let mut ids = [s, i, other];
        table.canonicalize(&mut ids);
        assert_eq!(ids, [s, s, other]);
        let mut ids = [s, i, other];
        table.smallest_alike(&mut ids);
        assert_eq!(ids, [i, i, other]);
        assert_eq!(table.lookup_text("1"), Some(Symbol(i)));
        let mut texts = Vec::new();
        table.resolve_texts(&[i, s, other], &mut texts);
        assert_eq!(texts, [Arc::from("1"), Arc::from("1"), Arc::from("2")]);
    }

    #[test]
    fn intern_rows_equals_interning_each_value() {
        let rows = [Tuple::strs(["a", "b"]), Tuple::strs(["b", "c"])];
        let table = SymbolTable::new();
        table.intern(&Value::str("b"));
        let mut ids = Vec::new();
        table.intern_rows(&rows, &mut ids);
        let each: Vec<u32> = rows
            .iter()
            .flat_map(|t| t.iter().map(|v| table.intern(v).id()))
            .collect();
        assert_eq!(ids, each);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn lookup_text_keeps_the_smallest_value_in_either_interning_order() {
        let int_first = SymbolTable::new();
        int_first.intern(&Value::int(1));
        int_first.intern(&Value::str("1"));
        let str_first = SymbolTable::new();
        str_first.intern(&Value::str("1"));
        str_first.intern(&Value::int(1));
        for table in [&int_first, &str_first] {
            let symbol = table.lookup_text("1").expect("an interned text");
            assert_eq!(table.resolve(symbol), Value::int(1));
        }
        // Symbols minted after the index was built join it, and the
        // collision rule holds for them too.
        str_first.intern(&Value::str("2"));
        assert_eq!(
            str_first.resolve(str_first.lookup_text("2").unwrap()),
            Value::str("2")
        );
        str_first.intern(&Value::int(2));
        assert_eq!(
            str_first.resolve(str_first.lookup_text("2").unwrap()),
            Value::int(2)
        );
    }

    #[test]
    fn lookup_text_of_unknown_text_is_none() {
        let table = SymbolTable::new();
        assert_eq!(table.lookup_text("ghost"), None);
        let a = table.intern(&Value::str("a"));
        assert_eq!(table.lookup_text("a"), Some(a));
        assert_eq!(table.lookup_text("ghost"), None);
        assert_eq!(table.lookup_text(""), None);
        assert_eq!(table.len(), 1, "looking text up mints nothing");
    }

    #[test]
    fn intern_tuple_preserves_positions() {
        let table = SymbolTable::new();
        let syms = table.intern_tuple(&Tuple::strs(["x", "y", "x"]));
        assert_eq!(syms.len(), 3);
        assert_eq!(syms[0], syms[2]);
        assert_ne!(syms[0], syms[1]);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let table = Arc::new(SymbolTable::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| {
                            let id = table.intern(&Value::int(i)).id();
                            // Every value interned so far is findable by
                            // its text while other threads keep minting.
                            let found = table.lookup_text(&i.to_string());
                            assert_eq!(found.map(Symbol::id), Some(id));
                            id
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_eq!(table.len(), 100);
    }
}
