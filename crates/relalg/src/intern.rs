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
//! The table also memoizes the rendered text of each symbol
//! ([`SymbolTable::resolve_text`]) so the ASP fact encoder can emit one
//! shared `Arc<str>` per distinct constant instead of re-allocating the
//! rendering for every occurrence of every tuple, and indexes that text
//! ([`SymbolTable::lookup_text`]) so the ASP decode maps a model constant
//! back to its symbol without a decoder of its own. Two values may render
//! alike (the integer `1` and the string `"1"`); the text then names the
//! smaller [`Value`] whatever the interning order, so every table over the
//! same values agrees.

use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
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
    /// Symbol id → memoized rendered text (lazily filled).
    texts: Vec<Option<Arc<str>>>,
    /// Value → symbol id (the intern direction).
    ids: HashMap<Value, u32>,
    /// Rendered text → symbol id of the smallest value with that text,
    /// over the first `indexed` symbols; extended lazily by
    /// [`SymbolTable::lookup_text`].
    by_text: HashMap<Arc<str>, u32>,
    indexed: usize,
}

impl Inner {
    /// The memoized rendered text of a symbol, rendering it on first use.
    fn text(&mut self, id: usize) -> Arc<str> {
        if let Some(text) = &self.texts[id] {
            return Arc::clone(text);
        }
        let text: Arc<str> = match &self.values[id] {
            // Strings share the value's own payload; no new allocation.
            Value::Str(s) => Arc::clone(s),
            other => Arc::from(other.render().as_ref()),
        };
        self.texts[id] = Some(Arc::clone(&text));
        text
    }

    /// Bring the text index up to every minted symbol. On a text shared
    /// by two values the smaller value keeps it.
    fn index_texts(&mut self) {
        while self.indexed < self.values.len() {
            let id = self.indexed;
            let text = self.text(id);
            let values = &self.values;
            self.by_text
                .entry(text)
                .and_modify(|kept| {
                    if values[id] < values[*kept as usize] {
                        *kept = id as u32;
                    }
                })
                .or_insert(id as u32);
            self.indexed += 1;
        }
    }
}

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
                indexed: 0,
            }),
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

    /// Intern a value, minting a fresh symbol if it has not been seen.
    ///
    /// Idempotent: interning the same value always returns the same symbol.
    pub fn intern(&self, value: &Value) -> Symbol {
        if let Some(id) = self.read().ids.get(value) {
            return Symbol(*id);
        }
        let mut inner = self.write();
        if let Some(id) = inner.ids.get(value) {
            return Symbol(*id);
        }
        let id = u32::try_from(inner.values.len()).expect("symbol table overflow");
        inner.values.push(value.clone());
        inner.texts.push(None);
        inner.ids.insert(value.clone(), id);
        Symbol(id)
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

    /// The memoized rendered text of a symbol's value (see
    /// [`Value::render`]). All callers share one `Arc<str>` per symbol,
    /// which is what lets the ASP encoder stop re-allocating constant text
    /// for every tuple occurrence.
    pub fn resolve_text(&self, symbol: Symbol) -> Arc<str> {
        if let Some(text) = &self.read().texts[symbol.0 as usize] {
            return Arc::clone(text);
        }
        self.write().text(symbol.0 as usize)
    }

    /// The symbol whose value renders as `text` ([`Value::render`]), or
    /// `None` when no interned value does. When several do (the integer
    /// `1` and the string `"1"`), the smallest value's symbol, whatever
    /// the interning order. The index behind it is built on first use and
    /// extended to newly minted symbols on later calls, under the table's
    /// lock.
    pub fn lookup_text(&self, text: &str) -> Option<Symbol> {
        {
            let inner = self.read();
            if inner.indexed == inner.values.len() {
                return inner.by_text.get(text).map(|&id| Symbol(id));
            }
        }
        let mut inner = self.write();
        inner.index_texts();
        inner.by_text.get(text).map(|&id| Symbol(id))
    }

    /// Intern a value and return its shared rendered text in one step.
    pub fn render_shared(&self, value: &Value) -> Arc<str> {
        let symbol = self.intern(value);
        self.resolve_text(symbol)
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
    /// each forward slot), a one-byte value tag, and the value payload
    /// (string bytes, 8 for integers, 1 for booleans, 0 for null). Memoized
    /// renderings that alias the string payload are not double counted.
    /// The text index ([`SymbolTable::lookup_text`]) adds 4 bytes (its id)
    /// per distinct text it holds; its keys are the memoized renderings,
    /// counted above.
    pub fn resident_bytes(&self) -> usize {
        let inner = self.read();
        let mut bytes = 4 * inner.by_text.len();
        for (value, text) in inner.values.iter().zip(inner.texts.iter()) {
            bytes += 8 + 1 + value_payload_bytes(value);
            if let Some(text) = text {
                if !matches!(value, Value::Str(_)) {
                    bytes += text.len();
                }
            }
        }
        bytes
    }

    /// Intern every value of the tuple, in order.
    pub fn intern_tuple(&self, tuple: &crate::Tuple) -> Vec<Symbol> {
        tuple.iter().map(|v| self.intern(v)).collect()
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
        // 8 (ids) + 1 (tag) + 3 (payload)
        assert_eq!(table.resident_bytes(), 12);
        table.intern(&Value::int(5));
        assert_eq!(table.resident_bytes(), 12 + 17);
        // Memoizing an integer rendering adds its text bytes once.
        let five = table.lookup(&Value::int(5)).unwrap();
        table.resolve_text(five);
        assert_eq!(table.resident_bytes(), 12 + 17 + 1);
        // String renderings alias the payload: no growth.
        let abc = table.lookup(&Value::str("abc")).unwrap();
        table.resolve_text(abc);
        assert_eq!(table.resident_bytes(), 12 + 17 + 1);
        // The text index charges 4 bytes per distinct text; its keys are
        // the renderings already counted.
        assert_eq!(table.lookup_text("5"), Some(five));
        assert_eq!(table.resident_bytes(), 12 + 17 + 1 + 2 * 4);
        // A second value with a known text adds no index entry.
        table.intern(&Value::str("5"));
        assert_eq!(table.lookup_text("5"), Some(five));
        assert_eq!(table.resident_bytes(), 12 + 17 + 1 + 2 * 4 + 10);
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
