//! String interning.
//!
//! Predicate names, constant symbols and variable names are interned into a
//! global, thread-safe [`Interner`] so that the rest of the workspace can
//! compare and hash them as `u32` handles ([`Symbol`]).
//!
//! Interned strings live for the lifetime of the process (they are leaked on
//! first interning), which lets [`Symbol::as_str`] hand out `&'static str`
//! without allocating. Resolution reads an append-only table of write-once
//! slots, so `Display` and every symbol comparison (each sort of atoms, each
//! `BTreeSet<GroundAtom>` lookup) run without taking the interner lock.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A handle to an interned string.
///
/// Symbols are cheap to copy, compare and hash. Two symbols are equal iff the
/// strings they intern are equal (interning is global per process).
///
/// Ordering is **lexicographic on the interned string**, not by interning
/// index: every canonical sort downstream (model-set event keys, program
/// fingerprints, golden JSON reports) goes through this `Ord`, and
/// interning-index order is an accident of process history — two processes
/// that compile programs in different orders must still render identical
/// canonical output. Equality stays the O(1) index compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl Symbol {
    /// Intern `name` and return its symbol.
    pub fn new(name: &str) -> Self {
        global().intern(name)
    }

    /// The raw index of this symbol in the global interner.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Resolve the symbol back to its string without allocating.
    pub fn as_str(self) -> &'static str {
        global().resolve(self)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(&s)
    }
}

/// Number of segments of the lock-free string table: segment `s` holds
/// `2^s` slots, so the table covers every `u32` index but `u32::MAX`.
const SEGMENTS: usize = 32;

/// One segment of the string table: write-once slots, allocated on first use.
type Segment = OnceLock<Box<[OnceLock<&'static str>]>>;

/// A thread-safe string interner.
///
/// Most users never construct one directly: [`Symbol::new`] uses a global
/// instance. A standalone interner is still exposed for tests and tools that
/// need isolated symbol tables. Interned strings are leaked (they live until
/// process exit even if the interner is dropped); the set of distinct
/// predicate, variable and constant names is small and bounded in practice.
///
/// Interning takes the `RwLock`; resolving does not. Index `i` lives in
/// segment `⌊log₂(i + 1)⌋`, and its slot is filled under the write lock
/// before the symbol is handed out, so segments never move.
#[derive(Default)]
pub struct Interner {
    map: RwLock<HashMap<&'static str, u32>>,
    table: [Segment; SEGMENTS],
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The segment and offset of index `idx` in the string table.
    fn locate(idx: u32) -> (usize, usize) {
        let n = idx as usize + 1;
        let s = n.ilog2() as usize;
        (s, n - (1 << s))
    }

    /// Intern `name`, returning its (stable) symbol.
    pub fn intern(&self, name: &str) -> Symbol {
        if let Some(&idx) = self.map.read().get(name) {
            return Symbol(idx);
        }
        let mut map = self.map.write();
        if let Some(&idx) = map.get(name) {
            return Symbol(idx);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let idx = map.len() as u32;
        let (s, at) = Self::locate(idx);
        self.table[s].get_or_init(|| (0..1usize << s).map(|_| OnceLock::new()).collect())[at]
            .set(leaked)
            .expect("each index is filled once, under the write lock");
        map.insert(leaked, idx);
        Symbol(idx)
    }

    /// Resolve a symbol previously returned by [`Interner::intern`], without
    /// taking the lock.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was interned by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        let (s, at) = Self::locate(sym.0);
        self.table[s]
            .get()
            .and_then(|segment| segment[at].get())
            .expect("symbol was not interned by this interner")
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether no strings have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("Router");
        let b = Symbol::new("Router");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "Router");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::new("Infected");
        let b = Symbol::new("Uninfected");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "Infected");
        assert_eq!(b.as_str(), "Uninfected");
    }

    #[test]
    fn as_str_is_stable_and_static() {
        let a = Symbol::new("StablePointer");
        let s1: &'static str = a.as_str();
        let s2: &'static str = a.as_str();
        // Same leaked allocation both times: no per-call String.
        assert!(std::ptr::eq(s1, s2));
    }

    #[test]
    fn standalone_interner_is_isolated() {
        let interner = Interner::new();
        let a = interner.intern("x");
        let b = interner.intern("y");
        let a2 = interner.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
        assert_eq!(interner.resolve(b), "y");
    }

    #[test]
    fn display_and_debug_show_the_string() {
        let s = Symbol::new("Connected");
        assert_eq!(format!("{s}"), "Connected");
        assert_eq!(format!("{s:?}"), "\"Connected\"");
    }

    #[test]
    fn symbols_are_ordered_lexicographically() {
        // Interning order must not leak into the canonical order: `zeta`
        // interned before `alpha` still sorts after it.
        let a = Symbol::new("zeta-ordering-test");
        let b = Symbol::new("alpha-ordering-test");
        assert!(b < a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        assert_eq!(
            a.partial_cmp(&b),
            Some(std::cmp::Ordering::Greater),
            "partial_cmp must agree with cmp"
        );
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "FromStr".into();
        let b: Symbol = String::from("FromStr").into();
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let interner = std::sync::Arc::new(Interner::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let interner = interner.clone();
            handles.push(std::thread::spawn(move || {
                let mut syms = Vec::new();
                for i in 0..100 {
                    syms.push(interner.intern(&format!("sym{}", (i + t) % 50)));
                }
                syms
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // (i + t) % 50 always lies in 0..50, so exactly 50 distinct strings.
        assert_eq!(interner.len(), 50);
    }

    #[test]
    fn concurrent_intern_and_resolve_agree() {
        // Overlapping names across threads, resolved while other threads are
        // still interning (and growing the table past several segments).
        let interner = std::sync::Arc::new(Interner::new());
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (interner, start) = (interner.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..300 {
                        let name = format!("name{}", (i * 7 + t * 50) % 400);
                        let sym = interner.intern(&name);
                        assert_eq!(interner.resolve(sym), name);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..interner.len() as u32 {
            let s = interner.resolve(Symbol(i));
            assert_eq!(
                interner.intern(s),
                Symbol(i),
                "{s} resolves to its own symbol"
            );
        }
    }
}
