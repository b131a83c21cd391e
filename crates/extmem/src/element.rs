//! The machine-word record type stored in external memory.
//!
//! The paper assumes that "keys and values can be stored in memory words or
//! blocks of memory words, which support the operations of read, write, copy,
//! compare, add, and subtract, as in the standard RAM model" (Section 1).
//! [`Element`] is exactly that: a two-word record with a comparable `key` and
//! an opaque `payload`. Array cells are [`Cell`]s, i.e. possibly-empty slots,
//! because the paper's arrays contain *distinguished* items, dummies and
//! padding.

use std::cmp::Ordering;
use std::fmt;

/// A two-word record: a comparable key plus an opaque payload word.
///
/// Ordering is by `key` first and `payload` second. The second component is
/// routinely used by the algorithm crates to break ties by original array
/// index, which keeps the high-probability bounds of the selection and
/// quantile algorithms valid even when keys repeat (see `odo-core`'s module
/// documentation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Element {
    /// The comparable key.
    pub key: u64,
    /// An opaque payload word (often an original index or user value).
    pub payload: u64,
}

impl Element {
    /// Creates a new element.
    #[inline]
    pub fn new(key: u64, payload: u64) -> Self {
        Element { key, payload }
    }

    /// Creates an element whose payload is an array index, the common pattern
    /// for order-preserving compaction and tie-breaking.
    #[inline]
    pub fn keyed(key: u64, index: usize) -> Self {
        Element {
            key,
            payload: index as u64,
        }
    }
}

impl PartialOrd for Element {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Element {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (self.key, self.payload).cmp(&(other.key, other.payload))
    }
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E({}:{})", self.key, self.payload)
    }
}

/// A possibly-empty array cell.
///
/// `None` models the paper's "empty"/"null" cells ("we consider a cell
/// 'empty' if it stores a null value that is different from any input
/// value", Section 3). All algorithms treat `None` as a dummy that must be
/// handled with the same access pattern as a real element.
pub type Cell = Option<Element>;

/// Compares two cells treating `None` as +∞, the convention used when sorting
/// padded arrays ("considering empty cells as holding +∞", Section 4).
#[inline]
pub fn cell_cmp_none_last(a: &Cell, b: &Cell) -> Ordering {
    match (a, b) {
        (Some(x), Some(y)) => x.cmp(y),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
}

/// Compares two cells by *descending* element order while still treating
/// `None` as the very last value, the order a descending sort with
/// dummies-at-the-end padding needs (the padding argument of the external
/// sorts relies on dummies never sorting before an occupied cell).
#[inline]
pub fn cell_cmp_none_last_desc(a: &Cell, b: &Cell) -> Ordering {
    match (a, b) {
        (Some(x), Some(y)) => y.cmp(x),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
}

/// Compares two cells treating `None` as −∞ (occasionally needed when packing
/// occupied cells towards the end of an array).
#[inline]
pub fn cell_cmp_none_first(a: &Cell, b: &Cell) -> Ordering {
    match (a, b) {
        (Some(x), Some(y)) => x.cmp(y),
        (Some(_), None) => Ordering::Greater,
        (None, Some(_)) => Ordering::Less,
        (None, None) => Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_ordering_is_lexicographic() {
        let a = Element::new(1, 9);
        let b = Element::new(2, 0);
        let c = Element::new(2, 1);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn keyed_stores_index_in_payload() {
        let e = Element::keyed(42, 7);
        assert_eq!(e.key, 42);
        assert_eq!(e.payload, 7);
    }

    #[test]
    fn cell_comparison_none_last_puts_empty_cells_at_the_end() {
        let full: Cell = Some(Element::new(5, 0));
        let empty: Cell = None;
        assert_eq!(cell_cmp_none_last(&full, &empty), Ordering::Less);
        assert_eq!(cell_cmp_none_last(&empty, &full), Ordering::Greater);
        assert_eq!(cell_cmp_none_last(&empty, &empty), Ordering::Equal);
    }

    #[test]
    fn cell_comparison_none_first_puts_empty_cells_at_the_front() {
        let full: Cell = Some(Element::new(5, 0));
        let empty: Cell = None;
        assert_eq!(cell_cmp_none_first(&full, &empty), Ordering::Greater);
        assert_eq!(cell_cmp_none_first(&empty, &full), Ordering::Less);
    }

    #[test]
    fn default_element_is_zero() {
        let e = Element::default();
        assert_eq!(e.key, 0);
        assert_eq!(e.payload, 0);
    }
}
