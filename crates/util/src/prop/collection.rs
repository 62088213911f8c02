//! Collection strategies: `vec`, `btree_map`, `btree_set`, sized by a
//! [`SizeRange`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Range, RangeInclusive};

use super::{Source, Strategy};

/// An inclusive range of collection sizes; built from `usize` ranges or
/// a single exact size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl SizeRange {
    fn draw(&self, source: &mut Source<'_>) -> usize {
        self.min + source.draw((self.max - self.min) as u64) as usize
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range {}..{}", r.start, r.end);
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

/// Vectors of `element` values with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`fn@vec`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, source: &mut Source<'_>) -> Self::Value {
        let len = self.size.draw(source);
        (0..len).map(|_| self.element.generate(source)).collect()
    }
}

/// Ordered maps with `size` entries drawn from the key and value
/// strategies. Duplicate keys collapse, so the final size can fall
/// below the drawn size (the `proptest` behavior).
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// See [`btree_map`].
#[derive(Debug, Clone)]
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord + fmt::Debug,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, source: &mut Source<'_>) -> Self::Value {
        let len = self.size.draw(source);
        (0..len)
            .map(|_| (self.keys.generate(source), self.values.generate(source)))
            .collect()
    }
}

/// Ordered sets with `size` elements drawn from `element`. Duplicates
/// collapse, as with [`btree_map`].
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord + fmt::Debug,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, source: &mut Source<'_>) -> Self::Value {
        let len = self.size.draw(source);
        (0..len).map(|_| self.element.generate(source)).collect()
    }
}
