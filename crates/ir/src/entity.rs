//! Entity references and entity-indexed maps.
//!
//! Compiler data structures are dominated by small, dense index spaces:
//! blocks, instructions, and values are all created in bulk and referenced
//! by index. Following the style of production IRs (LLVM's value numbering,
//! Cranelift's `entity` crate), we represent each of these as a newtype over
//! `u32` and store the payloads in flat vectors. This keeps all side tables
//! cache-friendly and makes cross-referencing trivially cheap.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

/// A type that can be used as a dense index into an [`EntityMap`] or
/// [`SecondaryMap`].
///
/// Implementors are plain `u32` newtypes created with [`entity_ref!`].
pub trait EntityRef: Copy + Eq + Hash + Ord {
    /// Create an entity reference from a raw index.
    fn new(index: usize) -> Self;
    /// The raw index of this entity.
    fn index(self) -> usize;
}

/// Declare a new entity reference type.
///
/// ```
/// use fcc_ir::entity_ref;
/// use fcc_ir::entity::EntityRef;
///
/// entity_ref!(Widget, "w");
/// let w = Widget::new(3);
/// assert_eq!(w.index(), 3);
/// assert_eq!(format!("{w}"), "w3");
/// ```
#[macro_export]
macro_rules! entity_ref {
    ($(#[$attr:meta])* $name:ident, $prefix:expr) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $crate::entity::EntityRef for $name {
            #[inline]
            fn new(index: usize) -> Self {
                debug_assert!(index < u32::MAX as usize);
                $name(index as u32)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $name {
            /// Create an entity reference from a raw index.
            #[inline]
            pub fn new(index: usize) -> Self {
                <$name as $crate::entity::EntityRef>::new(index)
            }
            /// The raw index of this entity.
            #[inline]
            pub fn index(self) -> usize {
                <$name as $crate::entity::EntityRef>::index(self)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                ::std::fmt::Display::fmt(self, f)
            }
        }
    };
}

/// A primary map that owns entity payloads and mints new references.
///
/// Entities are allocated densely starting from index 0 and are never
/// deallocated individually; deletion is modelled by the client (e.g. an
/// instruction is removed from its block's list but its slot remains).
#[derive(Clone, PartialEq, Eq)]
pub struct EntityMap<K: EntityRef, V> {
    elems: Vec<V>,
    _marker: PhantomData<K>,
}

impl<K: EntityRef, V> EntityMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        EntityMap {
            elems: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Create an empty map with room for `capacity` entities.
    pub fn with_capacity(capacity: usize) -> Self {
        EntityMap {
            elems: Vec::with_capacity(capacity),
            _marker: PhantomData,
        }
    }

    /// Allocate a new entity holding `value` and return its reference.
    pub fn push(&mut self, value: V) -> K {
        let k = K::new(self.elems.len());
        self.elems.push(value);
        k
    }

    /// Number of entities allocated so far.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether no entities have been allocated.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Iterate over all entity references in allocation order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = K> + '_ {
        (0..self.elems.len()).map(K::new)
    }

    /// Iterate over `(reference, payload)` pairs in allocation order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (K, &V)> + '_ {
        self.elems.iter().enumerate().map(|(i, v)| (K::new(i), v))
    }

    /// Iterate over payloads in allocation order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + '_ {
        self.elems.iter()
    }

    /// Approximate heap size of the payload storage, in bytes.
    pub fn bytes(&self) -> usize {
        self.elems.capacity() * std::mem::size_of::<V>()
    }
}

impl<K: EntityRef, V> Default for EntityMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityRef, V> std::ops::Index<K> for EntityMap<K, V> {
    type Output = V;
    #[inline]
    fn index(&self, k: K) -> &V {
        &self.elems[k.index()]
    }
}

impl<K: EntityRef, V> std::ops::IndexMut<K> for EntityMap<K, V> {
    #[inline]
    fn index_mut(&mut self, k: K) -> &mut V {
        &mut self.elems[k.index()]
    }
}

impl<K: EntityRef, V: fmt::Debug> fmt::Debug for EntityMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.elems.iter().enumerate())
            .finish()
    }
}

/// A secondary map associating data with entities minted elsewhere.
///
/// Missing entries read back as `V::default()`; writes grow the map on
/// demand. This mirrors how side tables behave in most compilers: an
/// analysis result exists for every entity, defaulting to "nothing known".
#[derive(Clone, PartialEq, Eq)]
pub struct SecondaryMap<K: EntityRef, V: Clone + Default> {
    elems: Vec<V>,
    default: V,
    _marker: PhantomData<K>,
}

impl<K: EntityRef, V: Clone + Default> SecondaryMap<K, V> {
    /// Create an empty secondary map.
    pub fn new() -> Self {
        SecondaryMap {
            elems: Vec::new(),
            default: V::default(),
            _marker: PhantomData,
        }
    }

    /// Create a secondary map pre-sized for `capacity` entities.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut m = Self::new();
        m.elems.resize(capacity, V::default());
        m
    }

    /// Ensure the map has a slot for `k`, then return a mutable reference.
    pub fn get_mut(&mut self, k: K) -> &mut V {
        if k.index() >= self.elems.len() {
            self.elems.resize(k.index() + 1, V::default());
        }
        &mut self.elems[k.index()]
    }

    /// Number of slots currently materialised.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether no slots are materialised.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Reset every slot to the default value.
    pub fn clear(&mut self) {
        self.elems.clear();
    }

    /// Approximate heap size of the payload storage, in bytes.
    pub fn bytes(&self) -> usize {
        self.elems.capacity() * std::mem::size_of::<V>()
    }
}

impl<K: EntityRef, V: Clone + Default> Default for SecondaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityRef, V: Clone + Default> std::ops::Index<K> for SecondaryMap<K, V> {
    type Output = V;
    #[inline]
    fn index(&self, k: K) -> &V {
        self.elems.get(k.index()).unwrap_or(&self.default)
    }
}

impl<K: EntityRef, V: Clone + Default> std::ops::IndexMut<K> for SecondaryMap<K, V> {
    #[inline]
    fn index_mut(&mut self, k: K) -> &mut V {
        self.get_mut(k)
    }
}

impl<K: EntityRef, V: Clone + Default + fmt::Debug> fmt::Debug for SecondaryMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.elems.iter().enumerate())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    entity_ref!(TestRef, "t");

    #[test]
    fn entity_ref_roundtrip() {
        let t = TestRef::new(42);
        assert_eq!(t.index(), 42);
        assert_eq!(format!("{t}"), "t42");
        assert_eq!(format!("{t:?}"), "t42");
    }

    #[test]
    fn entity_ref_ordering_follows_index() {
        assert!(TestRef::new(1) < TestRef::new(2));
        assert_eq!(TestRef::new(7), TestRef::new(7));
    }

    #[test]
    fn entity_map_push_and_index() {
        let mut m: EntityMap<TestRef, &str> = EntityMap::new();
        assert!(m.is_empty());
        let a = m.push("a");
        let b = m.push("b");
        assert_eq!(m.len(), 2);
        assert_eq!(m[a], "a");
        assert_eq!(m[b], "b");
        m[a] = "z";
        assert_eq!(m[a], "z");
    }

    #[test]
    fn entity_map_keys_are_dense() {
        let mut m: EntityMap<TestRef, u32> = EntityMap::new();
        for i in 0..10 {
            let k = m.push(i);
            assert_eq!(k.index(), i as usize);
        }
        let keys: Vec<_> = m.keys().collect();
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[3].index(), 3);
    }

    #[test]
    fn entity_map_iter_pairs() {
        let mut m: EntityMap<TestRef, char> = EntityMap::new();
        m.push('x');
        m.push('y');
        let pairs: Vec<_> = m.iter().map(|(k, v)| (k.index(), *v)).collect();
        assert_eq!(pairs, vec![(0, 'x'), (1, 'y')]);
    }

    #[test]
    fn secondary_map_defaults_and_grows() {
        let mut s: SecondaryMap<TestRef, u64> = SecondaryMap::new();
        let far = TestRef::new(100);
        assert_eq!(s[far], 0);
        s[far] = 9;
        assert_eq!(s[far], 9);
        assert_eq!(s.len(), 101);
        assert_eq!(s[TestRef::new(50)], 0);
        s.clear();
        assert_eq!(s[far], 0);
    }
}
