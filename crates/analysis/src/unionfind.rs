//! Disjoint-set union-find with union by rank and path compression.
//!
//! This is the `O(n·α(n))` workhorse of the paper's algorithm: φ-node
//! destinations and arguments are unioned into candidate congruence
//! classes, and the classical Chaitin/Briggs live-range identification
//! (`fcc-regalloc`) uses the same structure to join φ-webs into live
//! ranges. The inverse-Ackermann bound is why the overall SSA-to-CFG
//! conversion is `O(n·α(n))` (Section 3.7).

/// A union-find structure over the dense universe `0..len`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Create `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(len < u32::MAX as usize);
        UnionFind {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
        }
    }

    /// The canonical representative of `x`'s set, with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Compress the path.
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Read-only find (no compression); useful when `self` is shared.
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        root
    }

    /// Union the sets containing `a` and `b`; returns the representative
    /// of the merged set.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        if self.rank[ra] == self.rank[rb] {
            self.rank[big] += 1;
        }
        big
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Group `elems` (any order, repeats allowed) by set, consuming the
    /// structure: sets in first-member order, members ascending. Every
    /// element unioned with another must be given; one in a set of its
    /// own comes out as a set of one. Linear once `elems` is sorted, with
    /// no hash map and no allocation per set: the `parent` slots of the
    /// roots, no longer needed as a forest, number the sets.
    pub fn into_sets(mut self, mut elems: Vec<u32>) -> Sets {
        elems.sort_unstable();
        elems.dedup();
        let mut set_of: Vec<u32> = elems
            .iter()
            .map(|&x| self.find(x as usize) as u32)
            .collect();
        for &root in &set_of {
            self.parent[root as usize] = u32::MAX;
        }
        // `starts[k + 1]` counts set k's members, then sums them up.
        let mut starts: Vec<u32> = vec![0];
        for s in set_of.iter_mut() {
            let slot = &mut self.parent[*s as usize];
            if *slot == u32::MAX {
                *slot = starts.len() as u32 - 1;
                starts.push(0);
            }
            *s = *slot;
            starts[*s as usize + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut next = starts.clone();
        let mut members: Vec<u32> = vec![0; elems.len()];
        for (&x, &s) in elems.iter().zip(&set_of) {
            members[next[s as usize] as usize] = x;
            next[s as usize] += 1;
        }
        Sets { starts, members }
    }

    /// Heap bytes used.
    pub fn bytes(&self) -> usize {
        self.parent.capacity() * 4 + self.rank.capacity()
    }
}

/// The sets [`UnionFind::into_sets`] returns: one member list cut into
/// consecutive runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sets {
    /// `starts[k]..starts[k + 1]` is set `k`'s run in `members`.
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl Sets {
    /// The sets in first-member order, each ascending.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.starts
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }

    /// Heap bytes used.
    pub fn bytes(&self) -> usize {
        (self.starts.capacity() + self.members.capacity()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_find_themselves() {
        let mut uf = UnionFind::new(5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_makes_same() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        uf.union(1, 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 5));
    }

    #[test]
    fn union_returns_representative() {
        let mut uf = UnionFind::new(4);
        let r = uf.union(0, 1);
        assert_eq!(uf.find(0), r);
        assert_eq!(uf.find(1), r);
        let r2 = uf.union(1, 2);
        assert_eq!(uf.find(2), r2);
    }

    #[test]
    fn path_compression_flattens() {
        let mut uf = UnionFind::new(100);
        for i in 1..100 {
            uf.union(i - 1, i);
        }
        let root = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), root);
        }
    }

    #[test]
    fn sets_cover_the_given_elements() {
        let mut uf = UnionFind::new(8);
        uf.union(5, 3);
        uf.union(3, 0);
        uf.union(2, 1);
        let sets = uf.into_sets(vec![5, 3, 0, 1, 2, 6, 3]);
        let got: Vec<&[u32]> = sets.iter().collect();
        assert_eq!(got, vec![&[0, 3, 5][..], &[1, 2], &[6]]);
        assert_eq!(UnionFind::new(4).into_sets(Vec::new()).iter().count(), 0);
    }
}
