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

    /// Number of elements in the universe.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Add a fresh singleton element and return its index. The paper's
    /// algorithm needs this when breaking an interference mints a new name
    /// mid-run.
    pub fn push(&mut self) -> usize {
        let i = self.parent.len();
        self.parent.push(i as u32);
        self.rank.push(0);
        i
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

    /// Group all elements by representative: returns `(reps, groups)`
    /// where `groups[i]` lists the members of `reps[i]`'s set, each group
    /// in increasing element order. Singletons are included.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut by_rep: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for x in 0..n {
            let r = self.find(x);
            by_rep.entry(r).or_default().push(x);
        }
        let mut groups: Vec<Vec<usize>> = by_rep.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }

    /// Heap bytes used.
    pub fn bytes(&self) -> usize {
        self.parent.capacity() * 4 + self.rank.capacity()
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
    fn push_adds_singleton() {
        let mut uf = UnionFind::new(2);
        let x = uf.push();
        assert_eq!(x, 2);
        assert_eq!(uf.find(x), x);
        uf.union(x, 0);
        assert!(uf.same(x, 0));
    }

    #[test]
    fn groups_partition_universe() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 3);
        uf.union(3, 5);
        uf.union(1, 2);
        let groups = uf.groups();
        assert_eq!(groups.len(), 4); // {0,3,5} {1,2} {4} {6}
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 7);
        assert!(groups.iter().any(|g| g == &vec![0, 3, 5]));
        assert!(groups.iter().any(|g| g == &vec![1, 2]));
    }
}
