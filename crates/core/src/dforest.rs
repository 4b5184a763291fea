//! The dominance forest (Definition 3.1, Figure 1).
//!
//! Given a set `S` of SSA values, the dominance forest collapses the
//! dominator-tree paths between their definition blocks: there is an edge
//! `u → v` iff `u`'s block strictly dominates `v`'s with no other member
//! in between. Lemma 3.1 then licenses checking interference along forest
//! edges *only*: if a parent does not interfere with its child, it cannot
//! interfere with anything below that child. This replaces the quadratic
//! pairwise comparison inside a candidate congruence class with a linear
//! scan.
//!
//! Construction is the paper's Figure 1: number the dominator tree in
//! depth-first preorder, record each node's maximum descendant preorder
//! (Tarjan's O(1) ancestry trick, computed once per function by
//! [`fcc_analysis::DomTree`]), order the members by preorder, and sweep
//! once with a stack rooted at a virtual root. The paper radix sorts the
//! members; here the coalescer hands each class over already in
//! (preorder, position) order, and [`DominanceForest::build`] sorts only
//! when its input is not, so a class costs one check and one sweep.
//!
//! One extension: the coalescer may hold several members defined in the
//! *same* block (classes merge transitively across φs, so Definition
//! 3.1's distinct-blocks premise can be violated). Members of one block
//! are chained parent→child in definition order, which is precisely the
//! shape the Figure 2 walk expects for its "same defining block" case.

use fcc_analysis::DomTree;
use fcc_ir::{Block, Value};

/// One member of a dominance forest.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DfNode {
    /// The SSA value this node stands for.
    pub value: Value,
    /// The block containing the value's definition.
    pub block: Block,
    /// Position of the definition within its block (instruction index).
    pub def_pos: u32,
    /// Index of the parent node within the forest, if any.
    pub parent: Option<usize>,
    /// Indices of child nodes.
    pub children: Vec<usize>,
}

/// A dominance forest over one candidate congruence class.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DominanceForest {
    nodes: Vec<DfNode>,
}

impl DominanceForest {
    /// Build the dominance forest of `members`, each given as
    /// `(value, defining block, definition position)`.
    ///
    /// Members must have reachable defining blocks. The order of `members`
    /// is irrelevant; nodes come out in (preorder, position) order, which
    /// is also a valid top-down traversal order. Members already in that
    /// order are swept as given, without a sort.
    pub fn build(members: &[(Value, Block, u32)], dt: &DomTree) -> Self {
        // Sweep in (preorder of def block, def position) order; sort a
        // copy, stably, only when the caller did not.
        let key = |&(_, b, pos): &(Value, Block, u32)| (dt.preorder(b), pos);
        let sorted: Vec<(Value, Block, u32)>;
        let members = if members.is_sorted_by_key(key) {
            members
        } else {
            let mut copy = members.to_vec();
            copy.sort_by_key(key);
            sorted = copy;
            &sorted
        };

        let mut nodes: Vec<DfNode> = Vec::with_capacity(members.len());
        // Stack of open ancestors, as indices into `nodes`; the virtual
        // root is represented by an empty-slot sentinel handled below.
        let mut stack: Vec<usize> = Vec::new();

        for &(value, block, def_pos) in members {
            let pre = dt.preorder(block);
            // Pop ancestors that cannot dominate this member: the member's
            // preorder lies outside their descendant bracket. Same-block
            // entries share a preorder and therefore never pop each other,
            // which chains them in definition order.
            while let Some(&top) = stack.last() {
                let tb = nodes[top].block;
                if pre > dt.max_preorder(tb) {
                    stack.pop();
                } else {
                    break;
                }
            }
            let parent = stack.last().copied();
            let idx = nodes.len();
            nodes.push(DfNode {
                value,
                block,
                def_pos,
                parent,
                children: Vec::new(),
            });
            if let Some(p) = parent {
                nodes[p].children.push(idx);
            }
            stack.push(idx);
        }

        DominanceForest { nodes }
    }

    /// The nodes in (preorder, definition-position) order.
    pub fn nodes(&self) -> &[DfNode] {
        &self.nodes
    }

    /// Approximate heap bytes used.
    pub fn bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<DfNode>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.capacity() * 8)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::ControlFlowGraph;

    /// A dominator tree shaped like:
    /// b0 → {b1, b4}; b1 → {b2, b3}
    const TREE: &str = "
        function @t(0) {
        b0:
            v0 = const 1
            branch v0, b1, b4
        b1:
            branch v0, b2, b3
        b2:
            jump b4
        b3:
            jump b4
        b4:
            return
        }";

    fn dt_for(text: &str) -> (fcc_ir::Function, DomTree) {
        let f = parse_function(text).unwrap();
        let cfg = ControlFlowGraph::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        (f, dt)
    }

    fn forest(members: &[(usize, usize, u32)], dt: &DomTree) -> DominanceForest {
        let ms: Vec<(Value, Block, u32)> = members
            .iter()
            .map(|&(v, b, p)| (Value::new(v), Block::new(b), p))
            .collect();
        DominanceForest::build(&ms, dt)
    }

    /// Naive O(n²) reference: parent of v = the member whose block is the
    /// *nearest* strict dominator (or earlier same-block definition).
    fn naive_parent(members: &[(Value, Block, u32)], i: usize, dt: &DomTree) -> Option<Value> {
        let (_, bi, pi) = members[i];
        let mut best: Option<(usize, u32, u32)> = None; // (idx, preorder, pos)
        for (j, &(_, bj, pj)) in members.iter().enumerate() {
            if j == i {
                continue;
            }
            let dominates = if bj == bi {
                pj < pi
            } else {
                dt.strictly_dominates(bj, bi)
            };
            if !dominates {
                continue;
            }
            let key = (dt.preorder(bj), pj);
            if best.is_none_or(|(_, bp, bpos)| key > (bp, bpos)) {
                best = Some((j, key.0, key.1));
            }
        }
        best.map(|(j, _, _)| members[j].0)
    }

    fn check_against_naive(members: &[(usize, usize, u32)], dt: &DomTree) {
        let ms: Vec<(Value, Block, u32)> = members
            .iter()
            .map(|&(v, b, p)| (Value::new(v), Block::new(b), p))
            .collect();
        let df = DominanceForest::build(&ms, dt);
        assert_eq!(df.nodes().len(), ms.len());
        for node in df.nodes() {
            let i = ms.iter().position(|&(v, _, _)| v == node.value).unwrap();
            let expect = naive_parent(&ms, i, dt);
            let got = node.parent.map(|p| df.nodes()[p].value);
            assert_eq!(got, expect, "parent of {} in {members:?}", node.value);
        }
    }

    #[test]
    fn chain_collapses_to_path() {
        let (_, dt) = dt_for(TREE);
        // Members in b0, b1, b2: a dominator-tree path.
        check_against_naive(&[(0, 0, 0), (1, 1, 0), (2, 2, 0)], &dt);
    }

    #[test]
    fn siblings_share_parent() {
        let (_, dt) = dt_for(TREE);
        // b2 and b3 are siblings under b1.
        let df = forest(&[(1, 1, 0), (2, 2, 0), (3, 3, 0)], &dt);
        let root: Vec<usize> = (0..df.nodes().len())
            .filter(|&i| df.nodes()[i].parent.is_none())
            .collect();
        assert_eq!(root.len(), 1);
        assert_eq!(df.nodes()[root[0]].children.len(), 2);
        check_against_naive(&[(1, 1, 0), (2, 2, 0), (3, 3, 0)], &dt);
    }

    #[test]
    fn unrelated_blocks_make_roots() {
        let (_, dt) = dt_for(TREE);
        // b2 and b3 don't dominate each other: two roots.
        let df = forest(&[(2, 2, 0), (3, 3, 0)], &dt);
        assert_eq!(df.nodes().iter().filter(|n| n.parent.is_none()).count(), 2);
    }

    #[test]
    fn skipping_intermediate_blocks() {
        let (_, dt) = dt_for(TREE);
        // Members in b0 and b2 (b1 not a member): edge collapses b1.
        let df = forest(&[(0, 0, 0), (2, 2, 0)], &dt);
        let nodes = df.nodes();
        assert_eq!(nodes[0].value, Value::new(0));
        assert_eq!(nodes[1].parent, Some(0));
        check_against_naive(&[(0, 0, 0), (2, 2, 0)], &dt);
    }

    #[test]
    fn join_block_member_not_under_branch_members() {
        let (_, dt) = dt_for(TREE);
        // b4 is dominated only by b0 (join point), so with members in
        // b1, b2, b4 the b4 node must be a root (b1 doesn't dominate b4).
        check_against_naive(&[(1, 1, 0), (2, 2, 0), (4, 4, 0)], &dt);
    }

    #[test]
    fn same_block_members_chain_in_def_order() {
        let (_, dt) = dt_for(TREE);
        let df = forest(&[(10, 1, 5), (11, 1, 2), (12, 1, 8)], &dt);
        let nodes = df.nodes();
        // Sorted by position: 11 (pos 2) -> 10 (pos 5) -> 12 (pos 8).
        assert_eq!(nodes[0].value, Value::new(11));
        assert_eq!(nodes[1].value, Value::new(10));
        assert_eq!(nodes[2].value, Value::new(12));
        assert_eq!(nodes[1].parent, Some(0));
        assert_eq!(nodes[2].parent, Some(1));
    }

    #[test]
    fn mixed_same_block_and_dominance() {
        let (_, dt) = dt_for(TREE);
        check_against_naive(
            &[(0, 0, 0), (1, 1, 1), (2, 1, 4), (3, 2, 0), (4, 4, 0)],
            &dt,
        );
    }

    #[test]
    fn empty_and_singleton() {
        let (_, dt) = dt_for(TREE);
        let df = forest(&[], &dt);
        assert!(df.nodes().is_empty());
        let df1 = forest(&[(7, 3, 0)], &dt);
        assert_eq!(df1.nodes().len(), 1);
        assert_eq!(df1.nodes()[0].parent, None);
    }
}
