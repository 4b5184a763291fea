//! The [`Function`] container: blocks, instructions, and values.

use crate::entity::EntityMap;
use crate::entity_ref;
use crate::instr::{InstKind, PhiArg};

entity_ref!(
    /// A basic block reference.
    Block,
    "b"
);
entity_ref!(
    /// An instruction reference.
    Inst,
    "i"
);
entity_ref!(
    /// A virtual register. Before SSA construction a `Value` may have many
    /// definitions; in SSA form each has exactly one.
    Value,
    "v"
);

/// An instruction: an operation plus an optional destination register.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstData {
    /// What the instruction does.
    pub kind: InstKind,
    /// The register the instruction writes, if any.
    pub dst: Option<Value>,
}

impl InstData {
    /// Visit every value used by this instruction (φ args excluded; see
    /// [`InstKind::for_each_use`]).
    pub fn for_each_use(&self, f: impl FnMut(Value)) {
        self.kind.for_each_use(f)
    }
}

/// Payload of a basic block: its instructions in program order.
///
/// Invariants (checked by [`crate::verify::verify_function`]):
/// φ-nodes first, then ordinary instructions, then exactly one terminator.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BlockData {
    insts: Vec<Inst>,
}

/// A single function: the unit all analyses and transformations operate on.
///
/// Blocks, instructions, and values live in entity arenas owned by the
/// function. Deleting an instruction removes it from its block's list; the
/// arena slot stays behind (a tombstone) so existing references never
/// dangle.
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name, used by the printer/parser and the workload registry.
    pub name: String,
    /// Number of parameters the function expects.
    pub num_params: usize,
    insts: EntityMap<Inst, InstData>,
    blocks: EntityMap<Block, BlockData>,
    /// Blocks in layout (printing / iteration) order; entry is first.
    layout: Vec<Block>,
    entry: Option<Block>,
    num_values: usize,
    /// Modification epoch: advanced by every mutating edit, globally
    /// unique across all `Function` values in the process. Analyses
    /// cached against an epoch (see `fcc_analysis::AnalysisManager`) are
    /// valid exactly while `epoch()` still returns the same number.
    epoch: u64,
}

/// Epochs are drawn from one process-wide counter so that two functions
/// (or two diverged clones of one function) can never share an epoch
/// after a mutation — a cached analysis can therefore never be revived
/// by accident, even if a manager is reused across functions.
fn next_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Structural equality ignores the epoch: a rebuilt function with the
/// same code compares equal even though its edit history differs.
impl PartialEq for Function {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.num_params == other.num_params
            && self.insts == other.insts
            && self.blocks == other.blocks
            && self.layout == other.layout
            && self.entry == other.entry
            && self.num_values == other.num_values
    }
}

impl Eq for Function {}

impl Function {
    /// Create an empty function with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            num_params: 0,
            insts: EntityMap::new(),
            blocks: EntityMap::new(),
            layout: Vec::new(),
            entry: None,
            num_values: 0,
            epoch: next_epoch(),
        }
    }

    /// The current modification epoch. Any mutating call changes this.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the epoch: the function's code (possibly) changed, so all
    /// cached analyses are stale. Every `&mut self` editing method calls
    /// this; external callers only need it after mutating instruction
    /// payloads through long-lived raw pointers or similar exotica.
    pub fn bump_epoch(&mut self) {
        self.epoch = next_epoch();
    }

    // ----- creation -------------------------------------------------------

    /// Append a new, empty block to the layout. The first block created
    /// becomes the entry block.
    pub fn add_block(&mut self) -> Block {
        self.bump_epoch();
        let b = self.blocks.push(BlockData::default());
        self.layout.push(b);
        if self.entry.is_none() {
            self.entry = Some(b);
        }
        b
    }

    /// Mint a fresh virtual register.
    pub fn new_value(&mut self) -> Value {
        self.bump_epoch();
        let v = Value::new(self.num_values);
        self.num_values += 1;
        v
    }

    /// Number of virtual registers minted so far. All `Value` indices are
    /// below this bound, so it sizes dense side tables.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Grow the value space so that indices `0..n` are all valid. Used by
    /// the parser, where values appear by name in arbitrary order.
    pub fn ensure_value_capacity(&mut self, n: usize) {
        if n > self.num_values {
            self.bump_epoch();
            self.num_values = n;
        }
    }

    /// Number of blocks created so far (including any later emptied).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of instruction slots created so far (including tombstones).
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// The entry block.
    ///
    /// # Panics
    /// Panics if no block has been created yet.
    pub fn entry(&self) -> Block {
        self.entry.expect("function has no entry block")
    }

    /// Make `block` the entry. It must be in the layout; it is moved to
    /// the front so that `blocks()` always yields the entry first.
    ///
    /// # Panics
    /// Panics if `block` is not in the layout.
    pub fn set_entry(&mut self, block: Block) {
        self.bump_epoch();
        let pos = self
            .layout
            .iter()
            .position(|&b| b == block)
            .expect("entry must be a layout block");
        self.layout.remove(pos);
        self.layout.insert(0, block);
        self.entry = Some(block);
    }

    /// Remove `block` from the layout (the arena slot remains as a
    /// tombstone). Used to drop unreachable blocks.
    ///
    /// # Panics
    /// Panics if `block` is the entry.
    pub fn remove_block_from_layout(&mut self, block: Block) {
        assert!(Some(block) != self.entry, "cannot remove the entry block");
        self.bump_epoch();
        self.layout.retain(|&b| b != block);
    }

    // ----- instruction insertion -----------------------------------------

    /// Append an instruction to the end of `block`.
    pub fn append_inst(&mut self, block: Block, kind: InstKind, dst: Option<Value>) -> Inst {
        self.bump_epoch();
        let inst = self.insts.push(InstData { kind, dst });
        self.blocks[block].insts.push(inst);
        inst
    }

    /// Insert an instruction immediately before `block`'s terminator.
    ///
    /// # Panics
    /// Panics if the block has no terminator.
    pub fn insert_before_terminator(
        &mut self,
        block: Block,
        kind: InstKind,
        dst: Option<Value>,
    ) -> Inst {
        self.bump_epoch();
        let inst = self.insts.push(InstData { kind, dst });
        let insts = &mut self.blocks[block].insts;
        let term_pos = insts
            .iter()
            .position(|&i| self.insts[i].kind.is_terminator())
            .expect("block has no terminator");
        insts.insert(term_pos, inst);
        inst
    }

    /// Insert an ordinary instruction at the very front of `block`, before
    /// any φ-nodes. Used to materialise strictness initialisations in the
    /// entry block (which never has φs).
    pub fn prepend_inst(&mut self, block: Block, kind: InstKind, dst: Option<Value>) -> Inst {
        self.bump_epoch();
        let inst = self.insts.push(InstData { kind, dst });
        self.blocks[block].insts.insert(0, inst);
        inst
    }

    /// Insert an instruction at position `pos` within `block`'s
    /// instruction list. Used by spill-code insertion.
    ///
    /// # Panics
    /// Panics if `pos` is beyond the end of the block.
    pub fn insert_inst_at(
        &mut self,
        block: Block,
        pos: usize,
        kind: InstKind,
        dst: Option<Value>,
    ) -> Inst {
        self.bump_epoch();
        let inst = self.insts.push(InstData { kind, dst });
        self.blocks[block].insts.insert(pos, inst);
        inst
    }

    /// Allocate an instruction without linking it into any block. It takes
    /// the next instruction id, exactly as the inserting methods would;
    /// link it with [`Function::set_block_insts`]. Used by rewrites that
    /// place many instructions in one pass over a block.
    pub fn create_inst(&mut self, kind: InstKind, dst: Option<Value>) -> Inst {
        self.bump_epoch();
        self.insts.push(InstData { kind, dst })
    }

    /// Replace `block`'s instruction list, in program order.
    pub fn set_block_insts(&mut self, block: Block, insts: Vec<Inst>) {
        self.bump_epoch();
        self.blocks[block].insts = insts;
    }

    /// Insert a φ-node at the head of `block`.
    pub fn prepend_phi(&mut self, block: Block, args: Vec<PhiArg>, dst: Value) -> Inst {
        self.bump_epoch();
        let inst = self.insts.push(InstData {
            kind: InstKind::Phi { args },
            dst: Some(dst),
        });
        self.blocks[block].insts.insert(0, inst);
        inst
    }

    /// Remove `inst` from `block`'s instruction list (the arena slot
    /// remains as a tombstone).
    pub fn remove_inst(&mut self, block: Block, inst: Inst) {
        self.bump_epoch();
        self.blocks[block].insts.retain(|&i| i != inst);
    }

    /// Append an existing instruction (previously removed from another
    /// block) to the end of `block`. Used when merging blocks.
    pub fn relink_inst_at_end(&mut self, block: Block, inst: Inst) {
        self.bump_epoch();
        self.blocks[block].insts.push(inst);
    }

    /// Remove every instruction of `block` for which `pred` returns true.
    pub fn retain_insts(&mut self, block: Block, mut pred: impl FnMut(Inst, &InstData) -> bool) {
        self.bump_epoch();
        let insts = std::mem::take(&mut self.blocks[block].insts);
        self.blocks[block].insts = insts
            .into_iter()
            .filter(|&i| pred(i, &self.insts[i]))
            .collect();
    }

    // ----- access ---------------------------------------------------------

    /// Blocks in layout order (entry first).
    pub fn blocks(&self) -> impl DoubleEndedIterator<Item = Block> + '_ {
        self.layout.iter().copied()
    }

    /// The instructions of `block`, in program order.
    pub fn block_insts(&self, block: Block) -> &[Inst] {
        &self.blocks[block].insts
    }

    /// Shared access to an instruction.
    pub fn inst(&self, inst: Inst) -> &InstData {
        &self.insts[inst]
    }

    /// Rename every value that an instruction in a block defines or uses
    /// through `f`, as destruction does when it maps values to classes.
    pub fn rename_values(&mut self, f: impl Fn(Value) -> Value) {
        self.bump_epoch();
        for &b in &self.layout {
            for &inst in &self.blocks[b].insts {
                let data = &mut self.insts[inst];
                data.dst = data.dst.map(&f);
                data.kind.for_each_use_mut(|v| *v = f(*v));
            }
        }
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, inst: Inst) -> &mut InstData {
        // Conservative: handing out `&mut` counts as an edit.
        self.bump_epoch();
        &mut self.insts[inst]
    }

    /// The terminator of `block`, if it has one.
    pub fn terminator(&self, block: Block) -> Option<Inst> {
        self.blocks[block]
            .insts
            .last()
            .copied()
            .filter(|&i| self.insts[i].kind.is_terminator())
    }

    /// The successor blocks of `block` (empty if it ends in a return or is
    /// unterminated).
    pub fn successors(&self, block: Block) -> Vec<Block> {
        match self.terminator(block) {
            Some(t) => self.insts[t].kind.successors(),
            None => Vec::new(),
        }
    }

    /// Iterate over the φ-nodes at the head of `block`.
    pub fn block_phis(&self, block: Block) -> impl Iterator<Item = Inst> + '_ {
        self.blocks[block]
            .insts
            .iter()
            .copied()
            .take_while(move |&i| self.insts[i].kind.is_phi())
    }

    /// Total instructions currently linked into blocks.
    pub fn live_inst_count(&self) -> usize {
        self.layout
            .iter()
            .map(|&b| self.blocks[b].insts.len())
            .sum()
    }

    /// Count the `copy` instructions currently in the function — the
    /// paper's *static copies* metric (Table 5).
    pub fn static_copy_count(&self) -> usize {
        self.layout
            .iter()
            .flat_map(|&b| self.blocks[b].insts.iter())
            .filter(|&&i| self.insts[i].kind.is_copy())
            .count()
    }

    /// Count φ-nodes currently in the function.
    pub fn phi_count(&self) -> usize {
        self.layout
            .iter()
            .flat_map(|&b| self.blocks[b].insts.iter())
            .filter(|&&i| self.insts[i].kind.is_phi())
            .count()
    }

    /// Whether the function contains any φ-nodes.
    pub fn has_phis(&self) -> bool {
        self.phi_count() > 0
    }

    /// One past the highest spill-slot index named by any `spill`/`reload`
    /// instruction in layout order, or 0 when the function spills nothing.
    /// The interpreter sizes its slot storage from this, and the register
    /// allocator numbers fresh residual slots starting here.
    pub fn spill_slot_count(&self) -> u32 {
        let mut count = 0u32;
        for &b in &self.layout {
            for &i in &self.blocks[b].insts {
                if let crate::instr::InstKind::Spill { slot, .. }
                | crate::instr::InstKind::Reload { slot } = self.insts[i].kind
                {
                    count = count.max(slot + 1);
                }
            }
        }
        count
    }

    // ----- CFG edits ------------------------------------------------------

    /// Split the edge `pred → succ`: create a fresh block containing only a
    /// jump to `succ`, retarget `pred`'s terminator, and rewrite the
    /// predecessor keys of `succ`'s φ-nodes. Returns the new block.
    ///
    /// This is the standard fix for the *lost-copy problem* (Section 3.6):
    /// with no critical edges, a copy for a φ argument can always be placed
    /// at the end of the (possibly new) predecessor block.
    ///
    /// # Panics
    /// Panics if `pred` has no terminator or no edge to `succ`.
    pub fn split_edge(&mut self, pred: Block, succ: Block) -> Block {
        self.bump_epoch();
        let mid = self.add_block();
        self.append_inst(mid, InstKind::Jump { dst: succ }, None);

        let term = self.terminator(pred).expect("pred has no terminator");
        let mut retargeted = false;
        self.insts[term].kind.for_each_successor_mut(|d| {
            if *d == succ && !retargeted {
                *d = mid;
                retargeted = true;
            }
        });
        assert!(retargeted, "no edge {pred} -> {succ} to split");

        // Re-key succ's φ arguments from pred to the new middle block. A
        // branch can carry *two* edges to the same successor; splitting
        // one of them must leave the other's argument behind (duplicated
        // under the new key), or the second edge loses its value.
        let still_has_edge = self.insts[term].kind.successors().contains(&succ);
        let phis: Vec<Inst> = self.block_phis(succ).collect();
        for phi in phis {
            if let InstKind::Phi { args } = &mut self.insts[phi].kind {
                if still_has_edge {
                    let dup: Vec<PhiArg> = args
                        .iter()
                        .filter(|a| a.pred == pred)
                        .map(|a| PhiArg {
                            pred: mid,
                            value: a.value,
                        })
                        .collect();
                    args.extend(dup);
                } else {
                    for arg in args.iter_mut() {
                        if arg.pred == pred {
                            arg.pred = mid;
                        }
                    }
                }
            }
        }
        mid
    }

    /// Drop every block that is unreachable from the entry. Returns how
    /// many were removed. Passes that rewrite only reachable code (SSA
    /// construction in particular) call this first so no stale
    /// instructions survive in dead blocks.
    pub fn remove_unreachable_blocks(&mut self) -> usize {
        self.bump_epoch();
        let entry = self.entry();
        let mut reachable = vec![false; self.blocks.len()];
        reachable[entry.index()] = true;
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            for s in self.successors(b) {
                if !reachable[s.index()] {
                    reachable[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        let before = self.layout.len();
        self.layout.retain(|&b| reachable[b.index()]);
        // φ arguments keyed by now-dead predecessors must be dropped too.
        let layout = self.layout.clone();
        for &b in &layout {
            let phis: Vec<Inst> = self.block_phis(b).collect();
            for phi in phis {
                if let InstKind::Phi { args } = &mut self.insts[phi].kind {
                    args.retain(|a| reachable[a.pred.index()]);
                }
            }
        }
        before - self.layout.len()
    }

    /// Approximate heap footprint of the function body, in bytes.
    pub fn bytes(&self) -> usize {
        self.insts.bytes()
            + self.blocks.bytes()
            + self.layout.capacity() * std::mem::size_of::<Block>()
            + self
                .layout
                .iter()
                .map(|&b| self.blocks[b].insts.capacity() * std::mem::size_of::<Inst>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BinOp;

    fn tiny() -> (Function, Block, Block, Block) {
        // b0: v0 = const 1; branch v0, b1, b2
        // b1: jump b2
        // b2: return v0
        let mut f = Function::new("tiny");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let b2 = f.add_block();
        let v0 = f.new_value();
        f.append_inst(b0, InstKind::Const { imm: 1 }, Some(v0));
        f.append_inst(
            b0,
            InstKind::Branch {
                cond: v0,
                then_dst: b1,
                else_dst: b2,
            },
            None,
        );
        f.append_inst(b1, InstKind::Jump { dst: b2 }, None);
        f.append_inst(b2, InstKind::Return { val: Some(v0) }, None);
        (f, b0, b1, b2)
    }

    #[test]
    fn entry_is_first_block() {
        let (f, b0, _, _) = tiny();
        assert_eq!(f.entry(), b0);
        assert_eq!(f.blocks().next(), Some(b0));
    }

    #[test]
    fn successors_follow_terminators() {
        let (f, b0, b1, b2) = tiny();
        assert_eq!(f.successors(b0), vec![b1, b2]);
        assert_eq!(f.successors(b1), vec![b2]);
        assert!(f.successors(b2).is_empty());
    }

    #[test]
    fn insert_before_terminator_keeps_terminator_last() {
        let (mut f, b0, _, _) = tiny();
        let v = f.new_value();
        f.insert_before_terminator(b0, InstKind::Const { imm: 9 }, Some(v));
        let insts = f.block_insts(b0);
        assert_eq!(insts.len(), 3);
        assert!(f.inst(*insts.last().unwrap()).kind.is_terminator());
        assert_eq!(f.inst(insts[1]).dst, Some(v));
    }

    #[test]
    fn prepend_phi_goes_first() {
        let (mut f, _, _, b2) = tiny();
        let v = f.new_value();
        f.prepend_phi(b2, vec![], v);
        let head = f.block_insts(b2)[0];
        assert!(f.inst(head).kind.is_phi());
        assert_eq!(f.block_phis(b2).count(), 1);
    }

    #[test]
    fn split_edge_rewrites_phi_keys_and_branch() {
        let (mut f, b0, b1, b2) = tiny();
        let v = f.new_value();
        let v0 = Value::new(0);
        f.prepend_phi(
            b2,
            vec![
                PhiArg {
                    pred: b0,
                    value: v0,
                },
                PhiArg {
                    pred: b1,
                    value: v0,
                },
            ],
            v,
        );
        // The b0 -> b2 edge is critical (b0 has 2 succs, b2 has 2 preds).
        let mid = f.split_edge(b0, b2);
        assert_eq!(f.successors(b0), vec![b1, mid]);
        assert_eq!(f.successors(mid), vec![b2]);
        let phi = f.block_phis(b2).next().unwrap();
        match &f.inst(phi).kind {
            InstKind::Phi { args } => {
                let preds: Vec<Block> = args.iter().map(|a| a.pred).collect();
                assert!(preds.contains(&mid));
                assert!(!preds.contains(&b0));
                assert!(preds.contains(&b1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn split_duplicate_edge_keeps_other_args() {
        // branch with both arms to b1: splitting one edge must leave the
        // other edge's φ argument intact (regression: seed 276 of the
        // coalescer property suite).
        let mut f = Function::new("dup");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let v0 = f.new_value();
        f.append_inst(b0, InstKind::Const { imm: 1 }, Some(v0));
        f.append_inst(
            b0,
            InstKind::Branch {
                cond: v0,
                then_dst: b1,
                else_dst: b1,
            },
            None,
        );
        let p = f.new_value();
        f.prepend_phi(
            b1,
            vec![PhiArg {
                pred: b0,
                value: v0,
            }],
            p,
        );
        f.append_inst(b1, InstKind::Return { val: Some(p) }, None);

        let mid1 = f.split_edge(b0, b1);
        // The φ must now have args for BOTH mid1 and the remaining b0 edge.
        let phi = f.block_phis(b1).next().unwrap();
        let keys = |f: &Function, phi| match &f.inst(phi).kind {
            InstKind::Phi { args } => {
                let mut k: Vec<Block> = args.iter().map(|a| a.pred).collect();
                k.sort_unstable();
                k
            }
            _ => unreachable!(),
        };
        assert_eq!(keys(&f, phi), vec![b0, mid1]);

        let mid2 = f.split_edge(b0, b1);
        assert_eq!(keys(&f, phi), vec![mid1, mid2]);
        crate::verify::verify_function(&f).unwrap();
    }

    #[test]
    fn remove_unreachable_blocks_drops_dead_code() {
        let mut f = Function::new("dead");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let b2 = f.add_block(); // unreachable
        let v0 = f.new_value();
        f.append_inst(b0, InstKind::Const { imm: 1 }, Some(v0));
        f.append_inst(b0, InstKind::Jump { dst: b1 }, None);
        let p = f.new_value();
        f.prepend_phi(
            b1,
            vec![
                PhiArg {
                    pred: b0,
                    value: v0,
                },
                PhiArg {
                    pred: b2,
                    value: v0,
                },
            ],
            p,
        );
        f.append_inst(b1, InstKind::Return { val: Some(p) }, None);
        f.append_inst(b2, InstKind::Jump { dst: b1 }, None);

        assert_eq!(f.remove_unreachable_blocks(), 1);
        assert_eq!(f.blocks().count(), 2);
        // The stale φ key from b2 is gone too.
        let phi = f.block_phis(b1).next().unwrap();
        match &f.inst(phi).kind {
            InstKind::Phi { args } => assert_eq!(args.len(), 1),
            _ => unreachable!(),
        }
        crate::verify::verify_function(&f).unwrap();
    }

    #[test]
    fn static_copy_count_counts_only_copies() {
        let (mut f, b0, _, _) = tiny();
        let v0 = Value::new(0);
        let v = f.new_value();
        f.insert_before_terminator(b0, InstKind::Copy { src: v0 }, Some(v));
        let w = f.new_value();
        f.insert_before_terminator(
            b0,
            InstKind::Binary {
                op: BinOp::Add,
                a: v0,
                b: v,
            },
            Some(w),
        );
        assert_eq!(f.static_copy_count(), 1);
    }

    #[test]
    fn remove_inst_unlinks() {
        let (mut f, b0, _, _) = tiny();
        let v = f.new_value();
        let inst = f.insert_before_terminator(b0, InstKind::Const { imm: 3 }, Some(v));
        assert_eq!(f.block_insts(b0).len(), 3);
        f.remove_inst(b0, inst);
        assert_eq!(f.block_insts(b0).len(), 2);
    }

    #[test]
    fn retain_insts_filters() {
        let (mut f, b0, _, _) = tiny();
        let v = f.new_value();
        f.insert_before_terminator(b0, InstKind::Copy { src: Value::new(0) }, Some(v));
        f.retain_insts(b0, |_, data| !data.kind.is_copy());
        assert_eq!(f.static_copy_count(), 0);
        assert!(f.terminator(b0).is_some());
    }
}
