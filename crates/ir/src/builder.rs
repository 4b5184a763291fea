//! A convenience builder for constructing functions programmatically.
//!
//! The builder tracks a current insertion block and mints destination
//! values, so straight-line construction reads like assembly:
//!
//! ```
//! use fcc_ir::builder::FunctionBuilder;
//! use fcc_ir::instr::BinOp;
//!
//! let mut b = FunctionBuilder::new("add2", 2);
//! let entry = b.create_block();
//! b.switch_to(entry);
//! let x = b.param(0);
//! let y = b.param(1);
//! let s = b.binary(BinOp::Add, x, y);
//! b.ret(Some(s));
//! let func = b.finish();
//! assert_eq!(func.num_params, 2);
//! ```

use crate::function::{Block, Function, Value};
use crate::instr::{BinOp, InstKind, PhiArg, UnaryOp};

/// Builder state: a function under construction plus the current block.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: Option<Block>,
}

impl FunctionBuilder {
    /// Start building a function with `num_params` parameters.
    pub fn new(name: impl Into<String>, num_params: usize) -> Self {
        let mut func = Function::new(name);
        func.num_params = num_params;
        FunctionBuilder {
            func,
            current: None,
        }
    }

    /// Create a new block (the first one becomes the entry).
    pub fn create_block(&mut self) -> Block {
        self.func.add_block()
    }

    /// Make `block` the insertion point for subsequent instructions.
    pub fn switch_to(&mut self, block: Block) {
        self.current = Some(block);
    }

    /// The current insertion block.
    ///
    /// # Panics
    /// Panics if [`switch_to`](Self::switch_to) has not been called.
    pub fn current_block(&self) -> Block {
        self.current
            .expect("no current block; call switch_to first")
    }

    /// Mint a fresh value without emitting an instruction.
    pub fn new_value(&mut self) -> Value {
        self.func.new_value()
    }

    fn emit(&mut self, kind: InstKind, dst: Option<Value>) -> Option<Value> {
        let block = self.current_block();
        self.func.append_inst(block, kind, dst);
        dst
    }

    fn emit_def(&mut self, kind: InstKind) -> Value {
        let dst = self.func.new_value();
        self.emit(kind, Some(dst));
        dst
    }

    /// Emit `dst = param index`.
    pub fn param(&mut self, index: usize) -> Value {
        self.emit_def(InstKind::Param { index })
    }

    /// Emit `dst = const imm`.
    pub fn iconst(&mut self, imm: i64) -> Value {
        self.emit_def(InstKind::Const { imm })
    }

    /// Emit `dst = copy src` into a fresh destination.
    pub fn copy(&mut self, src: Value) -> Value {
        self.emit_def(InstKind::Copy { src })
    }

    /// Emit `dst = copy src` into an existing destination register. This is
    /// how pre-SSA code assigns source variables.
    pub fn copy_to(&mut self, dst: Value, src: Value) {
        self.emit(InstKind::Copy { src }, Some(dst));
    }

    /// Emit a unary operation into a fresh destination.
    pub fn unary(&mut self, op: UnaryOp, a: Value) -> Value {
        self.emit_def(InstKind::Unary { op, a })
    }

    /// Emit a binary operation into a fresh destination.
    pub fn binary(&mut self, op: BinOp, a: Value, b: Value) -> Value {
        self.emit_def(InstKind::Binary { op, a, b })
    }

    /// Emit a binary operation into an existing destination register.
    pub fn binary_to(&mut self, dst: Value, op: BinOp, a: Value, b: Value) {
        self.emit(InstKind::Binary { op, a, b }, Some(dst));
    }

    /// Emit a constant into an existing destination register.
    pub fn iconst_to(&mut self, dst: Value, imm: i64) {
        self.emit(InstKind::Const { imm }, Some(dst));
    }

    /// Emit `dst = load addr`.
    pub fn load(&mut self, addr: Value) -> Value {
        self.emit_def(InstKind::Load { addr })
    }

    /// Emit a load into an existing destination register.
    pub fn load_to(&mut self, dst: Value, addr: Value) {
        self.emit(InstKind::Load { addr }, Some(dst));
    }

    /// Emit `store addr, val`.
    pub fn store(&mut self, addr: Value, val: Value) {
        self.emit(InstKind::Store { addr, val }, None);
    }

    /// Emit a φ-node at the head of `block` with the given destination.
    pub fn phi_in(&mut self, block: Block, args: Vec<PhiArg>, dst: Value) {
        self.func.prepend_phi(block, args, dst);
    }

    /// Terminate the current block with `branch cond, then_dst, else_dst`.
    pub fn branch(&mut self, cond: Value, then_dst: Block, else_dst: Block) {
        self.emit(
            InstKind::Branch {
                cond,
                then_dst,
                else_dst,
            },
            None,
        );
    }

    /// Terminate the current block with `jump dst`.
    pub fn jump(&mut self, dst: Block) {
        self.emit(InstKind::Jump { dst }, None);
    }

    /// Terminate the current block with `return`.
    pub fn ret(&mut self, val: Option<Value>) {
        self.emit(InstKind::Return { val }, None);
    }

    /// Finish building and return the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Access the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_function;

    #[test]
    fn builds_verifiable_loop() {
        // while (i < n) i = i + 1; return i
        let mut b = FunctionBuilder::new("count", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();

        b.switch_to(entry);
        let n = b.param(0);
        let i = b.new_value();
        b.iconst_to(i, 0);
        b.jump(header);

        b.switch_to(header);
        let c = b.binary(BinOp::Lt, i, n);
        b.branch(c, body, exit);

        b.switch_to(body);
        let one = b.iconst(1);
        b.binary_to(i, BinOp::Add, i, one);
        b.jump(header);

        b.switch_to(exit);
        b.ret(Some(i));

        let f = b.finish();
        verify_function(&f).expect("builder output verifies");
        assert_eq!(f.blocks().count(), 4);
    }

    #[test]
    #[should_panic(expected = "no current block")]
    fn emitting_without_block_panics() {
        let mut b = FunctionBuilder::new("oops", 0);
        b.iconst(1);
    }

    #[test]
    fn copy_to_reuses_destination() {
        let mut b = FunctionBuilder::new("c", 0);
        let e = b.create_block();
        b.switch_to(e);
        let x = b.iconst(5);
        let y = b.new_value();
        b.copy_to(y, x);
        b.ret(Some(y));
        let f = b.finish();
        assert_eq!(f.static_copy_count(), 1);
        verify_function(&f).unwrap();
    }
}
