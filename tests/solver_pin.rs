//! Pins the sparse solver's exact behaviour: for each lattice, the total
//! work (`Solution::steps`) and a digest of every fact, executable block
//! and executable edge, over the 34 kernels and 200 generated programs.
//!
//! The numbers are the reference solver's (the original hash-map core).
//! Any reworking of the solver must reproduce them bit for bit, through
//! `solve` and through `FunctionAnalysis::compute`, which shares one
//! per-function structure across the two lattices. A deliberate change
//! to what the solver computes re-pins them here.

use std::fmt::Debug;

use fcc::dataflow::{solve, BitsAnalysis, Lattice, RangeAnalysis, Solution};
use fcc::prelude::*;
use fcc::workloads::{compile_kernel, generate, kernels, GenConfig};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Σ steps and a running digest for one lattice over a corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    steps: usize,
    digest: u64,
}

fn absorb<F: Lattice + Debug>(func: &Function, sol: &Solution<F>, h: &mut Fnv) {
    for v in 0..func.num_values() {
        h.bytes(format!("{:?};", sol.fact(Value::new(v))).as_bytes());
    }
    for b in func.blocks() {
        h.bytes(&[b'b', sol.block_executable(b) as u8]);
        for s in func.successors(b) {
            h.bytes(&[b'e', sol.edge_executable(b, s) as u8]);
        }
    }
}

/// `[ranges, bits]` pins over `funcs`, solved one lattice at a time
/// through `solve` and both together through `FunctionAnalysis`.
fn pins(funcs: &[Function]) -> [Pin; 2] {
    let mut hashes = [Fnv::new(), Fnv::new()];
    let mut shared = [Fnv::new(), Fnv::new()];
    let mut steps = [0usize; 2];
    for func in funcs {
        let mut am = AnalysisManager::new();
        let ranges = solve(func, &mut am, &RangeAnalysis);
        let bits = solve(func, &mut am, &BitsAnalysis);
        steps[0] += ranges.steps;
        steps[1] += bits.steps;
        absorb(func, &ranges, &mut hashes[0]);
        absorb(func, &bits, &mut hashes[1]);

        let fa = FunctionAnalysis::compute(func, &mut AnalysisManager::new());
        assert_eq!(
            [fa.ranges.steps, fa.bits.steps],
            [ranges.steps, bits.steps],
            "@{}: the shared solve did different work",
            func.name
        );
        absorb(func, &fa.ranges, &mut shared[0]);
        absorb(func, &fa.bits, &mut shared[1]);
    }
    for (one, all) in hashes.iter().zip(&shared) {
        assert_eq!(one.0, all.0, "FunctionAnalysis disagrees with solve");
    }
    [0, 1].map(|i| Pin {
        steps: steps[i],
        digest: hashes[i].0,
    })
}

fn ssa(mut func: Function) -> Function {
    build_ssa_with(
        &mut func,
        SsaFlavor::Pruned,
        true,
        &mut AnalysisManager::new(),
    );
    func
}

#[test]
fn dense_core_reproduces_the_kernel_fixpoints() {
    let funcs: Vec<Function> = kernels().iter().map(|k| ssa(compile_kernel(k))).collect();
    assert_eq!(funcs.len(), 34);
    let got = pins(&funcs);
    let want = [
        Pin {
            steps: 24748,
            digest: 0x6c40e9be7a65315a,
        },
        Pin {
            steps: 19803,
            digest: 0x005c5f3a689a1364,
        },
    ];
    assert_eq!(got, want);
}

#[test]
fn dense_core_reproduces_the_generated_fixpoints() {
    let cfg = GenConfig::default();
    let funcs: Vec<Function> = (0..200)
        .map(|seed| {
            let prog = generate(seed, &cfg);
            ssa(fcc::frontend::lower_program(&prog).expect("generated programs lower"))
        })
        .collect();
    let got = pins(&funcs);
    let want = [
        Pin {
            steps: 273589,
            digest: 0xb0f52b0fdf43ff9d,
        },
        Pin {
            steps: 277362,
            digest: 0x8361f66eecb184fd,
        },
    ];
    assert_eq!(got, want);
}
