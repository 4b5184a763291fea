//! Live-range identification by φ-web unioning (Chaitin/Briggs step 2).
//!
//! The classical register-allocator pipeline the paper compares against
//! (Section 4.1) starts from SSA built **without** copy folding: every φ
//! then joins versions of a single source variable, and those versions
//! never interfere — so the webs can be renamed to one name apiece with
//! *no* copy insertion. The program keeps all of its original copy
//! instructions; coalescing them is the job of
//! [`crate::briggs`].

use fcc_analysis::UnionFind;
use fcc_ir::{Function, Inst, InstKind, Value};
use fcc_ssa::trace::DestructionTrace;

/// Counters from φ-web destruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WebStats {
    /// φ-nodes removed.
    pub phis_removed: usize,
    /// Multi-member webs found.
    pub webs: usize,
    /// Values folded into a web name.
    pub members_renamed: usize,
}

/// Union every φ destination with its arguments and rewrite the function
/// into the web namespace, deleting the φs.
///
/// This is live-range identification exactly as a Chaitin/Briggs
/// allocator performs it. It is **only sound on SSA built without copy
/// folding** (each web then corresponds to one source variable, and its
/// members cannot interfere); for folded SSA use
/// `fcc_core::coalesce_ssa`, which breaks interfering webs apart.
pub fn destruct_via_webs(func: &mut Function) -> WebStats {
    destruct_via_webs_impl(func, false).0
}

/// [`destruct_via_webs`], additionally returning the
/// [`DestructionTrace`] (snapshot, web class map, and an empty
/// `Waiting` array — web unioning inserts no copies) for the
/// `fcc-lint` soundness auditor. On SSA built *with* copy folding the
/// audit reports the interferences that make this path unsound there —
/// the failure mode the paper's algorithm exists to avoid.
pub fn destruct_via_webs_traced(func: &mut Function) -> (WebStats, DestructionTrace) {
    let (stats, trace) = destruct_via_webs_impl(func, true);
    (stats, trace.expect("trace requested"))
}

fn destruct_via_webs_impl(
    func: &mut Function,
    want_trace: bool,
) -> (WebStats, Option<DestructionTrace>) {
    let pre = want_trace.then(|| func.clone());
    let mut stats = WebStats::default();
    let n = func.num_values();
    let mut uf = UnionFind::new(n);

    let mut phis: Vec<(fcc_ir::Block, Inst)> = Vec::new();
    // Every value a φ names: the only ones the unions touch.
    let mut phi_values: Vec<u32> = Vec::new();
    for b in func.blocks() {
        for phi in func.block_phis(b) {
            let data = func.inst(phi);
            let p = data.dst.expect("phi defines");
            if let InstKind::Phi { args } = &data.kind {
                phi_values.push(p.index() as u32);
                for a in args {
                    uf.union(p.index(), a.value.index());
                    phi_values.push(a.value.index() as u32);
                }
            }
            phis.push((b, phi));
        }
    }

    // Name each set after its lowest-numbered member.
    let mut name: Vec<Value> = (0..n).map(Value::new).collect();
    for web in uf.into_sets(phi_values).iter() {
        if web.len() > 1 {
            stats.webs += 1;
            stats.members_renamed += web.len();
            let rep = Value::new(web[0] as usize);
            for &m in web {
                name[m as usize] = rep;
            }
        }
    }

    func.rename_values(|v| name[v.index()]);

    for (b, phi) in phis {
        func.remove_inst(b, phi);
        stats.phis_removed += 1;
    }
    let trace = pre.map(|pre| DestructionTrace {
        pre,
        class_of: name,
        waiting: Some(Vec::new()),
    });
    (stats, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::verify::verify_function;
    use fcc_ssa::{build_ssa, SsaFlavor};

    const SRC: &str = "
        function @sum(1) {
        b0:
            v0 = param 0
            v1 = const 0
            v2 = const 0
            jump b1
        b1:
            v3 = lt v2, v0
            branch v3, b2, b3
        b2:
            v4 = copy v1
            v1 = add v4, v2
            v5 = const 1
            v2 = add v2, v5
            jump b1
        b3:
            return v1
        }";

    #[test]
    fn webs_restore_copyful_cfg_code() {
        let mut f = parse_function(SRC).unwrap();
        let reference = fcc_interp::run(&f, &[6]).unwrap();
        let copies_before = f.static_copy_count();
        build_ssa(&mut f, SsaFlavor::Pruned, false);
        let stats = destruct_via_webs(&mut f);
        assert!(!f.has_phis());
        assert!(stats.webs >= 1);
        verify_function(&f).unwrap();
        // No copies inserted; the original copy is still there.
        assert_eq!(f.static_copy_count(), copies_before);
        let out = fcc_interp::run(&f, &[6]).unwrap();
        assert_eq!(reference.behavior(), out.behavior());
        assert_eq!(out.ret, Some(15));
    }

    #[test]
    fn phi_free_function_unchanged() {
        let mut f = parse_function("function @id(1) {\nb0:\n v0 = param 0\n return v0\n}").unwrap();
        let before = f.to_string();
        let stats = destruct_via_webs(&mut f);
        assert_eq!(stats.webs, 0);
        assert_eq!(before, f.to_string());
    }

    #[test]
    fn diamond_web_single_name() {
        let mut f = parse_function(
            "function @sel(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 branch v0, b1, b2
             b1:
                 v1 = const 10
                 jump b3
             b2:
                 v1 = const 20
                 jump b3
             b3:
                 return v1
             }",
        )
        .unwrap();
        let r = fcc_interp::run(&f, &[1]).unwrap();
        build_ssa(&mut f, SsaFlavor::Pruned, false);
        assert!(f.has_phis());
        destruct_via_webs(&mut f);
        let out = fcc_interp::run(&f, &[1]).unwrap();
        assert_eq!(r.behavior(), out.behavior());
        assert_eq!(out.ret, Some(10));
    }
}
