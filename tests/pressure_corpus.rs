//! The pressure layer over the whole kernel suite: pinned MaxLive and
//! spill-cost totals for every bundled kernel, the chordality certifier
//! accepting everywhere with ω = χ = MaxLive, the k-feasibility auditor
//! accepting real allocator output and rejecting corrupted colourings,
//! and the `maxlive` column in the batch report tables.

use fcc::prelude::*;
use fcc::pressure::{
    audit_allocation, RULE_ALLOC_CLASH, RULE_ALLOC_PRESSURE, RULE_ALLOC_RANGE,
    RULE_ALLOC_SLOT_CLASH, RULE_ALLOC_SLOT_RANGE, RULE_ALLOC_SLOT_UNINIT, RULE_ALLOC_UNCOLORED,
};

/// MaxLive and loop-weighted spill-cost total per kernel, measured on
/// optimised pruned SSA (copy folding on, standard pipeline). Regenerate
/// with `cargo run -p fcc-bench --bin pressure` when the optimiser or
/// the kernels intentionally change.
const PINNED: &[(&str, u32, &str)] = &[
    ("saxpy", 6, "741"),
    ("tomcatv", 22, "340026"),
    ("blts", 8, "8153"),
    ("buts", 8, "8636"),
    ("getbx", 7, "1165"),
    ("twldrv", 10, "12076"),
    ("smoothx", 8, "9330"),
    ("rhs", 10, "17883"),
    ("parmvrx", 8, "11209"),
    ("initx", 5, "1678"),
    ("fieldx", 8, "962910"),
    ("parmovx", 6, "6360"),
    ("radfgx", 6, "10762"),
    ("radbgx", 6, "10892"),
    ("parmvex", 8, "6948"),
    ("jacld", 11, "12981"),
    ("fpppp", 8, "1743"),
    ("advbndx", 7, "16015"),
    ("deseco", 8, "1603"),
    ("zeroin", 11, "1758"),
    ("fmin", 8, "961"),
    ("spline", 9, "1979"),
    ("seval", 9, "3959"),
    ("quanc8", 11, "1665"),
    ("rkf45", 12, "2162"),
    ("decomp", 12, "61372"),
    ("solve", 7, "12708"),
    ("urand", 9, "1021"),
    ("svd", 12, "1262825"),
    ("smooth", 8, "143233"),
    ("clampx", 6, "547"),
    ("spillx", 4, "186"),
    ("scratchx", 5, "548"),
    ("stencilx", 6, "698"),
];

/// The measurement path shared with `fcc pressure --opt` and the bench
/// table: optimised pruned SSA, summarised through the manager cache.
fn summarize_kernel(k: &fcc::workloads::Kernel) -> (Function, AnalysisManager, PressureSummary) {
    let mut func = fcc::workloads::compile_kernel(k);
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
    fcc::opt::standard_pipeline().run(&mut func, &mut am);
    verify_ssa(&func).expect("optimised kernel stays valid SSA");
    let s = summarize(&func, &mut am)
        .unwrap_or_else(|e| panic!("{}: certification failed: {e}", k.name));
    (func, am, s)
}

#[test]
fn pinned_maxlive_and_spill_costs_over_the_suite() {
    let kernels = fcc::workloads::kernels();
    assert_eq!(kernels.len(), PINNED.len(), "pin table out of date");
    for (k, &(name, maxlive, spill)) in kernels.iter().zip(PINNED) {
        assert_eq!(k.name, name, "kernel order changed");
        let (_, _, s) = summarize_kernel(k);
        assert_eq!(s.maxlive, maxlive, "{name}: MaxLive drifted");
        assert_eq!(
            format!("{:.0}", s.spill_total),
            spill,
            "{name}: spill-cost total drifted"
        );
        // The certificate must agree exactly: the interference graph is
        // chordal, so MaxLive registers are necessary and sufficient.
        assert_eq!(s.omega, s.maxlive, "{name}: clique witness");
        assert_eq!(s.colors, s.maxlive, "{name}: greedy colouring");
    }
}

#[test]
fn auditor_accepts_every_allocator_output_that_fits() {
    for k in fcc::workloads::kernels() {
        let mut base = fcc::workloads::compile_kernel(k);
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut base, SsaFlavor::Pruned, true, &mut am);
        coalesce_ssa_managed(&mut base, &CoalesceOptions::default(), &mut am);
        assert!(!base.has_phis());
        for registers in [4usize, 8, 16] {
            let mut func = base.clone();
            let alloc = match allocate(&mut func, &AllocOptions { registers }) {
                Ok(a) => a,
                Err(e) => panic!("{} (k={registers}): allocation failed: {e:?}", k.name),
            };
            let kk = registers as u32;
            assert!(
                alloc.registers_used() <= kk,
                "{} (k={registers}): allocator used {} registers",
                k.name,
                alloc.registers_used()
            );
            let diags = audit_allocation(&func, &alloc.coloring, kk, func.spill_slot_count());
            assert!(
                diags.is_empty(),
                "{} (k={registers}): auditor rejected real allocator output:\n{:#?}",
                k.name,
                diags
            );
        }
    }
}

#[test]
fn auditor_rejects_corrupted_allocations() {
    let k = fcc::workloads::kernel("saxpy").unwrap();
    let mut func = fcc::workloads::compile_kernel(k);
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
    coalesce_ssa_managed(&mut func, &CoalesceOptions::default(), &mut am);
    let alloc = allocate(&mut func, &AllocOptions { registers: 8 })
        .expect("saxpy allocates in 8 registers");
    assert!(audit_allocation(&func, &alloc.coloring, 8, func.spill_slot_count()).is_empty());

    // Everyone in register 0: values live together now clash.
    let mut clashed = alloc.coloring.clone();
    for c in clashed.values_mut() {
        *c = 0;
    }
    let diags = audit_allocation(&func, &clashed, 8, func.spill_slot_count());
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_CLASH),
        "flattened colouring not flagged: {diags:#?}"
    );

    // One value banished to a register beyond the target.
    let victim = *alloc.coloring.keys().min_by_key(|v| v.index()).unwrap();
    let mut ranged = alloc.coloring.clone();
    ranged.insert(victim, 99);
    let diags = audit_allocation(&func, &ranged, 8, func.spill_slot_count());
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_RANGE),
        "out-of-range register not flagged: {diags:#?}"
    );

    // One live value with no register at all.
    let mut missing = alloc.coloring.clone();
    missing.remove(&victim);
    let diags = audit_allocation(&func, &missing, 8, func.spill_slot_count());
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_UNCOLORED),
        "uncoloured value not flagged: {diags:#?}"
    );

    // A 6-pressure function audited against k = 4: infeasible from
    // liveness alone, before any colour is even inspected.
    let diags = audit_allocation(&func, &alloc.coloring, 4, func.spill_slot_count());
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_PRESSURE),
        "over-pressure point not flagged: {diags:#?}"
    );
}

/// The slot rules from the same auditor: slot indices must fit the
/// claimed budget, no two values may share a slot, and every reload must
/// be covered by a spill on every path. Corrupted spill code is text;
/// these corruptions are handwritten programs, not allocator mutations.
#[test]
fn auditor_rejects_corrupted_spill_code() {
    use fcc::ir::parse::parse_function;
    use std::collections::HashMap;

    let audit = |text: &str, slots: u32| {
        let func = parse_function(text).unwrap();
        let coloring: HashMap<fcc::ir::Value, u32> = (0..func.num_values())
            .map(|i| (fcc::ir::Value::new(i), i as u32))
            .collect();
        audit_allocation(&func, &coloring, 16, slots)
    };

    // Honest spill code: one value, one slot, reload dominated by spill.
    let diags = audit(
        "function @clean(0) {
         b0:
             v0 = const 7
             spill 0, v0
             v1 = reload 0
             return v1
         }",
        1,
    );
    assert!(diags.is_empty(), "honest spill code rejected: {diags:#?}");

    // A reload naming a slot past the claimed spill area.
    let diags = audit(
        "function @ranged(0) {
         b0:
             v0 = const 7
             spill 0, v0
             v1 = reload 3
             return v1
         }",
        1,
    );
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_SLOT_RANGE),
        "out-of-range slot not flagged: {diags:#?}"
    );

    // Two different values funnelled into one slot.
    let diags = audit(
        "function @clash(0) {
         b0:
             v0 = const 7
             spill 0, v0
             v1 = const 9
             spill 0, v1
             v2 = reload 0
             return v2
         }",
        1,
    );
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_SLOT_CLASH),
        "shared slot not flagged: {diags:#?}"
    );

    // The spill covers only one arm of the diamond; the reload can
    // execute with the slot never written.
    let diags = audit(
        "function @uninit(1) {
         b0:
             v0 = param 0
             v1 = const 5
             branch v0, b1, b2
         b1:
             spill 0, v1
             jump b3
         b2:
             jump b3
         b3:
             v2 = reload 0
             return v2
         }",
        1,
    );
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_SLOT_UNINIT),
        "uncovered reload not flagged: {diags:#?}"
    );

    // Same diamond with both arms spilling: the meet keeps the slot.
    let diags = audit(
        "function @covered(1) {
         b0:
             v0 = param 0
             v1 = const 5
             branch v0, b1, b2
         b1:
             spill 0, v1
             jump b3
         b2:
             spill 0, v1
             jump b3
         b3:
             v2 = reload 0
             return v2
         }",
        1,
    );
    assert!(
        diags.is_empty(),
        "fully covered diamond rejected: {diags:#?}"
    );
}

/// The Chaitin copy-rule exemption: a copy's source and destination may
/// share a register while both live *because* they hold the same value —
/// but only where the auditor's own available-copies analysis proves the
/// equality still stands.
#[test]
fn clash_rule_honours_copy_equality_and_nothing_more() {
    use fcc::ir::parse::parse_function;
    use std::collections::HashMap;

    let audit = |text: &str, colors: &[(usize, u32)]| {
        let func = parse_function(text).unwrap();
        let coloring: HashMap<fcc::ir::Value, u32> = colors
            .iter()
            .map(|&(i, c)| (fcc::ir::Value::new(i), c))
            .collect();
        audit_allocation(&func, &coloring, 16, func.spill_slot_count())
    };

    // v1 = copy v0 and both stay live: sharing r0 is a genuine equality.
    let diags = audit(
        "function @share(1) {
         b0:
             v0 = param 0
             v1 = copy v0
             v2 = add v0, v1
             return v2
         }",
        &[(0, 0), (1, 0), (2, 1)],
    );
    assert!(diags.is_empty(), "equal copy pair rejected: {diags:#?}");

    // The source is redefined while the destination lives on: the
    // equality is dead, the shared register is a real clash.
    let diags = audit(
        "function @clobber(1) {
         b0:
             v0 = param 0
             v1 = copy v0
             v0 = const 9
             v2 = add v0, v1
             return v2
         }",
        &[(0, 0), (1, 0), (2, 1)],
    );
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_CLASH),
        "clobbered copy equality not flagged: {diags:#?}"
    );

    // The copy covers only one arm of a diamond: at the join the meet
    // (intersection) discards the equality, so sharing is a clash.
    let diags = audit(
        "function @onepath(1) {
         b0:
             v0 = param 0
             v1 = const 5
             branch v0, b1, b2
         b1:
             v1 = copy v0
             jump b3
         b2:
             jump b3
         b3:
             v2 = add v0, v1
             return v2
         }",
        &[(0, 0), (1, 0), (2, 1)],
    );
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_CLASH),
        "one-path copy equality not flagged at the join: {diags:#?}"
    );
}

#[test]
fn report_tables_carry_the_maxlive_column() {
    let funcs: Vec<Function> = fcc::workloads::kernels()
        .iter()
        .take(3)
        .map(fcc::workloads::compile_kernel)
        .collect();
    let module = fcc::ir::Module::from_functions(funcs).unwrap();
    let outcome = fcc::driver::compile_module(module, &CompileRequest::new()).unwrap();

    let text = outcome.outcome_table_text();
    let header = text.lines().next().unwrap();
    assert!(header.contains("maxlive"), "text header: {header}");
    // Every kernel compiles, so every row must carry a number, not "-".
    let saxpy_row = text
        .lines()
        .find(|l| l.starts_with("@saxpy"))
        .expect("saxpy row present");
    assert!(
        saxpy_row.split_whitespace().any(|c| c == "6"),
        "saxpy maxlive missing from: {saxpy_row}"
    );

    let json = outcome.outcome_table_json(FailMode::Abort);
    assert!(json.contains("\"maxlive\": 6"), "json: {json}");
    assert!(!json.contains("\"maxlive\": null"), "json: {json}");
}

/// Generated seed 43 at the `spill-k8` benchmark's large shape, through
/// `--pipeline standard --opt --k-registers 4`. At one point five values
/// are live, but two of them hold one value on every incoming path
/// (`d = copy s` reaches the point on both) and share a register, as
/// Chaitin's copy rule lets them: four registers suffice. The pressure
/// rule once counted raw live values and rejected this allocation.
#[test]
fn copy_equal_values_share_a_register_in_the_pressure_rule() {
    use fcc::workloads::{generate, GenConfig};
    let shape = GenConfig {
        stmts: 50,
        max_depth: 4,
        vars: 9,
        max_loop: 4,
        params: 2,
        memory_ops: true,
    };
    let func = fcc::frontend::lower_program(&generate(43, &shape)).expect("lowers");
    let args = [5, -3];
    let run = |f: &Function| {
        let out = run_with_memory(f, &args, vec![0; 256], 5_000_000).expect("seed 43 runs");
        (out.ret, out.memory)
    };
    let reference = run(&func);
    let req = CompileRequest::new()
        .pipeline(PipelineSpec::Standard)
        .opt(true)
        .k_registers(Some(4));
    let out = compile_function(func, &req).expect("the audit certifies k = 4");
    assert!(!out.func.has_phis());
    assert_eq!(
        run(&out.func),
        reference,
        "output differs from the reference"
    );
}

/// The copy rule only merges what the auditor proves equal: k + 1
/// pairwise-distinct values live at once still exceed k.
#[test]
fn distinct_live_values_beyond_k_still_fire_the_pressure_rule() {
    use fcc::ir::parse::parse_function;
    use std::collections::HashMap;

    // v1..v3 are copies of v0 but v0 is redefined in between, so no two
    // of the four live values are provably equal at the `add` chain.
    let func = parse_function(
        "function @distinct(1) {
         b0:
             v0 = param 0
             v1 = copy v0
             v0 = const 1
             v2 = copy v0
             v0 = const 2
             v3 = copy v0
             v0 = const 3
             v4 = add v0, v1
             v5 = add v4, v2
             v6 = add v5, v3
             return v6
         }",
    )
    .unwrap();
    let coloring: HashMap<Value, u32> = [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 1), (6, 0)]
        .into_iter()
        .map(|(v, c)| (Value::new(v), c))
        .collect();
    let diags = audit_allocation(&func, &coloring, 3, 0);
    assert!(
        diags.iter().any(|d| d.rule == RULE_ALLOC_PRESSURE),
        "four distinct live values fit in three registers: {diags:#?}"
    );
}
