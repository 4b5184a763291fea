//! Spill table — k-constrained allocation across the coalescer families.
//!
//! Every kernel of the suite is compiled at k ∈ {4, 8, 16} through each
//! destruction family (New, Standard, Briggs φ-webs), once per SSA
//! spilling strategy (spill-everywhere baseline vs cost-guided): the
//! family's SSA goes through the driver's k-register stages — spilled
//! down to MaxLive ≤ k, destructed, allocated under a hard bound of k
//! registers and certified by the allocation auditor. The table reports
//! aggregate spill/reload/copy counts; the binary exits non-zero if any
//! kernel's allocation fails its audit or if the cost-guided strategy
//! ever inserts more spill traffic (spills + reloads) than the
//! spill-everywhere baseline.
//!
//! Run: `cargo run --release -p fcc-bench --bin spill [-- --out BENCH_spill.json]`

use fcc_analysis::AnalysisManager;
use fcc_driver::report::Table;
use fcc_driver::{
    allocation_stage, destruction_stage, spill_stage, ssa_stage, CompileRequest, PipelineSpec,
};
use fcc_ir::Function;
use fcc_regalloc::{weighted_spill_traffic, SpillStrategy};
use fcc_ssa::verify_ssa;

const KS: [u32; 3] = [4, 8, 16];
/// The destruction families, by table label.
const FAMILIES: [(&str, PipelineSpec); 3] = [
    ("new", PipelineSpec::New),
    ("standard", PipelineSpec::Standard),
    ("briggs", PipelineSpec::BriggsStar),
];
const STRATEGIES: [SpillStrategy; 2] = [SpillStrategy::Everywhere, SpillStrategy::CostGuided];

/// Aggregate counts for one (k, family, strategy) cell of the table.
#[derive(Clone, Copy, Default)]
struct Cell {
    spills: usize,
    reloads: usize,
    slots: u64,
    copies: usize,
    residual: usize,
    /// Loop-depth-weighted dynamic cost of the inserted spill code: each
    /// `spill`/`reload` contributes `10^min(depth, 6)` — the same model
    /// `SpillCosts` prices victims with, so this is the figure the
    /// cost-guided strategy actually optimises
    /// ([`fcc_regalloc::weighted_spill_traffic`], measured on the
    /// spilled SSA before destruction reshapes the CFG).
    weighted: f64,
}

/// The family's optimised SSA form of `kernel`.
fn family_ssa(kernel: &fcc_workloads::Kernel, spec: PipelineSpec) -> Function {
    let mut func = fcc_workloads::compile_kernel(kernel);
    let req = CompileRequest::new()
        .pipeline(spec)
        .fold(!spec.needs_no_fold())
        .opt(true);
    ssa_stage(
        &mut func,
        &req,
        &mut AnalysisManager::new(),
        &mut Vec::new(),
    )
    .expect("unverified stages cannot fail");
    verify_ssa(&func).expect("optimised kernel must stay valid SSA");
    func
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let kernels = fcc_workloads::kernels();
    let mut table = Table::new(&[
        "k", "family", "strategy", "spills", "reloads", "slots", "copies", "residual", "weighted",
    ]);
    let mut failures = 0usize;
    // cells[(k, family, strategy)] accumulated over all kernels.
    let mut cells: Vec<((u32, &str, SpillStrategy), Cell)> = Vec::new();

    for &k in &KS {
        for (family, spec) in FAMILIES {
            let mut per_strategy = [Cell::default(), Cell::default()];
            for kernel in kernels {
                let ssa = family_ssa(kernel, spec);
                let mut traffic = [0f64; 2];
                for (si, &strategy) in STRATEGIES.iter().enumerate() {
                    let mut func = ssa.clone();
                    let mut am = AnalysisManager::new();
                    let phases = &mut Vec::new();
                    let stats = match spill_stage(&mut func, k, strategy, &mut am, phases) {
                        Ok(stats) => stats,
                        Err(e) => {
                            eprintln!(
                                "{} ({family}, k={k}, {}): {e}",
                                kernel.name,
                                strategy.label()
                            );
                            failures += 1;
                            continue;
                        }
                    };
                    let weighted = weighted_spill_traffic(&func);
                    destruction_stage(&mut func, spec, false, &mut am, phases);
                    let copies = func.static_copy_count();
                    let alloc = match allocation_stage(&mut func, k, &mut am, phases) {
                        Ok(a) => a,
                        Err(e) => {
                            eprintln!(
                                "{} ({family}, k={k}, {}): {e}",
                                kernel.name,
                                strategy.label()
                            );
                            failures += 1;
                            continue;
                        }
                    };
                    traffic[si] = weighted;
                    let c = &mut per_strategy[si];
                    c.spills += stats.spills;
                    c.reloads += stats.reloads;
                    c.slots += u64::from(func.spill_slot_count());
                    c.copies += copies;
                    c.residual += alloc.spilled.len();
                    c.weighted += weighted;
                }
                if traffic[1] > traffic[0] {
                    eprintln!(
                        "{} ({family}, k={k}): cost-guided weighted traffic {} exceeds \
                         spill-everywhere {}",
                        kernel.name, traffic[1], traffic[0]
                    );
                    failures += 1;
                }
            }
            for (si, &strategy) in STRATEGIES.iter().enumerate() {
                let c = per_strategy[si];
                table.row(vec![
                    k.to_string(),
                    family.to_string(),
                    strategy.label().to_string(),
                    c.spills.to_string(),
                    c.reloads.to_string(),
                    c.slots.to_string(),
                    c.copies.to_string(),
                    c.residual.to_string(),
                    format!("{:.0}", c.weighted),
                ]);
                cells.push(((k, family, strategy), c));
            }
        }
    }

    println!(
        "Spill: k-constrained allocation over {} kernels (audited at every cell)\n",
        kernels.len()
    );
    print!("{}", table.render());
    println!(
        "\nevery allocation above is certified by the feasibility auditor; on every \
         kernel the cost-guided strategy's loop-weighted spill traffic is at most \
         spill-everywhere's (static counts can tie or trade: cost-guided buys cheap \
         loop-free spills to avoid expensive in-loop reloads)"
    );

    let json = render_json(kernels.len(), &cells);
    match &out_path {
        Some(p) => std::fs::write(p, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {p}: {e}");
            std::process::exit(1);
        }),
        None => println!("\n{json}"),
    }

    if failures > 0 {
        eprintln!("{failures} cell(s) failed");
        std::process::exit(1);
    }
}

/// The `BENCH_spill.json` document. Every field is deterministic (counts
/// only, no timing), so CI compares the whole document byte-for-byte
/// against the committed copy.
fn render_json(kernels: usize, cells: &[((u32, &str, SpillStrategy), Cell)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"spill\",\n");
    s.push_str(&format!("  \"kernels\": {kernels},\n"));
    s.push_str("  \"k\": {\n");
    for (ki, &k) in KS.iter().enumerate() {
        s.push_str(&format!("    \"{k}\": {{\n"));
        for (fi, (family, _)) in FAMILIES.iter().enumerate() {
            s.push_str(&format!("      \"{family}\": {{"));
            for (si, &strategy) in STRATEGIES.iter().enumerate() {
                let c = cells
                    .iter()
                    .find(|(key, _)| *key == (k, *family, strategy))
                    .map(|&(_, c)| c)
                    .unwrap_or_default();
                s.push_str(&format!(
                    "\"{}\": {{\"spills\": {}, \"reloads\": {}, \"slots\": {}, \
                     \"copies\": {}, \"residual\": {}, \"weighted\": {:.0}}}",
                    strategy.label().replace('-', "_"),
                    c.spills,
                    c.reloads,
                    c.slots,
                    c.copies,
                    c.residual,
                    c.weighted
                ));
                if si == 0 {
                    s.push_str(", ");
                }
            }
            s.push_str(if fi + 1 < FAMILIES.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        s.push_str(if ki + 1 < KS.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  }\n}\n");
    s
}
