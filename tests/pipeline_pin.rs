//! Pins for the one pipeline definition.
//!
//! The paper tables, their lint gate and `fcc lint` all run the driver's
//! two pipeline stages (`ssa_stage`, `destruction_stage`). These pins
//! hold every figure the tables measure and every finding `fcc lint`
//! prints, so a change to either stage that moves one shows here.

use fcc::bench::measure;
use fcc::driver::{lint_pipeline, par_map, CompileRequest, PipelineSpec};
use fcc::serve::cache::fnv64;
use fcc::workloads::kernels;

/// `measure(pipeline, kernel, 1)` for every kernel, one column group per
/// pipeline (Standard | New | Briggs | Briggs*): peak bytes, static
/// copies, dynamic copies, analysis-cache hits, misses.
const MEASURE_PINS: &str = "\
saxpy     | 4044 8 260 3 4 | 7371 0 0 5 6 | 8192 0 0 8 11 | 5744 0 0 8 11
tomcatv   | 16020 30 14732 3 4 | 28578 6 3872 5 6 | 60584 2 0 8 11 | 27400 2 0 8 11
blts      | 7372 14 924 3 4 | 13262 0 0 5 6 | 16556 0 0 8 11 | 10404 0 0 8 11
buts      | 7648 14 924 3 4 | 13814 0 0 5 6 | 17476 0 0 8 11 | 10292 0 0 8 11
getbx     | 5528 12 293 3 4 | 9941 0 0 5 6 | 11620 0 0 8 11 | 7316 0 0 8 11
twldrv    | 10068 28 324 3 4 | 18848 2 4 5 6 | 25688 2 6 8 11 | 16104 2 6 8 11
smoothx   | 7668 16 1453 3 4 | 13355 0 0 5 6 | 16336 0 0 8 11 | 10592 0 0 8 11
rhs       | 9548 16 1228 3 4 | 17522 0 0 5 6 | 24348 0 0 8 11 | 13876 0 0 8 11
parmvrx   | 9120 28 1581 3 4 | 16671 0 0 5 6 | 21132 0 0 8 11 | 13340 0 0 8 11
initx     | 8356 16 648 3 4 | 15051 0 0 5 6 | 17244 0 0 8 11 | 10892 0 0 8 11
fieldx    | 9876 20 2684 3 4 | 17519 0 0 5 6 | 22824 0 0 8 11 | 13184 0 0 8 11
parmovx   | 6424 14 442 3 4 | 11595 0 0 5 6 | 12868 0 0 8 11 | 8796 0 0 8 11
radfgx    | 6504 10 1202 3 4 | 11420 0 0 5 6 | 14060 0 0 8 11 | 8708 0 0 8 11
radbgx    | 6444 10 1202 3 4 | 11310 0 0 5 6 | 13892 0 0 8 11 | 8636 0 0 8 11
parmvex   | 6152 12 435 3 4 | 10911 0 0 5 6 | 13228 0 0 8 11 | 8956 0 0 8 11
jacld     | 7020 12 457 3 4 | 13064 0 0 5 6 | 18164 0 0 8 11 | 11412 0 0 8 11
fpppp     | 7692 8 44 3 4 | 14405 0 0 5 6 | 21044 0 0 8 11 | 12604 0 0 8 11
advbndx   | 11260 34 5173 3 4 | 20603 2 136 5 6 | 24288 2 184 8 11 | 15824 2 184 8 11
deseco    | 9248 24 692 3 4 | 17345 0 0 5 6 | 21120 0 0 8 11 | 13664 0 0 8 11
zeroin    | 8784 26 213 3 4 | 16355 9 63 5 6 | 26020 5 41 8 11 | 12964 5 41 8 11
fmin      | 4772 10 93 3 4 | 8562 2 18 5 6 | 12492 2 18 8 11 | 6788 2 18 8 11
spline    | 9980 12 235 3 4 | 17439 0 0 5 6 | 26796 0 0 8 11 | 13548 0 0 8 11
seval     | 5608 14 1463 3 4 | 10429 2 297 5 6 | 13280 2 297 8 11 | 8472 2 297 8 11
quanc8    | 7432 12 51 3 4 | 13365 0 0 5 6 | 21740 0 0 8 11 | 11508 0 0 8 11
rkf45     | 9000 22 555 3 4 | 16750 1 50 5 6 | 27100 1 50 8 11 | 13100 1 50 8 11
decomp    | 14912 36 1921 3 4 | 28695 7 299 5 6 | 38956 3 13 8 11 | 21588 3 13 8 11
solve     | 10704 20 901 3 4 | 19473 0 0 5 6 | 24944 0 0 8 11 | 14376 0 0 8 11
urand     | 6500 16 2555 3 4 | 12020 0 0 5 6 | 15724 0 0 8 11 | 10004 0 0 8 11
svd       | 13892 38 7298 3 4 | 25588 0 0 5 6 | 38160 0 0 8 11 | 21312 0 0 8 11
smooth    | 11460 22 1354 3 4 | 20964 0 0 5 6 | 28352 0 0 8 11 | 15464 0 0 8 11
clampx    | 5260 14 1020 3 4 | 9439 0 0 5 6 | 10784 0 0 8 11 | 7224 0 0 8 11
spillx    | 1616 4 98 3 4 | 2853 0 0 5 6 | 3000 0 0 8 11 | 2176 0 0 8 11
scratchx  | 3136 6 123 3 4 | 5658 0 0 5 6 | 6248 0 0 8 11 | 4256 0 0 8 11
stencilx  | 3820 6 159 3 4 | 6956 0 0 5 6 | 7900 0 0 8 11 | 5196 0 0 8 11
";

#[test]
fn measurements_are_pinned_for_every_kernel_and_table_pipeline() {
    let rows: Vec<_> = kernels().iter().collect();
    let (lines, _) = par_map(rows.len(), 2, |i| {
        let k = rows[i];
        let mut line = format!("{:<9}", k.name);
        for p in [
            PipelineSpec::Standard,
            PipelineSpec::New,
            PipelineSpec::Briggs,
            PipelineSpec::BriggsStar,
        ] {
            let m = measure(p, k, 1);
            let c = m.counters();
            line.push_str(&format!(
                " | {} {} {} {} {}",
                m.peak_bytes,
                m.static_copies,
                m.dynamic_copies,
                c.total_hits(),
                c.total_misses()
            ));
        }
        line + "\n"
    });
    assert_eq!(lines.concat(), MEASURE_PINS);
}

/// FNV-1a 64 digest of `fcc lint INPUT --format json` stdout,
/// concatenated over `examples/*.ml` (sorted) and then each kernel, per
/// pipeline and `--opt`.
const LINT_DIGESTS: &str = "\
new         -   3100c785ddde31c0
new         opt b327daf8d66a016c
standard    -   48a19a5b36333371
standard    opt b327daf8d66a016c
briggs      -   d54de475bd8c2497
briggs      opt 40fb14fc5b3d2c77
briggs-star -   d54de475bd8c2497
briggs-star opt 40fb14fc5b3d2c77
";

fn lint_json(src: &str, req: &CompileRequest) -> String {
    let module = fcc::frontend::compile_module(src).expect("input compiles");
    let objs: Vec<String> = module
        .into_functions()
        .into_iter()
        .flat_map(|f| {
            let out = lint_pipeline(f, req);
            assert!(
                out.violation.is_none(),
                "@{}: {:?}",
                out.func.name,
                out.violation
            );
            let func = out.func;
            out.reports.into_iter().map(move |r| r.render_json(&func))
        })
        .collect();
    format!("[{}]\n", objs.join(","))
}

#[test]
fn lint_json_is_pinned_for_every_pipeline() {
    let mut examples: Vec<_> = std::fs::read_dir("examples")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    examples.sort();
    let mut sources: Vec<String> = examples
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    sources.extend(kernels().iter().map(|k| k.source.to_string()));

    let mut got = String::new();
    for spec in PipelineSpec::ALL {
        for opt in [false, true] {
            let req = CompileRequest::new()
                .pipeline(spec)
                .fold(!spec.needs_no_fold())
                .opt(opt);
            let (outs, _) = par_map(sources.len(), 2, |i| lint_json(&sources[i], &req));
            got.push_str(&format!(
                "{:<11} {} {:016x}\n",
                spec.label(),
                if opt { "opt" } else { "-  " },
                fnv64(outs.concat().as_bytes())
            ));
        }
    }
    assert_eq!(got, LINT_DIGESTS);
}
