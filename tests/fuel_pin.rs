//! Pins what each pipeline makes of each function, and the fuel it
//! spends doing so.
//!
//! Three corpora, each compiled through the driver under `new`,
//! `standard` and `briggs-star --no-fold`:
//!
//! - the 34 kernels at `--opt --k-registers 16`;
//! - the 34 kernels without `--opt` at `--k-registers 8`;
//! - 20 generated functions in the benchmark's spill-k8 shape (30–60
//!   top-level statements, nesting depth 4, memory on) at
//!   `--k-registers 8`.
//!
//! Per function and pipeline the pin holds the report's `fuel_spent` and
//! an FNV-1a 64 digest of the printed output IR followed by the `--stats`
//! lines. Two stat fields are masked: the compile time, which is a
//! measurement, and the New coalescer's `B peak`, which follows its own
//! byte accounting rather than what it computes.
//!
//! Fuel counts every checkpoint a compile passes (SSA placement and
//! renaming, each optimiser pass, one per candidate class and forest
//! node in the coalescer, each spill and colour round), so a rework of
//! any of those loops that keeps its output but changes its step count
//! shows here, and so does any change to what it computes. A deliberate
//! change re-pins: a mismatch prints the full table to paste back.

use fcc::driver::{compile_function_report, par_map, CompileRequest, FnStatus, PipelineSpec};
use fcc::ir::Function;
use fcc::serve::cache::fnv64;
use fcc::workloads::{compile_kernel, generate, kernels, GenConfig, SplitMix64};

/// One line per function: the corpus tag and name, then `fuel digest`
/// for New | Standard | Briggs*.
const PINS: &str = "\
opt-k16 saxpy     | 810 db100c9d4afd84f3 | 753 83f05abf7c0b9940 | 1490 f9208e45796627c9
opt-k16 tomcatv   | 4941 cbbea6a701d57b0b | 4627 051b0c3af5fc7e9b | 4822 82268b966849eb7f
opt-k16 blts      | 1958 30040ce6947a79d6 | 1847 f1563ed09409deee | 3637 4450e4e55caf641f
opt-k16 buts      | 1759 5f2896295f334b84 | 1636 0c79e1724465f21b | 3183 6828cc0a3b199dce
opt-k16 getbx     | 1141 7defb5014ab15268 | 1058 cce355d7467d75e4 | 2046 f13d83ed81314e50
opt-k16 twldrv    | 2270 74a8034577ef8d13 | 2149 39aee0ef8382841b | 2294 2fcbf8c4572b6766
opt-k16 smoothx   | 2600 48ed730f2fdc4af7 | 2495 2c2b1b60acbcd1e7 | 2589 d4bbb99f926a2328
opt-k16 rhs       | 1733 acd72a74d89ed452 | 1565 b48c98387c681da1 | 3058 ed14ba5abf8ce87d
opt-k16 parmvrx   | 3223 edcfe9689fca3753 | 3111 7953bdd3fadb4738 | 3241 4295d6afafe0ae96
opt-k16 initx     | 2694 9788b92be07713c7 | 2573 a7e3cd8a135d2e8c | 5059 54c08bf2a18cfc66
opt-k16 fieldx    | 3700 cddf0815690a8e11 | 3548 56d6442859102a8f | 3646 048d951dc4a8315c
opt-k16 parmovx   | 2198 175bd5cf1abb8227 | 2115 20d454cf232fe4b1 | 2218 f785359e0a9f72a5
opt-k16 radfgx    | 2760 5b9a231a811547be | 2650 dd82304e00eba066 | 2733 bbc6aba277f8df8b
opt-k16 radbgx    | 1773 1d55a0ccfb003958 | 1665 d436210c466d9e9c | 1744 8796a11a61c4e6d9
opt-k16 parmvex   | 1699 e87c7fb069742651 | 1611 a410b1a517c2ea4e | 1683 b71473c89357f91e
opt-k16 jacld     | 1494 7d1fc7135f639613 | 1374 13b1a8045e883ddb | 2748 7b26a6fcd2eb61d3
opt-k16 fpppp     | 1105 d2fe91422addbab9 | 943 ab0433427c4bc0a6 | 2118 6f30565f013977b2
opt-k16 advbndx   | 5555 2ad0830064d92f2d | 5442 d41268f6b2218ef5 | 5515 833f897ab2d9af04
opt-k16 deseco    | 2162 5dfb0c1a905c714b | 2054 081aa3b11094500b | 2176 77a40d34ae5db40b
opt-k16 zeroin    | 1564 a3050f635042fe67 | 1423 f418cd01cc321cee | 1491 38442066fd04beac
opt-k16 fmin      | 788 390943dc37f61eb8 | 697 28ab6f719ceffafb | 782 01b7a1115ad8011e
opt-k16 spline    | 2276 420532f92654aec9 | 2085 9d65b5b3663a3c5c | 2073 a9641b5f045db5be
opt-k16 seval     | 1267 613078285b623577 | 1181 75ffeb7acdc551f2 | 1268 b8b863451d632923
opt-k16 quanc8    | 1877 fbf717774726c972 | 1732 9164593727eb6716 | 2014 7ef44cbb46eb66e6
opt-k16 rkf45     | 2237 9f4a0d0b3eef76ff | 2073 2deb19b49d0efb45 | 2230 3cec5d85e3508169
opt-k16 decomp    | 8936 1183e36c29b94ba2 | 8716 70bd47d546a514b8 | 8736 f0eeff370db16f96
opt-k16 solve     | 5470 a6f3c9a3c58e234c | 5301 20d9d5d6a15f025b | 5415 2521382dfefc9883
opt-k16 urand     | 2030 8e2b7ce8f955beb2 | 1930 967876d6b85344fb | 2129 bc347e6603a8e69c
opt-k16 svd       | 5807 ca60b02e6529ca0a | 5614 202cee99e158a7b3 | 5785 15692d9a1bf1831d
opt-k16 smooth    | 2634 145d641bcac12512 | 2449 a41d108ed4171469 | 4751 0d851092083aaa91
opt-k16 clampx    | 1239 02656568d7009e6e | 1163 be7002f684c446af | 1302 451469d70e801f21
opt-k16 spillx    | 470 fba9a75fd6687f10 | 449 576575cb5baf3739 | 496 4ab44a9977ba00b0
opt-k16 scratchx  | 1025 768ec9824d7023ba | 976 4bbd3c52a4acfbce | 1065 469c0cd3afc416f6
opt-k16 stencilx  | 1515 95cc8096462f303c | 1448 2bc2f7679ba190c4 | 1605 fb9398df76965417
k8      saxpy     | 149 9ee0cb8c597a7aa9 | 92 670aadea5590ab28 | 66 d861ec2ab1546d12
k8      tomcatv   | 685 fe5fd4ac2a8c157e | 353 4d0e0e6b9321836e | 260 8657042d6b9862a2
k8      blts      | 277 36d21817d6bb09a0 | 166 381aa9f2b2d708d0 | 121 61d97085c0e524ec
k8      buts      | 293 35a86d8cb12d8fcc | 170 8fe8536742a881f5 | 125 55cb6c48d569dcd2
k8      getbx     | 211 8ec8b4062429ff8e | 128 de7d6a13ad46e05a | 90 52ac126b8ad4564e
k8      twldrv    | 389 cfb516f5c34cbe77 | 266 51f8f6c479d52f0f | 176 c8306d35cf819d27
k8      smoothx   | 288 b0191dfc23f38863 | 183 8b9d9cac4ba05a25 | 129 6a8b309798834c51
k8      rhs       | 378 1fd664e863c0c23a | 208 17833fe322d793d9 | 156 c7eb6f26022eb7dd
k8      parmvrx   | 349 c7ae5ee34aa9f83e | 237 020dddc335a2fdf7 | 153 f8bc40d1339a3b81
k8      initx     | 312 3c509b21d642cf41 | 191 73cf91cd297f1c2c | 137 24ab98fba57bd5ad
k8      fieldx    | 386 baffc7483509e870 | 234 56b8345ca5589666 | 168 fbc9ff7b63669fee
k8      parmovx   | 236 c7b94c9160d31d2e | 153 e821714851e2952a | 106 ae0d990080e48240
k8      radfgx    | 252 db36984d37a24f9d | 142 cfa7cb5c05ec7f19 | 107 219502e1cbf355dd
k8      radbgx    | 249 9965a16b4aa43d23 | 141 11cb72ed179116dd | 106 11ae2732b3e162ea
k8      parmvex   | 225 a8687c548bf503c6 | 137 057d5fab4b700479 | 99 8a5065b47b595443
k8      jacld     | 277 dce8a768766b6f3b | 152 47a10f6afc568f95 | 114 0ab1ec02ed5f3d68
k8      fpppp     | 306 81e96e315074f277 | 144 4e0edfe5263edb96 | 120 8abb4d5b1bae54ff
k8      advbndx   | 427 49ea49b10944d3cc | 314 f63a73e4459b3a2e | 201 f9001ec8c6057f26
k8      deseco    | 350 b8990477dfac1905 | 242 b01399f72524b643 | 162 5e90a99db6b46b2a
k8      zeroin    | 380 eecfeaa1d4dc6af3 | 228 a418a277b3b5e02c | 151 112efdd4a2fee4ce
k8      fmin      | 198 f431422eeb737681 | 107 80a4b13d77a4e554 | 78 72349959d26760f1
k8      spline    | 388 48a6fc08dd175295 | 193 fbe00504df84181e | 153 a292afaae8804775
k8      seval     | 224 fd108b08364d3920 | 137 dde892cb43b88973 | 94 f0277523f906c17d
k8      quanc8    | 308 eb69177102f2a45e | 156 0672d4902f449348 | 120 9ef0b6fd0d847b55
k8      rkf45     | 381 68350075c351eed6 | 211 54f133c63fcec831 | 148 dd0b38697c8071f0
k8      decomp    | 591 16aa4344dc0a5a9a | 366 01dd1ca30eab3e1c | 250 b21230009956ce74
k8      solve     | 410 67f3a22d5ca064f5 | 241 fe483136976e18f4 | 177 a53e25a7350d6f26
k8      urand     | 252 bea64f958cda0e63 | 155 c6103d465d707365 | 107 88f33f496c8a5341
k8      svd       | 562 e8e8d743171b31b7 | 354 ead3c110a2de131c | 237 4d0103c1cd4e55db
k8      smooth    | 449 55ac0c62c2b74c1c | 264 5c480cd0ef52fabd | 191 db5cfcedb9beba2d
k8      clampx    | 201 03688167f7efdf50 | 136 538c875cbb40c064 | 91 8ef4834dc3062811
k8      spillx    | 59 5aeb1b76e7209d06 | 38 6f40cd91c9fc8c22 | 26 4018ecc85391c329
k8      scratchx  | 119 022deed0b8f5609f | 70 5cfcded761501ce9 | 51 8dac8d54c33b07d1
k8      stencilx  | 147 1ec60e0c4545e9b2 | 80 a500d76885c73728 | 61 9adcac1d8d8ccaa7
gen-k8  gen0      | 7335 a3347a788f67a8b3 | 3971 d9f8545aba460d43 | 2620 9500060f627a3fc6
gen-k8  gen1      | 5381 d78a86a1a89ac2d0 | 2981 581e2aeae4ee21e7 | 1987 ed1ef1cddaf06f22
gen-k8  gen2      | 8182 49605ca23c191892 | 4673 a12842e3c12cc473 | 2985 e8578e850b9c8456
gen-k8  gen3      | 9189 39da6d0db5d16cc9 | 4966 3f685a5edb4c0dde | 3274 051cfed246585f2e
gen-k8  gen4      | 6527 fd79a3dcbae8852b | 3576 a0353c4a8db1b0cc | 2354 1dd2cba0e21e77a1
gen-k8  gen5      | 5286 443363abb1ae21fc | 2680 2923b4fbfcc4b81a | 1893 85383c8735f79765
gen-k8  gen6      | 6718 4ebff49150f7919f | 3667 fd52b6d1cfd25510 | 2408 d8f92d149a5da7ff
gen-k8  gen7      | 6154 51f63090b4b1dbfe | 3181 2bade5c7f11ceb6f | 2201 4724ae11087135e7
gen-k8  gen8      | 5994 4d0cd26e6c2caf2e | 3362 1caedff50ce98455 | 2164 38b82739126d8dd9
gen-k8  gen9      | 7273 864491dc09f07af2 | 4146 5fe08825f4991578 | 2695 72ac48816a6795a5
gen-k8  gen10     | 14034 0265d7463ab2218d | 8126 7ebc818e806816ca | 5073 4e33eb192ae4e3ae
gen-k8  gen11     | 6402 26de06cdbc64f84b | 3311 3fc8c3384f1d7220 | 2277 c397e4499b0e21ac
gen-k8  gen12     | 10964 d587a07d05af85e0 | 6211 1e78dadbc95d0b1d | 3973 b971651d0920f6e4
gen-k8  gen13     | 7682 8bc204b2836c1544 | 4260 e9af43c2039e0a60 | 2778 deabf36bb0630be6
gen-k8  gen14     | 8146 eb68d4b30c8b66ad | 4582 f142bde81631aad3 | 3002 4af68c91ef4577ce
gen-k8  gen15     | 6983 940b5f52446e9296 | 3812 bad2364fd9914679 | 2556 4a5e08d5b2acebc5
gen-k8  gen16     | 9643 2609b7958f7b87a0 | 5436 9ce9da039cf90d6e | 3545 d2ed818163b3565d
gen-k8  gen17     | 6546 3e49e42b26bd4551 | 3806 ab3854ac78939f87 | 2374 d967804a17ff5766
gen-k8  gen18     | 8697 b447b3d068653250 | 4876 175d943f59497838 | 3153 5c6d5b268218f9e7
gen-k8  gen19     | 9010 1486fe672fd4a818 | 4960 3aff8fdde6ef88e5 | 3194 2941beb8e7c115aa
";

const PIPELINES: [PipelineSpec; 3] = [
    PipelineSpec::New,
    PipelineSpec::Standard,
    PipelineSpec::BriggsStar,
];

/// The spill-k8 corpus shape: 20 functions of 30–60 statements.
fn generated() -> Vec<Function> {
    let mut rng = SplitMix64::seed_from_u64(0xf0e1_5eed);
    (0..20)
        .map(|i| {
            let stmts = rng.gen_range(30usize..=60);
            let cfg = GenConfig {
                stmts,
                max_depth: 4,
                vars: 8 + stmts / 50,
                max_loop: 4,
                params: 2,
                memory_ops: true,
            };
            let mut prog = generate(rng.next_u64(), &cfg);
            prog.name = format!("gen{i}");
            fcc::frontend::lower_program(&prog).expect("generated programs lower")
        })
        .collect()
}

/// The stat lines with the compile time and New's peak bytes masked.
fn masked(line: &str) -> String {
    if let Some((head, _)) = line.split_once("; compiled in ") {
        return format!("{head}; compiled in _");
    }
    if line.starts_with("new: ") {
        if let Some((head, _)) = line.rsplit_once(", ") {
            return format!("{head}, _ B peak");
        }
    }
    line.to_string()
}

/// `fuel digest` for `func` compiled by `req`.
fn pin(func: &Function, req: &CompileRequest) -> String {
    let report = compile_function_report(func, req);
    assert!(
        matches!(report.status, FnStatus::Ok),
        "@{} under {}: {:?}",
        func.name,
        req.pipeline.label(),
        report.attempts
    );
    let outcome = report.outcome.as_ref().expect("an ok report has output");
    let mut text = outcome.func.to_string();
    for line in &outcome.stat_lines {
        text.push_str("; ");
        text.push_str(&masked(line));
        text.push('\n');
    }
    format!("{} {:016x}", report.fuel_spent, fnv64(text.as_bytes()))
}

#[test]
fn fuel_and_output_are_pinned_for_every_pipeline() {
    let kernel_fns: Vec<Function> = kernels().iter().map(compile_kernel).collect();
    let mut corpora: Vec<(&str, Vec<Function>, bool, u32)> = vec![
        ("opt-k16", kernel_fns.clone(), true, 16),
        ("k8", kernel_fns, false, 8),
        ("gen-k8", generated(), false, 8),
    ];
    let mut got = String::new();
    for (tag, funcs, opt, k) in corpora.drain(..) {
        let (lines, _) = par_map(funcs.len(), 2, |i| {
            let mut line = format!("{tag:<7} {:<9}", funcs[i].name);
            for spec in PIPELINES {
                let req = CompileRequest::new()
                    .pipeline(spec)
                    .fold(!spec.needs_no_fold())
                    .opt(opt)
                    .k_registers(Some(k));
                line.push_str(&format!(" | {}", pin(&funcs[i], &req)));
            }
            line + "\n"
        });
        got.push_str(&lines.concat());
    }
    assert!(got == PINS, "fuel pins moved; the current table is:\n{got}");
}
