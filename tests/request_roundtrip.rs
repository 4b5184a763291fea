//! Property tests for the shared spelling layer: every enum the CLI,
//! the serve protocol, and the cache key spell (`PipelineSpec`,
//! `FailMode`, `ReportFormat`) must round-trip through its one
//! `Display`/`FromStr` pair, reject everything else, and keep
//! `CompileRequest::cache_signature` stable over the fields that matter
//! (and only those).

use fcc::prelude::*;

#[test]
fn every_pipeline_spelling_round_trips() {
    for p in PipelineSpec::ALL {
        let printed = p.to_string();
        assert_eq!(printed, p.label(), "Display and label agree");
        let reparsed: PipelineSpec = printed.parse().unwrap_or_else(|e| {
            panic!("{printed:?} must re-parse: {e}");
        });
        assert_eq!(reparsed, p, "{printed:?} round-trips");
    }
    // The canonical set is exactly the three pipelines, spelled kebab-case.
    let labels: Vec<&str> = PipelineSpec::ALL.iter().map(|p| p.label()).collect();
    assert_eq!(labels, ["new", "standard", "briggs-star"]);
}

#[test]
fn every_fail_mode_and_format_round_trips() {
    for m in [FailMode::Abort, FailMode::Skip, FailMode::Degrade] {
        let reparsed: FailMode = m.to_string().parse().expect("fail mode round-trips");
        assert_eq!(reparsed, m);
    }
    for f in [ReportFormat::Text, ReportFormat::Json] {
        let reparsed: ReportFormat = f.to_string().parse().expect("format round-trips");
        assert_eq!(reparsed, f);
    }
}

#[test]
fn bad_spellings_are_typed_errors_naming_the_input() {
    // Near-misses: case, whitespace, old-style aliases. Every one must
    // be rejected by every parser with the matching typed error.
    for bad in [
        "New", "BRIGGS", "briggs", " new", "new ", "std", "chaitin", "",
    ] {
        let err = bad.parse::<PipelineSpec>().unwrap_err();
        assert_eq!(err.kind(), "unknown-pipeline", "{bad:?}");
        assert!(
            matches!(&err, RequestError::UnknownPipeline(s) if s == bad),
            "{bad:?} echoed back"
        );
    }
    for bad in ["Abort", "ABORT", "halt", "ignore", ""] {
        let err = bad.parse::<FailMode>().unwrap_err();
        assert_eq!(err.kind(), "unknown-fail-mode", "{bad:?}");
    }
    for bad in ["Text", "JSON", "yaml", ""] {
        let err = bad.parse::<ReportFormat>().unwrap_err();
        assert_eq!(err.kind(), "unknown-format", "{bad:?}");
    }
}

#[test]
fn cache_signature_covers_output_affecting_fields_only() {
    let base = CompileRequest::new();
    // jobs, format, and deny-warnings never change compiled bytes →
    // same signature.
    assert_eq!(
        base.clone()
            .jobs(1)
            .format(ReportFormat::Text)
            .deny_warnings(false)
            .cache_signature(),
        base.clone()
            .jobs(8)
            .format(ReportFormat::Json)
            .deny_warnings(true)
            .cache_signature()
    );
    // Every output-affecting field must move the signature.
    let variants = [
        base.clone().pipeline(PipelineSpec::Standard),
        base.clone().fold(false),
        base.clone().opt(true),
        base.clone().verify_each(true),
        base.clone().simplify(true),
        base.clone().k_registers(Some(8)),
        base.clone().fail_mode(FailMode::Degrade),
        base.clone().fuel(Some(1000)),
    ];
    let base_sig = base.cache_signature();
    let mut sigs = vec![base_sig.clone()];
    for v in &variants {
        let sig = v.cache_signature();
        assert_ne!(sig, base_sig, "{v:?} must change the signature");
        sigs.push(sig);
    }
    // And they are pairwise distinct (no two knobs collide).
    let unique: std::collections::HashSet<&String> = sigs.iter().collect();
    assert_eq!(unique.len(), sigs.len(), "signatures must be distinct");
}

#[test]
fn signatures_are_stable_across_processes() {
    // The signature is part of the serve cache key; a spelling change
    // invalidates every cache, so pin the exact format.
    assert_eq!(
        CompileRequest::new().cache_signature(),
        "pipeline=new fold=true opt=false verify=false simplify=false k=- fail=abort fuel=-"
    );
    assert_eq!(
        CompileRequest::new()
            .pipeline(PipelineSpec::BriggsStar)
            .fold(false)
            .opt(true)
            .k_registers(Some(16))
            .fail_mode(FailMode::Degrade)
            .fuel(Some(500))
            .cache_signature(),
        "pipeline=briggs-star fold=false opt=true verify=false simplify=false k=16 fail=degrade fuel=500"
    );
}

#[test]
fn validate_is_the_single_precondition_gate() {
    // briggs-star + fold: typed, with the CLI-facing hint in the message.
    let briggs_star = CompileRequest::new().pipeline(PipelineSpec::BriggsStar);
    let err = briggs_star.validate().unwrap_err();
    assert_eq!(err.kind(), "briggs-needs-no-fold");
    assert!(err.to_string().contains("--no-fold"));
    assert!(briggs_star.fold(false).validate().is_ok());
    // The other pipelines accept both fold settings.
    for p in [PipelineSpec::New, PipelineSpec::Standard] {
        for fold in [true, false] {
            assert!(CompileRequest::new()
                .pipeline(p)
                .fold(fold)
                .validate()
                .is_ok());
        }
    }
    for k in [0, 1] {
        assert_eq!(
            CompileRequest::new()
                .k_registers(Some(k))
                .validate()
                .unwrap_err()
                .kind(),
            "k-registers-too-few"
        );
    }
}
