//! Golden-file regression tests: the rendered `Report` text for four suite
//! benchmarks under a fixed sampling seed, snapshotted in `tests/golden/`,
//! and a 64-bit digest of every suite program's report
//! (`tests/golden/suite_digests.txt`).
//!
//! These pin the *entire* user-visible analysis output — spot ordering,
//! error-bit figures, symbolic expressions, preconditions, example inputs —
//! so a refactor that silently changes analysis behaviour fails here even if
//! every structural assertion elsewhere still passes.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p herbgrind-repro --test golden_reports
//! ```
//!
//! and review the diff like any other code change.

use herbgrind::AnalysisConfig;
use std::path::PathBuf;

const SAMPLES: usize = 40;
const SEED: u64 = 2024;

/// Benchmarks chosen to cover the report surface: two cancellation kernels
/// with root causes and preconditions, a mixed polynomial, and a clean
/// benchmark whose report is the "no significant error" form.
const GOLDEN_BENCHMARKS: [(&str, &str); 4] = [
    ("NMSE example 3.1", "nmse_example_3_1.txt"),
    ("NMSE section 3.5", "nmse_section_3_5.txt"),
    ("NMSE problem 3.3.6", "nmse_problem_3_3_6.txt"),
    ("verhulst", "verhulst.txt"),
];

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn rendered_report(benchmark: &str) -> String {
    let core = fpbench::by_name(benchmark)
        .unwrap_or_else(|| panic!("benchmark {benchmark} not in the suite"));
    let prepared = fpbench::prepare(&core, SAMPLES, SEED)
        .unwrap_or_else(|e| panic!("{benchmark}: prepare failed: {e}"));
    let report = prepared
        .run_herbgrind(&AnalysisConfig::default())
        .unwrap_or_else(|e| panic!("{benchmark}: analysis failed: {e}"));
    report.to_text()
}

#[test]
fn reports_match_golden_files() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut mismatches = Vec::new();
    for (benchmark, file) in GOLDEN_BENCHMARKS {
        let rendered = rendered_report(benchmark);
        let path = golden_path(file);
        if update {
            std::fs::write(&path, &rendered)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        if rendered != expected {
            mismatches.push(format!(
                "--- {benchmark} ({file}) ---\nexpected:\n{expected}\ngot:\n{rendered}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden report mismatch; if the change is intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff\n\n{}",
        mismatches.join("\n")
    );
}

/// The whole-suite digest file: one `hash name` line per suite program.
const SUITE_DIGESTS: &str = "suite_digests.txt";

/// 64-bit FNV-1a, fixed here so the committed digests do not depend on any
/// library's hashing choices.
fn fnv1a64(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in text.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn every_suite_report_matches_its_digest() {
    // The four text goldens above reach only a few kernels; this pins the
    // rendered report of every suite program (library calls at ordinary
    // arguments included) by hash.
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let path = golden_path(SUITE_DIGESTS);
    let rendered: Vec<(String, String)> = fpbench::suite()
        .iter()
        .map(|core| {
            let name = core.display_name().to_string();
            let prepared = fpbench::prepare(core, SAMPLES, SEED)
                .unwrap_or_else(|e| panic!("{name}: prepare failed: {e}"));
            let report = prepared
                .run_herbgrind(&AnalysisConfig::default())
                .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
            (name, report.to_text())
        })
        .collect();
    let lines: String = rendered
        .iter()
        .map(|(name, text)| format!("{:016x} {name}\n", fnv1a64(text)))
        .collect();
    if update {
        std::fs::write(&path, &lines).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing digest file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let expected: Vec<(&str, &str)> = expected
        .lines()
        .map(|line| line.split_once(' ').expect("`hash name` line"))
        .collect();
    let names: Vec<&str> = rendered.iter().map(|(name, _)| name.as_str()).collect();
    let expected_names: Vec<&str> = expected.iter().map(|&(_, name)| name).collect();
    assert_eq!(
        names, expected_names,
        "suite programs changed; regenerate {SUITE_DIGESTS} with UPDATE_GOLDEN=1"
    );
    let changed: Vec<String> = rendered
        .iter()
        .zip(&expected)
        .filter(|((_, text), (hash, _))| format!("{:016x}", fnv1a64(text)) != *hash)
        .map(|((name, text), _)| format!("--- {name} ---\n{text}"))
        .collect();
    assert!(
        changed.is_empty(),
        "{} suite report(s) changed; if the change is intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the reports\n\n{}",
        changed.len(),
        changed.join("\n")
    );
}

#[test]
fn golden_reports_are_independent_of_thread_count() {
    // The same four benchmarks through an explicitly multi-threaded run:
    // parallelism must not be able to invalidate the golden files.
    for (benchmark, _) in GOLDEN_BENCHMARKS {
        let core = fpbench::by_name(benchmark).unwrap();
        let prepared = fpbench::prepare(&core, SAMPLES, SEED).unwrap();
        let serial = prepared
            .run_herbgrind(&AnalysisConfig::default().with_threads(1))
            .unwrap();
        let parallel = prepared
            .run_herbgrind(&AnalysisConfig::default().with_threads(6))
            .unwrap();
        assert_eq!(serial.to_text(), parallel.to_text(), "{benchmark}");
    }
}
