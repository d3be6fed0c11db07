//! The scan mode is invisible: with the per-character reference loops
//! forced on the calling thread (`scan::force_scalar`), the fuzz smoke
//! and a recorded profile come out exactly as with the bulk scanner.
//!
//! Fuzzing and profiling run on the calling thread, so the per-thread
//! switch covers every parse below.

use modpeg_conformance::{fuzz_grammar, FuzzConfig, GrammarId};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{scan, Engine, ParseRequest};
use modpeg_telemetry::{mask, MetricsRegistry, Telemetry, WorkloadProfile};

/// `f` under the bulk scanner and under the scalar loops, as
/// (vectorized, scalar); the thread is left on the bulk scanner.
fn both_modes<T>(mut f: impl FnMut() -> T) -> (T, T) {
    scan::force_scalar(false);
    let vectorized = f();
    scan::force_scalar(true);
    let scalar = f();
    scan::force_scalar(false);
    (vectorized, scalar)
}

#[test]
fn fuzz_smoke_reports_agree_in_both_scan_modes() {
    for id in GrammarId::ALL {
        // A report holds no timing, so the whole of it must agree:
        // acceptance counts, coverage, statistics, divergences.
        let (vectorized, scalar) = both_modes(|| {
            let report = fuzz_grammar(id, &FuzzConfig::smoke()).expect("grammar compiles");
            assert!(report.clean(), "{}: {:?}", id.name(), report.divergences);
            assert!(report.scan_parity_checks > 0, "{}", id.name());
            format!("{report:?}")
        });
        assert_eq!(vectorized, scalar, "{}", id.name());
    }
}

#[test]
fn profile_recordings_agree_in_both_scan_modes() {
    let input = include_str!("../../../tests/data/profile.java");
    let g = GrammarId::Java.elaborate().expect("grammar elaborates");
    // The recording configuration of `modpeg profile --record`.
    let interp = CompiledGrammar::compile(&g, OptConfig::incremental()).expect("compiles");
    let (vectorized, scalar) = both_modes(|| {
        let telem = Telemetry::collector(1 << 20).with_mask(mask::ALL);
        interp
            .run(input, ParseRequest::tree().with_telemetry(&telem))
            .0
            .expect("profile.java parses");
        let profile = WorkloadProfile::from_registry(
            &MetricsRegistry::from_report(&telem.take_report()),
            modpeg_core::transform::grammar_fingerprint(&g),
            &g.production(g.root()).name,
            interp.name(),
            input.len() as u64,
        );
        assert!(profile.complete(), "the collector dropped events");
        // Every line but the one timing line is deterministic.
        profile
            .to_json()
            .lines()
            .filter(|line| !line.contains("\"timing\""))
            .collect::<Vec<_>>()
            .join("\n")
    });
    assert_eq!(vectorized, scalar);
}
