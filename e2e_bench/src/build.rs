//! The `build` workload: the seven shipped compositions rebuilt from
//! `.mpeg` text through every back end, round after round.

use std::hint::black_box;

use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_vm::VmProgram;

use crate::alloc::peak_bytes;
use crate::check::same_trees;
use crate::families::{self, BuildOptions, Built, Engine, Family, COMPOSITIONS};
use crate::inputs;
use crate::layers::{self, Probe, SessionCounts, MIB};
use crate::measure::{median, progress, timed_rounds, Outcome, Tally};
use crate::trace::Tracer;
use crate::Config;

/// The front end up to the interpreter: text, syntax, elaborate, compile.
fn front(f: &Family) -> Option<CompiledGrammar> {
    let set = modpeg_syntax::parse_module_set(f.sources.iter().copied()).ok()?;
    let grammar = set.elaborate(f.root, Some(f.start)).ok()?;
    CompiledGrammar::compile(&grammar, OptConfig::all()).ok()
}

/// Peak heap bytes of the build path that ends in `e` (the
/// interpreter's, plus bytecode assembly for the VM or source emission
/// for codegen), and whether it succeeded.
fn build_heap(f: &'static Family, e: Engine) -> (bool, u64) {
    peak_bytes(|| {
        let Some(cg) = front(f) else { return false };
        match e {
            Engine::Interp => true,
            Engine::Vm => VmProgram::from_compiled(&cg).is_ok(),
            Engine::Codegen => modpeg_codegen::generate_from_compiled(&cg, f.name).is_ok(),
        }
    })
}

/// What a rebuilt composition must reproduce exactly.
fn fingerprint(b: &Built) -> (Option<String>, String) {
    (b.emitted.clone(), b.parsers.vm.disassemble())
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let opts = BuildOptions {
        session: None,
        emit: true,
        split_compile: cfg.trace,
    };
    tracer.set_recording(cfg.trace);
    let setup = families::setup(&COMPOSITIONS, opts, cfg.scale.setup_reps, tracer)?;
    tracer.set_recording(false);
    let samples = inputs::build_samples(cfg.seed, cfg.scale);

    // Gate: a rebuild emits byte-identical source and bytecode, and the
    // freshly built parsers agree with the generated ones.
    progress("setup and inputs");
    let mut tally = Tally::default();
    let reference: Vec<_> = setup.built.iter().map(fingerprint).collect();
    for (i, f) in COMPOSITIONS.iter().enumerate() {
        let again = families::build(f, opts, tracer, 0)?;
        tally.check(fingerprint(&again) == reference[i], || {
            format!("{}: rebuild differs", f.name)
        });
    }
    for (i, d) in samples.iter().enumerate() {
        let p = &setup.built[d.family].parsers;
        let trees: Vec<_> = Engine::ALL.iter().map(|&e| p.parse(e, &d.text)).collect();
        same_trees(&mut tally, &format!("{} sample {i}", p.family.name), &trees);
    }

    progress("gate");
    let sizes: Vec<(usize, usize)> = setup
        .built
        .iter()
        .map(|b| (b.sizes.emit_bytes, b.sizes.ops))
        .collect();
    let opts = BuildOptions {
        split_compile: false,
        ..opts
    };
    let mut engine_secs: [Vec<f64>; 3] = Default::default();
    let source_bytes: Vec<usize> = COMPOSITIONS
        .iter()
        .map(|f| f.sources.iter().map(|s| s.len()).sum())
        .collect();
    let mut op_cost = Vec::new();
    let mut setup_secs = setup.reps.clone();
    let rounds = timed_rounds(cfg.seconds, cfg.trace, tracer, |r| {
        let mut sums = [0.0; 3];
        let mut costs = Vec::with_capacity(COMPOSITIONS.len());
        let mut total = 0.0;
        for (i, f) in COMPOSITIONS.iter().enumerate() {
            let (built, _) = tracer.timed("build", i as u64, || {
                families::build(f, opts, tracer, i as u64)
            });
            let ok = built
                .as_ref()
                .is_ok_and(|b| (b.sizes.emit_bytes, b.sizes.ops) == sizes[i]);
            tally.check(ok, || format!("round {r}: {} rebuilt differently", f.name));
            if let Ok(b) = black_box(built) {
                let st = b.stages;
                let interp = st.syntax + st.elaborate + st.compile;
                sums[0] += interp;
                sums[1] += interp + st.assemble;
                sums[2] += interp + st.emit;
                costs.push(st.build() / source_bytes[i] as f64);
                total += st.build();
            }
        }
        if r > 0 {
            for (v, s) in engine_secs.iter_mut().zip(sums) {
                v.push(s);
            }
            op_cost.push(costs);
            // A round rebuilds exactly what set-up builds.
            setup_secs.push(total);
        }
    });

    progress("timed rounds");
    let metrics = if cfg.trace {
        let probes: Vec<Probe<'_>> = samples
            .iter()
            .map(|d| Probe {
                parsers: &setup.built[d.family].parsers,
                text: &d.text,
                resilient: &d.text,
            })
            .collect();
        layers::per_layer(&setup, &probes, SessionCounts::default(), &rounds, tracer)
    } else {
        let total: usize = source_bytes.iter().sum();
        let mib_s = engine_secs.map(|secs| total as f64 / MIB / median(&secs));
        let mut heap = [0; 3];
        for f in COMPOSITIONS {
            for e in Engine::ALL {
                let (ok, peak) = build_heap(f, e);
                tally.check(ok, || format!("{}: {} build failed", f.name, e.name()));
                heap[e as usize] = heap[e as usize].max(peak);
            }
        }
        layers::end_to_end(&setup_secs, mib_s, &op_cost, heap)
    };
    progress(if cfg.trace { "probes" } else { "heap" });
    Ok(Outcome { metrics, tally })
}
