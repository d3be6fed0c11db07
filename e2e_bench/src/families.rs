//! The grammar compositions the benchmark builds from `.mpeg` text, the
//! three engines that parse with them, and the front end that builds them
//! layer by layer.

use std::rc::Rc;

use modpeg_grammars::{generated, sources};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{EventSink, ParseError, RecoverPolicy, Recovered, Stats, SyntaxTree};
use modpeg_vm::VmProgram;

use crate::measure::median;
use crate::trace::Tracer;

/// The three engines, in the order metrics list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Interp,
    Vm,
    Codegen,
}

impl Engine {
    pub const ALL: [Engine; 3] = [Engine::Interp, Engine::Vm, Engine::Codegen];

    pub fn name(self) -> &'static str {
        ["interp", "vm", "codegen"][self as usize]
    }

    /// The engines starting at `round % 3`: rotating the order each round
    /// spreads warm-cache and drift effects evenly over the engines.
    pub fn rotated(round: usize) -> [Engine; 3] {
        let r = round % 3;
        [Self::ALL[r], Self::ALL[(r + 1) % 3], Self::ALL[(r + 2) % 3]]
    }

    /// Span name of a tree-mode parse (`parse.tree.<engine>`).
    pub fn tree_span(self) -> &'static str {
        ["parse.tree.interp", "parse.tree.vm", "parse.tree.codegen"][self as usize]
    }

    /// Span name of an events-mode parse.
    pub fn events_span(self) -> &'static str {
        [
            "parse.events.interp",
            "parse.events.vm",
            "parse.events.codegen",
        ][self as usize]
    }

    /// Span name of a resilient parse.
    pub fn recover_span(self) -> &'static str {
        ["recover.interp", "recover.vm", "recover.codegen"][self as usize]
    }
}

/// Entry points of one parser that `modpeg-codegen` generated when
/// `modpeg-grammars` was built.
pub struct Generated {
    pub parse_with_stats: fn(&str) -> (Result<SyntaxTree, ParseError>, Stats),
    pub parse_events: fn(&str, &mut dyn EventSink) -> Result<(), ParseError>,
    pub parse_resilient: fn(&str, &RecoverPolicy) -> Recovered<SyntaxTree>,
    pub recover_policy: fn() -> RecoverPolicy,
}

macro_rules! generated {
    ($m:ident) => {
        Generated {
            parse_with_stats: generated::$m::parse_with_stats,
            parse_events: generated::$m::parse_events,
            parse_resilient: generated::$m::parse_resilient,
            recover_policy: generated::$m::recover_policy,
        }
    };
}

/// One shipped composition: its module texts, root module and start
/// production, and its generated parser.
pub struct Family {
    pub name: &'static str,
    pub sources: &'static [&'static str],
    pub root: &'static str,
    pub start: &'static str,
    pub generated: Generated,
}

pub static CALC: Family = Family {
    name: "calc",
    sources: &[sources::CALC],
    root: "calc",
    start: "Program",
    generated: generated!(calc),
};

pub static JSON: Family = Family {
    name: "json",
    sources: &[sources::JSON],
    root: "json",
    start: "Document",
    generated: generated!(json),
};

pub static JAVA: Family = Family {
    name: "java",
    sources: &[sources::JAVA],
    root: "java.Program",
    start: "Program",
    generated: generated!(java),
};

pub static JAVA_EXT: Family = Family {
    name: "java.Extended",
    sources: &[sources::JAVA, sources::JAVA_EXT],
    root: "java.Extended",
    start: "Start",
    generated: generated!(java_extended),
};

pub static C: Family = Family {
    name: "c",
    sources: &[sources::C],
    root: "c.Program",
    start: "TranslationUnit",
    generated: generated!(c),
};

pub static JAVA_SQL: Family = Family {
    name: "java.WithSql",
    sources: &[sources::JAVA, sources::SQL, sources::JAVA_SQL],
    root: "java.WithSql",
    start: "Start",
    generated: generated!(java_sql),
};

pub static MPEG: Family = Family {
    name: "mpeg",
    sources: &[sources::MPEG],
    root: "mpeg",
    start: "File",
    generated: generated!(mpeg),
};

/// The seven compositions the `build` workload rebuilds.
pub static COMPOSITIONS: [&Family; 7] = [&CALC, &JSON, &JAVA, &JAVA_EXT, &C, &JAVA_SQL, &MPEG];

/// One family's parsers on all three engines, built from text. The
/// generated parser stands in for the codegen engine: its source was
/// emitted from the same text at build time.
pub struct Parsers {
    pub family: &'static Family,
    pub interp: CompiledGrammar,
    pub vm: VmProgram,
    /// The interpreter compiled for incremental sessions, when asked for.
    pub session: Option<Rc<CompiledGrammar>>,
    policies: [RecoverPolicy; 3],
}

impl Parsers {
    pub fn parse(&self, e: Engine, text: &str) -> Result<SyntaxTree, ParseError> {
        self.parse_with_stats(e, text).0
    }

    pub fn parse_with_stats(
        &self,
        e: Engine,
        text: &str,
    ) -> (Result<SyntaxTree, ParseError>, Stats) {
        match e {
            Engine::Interp => self.interp.parse_with_stats(text),
            Engine::Vm => self.vm.parse_with_stats(text),
            Engine::Codegen => (self.family.generated.parse_with_stats)(text),
        }
    }

    pub fn parse_events(
        &self,
        e: Engine,
        text: &str,
        sink: &mut dyn EventSink,
    ) -> Result<(), ParseError> {
        match e {
            Engine::Interp => self.interp.parse_events(text, sink),
            Engine::Vm => self.vm.parse_events(text, sink),
            Engine::Codegen => (self.family.generated.parse_events)(text, sink),
        }
    }

    /// A resilient parse under the engine's own default recovery policy.
    pub fn parse_resilient(&self, e: Engine, text: &str) -> Recovered<SyntaxTree> {
        let policy = &self.policies[e as usize];
        match e {
            Engine::Interp => self.interp.parse_resilient(text, policy),
            Engine::Vm => self.vm.parse_resilient(text, policy),
            Engine::Codegen => (self.family.generated.parse_resilient)(text, policy),
        }
    }
}

/// Seconds spent in each front-end layer, summed over a set of builds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub syntax: f64,
    pub elaborate: f64,
    pub compile: f64,
    pub assemble: f64,
    pub emit: f64,
    /// A standalone `transform::pipeline` run on each compiled grammar,
    /// outside the build (the `compile` time includes the same work).
    pub transform: f64,
}

impl Stages {
    fn add(&mut self, o: &Stages) {
        self.syntax += o.syntax;
        self.elaborate += o.elaborate;
        self.compile += o.compile;
        self.assemble += o.assemble;
        self.emit += o.emit;
        self.transform += o.transform;
    }

    /// Build time: every layer except the standalone transform.
    pub fn build(&self) -> f64 {
        self.syntax + self.elaborate + self.compile + self.assemble + self.emit
    }
}

/// What the front-end layers produced, summed over a set of builds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sizes {
    pub modules: usize,
    pub productions: usize,
    pub productions_out: usize,
    pub memo_slots: u32,
    pub ops: usize,
    pub emit_bytes: usize,
}

impl Sizes {
    fn add(&mut self, o: &Sizes) {
        self.modules += o.modules;
        self.productions += o.productions;
        self.productions_out += o.productions_out;
        self.memo_slots += o.memo_slots;
        self.ops += o.ops;
        self.emit_bytes += o.emit_bytes;
    }
}

/// What one build produced.
pub struct Built {
    pub parsers: Parsers,
    pub emitted: Option<String>,
    pub stages: Stages,
    pub sizes: Sizes,
}

/// How to build a family.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Also compile an interpreter with this configuration for sessions.
    pub session: Option<OptConfig>,
    /// Emit the generated-parser source from the compiled grammar.
    pub emit: bool,
    /// Also time a standalone transform pipeline per compile (the
    /// per-layer split of compile into transform and lowering).
    pub split_compile: bool,
}

/// Builds `family` from its module text: `parse_module_set`, `elaborate`,
/// `CompiledGrammar::compile(OptConfig::all())`, `VmProgram::from_compiled`,
/// and optionally the session compile and `generate_from_compiled`.
/// Every call is one span, for request `req`.
pub fn build(
    family: &'static Family,
    opts: BuildOptions,
    tracer: &Tracer,
    req: u64,
) -> Result<Built, String> {
    let fail = |layer: &str, e: &dyn std::fmt::Display| format!("{}: {layer}: {e}", family.name);
    let mut st = Stages::default();
    let mut sz = Sizes::default();
    let (set, t) = tracer.timed("syntax", req, || {
        modpeg_syntax::parse_module_set(family.sources.iter().copied())
    });
    st.syntax = t;
    let set = set.map_err(|e| fail("syntax", &e))?;
    sz.modules = set.len();
    let (grammar, t) = tracer.timed("elaborate", req, || {
        set.elaborate(family.root, Some(family.start))
    });
    st.elaborate = t;
    let grammar = grammar.map_err(|e| fail("elaborate", &e))?;
    sz.productions = grammar.len();

    let compile = |cfg: OptConfig, st: &mut Stages| -> Result<CompiledGrammar, String> {
        let (cg, t) = tracer.timed("compile", req, || CompiledGrammar::compile(&grammar, cfg));
        st.compile += t;
        if opts.split_compile {
            let (_, t) = tracer.timed("transform", req, || {
                modpeg_core::transform::pipeline(grammar.clone(), cfg.transform_flags())
            });
            st.transform += t;
        }
        cg.map_err(|e| fail("compile", &e))
    };
    let interp = compile(OptConfig::all(), &mut st)?;
    sz.productions_out = interp.production_count();
    sz.memo_slots = interp.memo_slot_count();
    let session = opts
        .session
        .map(|cfg| compile(cfg, &mut st).map(Rc::new))
        .transpose()?;
    let (vm, t) = tracer.timed("assemble", req, || VmProgram::from_compiled(&interp));
    st.assemble = t;
    let vm = vm.map_err(|e| fail("assemble", &e))?;
    sz.ops = vm.op_count();
    let emitted = if opts.emit {
        let (src, t) = tracer.timed("emit", req, || {
            modpeg_codegen::generate_from_compiled(&interp, family.name)
        });
        st.emit = t;
        let src = src.map_err(|e| fail("emit", &e))?;
        sz.emit_bytes = src.len();
        Some(src)
    } else {
        None
    };
    let policies = [
        interp.recover_policy(),
        vm.recover_policy(),
        (family.generated.recover_policy)(),
    ];
    Ok(Built {
        parsers: Parsers {
            family,
            interp,
            vm,
            session,
            policies,
        },
        emitted,
        stages: st,
        sizes: sz,
    })
}

/// The parsers a workload times, built several times from text.
pub struct Setup {
    /// The last rep's builds, one per family.
    pub built: Vec<Built>,
    /// Seconds of each rep (all families).
    pub reps: Vec<f64>,
    /// Per-layer medians over the reps.
    pub stages: Stages,
    pub sizes: Sizes,
}

impl Setup {
    pub fn parsers(&self) -> impl Iterator<Item = &Parsers> {
        self.built.iter().map(|b| &b.parsers)
    }
}

/// Builds every family in `families` `count` times; the standalone
/// transform runs only when `opts.split_compile` (traced runs), and is
/// not part of `seconds`.
pub fn setup(
    families: &[&'static Family],
    opts: BuildOptions,
    count: usize,
    tracer: &Tracer,
) -> Result<Setup, String> {
    let mut reps: Vec<Stages> = Vec::with_capacity(count);
    let mut built = Vec::new();
    let mut sizes = Sizes::default();
    for rep in 0..count {
        built.clear();
        sizes = Sizes::default();
        let mut st = Stages::default();
        for f in families {
            let b = build(f, opts, tracer, rep as u64)?;
            st.add(&b.stages);
            sizes.add(&b.sizes);
            built.push(b);
        }
        reps.push(st);
    }
    let med = |f: fn(&Stages) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    Ok(Setup {
        built,
        reps: reps.iter().map(Stages::build).collect(),
        stages: Stages {
            syntax: med(|s| s.syntax),
            elaborate: med(|s| s.elaborate),
            compile: med(|s| s.compile),
            assemble: med(|s| s.assemble),
            emit: med(|s| s.emit),
            transform: med(|s| s.transform),
        },
        sizes,
    })
}

/// Seconds to build every family in `families` once more from text. The
/// timed rounds call this between rounds, so that `setup_s` samples the
/// whole run rather than its first moments.
pub fn rebuild(
    families: &[&'static Family],
    opts: BuildOptions,
    tracer: &Tracer,
    req: u64,
) -> Result<f64, String> {
    families
        .iter()
        .map(|f| build(f, opts, tracer, req).map(|b| b.stages.build()))
        .sum()
}
