//! Elaboration: from a set of grammar modules to one flat [`Grammar`].
//!
//! The pipeline (paper §3, reconstructed):
//!
//! 1. **Instance construction.** Starting at the root module, process header
//!    declarations. `instantiate M(A, B)` creates (or reuses — instantiation
//!    is applicative) an *instance* of `M` with its parameters bound;
//!    `import X` records a resolution dependency; `modify X` marks the
//!    module as a modification of the instance `X`.
//! 2. **Modification application.** Modification instances are applied in
//!    instantiation order. `P := …` replaces a production's alternatives,
//!    `P += …` adds alternatives, `P -= <L>` removes labeled alternatives,
//!    and the `...` splice marker stands for the alternatives being
//!    modified. Fresh definitions in a modification are added to the
//!    *target's* namespace so new alternatives can use helper productions.
//! 3. **Resolution and flattening.** Every production gets a fully
//!    qualified name and a dense [`ProdId`]; every nonterminal reference is
//!    resolved against the scope of the module that *wrote* it (spliced
//!    alternatives keep resolving in their original module — this is what
//!    makes composition of independently written extensions sound).
//! 4. **Left-recursion splitting and well-formedness checks.**

use std::collections::HashMap;

use crate::ast::{AltAst, AnchorPos, ClauseOp, Decl, ModuleAst, ProdClause};
use crate::diag::{Diagnostic, Diagnostics, SrcSpan};
use crate::expr::Expr;
use crate::grammar::{Alternative, Attrs, Grammar, LrSplit, ProdId, ProdKind, Production};

/// A collection of grammar modules, indexed by name.
///
/// # Examples
///
/// ```
/// use modpeg_core::{ModuleAst, ModuleSet};
///
/// let mut set = ModuleSet::new();
/// set.add(ModuleAst::new("base")).unwrap();
/// assert!(set.get("base").is_some());
/// assert!(set.add(ModuleAst::new("base")).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModuleSet {
    order: Vec<String>,
    modules: HashMap<String, ModuleAst>,
}

impl ModuleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ModuleSet::default()
    }

    /// Adds a module.
    ///
    /// # Errors
    ///
    /// Returns an error if a module with the same name is already present.
    pub fn add(&mut self, module: ModuleAst) -> Result<(), Diagnostic> {
        if self.modules.contains_key(&module.name) {
            return Err(
                Diagnostic::error(format!("duplicate module `{}`", module.name))
                    .with_module(module.name.clone()),
            );
        }
        self.order.push(module.name.clone());
        self.modules.insert(module.name.clone(), module);
        Ok(())
    }

    /// Looks up a module by name.
    pub fn get(&self, name: &str) -> Option<&ModuleAst> {
        self.modules.get(name)
    }

    /// Iterates modules in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &ModuleAst> {
        self.order.iter().filter_map(|n| self.modules.get(n))
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Elaborates the set into a flat grammar.
    ///
    /// `root_module` names the non-parameterized module to start from;
    /// `start` optionally names the start production (resolved in the root
    /// module's scope). Without `start`, the first `public` production of
    /// the root module is used, falling back to its first production.
    ///
    /// # Errors
    ///
    /// Returns every elaboration problem found: unknown modules, arity
    /// mismatches, cyclic dependencies, clashing or dangling names, invalid
    /// modifications, left-recursion that cannot be handled, and
    /// ill-formed repetitions.
    pub fn elaborate(
        &self,
        root_module: &str,
        start: Option<&str>,
    ) -> Result<Grammar, Diagnostics> {
        Elaborator::new(self).run(root_module, start)
    }
}

/// Index of an instance during elaboration.
type InstIdx = usize;

#[derive(Debug)]
struct Instance {
    module: String,
    /// Resolution dependencies: bound parameters (in order) followed by
    /// declared imports and instantiations.
    imports: Vec<InstIdx>,
    /// Target instance if this is a modification.
    target: Option<InstIdx>,
    /// Display name; disambiguated after construction.
    display: String,
    /// Productions owned by this instance, in definition order
    /// (empty for modification instances).
    prods: Vec<PendingProd>,
    prod_index: HashMap<String, usize>,
}

#[derive(Debug, Clone)]
struct PendingProd {
    name: String,
    kind: ProdKind,
    attrs: Attrs,
    alts: Vec<PendingAlt>,
    recover: Vec<String>,
    span: SrcSpan,
    with_location_opt: bool,
}

#[derive(Debug, Clone)]
struct PendingAlt {
    label: Option<String>,
    expr: Expr<String>,
    /// The instance whose scope resolves this alternative's references.
    scope: InstIdx,
}

struct Elaborator<'a> {
    set: &'a ModuleSet,
    instances: Vec<Instance>,
    /// Applicative instantiation: (module, args) → instance.
    memo: HashMap<(String, Vec<InstIdx>), InstIdx>,
    /// Modification instances in creation order, with the scope they
    /// resolve in.
    modifications: Vec<InstIdx>,
    in_progress: Vec<(String, Vec<InstIdx>)>,
    diags: Diagnostics,
}

impl<'a> Elaborator<'a> {
    fn new(set: &'a ModuleSet) -> Self {
        Elaborator {
            set,
            instances: Vec::new(),
            memo: HashMap::new(),
            modifications: Vec::new(),
            in_progress: Vec::new(),
            diags: Diagnostics::new(),
        }
    }

    fn error(&mut self, module: &str, span: SrcSpan, msg: impl Into<String>) {
        self.diags
            .push(Diagnostic::error(msg).with_module(module).with_span(span));
    }

    /// Resolves a module reference appearing in `module`'s header, given
    /// the local environment (parameters and aliases).
    fn resolve_module_ref(
        &mut self,
        module: &str,
        env: &HashMap<String, InstIdx>,
        name: &str,
        span: SrcSpan,
    ) -> Option<InstIdx> {
        if let Some(&idx) = env.get(name) {
            return Some(idx);
        }
        if self.set.get(name).is_some() {
            return self.instantiate(name, Vec::new(), span);
        }
        self.error(
            module,
            span,
            format!("unknown module `{name}` (not a parameter, alias, or module)"),
        );
        None
    }

    fn instantiate(&mut self, name: &str, args: Vec<InstIdx>, span: SrcSpan) -> Option<InstIdx> {
        let key = (name.to_owned(), args.clone());
        if self.in_progress.contains(&key) {
            let cycle: Vec<&str> = self
                .in_progress
                .iter()
                .map(|(n, _)| n.as_str())
                .chain(std::iter::once(name))
                .collect();
            self.error(
                name,
                span,
                format!("cyclic module dependency: {}", cycle.join(" -> ")),
            );
            return None;
        }
        if let Some(&idx) = self.memo.get(&key) {
            return Some(idx);
        }
        let Some(ast) = self.set.get(name) else {
            self.error(name, span, format!("unknown module `{name}`"));
            return None;
        };
        if ast.params.len() != args.len() {
            self.error(
                name,
                ast.span,
                format!(
                    "module `{name}` expects {} argument(s), got {}",
                    ast.params.len(),
                    args.len()
                ),
            );
            return None;
        }
        let ast = ast.clone();
        self.in_progress.push(key.clone());
        let idx = self.instances.len();
        self.instances.push(Instance {
            module: name.to_owned(),
            imports: args.clone(),
            target: None,
            display: name.to_owned(),
            prods: Vec::new(),
            prod_index: HashMap::new(),
        });
        self.memo.insert(key, idx);

        // Local environment: parameters bound to argument instances.
        let mut env: HashMap<String, InstIdx> = ast
            .params
            .iter()
            .cloned()
            .zip(args.iter().copied())
            .collect();

        let mut with_location = false;
        for decl in &ast.decls {
            match decl {
                Decl::Import { module, span } => {
                    if let Some(dep) = self.resolve_module_ref(name, &env, module, *span) {
                        self.instances[idx].imports.push(dep);
                    }
                }
                Decl::Instantiate {
                    module,
                    args: arg_names,
                    alias,
                    span,
                } => {
                    let mut resolved = Vec::with_capacity(arg_names.len());
                    let mut ok = true;
                    for a in arg_names {
                        match self.resolve_module_ref(name, &env, a, *span) {
                            Some(i) => resolved.push(i),
                            None => ok = false,
                        }
                    }
                    if !ok {
                        continue;
                    }
                    if let Some(dep) = self.instantiate(module, resolved, *span) {
                        self.instances[idx].imports.push(dep);
                        let bind = alias.clone().unwrap_or_else(|| module.clone());
                        env.insert(bind, dep);
                    }
                }
                Decl::Modify { target, span } => {
                    if self.instances[idx].target.is_some() {
                        self.error(name, *span, "module declares more than one `modify` target");
                        continue;
                    }
                    if let Some(dep) = self.resolve_module_ref(name, &env, target, *span) {
                        if self.instances[dep].target.is_some() {
                            self.error(
                                name,
                                *span,
                                format!(
                                    "cannot modify `{}`: it is itself a modification",
                                    self.instances[dep].module
                                ),
                            );
                            continue;
                        }
                        self.instances[idx].target = Some(dep);
                        // The target's productions are in scope for the
                        // modification's own expressions.
                        self.instances[idx].imports.push(dep);
                    }
                }
                Decl::Option {
                    name: opt,
                    value: _,
                    span,
                } => match opt.as_str() {
                    "withLocation" => with_location = true,
                    "parser" | "grammar" => {}
                    other => {
                        self.error(name, *span, format!("unknown option `{other}`"));
                    }
                },
            }
        }

        if self.instances[idx].target.is_some() {
            self.modifications.push(idx);
            // Clauses are applied in the modification phase; validate ops
            // lightly here.
        } else {
            // A defining module: all clauses must be plain definitions.
            for clause in &ast.productions {
                if clause.op != ClauseOp::Define {
                    self.error(
                        name,
                        clause.span,
                        format!(
                            "`{} {}` requires a `modify` declaration",
                            clause.name,
                            clause.op.token()
                        ),
                    );
                    continue;
                }
                self.add_definition(idx, clause, with_location);
            }
        }

        self.in_progress.pop();
        Some(idx)
    }

    fn add_definition(&mut self, idx: InstIdx, clause: &ProdClause, with_location: bool) {
        let module = self.instances[idx].module.clone();
        if self.instances[idx].prod_index.contains_key(&clause.name) {
            self.error(
                &module,
                clause.span,
                format!("duplicate production `{}`", clause.name),
            );
            return;
        }
        let mut alts = Vec::with_capacity(clause.alts.len());
        let mut labels: Vec<&str> = Vec::new();
        for alt in &clause.alts {
            match alt {
                AltAst::Splice => {
                    self.error(
                        &module,
                        clause.span,
                        format!(
                            "`...` is only legal in `:=`/`+=` clauses, not definitions of `{}`",
                            clause.name
                        ),
                    );
                }
                AltAst::Alt { label, expr } => {
                    if let Some(l) = label {
                        if labels.contains(&l.as_str()) {
                            self.error(
                                &module,
                                clause.span,
                                format!("duplicate alternative label `<{l}>` in `{}`", clause.name),
                            );
                        }
                        labels.push(l);
                    }
                    alts.push(PendingAlt {
                        label: label.clone(),
                        expr: expr.clone(),
                        scope: idx,
                    });
                }
            }
        }
        let pp = PendingProd {
            name: clause.name.clone(),
            kind: clause.kind.unwrap_or_default(),
            attrs: clause.attrs,
            alts,
            recover: clause.recover.clone(),
            span: clause.span,
            with_location_opt: with_location,
        };
        let slot = self.instances[idx].prods.len();
        self.instances[idx].prods.push(pp);
        self.instances[idx]
            .prod_index
            .insert(clause.name.clone(), slot);
    }

    /// Applies one modification instance's clauses to its target.
    fn apply_modification(&mut self, mod_idx: InstIdx) {
        let Some(target) = self.instances[mod_idx].target else {
            return;
        };
        let module = self.instances[mod_idx].module.clone();
        let Some(ast) = self.set.get(&module).cloned() else {
            return;
        };
        let with_location = ast.options().any(|(n, _)| n == "withLocation");
        for clause in &ast.productions {
            match clause.op {
                ClauseOp::Define => {
                    // Fresh helper production, added to the target's
                    // namespace but resolving in the modification's scope.
                    let exists = self.instances[target].prod_index.contains_key(&clause.name);
                    if exists {
                        self.error(
                            &module,
                            clause.span,
                            format!(
                                "production `{}` already exists in modified module `{}`",
                                clause.name, self.instances[target].module
                            ),
                        );
                        continue;
                    }
                    let mut alts = Vec::new();
                    for alt in &clause.alts {
                        match alt {
                            AltAst::Splice => self.error(
                                &module,
                                clause.span,
                                "`...` is only legal in `:=`/`+=` clauses",
                            ),
                            AltAst::Alt { label, expr } => alts.push(PendingAlt {
                                label: label.clone(),
                                expr: expr.clone(),
                                scope: mod_idx,
                            }),
                        }
                    }
                    let pp = PendingProd {
                        name: clause.name.clone(),
                        kind: clause.kind.unwrap_or_default(),
                        attrs: clause.attrs,
                        alts,
                        recover: clause.recover.clone(),
                        span: clause.span,
                        with_location_opt: with_location,
                    };
                    let slot = self.instances[target].prods.len();
                    self.instances[target].prods.push(pp);
                    self.instances[target]
                        .prod_index
                        .insert(clause.name.clone(), slot);
                }
                ClauseOp::Override | ClauseOp::Append => {
                    let Some(&slot) = self.instances[target].prod_index.get(&clause.name) else {
                        self.error(
                            &module,
                            clause.span,
                            format!(
                                "cannot modify `{}`: no such production in `{}`",
                                clause.name, self.instances[target].module
                            ),
                        );
                        continue;
                    };
                    if clause
                        .kind
                        .is_some_and(|k| k != self.instances[target].prods[slot].kind)
                    {
                        self.error(
                            &module,
                            clause.span,
                            format!(
                                "modification of `{}` changes its kind from {} to {}",
                                clause.name,
                                self.instances[target].prods[slot].kind,
                                clause.kind.expect("checked some")
                            ),
                        );
                        continue;
                    }
                    let splices = clause
                        .alts
                        .iter()
                        .filter(|a| matches!(a, AltAst::Splice))
                        .count();
                    if splices > 1 {
                        self.error(
                            &module,
                            clause.span,
                            format!(
                                "`...` may appear at most once in a modification of `{}`",
                                clause.name
                            ),
                        );
                        continue;
                    }
                    let old = self.instances[target].prods[slot].alts.clone();
                    let mut new_alts: Vec<PendingAlt> = Vec::new();
                    for alt in &clause.alts {
                        match alt {
                            AltAst::Splice => new_alts.extend(old.iter().cloned()),
                            AltAst::Alt { label, expr } => new_alts.push(PendingAlt {
                                label: label.clone(),
                                expr: expr.clone(),
                                scope: mod_idx,
                            }),
                        }
                    }
                    if let Some((pos, anchor)) = &clause.anchor {
                        // Anchored insertion: `P += before/after <L> alts`.
                        if clause.op != ClauseOp::Append || splices != 0 {
                            self.error(
                                &module,
                                clause.span,
                                format!(
                                    "anchored insertion into `{}` requires `+=` without `...`",
                                    clause.name
                                ),
                            );
                            continue;
                        }
                        let Some(idx) = old.iter().position(|a| a.label.as_deref() == Some(anchor))
                        else {
                            self.error(
                                &module,
                                clause.span,
                                format!(
                                    "`{}` has no alternative labeled `<{anchor}>` to anchor on",
                                    clause.name
                                ),
                            );
                            continue;
                        };
                        let at = match pos {
                            AnchorPos::Before => idx,
                            AnchorPos::After => idx + 1,
                        };
                        let mut placed = old;
                        placed.splice(at..at, new_alts);
                        new_alts = placed;
                    } else if clause.op == ClauseOp::Append && splices == 0 {
                        // Pure append: originals first.
                        let mut appended = old;
                        appended.extend(new_alts);
                        new_alts = appended;
                    }
                    // Label uniqueness after modification.
                    let mut seen: Vec<&str> = Vec::new();
                    let mut dup = None;
                    for a in &new_alts {
                        if let Some(l) = &a.label {
                            if seen.contains(&l.as_str()) {
                                dup = Some(l.clone());
                                break;
                            }
                            seen.push(l);
                        }
                    }
                    if let Some(l) = dup {
                        self.error(
                            &module,
                            clause.span,
                            format!(
                                "modification of `{}` duplicates alternative label `<{l}>`",
                                clause.name
                            ),
                        );
                        continue;
                    }
                    self.instances[target].prods[slot].alts = new_alts;
                    // Recovery tokens on a modification clause accumulate
                    // onto the modified production's set.
                    for tok in &clause.recover {
                        let recover = &mut self.instances[target].prods[slot].recover;
                        if !recover.contains(tok) {
                            recover.push(tok.clone());
                        }
                    }
                }
                ClauseOp::Remove => {
                    let Some(&slot) = self.instances[target].prod_index.get(&clause.name) else {
                        self.error(
                            &module,
                            clause.span,
                            format!(
                                "cannot modify `{}`: no such production in `{}`",
                                clause.name, self.instances[target].module
                            ),
                        );
                        continue;
                    };
                    for label in &clause.removed {
                        let alts = &mut self.instances[target].prods[slot].alts;
                        match alts.iter().position(|a| a.label.as_deref() == Some(label)) {
                            Some(pos) => {
                                alts.remove(pos);
                            }
                            None => self.error(
                                &module,
                                clause.span,
                                format!("`{}` has no alternative labeled `<{label}>`", clause.name),
                            ),
                        }
                    }
                }
            }
        }
    }

    /// Resolves a production name in the scope of instance `scope`.
    fn resolve_name(&self, scope: InstIdx, name: &str) -> Result<(InstIdx, usize), String> {
        // Local productions first.
        if let Some(&slot) = self.instances[scope].prod_index.get(name) {
            return Ok((scope, slot));
        }
        // Then imports, in declaration order; ambiguity is an error.
        let mut found: Option<(InstIdx, usize)> = None;
        for &dep in &self.instances[scope].imports {
            // A modification dependency exposes its target's namespace.
            let dep = self.instances[dep].target.unwrap_or(dep);
            if let Some(&slot) = self.instances[dep].prod_index.get(name) {
                match found {
                    None => found = Some((dep, slot)),
                    Some((prev, _)) if prev == dep => {}
                    Some((prev, _)) => {
                        return Err(format!(
                            "ambiguous reference `{name}`: defined in both `{}` and `{}`",
                            self.instances[prev].module, self.instances[dep].module
                        ));
                    }
                }
            }
        }
        found.ok_or_else(|| format!("undefined nonterminal `{name}`"))
    }

    fn run(mut self, root_module: &str, start: Option<&str>) -> Result<Grammar, Diagnostics> {
        let Some(root_ast) = self.set.get(root_module) else {
            self.diags.push(Diagnostic::error(format!(
                "unknown root module `{root_module}`"
            )));
            return Err(self.diags);
        };
        if !root_ast.params.is_empty() {
            self.diags.push(
                Diagnostic::error(format!(
                    "root module `{root_module}` must not be parameterized"
                ))
                .with_module(root_module),
            );
            return Err(self.diags);
        }
        if root_ast.is_modification() {
            self.diags.push(
                Diagnostic::error(format!(
                    "root module `{root_module}` must not be a modification"
                ))
                .with_module(root_module),
            );
            return Err(self.diags);
        }
        let root_inst = self.instantiate(root_module, Vec::new(), root_ast.span);
        if self.diags.has_errors() {
            return Err(self.diags);
        }
        let Some(root_inst) = root_inst else {
            return Err(self.diags);
        };

        // Phase B: apply modifications in instantiation order.
        for mod_idx in self.modifications.clone() {
            self.apply_modification(mod_idx);
        }
        if self.diags.has_errors() {
            return Err(self.diags);
        }

        // Disambiguate display names for multiply instantiated modules.
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let mut displays = Vec::with_capacity(self.instances.len());
        for inst in &self.instances {
            let c = counts.entry(inst.module.as_str()).or_insert(0);
            *c += 1;
            displays.push(if *c == 1 {
                inst.module.clone()
            } else {
                format!("{}#{}", inst.module, c)
            });
        }
        for (inst, d) in self.instances.iter_mut().zip(displays) {
            inst.display = d;
        }

        // Phase C: assign dense ids and resolve references.
        let mut id_of: HashMap<(InstIdx, usize), ProdId> = HashMap::new();
        let mut order: Vec<(InstIdx, usize)> = Vec::new();
        for (i, inst) in self.instances.iter().enumerate() {
            for slot in 0..inst.prods.len() {
                let id = ProdId(order.len() as u32);
                id_of.insert((i, slot), id);
                order.push((i, slot));
            }
        }

        let mut productions = Vec::with_capacity(order.len());
        for &(inst_idx, slot) in &order {
            let pp = self.instances[inst_idx].prods[slot].clone();
            let display = self.instances[inst_idx].display.clone();
            let mut alts = Vec::with_capacity(pp.alts.len());
            for alt in &pp.alts {
                let mut errs: Vec<String> = Vec::new();
                let resolved = alt.expr.map_refs(&mut |name: &String| match self
                    .resolve_name(alt.scope, name)
                {
                    Ok(key) => *id_of.get(&key).expect("resolved key was enumerated"),
                    Err(msg) => {
                        errs.push(msg);
                        ProdId(0)
                    }
                });
                let module = self.instances[alt.scope].module.clone();
                for msg in errs {
                    self.error(&module, pp.span, format!("in `{}`: {msg}", pp.name));
                }
                alts.push(Alternative {
                    label: alt.label.clone(),
                    expr: resolved,
                });
            }
            let mut attrs = pp.attrs;
            attrs.with_location |= pp.with_location_opt;
            productions.push(Production {
                name: format!("{display}.{}", pp.name),
                kind: pp.kind,
                attrs,
                alts,
                lr: None,
                recover: pp.recover,
            });
        }
        if self.diags.has_errors() {
            return Err(self.diags);
        }

        // Start symbol.
        let root_id = match start {
            Some(name) => {
                let key = self.resolve_name(root_inst, name).map_err(|msg| {
                    Diagnostics::from(Diagnostic::error(format!("start symbol: {msg}")))
                })?;
                *id_of.get(&key).expect("resolved key was enumerated")
            }
            None => {
                let inst = &self.instances[root_inst];
                let pick = inst
                    .prods
                    .iter()
                    .position(|p| p.attrs.public)
                    .or(if inst.prods.is_empty() { None } else { Some(0) });
                match pick {
                    Some(slot) => *id_of.get(&(root_inst, slot)).expect("enumerated"),
                    None => {
                        self.diags.push(
                            Diagnostic::error(format!(
                                "root module `{root_module}` has no productions; pass a start symbol"
                            ))
                            .with_module(root_module),
                        );
                        return Err(self.diags);
                    }
                }
            }
        };

        // Phase D: split direct left recursion, then assemble.
        for (i, p) in productions.iter_mut().enumerate() {
            split_left_recursion(ProdId(i as u32), p, &mut self.diags);
        }
        if self.diags.has_errors() {
            return Err(self.diags);
        }

        match Grammar::new(productions, root_id) {
            Ok(g) => {
                // Whole-grammar well-formedness checks live in `analysis`,
                // but indirect left recursion and nullable repetition make
                // the grammar unusable, so they are enforced here.
                crate::analysis::check_well_formed(&g)?;
                Ok(g)
            }
            Err(e) => Err(e),
        }
    }
}

/// Detects direct left recursion in `prod` (an alternative whose first
/// element is a reference to `prod` itself) and computes the
/// base/tail split.
pub(crate) fn split_left_recursion(id: ProdId, prod: &mut Production, diags: &mut Diagnostics) {
    fn leading_self_ref(expr: &Expr<ProdId>, id: ProdId) -> Option<Vec<Expr<ProdId>>> {
        match expr {
            Expr::Ref(r) if *r == id => Some(Vec::new()),
            Expr::Seq(xs) => match xs.first() {
                Some(Expr::Ref(r)) if *r == id => Some(xs[1..].to_vec()),
                _ => None,
            },
            _ => None,
        }
    }

    let mut bases = Vec::new();
    let mut tails = Vec::new();
    for alt in &prod.alts {
        match leading_self_ref(&alt.expr, id) {
            Some(rest) if rest.is_empty() => {
                diags.push(Diagnostic::error(format!(
                    "production `{}` has a trivially left-recursive alternative (`{0}` alone)",
                    prod.name
                )));
                return;
            }
            Some(rest) => tails.push(Alternative {
                label: alt.label.clone(),
                expr: Expr::seq(rest),
            }),
            None => bases.push(alt.clone()),
        }
    }
    if tails.is_empty() {
        return;
    }
    if bases.is_empty() {
        diags.push(Diagnostic::error(format!(
            "production `{}` is left-recursive with no base alternative",
            prod.name
        )));
        return;
    }
    if prod.kind != ProdKind::Node {
        diags.push(Diagnostic::error(format!(
            "left-recursive production `{}` must have kind Node (found {})",
            prod.name, prod.kind
        )));
        return;
    }
    prod.lr = Some(LrSplit { bases, tails });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AltAst, Decl, ProdClause};

    fn alt(expr: Expr<String>) -> AltAst {
        AltAst::Alt { label: None, expr }
    }

    fn lalt(label: &str, expr: Expr<String>) -> AltAst {
        AltAst::Alt {
            label: Some(label.into()),
            expr,
        }
    }

    fn r(name: &str) -> Expr<String> {
        Expr::Ref(name.into())
    }

    fn define(name: &str, kind: ProdKind, alts: Vec<AltAst>) -> ProdClause {
        ProdClause::define(Attrs::default(), kind, name, alts)
    }

    fn simple_module(name: &str, prods: Vec<ProdClause>) -> ModuleAst {
        let mut m = ModuleAst::new(name);
        m.productions = prods;
        m
    }

    #[test]
    fn single_module_elaborates() {
        let mut set = ModuleSet::new();
        set.add(simple_module(
            "m",
            vec![
                define(
                    "A",
                    ProdKind::Node,
                    vec![alt(Expr::seq(vec![Expr::literal("a"), r("B")]))],
                ),
                define(
                    "B",
                    ProdKind::Text,
                    vec![alt(Expr::Capture(Box::new(Expr::literal("b"))))],
                ),
            ],
        ))
        .unwrap();
        let g = set.elaborate("m", None).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.production(g.root()).name, "m.A");
        assert_eq!(g.find("m.B"), Some(ProdId(1)));
    }

    #[test]
    fn import_resolves_names() {
        let mut set = ModuleSet::new();
        set.add(simple_module(
            "lib",
            vec![define(
                "Word",
                ProdKind::Text,
                vec![alt(Expr::Capture(Box::new(Expr::literal("w"))))],
            )],
        ))
        .unwrap();
        let mut main = simple_module(
            "main",
            vec![define("Start", ProdKind::Node, vec![alt(r("Word"))])],
        );
        main.decls.push(Decl::Import {
            module: "lib".into(),
            span: SrcSpan::none(),
        });
        set.add(main).unwrap();
        let g = set.elaborate("main", None).unwrap();
        assert_eq!(g.len(), 2);
        let root = g.production(g.root());
        assert_eq!(root.name, "main.Start");
        // The reference resolved to lib.Word.
        let mut refs = Vec::new();
        root.for_each_ref(&mut |id| refs.push(g.production(id).name.clone()));
        assert_eq!(refs, vec!["lib.Word".to_owned()]);
    }

    #[test]
    fn undefined_reference_is_an_error() {
        let mut set = ModuleSet::new();
        set.add(simple_module(
            "m",
            vec![define("A", ProdKind::Node, vec![alt(r("Nope"))])],
        ))
        .unwrap();
        let err = set.elaborate("m", None).unwrap_err();
        assert!(err.to_string().contains("undefined nonterminal `Nope`"));
    }

    #[test]
    fn ambiguous_import_is_an_error() {
        let mut set = ModuleSet::new();
        for lib in ["lib1", "lib2"] {
            set.add(simple_module(
                lib,
                vec![define(
                    "Word",
                    ProdKind::Text,
                    vec![alt(Expr::Capture(Box::new(Expr::literal("w"))))],
                )],
            ))
            .unwrap();
        }
        let mut main = simple_module(
            "main",
            vec![define("Start", ProdKind::Node, vec![alt(r("Word"))])],
        );
        for lib in ["lib1", "lib2"] {
            main.decls.push(Decl::Import {
                module: lib.into(),
                span: SrcSpan::none(),
            });
        }
        set.add(main).unwrap();
        let err = set.elaborate("main", None).unwrap_err();
        assert!(
            err.to_string().contains("ambiguous reference `Word`"),
            "{err}"
        );
    }

    #[test]
    fn local_definition_shadows_import() {
        let mut set = ModuleSet::new();
        set.add(simple_module(
            "lib",
            vec![define(
                "Word",
                ProdKind::Text,
                vec![alt(Expr::Capture(Box::new(Expr::literal("libword"))))],
            )],
        ))
        .unwrap();
        let mut main = simple_module(
            "main",
            vec![
                define("Start", ProdKind::Node, vec![alt(r("Word"))]),
                define(
                    "Word",
                    ProdKind::Text,
                    vec![alt(Expr::Capture(Box::new(Expr::literal("localword"))))],
                ),
            ],
        );
        main.decls.push(Decl::Import {
            module: "lib".into(),
            span: SrcSpan::none(),
        });
        set.add(main).unwrap();
        let g = set.elaborate("main", None).unwrap();
        let root = g.production(g.root());
        let mut refs = Vec::new();
        root.for_each_ref(&mut |id| refs.push(g.production(id).name.clone()));
        assert_eq!(refs, vec!["main.Word".to_owned()]);
    }

    #[test]
    fn parameterized_instantiation_is_applicative() {
        // generic(P) references P's production Item.
        let mut generic = ModuleAst::new("generic");
        generic.params.push("P".into());
        generic.productions = vec![define(
            "ListOf",
            ProdKind::Node,
            vec![alt(Expr::Star(Box::new(r("Item"))))],
        )];
        let mut set = ModuleSet::new();
        set.add(generic).unwrap();
        set.add(simple_module(
            "items",
            vec![define(
                "Item",
                ProdKind::Text,
                vec![alt(Expr::Capture(Box::new(Expr::literal("i"))))],
            )],
        ))
        .unwrap();
        let mut main = simple_module(
            "main",
            vec![define("Start", ProdKind::Node, vec![alt(r("ListOf"))])],
        );
        main.decls.push(Decl::Instantiate {
            module: "generic".into(),
            args: vec!["items".into()],
            alias: None,
            span: SrcSpan::none(),
        });
        main.decls.push(Decl::Instantiate {
            module: "generic".into(),
            args: vec!["items".into()],
            alias: Some("Again".into()),
            span: SrcSpan::none(),
        });
        set.add(main).unwrap();
        let g = set.elaborate("main", None).unwrap();
        // Applicative: generic(items) instantiated once, so 3 productions:
        // main.Start, items.Item, generic.ListOf.
        assert_eq!(
            g.len(),
            3,
            "{:?}",
            g.productions().iter().map(|p| &p.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn distinct_arguments_make_distinct_instances() {
        let mut generic = ModuleAst::new("generic");
        generic.params.push("P".into());
        generic.productions = vec![define("Wrapped", ProdKind::Node, vec![alt(r("Item"))])];
        let mut set = ModuleSet::new();
        set.add(generic).unwrap();
        for name in ["items1", "items2"] {
            set.add(simple_module(
                name,
                vec![define(
                    "Item",
                    ProdKind::Text,
                    vec![alt(Expr::Capture(Box::new(Expr::literal(name))))],
                )],
            ))
            .unwrap();
        }
        let mut main = simple_module(
            "main",
            vec![define(
                "Start",
                ProdKind::Node,
                vec![alt(Expr::seq(vec![r("W1"), r("W2")]))],
            )],
        );
        // Two instances, aliased; references disambiguated via helper prods.
        main.decls.push(Decl::Instantiate {
            module: "generic".into(),
            args: vec!["items1".into()],
            alias: Some("G1".into()),
            span: SrcSpan::none(),
        });
        main.decls.push(Decl::Instantiate {
            module: "generic".into(),
            args: vec!["items2".into()],
            alias: Some("G2".into()),
            span: SrcSpan::none(),
        });
        set.add(main).unwrap();
        // `Wrapped` is ambiguous between the two instances: expect error.
        let mut main2 = set.get("main").unwrap().clone();
        main2.productions = vec![define("Start", ProdKind::Node, vec![alt(r("Wrapped"))])];
        let mut set2 = ModuleSet::new();
        set2.add(set.get("generic").unwrap().clone()).unwrap();
        set2.add(set.get("items1").unwrap().clone()).unwrap();
        set2.add(set.get("items2").unwrap().clone()).unwrap();
        set2.add({
            let mut m = ModuleAst::new("main");
            m.decls = main2.decls.clone();
            m.productions = main2.productions.clone();
            m
        })
        .unwrap();
        let err = set2.elaborate("main", None).unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let mut generic = ModuleAst::new("generic");
        generic.params.push("P".into());
        let mut set = ModuleSet::new();
        set.add(generic).unwrap();
        let mut main = simple_module(
            "main",
            vec![define("S", ProdKind::Node, vec![alt(Expr::literal("x"))])],
        );
        main.decls.push(Decl::Import {
            module: "generic".into(),
            span: SrcSpan::none(),
        });
        set.add(main).unwrap();
        let err = set.elaborate("main", None).unwrap_err();
        assert!(err.to_string().contains("expects 1 argument"), "{err}");
    }

    fn modification_fixture() -> ModuleSet {
        let mut set = ModuleSet::new();
        set.add(simple_module(
            "base",
            vec![define(
                "Statement",
                ProdKind::Node,
                vec![
                    lalt("If", Expr::literal("if")),
                    lalt("While", Expr::literal("while")),
                ],
            )],
        ))
        .unwrap();
        set
    }

    fn mod_module(name: &str, clauses: Vec<ProdClause>) -> ModuleAst {
        let mut m = ModuleAst::new(name);
        m.decls.push(Decl::Modify {
            target: "base".into(),
            span: SrcSpan::none(),
        });
        m.productions = clauses;
        m
    }

    fn main_importing(mods: &[&str]) -> ModuleAst {
        let mut m = ModuleAst::new("main");
        m.decls.push(Decl::Import {
            module: "base".into(),
            span: SrcSpan::none(),
        });
        for x in mods {
            m.decls.push(Decl::Import {
                module: (*x).into(),
                span: SrcSpan::none(),
            });
        }
        m.productions = vec![define("Start", ProdKind::Node, vec![alt(r("Statement"))])];
        m
    }

    #[test]
    fn append_adds_alternative_at_end() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "Statement".into(),
                op: ClauseOp::Append,
                alts: vec![lalt("For", Expr::literal("for"))],
                removed: vec![],
                anchor: None,
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        set.add(main_importing(&["ext"])).unwrap();
        let g = set.elaborate("main", None).unwrap();
        let stmt = g.production(g.find("base.Statement").unwrap());
        let labels: Vec<_> = stmt.alts.iter().map(|a| a.label.clone().unwrap()).collect();
        assert_eq!(labels, vec!["If", "While", "For"]);
    }

    #[test]
    fn splice_controls_ordering() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "Statement".into(),
                op: ClauseOp::Append,
                alts: vec![lalt("For", Expr::literal("for")), AltAst::Splice],
                removed: vec![],
                anchor: None,
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        set.add(main_importing(&["ext"])).unwrap();
        let g = set.elaborate("main", None).unwrap();
        let stmt = g.production(g.find("base.Statement").unwrap());
        let labels: Vec<_> = stmt.alts.iter().map(|a| a.label.clone().unwrap()).collect();
        assert_eq!(labels, vec!["For", "If", "While"]);
    }

    #[test]
    fn anchored_insertion_places_alternatives() {
        for (pos, expected) in [
            (AnchorPos::Before, vec!["If", "New", "While"]),
            (AnchorPos::After, vec!["If", "While", "New"]),
        ] {
            let mut set = modification_fixture();
            set.add(mod_module(
                "ext",
                vec![ProdClause {
                    attrs: Attrs::default(),
                    kind: None,
                    name: "Statement".into(),
                    op: ClauseOp::Append,
                    alts: vec![lalt("New", Expr::literal("new"))],
                    removed: vec![],
                    anchor: Some((pos, "While".into())),
                    recover: vec![],
                    span: SrcSpan::none(),
                }],
            ))
            .unwrap();
            set.add(main_importing(&["ext"])).unwrap();
            let g = set.elaborate("main", None).unwrap();
            let stmt = g.production(g.find("base.Statement").unwrap());
            let labels: Vec<_> = stmt.alts.iter().map(|a| a.label.clone().unwrap()).collect();
            assert_eq!(labels, expected, "{pos:?}");
        }
    }

    #[test]
    fn anchored_insertion_on_unknown_label_is_an_error() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "Statement".into(),
                op: ClauseOp::Append,
                alts: vec![lalt("New", Expr::literal("new"))],
                removed: vec![],
                anchor: Some((AnchorPos::After, "Nope".into())),
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        set.add(main_importing(&["ext"])).unwrap();
        let err = set.elaborate("main", None).unwrap_err();
        assert!(err.to_string().contains("to anchor on"), "{err}");
    }

    #[test]
    fn anchored_insertion_rejects_splice() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "Statement".into(),
                op: ClauseOp::Append,
                alts: vec![lalt("New", Expr::literal("new")), AltAst::Splice],
                removed: vec![],
                anchor: Some((AnchorPos::After, "If".into())),
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        set.add(main_importing(&["ext"])).unwrap();
        let err = set.elaborate("main", None).unwrap_err();
        assert!(
            err.to_string().contains("requires `+=` without `...`"),
            "{err}"
        );
    }

    #[test]
    fn override_replaces_alternatives() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "Statement".into(),
                op: ClauseOp::Override,
                alts: vec![lalt("Only", Expr::literal("only"))],
                removed: vec![],
                anchor: None,
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        set.add(main_importing(&["ext"])).unwrap();
        let g = set.elaborate("main", None).unwrap();
        let stmt = g.production(g.find("base.Statement").unwrap());
        assert_eq!(stmt.alts.len(), 1);
        assert_eq!(stmt.alts[0].label.as_deref(), Some("Only"));
    }

    #[test]
    fn remove_deletes_labeled_alternative() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "Statement".into(),
                op: ClauseOp::Remove,
                alts: vec![],
                removed: vec!["If".into()],
                anchor: None,
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        set.add(main_importing(&["ext"])).unwrap();
        let g = set.elaborate("main", None).unwrap();
        let stmt = g.production(g.find("base.Statement").unwrap());
        let labels: Vec<_> = stmt.alts.iter().map(|a| a.label.clone().unwrap()).collect();
        assert_eq!(labels, vec!["While"]);
    }

    #[test]
    fn remove_unknown_label_is_an_error() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "Statement".into(),
                op: ClauseOp::Remove,
                alts: vec![],
                removed: vec!["Nope".into()],
                anchor: None,
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        set.add(main_importing(&["ext"])).unwrap();
        let err = set.elaborate("main", None).unwrap_err();
        assert!(
            err.to_string().contains("no alternative labeled `<Nope>`"),
            "{err}"
        );
    }

    #[test]
    fn two_independent_extensions_compose() {
        let mut set = modification_fixture();
        for (name, label, kw) in [("ext1", "For", "for"), ("ext2", "Do", "do")] {
            set.add(mod_module(
                name,
                vec![ProdClause {
                    attrs: Attrs::default(),
                    kind: None,
                    name: "Statement".into(),
                    op: ClauseOp::Append,
                    alts: vec![lalt(label, Expr::literal(kw))],
                    removed: vec![],
                    anchor: None,
                    recover: vec![],
                    span: SrcSpan::none(),
                }],
            ))
            .unwrap();
        }
        set.add(main_importing(&["ext1", "ext2"])).unwrap();
        let g = set.elaborate("main", None).unwrap();
        let stmt = g.production(g.find("base.Statement").unwrap());
        let labels: Vec<_> = stmt.alts.iter().map(|a| a.label.clone().unwrap()).collect();
        assert_eq!(labels, vec!["If", "While", "For", "Do"]);
    }

    #[test]
    fn modification_helper_production_lands_in_target_namespace() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![
                define(
                    "Helper",
                    ProdKind::Text,
                    vec![alt(Expr::Capture(Box::new(Expr::literal("h"))))],
                ),
                ProdClause {
                    attrs: Attrs::default(),
                    kind: None,
                    name: "Statement".into(),
                    op: ClauseOp::Append,
                    alts: vec![lalt("H", r("Helper"))],
                    removed: vec![],
                    anchor: None,
                    recover: vec![],
                    span: SrcSpan::none(),
                },
            ],
        ))
        .unwrap();
        set.add(main_importing(&["ext"])).unwrap();
        let g = set.elaborate("main", None).unwrap();
        assert!(g.find("base.Helper").is_some());
    }

    #[test]
    fn modifying_without_declaration_is_an_error() {
        let mut set = ModuleSet::new();
        set.add(simple_module(
            "m",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "X".into(),
                op: ClauseOp::Append,
                alts: vec![alt(Expr::literal("x"))],
                removed: vec![],
                anchor: None,
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        let err = set.elaborate("m", None).unwrap_err();
        assert!(
            err.to_string().contains("requires a `modify` declaration"),
            "{err}"
        );
    }

    #[test]
    fn modifying_a_modification_is_an_error() {
        let mut set = modification_fixture();
        set.add(mod_module("ext1", vec![])).unwrap();
        let mut ext2 = ModuleAst::new("ext2");
        ext2.decls.push(Decl::Modify {
            target: "ext1".into(),
            span: SrcSpan::none(),
        });
        set.add(ext2).unwrap();
        set.add(main_importing(&["ext1", "ext2"])).unwrap();
        let err = set.elaborate("main", None).unwrap_err();
        assert!(err.to_string().contains("itself a modification"), "{err}");
    }

    #[test]
    fn unreferenced_modification_does_not_apply() {
        let mut set = modification_fixture();
        set.add(mod_module(
            "ext",
            vec![ProdClause {
                attrs: Attrs::default(),
                kind: None,
                name: "Statement".into(),
                op: ClauseOp::Append,
                alts: vec![lalt("For", Expr::literal("for"))],
                removed: vec![],
                anchor: None,
                recover: vec![],
                span: SrcSpan::none(),
            }],
        ))
        .unwrap();
        set.add(main_importing(&[])).unwrap(); // ext not imported
        let g = set.elaborate("main", None).unwrap();
        let stmt = g.production(g.find("base.Statement").unwrap());
        assert_eq!(stmt.alts.len(), 2);
    }

    #[test]
    fn direct_left_recursion_is_split() {
        let mut set = ModuleSet::new();
        set.add(simple_module(
            "m",
            vec![
                define(
                    "Expr",
                    ProdKind::Node,
                    vec![
                        lalt(
                            "Add",
                            Expr::seq(vec![r("Expr"), Expr::literal("+"), r("Num")]),
                        ),
                        lalt("Num", r("Num")),
                    ],
                ),
                define(
                    "Num",
                    ProdKind::Text,
                    vec![alt(Expr::Capture(Box::new(Expr::Class(
                        crate::expr::CharClass::from_ranges(vec![('0', '9')], false),
                    ))))],
                ),
            ],
        ))
        .unwrap();
        let g = set.elaborate("m", None).unwrap();
        let e = g.production(g.find("m.Expr").unwrap());
        let lr = e.lr.as_ref().expect("lr split computed");
        assert_eq!(lr.bases.len(), 1);
        assert_eq!(lr.tails.len(), 1);
        assert_eq!(lr.tails[0].label.as_deref(), Some("Add"));
    }

    #[test]
    fn left_recursion_without_base_is_an_error() {
        let mut set = ModuleSet::new();
        set.add(simple_module(
            "m",
            vec![define(
                "E",
                ProdKind::Node,
                vec![alt(Expr::seq(vec![r("E"), Expr::literal("+")]))],
            )],
        ))
        .unwrap();
        let err = set.elaborate("m", None).unwrap_err();
        assert!(err.to_string().contains("no base alternative"), "{err}");
    }

    #[test]
    fn cyclic_modules_are_an_error() {
        let mut a = ModuleAst::new("a");
        a.decls.push(Decl::Import {
            module: "b".into(),
            span: SrcSpan::none(),
        });
        a.productions = vec![define("A", ProdKind::Node, vec![alt(Expr::literal("a"))])];
        let mut b = ModuleAst::new("b");
        b.decls.push(Decl::Import {
            module: "a".into(),
            span: SrcSpan::none(),
        });
        b.productions = vec![define("B", ProdKind::Node, vec![alt(Expr::literal("b"))])];
        let mut set = ModuleSet::new();
        set.add(a).unwrap();
        set.add(b).unwrap();
        let err = set.elaborate("a", None).unwrap_err();
        assert!(
            err.to_string().contains("cyclic module dependency"),
            "{err}"
        );
    }

    #[test]
    fn start_symbol_selection() {
        let mut set = ModuleSet::new();
        let mut m = simple_module(
            "m",
            vec![
                define("A", ProdKind::Node, vec![alt(Expr::literal("a"))]),
                {
                    let mut c = define("B", ProdKind::Node, vec![alt(Expr::literal("b"))]);
                    c.attrs.public = true;
                    c
                },
            ],
        );
        m.span = SrcSpan::none();
        set.add(m).unwrap();
        // No explicit start: first public production wins.
        let g = set.elaborate("m", None).unwrap();
        assert_eq!(g.production(g.root()).name, "m.B");
        // Explicit start.
        let g2 = set.elaborate("m", Some("A")).unwrap();
        assert_eq!(g2.production(g2.root()).name, "m.A");
        // Unknown start.
        let err = set.elaborate("m", Some("Zzz")).unwrap_err();
        assert!(err.to_string().contains("start symbol"), "{err}");
    }
}
