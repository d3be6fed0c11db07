//! C-subset program generator.
//!
//! Exercises the typedef state machinery on purpose: the prelude declares
//! `typedef`s, later functions use the typedef'd names as types (including
//! the ambiguous `name * ptr;` form), and some functions open blocks with
//! local typedefs.

use std::fmt::Write as _;

use crate::rng::StdRng;
use crate::{ident, rng_for, IDENTS};

struct CGen {
    rng: StdRng,
    out: String,
    typedefs: Vec<String>,
    fn_idx: u32,
}

impl CGen {
    fn ty(&mut self) -> String {
        if !self.typedefs.is_empty() && self.rng.gen_ratio(2, 5) {
            self.typedefs[self.rng.gen_range(0..self.typedefs.len())].clone()
        } else {
            ["int", "char", "long", "unsigned int", "double"][self.rng.gen_range(0..5)].to_owned()
        }
    }

    fn operand(&mut self, depth: u32) -> String {
        match self.rng.gen_range(0..10) {
            0..=3 => self.rng.gen_range(0u32..1000).to_string(),
            4..=6 => ident(&mut self.rng, IDENTS),
            7 if depth > 0 => format!("({})", self.expr(depth - 1)),
            8 if depth > 0 => {
                let f = ident(&mut self.rng, IDENTS);
                let a = self.operand(depth - 1);
                format!("{f}({a})")
            }
            9 => format!("*{}", ident(&mut self.rng, IDENTS)),
            _ => ident(&mut self.rng, IDENTS),
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        let mut e = self.operand(depth);
        for _ in 0..self.rng.gen_range(0..3) {
            let op = [" + ", " - ", " * ", " / ", " % "][self.rng.gen_range(0..5)];
            let rhs = self.operand(depth);
            e.push_str(op);
            e.push_str(&rhs);
        }
        e
    }

    fn condition(&mut self) -> String {
        let lhs = self.operand(1);
        let cmp = [" < ", " > ", " == ", " != "][self.rng.gen_range(0..4)];
        let rhs = self.operand(1);
        format!("{lhs}{cmp}{rhs}")
    }

    fn statement(&mut self, indent: usize, depth: u32) {
        let pad = "    ".repeat(indent);
        match self.rng.gen_range(0..100) {
            0..=24 => {
                let v = ident(&mut self.rng, IDENTS);
                let e = self.expr(2);
                let _ = writeln!(self.out, "{pad}{v} = {e};");
            }
            25..=39 => {
                let t = self.ty();
                let v = ident(&mut self.rng, IDENTS);
                let e = self.expr(1);
                // The ambiguous form on purpose: `T * p = …;` is a pointer
                // declaration iff T is a typedef name.
                if self.rng.gen_ratio(1, 4) && self.typedefs.contains(&t) {
                    let _ = writeln!(self.out, "{pad}{t} * {v} = &{v};");
                } else {
                    let _ = writeln!(self.out, "{pad}{t} {v} = {e};");
                }
            }
            40..=52 if depth > 0 => {
                let c = self.condition();
                let _ = writeln!(self.out, "{pad}if ({c}) {{");
                self.block(indent + 1, depth - 1);
                if self.rng.gen_ratio(1, 2) {
                    let _ = writeln!(self.out, "{pad}}} else {{");
                    self.block(indent + 1, depth - 1);
                }
                let _ = writeln!(self.out, "{pad}}}");
            }
            53..=64 if depth > 0 => {
                let c = self.condition();
                let _ = writeln!(self.out, "{pad}while ({c}) {{");
                self.block(indent + 1, depth - 1);
                let _ = writeln!(self.out, "{pad}}}");
            }
            65..=74 if depth > 0 => {
                let v = ident(&mut self.rng, IDENTS);
                let n = self.rng.gen_range(1u32..50);
                let _ = writeln!(self.out, "{pad}for ({v} = 0; {v} < {n}; {v} = {v} + 1) {{");
                self.block(indent + 1, depth - 1);
                let _ = writeln!(self.out, "{pad}}}");
            }
            75..=79 if depth > 0 => {
                // Block with a local typedef (scoped state).
                let t = format!("local{}", self.rng.gen_range(0u32..100));
                let v = ident(&mut self.rng, IDENTS);
                let _ = writeln!(self.out, "{pad}{{");
                let ipad = "    ".repeat(indent + 1);
                let _ = writeln!(self.out, "{ipad}typedef int {t};");
                let _ = writeln!(self.out, "{ipad}{t} {v} = 0;");
                self.block(indent + 1, 0);
                let _ = writeln!(self.out, "{pad}}}");
            }
            _ => {
                let f = ident(&mut self.rng, IDENTS);
                let a = self.expr(1);
                let _ = writeln!(self.out, "{pad}{f}({a});");
            }
        }
    }

    fn block(&mut self, indent: usize, depth: u32) {
        for _ in 0..self.rng.gen_range(1..4) {
            self.statement(indent, depth);
        }
    }

    fn function(&mut self) {
        self.fn_idx += 1;
        let t = self.ty();
        let p1 = ident(&mut self.rng, IDENTS);
        let p2 = ident(&mut self.rng, IDENTS);
        let pt = self.ty();
        let _ = writeln!(self.out, "int fn{}({pt} {p1}, {t} *{p2}) {{", self.fn_idx);
        for _ in 0..self.rng.gen_range(2..6) {
            self.statement(1, 2);
        }
        let e = self.expr(1);
        let _ = writeln!(self.out, "    return {e};");
        let _ = writeln!(self.out, "}}");
        let _ = writeln!(self.out);
    }
}

/// Generates a well-formed program in the C subset, at least
/// `target_bytes` long, deterministically from `seed`. Roughly one in
/// three type positions uses a `typedef` name, keeping the state machinery
/// on the hot path as it is in real C.
pub fn c_program(seed: u64, target_bytes: usize) -> String {
    let mut g = CGen {
        rng: rng_for(seed, 3),
        out: String::with_capacity(target_bytes + 512),
        typedefs: Vec::new(),
        fn_idx: 0,
    };
    g.out.push_str("/* synthetic workload */\n");
    for i in 0..4 {
        let name = format!("t{i}");
        let base = ["int", "char", "long", "unsigned long"][i % 4];
        let _ = writeln!(g.out, "typedef {base} {name};");
        g.typedefs.push(name);
    }
    let _ = writeln!(g.out);
    while g.out.len() < target_bytes {
        g.function();
    }
    g.out
}
