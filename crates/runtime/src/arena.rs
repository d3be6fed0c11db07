//! Region-backed semantic values and the SAX-style event surface.
//!
//! Grimm's production advice for Rats! is to "allocate from a dedicated
//! region, copy out the AST after parsing, and kill the entire region in
//! one operation". This module is that region: an [`Arena`] is a bump
//! area of flat node records whose children live in one shared pool and
//! whose text leaves are [`Span`]s borrowing the input. Parsers allocate
//! composite values here ([`Value::ArenaNode`] / [`Value::ArenaList`] are
//! 16-byte handles), callers that want a detached tree call
//! [`Arena::copy_out`] once at the end, and [`Arena::reset`] recycles the
//! whole region — every allocation of the previous parse — in O(1)
//! (capacity is kept, so pooled sessions stop allocating entirely once
//! warm).
//!
//! Handles carry the arena's *generation*, bumped on every reset and
//! every compaction: a handle that survives either (a bug by
//! construction — memo entries and the region die or move together) is
//! detectable instead of silently resolving to an unrelated node. Handles
//! also carry a span translation, so an incremental edit moves a memoized
//! subtree by rewriting one handle rather than copying the subtree;
//! [`ChunkMemo::compact`](crate::ChunkMemo::compact) later writes every
//! surviving node in current coordinates and drops the rest.
//! [`ArenaInvariants::check`] audits a region: no dangling child
//! handles, child-before-parent allocation order (hence acyclicity),
//! spans within the input, no owned composite in the pool, and a node
//! count that matches the allocation counter.
//!
//! [`Arena::make_node`] and [`Arena::make_list`] are the one value
//! builder every engine calls — the interpreter, the bytecode machine and
//! every generated parser — so the tree shape (including the one-level
//! list splice) and the value counters in [`Stats`] are defined here
//! once. The only composites built anywhere else at parse time are the
//! unchunked interpreter's `Rc` trees, the reference the other engines
//! are checked against.
//!
//! The same machinery powers the SAX-style event mode: walking a value
//! through [`Arena::emit_events`] streams [`ParseEvent`]s to an
//! [`EventSink`] without materializing any owned tree, and
//! [`TreeBuilder`] is the sink that rebuilds a detached tree from the
//! stream (the conformance harness asserts this round-trip).

use std::collections::HashMap;
use std::rc::Rc;

use crate::navigate::Step;
use crate::recover::ERROR_KIND;
use crate::span::Span;
use crate::stats::Stats;
use crate::value::{Node, NodeKind, Value};

/// A handle to a node allocated in an [`Arena`]: an index, the arena
/// generation it was allocated under, and a translation every span under
/// the node is read through.
///
/// The translation is how an edit moves a memoized subtree without
/// copying it: [`Arena::shifted`] returns the same node under a handle
/// that reads its spans (and its children's) `delta` bytes further on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaRef {
    index: u32,
    generation: u32,
    shift: i64,
}

impl ArenaRef {
    /// The node's index in its arena.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The arena generation this handle was allocated under.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Bytes the spans under this handle are translated by (0 for a
    /// handle fresh from allocation or compaction).
    pub fn shift(self) -> i64 {
        self.shift
    }
}

/// `v` with every span under it translated by `delta` bytes: text leaves
/// move, region handles carry the translation. Allocates nothing.
#[inline]
fn translated(v: &Value, delta: i64) -> Value {
    match v {
        _ if delta == 0 => v.clone(),
        Value::Text(span) => Value::Text(span.shifted(delta)),
        Value::ArenaNode(r) => Value::ArenaNode(ArenaRef {
            shift: r.shift + delta,
            ..*r
        }),
        Value::ArenaList(r) => Value::ArenaList(ArenaRef {
            shift: r.shift + delta,
            ..*r
        }),
        leaf => leaf.clone(),
    }
}

/// One flat node record: a kind tag (`None` marks a list), an optional
/// source span, and a `[lo, lo + len)` range into the arena's shared
/// children pool.
#[derive(Debug)]
struct ArenaNode {
    kind: Option<NodeKind>,
    span: Option<Span>,
    lo: u32,
    len: u32,
}

/// A bump region for semantic values: flat node records, one shared
/// children pool, killed as a whole by [`Arena::reset`].
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{Arena, NodeKind, Span, Value};
///
/// let mut arena = Arena::new();
/// let leaf = Value::Text(Span::new(0, 2));
/// let node = arena.alloc_node(NodeKind::new("Pair"), vec![leaf.clone(), leaf], None);
/// let v = Value::ArenaNode(node);
/// let detached = arena.copy_out(&v);
/// arena.reset(); // kills the region; `detached` stays valid
/// assert_eq!(detached.to_sexpr("ab"), "(Pair \"ab\" \"ab\")");
/// ```
#[derive(Debug, Default)]
pub struct Arena {
    nodes: Vec<ArenaNode>,
    pool: Vec<Value>,
    generation: u32,
    /// Nodes allocated since the last reset (must equal `nodes.len()`).
    allocated: u64,
    /// Nodes allocated over the arena's whole lifetime (monotone across
    /// resets; the recycle-leak checks watch capacity, this watches use).
    lifetime_allocated: u64,
    resets: u64,
}

impl Arena {
    /// Bytes one node record occupies in the region (children occupy
    /// `size_of::<Value>()` each in the shared pool) — the unit the
    /// engines' value-byte accounting charges per arena allocation.
    pub const NODE_BYTES: usize = std::mem::size_of::<ArenaNode>();

    /// Creates an empty region.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Allocates a node, consuming its children into the shared pool.
    pub fn alloc_node(
        &mut self,
        kind: NodeKind,
        children: Vec<Value>,
        span: Option<Span>,
    ) -> ArenaRef {
        self.alloc(Some(kind), children, span)
    }

    /// Allocates a list, consuming its items into the shared pool.
    pub fn alloc_list(&mut self, items: Vec<Value>) -> ArenaRef {
        self.alloc(None, items, None)
    }

    fn alloc(
        &mut self,
        kind: Option<NodeKind>,
        children: Vec<Value>,
        span: Option<Span>,
    ) -> ArenaRef {
        debug_assert!(
            children.iter().all(|c| self.owns_composites_of(c)),
            "arena node allocated with an owned composite or a handle from another region/generation"
        );
        let lo = self.pool.len() as u32;
        let len = children.len() as u32;
        self.pool.extend(children);
        let index = self.nodes.len() as u32;
        self.nodes.push(ArenaNode {
            kind,
            span,
            lo,
            len,
        });
        self.allocated += 1;
        self.lifetime_allocated += 1;
        ArenaRef {
            index,
            generation: self.generation,
            shift: 0,
        }
    }

    // ----- the engines' value builder -----
    //
    // Every engine builds its parse-time composites through these two
    // calls (the unchunked interpreter's `Rc` reference path aside), so
    // the tree shape and the value counters in `Stats` are defined once.

    /// The value bytes one region composite with `len` children costs:
    /// its node record plus its slots in the shared pool.
    #[inline]
    fn value_bytes(len: usize) -> u64 {
        (Self::NODE_BYTES + len * std::mem::size_of::<Value>()) as u64
    }

    /// Builds a node in the region and charges it to `stats`
    /// (`nodes_built`, `value_bytes`).
    #[inline]
    pub fn make_node(
        &mut self,
        stats: &mut Stats,
        kind: NodeKind,
        children: Vec<Value>,
        span: Option<Span>,
    ) -> Value {
        stats.nodes_built += 1;
        stats.value_bytes += Self::value_bytes(children.len());
        Value::ArenaNode(self.alloc_node(kind, children, span))
    }

    /// Builds a list in the region and charges it to `stats`
    /// (`lists_built`, `value_bytes`). Items that are themselves lists
    /// are spliced in, one level: `x ("," x)*` and `(x ("," x)*)?` both
    /// yield one flat list of `x`s, matching how grammar authors read the
    /// idiom — and since every list is built here, no list ever holds a
    /// list directly.
    #[inline]
    pub fn make_list(&mut self, stats: &mut Stats, items: Vec<Value>) -> Value {
        let items = if items.iter().any(|v| matches!(v, Value::ArenaList(_))) {
            let mut flat = Vec::with_capacity(items.len());
            for v in items {
                self.push_spliced(&mut flat, v);
            }
            flat
        } else {
            items
        };
        stats.lists_built += 1;
        stats.value_bytes += Self::value_bytes(items.len());
        Value::ArenaList(self.alloc_list(items))
    }

    /// Appends `v` to `items`, splicing a region list in as its items —
    /// the one-level splice of [`Arena::make_list`], and how `e+` joins
    /// its first match to a memoized rest list.
    #[inline]
    pub fn push_spliced(&self, items: &mut Vec<Value>, v: Value) {
        match v {
            Value::ArenaList(r) if r.shift == 0 => items.extend_from_slice(self.raw_children(r)),
            Value::ArenaList(r) => items.extend(self.children(r)),
            other => items.push(other),
        }
    }

    /// Whether `v` may be stored in this region: a leaf, or a handle into
    /// *this* arena at its current generation. Owned (`Rc`) composites
    /// never qualify — every composite a region-backed parse builds lives
    /// in the region.
    pub fn owns_composites_of(&self, v: &Value) -> bool {
        match v {
            Value::ArenaNode(r) | Value::ArenaList(r) => {
                r.generation == self.generation && (r.index as usize) < self.nodes.len()
            }
            Value::Node(_) | Value::List(_) => false,
            Value::Unit | Value::Absent | Value::Text(_) | Value::OwnedText(_) => true,
        }
    }

    /// Number of live nodes (since the last reset).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the region holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current generation (bumped by every [`Arena::reset`] and every
    /// [`ChunkMemo::compact`](crate::ChunkMemo::compact)).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Nodes allocated since the last reset.
    pub fn allocations(&self) -> u64 {
        self.allocated
    }

    /// Nodes allocated over the arena's whole lifetime.
    pub fn lifetime_allocations(&self) -> u64 {
        self.lifetime_allocated
    }

    /// How many times the region has been reset.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Kills the whole region in one operation: every node and pooled
    /// child of the previous parse is gone, capacity is retained for the
    /// next one, and the generation is bumped so surviving handles are
    /// detectably stale rather than silently re-resolved.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.pool.clear();
        self.generation = self.generation.wrapping_add(1);
        self.allocated = 0;
        self.resets += 1;
    }

    /// Bytes the region's node records and pooled children occupy
    /// (length-based: what [`Arena::retained_bytes`] would be with no
    /// spare capacity).
    pub fn used_bytes(&self) -> u64 {
        (self.nodes.len() * Self::NODE_BYTES + self.pool.len() * std::mem::size_of::<Value>())
            as u64
    }

    /// Estimated heap bytes retained by the region (capacity-based; the
    /// arena is accounted by the parsers' value-byte stats, *not* by the
    /// memo table's retained bytes — eviction cannot free region memory,
    /// so it must not count against the memo budget).
    pub fn retained_bytes(&self) -> u64 {
        (self.nodes.capacity() * std::mem::size_of::<ArenaNode>()
            + self.pool.capacity() * std::mem::size_of::<Value>()) as u64
    }

    fn record(&self, r: ArenaRef) -> &ArenaNode {
        debug_assert_eq!(
            r.generation, self.generation,
            "stale arena handle: allocated under generation {} but the region is at {}",
            r.generation, self.generation
        );
        &self.nodes[r.index as usize]
    }

    /// The kind tag of the node behind `r`, or `None` for a list.
    pub fn kind(&self, r: ArenaRef) -> Option<&NodeKind> {
        self.record(r).kind.as_ref()
    }

    /// The source span of the node behind `r`, if any, read through the
    /// handle's translation.
    pub fn span(&self, r: ArenaRef) -> Option<Span> {
        self.record(r).span.map(|s| s.shifted(r.shift))
    }

    /// The children of the node behind `r`, read through the handle's
    /// translation (text leaves moved, child handles carrying it on).
    pub fn children(&self, r: ArenaRef) -> impl ExactSizeIterator<Item = Value> + '_ {
        self.raw_children(r)
            .iter()
            .map(move |c| translated(c, r.shift))
    }

    /// The children as stored, in the coordinates the node was built in.
    fn raw_children(&self, r: ArenaRef) -> &[Value] {
        let n = self.record(r);
        &self.pool[n.lo as usize..(n.lo + n.len) as usize]
    }

    /// Materializes `v` as a detached, owned (`Rc`-based) value: the copy
    /// shares nothing with the region and survives [`Arena::reset`].
    /// Non-arena values are returned as cheap clones.
    pub fn copy_out(&self, v: &Value) -> Value {
        let (Value::ArenaNode(root) | Value::ArenaList(root)) = *v else {
            debug_assert!(
                !matches!(v, Value::Node(_) | Value::List(_)),
                "owned composite reached a region-backed tree"
            );
            return v.clone();
        };
        // A left-recursive fold builds a left-deep tree, one level per
        // operator, so the walk keeps its own stack. Per open composite:
        // its handle, the pool range of the children still to copy, and
        // the copies made so far.
        let open_copy = |r: ArenaRef| {
            let n = self.record(r);
            (r, n.lo, n.lo + n.len, Vec::with_capacity(n.len as usize))
        };
        let mut open = vec![open_copy(root)];
        loop {
            let (r, next, end, copies) = open.last_mut().expect("an open composite");
            if *next < *end {
                let child = translated(&self.pool[*next as usize], r.shift);
                *next += 1;
                match child {
                    Value::ArenaNode(c) | Value::ArenaList(c) => open.push(open_copy(c)),
                    leaf => {
                        debug_assert!(
                            !matches!(leaf, Value::Node(_) | Value::List(_)),
                            "owned composite reached a region-backed tree"
                        );
                        copies.push(leaf);
                    }
                }
                continue;
            }
            let (r, _, _, items) = open.pop().expect("an open composite");
            let copy = self.owned(r, items);
            match open.last_mut() {
                Some((_, _, _, copies)) => copies.push(copy),
                None => return copy,
            }
        }
    }

    /// The owned node or list for the composite behind `r`, over its
    /// copied children.
    fn owned(&self, r: ArenaRef, items: Vec<Value>) -> Value {
        match self.kind(r) {
            Some(kind) => {
                let kind = kind.clone();
                Value::Node(Rc::new(match self.span(r) {
                    Some(s) => Node::with_span(kind, items, s),
                    None => Node::new(kind, items),
                }))
            }
            None => Value::List(Rc::new(items)),
        }
    }

    /// `v` with every span translated by `delta` bytes, in O(1): a text
    /// leaf moves, and a region handle comes back pointing at the *same*
    /// node with `delta` added to its translation, so nothing is copied
    /// and subtrees shared between memo entries stay shared. The node
    /// records keep the coordinates they were built in until an
    /// incremental session's next
    /// [`ChunkMemo::compact`](crate::ChunkMemo::compact) rewrites every
    /// reachable record in current coordinates.
    pub fn shifted(&self, v: &Value, delta: i64) -> Value {
        debug_assert!(
            self.owns_composites_of(v),
            "shifted a handle from another region/generation or an owned composite"
        );
        translated(v, delta)
    }

    /// Streams `v` as [`ParseEvent`]s without materializing any owned
    /// tree: a region-backed value is resolved in place, with text leaves
    /// arriving as borrowed spans whenever the parse produced spans. A
    /// detached value (the unchunked interpreter's trees, recovered
    /// trees) streams through [`Value::walk`] instead; the two never mix,
    /// since a region holds no owned composite. Like [`Arena::copy_out`],
    /// the region walk keeps its own stack.
    pub fn emit_events(&self, v: &Value, sink: &mut dyn EventSink) {
        if !matches!(v, Value::ArenaNode(_) | Value::ArenaList(_)) {
            return emit_detached(v, sink);
        }
        // Per open composite: its handle and the next child to emit.
        let mut open: Vec<(ArenaRef, u32)> = Vec::new();
        let mut next = v.clone();
        loop {
            sink.event(match next {
                Value::ArenaNode(r) | Value::ArenaList(r) => {
                    open.push((r, 0));
                    match self.kind(r) {
                        Some(kind) => ParseEvent::EnterNode {
                            kind: kind.clone(),
                            span: self.span(r),
                        },
                        None => ParseEvent::EnterList,
                    }
                }
                leaf => leaf_event(&leaf),
            });
            // Step to the next child still to emit, closing each
            // composite whose children are all emitted.
            next = loop {
                let Some((r, at)) = open.last_mut() else {
                    return;
                };
                let n = self.record(*r);
                if *at < n.len {
                    let child = translated(&self.pool[(n.lo + *at) as usize], r.shift);
                    *at += 1;
                    break child;
                }
                sink.event(match n.kind {
                    Some(_) => ParseEvent::ExitNode,
                    None => ParseEvent::ExitList,
                });
                open.pop();
            };
        }
    }
}

/// Streams a detached value through [`Value::walk`]. An [`ERROR_KIND`]
/// node becomes an `ErrorStart`/`ErrorEnd` bracket, so the resilient
/// event mode replays a recovered tree through this one walk on every
/// engine (recovery builds its error regions as `Rc` nodes only).
pub(crate) fn emit_detached(v: &Value, sink: &mut dyn EventSink) {
    let is_error = |n: &Node| n.kind().as_str() == ERROR_KIND;
    for step in v.walk() {
        sink.event(match step {
            Step::Enter(Value::Node(n)) if is_error(n) => ParseEvent::ErrorStart {
                span: n.span().unwrap_or_default(),
            },
            Step::Enter(Value::Node(n)) => ParseEvent::EnterNode {
                kind: n.kind().clone(),
                span: n.span(),
            },
            Step::Enter(_) => ParseEvent::EnterList,
            Step::Exit(Value::Node(n)) if is_error(n) => ParseEvent::ErrorEnd,
            Step::Exit(Value::Node(_)) => ParseEvent::ExitNode,
            Step::Exit(_) => ParseEvent::ExitList,
            Step::Leaf(leaf) => leaf_event(leaf),
        });
    }
}

/// The event of a leaf value.
fn leaf_event(v: &Value) -> ParseEvent {
    match v {
        Value::Unit => ParseEvent::Unit,
        Value::Absent => ParseEvent::Absent,
        Value::Text(span) => ParseEvent::Text(*span),
        Value::OwnedText(s) => ParseEvent::OwnedText(Rc::clone(s)),
        Value::Node(_) | Value::List(_) | Value::ArenaNode(_) | Value::ArenaList(_) => {
            unreachable!("a region holds no owned composite, a detached tree no region handle")
        }
    }
}

/// "Not copied yet" in a [`Compaction`]'s forwarding table, and the end
/// of a dedup chain.
const NONE: u32 = u32::MAX;

/// One compaction pass: the next generation of a region, holding copies
/// of exactly the values the caller passes to [`Compaction::copy`].
///
/// * Each old node is copied once: a forwarding slot remembers its copy,
///   so subtrees shared between memo entries stay shared. (A node reached
///   again under another translation — possible only when its subtree
///   covers no text, an empty match at an edit point — is copied again.)
/// * A node whose kind, span and (already copied) children equal an
///   earlier copy's resolves to that copy. Children are copied first, so
///   this merges whole equal subtrees bottom-up.
/// * Each copy is written in current coordinates: the translation of the
///   handle it was reached through (plus the caller's `bias`) is applied
///   to its spans, and every handle out of the pass has no translation.
/// * Children land before their parents, as in any region.
///
/// Every table here lives only as long as the pass.
pub(crate) struct Compaction {
    old: Arena,
    next: Arena,
    /// Per old node: the translation it was copied under, and the copy
    /// (`NONE` until copied).
    forward: Vec<(i64, u32)>,
    /// Structural hash → the newest copy with that hash; `chain[i]` is
    /// the copy before `i` with the same hash.
    buckets: HashMap<u64, u32>,
    chain: Vec<u32>,
    /// Copied children of the nodes being copied, innermost last.
    stack: Vec<Value>,
}

impl Compaction {
    /// Starts a pass that empties `old` into a region one generation on.
    pub(crate) fn new(old: Arena) -> Self {
        Compaction {
            forward: vec![(0, NONE); old.nodes.len()],
            next: Arena {
                generation: old.generation.wrapping_add(1),
                lifetime_allocated: old.lifetime_allocated,
                resets: old.resets,
                ..Arena::default()
            },
            old,
            buckets: HashMap::new(),
            chain: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// `v` in the next generation, every span translated by `bias`.
    pub(crate) fn copy(&mut self, v: &Value, bias: i64) -> Value {
        match v {
            Value::ArenaNode(r) => Value::ArenaNode(self.node(*r, bias + r.shift)),
            Value::ArenaList(r) => Value::ArenaList(self.node(*r, bias + r.shift)),
            Value::Text(span) => Value::Text(span.shifted(bias)),
            leaf => {
                debug_assert!(
                    !matches!(leaf, Value::Node(_) | Value::List(_)),
                    "owned composite reached a region-backed memo entry"
                );
                leaf.clone()
            }
        }
    }

    /// The copy of the node behind `r`, reached under translation `shift`
    /// (the caller's bias plus `r`'s own). Walks with an explicit stack,
    /// so a deep tree costs heap, not machine stack.
    fn node(&mut self, r: ArenaRef, shift: i64) -> ArenaRef {
        let generation = self.next.generation;
        let at = |index| ArenaRef {
            index,
            generation,
            shift: 0,
        };
        if let Some(index) = self.forwarded(r, shift) {
            return at(index);
        }
        // Per node being copied: its handle, translation, the value its
        // parent holds it as (node or list), next child, and where its
        // copied children start on the value stack.
        let lo = |c: &Self, r: ArenaRef| c.old.nodes[r.index as usize].lo;
        let root: fn(ArenaRef) -> Value = Value::ArenaNode;
        let mut frames = vec![(r, shift, root, lo(self, r), self.stack.len())];
        while let Some(&mut (r, shift, held, ref mut next, base)) = frames.last_mut() {
            let n = &self.old.nodes[r.index as usize];
            if *next < n.lo + n.len {
                let child = self.old.pool[*next as usize].clone();
                *next += 1;
                let (c, held): (_, fn(ArenaRef) -> Value) = match child {
                    Value::ArenaNode(c) => (c, Value::ArenaNode),
                    Value::ArenaList(c) => (c, Value::ArenaList),
                    leaf => {
                        let leaf = self.copy(&leaf, shift);
                        self.stack.push(leaf);
                        continue;
                    }
                };
                let shift = shift + c.shift;
                match self.forwarded(c, shift) {
                    Some(index) => self.stack.push(held(at(index))),
                    None => frames.push((c, shift, held, lo(self, c), self.stack.len())),
                }
                continue;
            }
            let (kind, span) = (n.kind.clone(), n.span.map(|s| s.shifted(shift)));
            let index = self.intern(kind, span, base);
            self.stack.truncate(base);
            if self.forward[r.index as usize].1 == NONE {
                self.forward[r.index as usize] = (shift, index);
            }
            frames.pop();
            if !frames.is_empty() {
                self.stack.push(held(at(index)));
            } else {
                return at(index);
            }
        }
        unreachable!("the root frame returns")
    }

    /// The copy already made of `r` under translation `shift`, if any.
    fn forwarded(&self, r: ArenaRef, shift: i64) -> Option<u32> {
        debug_assert_eq!(
            r.generation, self.old.generation,
            "stale arena handle reached compaction"
        );
        let (first, copied) = self.forward[r.index as usize];
        (copied != NONE && first == shift).then_some(copied)
    }

    /// The copy of a node with `kind`, `span` and the children on the
    /// stack from `base`: an equal earlier copy, or a new one.
    fn intern(&mut self, kind: Option<NodeKind>, span: Option<Span>, base: usize) -> u32 {
        let children = &self.stack[base..];
        let mut h = mix(0, kind.as_ref().map_or(0, NodeKind::addr) as u64);
        h = mix(
            h,
            span.map_or(u64::MAX, |s| (u64::from(s.lo()) << 32) | u64::from(s.hi())),
        );
        for c in children {
            h = match c {
                Value::Text(s) => mix(mix(h, 1), (u64::from(s.lo()) << 32) | u64::from(s.hi())),
                Value::ArenaNode(r) => mix(mix(h, 2), u64::from(r.index)),
                Value::ArenaList(r) => mix(mix(h, 3), u64::from(r.index)),
                Value::Unit => mix(h, 4),
                Value::Absent => mix(h, 5),
                Value::OwnedText(_) | Value::Node(_) | Value::List(_) => mix(h, 6),
            };
        }
        let same_kind = |a: &Option<NodeKind>| match (a, &kind) {
            (Some(a), Some(b)) => a.addr() == b.addr(),
            (a, b) => a.is_none() && b.is_none(),
        };
        let mut at = self.buckets.get(&h).copied().unwrap_or(NONE);
        while at != NONE {
            let n = &self.next.nodes[at as usize];
            if n.span == span
                && same_kind(&n.kind)
                && self.next.pool[n.lo as usize..(n.lo + n.len) as usize] == *children
            {
                return at;
            }
            at = self.chain[at as usize];
        }
        let lo = self.next.pool.len() as u32;
        self.next.pool.extend_from_slice(children);
        let index = self.next.nodes.len() as u32;
        self.next.nodes.push(ArenaNode {
            kind,
            span,
            lo,
            len: children.len() as u32,
        });
        self.chain
            .push(self.buckets.insert(h, index).unwrap_or(NONE));
        index
    }

    /// The next-generation region, sized to its survivors; the old region
    /// and every table of the pass are dropped.
    pub(crate) fn finish(self) -> Arena {
        let mut next = self.next;
        next.nodes.shrink_to_fit();
        next.pool.shrink_to_fit();
        next.allocated = next.nodes.len() as u64;
        next
    }
}

/// One step of an Fx-style word hash (the dedup key of [`Compaction`]).
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The structural-invariant audit over an [`Arena`]:
///
/// 1. every child range lies within the shared pool,
/// 2. every child handle resolves (current generation, in-bounds index)
///    and was allocated *before* its parent — acyclicity by construction,
/// 3. every span (node spans and text leaves) lies within the input —
///    as stored: a record an incremental session reaches through a
///    translated handle keeps the coordinates it was built in, so on a
///    session this holds after a compaction, which rewrites every record
///    it keeps in current coordinates and drops the rest,
/// 4. the pool holds only leaves and region handles — never an owned
///    (`Rc`) composite, since region-backed parses build every composite
///    in the region,
/// 5. the live node count matches the allocation counter.
///
/// Engines run this as a debug assertion at the end of arena parses;
/// the `arena_invariants` test suite drives it across session recycling.
pub struct ArenaInvariants;

impl ArenaInvariants {
    /// Checks every invariant against `arena`, for an input of
    /// `input_len` bytes; the error names the first violation.
    pub fn check(arena: &Arena, input_len: u32) -> Result<(), String> {
        if arena.nodes.len() as u64 != arena.allocated {
            return Err(format!(
                "node count {} does not match allocation count {}",
                arena.nodes.len(),
                arena.allocated
            ));
        }
        let span_ok = |s: Span| s.lo() <= s.hi() && s.hi() <= input_len;
        for (i, n) in arena.nodes.iter().enumerate() {
            let hi = n.lo as usize + n.len as usize;
            if hi > arena.pool.len() {
                return Err(format!(
                    "node {i}: child range [{}, {hi}) exceeds pool of {}",
                    n.lo,
                    arena.pool.len()
                ));
            }
            if let Some(s) = n.span {
                if !span_ok(s) {
                    return Err(format!(
                        "node {i}: span [{}, {}) outside input of {input_len} bytes",
                        s.lo(),
                        s.hi()
                    ));
                }
            }
            for (j, c) in arena.pool[n.lo as usize..hi].iter().enumerate() {
                match c {
                    Value::ArenaNode(r) | Value::ArenaList(r) => {
                        if r.generation != arena.generation {
                            return Err(format!(
                                "node {i} child {j}: stale handle (generation {} vs region {})",
                                r.generation, arena.generation
                            ));
                        }
                        if r.index as usize >= arena.nodes.len() {
                            return Err(format!(
                                "node {i} child {j}: dangling handle index {}",
                                r.index
                            ));
                        }
                        if r.index as usize >= i {
                            return Err(format!(
                                "node {i} child {j}: child index {} not allocated before parent",
                                r.index
                            ));
                        }
                    }
                    Value::Text(s) => {
                        if !span_ok(*s) {
                            return Err(format!(
                                "node {i} child {j}: text span [{}, {}) outside input of \
                                 {input_len} bytes",
                                s.lo(),
                                s.hi()
                            ));
                        }
                    }
                    Value::Node(_) | Value::List(_) => {
                        return Err(format!(
                            "node {i} child {j}: owned composite in the region's pool"
                        ));
                    }
                    Value::Unit | Value::Absent | Value::OwnedText(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// One event of the SAX-style parse stream: a pre-order walk of the
/// semantic value with explicit enter/exit brackets. Text leaves arrive
/// as borrowed [`Span`]s whenever the parse produced spans (`text-only`),
/// so a lint/grep/count consumer never touches owned strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEvent {
    /// A node begins; its children follow until the matching
    /// [`ParseEvent::ExitNode`].
    EnterNode {
        /// The node's kind tag.
        kind: NodeKind,
        /// The node's source span, if tracked.
        span: Option<Span>,
    },
    /// The most recently entered node ends.
    ExitNode,
    /// A list begins; its items follow until the matching
    /// [`ParseEvent::ExitList`].
    EnterList,
    /// The most recently entered list ends.
    ExitList,
    /// A borrowed text leaf: a span into the parser input.
    Text(Span),
    /// An owned text leaf (produced only when `text-only` is disabled).
    OwnedText(Rc<str>),
    /// A unit leaf (void productions, predicates, literals).
    Unit,
    /// An absent optional.
    Absent,
    /// A recovered error region begins (resilient parses only): the
    /// parser skipped `span` to resynchronize. Always balanced by a
    /// matching [`ParseEvent::ErrorEnd`]; the bracket is empty today but
    /// keeps room for engines to stream partial content they abandoned.
    ErrorStart {
        /// The skipped byte region the synthesized error node covers.
        span: Span,
    },
    /// The most recently entered error region ends.
    ErrorEnd,
}

/// A consumer of the SAX-style parse stream.
pub trait EventSink {
    /// Receives one event; events arrive in pre-order with balanced
    /// enter/exit brackets.
    fn event(&mut self, event: ParseEvent);
}

/// One open bracket in a [`TreeBuilder`]: the node-in-progress
/// (kind+span; `None` = list) and the children collected so far.
type OpenBracket = (Option<(NodeKind, Option<Span>)>, Vec<Value>);

/// An [`EventSink`] that rebuilds a detached, owned value from the event
/// stream — the round-trip oracle for event mode: parsing and rebuilding
/// must yield a tree structurally identical to the arena tree.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    /// Open brackets, innermost last.
    stack: Vec<OpenBracket>,
    /// Completed top-level values (exactly one for a balanced stream).
    done: Vec<Value>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TreeBuilder::default()
    }

    fn push(&mut self, v: Value) {
        match self.stack.last_mut() {
            Some((_, children)) => children.push(v),
            None => self.done.push(v),
        }
    }

    /// The rebuilt root value, if the stream was balanced and produced
    /// exactly one top-level value.
    pub fn finish(mut self) -> Option<Value> {
        if self.stack.is_empty() && self.done.len() == 1 {
            self.done.pop()
        } else {
            None
        }
    }
}

impl EventSink for TreeBuilder {
    fn event(&mut self, event: ParseEvent) {
        match event {
            ParseEvent::EnterNode { kind, span } => {
                self.stack.push((Some((kind, span)), Vec::new()))
            }
            ParseEvent::EnterList => self.stack.push((None, Vec::new())),
            ParseEvent::ExitNode | ParseEvent::ExitList => {
                let Some((header, children)) = self.stack.pop() else {
                    return;
                };
                let v = match header {
                    Some((kind, Some(span))) => {
                        Value::Node(Rc::new(Node::with_span(kind, children, span)))
                    }
                    Some((kind, None)) => Value::Node(Rc::new(Node::new(kind, children))),
                    None => Value::List(Rc::new(children)),
                };
                self.push(v);
            }
            ParseEvent::Text(span) => self.push(Value::Text(span)),
            ParseEvent::OwnedText(s) => self.push(Value::OwnedText(s)),
            ParseEvent::Unit => self.push(Value::Unit),
            ParseEvent::Absent => self.push(Value::Absent),
            ParseEvent::ErrorStart { span } => self
                .stack
                .push((Some((NodeKind::new(ERROR_KIND), Some(span))), Vec::new())),
            ParseEvent::ErrorEnd => self.event(ParseEvent::ExitNode),
        }
    }
}

/// An [`EventSink`] that only counts — the lint/grep/count consumer shape
/// event mode exists for (no tree, no strings, no allocation per event).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Nodes entered.
    pub nodes: u64,
    /// Lists entered.
    pub lists: u64,
    /// Text leaves (borrowed or owned).
    pub texts: u64,
    /// Unit leaves.
    pub units: u64,
    /// Absent optionals.
    pub absents: u64,
    /// Recovered error regions (resilient parses only).
    pub errors: u64,
    /// Deepest enter-bracket nesting observed.
    pub max_depth: u32,
    /// Current nesting (internal; ends at zero for a balanced stream).
    depth: u32,
}

impl EventSink for EventCounts {
    fn event(&mut self, event: ParseEvent) {
        match event {
            ParseEvent::EnterNode { .. } => {
                self.nodes += 1;
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
            ParseEvent::EnterList => {
                self.lists += 1;
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
            ParseEvent::ExitNode | ParseEvent::ExitList | ParseEvent::ErrorEnd => {
                self.depth = self.depth.saturating_sub(1)
            }
            ParseEvent::Text(_) | ParseEvent::OwnedText(_) => self.texts += 1,
            ParseEvent::Unit => self.units += 1,
            ParseEvent::Absent => self.absents += 1,
            ParseEvent::ErrorStart { .. } => {
                self.errors += 1;
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(arena: &mut Arena) -> Value {
        let a = Value::Text(Span::new(0, 1));
        let b = Value::Text(Span::new(1, 2));
        let list = arena.alloc_list(vec![a.clone(), b.clone()]);
        let inner = arena.alloc_node(NodeKind::new("Inner"), vec![Value::ArenaList(list)], None);
        let root = arena.alloc_node(
            NodeKind::new("Root"),
            vec![Value::ArenaNode(inner), a, Value::Unit, Value::Absent],
            Some(Span::new(0, 2)),
        );
        Value::ArenaNode(root)
    }

    #[test]
    fn alloc_resolve_roundtrip() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.allocations(), 3);
        assert_eq!(
            arena.copy_out(&v).to_sexpr("xy"),
            "(Root (Inner [\"x\" \"y\"]) \"x\" () ~)"
        );
        ArenaInvariants::check(&arena, 2).unwrap();
    }

    #[test]
    fn copy_out_detaches_and_matches_sexpr() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let detached = arena.copy_out(&v);
        arena.reset();
        assert_eq!(
            detached.to_sexpr("xy"),
            "(Root (Inner [\"x\" \"y\"]) \"x\" () ~)"
        );
        assert!(arena.is_empty());
    }

    #[test]
    fn reset_bumps_generation_and_keeps_lifetime_counter() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let Value::ArenaNode(stale) = v else { panic!() };
        let g0 = arena.generation();
        arena.reset();
        assert_eq!(arena.generation(), g0 + 1);
        assert_eq!(arena.allocations(), 0);
        assert_eq!(arena.lifetime_allocations(), 3);
        assert_eq!(arena.resets(), 1);
        assert!(!arena.owns_composites_of(&Value::ArenaNode(stale)));
    }

    #[test]
    fn shifted_translates_spans_without_copying() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let before = arena.len();
        let moved = arena.shifted(&v, 3);
        assert_eq!(
            arena.len(),
            before,
            "a shift retranslates the handle, it copies nothing"
        );
        assert_eq!(
            arena.copy_out(&moved).to_sexpr("abcxy"),
            "(Root (Inner [\"x\" \"y\"]) \"x\" () ~)"
        );
        // The original is untouched (no double-shift hazard).
        assert_eq!(
            arena.copy_out(&v).to_sexpr("xy"),
            "(Root (Inner [\"x\" \"y\"]) \"x\" () ~)"
        );
        let Value::ArenaNode(r) = moved else { panic!() };
        assert_eq!((arena.span(r), r.shift()), (Some(Span::new(3, 5)), 3));
        // Children and detached copies read through the translation, and
        // translations compose.
        assert_eq!(arena.children(r).nth(1), Some(Value::Text(Span::new(3, 4))));
        let back = arena.shifted(&moved, -3);
        assert_eq!(back, v);
        let detached = arena.copy_out(&moved);
        assert_eq!(
            detached.as_node().and_then(|n| n.span()),
            Some(Span::new(3, 5))
        );
        ArenaInvariants::check(&arena, 2).unwrap();
    }

    #[test]
    fn shifted_zero_is_identity() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let before = arena.len();
        let same = arena.shifted(&v, 0);
        assert_eq!(arena.len(), before);
        assert_eq!(same, v);
    }

    #[test]
    fn events_roundtrip_to_same_tree() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let mut builder = TreeBuilder::new();
        arena.emit_events(&v, &mut builder);
        let rebuilt = builder.finish().expect("balanced stream");
        let copied = arena.copy_out(&v);
        assert_eq!(rebuilt.to_sexpr("xy"), copied.to_sexpr("xy"));
    }

    #[test]
    fn event_counts_count_without_building() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let mut counts = EventCounts::default();
        arena.emit_events(&v, &mut counts);
        assert_eq!(counts.nodes, 2);
        assert_eq!(counts.lists, 1);
        assert_eq!(counts.texts, 3);
        assert_eq!(counts.units, 1);
        assert_eq!(counts.absents, 1);
        assert_eq!(counts.max_depth, 3);
    }

    #[test]
    fn invariants_catch_stale_and_dangling_handles() {
        let mut donor = Arena::new();
        donor.reset(); // generation 1: handles from here are stale elsewhere
        let foreign = donor.alloc_list(vec![]);

        let mut arena = Arena::new();
        arena.pool.push(Value::ArenaList(ArenaRef {
            index: 7,
            generation: arena.generation,
            shift: 0,
        }));
        arena.nodes.push(ArenaNode {
            kind: Some(NodeKind::new("Bad")),
            span: None,
            lo: 0,
            len: 1,
        });
        arena.allocated += 1;
        let err = ArenaInvariants::check(&arena, 10).unwrap_err();
        assert!(err.contains("dangling"), "{err}");

        arena.pool[0] = Value::ArenaList(foreign);
        let err = ArenaInvariants::check(&arena, 10).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn invariants_reject_owned_composites_in_the_pool() {
        let mut arena = Arena::new();
        sample(&mut arena);
        ArenaInvariants::check(&arena, 2).unwrap();
        // Plant an owned node where a region handle belongs.
        arena.pool[0] = Value::node("Owned", vec![]);
        let err = ArenaInvariants::check(&arena, 2).unwrap_err();
        assert!(err.contains("owned composite"), "{err}");
        arena.pool[0] = Value::list(vec![]);
        let err = ArenaInvariants::check(&arena, 2).unwrap_err();
        assert!(err.contains("owned composite"), "{err}");
    }

    #[test]
    fn builder_splices_one_level_and_charges_stats() {
        let mut arena = Arena::new();
        let mut stats = Stats::default();
        let x = Value::Text(Span::new(0, 1));
        let inner = arena.make_list(&mut stats, vec![x.clone(), x.clone()]);
        let node = arena.make_node(&mut stats, NodeKind::new("N"), vec![inner.clone()], None);
        let outer = arena.make_list(&mut stats, vec![x.clone(), inner, node]);
        assert_eq!(
            arena.copy_out(&outer).to_sexpr("x"),
            "[\"x\" \"x\" \"x\" (N [\"x\" \"x\"])]"
        );
        assert_eq!((stats.nodes_built, stats.lists_built), (1, 2));
        let slot = std::mem::size_of::<Value>();
        assert_eq!(
            stats.value_bytes as usize,
            3 * Arena::NODE_BYTES + (2 + 1 + 4) * slot,
            "each composite charges its record plus its spliced children"
        );
        let mut items = vec![Value::Unit];
        arena.push_spliced(&mut items, outer);
        arena.push_spliced(&mut items, Value::Absent);
        assert_eq!(items.len(), 6);
        ArenaInvariants::check(&arena, 1).unwrap();
    }

    #[test]
    fn invariants_catch_out_of_bounds_spans() {
        let mut arena = Arena::new();
        arena.alloc_node(NodeKind::new("N"), vec![Value::Text(Span::new(3, 9))], None);
        assert!(ArenaInvariants::check(&arena, 9).is_ok());
        let err = ArenaInvariants::check(&arena, 8).unwrap_err();
        assert!(err.contains("outside input"), "{err}");
    }

    #[test]
    fn retained_bytes_track_capacity_and_survive_reset() {
        let mut arena = Arena::new();
        assert_eq!(arena.retained_bytes(), 0);
        sample(&mut arena);
        let warm = arena.retained_bytes();
        assert!(warm > 0);
        arena.reset();
        assert_eq!(arena.retained_bytes(), warm, "reset keeps capacity");
    }
}
