//! Packrat memoization tables.
//!
//! A packrat parser stores, for every (production, input position) pair it
//! evaluates, the outcome of that evaluation, so ordered-choice
//! backtracking never re-does work — this is what gives PEG parsing its
//! linear-time guarantee.
//!
//! Two implementations are provided:
//!
//! * [`HashMemo`] — the straightforward hash map keyed by
//!   `(production, position)`. This is the unoptimized strategy the paper
//!   starts from.
//! * [`ChunkMemo`] — the paper's *chunks* optimization: one lazily
//!   allocated column per input position, each column holding lazily
//!   allocated fixed-size chunks of memo slots. Productions that are
//!   actually memoized get a dense slot index; probing is two array
//!   indexings and storing allocates at chunk granularity.

use crate::arena::Arena;
use crate::value::Value;

/// Number of memo slots per chunk in [`ChunkMemo`] (the paper groups
/// roughly ten productions per chunk).
pub const CHUNK_SIZE: usize = 10;

/// A stored evaluation outcome.
///
/// `epoch` supports the paper's interaction between memoization and
/// parser state: entries written by *state-reading* productions are only
/// valid while the state is unchanged, so they carry the state epoch at
/// evaluation time and probes compare it (the Rats! "flush memoized
/// results on state change" rule, implemented lazily).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoAnswer {
    /// State epoch at evaluation time (0 when the producer ignores state).
    pub epoch: u32,
    /// `None` = the production failed here; `Some((end, value))` = match.
    pub outcome: Option<(u32, Value)>,
}

impl MemoAnswer {
    /// A failure entry.
    pub fn fail(epoch: u32) -> Self {
        MemoAnswer {
            epoch,
            outcome: None,
        }
    }

    /// A success entry.
    pub fn success(epoch: u32, end: u32, value: Value) -> Self {
        MemoAnswer {
            epoch,
            outcome: Some((end, value)),
        }
    }
}

/// Common interface of the memoization strategies.
///
/// `slot` is a dense index assigned to each memoized production; `pos` is a
/// byte offset into the input.
pub trait MemoTable {
    /// Looks up a stored answer.
    fn probe(&self, slot: u32, pos: u32) -> Option<&MemoAnswer>;
    /// Stores an answer, overwriting any previous one for the pair.
    fn store(&mut self, slot: u32, pos: u32, answer: MemoAnswer);
    /// Number of entries currently stored.
    fn entries(&self) -> u64;
    /// Estimated heap bytes held by the table structure itself (semantic
    /// values are accounted separately when they are built).
    fn retained_bytes(&self) -> u64;
}

/// Hash-map memoization: the unoptimized baseline.
#[derive(Debug, Default)]
pub struct HashMemo {
    map: std::collections::HashMap<(u32, u32), MemoAnswer>,
}

impl HashMemo {
    /// Creates an empty table.
    pub fn new() -> Self {
        HashMemo::default()
    }

    /// Drops every entry *and* the map's capacity, actually releasing the
    /// memory (the hash-map arm of the memo-budget degradation ladder —
    /// there is no column structure to evict selectively).
    pub fn purge(&mut self) -> u64 {
        let dropped = self.map.len() as u64;
        self.map = std::collections::HashMap::new();
        dropped
    }
}

impl MemoTable for HashMemo {
    fn probe(&self, slot: u32, pos: u32) -> Option<&MemoAnswer> {
        self.map.get(&(slot, pos))
    }

    fn store(&mut self, slot: u32, pos: u32, answer: MemoAnswer) {
        self.map.insert((slot, pos), answer);
    }

    fn entries(&self) -> u64 {
        self.map.len() as u64
    }

    fn retained_bytes(&self) -> u64 {
        // Hash map bucket ≈ key + answer + control byte, over capacity.
        let per = std::mem::size_of::<(u32, u32)>() + std::mem::size_of::<MemoAnswer>() + 1;
        (self.map.capacity() * per) as u64
    }
}

/// One chunk: a fixed block of memo slots, allocated on first write.
type Chunk = Box<[Option<MemoAnswer>; CHUNK_SIZE]>;

/// One column of [`ChunkMemo`]: lazily allocated chunks of memo slots.
#[derive(Debug)]
struct Column {
    chunks: Box<[Option<Chunk>]>,
    /// Maximum lookahead of any entry ever stored in this column, as a
    /// *length*: every entry's evaluation examined only input bytes in
    /// `[pos, pos + extent)` (treating a peek at EOF as examining one byte
    /// past the end). Lengths are shift-invariant, so a relocated column
    /// keeps its extent unchanged.
    extent: u32,
    /// Pending span translation from [`ChunkMemo::apply_edit`], applied
    /// lazily to entry end offsets and values on first probe.
    bias: i64,
    /// Live entries in this column (keeps the table's `stored` total exact
    /// when a whole column is invalidated).
    count: u32,
}

impl Column {
    fn new(n_chunks: usize) -> Self {
        Column {
            chunks: std::iter::repeat_with(|| None).take(n_chunks).collect(),
            extent: 0,
            bias: 0,
            count: 0,
        }
    }

    /// Empties the column for reuse, keeping chunk allocations.
    fn clear(&mut self) {
        for chunk in self.chunks.iter_mut().flatten() {
            for cell in chunk.iter_mut() {
                *cell = None;
            }
        }
        self.extent = 0;
        self.bias = 0;
        self.count = 0;
    }

    /// Applies the pending bias to every entry, returning how many entries
    /// were rewritten. Region-backed values are shifted through `arena`
    /// (a deep copy into fresh region nodes; see [`Arena::shifted`]).
    fn settle(&mut self, arena: &mut Arena) -> u64 {
        if self.bias == 0 {
            return 0;
        }
        let bias = std::mem::take(&mut self.bias);
        let mut shifted = 0u64;
        for chunk in self.chunks.iter_mut().flatten() {
            for answer in chunk.iter_mut().flatten() {
                if let Some((end, value)) = answer.outcome.take() {
                    answer.outcome = Some(((end as i64 + bias) as u32, arena.shifted(&value, bias)));
                }
                shifted += 1;
            }
        }
        shifted
    }
}

/// Outcome of [`ChunkMemo::evict_cold`] / [`ChunkMemo::evict_all`]: how
/// much memory an eviction actually released.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictReport {
    /// Columns whose allocations were freed outright.
    pub columns_freed: u64,
    /// Memo entries discarded with them.
    pub entries_dropped: u64,
    /// Retained-byte estimate released ([`MemoTable::retained_bytes`]
    /// before minus after).
    pub bytes_freed: u64,
}

/// Outcome of [`ChunkMemo::apply_edit`]: how much memoized work survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditReport {
    /// Columns kept (in place to the left of the edit, or relocated with
    /// the text to the right of it).
    pub columns_reused: u64,
    /// Columns dropped because their entries' lookahead overlapped the
    /// edited window.
    pub columns_invalidated: u64,
    /// Memo entries discarded along with invalidated columns.
    pub entries_dropped: u64,
}

/// Chunked column memoization (the paper's *chunks* optimization).
///
/// Memory is proportional to the positions actually visited and, within a
/// column, to the chunks actually written — not to
/// `|productions| × |input|`.
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{ChunkMemo, MemoAnswer, MemoTable, Value};
///
/// let mut memo = ChunkMemo::new(25, 100);
/// memo.store(24, 7, MemoAnswer::fail(0));
/// assert_eq!(memo.probe(24, 7), Some(&MemoAnswer::fail(0)));
/// assert_eq!(memo.probe(3, 7), None);
/// assert_eq!(memo.entries(), 1);
/// ```
#[derive(Debug)]
pub struct ChunkMemo {
    columns: Vec<Option<Box<Column>>>,
    n_slots: u32,
    n_chunks: usize,
    stored: u64,
    allocated_chunks: u64,
    allocated_columns: u64,
    /// Cleared columns awaiting reuse (session pooling): allocations from
    /// invalidated or reset columns are recycled instead of freed. Kept
    /// boxed so columns move between here and `columns` without copying.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Column>>,
    /// Entries whose spans have been translated by lazy settling since the
    /// last [`ChunkMemo::take_entries_shifted`].
    entries_shifted: u64,
    /// The bump region for this table's semantic values. Memo entries hold
    /// [`Value::ArenaNode`]/[`Value::ArenaList`] handles into it, so the
    /// entries and the region live and die together:
    /// [`ChunkMemo::reset_for`] resets both, which is what makes stale
    /// handles unreachable across session recycling by construction.
    arena: Arena,
}

impl ChunkMemo {
    /// Creates a table for `n_slots` memoized productions over an input of
    /// `input_len` bytes (positions `0..=input_len` are valid).
    pub fn new(n_slots: u32, input_len: u32) -> Self {
        let n_chunks = (n_slots as usize).div_ceil(CHUNK_SIZE).max(1);
        ChunkMemo {
            columns: std::iter::repeat_with(|| None)
                .take(input_len as usize + 1)
                .collect(),
            n_slots,
            n_chunks,
            stored: 0,
            allocated_chunks: 0,
            allocated_columns: 0,
            spare: Vec::new(),
            entries_shifted: 0,
            arena: Arena::new(),
        }
    }

    /// The bump region backing this table's semantic values.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Mutable access to the bump region (parsers allocate through this).
    pub fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    /// Number of columns that have been materialized.
    pub fn columns_allocated(&self) -> u64 {
        self.allocated_columns
    }

    /// Number of chunks that have been materialized.
    pub fn chunks_allocated(&self) -> u64 {
        self.allocated_chunks
    }

    /// Number of valid positions (`input_len + 1`).
    pub fn n_positions(&self) -> usize {
        self.columns.len()
    }

    /// Whether the table's geometry matches `n_slots` productions over an
    /// input of `input_len` bytes.
    pub fn fits(&self, n_slots: u32, input_len: u32) -> bool {
        self.n_slots == n_slots && self.columns.len() == input_len as usize + 1
    }

    /// Takes (and resets) the count of entries relocated by lazy settling
    /// since the last call.
    pub fn take_entries_shifted(&mut self) -> u64 {
        std::mem::take(&mut self.entries_shifted)
    }

    /// Iterates the materialized columns that still hold entries, as
    /// `(pos, extent, entries)` triples.
    ///
    /// This is the observation surface for [`ChunkMemo::apply_edit`]'s
    /// soundness invariant: immediately after `apply_edit(lo, removed,
    /// inserted)`, every occupied column satisfies
    /// `pos + extent <= lo || pos >= lo + inserted` — no surviving entry's
    /// recorded lookahead overlaps the edited window.
    pub fn occupied_columns(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.columns.iter().enumerate().filter_map(|(pos, slot)| {
            slot.as_ref()
                .filter(|col| col.count > 0)
                .map(|col| (pos as u32, col.extent, col.count))
        })
    }

    /// Fetches a recycled column, or allocates a fresh one.
    #[allow(clippy::vec_box)]
    fn fresh_column(spare: &mut Vec<Box<Column>>, n_chunks: usize, allocated: &mut u64) -> Box<Column> {
        spare.pop().unwrap_or_else(|| {
            *allocated += 1;
            Box::new(Column::new(n_chunks))
        })
    }

    /// Records that an evaluation starting at `pos` examined input bytes
    /// `[pos, pos + len)`. Every store at `pos` must be covered by such a
    /// record for [`ChunkMemo::apply_edit`] to invalidate soundly; columns
    /// without entries need no record.
    pub fn record_extent(&mut self, pos: u32, len: u32) {
        if let Some(Some(col)) = self.columns.get_mut(pos as usize) {
            col.extent = col.extent.max(len);
        }
    }

    /// The recorded lookahead extent (as a length) of the column at `pos`,
    /// or 0 when no column exists.
    pub fn extent_at(&self, pos: u32) -> u32 {
        match self.columns.get(pos as usize) {
            Some(Some(col)) => col.extent,
            _ => 0,
        }
    }

    /// Like [`MemoTable::probe`], but first applies any span translation
    /// pending on the column from an earlier [`ChunkMemo::apply_edit`].
    /// Incremental sessions must probe through this method; the plain
    /// `probe` assumes (and debug-asserts) no translation is pending.
    pub fn probe_settled(&mut self, slot: u32, pos: u32) -> Option<&MemoAnswer> {
        if let Some(Some(col)) = self.columns.get_mut(pos as usize) {
            self.entries_shifted += col.settle(&mut self.arena);
        }
        self.probe(slot, pos)
    }

    /// Rewrites the table for an edit replacing bytes `[lo, lo + removed)`
    /// with `inserted` new bytes:
    ///
    /// * columns left of the edit whose recorded lookahead stays left of
    ///   `lo` are kept in place;
    /// * columns at or right of the removed window move with their text to
    ///   position `pos + inserted - removed`, carrying a pending span
    ///   translation that [`ChunkMemo::probe_settled`] applies lazily;
    /// * every other column (lookahead overlapping the edited window, or
    ///   inside the removed range) is invalidated, its allocation recycled.
    ///
    /// After this call the table is sized for the post-edit input; probing
    /// must go through [`ChunkMemo::probe_settled`] until every surviving
    /// column has settled.
    pub fn apply_edit(&mut self, lo: u32, removed: u32, inserted: u32) -> EditReport {
        let old_positions = self.columns.len();
        let old_len = old_positions as u32 - 1;
        let lo = lo.min(old_len);
        let removed = removed.min(old_len - lo);
        let delta = inserted as i64 - removed as i64;
        let new_positions = (old_positions as i64 + delta) as usize;

        let mut report = EditReport::default();
        let old_columns = std::mem::replace(
            &mut self.columns,
            std::iter::repeat_with(|| None).take(new_positions).collect(),
        );
        for (pos, col_slot) in old_columns.into_iter().enumerate() {
            let Some(mut col) = col_slot else { continue };
            let pos = pos as u32;
            let keep_left = pos < lo && pos.saturating_add(col.extent) <= lo;
            let shift_right = pos >= lo + removed;
            if keep_left {
                report.columns_reused += 1;
                self.columns[pos as usize] = Some(col);
            } else if shift_right {
                report.columns_reused += 1;
                col.bias += delta;
                self.columns[(pos as i64 + delta) as usize] = Some(col);
            } else {
                report.columns_invalidated += 1;
                report.entries_dropped += u64::from(col.count);
                self.stored -= u64::from(col.count);
                col.clear();
                self.spare.push(col);
            }
        }
        report
    }

    /// Frees one column outright (allocation returned to the OS, not the
    /// spare pool), keeping the byte accounting exact.
    fn free_column(&mut self, col: Box<Column>, report: &mut EvictReport) {
        report.columns_freed += 1;
        report.entries_dropped += u64::from(col.count);
        self.stored -= u64::from(col.count);
        self.allocated_columns -= 1;
        self.allocated_chunks -= col.chunks.iter().flatten().count() as u64;
        drop(col);
    }

    /// Releases the memory of every *cold* column — those at positions
    /// strictly left of `hot_from` — plus the spare pool, actually freeing
    /// the allocations (unlike invalidation, which recycles them).
    ///
    /// This is the first rung of the memo-budget degradation ladder: memo
    /// entries are a pure cache, so dropping them can never change a parse
    /// result, only cost re-evaluation if the parser backtracks far left.
    pub fn evict_cold(&mut self, hot_from: u32) -> EvictReport {
        let before = self.retained_bytes();
        let mut report = EvictReport::default();
        for pos in 0..(self.columns.len().min(hot_from as usize)) {
            if let Some(col) = self.columns[pos].take() {
                self.free_column(col, &mut report);
            }
        }
        for col in std::mem::take(&mut self.spare) {
            self.free_column(col, &mut report);
        }
        report.bytes_freed = before - self.retained_bytes();
        report
    }

    /// Releases every column and the spare pool; only the (input-sized)
    /// column pointer array remains. The last rung before giving up.
    pub fn evict_all(&mut self) -> EvictReport {
        self.evict_cold(u32::MAX)
    }

    /// Re-shapes the table for a fresh parse of `n_slots` productions over
    /// `input_len` bytes, recycling every column allocation (the pooling
    /// half of the session engine). Chunk geometry changes drop the pool.
    /// The value region is reset in the same operation — entries and the
    /// arena nodes they reference die together, so recycling can never
    /// resurrect a stale handle.
    pub fn reset_for(&mut self, n_slots: u32, input_len: u32) {
        let n_chunks = (n_slots as usize).div_ceil(CHUNK_SIZE).max(1);
        if n_chunks != self.n_chunks {
            self.spare.clear();
            self.n_chunks = n_chunks;
        }
        self.n_slots = n_slots;
        for col_slot in self.columns.iter_mut() {
            if let Some(mut col) = col_slot.take() {
                col.clear();
                self.spare.push(col);
            }
        }
        self.columns.resize_with(input_len as usize + 1, || None);
        self.stored = 0;
        self.entries_shifted = 0;
        self.arena.reset();
    }
}

impl MemoTable for ChunkMemo {
    fn probe(&self, slot: u32, pos: u32) -> Option<&MemoAnswer> {
        if slot >= self.n_slots {
            return None;
        }
        let col = self.columns.get(pos as usize)?.as_ref()?;
        debug_assert_eq!(
            col.bias, 0,
            "column {pos} probed with a pending edit translation; \
             incremental sessions must use probe_settled"
        );
        let chunk = col.chunks.get(slot as usize / CHUNK_SIZE)?.as_ref()?;
        chunk[slot as usize % CHUNK_SIZE].as_ref()
    }

    fn store(&mut self, slot: u32, pos: u32, answer: MemoAnswer) {
        if slot >= self.n_slots {
            // Out-of-range slots previously leaked into the padding cells
            // of the last chunk; reject them like out-of-range positions.
            return;
        }
        let Some(col_slot) = self.columns.get_mut(pos as usize) else {
            return; // out-of-range position: ignore rather than grow
        };
        let col = match col_slot {
            Some(c) => c,
            None => {
                let col = Self::fresh_column(
                    &mut self.spare,
                    self.n_chunks,
                    &mut self.allocated_columns,
                );
                col_slot.insert(col)
            }
        };
        // A store into a column still carrying an edit translation must
        // settle it first, or settling later would corrupt this entry.
        if col.bias != 0 {
            self.entries_shifted += col.settle(&mut self.arena);
        }
        let chunk_idx = slot as usize / CHUNK_SIZE;
        let Some(chunk_slot) = col.chunks.get_mut(chunk_idx) else {
            return;
        };
        let chunk = match chunk_slot {
            Some(c) => c,
            None => {
                self.allocated_chunks += 1;
                chunk_slot.insert(Box::new(std::array::from_fn(|_| None)))
            }
        };
        let cell = &mut chunk[slot as usize % CHUNK_SIZE];
        if cell.is_none() {
            self.stored += 1;
            col.count += 1;
        }
        *cell = Some(answer);
    }

    fn entries(&self) -> u64 {
        self.stored
    }

    fn retained_bytes(&self) -> u64 {
        // Deliberately excludes the arena: the memo budget is enforced by
        // evicting columns, which cannot free region memory — counting the
        // region here would make the eviction ladder unable to satisfy the
        // budget and turn recoverable pressure into spurious aborts. The
        // region is accounted by the parsers' value-byte stats instead.
        let column_ptrs =
            (self.columns.capacity() * std::mem::size_of::<Option<Box<Column>>>()) as u64;
        let column_headers = self.allocated_columns
            * (self.n_chunks * std::mem::size_of::<Option<Box<()>>>()) as u64;
        let chunk_bytes = self.allocated_chunks
            * (CHUNK_SIZE * std::mem::size_of::<Option<MemoAnswer>>()) as u64;
        column_ptrs + column_headers + chunk_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    fn success(end: u32) -> MemoAnswer {
        MemoAnswer::success(0, end, Value::Text(Span::new(0, end)))
    }

    fn fail() -> MemoAnswer {
        MemoAnswer::fail(0)
    }

    #[test]
    fn hash_memo_roundtrip() {
        let mut m = HashMemo::new();
        assert_eq!(m.probe(1, 2), None);
        m.store(1, 2, success(5));
        assert_eq!(m.probe(1, 2), Some(&success(5)));
        m.store(1, 2, fail());
        assert_eq!(m.probe(1, 2), Some(&fail()));
        assert_eq!(m.entries(), 1);
        assert!(m.retained_bytes() > 0);
    }

    #[test]
    fn chunk_memo_roundtrip_across_chunks() {
        let mut m = ChunkMemo::new(CHUNK_SIZE as u32 * 3, 10);
        m.store(0, 0, success(1));
        m.store(CHUNK_SIZE as u32, 0, success(2));
        m.store(CHUNK_SIZE as u32 * 2 + 3, 10, fail());
        assert_eq!(m.probe(0, 0), Some(&success(1)));
        assert_eq!(m.probe(CHUNK_SIZE as u32, 0), Some(&success(2)));
        assert_eq!(m.probe(CHUNK_SIZE as u32 * 2 + 3, 10), Some(&fail()));
        assert_eq!(m.probe(1, 0), None);
        assert_eq!(m.entries(), 3);
    }

    #[test]
    fn chunk_memo_allocates_lazily() {
        let mut m = ChunkMemo::new(40, 1000);
        assert_eq!(m.columns_allocated(), 0);
        m.store(0, 500, fail());
        assert_eq!(m.columns_allocated(), 1);
        assert_eq!(m.chunks_allocated(), 1);
        // Same chunk: no new allocation.
        m.store(5, 500, fail());
        assert_eq!(m.chunks_allocated(), 1);
        // Different chunk, same column.
        m.store(15, 500, fail());
        assert_eq!(m.chunks_allocated(), 2);
        assert_eq!(m.columns_allocated(), 1);
    }

    #[test]
    fn chunk_memo_overwrite_does_not_double_count() {
        let mut m = ChunkMemo::new(5, 5);
        m.store(2, 2, fail());
        m.store(2, 2, success(3));
        assert_eq!(m.entries(), 1);
        assert_eq!(m.probe(2, 2), Some(&success(3)));
    }

    #[test]
    fn chunk_memo_position_bounds() {
        let mut m = ChunkMemo::new(5, 3);
        // Position input_len is valid (EOF position).
        m.store(0, 3, fail());
        assert_eq!(m.probe(0, 3), Some(&fail()));
        // Out-of-range store is ignored, probe returns None.
        m.store(0, 4, fail());
        assert_eq!(m.probe(0, 4), None);
    }

    #[test]
    fn chunk_memo_zero_slots_still_valid() {
        let m = ChunkMemo::new(0, 10);
        assert_eq!(m.probe(0, 0), None);
    }

    #[test]
    fn retained_bytes_grow_with_chunks() {
        let mut m = ChunkMemo::new(100, 100);
        let before = m.retained_bytes();
        for pos in 0..50 {
            m.store(0, pos, fail());
        }
        assert!(m.retained_bytes() > before);
    }

    #[test]
    fn last_chunk_straddling_slots_roundtrip() {
        // 25 slots → 3 chunks; the last chunk holds slots 20..24 plus five
        // padding cells. Every real slot of the partial chunk must work.
        let n_slots = CHUNK_SIZE as u32 * 2 + 5;
        let mut m = ChunkMemo::new(n_slots, 10);
        for slot in 20..n_slots {
            m.store(slot, 4, success(slot));
        }
        for slot in 20..n_slots {
            assert_eq!(m.probe(slot, 4), Some(&success(slot)));
        }
        assert_eq!(m.entries(), 5);
    }

    #[test]
    fn out_of_range_slots_in_last_chunk_padding_are_rejected() {
        // Slots 25..29 fall inside the allocated last chunk but past
        // n_slots; they used to leak into the padding cells. They must be
        // ignored exactly like slots past the chunk array.
        let n_slots = CHUNK_SIZE as u32 * 2 + 5;
        let mut m = ChunkMemo::new(n_slots, 10);
        for slot in [n_slots, n_slots + 4, CHUNK_SIZE as u32 * 3, 1000] {
            m.store(slot, 2, fail());
            assert_eq!(m.probe(slot, 2), None);
        }
        assert_eq!(m.entries(), 0);
    }

    #[test]
    fn exact_chunk_multiple_has_no_padding_issues() {
        let n_slots = CHUNK_SIZE as u32 * 2;
        let mut m = ChunkMemo::new(n_slots, 5);
        m.store(n_slots - 1, 0, success(1));
        assert_eq!(m.probe(n_slots - 1, 0), Some(&success(1)));
        m.store(n_slots, 0, fail());
        assert_eq!(m.probe(n_slots, 0), None);
        assert_eq!(m.entries(), 1);
    }

    #[test]
    fn edit_keeps_left_columns_with_small_extents() {
        let mut m = ChunkMemo::new(5, 20);
        m.store(0, 2, success(4));
        m.record_extent(2, 2); // examined [2,4): safely left of the edit
        m.store(0, 8, success(9));
        m.record_extent(8, 4); // examined [8,12): overlaps the edit at 10
        let report = m.apply_edit(10, 3, 5);
        assert_eq!(report.columns_reused, 1);
        assert_eq!(report.columns_invalidated, 1);
        assert_eq!(report.entries_dropped, 1);
        assert_eq!(m.probe_settled(0, 2), Some(&success(4)));
        assert_eq!(m.probe_settled(0, 8), None);
        assert_eq!(m.entries(), 1);
    }

    #[test]
    fn edit_shifts_right_columns_and_settles_lazily() {
        let mut m = ChunkMemo::new(5, 20);
        m.store(1, 15, MemoAnswer::success(0, 18, Value::Text(Span::new(15, 18))));
        m.record_extent(15, 3);
        // Replace [5, 8) with 1 byte: delta = -2.
        let report = m.apply_edit(5, 3, 1);
        assert_eq!(report.columns_reused, 1);
        assert_eq!(m.n_positions(), 19); // 20 - 3 + 1 + 1
        // The column moved from 15 to 13 and its spans settle on probe.
        assert_eq!(
            m.probe_settled(1, 13),
            Some(&MemoAnswer::success(0, 16, Value::Text(Span::new(13, 16))))
        );
        assert_eq!(m.take_entries_shifted(), 1);
        // Extent survives relocation (it is a length).
        assert_eq!(m.extent_at(13), 3);
    }

    #[test]
    fn edit_at_eof_invalidates_columns_that_peeked_past_the_end() {
        let mut m = ChunkMemo::new(5, 10);
        // A `!.` at EOF examines the (absent) byte at 10 → extent 1.
        m.store(0, 10, success(10));
        m.record_extent(10, 1);
        // A column that stopped short of EOF.
        m.store(0, 3, success(5));
        m.record_extent(3, 2);
        // Append 4 bytes at EOF.
        let report = m.apply_edit(10, 0, 4);
        // The EOF column moves with the (empty) suffix to the new EOF —
        // where `.` still fails — and the left column is untouched.
        assert_eq!(report.columns_reused, 2);
        assert_eq!(report.columns_invalidated, 0);
        assert_eq!(m.probe_settled(0, 14).map(|a| a.outcome.as_ref().map(|o| o.0)), Some(Some(14)));
        assert_eq!(m.probe_settled(0, 3), Some(&success(5)));
    }

    #[test]
    fn store_into_unsettled_column_settles_first() {
        let mut m = ChunkMemo::new(5, 10);
        m.store(0, 6, MemoAnswer::success(0, 8, Value::Text(Span::new(6, 8))));
        m.record_extent(6, 2);
        m.apply_edit(2, 0, 3); // insert 3 bytes: column 6 → 9, bias +3
        // A store at the relocated column must not be corrupted by the
        // later settling of the pre-existing entry.
        m.store(1, 9, MemoAnswer::success(0, 10, Value::Text(Span::new(9, 10))));
        assert_eq!(
            m.probe_settled(0, 9),
            Some(&MemoAnswer::success(0, 11, Value::Text(Span::new(9, 11))))
        );
        assert_eq!(
            m.probe_settled(1, 9),
            Some(&MemoAnswer::success(0, 10, Value::Text(Span::new(9, 10))))
        );
    }

    #[test]
    fn reset_for_recycles_columns(){
        let mut m = ChunkMemo::new(10, 50);
        for pos in 0..30 {
            m.store(0, pos, fail());
        }
        let allocated = m.columns_allocated();
        m.reset_for(10, 80);
        assert_eq!(m.entries(), 0);
        assert_eq!(m.n_positions(), 81);
        for pos in 0..30 {
            assert_eq!(m.probe(0, pos), None);
        }
        // New stores draw from the recycled pool: no new column allocations.
        for pos in 0..30 {
            m.store(0, pos, fail());
        }
        assert_eq!(m.columns_allocated(), allocated);
    }

    #[test]
    fn occupied_columns_reflect_stores_and_edits() {
        let mut m = ChunkMemo::new(5, 20);
        assert_eq!(m.occupied_columns().count(), 0);
        m.store(0, 2, success(4));
        m.record_extent(2, 2);
        m.store(0, 12, success(14));
        m.record_extent(12, 2);
        let cols: Vec<_> = m.occupied_columns().collect();
        assert_eq!(cols, vec![(2, 2, 1), (12, 2, 1)]);
        // Replace [6, 8) with 3 bytes: left column kept, right shifted.
        let lo = 6u32;
        let inserted = 3u32;
        m.apply_edit(lo, 2, inserted);
        for (pos, extent, _) in m.occupied_columns() {
            assert!(
                pos + extent <= lo || pos >= lo + inserted,
                "column {pos} (extent {extent}) overlaps the edit"
            );
        }
        assert_eq!(m.occupied_columns().count(), 2);
    }

    #[test]
    fn evict_cold_frees_left_columns_and_spares() {
        let mut m = ChunkMemo::new(5, 40);
        for pos in [2u32, 10, 20, 30] {
            m.store(0, pos, success(pos + 1));
            m.record_extent(pos, 1);
        }
        // Invalidate one column into the spare pool first.
        m.apply_edit(10, 1, 1);
        assert_eq!(m.entries(), 3);
        let before = m.retained_bytes();
        let report = m.evict_cold(25);
        // Columns 2 and 20 freed, plus the spare from the invalidation.
        assert_eq!(report.columns_freed, 3);
        assert_eq!(report.entries_dropped, 2);
        assert!(report.bytes_freed > 0);
        assert_eq!(m.retained_bytes(), before - report.bytes_freed);
        assert_eq!(m.probe(0, 2), None);
        assert_eq!(m.probe(0, 20), None);
        // The hot column survives untouched.
        assert_eq!(m.probe(0, 30), Some(&success(31)));
        assert_eq!(m.entries(), 1);
        // Accounting still exact: new stores re-allocate from scratch.
        let cols = m.columns_allocated();
        m.store(0, 2, fail());
        assert_eq!(m.columns_allocated(), cols + 1);
    }

    #[test]
    fn evict_all_leaves_only_the_pointer_array() {
        let mut m = ChunkMemo::new(5, 10);
        for pos in 0..8 {
            m.store(0, pos, fail());
        }
        let report = m.evict_all();
        assert_eq!(report.columns_freed, 8);
        assert_eq!(report.entries_dropped, 8);
        assert_eq!(m.entries(), 0);
        assert_eq!(m.columns_allocated(), 0);
        assert_eq!(m.chunks_allocated(), 0);
        assert!(m.occupied_columns().next().is_none());
        // The table still works after a full eviction.
        m.store(0, 3, fail());
        assert_eq!(m.probe(0, 3), Some(&fail()));
    }

    #[test]
    fn eviction_preserves_occupied_columns_invariant_after_edit() {
        // Mid-life eviction composed with an edit: the survivors must
        // still satisfy the apply_edit soundness invariant.
        let mut m = ChunkMemo::new(5, 30);
        for pos in [1u32, 5, 12, 20, 25] {
            m.store(0, pos, success(pos + 2));
            m.record_extent(pos, 2);
        }
        m.evict_cold(10);
        let (lo, removed, inserted) = (14u32, 2u32, 5u32);
        m.apply_edit(lo, removed, inserted);
        for (pos, extent, _) in m.occupied_columns() {
            assert!(
                pos + extent <= lo || pos >= lo + inserted,
                "column {pos} (extent {extent}) overlaps the edit"
            );
        }
    }

    #[test]
    fn hash_memo_purge_releases_capacity() {
        let mut m = HashMemo::new();
        for pos in 0..100 {
            m.store(0, pos, fail());
        }
        assert!(m.retained_bytes() > 0);
        assert_eq!(m.purge(), 100);
        assert_eq!(m.entries(), 0);
        assert_eq!(m.retained_bytes(), 0);
        assert_eq!(m.probe(0, 5), None);
    }

    #[test]
    fn edit_report_counts_dropped_entries() {
        let mut m = ChunkMemo::new(5, 10);
        m.store(0, 5, fail());
        m.store(1, 5, fail());
        m.store(2, 5, success(6));
        m.record_extent(5, 1);
        let report = m.apply_edit(5, 1, 1);
        assert_eq!(report.columns_invalidated, 1);
        assert_eq!(report.entries_dropped, 3);
        assert_eq!(m.entries(), 0);
    }
}
