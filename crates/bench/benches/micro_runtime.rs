//! Micro-benchmarks for runtime primitives: memo-table probe/store
//! strategies and state transactions — the building blocks whose costs
//! the optimization study aggregates, timed through `modpeg_bench::paired`.
//! Plain `std::time` harness (`harness = false`), so no external
//! benchmarking dependency is needed.

use std::hint::black_box;

use modpeg_bench::{ms, paired, print_table};
use modpeg_runtime::{ChunkMemo, HashMemo, MemoAnswer, MemoTable, ScopedState, Value};

const RUNS: usize = 20;

fn chunk_store_probe() -> u32 {
    let mut m = ChunkMemo::new(40, 4096);
    for pos in (0..4096u32).step_by(3) {
        m.store(pos % 40, pos, MemoAnswer::success(0, pos + 1, Value::Unit));
    }
    let mut hits = 0u32;
    for pos in 0..4096u32 {
        if m.probe(pos % 40, pos).is_some() {
            hits += 1;
        }
    }
    hits
}

fn hash_store_probe() -> u32 {
    let mut m = HashMemo::new();
    for pos in (0..4096u32).step_by(3) {
        m.store(pos % 40, pos, MemoAnswer::success(0, pos + 1, Value::Unit));
    }
    let mut hits = 0u32;
    for pos in 0..4096u32 {
        if m.probe(pos % 40, pos).is_some() {
            hits += 1;
        }
    }
    hits
}

fn define_rollback() -> usize {
    let mut st = ScopedState::new();
    for i in 0..64 {
        let mark = st.mark();
        st.define(&format!("name{i}"));
        if i % 2 == 0 {
            st.rollback(mark);
        }
    }
    st.depth()
}

fn main() {
    let legs = paired(
        RUNS,
        1,
        &mut [
            &mut || {
                black_box(chunk_store_probe());
            },
            &mut || {
                black_box(hash_store_probe());
            },
            &mut || {
                black_box(define_rollback());
            },
        ],
    );
    let names = [
        "memo/chunk_store_probe",
        "memo/hash_store_probe",
        "state/define_rollback",
    ];
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(&legs)
        .map(|(name, leg)| vec![(*name).to_owned(), ms(leg.median)])
        .collect();
    print_table(&["benchmark", "median ms"], &rows);
}
