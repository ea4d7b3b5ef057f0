//! The typed group-key kernel: GROUP BY, DISTINCT and existence joins
//! straight off the key *columns* of a [`ColBatch`].
//!
//! Keys are hashed with one typed loop per key column ([`KeyCols::hash_range`]),
//! dense `u32` group ids come from an open-addressing table whose candidates
//! are compared against the key columns at the group's first row
//! ([`GroupTable`]), and aggregate state is one typed vector per aggregate,
//! indexed by group id ([`Partition`]: the partial of the rows one worker
//! folded, which merges with other workers' partials; without key columns,
//! one group). Every semi/anti join's build side is the same table without
//! the state, folded serially ([`KeySet`]) and looked up — never added to —
//! with the probe side's key columns. Three serial
//! whole-batch passes serve the load path and the catalog: [`group_sizes`]
//! (how many rows share each row's key — the `cons` annotation),
//! [`distinct_capped`] (a column's NDV for the planner's statistics) and
//! [`Postings`] (the same table with each group's rows chained in ascending
//! order — the key index, [`crate::index`], and the build side of every
//! inner and left-outer hash join — looked up by a key's
//! [`KeyValue`]s and extended in place of a rebuild when rows are
//! appended). A GROUP BY over the branches of a `UNION ALL` folds each
//! branch on its own, its states finished into partial [`Accumulator`]s
//! ([`AggOutput`]) rather than columns, and [`match_groups`] matches the
//! branches' groups for the executor to merge. No `Value`, `Key` or row is
//! built per input row on the typed paths.
//!
//! # Invariants
//!
//! Each is pinned by a test here, in `tests/group_kernel.rs`,
//! `tests/join_kernel.rs` or `tests/index_postings.rs`.
//!
//! 1. **Key equality is exactly [`KeyValue`]'s.** `Int(2)` and `Float(2.0)`
//!    are one key (they can only meet in an `Any` column), `-0.0` and `0.0`
//!    are one key, NaNs group by bit pattern, NULL groups with NULL, and
//!    values of different types never match. Text is compared — and hashed —
//!    by string, never by dictionary code alone, so rows that came from
//!    chunks with different [`TextDict`](crate::col::TextDict)s (the two
//!    sides of a `UNION ALL`) land in one group.
//! 2. **Output is in first-seen order and bit-identical to a row-at-a-time
//!    evaluation** (the row path's, and the reference evaluator's that
//!    `tests/group_kernel.rs` compares against) at every thread count: a
//!    group's key values are those of its first row, MIN/MAX keep the
//!    first of equal candidates, DISTINCT aggregates fold the first
//!    occurrence of each value, float SUM/AVG go through [`ExactSum`].
//! 3. **Parallel runs merge morsel-local partials in first-row order.**
//!    Each worker folds the morsels it claims into its own [`Partition`],
//!    whose groups carry the first row *it* saw, ascending; the partials
//!    are folded into the one that holds the batch's first rows
//!    ([`Partition::merge`]) in ascending order of those first rows, so a
//!    group is added at its global first row and the merged groups come
//!    out in first-seen order. State merges are order-free: counts and
//!    sums add (an integer SUM whose order could decide an overflow is
//!    never split, see the executor's `int_sum_reach`), MIN/MAX keep the
//!    better candidate, and DISTINCT aggregates are never split. Partials
//!    are also merged across the branches of a `UNION ALL`, in branch
//!    order — the order one fold over their concatenation would see them in.
//! 4. **Value-level errors discard and replay.** Integer overflow in SUM,
//!    a NaN reaching MIN/MAX, SUM over text, and a MIN/MAX tie between
//!    two representations of one value (`0` and `0.0`, `-0.0` and `0.0`)
//!    met only in a merge: [`Partition::consume`] or
//!    [`Partition::merge`] returns `None`, the caller drops all kernel
//!    state and re-runs the operator on the row path, which reports the
//!    error the row-major scan hits first (or keeps the first of the tied
//!    values).
//! 5. **What the kernel charges is the merged groups' bytes**
//!    ([`Partition::bytes`]: a function of the groups and their values
//!    alone). The partial holding the batch's first rows charges as it
//!    grows, through its own rows and the merge alike; the other partials
//!    charge nothing — each holds at most one group per row it folded — so
//!    the total, and with it whether a memory budget trips, is what one
//!    worker folding every row charges, at any worker count.
//! 6. **Cross-batch equality is the same [`KeyValue`] equality.** A probe
//!    key is compared against a build key in *another* batch, whose column
//!    may be laid out differently: an integer column meets a float column
//!    where the float is that integer (`-0.0` meets `0`), text meets text
//!    by string across the two dictionaries, an `Any` cell meets a typed
//!    one through [`canon`], two different typed layouts never match — and
//!    both sides hash under one seed ([`KeyCols::seeded_like`]) to a hash
//!    that depends on the key value, not the layout. A key with a NULL
//!    component is in no set and matches nothing (SQL equality). The same
//!    holds for a key given as [`KeyValue`]s ([`Postings::find`]): hashed
//!    as a row holding those values would be, compared like an `Any` cell.

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::BuildHasher;
use std::mem::{self, size_of};
use std::ops::Range;
use std::sync::Arc;

use crate::col::{Bitmap, ColBatch, ColumnChunk, ColumnData};
use crate::exec::Accumulator;
use crate::fsum::ExactSum;
use crate::plan::AggFunc;
use crate::value::{float_key, KeyValue, Value};

/// Hash payload standing in for NULL (any constant works: equality, not
/// the hash, separates NULL from a value that happens to collide).
const NULL_PAYLOAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// One folded-multiply mixing step (the `ahash` fallback round): fast,
/// and with `k` drawn per query from [`RandomState`] not steerable by
/// whoever chose the data.
#[inline]
fn mix(h: u64, x: u64, k: u64) -> u64 {
    let m = u128::from(h ^ x).wrapping_mul(u128::from(k));
    (m as u64) ^ ((m >> 64) as u64)
}

fn hash_str(s: &str, k: u64) -> u64 {
    let mut h = s.len() as u64;
    for part in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..part.len()].copy_from_slice(part);
        h = mix(h, u64::from_le_bytes(word), k);
    }
    h
}

#[inline]
fn float_payload(f: f64) -> u64 {
    match float_key(f) {
        Ok(i) => i as u64,
        Err(bits) => bits,
    }
}

/// A borrowed [`KeyValue`]: what an `Any` cell is compared and hashed as.
#[derive(PartialEq)]
enum Canon<'a> {
    Null,
    Bool(bool),
    Int(i64),
    FloatBits(u64),
    Str(&'a str),
    Date(i32),
}

fn canon(v: &Value) -> Canon<'_> {
    match v {
        Value::Null => Canon::Null,
        Value::Bool(b) => Canon::Bool(*b),
        Value::Int(i) => Canon::Int(*i),
        Value::Float(f) => canon_float(*f),
        Value::Str(s) => Canon::Str(s),
        Value::Date(d) => Canon::Date(*d),
    }
}

fn canon_float(f: f64) -> Canon<'static> {
    match float_key(f) {
        Ok(i) => Canon::Int(i),
        Err(bits) => Canon::FloatBits(bits),
    }
}

/// A [`KeyValue`], borrowed: the two are one normal form.
fn canon_key(kv: &KeyValue) -> Canon<'_> {
    match kv {
        KeyValue::Null => Canon::Null,
        KeyValue::Bool(b) => Canon::Bool(*b),
        KeyValue::Int(i) => Canon::Int(*i),
        KeyValue::FloatBits(bits) => Canon::FloatBits(*bits),
        KeyValue::Str(s) => Canon::Str(s),
        KeyValue::Date(d) => Canon::Date(*d),
    }
}

/// Cell `i` of `chunk`, which must not be NULL unless inside an `Any` chunk.
fn cell_canon(chunk: &ColumnChunk, i: usize) -> Canon<'_> {
    match &chunk.data {
        ColumnData::Int(xs) => Canon::Int(xs[i]),
        ColumnData::Float(xs) => canon_float(xs[i]),
        ColumnData::Date(xs) => Canon::Date(xs[i]),
        ColumnData::Bool(xs) => Canon::Bool(xs[i]),
        ColumnData::Text { codes, dict } => Canon::Str(dict.get(codes[i])),
        ColumnData::Any(vs) => canon(&vs[i]),
    }
}

/// The word a key value is hashed as, whatever layout holds it.
#[inline]
fn canon_payload(c: Canon<'_>, k: u64) -> u64 {
    match c {
        Canon::Null => NULL_PAYLOAD,
        Canon::Bool(b) => u64::from(b),
        Canon::Int(v) => v as u64,
        Canon::FloatBits(bits) => bits,
        Canon::Str(s) => hash_str(s, k),
        Canon::Date(d) => d as u64,
    }
}

struct KeyCol<'a> {
    chunk: &'a ColumnChunk,
    /// Text columns whose dictionary is no larger than the batch: the
    /// string hash of every dictionary entry, computed once. (A small
    /// batch over a huge shared dictionary hashes per row instead.)
    code_hashes: Option<Vec<u64>>,
}

/// The key columns of one batch, ready to hash and compare.
pub struct KeyCols<'a> {
    cols: Vec<KeyCol<'a>>,
    k0: u64,
    k1: u64,
}

impl<'a> KeyCols<'a> {
    pub fn new(batch: &'a ColBatch, key_idx: &[usize]) -> KeyCols<'a> {
        let (k0, k1) = new_seed();
        KeyCols::seeded(batch, key_idx, k0, k1, batch.len())
    }

    /// The key columns of another batch under this one's seed: equal keys
    /// hash alike on both sides whatever their column layouts, which is
    /// what lets one side's rows be looked up in a table built over the
    /// other's ([`KeySet::select_into`]).
    pub fn seeded_like<'b>(&self, batch: &'b ColBatch, key_idx: &[usize]) -> KeyCols<'b> {
        KeyCols::seeded(batch, key_idx, self.k0, self.k1, batch.len())
    }

    /// `hashed_rows` is how many rows the caller will hash: a text column
    /// hashes its dictionary up front only when that is no more work.
    fn seeded(
        batch: &'a ColBatch,
        key_idx: &[usize],
        k0: u64,
        k1: u64,
        hashed_rows: usize,
    ) -> KeyCols<'a> {
        let cols = key_idx
            .iter()
            .map(|&c| {
                let chunk = batch.col(c);
                let code_hashes = match &chunk.data {
                    ColumnData::Text { dict, .. } if dict.len() <= hashed_rows => {
                        Some(dict.strings().iter().map(|s| hash_str(s, k1)).collect())
                    }
                    _ => None,
                };
                KeyCol { chunk, code_hashes }
            })
            .collect();
        KeyCols { cols, k0, k1 }
    }

    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Key hashes of the rows in `range` into `out` (cleared first), one
    /// typed pass per key column.
    pub fn hash_range(&self, range: Range<usize>, out: &mut Vec<u64>) {
        out.clear();
        out.resize(range.len(), self.k0);
        let k = self.k1;
        for col in &self.cols {
            let chunk = col.chunk;
            // One loop shape for every layout: `$payload` maps a row index
            // to the hashed word; the validity test is hoisted out for
            // all-valid chunks.
            macro_rules! fold {
                (|$i:ident| $payload:expr) => {
                    match &chunk.validity {
                        None => {
                            for (h, $i) in out.iter_mut().zip(range.clone()) {
                                *h = mix(*h, $payload, k);
                            }
                        }
                        Some(bm) => {
                            for (h, $i) in out.iter_mut().zip(range.clone()) {
                                let x = if bm.get($i) { $payload } else { NULL_PAYLOAD };
                                *h = mix(*h, x, k);
                            }
                        }
                    }
                };
            }
            match &chunk.data {
                ColumnData::Int(xs) => fold!(|i| xs[i] as u64),
                ColumnData::Float(xs) => fold!(|i| float_payload(xs[i])),
                ColumnData::Date(xs) => fold!(|i| xs[i] as u64),
                ColumnData::Bool(xs) => fold!(|i| u64::from(xs[i])),
                ColumnData::Text { codes, dict } => match &col.code_hashes {
                    Some(hashes) => fold!(|i| hashes[codes[i] as usize]),
                    None => fold!(|i| hash_str(dict.get(codes[i]), k)),
                },
                ColumnData::Any(vs) => fold!(|i| canon_payload(canon(&vs[i]), k)),
            }
        }
    }

    /// Do rows `a` and `b` carry the same key (invariant 1)? One layout
    /// per column, so one dispatch: going through [`cells_equal`]'s pair
    /// of layouts measured 8 % on a one-integer-key GROUP BY and 18 % on a
    /// text DISTINCT.
    #[inline]
    fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.cols.iter().all(|col| {
            let chunk = col.chunk;
            if let Some(bm) = &chunk.validity {
                let (va, vb) = (bm.get(a), bm.get(b));
                if !va || !vb {
                    return va == vb;
                }
            }
            match &chunk.data {
                ColumnData::Int(xs) => xs[a] == xs[b],
                // Equal as numbers (so `-0.0` meets `0.0`) or bit for bit
                // (so a NaN meets itself): exactly `float_key` equality.
                ColumnData::Float(xs) => xs[a] == xs[b] || xs[a].to_bits() == xs[b].to_bits(),
                ColumnData::Date(xs) => xs[a] == xs[b],
                ColumnData::Bool(xs) => xs[a] == xs[b],
                ColumnData::Text { codes, dict } => {
                    codes[a] == codes[b] || dict.get(codes[a]) == dict.get(codes[b])
                }
                ColumnData::Any(vs) => canon(&vs[a]) == canon(&vs[b]),
            }
        })
    }

    /// Can a row of these columns hold a NULL key component at all? `false`
    /// lets a caller skip [`KeyCols::has_null`] for the whole batch.
    fn nullable(&self) -> bool {
        self.cols
            .iter()
            .any(|c| c.chunk.validity.is_some() || matches!(c.chunk.data, ColumnData::Any(_)))
    }

    /// Is any key component of row `i` NULL?
    #[inline]
    fn has_null(&self, i: usize) -> bool {
        self.cols.iter().any(|c| c.chunk.is_null(i))
    }

    /// Does row `a` carry the same key as row `b` of `other`, neither
    /// holding a NULL component (invariant 6)?
    #[inline]
    fn row_equals(&self, a: usize, other: &KeyCols<'_>, b: usize) -> bool {
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(x, y)| cells_equal(x.chunk, a, y.chunk, b))
    }

    /// Are row `a` and row `b` of `other` one GROUP BY group: invariant 6's
    /// equality, under which NULL groups with NULL (invariant 1)?
    fn same_group(&self, a: usize, other: &KeyCols<'_>, b: usize) -> bool {
        self.cols.iter().zip(&other.cols).all(|(x, y)| {
            match (x.chunk.is_null(a), y.chunk.is_null(b)) {
                (false, false) => cells_equal(x.chunk, a, y.chunk, b),
                (x_null, y_null) => x_null == y_null,
            }
        })
    }
}

/// Do cell `i` of `a` and cell `j` of `b` — non-NULL unless inside an `Any`
/// chunk — hold the same key value? The chunks come from two batches and
/// may be laid out differently: whatever the pair, the answer is
/// [`KeyValue`] equality of the two values (invariant 6).
#[inline]
fn cells_equal(a: &ColumnChunk, i: usize, b: &ColumnChunk, j: usize) -> bool {
    match (&a.data, &b.data) {
        (ColumnData::Int(xs), ColumnData::Int(ys)) => xs[i] == ys[j],
        // Equal as numbers (so `-0.0` meets `0.0`) or bit for bit (so a
        // NaN meets itself): exactly `float_key` equality.
        (ColumnData::Float(xs), ColumnData::Float(ys)) => {
            xs[i] == ys[j] || xs[i].to_bits() == ys[j].to_bits()
        }
        (ColumnData::Date(xs), ColumnData::Date(ys)) => xs[i] == ys[j],
        (ColumnData::Bool(xs), ColumnData::Bool(ys)) => xs[i] == ys[j],
        (
            ColumnData::Text {
                codes: cx,
                dict: dx,
            },
            ColumnData::Text {
                codes: cy,
                dict: dy,
            },
        ) => (cx[i] == cy[j] && Arc::ptr_eq(dx, dy)) || dx.get(cx[i]) == dy.get(cy[j]),
        (ColumnData::Int(xs), ColumnData::Float(ys)) => float_key(ys[j]) == Ok(xs[i]),
        (ColumnData::Float(xs), ColumnData::Int(ys)) => float_key(xs[i]) == Ok(ys[j]),
        // An `Any` cell against a typed one, or two typed layouts whose
        // values are never one key (an integer and a date, say).
        _ => cell_canon(a, i) == cell_canon(b, j),
    }
}

/// A fresh `(k0, k1)` seed for [`KeyCols`]: `k0` starts every hash, `k1`
/// is [`mix`]'s multiplier.
fn new_seed() -> (u64, u64) {
    let seed = RandomState::new();
    (seed.hash_one(0u8), seed.hash_one(1u8) | 1)
}

/// Open-addressing (linear probing, load ≤ ½) map from key to dense group
/// id. A slot holds `group id + 1`; the key itself stays in the batch, at
/// the group's first row.
#[derive(Clone)]
struct GroupTable {
    slots: Vec<u32>,
    /// First row of each group, ascending (rows arrive in order).
    first_rows: Vec<u32>,
    /// Hash of each group's key: rejects most non-matching candidates
    /// without touching the key columns, and lets the table grow without
    /// re-hashing.
    hashes: Vec<u64>,
}

/// Bytes one group costs in [`GroupTable`]: first row, hash, two slots.
const TABLE_BYTES_PER_GROUP: usize = 4 + 8 + 2 * 4;

impl GroupTable {
    fn new() -> GroupTable {
        GroupTable {
            slots: vec![0; 64],
            first_rows: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// [`group_of`](GroupTable::group_of)'s walk without the insert: the
    /// group with hash `h` whose first row `same_key` accepts, if any.
    /// (Its own loop: sharing one walk with `group_of` through a closure
    /// measured 2-3 % on GROUP BY and DISTINCT.)
    #[inline]
    fn find(&self, h: u64, same_key: impl Fn(usize) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut slot = h as usize & mask;
        loop {
            let s = self.slots[slot];
            if s == 0 {
                return None;
            }
            let g = (s - 1) as usize;
            if self.hashes[g] == h && same_key(self.first_rows[g] as usize) {
                return Some(g as u32);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Bytes the table holds: slots, first rows and hashes, by capacity.
    fn bytes(&self) -> usize {
        self.slots.capacity() * 4 + self.first_rows.capacity() * 4 + self.hashes.capacity() * 8
    }

    #[inline]
    fn group_of(&mut self, keys: &KeyCols<'_>, row: u32, h: u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = h as usize & mask;
        loop {
            let s = self.slots[slot];
            if s == 0 {
                break;
            }
            let g = (s - 1) as usize;
            if self.hashes[g] == h && keys.rows_equal(self.first_rows[g] as usize, row as usize) {
                return g as u32;
            }
            slot = (slot + 1) & mask;
        }
        self.place(slot, row, h)
    }

    /// Add a group with hash `h` and first row `row`, which
    /// [`find`](GroupTable::find) has just not found.
    fn insert(&mut self, h: u64, row: u32) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = h as usize & mask;
        while self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.place(slot, row, h)
    }

    /// Put a new group in the empty `slot`.
    fn place(&mut self, slot: usize, row: u32, h: u64) -> u32 {
        let g = self.first_rows.len() as u32;
        self.first_rows.push(row);
        self.hashes.push(h);
        self.slots[slot] = g + 1;
        if self.first_rows.len() * 2 > self.slots.len() {
            self.grow();
        }
        g
    }

    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![0u32; mask + 1];
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut slot = h as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = g as u32 + 1;
        }
        self.slots = slots;
    }
}

/// The distinct non-NULL keys of a batch: the build side of an existence
/// join (`EXISTS` / `NOT EXISTS` on key equality), which asks of a key only
/// whether it is there. One [`GroupTable`] without aggregate state, folded
/// in row order and probed with the key columns of another batch
/// ([`KeyCols::seeded_like`]), never added to by a probe.
pub struct KeySet<'a> {
    keys: &'a KeyCols<'a>,
    table: GroupTable,
    /// Per-block scratch: the rows' key hashes.
    hashes: Vec<u64>,
}

impl<'a> KeySet<'a> {
    pub fn new(keys: &'a KeyCols<'a>) -> KeySet<'a> {
        KeySet {
            keys,
            table: GroupTable::new(),
            hashes: Vec::new(),
        }
    }

    /// Add the keys of the rows of `block`. Blocks must come in ascending
    /// order. Rows with a NULL key component add no key: SQL equality never
    /// matches them.
    pub fn consume(&mut self, block: Range<usize>) {
        self.keys.hash_range(block.clone(), &mut self.hashes);
        let nullable = self.keys.nullable();
        for (i, &h) in block.zip(&self.hashes) {
            if !(nullable && self.keys.has_null(i)) {
                self.table.group_of(self.keys, i as u32, h);
            }
        }
    }

    /// Distinct keys held.
    pub fn distinct(&self) -> usize {
        self.table.first_rows.len()
    }

    /// Bytes held now: what the governor is charged as the set grows and
    /// what `EXPLAIN ANALYZE` reports. A function of the keys alone.
    pub fn bytes(&self) -> u64 {
        (self.distinct() * TABLE_BYTES_PER_GROUP) as u64
    }

    /// Append to `sel` the rows of `block` whose key is in the set
    /// (`keep_matched`) or is not; a key with a NULL component is in no
    /// set. `probe` must be seeded like the set's keys and `hashes[k]` be
    /// its hash of row `block.start + k`. Each row is one lookup-only walk
    /// of the table's slots, candidates compared across the two batches
    /// (invariant 6). Returns how many rows matched.
    pub fn select_into(
        &self,
        probe: &KeyCols<'_>,
        block: Range<usize>,
        hashes: &[u64],
        keep_matched: bool,
        sel: &mut Vec<u32>,
    ) -> u64 {
        let nullable = probe.nullable();
        let mut matches = 0;
        for (i, &h) in block.zip(hashes) {
            let matched = !(nullable && probe.has_null(i))
                && self
                    .table
                    .find(h, |first| self.keys.row_equals(first, probe, i))
                    .is_some();
            matches += u64::from(matched);
            if matched == keep_matched {
                sel.push(i as u32);
            }
        }
        matches
    }
}

/// Rows hashed per step of the serial whole-batch passes below: the hashes
/// of one step stay in cache until the table has consumed them.
const SERIAL_BLOCK: usize = 4096;

fn serial_blocks(rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = rows.end;
    rows.step_by(SERIAL_BLOCK)
        .map(move |lo| lo..(lo + SERIAL_BLOCK).min(end))
}

/// What [`group_sizes`] found.
pub struct GroupSizes {
    /// For each row, how many rows of the batch carry its key (itself
    /// included, so never 0).
    pub per_row: Vec<u32>,
    /// The size of each key group, in first-seen order.
    pub per_group: Vec<u32>,
}

/// How many rows of `batch` share each row's key over the columns
/// `key_idx`, under GROUP BY's equality (invariant 1): NULL groups with
/// NULL, as a `Key` built from the row's values would. One typed pass.
pub fn group_sizes(batch: &ColBatch, key_idx: &[usize]) -> GroupSizes {
    let keys = KeyCols::new(batch, key_idx);
    let mut table = GroupTable::new();
    let mut per_row = Vec::with_capacity(batch.len());
    let mut per_group: Vec<u32> = Vec::new();
    let mut hashes = Vec::new();
    for block in serial_blocks(0..batch.len()) {
        keys.hash_range(block.clone(), &mut hashes);
        for (i, &h) in block.zip(&hashes) {
            let g = table.group_of(&keys, i as u32, h);
            if g as usize == per_group.len() {
                per_group.push(0);
            }
            per_group[g as usize] += 1;
            per_row.push(g);
        }
    }
    for slot in &mut per_row {
        *slot = per_group[*slot as usize];
    }
    GroupSizes { per_row, per_group }
}

/// The number of distinct non-NULL values in column `col` of `batch`, by
/// the same equality, or `None` as soon as more than `cap` have been seen
/// (the rest of the column is then not read).
pub fn distinct_capped(batch: &ColBatch, col: usize, cap: usize) -> Option<usize> {
    let keys = KeyCols::new(batch, &[col]);
    let mut set = KeySet::new(&keys);
    for block in serial_blocks(0..batch.len()) {
        set.consume(block);
        if set.distinct() > cap {
            return None;
        }
    }
    Some(set.distinct())
}

/// Match the groups several batches were folded into — one GROUP BY per
/// branch of a `UNION ALL` — as one GROUP BY over the batches laid end to
/// end would: invariant 6's equality across batches, NULL with NULL.
/// `groups[b]` holds the first rows of batch `b`'s groups, in their order,
/// and their key hashes under `keys[b]`; all `keys` share one seed
/// ([`KeyCols::seeded_like`]). Returns each group's id in the union, per
/// batch; ids count groups in first-seen order, so a group is new exactly
/// when its id is the number of groups seen before it.
pub fn match_groups(keys: &[KeyCols<'_>], groups: &[(&[u32], &[u64])]) -> Vec<Vec<u32>> {
    let mut table = GroupTable::new();
    // Per union group, the (batch, first row) it was first seen at.
    let mut firsts: Vec<(usize, usize)> = Vec::new();
    let mut ids = Vec::with_capacity(groups.len());
    for (b, &(rows, hashes)) in groups.iter().enumerate() {
        let batch_ids = rows.iter().zip(hashes).map(|(&row, &h)| {
            let row = row as usize;
            // The first batch's groups are distinct already.
            let found = (b > 0)
                .then(|| {
                    table.find(h, |g| {
                        let (b0, row0) = firsts[g];
                        keys[b0].same_group(row0, &keys[b], row)
                    })
                })
                .flatten();
            found.unwrap_or_else(|| {
                firsts.push((b, row));
                table.insert(h, firsts.len() as u32 - 1)
            })
        });
        ids.push(batch_ids.collect());
    }
    ids
}

/// End of a posting chain: no next row.
const NO_ROW: u32 = u32::MAX;

/// Row-id postings of a batch's distinct non-NULL keys — the key index's
/// payload ([`crate::index`]). The groups are a `GroupTable`'s, in
/// first-row order; a group's rows are a chain through `next` from its
/// first row to `last[g]`, ascending because rows are folded in order.
/// Rows with a NULL key component are in no group, only counted.
///
/// The postings hold row ids, never key values: a key is hashed under the
/// postings' own seed and compared with the key columns at its group's
/// first row, so every call must pass the batch the postings were folded
/// over — or, for [`Postings::extended`], an extension of it whose old rows
/// hold the same values (their layout may differ: hashes and equality are
/// the value's, invariant 6).
#[derive(Clone)]
pub struct Postings {
    table: GroupTable,
    /// Per row: the next row of its group, or [`NO_ROW`] (the group's last
    /// row, or a NULL-key row).
    next: Vec<u32>,
    /// Per group: its last row and its size.
    last: Vec<u32>,
    sizes: Vec<u32>,
    null_rows: usize,
    k0: u64,
    k1: u64,
}

impl Postings {
    /// Postings over the key columns `key_idx` of `batch`, whose length
    /// must be below `u32::MAX`: one typed pass.
    pub fn build(batch: &ColBatch, key_idx: &[usize]) -> Postings {
        let (k0, k1) = new_seed();
        let mut postings = Postings {
            table: GroupTable::new(),
            next: Vec::new(),
            last: Vec::new(),
            sizes: Vec::new(),
            null_rows: 0,
            k0,
            k1,
        };
        postings.fold(batch, key_idx);
        postings
    }

    /// These postings, extended by the rows `batch` appends to the batch
    /// they were folded over: a copy of every vector, then the new rows
    /// folded in as [`build`](Postings::build) would have.
    pub fn extended(&self, batch: &ColBatch, key_idx: &[usize]) -> Postings {
        let mut postings = self.clone();
        postings.fold(batch, key_idx);
        postings
    }

    /// Fold in the rows of `batch` past the ones already held.
    fn fold(&mut self, batch: &ColBatch, key_idx: &[usize]) {
        let rows = self.next.len()..batch.len();
        let keys = KeyCols::seeded(batch, key_idx, self.k0, self.k1, rows.len());
        let nullable = keys.nullable();
        self.next.reserve_exact(rows.len());
        let mut hashes = Vec::new();
        for block in serial_blocks(rows) {
            keys.hash_range(block.clone(), &mut hashes);
            for (i, &h) in block.zip(&hashes) {
                self.next.push(NO_ROW);
                if nullable && keys.has_null(i) {
                    self.null_rows += 1;
                    continue;
                }
                let row = i as u32;
                let g = self.table.group_of(&keys, row, h) as usize;
                if g == self.last.len() {
                    self.last.push(row);
                    self.sizes.push(1);
                } else {
                    self.next[self.last[g] as usize] = row;
                    self.last[g] = row;
                    self.sizes[g] += 1;
                }
            }
        }
    }

    /// The group holding `key` (one value per key column, none NULL):
    /// hashed as [`KeyCols::hash_range`] hashes a row, compared with the
    /// group's first row under [`KeyValue`] equality (invariant 6).
    pub fn find(&self, batch: &ColBatch, key_idx: &[usize], key: &[KeyValue]) -> Option<u32> {
        let h = key.iter().fold(self.k0, |h, kv| {
            mix(h, canon_payload(canon_key(kv), self.k1), self.k1)
        });
        self.table.find(h, |first| {
            key_idx
                .iter()
                .zip(key)
                .all(|(&c, kv)| cell_canon(batch.col(c), first) == canon_key(kv))
        })
    }

    /// Group `g`'s rows, ascending.
    pub fn rows(&self, g: u32) -> PostingRows<'_> {
        PostingRows {
            next: &self.next,
            at: self.table.first_rows[g as usize],
        }
    }

    /// Number of groups: distinct non-NULL keys.
    pub fn groups(&self) -> usize {
        self.sizes.len()
    }

    /// Group `g`'s first row and size.
    pub fn group(&self, g: u32) -> (u32, u32) {
        (self.table.first_rows[g as usize], self.sizes[g as usize])
    }

    /// Rows in no group for a NULL key component.
    pub fn null_rows(&self) -> usize {
        self.null_rows
    }

    /// Bytes held, by capacity: the table, the chain, last rows and sizes.
    pub fn bytes(&self) -> u64 {
        let per_group = (self.last.capacity() + self.sizes.capacity()) * 4;
        (self.table.bytes() + self.next.capacity() * 4 + per_group) as u64
    }
}

/// One group's rows, ascending ([`Postings::rows`]).
pub struct PostingRows<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for PostingRows<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let row = self.at;
        if row == NO_ROW {
            return None;
        }
        self.at = self.next[row as usize];
        Some(row)
    }
}

/// One aggregate the kernel computes: `col` is the argument's column in
/// the batch (`None` for `COUNT(*)`).
#[derive(Debug, Clone, Copy)]
pub struct AggInput {
    pub func: AggFunc,
    pub col: Option<usize>,
    pub distinct: bool,
}

/// MIN or MAX over a typed column: the running best per group.
pub(crate) struct MinMax<'a, T> {
    vals: &'a [T],
    validity: Option<&'a Bitmap>,
    is_min: bool,
    best: Vec<T>,
    seen: Vec<bool>,
}

impl<T: Copy + PartialOrd + Default> MinMax<'_, T> {
    fn update(&mut self, rows: Range<usize>, gids: &[u32]) -> Option<()> {
        for (i, &g) in rows.zip(gids) {
            if self.validity.is_some_and(|bm| !bm.get(i)) {
                continue;
            }
            self.offer(g as usize, self.vals[i])?;
        }
        Some(())
    }

    /// Offer `v` to group `g`: it becomes the best when the group has none
    /// or it beats the best; returns whether it tied with the best instead
    /// (the first of equal candidates stays). `None` is a NaN on either
    /// side: the row path's error.
    #[inline]
    fn offer(&mut self, g: usize, v: T) -> Option<bool> {
        if !self.seen[g] {
            self.seen[g] = true;
            self.best[g] = v;
            return Some(false);
        }
        let ord = v.partial_cmp(&self.best[g])?;
        if if self.is_min {
            ord.is_lt()
        } else {
            ord.is_gt()
        } {
            self.best[g] = v;
        }
        Some(ord.is_eq())
    }

    /// Offer group `og`'s best in `other` to group `g`. A tie between two
    /// values `same` tells apart (`-0.0` and `0.0`) is `None`: which one
    /// came first is the rows' order, which a merge no longer has.
    fn merge_group(
        &mut self,
        g: usize,
        other: &MinMax<'_, T>,
        og: usize,
        same: fn(T, T) -> bool,
    ) -> Option<()> {
        if !other.seen[og] {
            return Some(());
        }
        let v = other.best[og];
        let tied = self.offer(g, v)?;
        (!tied || same(v, self.best[g])).then_some(())
    }

    fn finish(self, wrap: fn(Vec<T>) -> ColumnData) -> ColumnChunk {
        ColumnChunk {
            data: wrap(self.best),
            validity: Bitmap::from_flags(&self.seen),
        }
    }
}

pub(crate) enum NumSrc<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
}

/// Per-aggregate state, indexed by group id.
pub(crate) enum AggState<'a> {
    /// `COUNT(*)` (`col` absent) or `COUNT(col)`.
    Count {
        col: Option<&'a ColumnChunk>,
        counts: Vec<i64>,
    },
    /// `SUM` over an integer column.
    SumInt {
        vals: &'a [i64],
        validity: Option<&'a Bitmap>,
        sums: Vec<i64>,
        seen: Vec<bool>,
    },
    /// `SUM` over a float column, `AVG` over either: an exact sum boxed
    /// when the group meets its first non-NULL value.
    Exact {
        src: NumSrc<'a>,
        validity: Option<&'a Bitmap>,
        avg: bool,
        sums: Vec<Option<Box<ExactSum>>>,
        counts: Vec<i64>,
        boxed: usize,
    },
    MinMaxInt(MinMax<'a, i64>),
    MinMaxFloat(MinMax<'a, f64>),
    MinMaxDate(MinMax<'a, i32>),
    /// Everything else — `Any` and text arguments, DISTINCT aggregates,
    /// type errors waiting to happen: the row path's own accumulator per
    /// group, fed values read from the chunk.
    Generic {
        col: &'a ColumnChunk,
        func: AggFunc,
        accs: Vec<Accumulator>,
        distinct: Option<Vec<HashSet<KeyValue>>>,
        distinct_values: usize,
    },
}

impl<'a> AggState<'a> {
    fn new(spec: AggInput, batch: &'a ColBatch) -> AggState<'a> {
        let Some(c) = spec.col else {
            return AggState::Count {
                col: None,
                counts: Vec::new(),
            };
        };
        let col = batch.col(c);
        let validity = col.validity.as_ref();
        let min_max = |is_min| -> Option<AggState<'a>> {
            macro_rules! state {
                ($variant:ident, $vals:expr) => {
                    AggState::$variant(MinMax {
                        vals: $vals,
                        validity,
                        is_min,
                        best: Vec::new(),
                        seen: Vec::new(),
                    })
                };
            }
            Some(match &col.data {
                ColumnData::Int(xs) => state!(MinMaxInt, xs),
                ColumnData::Float(xs) => state!(MinMaxFloat, xs),
                ColumnData::Date(xs) => state!(MinMaxDate, xs),
                _ => return None,
            })
        };
        let exact = |src, avg| AggState::Exact {
            src,
            validity,
            avg,
            sums: Vec::new(),
            counts: Vec::new(),
            boxed: 0,
        };
        let typed = match (spec.distinct, spec.func, &col.data) {
            (true, ..) => None,
            (_, AggFunc::Count, _) => Some(AggState::Count {
                col: Some(col),
                counts: Vec::new(),
            }),
            (_, AggFunc::Sum, ColumnData::Int(xs)) => Some(AggState::SumInt {
                vals: xs,
                validity,
                sums: Vec::new(),
                seen: Vec::new(),
            }),
            (_, AggFunc::Sum, ColumnData::Float(xs)) => Some(exact(NumSrc::Float(xs), false)),
            (_, AggFunc::Avg, ColumnData::Int(xs)) => Some(exact(NumSrc::Int(xs), true)),
            (_, AggFunc::Avg, ColumnData::Float(xs)) => Some(exact(NumSrc::Float(xs), true)),
            (_, AggFunc::Min, _) => min_max(true),
            (_, AggFunc::Max, _) => min_max(false),
            _ => None,
        };
        typed.unwrap_or_else(|| AggState::Generic {
            col,
            func: spec.func,
            accs: Vec::new(),
            distinct: spec.distinct.then(Vec::new),
            distinct_values: 0,
        })
    }

    /// Make room for group ids below `groups`.
    fn grow(&mut self, groups: usize) {
        match self {
            AggState::Count { counts, .. } => counts.resize(groups, 0),
            AggState::SumInt { sums, seen, .. } => {
                sums.resize(groups, 0);
                seen.resize(groups, false);
            }
            AggState::Exact { sums, counts, .. } => {
                sums.resize_with(groups, || None);
                counts.resize(groups, 0);
            }
            AggState::MinMaxInt(m) => {
                m.best.resize(groups, 0);
                m.seen.resize(groups, false);
            }
            AggState::MinMaxFloat(m) => {
                m.best.resize(groups, 0.0);
                m.seen.resize(groups, false);
            }
            AggState::MinMaxDate(m) => {
                m.best.resize(groups, 0);
                m.seen.resize(groups, false);
            }
            AggState::Generic {
                func,
                accs,
                distinct,
                ..
            } => {
                accs.resize_with(groups, || Accumulator::new(*func));
                if let Some(sets) = distinct {
                    sets.resize_with(groups, HashSet::new);
                }
            }
        }
    }

    /// Fold row `rows.start + k` into group `gids[k]`. `None` is a
    /// value-level error (invariant 4).
    fn update(&mut self, rows: Range<usize>, gids: &[u32]) -> Option<()> {
        let pairs = || rows.clone().zip(gids).map(|(i, &g)| (i, g as usize));
        match self {
            AggState::Count { col, counts } => match col {
                Some(c) if c.validity.is_some() || matches!(c.data, ColumnData::Any(_)) => {
                    for (i, g) in pairs() {
                        counts[g] += i64::from(!c.is_null(i));
                    }
                }
                _ => {
                    for &g in gids {
                        counts[g as usize] += 1;
                    }
                }
            },
            AggState::SumInt {
                vals,
                validity,
                sums,
                seen,
            } => {
                for (i, g) in pairs() {
                    if validity.is_some_and(|bm| !bm.get(i)) {
                        continue;
                    }
                    sums[g] = sums[g].checked_add(vals[i])?;
                    seen[g] = true;
                }
            }
            AggState::Exact {
                src,
                validity,
                sums,
                counts,
                boxed,
                ..
            } => {
                for (i, g) in pairs() {
                    if validity.is_some_and(|bm| !bm.get(i)) {
                        continue;
                    }
                    let sum = sums[g].get_or_insert_with(|| {
                        *boxed += 1;
                        Box::new(ExactSum::new())
                    });
                    match src {
                        NumSrc::Int(xs) => sum.add_i64(xs[i]),
                        NumSrc::Float(xs) => sum.add(xs[i]),
                    }
                    counts[g] += 1;
                }
            }
            AggState::MinMaxInt(m) => m.update(rows, gids)?,
            AggState::MinMaxFloat(m) => m.update(rows, gids)?,
            AggState::MinMaxDate(m) => m.update(rows, gids)?,
            AggState::Generic {
                col,
                accs,
                distinct,
                distinct_values,
                ..
            } => {
                for (i, g) in pairs() {
                    let v = col.value_at(i);
                    if v.is_null() {
                        continue;
                    }
                    if let Some(sets) = distinct {
                        if !sets[g].insert(KeyValue::from(&v)) {
                            continue;
                        }
                        *distinct_values += 1;
                    }
                    accs[g].update(&v).ok()?;
                }
            }
        }
        Some(())
    }

    /// Fold group `og` of `other` — this aggregate over other rows of the
    /// batch — into group `g`, as one fold over both partials' rows would
    /// (invariant 3): counts and sums add, MIN/MAX offer their best. `None`
    /// is a value-level error (invariant 4), or two states that cannot
    /// merge: a DISTINCT aggregate's, or different kinds.
    fn merge_group(&mut self, g: usize, other: &mut AggState<'_>, og: usize) -> Option<()> {
        match (self, other) {
            (AggState::Count { counts, .. }, AggState::Count { counts: theirs, .. }) => {
                counts[g] += theirs[og];
            }
            (
                AggState::SumInt { sums, seen, .. },
                AggState::SumInt {
                    sums: theirs,
                    seen: seen_theirs,
                    ..
                },
            ) => {
                if seen_theirs[og] {
                    sums[g] = sums[g].checked_add(theirs[og])?;
                    seen[g] = true;
                }
            }
            (
                AggState::Exact {
                    sums,
                    counts,
                    boxed,
                    ..
                },
                AggState::Exact {
                    sums: theirs,
                    counts: counts_theirs,
                    ..
                },
            ) => {
                if let Some(sum) = theirs[og].take() {
                    match &mut sums[g] {
                        Some(mine) => mine.merge(&sum),
                        none => {
                            *none = Some(sum);
                            *boxed += 1;
                        }
                    }
                }
                counts[g] += counts_theirs[og];
            }
            (AggState::MinMaxInt(m), AggState::MinMaxInt(theirs)) => {
                m.merge_group(g, theirs, og, |a, b| a == b)?;
            }
            (AggState::MinMaxFloat(m), AggState::MinMaxFloat(theirs)) => {
                m.merge_group(g, theirs, og, |a, b| a.to_bits() == b.to_bits())?;
            }
            (AggState::MinMaxDate(m), AggState::MinMaxDate(theirs)) => {
                m.merge_group(g, theirs, og, |a, b| a == b)?;
            }
            (
                AggState::Generic {
                    accs,
                    distinct: None,
                    ..
                },
                AggState::Generic {
                    func,
                    accs: theirs,
                    distinct: None,
                    ..
                },
            ) => {
                let theirs = mem::replace(&mut theirs[og], Accumulator::new(*func));
                accs[g].merge_unordered(theirs).ok()?;
            }
            _ => return None,
        }
        Some(())
    }

    /// The aggregate's output column, one row per group.
    fn finish(self) -> ColumnChunk {
        let floats = |vals: Vec<f64>, valid: Vec<bool>| ColumnChunk {
            data: ColumnData::Float(vals),
            validity: Bitmap::from_flags(&valid),
        };
        match self {
            AggState::Count { counts, .. } => ColumnChunk {
                data: ColumnData::Int(counts),
                validity: None,
            },
            AggState::SumInt { sums, seen, .. } => ColumnChunk {
                data: ColumnData::Int(sums),
                validity: Bitmap::from_flags(&seen),
            },
            AggState::Exact {
                avg, sums, counts, ..
            } => {
                let valid = sums.iter().map(Option::is_some).collect();
                let vals = sums
                    .into_iter()
                    .zip(counts)
                    .map(|(sum, n)| match sum {
                        // One exact sum, one rounding, one division.
                        Some(mut s) if avg => s.to_f64() / n as f64,
                        Some(mut s) => s.to_f64(),
                        None => 0.0,
                    })
                    .collect();
                floats(vals, valid)
            }
            AggState::MinMaxInt(m) => m.finish(ColumnData::Int),
            AggState::MinMaxFloat(m) => m.finish(ColumnData::Float),
            AggState::MinMaxDate(m) => m.finish(ColumnData::Date),
            AggState::Generic { accs, .. } => {
                ColumnChunk::from_values(accs.into_iter().map(Accumulator::finish))
            }
        }
    }

    /// The state as one unfinished [`Accumulator`] per group — exactly what
    /// the row path would hold after the same rows, so that partials of one
    /// group merge ([`Accumulator::merge`]) as if one fold had seen them
    /// all. A float sum keeps its unrounded [`ExactSum`]; a sum that met no
    /// value is a fresh one, so that integers merged in stay integers.
    fn partials(self) -> Vec<Accumulator> {
        fn min_max<T>(m: MinMax<'_, T>, value: fn(T) -> Value) -> Vec<Accumulator> {
            let is_min = m.is_min;
            let best = m.best.into_iter().zip(m.seen);
            best.map(|(b, seen)| Accumulator::MinMax {
                best: seen.then(|| value(b)),
                is_min,
            })
            .collect()
        }
        match self {
            AggState::Count { counts, .. } => counts.into_iter().map(Accumulator::Count).collect(),
            AggState::SumInt { sums, seen, .. } => sums
                .into_iter()
                .zip(seen)
                .map(|(sum, seen)| Accumulator::SumInt { sum, seen })
                .collect(),
            AggState::Exact {
                avg, sums, counts, ..
            } => sums
                .into_iter()
                .zip(counts)
                .map(|(sum, count)| match (avg, sum) {
                    (true, sum) => Accumulator::Avg {
                        sum: sum.unwrap_or_default(),
                        count,
                    },
                    (false, Some(sum)) => Accumulator::SumFloat { sum, seen: true },
                    (false, None) => Accumulator::new(AggFunc::Sum),
                })
                .collect(),
            AggState::MinMaxInt(m) => min_max(m, Value::Int),
            AggState::MinMaxFloat(m) => min_max(m, Value::Float),
            AggState::MinMaxDate(m) => min_max(m, Value::Date),
            AggState::Generic { accs, .. } => accs,
        }
    }

    /// Bytes of state one group costs.
    fn group_bytes(&self) -> usize {
        match self {
            AggState::Count { .. } => 8,
            AggState::SumInt { .. } => 8 + 1,
            AggState::Exact { .. } => size_of::<Option<Box<ExactSum>>>() + 8,
            AggState::MinMaxInt(_) | AggState::MinMaxFloat(_) => 8 + 1,
            AggState::MinMaxDate(_) => 4 + 1,
            AggState::Generic { distinct, .. } => {
                size_of::<Accumulator>()
                    + distinct
                        .as_ref()
                        .map_or(0, |_| size_of::<HashSet<KeyValue>>())
            }
        }
    }

    /// Bytes of state allocated per value rather than per group.
    fn heap_bytes(&self) -> usize {
        match self {
            AggState::Exact { boxed, .. } => boxed * size_of::<ExactSum>(),
            AggState::Generic {
                distinct_values, ..
            } => distinct_values * (size_of::<KeyValue>() + 8),
            _ => 0,
        }
    }
}

/// What a partial's aggregate states finish into ([`Partition::finish`]):
/// the operator's output column, or — for a GROUP BY folded branch by
/// branch, whose groups merge across branches before they finish — one
/// partial [`Accumulator`] per group.
pub(crate) trait AggOutput {
    fn from_state(state: AggState<'_>) -> Self;
}

impl AggOutput for ColumnChunk {
    fn from_state(state: AggState<'_>) -> Self {
        state.finish()
    }
}

impl AggOutput for Vec<Accumulator> {
    fn from_state(state: AggState<'_>) -> Self {
        state.partials()
    }
}

/// What a finished partial hands back: its groups' first rows (ascending)
/// and one output per aggregate, both in group-id order.
pub(crate) struct PartOut<T> {
    pub first_rows: Vec<u32>,
    /// Each group's key hash.
    pub hashes: Vec<u64>,
    pub aggs: Vec<T>,
}

/// The group table and aggregate state of the rows one worker folded — all
/// of them in a one-worker run. A group's first row is the first of those
/// rows that holds its key.
pub struct Partition<'a> {
    keys: &'a KeyCols<'a>,
    table: GroupTable,
    aggs: Vec<AggState<'a>>,
    /// Bytes one group costs: table entry, its key values in the output,
    /// its slice of every state vector.
    group_bytes: usize,
    /// Per-block scratch: the rows' key hashes and group ids.
    hashes: Vec<u64>,
    gids: Vec<u32>,
}

impl<'a> Partition<'a> {
    pub fn new(keys: &'a KeyCols<'a>, batch: &'a ColBatch, aggs: &[AggInput]) -> Partition<'a> {
        let aggs: Vec<AggState<'a>> = aggs.iter().map(|&a| AggState::new(a, batch)).collect();
        let group_bytes = TABLE_BYTES_PER_GROUP
            + keys.cols.iter().map(|c| c.chunk.row_bytes()).sum::<usize>()
            + aggs.iter().map(AggState::group_bytes).sum::<usize>();
        let mut part = Partition {
            keys,
            table: GroupTable::new(),
            aggs,
            group_bytes,
            hashes: Vec::new(),
            gids: Vec::new(),
        };
        if keys.is_empty() {
            // A global aggregate is one group, present even over no rows:
            // the empty key, which hashes to the seed and which every row
            // holds, placed at row 0 in every partial so that partials of
            // it merge like any other group's.
            part.table.insert(keys.k0, 0);
            part.grow();
        }
        part
    }

    /// Groups held.
    pub fn groups(&self) -> usize {
        self.table.first_rows.len()
    }

    /// Fold the rows of `block` into their groups, in row order. Blocks
    /// must come in ascending order. `None` is a value-level error
    /// (invariant 4).
    pub fn consume(&mut self, block: Range<usize>) -> Option<()> {
        self.gids.clear();
        if self.keys.is_empty() {
            // Every row is in the one group; no key to hash.
            self.gids.resize(block.len(), 0);
        } else {
            self.keys.hash_range(block.clone(), &mut self.hashes);
            for (i, &h) in block.clone().zip(&self.hashes) {
                self.gids.push(self.table.group_of(self.keys, i as u32, h));
            }
            self.grow();
        }
        for agg in &mut self.aggs {
            agg.update(block.clone(), &self.gids)?;
        }
        Some(())
    }

    /// Make room in every state for the table's groups.
    fn grow(&mut self) {
        let groups = self.table.first_rows.len();
        self.aggs.iter_mut().for_each(|a| a.grow(groups));
    }

    /// Fold `others` into this partial (invariant 3). All are over the same
    /// key columns, batch and aggregates, no row was folded twice, and this
    /// partial holds the batch's first rows: every row of the others comes
    /// after all of its own. Their groups are taken in ascending order of
    /// their first rows — a k-way merge of the partials' ascending lists —
    /// so a group new here is added at its first row in the batch and the
    /// groups stay in first-seen order. A global aggregate's one group sits
    /// at row 0 in every partial and merges into this one's. `None` is a
    /// value-level error (invariant 4).
    pub fn merge(&mut self, mut others: Vec<Partition<'a>>) -> Option<()> {
        let mut next = vec![0; others.len()];
        loop {
            let mut min: Option<(u32, usize)> = None;
            for (p, other) in others.iter().enumerate() {
                if let Some(&row) = other.table.first_rows.get(next[p]) {
                    if min.is_none_or(|(at, _)| row < at) {
                        min = Some((row, p));
                    }
                }
            }
            let Some((row, p)) = min else {
                return Some(());
            };
            let (other, og) = (&mut others[p], next[p]);
            next[p] += 1;
            let known = self.table.first_rows.len();
            let g = self.table.group_of(self.keys, row, other.table.hashes[og]) as usize;
            if g == known {
                self.grow();
            }
            for (mine, theirs) in self.aggs.iter_mut().zip(&mut other.aggs) {
                mine.merge_group(g, theirs, og)?;
            }
        }
    }

    /// Bytes held now: what the governor is charged as the partial grows
    /// and what `EXPLAIN ANALYZE` reports (invariant 5).
    pub fn bytes(&self) -> u64 {
        let heap: usize = self.aggs.iter().map(AggState::heap_bytes).sum();
        (self.groups() * self.group_bytes + heap) as u64
    }

    pub(crate) fn finish<T: AggOutput>(self) -> PartOut<T> {
        PartOut {
            first_rows: self.table.first_rows,
            hashes: self.table.hashes,
            aggs: self.aggs.into_iter().map(T::from_state).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};
    use crate::table::Row;
    use crate::value::Key;
    use std::collections::HashMap;

    fn batch(tys: &[DataType], rows: Vec<Row>) -> ColBatch {
        let schema = Schema::new(
            tys.iter()
                .enumerate()
                .map(|(i, &ty)| Column::bare(&format!("c{i}"), ty))
                .collect(),
        );
        ColBatch::from_rows(&schema, rows)
    }

    /// Group ids of every row of `b` keyed on all its columns, serially.
    fn group_ids(b: &ColBatch) -> Vec<u32> {
        let idx: Vec<usize> = (0..b.width()).collect();
        let keys = KeyCols::new(b, &idx);
        let mut hashes = Vec::new();
        keys.hash_range(0..b.len(), &mut hashes);
        let mut table = GroupTable::new();
        (0..b.len())
            .map(|i| table.group_of(&keys, i as u32, hashes[i]))
            .collect()
    }

    /// The same through `Key`/`KeyValue`: the definition of invariant 1.
    fn reference_ids(b: &ColBatch) -> Vec<u32> {
        let mut seen: HashMap<Key, u32> = HashMap::new();
        b.rows()
            .iter()
            .map(|row| {
                let next = seen.len() as u32;
                *seen.entry(Key::from_values(row)).or_insert(next)
            })
            .collect()
    }

    #[test]
    fn key_equality_is_key_values() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let floats = [
            0.0,
            -0.0,
            2.0,
            2.5,
            -2.0,
            f64::NAN,
            nan2,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9.3e18,
            -9.3e18,
            (1u64 << 53) as f64,
            f64::MIN_POSITIVE,
        ];
        // A typed float column (with a NULL), each value twice.
        let rows: Vec<Row> = floats
            .iter()
            .chain(&floats)
            .map(|&f| vec![Value::Float(f)])
            .chain([vec![Value::Null], vec![Value::Null]])
            .collect();
        let b = batch(&[DataType::Float], rows);
        assert!(matches!(b.col(0).data, ColumnData::Float(_)));
        assert_eq!(group_ids(&b), reference_ids(&b));

        // An `Any` column mixing every type, where Int(2) must meet
        // Float(2.0) and Int(5), Date(5), Bool(true), Int(1) stay apart.
        let mixed = vec![
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Int(5),
            Value::Date(5),
            Value::Bool(true),
            Value::Int(1),
            Value::str("5"),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(nan2),
            Value::Null,
            Value::str("5"),
            Value::Float(2.5),
        ];
        let b = batch(
            &[DataType::Any],
            mixed.into_iter().map(|v| vec![v]).collect(),
        );
        assert!(matches!(b.col(0).data, ColumnData::Any(_)));
        let ids = group_ids(&b);
        assert_eq!(ids, reference_ids(&b));
        assert_eq!(ids[0], ids[1], "Int(2) and Float(2.0) are one key");
        assert_eq!(ids[2], ids[3], "-0.0 and Int(0) are one key");
        assert_ne!(ids[10], ids[11], "NaNs group by bits");
    }

    #[test]
    fn text_keys_compare_by_string_across_dictionaries() {
        // Two chunks, two dictionaries coding the same strings differently.
        let a = batch(
            &[DataType::Text],
            vec![
                vec![Value::str("x")],
                vec![Value::str("y")],
                vec![Value::Null],
            ],
        );
        let b = batch(
            &[DataType::Text],
            vec![
                vec![Value::str("y")],
                vec![Value::str("z")],
                vec![Value::str("x")],
            ],
        );
        // Hashes agree across the two dictionaries under one seed.
        let (ka, mut kb) = (KeyCols::new(&a, &[0]), KeyCols::new(&b, &[0]));
        (kb.k0, kb.k1) = (ka.k0, ka.k1);
        kb.cols[0].code_hashes = None; // hash per row under the shared seed
        let (mut ha, mut hb) = (Vec::new(), Vec::new());
        ka.hash_range(0..3, &mut ha);
        kb.hash_range(0..3, &mut hb);
        assert_eq!(ha[0], hb[2], "'x' hashes alike");
        assert_eq!(ha[1], hb[0], "'y' hashes alike");
        // And the concatenation groups by string.
        let u = a.concat(&b);
        assert_eq!(group_ids(&u), reference_ids(&u));
        assert_eq!(group_ids(&u), vec![0, 1, 2, 1, 3, 0]);
    }

    /// Which rows of `probe` find their key (all columns) among `build`'s,
    /// through the kernel, the build folded in blocks of `block` rows.
    fn semi_rows(build: &ColBatch, probe: &ColBatch, block: usize) -> Vec<u32> {
        let idx: Vec<usize> = (0..build.width()).collect();
        let keys = KeyCols::new(build, &idx);
        let mut set = KeySet::new(&keys);
        for lo in (0..build.len()).step_by(block) {
            set.consume(lo..build.len().min(lo + block));
        }
        let mut hashes = Vec::new();
        let probe_keys = keys.seeded_like(probe, &idx);
        probe_keys.hash_range(0..probe.len(), &mut hashes);
        let mut sel = Vec::new();
        let matched = set.select_into(&probe_keys, 0..probe.len(), &hashes, true, &mut sel);
        assert_eq!(matched as usize, sel.len());
        sel
    }

    /// The same through `Key`/`KeyValue`: the definition of invariant 6.
    fn reference_semi_rows(build: &ColBatch, probe: &ColBatch) -> Vec<u32> {
        let keys: HashSet<Key> = build
            .rows()
            .iter()
            .map(|row| Key::from_values(row))
            .filter(|k| !k.has_null())
            .collect();
        (0..probe.len() as u32)
            .filter(|&i| keys.contains(&Key::from_values(&probe.rows()[i as usize])))
            .collect()
    }

    #[test]
    fn cross_batch_equality_is_key_values() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let cells = [
            Value::Int(0),
            Value::Float(-0.0),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(nan2),
            Value::Int(1 << 53),
            Value::Float((1u64 << 53) as f64),
            Value::Float(9.3e18),
            Value::Date(2),
            Value::Bool(true),
            Value::Int(1),
            Value::str("2"),
            Value::str(""),
            Value::Null,
        ];
        // Every typed layout holds the cells of its type plus the NULL;
        // the `Any` one holds them all.
        let column = |ty: DataType| {
            let fits = |v: &Value| {
                matches!(
                    (ty, v),
                    (DataType::Any, _)
                        | (_, Value::Null)
                        | (DataType::Integer, Value::Int(_))
                        | (DataType::Float, Value::Float(_))
                        | (DataType::Text, Value::Str(_))
                        | (DataType::Date, Value::Date(_))
                        | (DataType::Boolean, Value::Bool(_))
                )
            };
            let rows = cells.iter().filter(|v| fits(v)).cloned();
            batch(&[ty], rows.map(|v| vec![v]).collect())
        };
        let layouts = [
            DataType::Integer,
            DataType::Float,
            DataType::Text,
            DataType::Date,
            DataType::Boolean,
            DataType::Any,
        ]
        .map(column);
        assert!(matches!(layouts[0].col(0).data, ColumnData::Int(_)));
        assert!(matches!(layouts[5].col(0).data, ColumnData::Any(_)));
        for build in &layouts {
            for probe in &layouts {
                for block in [1, 3, 64] {
                    assert_eq!(
                        semi_rows(build, probe, block),
                        reference_semi_rows(build, probe),
                        "{:?} probed by {:?}",
                        build.col(0).data,
                        probe.col(0).data
                    );
                }
            }
        }
        // Composite keys: a NULL in any component matches nothing, and a
        // placeholder under a cleared validity bit is not a value.
        let build = batch(
            &[DataType::Integer, DataType::Text],
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(0), Value::Null],
                vec![Value::Null, Value::str("b")],
            ],
        );
        let probe = batch(
            &[DataType::Float, DataType::Text],
            vec![
                vec![Value::Float(1.0), Value::str("a")],
                vec![Value::Float(0.0), Value::Null],
                vec![Value::Float(0.0), Value::str("")],
                vec![Value::Null, Value::str("b")],
                vec![Value::Float(1.0), Value::str("b")],
            ],
        );
        assert_eq!(semi_rows(&build, &probe, 2), vec![0]);
        assert_eq!(reference_semi_rows(&build, &probe), vec![0]);
    }

    #[test]
    fn group_sizes_and_distinct_counts_are_key_values() {
        let rows: Vec<Row> = (0..9000)
            .map(|i| {
                vec![
                    if i % 50 == 7 {
                        Value::Null
                    } else {
                        Value::Int(i % 4000)
                    },
                    Value::str(format!("s{}", i % 2)),
                ]
            })
            .collect();
        let b = batch(&[DataType::Integer, DataType::Text], rows);
        // Sizes through `Key`: NULL groups with NULL.
        let mut counts: HashMap<Key, u32> = HashMap::new();
        for row in b.rows() {
            *counts.entry(Key::from_values(row)).or_insert(0) += 1;
        }
        let sizes = group_sizes(&b, &[0, 1]);
        let expected: Vec<u32> = b
            .rows()
            .iter()
            .map(|row| counts[&Key::from_values(row)])
            .collect();
        assert_eq!(sizes.per_row, expected);
        assert_eq!(sizes.per_group.len(), counts.len());
        assert_eq!(sizes.per_group.iter().sum::<u32>(), 9000);
        // Distinct non-NULL values, exact up to the cap and `None` past it.
        let distinct: HashSet<Key> = b
            .rows()
            .iter()
            .map(|row| Key::from_values(&row[..1]))
            .filter(|k| !k.has_null())
            .collect();
        assert_eq!(distinct_capped(&b, 0, distinct.len()), Some(distinct.len()));
        assert_eq!(distinct_capped(&b, 0, distinct.len() - 1), None);
        assert_eq!(distinct_capped(&b, 1, 2), Some(2));
        let empty = batch(&[DataType::Integer], vec![]);
        assert_eq!(distinct_capped(&empty, 0, 0), Some(0));
        assert!(group_sizes(&empty, &[0]).per_row.is_empty());
    }

    #[test]
    fn table_grows_and_keeps_first_seen_ids() {
        let rows: Vec<Row> = (0..5000)
            .map(|i| vec![Value::Int(i % 1700), Value::str(format!("s{}", i % 3))])
            .collect();
        let b = batch(&[DataType::Integer, DataType::Text], rows);
        assert_eq!(group_ids(&b), reference_ids(&b));
    }

    /// `aggs` over `b`, folded by one partial, and by a first partial over
    /// the first `head` rows merged with two more over alternating blocks
    /// of `block` rows after it — workers claiming morsels. `None` where
    /// the kernel asks for a replay.
    fn fold_one_and_merged<'a>(
        b: &'a ColBatch,
        keys: &'a KeyCols<'a>,
        aggs: &[AggInput],
        (head, block): (usize, usize),
    ) -> [Option<PartOut<ColumnChunk>>; 2] {
        let mut one = Partition::new(keys, b, aggs);
        let one = one.consume(0..b.len()).map(|()| one.finish());
        let mut first = Partition::new(keys, b, aggs);
        first.consume(0..head).unwrap();
        let mut others = [Partition::new(keys, b, aggs), Partition::new(keys, b, aggs)];
        for (k, lo) in (head..b.len()).step_by(block).enumerate() {
            others[k % 2].consume(lo..b.len().min(lo + block)).unwrap();
        }
        let merged = first.merge(others.into()).map(|()| first.finish());
        [one, merged]
    }

    #[test]
    fn partitions_cover_every_group_once() {
        // Keys 0..99 in the first partial's rows, then keys whose first
        // rows fall in either other partial's blocks.
        let rows: Vec<Row> = (0..3000)
            .map(|i| {
                vec![
                    Value::Int(if i < 100 { i } else { i * 7 % 1000 }),
                    Value::Int(i),
                ]
            })
            .collect();
        let b = batch(&[DataType::Integer, DataType::Integer], rows);
        let aggs =
            [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max].map(|func| AggInput {
                func,
                col: (func != AggFunc::Count).then_some(1),
                distinct: false,
            });
        // Keyed on the first column, and without key columns: one group.
        for (key_idx, groups) in [(&[0][..], 1000), (&[], 1)] {
            let keys = KeyCols::new(&b, key_idx);
            let [Some(one), Some(merged)] = fold_one_and_merged(&b, &keys, &aggs, (100, 64)) else {
                panic!("integers fold and merge");
            };
            assert_eq!(merged.first_rows.len(), groups);
            assert_eq!(merged.first_rows, one.first_rows);
            assert_eq!(merged.hashes, one.hashes);
            for (m, o) in merged.aggs.iter().zip(&one.aggs) {
                let values =
                    |c: &ColumnChunk| (0..c.len()).map(|i| c.value_at(i)).collect::<Vec<_>>();
                assert_eq!(values(m), values(o));
                assert_eq!(m.len(), groups);
            }
        }
    }

    #[test]
    fn value_errors_ask_for_replay() {
        let b = batch(
            &[DataType::Integer, DataType::Integer, DataType::Float],
            vec![
                vec![Value::Int(1), Value::Int(i64::MAX), Value::Float(1.0)],
                vec![Value::Int(1), Value::Int(1), Value::Float(f64::NAN)],
            ],
        );
        let keys = KeyCols::new(&b, &[0]);
        for (func, col) in [(AggFunc::Sum, 1), (AggFunc::Min, 2)] {
            let aggs = [AggInput {
                func,
                col: Some(col),
                distinct: false,
            }];
            let mut part = Partition::new(&keys, &b, &aggs);
            assert!(part.consume(0..2).is_none());
        }
        // A NaN met only in a merge, and a tie between `-0.0` and `0.0`
        // whose first the merge cannot tell.
        for (x, y) in [(1.0, f64::NAN), (-0.0, 0.0), (0.0, -0.0)] {
            let b = batch(
                &[DataType::Integer, DataType::Float],
                vec![
                    vec![Value::Int(1), Value::Float(x)],
                    vec![Value::Int(1), Value::Float(y)],
                ],
            );
            let keys = KeyCols::new(&b, &[0]);
            for func in [AggFunc::Min, AggFunc::Max] {
                let aggs = [AggInput {
                    func,
                    col: Some(1),
                    distinct: false,
                }];
                let [one, merged] = fold_one_and_merged(&b, &keys, &aggs, (1, 1));
                assert_eq!(one.is_some(), !x.is_nan() && !y.is_nan());
                assert!(merged.is_none());
            }
        }
    }
}
