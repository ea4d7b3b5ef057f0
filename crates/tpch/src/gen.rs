//! Deterministic TPC-H-style data generator (the `dbgen` substitute).
//!
//! Row counts follow the TPC-H scale-factor rules (customer = 150 000 × SF,
//! orders = 10 × customer, an average of four lineitems per order, …) and
//! value distributions approximate the specification closely enough for the
//! benchmark queries: dates span 1992-01-01 .. 1998-08-02, `l_shipdate` is
//! 1–121 days after the order date, discounts are 0.00–0.10, market
//! segments and ship modes use the standard vocabularies. Free-text comment
//! columns are shortened to keep the in-memory footprint low; no benchmark
//! query reads them.
//!
//! Tables are generated column-at-a-time: every `fill_*` appends to one
//! typed vector per column and hands the set to [`Table::from_columns`]; no
//! tuple is ever boxed into a row of `Value`s. Text whose vocabulary is
//! known before the first row (flags, modes, priorities, segments, part
//! types, containers, clerks, the 144 comment phrases) is written as codes
//! against a ready-made dictionary; text formatted per row (names,
//! addresses, phones) is written into one reused buffer and interned from
//! there.
//!
//! Generation is deterministic for a given seed regardless of thread count:
//! orders/lineitems are produced in fixed chunks, each chunk seeded
//! independently, and the chunks' column sets are laid end to end in chunk
//! order by [`ColumnChunk::concat`] (std scoped threads). The order of RNG
//! draws is part of the format — `tests/load_golden.rs` pins the data.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::rng::StdRng;

use conquer_engine::{ColumnChunk, Database, Table, TextDict};
use conquer_sql::dates::ymd_to_days;

use crate::schema::create_tables;

/// The standard market segments.
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
/// The standard order priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
/// The standard ship modes.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const SHIP_INSTRUCTS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const NATION_NAMES: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];
const REGION_NAMES: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
/// nation -> region mapping from the TPC-H specification.
const NATION_REGION: [i64; 25] = [
    0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1,
];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// TPC-H scale factor; 1.0 is the standard 1 GB database
    /// (≈ 8.6 million tuples). The paper's 100 MB–2 GB range maps to
    /// 0.1–2.0; this reproduction typically uses 0.008–0.16.
    pub scale_factor: f64,
    /// RNG seed; identical seeds give identical databases.
    pub seed: u64,
    /// Number of generator threads for the large tables.
    pub threads: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            scale_factor: 0.01,
            seed: 42,
            threads: 4,
        }
    }
}

impl GenConfig {
    pub fn customers(&self) -> usize {
        ((150_000.0 * self.scale_factor).round() as usize).max(10)
    }

    pub fn orders(&self) -> usize {
        self.customers() * 10
    }

    pub fn suppliers(&self) -> usize {
        ((10_000.0 * self.scale_factor).round() as usize).max(5)
    }

    pub fn parts(&self) -> usize {
        ((200_000.0 * self.scale_factor).round() as usize).max(20)
    }
}

/// Date bounds of the TPC-H universe.
pub fn start_date() -> i32 {
    ymd_to_days(1992, 1, 1).expect("valid date")
}

pub fn end_order_date() -> i32 {
    ymd_to_days(1998, 8, 2).expect("valid date")
}

fn money(rng: &mut StdRng, lo_cents: i64, hi_cents: i64) -> f64 {
    rng.gen_range(lo_cents..=hi_cents) as f64 / 100.0
}

/// A dictionary holding exactly `strings`, so that the code of the `i`-th
/// is `i` and a generator writes codes without looking anything up.
fn vocabulary<S: AsRef<str>>(strings: impl IntoIterator<Item = S>) -> Arc<TextDict> {
    let mut dict = TextDict::new();
    for (code, s) in strings.into_iter().enumerate() {
        let got = dict.intern(s.as_ref());
        assert_eq!(got as usize, code, "vocabulary entries are distinct");
    }
    Arc::new(dict)
}

const COMMENT_WORDS: [&str; 12] = [
    "furiously",
    "quick",
    "pending",
    "final",
    "ironic",
    "even",
    "bold",
    "regular",
    "express",
    "silent",
    "blithe",
    "careful",
];

/// The 144 phrases a comment column draws from, in [`short_text`]'s codes.
fn comment_vocabulary() -> Arc<TextDict> {
    vocabulary(COMMENT_WORDS.iter().flat_map(|a| {
        COMMENT_WORDS
            .iter()
            .map(move |b| format!("{a} {b} deposits"))
    }))
}

/// A comment, as its code in [`comment_vocabulary`].
fn short_text(rng: &mut StdRng) -> u32 {
    let a = rng.gen_range(0..COMMENT_WORDS.len());
    let b = rng.gen_range(0..COMMENT_WORDS.len());
    (a * COMMENT_WORDS.len() + b) as u32
}

/// A text column whose values are formatted per row: each is written into
/// one reused buffer and interned from there, so a repeated value costs no
/// allocation and a new one exactly its dictionary entry.
#[derive(Default)]
struct TextColumn {
    codes: Vec<u32>,
    dict: TextDict,
    buf: String,
}

impl TextColumn {
    fn push(&mut self, value: std::fmt::Arguments<'_>) {
        self.buf.clear();
        self.buf
            .write_fmt(value)
            .expect("formatting into a String cannot fail");
        self.codes.push(self.dict.intern(self.buf.as_str()));
    }

    fn push_phone(&mut self, rng: &mut StdRng, nation: i64) {
        let (a, b) = (rng.gen_range(100..1000), rng.gen_range(100..1000));
        let c = rng.gen_range(1000..10000);
        self.push(format_args!("{}-{a:03}-{b:03}-{c:04}", 10 + nation));
    }

    fn finish(self) -> ColumnChunk {
        ColumnChunk::text(self.codes, Arc::new(self.dict))
    }
}

/// Replace the empty table `name` (from [`create_tables`]) by one holding
/// `columns`, which follow its schema's order and types.
fn load(db: &Database, name: &str, columns: Vec<ColumnChunk>) {
    let empty = db.table(name).expect("created by create_tables");
    let schema = &empty.schema().columns;
    assert_eq!(
        schema.len(),
        columns.len(),
        "one chunk per column of {name}"
    );
    let columns = schema
        .iter()
        .zip(columns)
        .map(|(c, chunk)| (c.name.as_str(), c.ty, chunk))
        .collect();
    let table = Table::from_columns(name, columns).expect("generated columns fit the schema");
    db.register(table).expect("register in-memory table");
}

/// Generate a complete, *consistent* TPC-H database at the given scale.
pub fn generate_database(config: &GenConfig) -> Database {
    let db = Database::new();
    create_tables(&db);
    let comments = comment_vocabulary();
    fill_region_nation(&db);
    fill_supplier(&db, config, &comments);
    fill_part_partsupp(&db, config, &comments);
    fill_customer(&db, config, &comments);
    fill_orders_lineitem(&db, config, &comments);
    db
}

fn fill_region_nation(db: &Database) {
    let codes = |n: usize| (0..n as u32).collect::<Vec<u32>>();
    let keys = |n: usize| ColumnChunk::ints((0..n as i64).collect());
    let constant = |n: usize, s: &str| ColumnChunk::text(vec![0; n], vocabulary([s]));

    let n = REGION_NAMES.len();
    load(
        db,
        "region",
        vec![
            keys(n),
            ColumnChunk::text(codes(n), vocabulary(REGION_NAMES)),
            constant(n, "regional comment"),
        ],
    );
    let n = NATION_NAMES.len();
    load(
        db,
        "nation",
        vec![
            keys(n),
            ColumnChunk::text(codes(n), vocabulary(NATION_NAMES)),
            ColumnChunk::ints(NATION_REGION.to_vec()),
            constant(n, "national comment"),
        ],
    );
}

fn fill_supplier(db: &Database, config: &GenConfig, comments: &Arc<TextDict>) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x501);
    let n = config.suppliers();
    let (mut key, mut nationkey) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut acctbal, mut comment) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut name, mut address, mut phone) = <(TextColumn, TextColumn, TextColumn)>::default();
    for sk in 1..=n as i64 {
        let nation = rng.gen_range(0..25);
        key.push(sk);
        name.push(format_args!("Supplier#{sk:09}"));
        address.push(format_args!("addr-{}", rng.gen_range(0..100000)));
        nationkey.push(nation);
        phone.push_phone(&mut rng, nation);
        acctbal.push(money(&mut rng, -99999, 999999));
        comment.push(short_text(&mut rng));
    }
    load(
        db,
        "supplier",
        vec![
            ColumnChunk::ints(key),
            name.finish(),
            address.finish(),
            ColumnChunk::ints(nationkey),
            phone.finish(),
            ColumnChunk::floats(acctbal),
            ColumnChunk::text(comment, Arc::clone(comments)),
        ],
    );
}

fn fill_part_partsupp(db: &Database, config: &GenConfig, comments: &Arc<TextDict>) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9a27);
    let n_parts = config.parts() as i64;
    let n_suppliers = config.suppliers() as i64;

    const TYPES: [&str; 6] = [
        "STANDARD ANODIZED TIN",
        "SMALL PLATED COPPER",
        "MEDIUM POLISHED BRASS",
        "LARGE BURNISHED STEEL",
        "ECONOMY BRUSHED NICKEL",
        "PROMO POLISHED TIN",
    ];
    const CONTAINERS: [&str; 5] = ["SM CASE", "MED BOX", "LG DRUM", "JUMBO JAR", "WRAP PKG"];
    const COLORS: [&str; 8] = [
        "green", "blue", "red", "ivory", "salmon", "peach", "khaki", "linen",
    ];
    let names = vocabulary(COLORS.iter().map(|color| format!("{color} widget")));
    let mfgrs = vocabulary((1..=5).map(|m| format!("Manufacturer#{m}")));
    let brands = vocabulary((1..=5).flat_map(|a| (1..=5).map(move |b| format!("Brand#{a}{b}"))));

    let n = n_parts as usize;
    let (mut p_key, mut p_size, mut p_price) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let [mut p_name, mut p_mfgr, mut p_brand, mut p_type, mut p_container, mut p_comment] =
        [(); 6].map(|()| Vec::<u32>::with_capacity(n));
    let (mut ps_part, mut ps_supp, mut ps_qty) = (
        Vec::with_capacity(4 * n),
        Vec::with_capacity(4 * n),
        Vec::with_capacity(4 * n),
    );
    let (mut ps_cost, mut ps_comment) = (Vec::with_capacity(4 * n), Vec::with_capacity(4 * n));
    for pk in 1..=n_parts {
        p_key.push(pk);
        p_name.push(rng.gen_range(0..COLORS.len()) as u32);
        p_mfgr.push(rng.gen_range(1..=5u32) - 1);
        let (a, b) = (rng.gen_range(1..=5u32), rng.gen_range(1..=5u32));
        p_brand.push((a - 1) * 5 + (b - 1));
        p_type.push(rng.gen_range(0..TYPES.len()) as u32);
        p_size.push(rng.gen_range(1..=50i64));
        p_container.push(rng.gen_range(0..CONTAINERS.len()) as u32);
        p_price.push(money(&mut rng, 90000, 200000));
        p_comment.push(short_text(&mut rng));
        // Four suppliers per part, as in the specification. The stride
        // keeps the four (pk, sk) pairs distinct so the composite key holds.
        let stride = (n_suppliers / 4).max(1);
        for s in 0..4 {
            ps_part.push(pk);
            ps_supp.push((pk + s * stride) % n_suppliers + 1);
            ps_qty.push(rng.gen_range(1..=9999i64));
            ps_cost.push(money(&mut rng, 100, 100000));
            ps_comment.push(short_text(&mut rng));
        }
    }
    load(
        db,
        "part",
        vec![
            ColumnChunk::ints(p_key),
            ColumnChunk::text(p_name, names),
            ColumnChunk::text(p_mfgr, mfgrs),
            ColumnChunk::text(p_brand, brands),
            ColumnChunk::text(p_type, vocabulary(TYPES)),
            ColumnChunk::ints(p_size),
            ColumnChunk::text(p_container, vocabulary(CONTAINERS)),
            ColumnChunk::floats(p_price),
            ColumnChunk::text(p_comment, Arc::clone(comments)),
        ],
    );
    load(
        db,
        "partsupp",
        vec![
            ColumnChunk::ints(ps_part),
            ColumnChunk::ints(ps_supp),
            ColumnChunk::ints(ps_qty),
            ColumnChunk::floats(ps_cost),
            ColumnChunk::text(ps_comment, Arc::clone(comments)),
        ],
    );
}

fn fill_customer(db: &Database, config: &GenConfig, comments: &Arc<TextDict>) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xc057);
    let n = config.customers();
    let (mut key, mut nationkey) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut acctbal, mut segment, mut comment) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let (mut name, mut address, mut phone) = <(TextColumn, TextColumn, TextColumn)>::default();
    for ck in 1..=n as i64 {
        let nation = rng.gen_range(0..25);
        key.push(ck);
        name.push(format_args!("Customer#{ck:09}"));
        address.push(format_args!("addr-{}", rng.gen_range(0..1000000)));
        nationkey.push(nation);
        phone.push_phone(&mut rng, nation);
        acctbal.push(money(&mut rng, -99999, 999999));
        segment.push(rng.gen_range(0..SEGMENTS.len()) as u32);
        comment.push(short_text(&mut rng));
    }
    load(
        db,
        "customer",
        vec![
            ColumnChunk::ints(key),
            name.finish(),
            address.finish(),
            ColumnChunk::ints(nationkey),
            phone.finish(),
            ColumnChunk::floats(acctbal),
            ColumnChunk::text(segment, vocabulary(SEGMENTS)),
            ColumnChunk::text(comment, Arc::clone(comments)),
        ],
    );
}

/// Table sizes and shared dictionaries an order chunk is generated against.
struct OrderContext {
    n_customers: i64,
    n_parts: i64,
    n_suppliers: i64,
    /// `l_returnflag`: R, A, N.
    return_flags: Arc<TextDict>,
    /// `o_orderstatus` and `l_linestatus`: O, F.
    statuses: Arc<TextDict>,
    ship_instructs: Arc<TextDict>,
    ship_modes: Arc<TextDict>,
    priorities: Arc<TextDict>,
    /// `Clerk#000000001` .. `Clerk#000001000`.
    clerks: Arc<TextDict>,
    comments: Arc<TextDict>,
}

const RETURNED: u32 = 0;
const ACCEPTED: u32 = 1;
const NOT_RETURNED: u32 = 2;
const OPEN: u32 = 0;
const FULFILLED: u32 = 1;

/// Orders and lineitems are generated in parallel chunks; each chunk's RNG
/// is seeded from (seed, chunk index), so output is independent of thread
/// scheduling.
fn fill_orders_lineitem(db: &Database, config: &GenConfig, comments: &Arc<TextDict>) {
    let n_orders = config.orders();
    let threads = config.threads.max(1);
    let context = OrderContext {
        n_customers: config.customers() as i64,
        n_parts: config.parts() as i64,
        n_suppliers: config.suppliers() as i64,
        return_flags: vocabulary(["R", "A", "N"]),
        statuses: vocabulary(["O", "F"]),
        ship_instructs: vocabulary(SHIP_INSTRUCTS),
        ship_modes: vocabulary(SHIP_MODES),
        priorities: vocabulary(PRIORITIES),
        clerks: vocabulary((1..=1000).map(|c| format!("Clerk#{c:09}"))),
        comments: Arc::clone(comments),
    };
    let context = &context;

    // Fixed chunk size so output is identical for every thread count; each
    // worker processes chunk indices strided by the worker count.
    const CHUNK: usize = 8192;
    let n_chunks = n_orders.div_ceil(CHUNK);
    let mut chunks: Vec<Option<(Vec<ColumnChunk>, Vec<ColumnChunk>)>> = Vec::new();
    chunks.resize_with(n_chunks, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..threads.min(n_chunks.max(1)) {
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                let mut chunk_idx = worker;
                while chunk_idx < n_chunks {
                    let lo = chunk_idx * CHUNK;
                    let hi = (lo + CHUNK).min(n_orders);
                    let seed = config.seed ^ (0x07de75 + chunk_idx as u64);
                    out.push((chunk_idx, generate_order_chunk(lo, hi, seed, context)));
                    chunk_idx += threads.min(n_chunks.max(1));
                }
                out
            }));
        }
        for h in handles {
            for (idx, chunk) in h.join().expect("generator thread panicked") {
                chunks[idx] = Some(chunk);
            }
        }
    });

    let (orders, lines): (Vec<_>, Vec<_>) = chunks
        .into_iter()
        .map(|chunk| chunk.expect("all chunks generated"))
        .unzip();
    load(db, "orders", concat_columns(&orders));
    load(db, "lineitem", concat_columns(&lines));
}

/// The chunks' column sets laid end to end, in chunk order.
fn concat_columns(chunks: &[Vec<ColumnChunk>]) -> Vec<ColumnChunk> {
    let width = chunks.first().map_or(0, Vec::len);
    (0..width)
        .map(|c| {
            let parts: Vec<&ColumnChunk> = chunks.iter().map(|chunk| &chunk[c]).collect();
            ColumnChunk::concat(&parts)
        })
        .collect()
}

/// Orders `lo + 1 ..= hi` and their lineitems, as one column set each.
fn generate_order_chunk(
    lo: usize,
    hi: usize,
    seed: u64,
    context: &OrderContext,
) -> (Vec<ColumnChunk>, Vec<ColumnChunk>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = start_date();
    let end = end_order_date();
    let cutoff = ymd_to_days(1995, 6, 17).expect("valid date");

    let n = hi - lo;
    let (mut o_key, mut o_cust, mut o_shippriority) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let (mut o_total, mut o_date) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let [mut o_status, mut o_priority, mut o_clerk, mut o_comment] =
        [(); 4].map(|()| Vec::<u32>::with_capacity(n));
    let [mut l_order, mut l_number, mut l_part, mut l_supp, mut l_quantity] =
        [(); 5].map(|()| Vec::<i64>::with_capacity(4 * n));
    let [mut l_price, mut l_discount, mut l_tax] =
        [(); 3].map(|()| Vec::<f64>::with_capacity(4 * n));
    let [mut l_ship, mut l_commit, mut l_receipt] =
        [(); 3].map(|()| Vec::<i32>::with_capacity(4 * n));
    let [mut l_flag, mut l_status, mut l_instruct, mut l_mode, mut l_comment] =
        [(); 5].map(|()| Vec::<u32>::with_capacity(4 * n));

    for i in lo..hi {
        let ok = i as i64 + 1;
        let custkey = rng.gen_range(1..=context.n_customers);
        let orderdate = rng.gen_range(start..=end);
        let n_lines = rng.gen_range(1..=7);

        let mut total = 0.0;
        let mut any_open = false;
        for ln in 1..=n_lines {
            let quantity = rng.gen_range(1..=50i64);
            let price_each = money(&mut rng, 90100, 210000);
            let extended = (quantity as f64) * price_each;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = orderdate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            let returnflag = if receiptdate <= cutoff {
                if rng.gen_bool(0.5) {
                    RETURNED
                } else {
                    ACCEPTED
                }
            } else {
                NOT_RETURNED
            };
            let linestatus = if shipdate > cutoff { OPEN } else { FULFILLED };
            any_open |= linestatus == OPEN;
            total += extended * (1.0 - discount) * (1.0 + tax);
            l_order.push(ok);
            l_number.push(ln);
            l_part.push(rng.gen_range(1..=context.n_parts));
            l_supp.push(rng.gen_range(1..=context.n_suppliers));
            l_quantity.push(quantity);
            l_price.push(extended);
            l_discount.push(discount);
            l_tax.push(tax);
            l_flag.push(returnflag);
            l_status.push(linestatus);
            l_ship.push(shipdate);
            l_commit.push(commitdate);
            l_receipt.push(receiptdate);
            l_instruct.push(rng.gen_range(0..SHIP_INSTRUCTS.len()) as u32);
            l_mode.push(rng.gen_range(0..SHIP_MODES.len()) as u32);
            l_comment.push(short_text(&mut rng));
        }
        o_key.push(ok);
        o_cust.push(custkey);
        o_status.push(if any_open { OPEN } else { FULFILLED });
        o_total.push(total);
        o_date.push(orderdate);
        o_priority.push(rng.gen_range(0..PRIORITIES.len()) as u32);
        o_clerk.push(rng.gen_range(1..=1000u32) - 1);
        o_shippriority.push(0);
        o_comment.push(short_text(&mut rng));
    }

    let text = |codes, dict: &Arc<TextDict>| ColumnChunk::text(codes, Arc::clone(dict));
    let orders = vec![
        ColumnChunk::ints(o_key),
        ColumnChunk::ints(o_cust),
        text(o_status, &context.statuses),
        ColumnChunk::floats(o_total),
        ColumnChunk::dates(o_date),
        text(o_priority, &context.priorities),
        text(o_clerk, &context.clerks),
        ColumnChunk::ints(o_shippriority),
        text(o_comment, &context.comments),
    ];
    let lines = vec![
        ColumnChunk::ints(l_order),
        ColumnChunk::ints(l_number),
        ColumnChunk::ints(l_part),
        ColumnChunk::ints(l_supp),
        ColumnChunk::ints(l_quantity),
        ColumnChunk::floats(l_price),
        ColumnChunk::floats(l_discount),
        ColumnChunk::floats(l_tax),
        text(l_flag, &context.return_flags),
        text(l_status, &context.statuses),
        ColumnChunk::dates(l_ship),
        ColumnChunk::dates(l_commit),
        ColumnChunk::dates(l_receipt),
        text(l_instruct, &context.ship_instructs),
        text(l_mode, &context.ship_modes),
        text(l_comment, &context.comments),
    ];
    (orders, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_engine::Value;

    #[test]
    fn generates_expected_row_counts() {
        let config = GenConfig {
            scale_factor: 0.001,
            seed: 7,
            threads: 2,
        };
        let db = generate_database(&config);
        assert_eq!(db.table("customer").unwrap().len(), 150);
        assert_eq!(db.table("orders").unwrap().len(), 1500);
        assert_eq!(db.table("nation").unwrap().len(), 25);
        assert_eq!(db.table("region").unwrap().len(), 5);
        let li = db.table("lineitem").unwrap().len();
        assert!((1500..=1500 * 7).contains(&li), "lineitem count {li}");
    }

    #[test]
    fn generation_is_deterministic_across_thread_counts() {
        let a = generate_database(&GenConfig {
            scale_factor: 0.001,
            seed: 9,
            threads: 1,
        });
        let b = generate_database(&GenConfig {
            scale_factor: 0.001,
            seed: 9,
            threads: 4,
        });
        for t in ["orders", "lineitem", "customer"] {
            assert_eq!(
                a.table(t).unwrap().rows(),
                b.table(t).unwrap().rows(),
                "{t} differs"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_database(&GenConfig {
            scale_factor: 0.001,
            seed: 1,
            threads: 2,
        });
        let b = generate_database(&GenConfig {
            scale_factor: 0.001,
            seed: 2,
            threads: 2,
        });
        assert_ne!(
            a.table("customer").unwrap().rows(),
            b.table("customer").unwrap().rows()
        );
    }

    #[test]
    fn generated_data_is_consistent_wrt_keys() {
        use std::collections::HashSet;
        let db = generate_database(&GenConfig {
            scale_factor: 0.001,
            seed: 3,
            threads: 2,
        });
        let orders = db.table("orders").unwrap();
        let keys: HashSet<String> = orders.rows().iter().map(|r| r[0].to_string()).collect();
        assert_eq!(keys.len(), orders.len());
        let li = db.table("lineitem").unwrap();
        let li_keys: HashSet<(String, String)> = li
            .rows()
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        assert_eq!(li_keys.len(), li.len());
    }

    #[test]
    fn foreign_keys_reference_existing_rows() {
        let config = GenConfig {
            scale_factor: 0.001,
            seed: 4,
            threads: 2,
        };
        let db = generate_database(&config);
        let n_customers = config.customers() as i64;
        for row in db.table("orders").unwrap().rows() {
            let Value::Int(ck) = row[1] else { panic!() };
            assert!((1..=n_customers).contains(&ck));
        }
    }

    #[test]
    fn dates_are_ordered_per_lineitem() {
        let db = generate_database(&GenConfig {
            scale_factor: 0.001,
            seed: 5,
            threads: 2,
        });
        for row in db.table("lineitem").unwrap().rows() {
            let Value::Date(ship) = row[10] else { panic!() };
            let Value::Date(receipt) = row[12] else {
                panic!()
            };
            assert!(receipt > ship);
        }
    }
}
