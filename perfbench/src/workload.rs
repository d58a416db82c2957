//! The three workloads: their pinned service settings, the SQL texts they
//! submit (generated from the seed) and the hand-built reference plans the
//! results are checked against.

use std::fmt;
use uot_core::{
    DegradePolicy, EngineError, FusionPolicy, JoinType, PlanBuilder, QueryPlan, SortKey, Source,
};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
use uot_tpch::schema::{cust, nat, part, supp};
use uot_tpch::{QueryId as TpchQuery, TpchDb};

/// A small deterministic generator (SplitMix64): the same seed yields the
/// same statement order and lookup literals on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 14 TPC-H statements, one closed-loop client, a reservation that
    /// fits the largest query.
    TpchMix,
    /// Point lookups and a small join over the dimension tables, two
    /// closed-loop clients, about half the texts repeating.
    ShortLookups,
    /// The 14 TPC-H statements under `DegradePolicy::Spill` with a
    /// reservation below their working set.
    TpchSpill,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "tpch_mix" => Some(Workload::TpchMix),
            "short_lookups" => Some(Workload::ShortLookups),
            "tpch_spill" => Some(Workload::TpchSpill),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchMix => "tpch_mix",
            Workload::ShortLookups => "short_lookups",
            Workload::TpchSpill => "tpch_spill",
        }
    }

    /// Closed-loop clients (capped at the machine's CPUs by the caller).
    pub fn clients(self) -> usize {
        match self {
            Workload::ShortLookups => 2,
            Workload::TpchMix | Workload::TpchSpill => 1,
        }
    }

    /// Per-query reservation. Q9 peaks at 24 MiB of temporary memory, so
    /// 64 MiB fits every statement; 8 MiB is below the spill workload's
    /// working set on purpose.
    pub fn reservation(self) -> usize {
        match self {
            Workload::TpchMix => 64 << 20,
            Workload::ShortLookups => 16 << 20,
            Workload::TpchSpill => 8 << 20,
        }
    }

    pub fn degrade(self) -> DegradePolicy {
        match self {
            Workload::TpchSpill => DegradePolicy::Spill,
            Workload::TpchMix | Workload::ShortLookups => DegradePolicy::Off,
        }
    }
}

/// One submission of a workload: what is sent as SQL and what its result
/// is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Statement {
    Tpch(TpchQuery),
    Lookup(Lookup),
}

impl Statement {
    pub fn sql(&self) -> String {
        match self {
            Statement::Tpch(q) => uot_tpch::sql_text(*q).to_string(),
            Statement::Lookup(l) => l.sql(),
        }
    }

    /// The group a latency sample belongs to for the geometric mean: the
    /// TPC-H query, or the lookup template.
    pub fn group(&self) -> String {
        match self {
            Statement::Tpch(q) => q.label(),
            Statement::Lookup(l) => l.template().to_string(),
        }
    }

    /// The reference plan, built by hand rather than through SQL.
    pub fn reference_plan(&self, db: &TpchDb) -> Result<QueryPlan, EngineError> {
        match self {
            Statement::Tpch(q) => uot_tpch::build_query(*q, db),
            Statement::Lookup(l) => l.plan(db),
        }
    }
}

/// The four `short_lookups` templates with their literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lookup {
    Customer(i32),
    Part(i32),
    Supplier(i32),
    /// Suppliers of one region above a balance, counted per nation.
    RegionBalance {
        region: i32,
        cents: i64,
    },
}

/// A balance in cents as the SQL literal text both paths parse.
fn balance_literal(cents: i64) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

impl Lookup {
    pub fn template(&self) -> &'static str {
        match self {
            Lookup::Customer(_) => "customer_by_key",
            Lookup::Part(_) => "part_by_key",
            Lookup::Supplier(_) => "supplier_by_key",
            Lookup::RegionBalance { .. } => "region_balance",
        }
    }

    pub fn sql(&self) -> String {
        match *self {
            Lookup::Customer(k) => format!(
                "SELECT c_custkey, c_name, c_nationkey, c_acctbal FROM customer \
                 WHERE c_custkey = {k}"
            ),
            Lookup::Part(k) => format!(
                "SELECT p_partkey, p_name, p_brand, p_retailprice FROM part \
                 WHERE p_partkey = {k}"
            ),
            Lookup::Supplier(k) => format!(
                "SELECT s_suppkey, s_name, s_nationkey, s_acctbal FROM supplier \
                 WHERE s_suppkey = {k}"
            ),
            Lookup::RegionBalance { region, cents } => format!(
                "SELECT n_name, COUNT(*) AS suppliers, SUM(s_acctbal) AS balance \
                 FROM supplier, nation \
                 WHERE s_nationkey = n_nationkey AND n_regionkey = {region} \
                 AND s_acctbal > {} \
                 GROUP BY n_name ORDER BY n_name",
                balance_literal(cents)
            ),
        }
    }

    fn plan(&self, db: &TpchDb) -> Result<QueryPlan, EngineError> {
        let mut pb = PlanBuilder::new();
        let point = |pb: &mut PlanBuilder, table, key_col: usize, key: i32, cols: [usize; 4]| {
            pb.select(
                Source::Table(table),
                cmp(col(key_col), CmpOp::Eq, lit(key)),
                cols.iter().map(|&c| col(c)).collect(),
                &["k", "a", "b", "c"],
            )
        };
        let sink = match *self {
            Lookup::Customer(k) => point(
                &mut pb,
                db.customer(),
                cust::CUSTKEY,
                k,
                [cust::CUSTKEY, cust::NAME, cust::NATIONKEY, cust::ACCTBAL],
            )?,
            Lookup::Part(k) => point(
                &mut pb,
                db.part(),
                part::PARTKEY,
                k,
                [part::PARTKEY, part::NAME, part::BRAND, part::RETAILPRICE],
            )?,
            Lookup::Supplier(k) => point(
                &mut pb,
                db.supplier(),
                supp::SUPPKEY,
                k,
                [supp::SUPPKEY, supp::NAME, supp::NATIONKEY, supp::ACCTBAL],
            )?,
            Lookup::RegionBalance { region, cents } => {
                let balance: f64 = balance_literal(cents)
                    .parse()
                    .expect("a formatted balance parses");
                let n = pb.select(
                    Source::Table(db.nation()),
                    cmp(col(nat::REGIONKEY), CmpOp::Eq, lit(region)),
                    vec![col(nat::NATIONKEY), col(nat::NAME)],
                    &["n_nationkey", "n_name"],
                )?;
                let b = pb.build_hash(Source::Op(n), vec![0], vec![1])?;
                let s = pb.select(
                    Source::Table(db.supplier()),
                    cmp(col(supp::ACCTBAL), CmpOp::Gt, lit(balance)),
                    vec![col(supp::NATIONKEY), col(supp::ACCTBAL)],
                    &["s_nationkey", "s_acctbal"],
                )?;
                // (s_acctbal, n_name)
                let p = pb.probe(Source::Op(s), b, vec![0], vec![1], vec![0], JoinType::Inner)?;
                let a = pb.aggregate(
                    Source::Op(p),
                    vec![1],
                    vec![AggSpec::count_star(), AggSpec::sum(col(0))],
                    &["suppliers", "balance"],
                )?;
                pb.sort(Source::Op(a), vec![SortKey::asc(0)], None)?
            }
        };
        pb.build(sink)
    }
}

/// Key-domain sizes of the dimension tables at the generated scale.
#[derive(Debug, Clone, Copy)]
pub struct Domains {
    pub customers: i32,
    pub parts: i32,
    pub suppliers: i32,
}

/// One client's stream of lookups. Each draw picks a template uniformly;
/// with probability 1/2 it repeats one of this client's earlier texts of
/// that template, otherwise it takes a fresh literal. Fresh literals walk
/// a seeded permutation of the key domain, interleaved across clients so
/// no two clients draw the same fresh text; past the domain they continue
/// with keys that match no row. About half the submissions therefore reuse
/// a cached plan, whatever the run length.
pub struct LookupStream {
    rng: Rng,
    client: usize,
    clients: usize,
    fresh: [usize; 4],
    history: [Vec<Lookup>; 4],
    perms: [Vec<i32>; 3],
}

impl LookupStream {
    pub fn new(seed: u64, client: usize, clients: usize, domains: Domains) -> Self {
        // The permutations depend on the seed only, so clients share them.
        let mut perm_rng = Rng::new(seed ^ 0x243f_6a88_85a3_08d3);
        let mut perm = |n: i32| {
            let mut keys: Vec<i32> = (1..=n).collect();
            perm_rng.shuffle(&mut keys);
            keys
        };
        let perms = [
            perm(domains.customers),
            perm(domains.parts),
            perm(domains.suppliers),
        ];
        LookupStream {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1)),
            client,
            clients,
            fresh: [0; 4],
            history: Default::default(),
            perms,
        }
    }

    pub fn next_lookup(&mut self) -> Lookup {
        let t = self.rng.below(4);
        let repeat = self.rng.below(2) == 0;
        if repeat && !self.history[t].is_empty() {
            let h = &self.history[t];
            return h[self.rng.below(h.len())];
        }
        let i = self.fresh[t] * self.clients + self.client;
        self.fresh[t] += 1;
        let key = |perm: &[i32]| match perm.get(i) {
            Some(&k) => k,
            None => perm.len() as i32 + 1 + (i - perm.len()) as i32,
        };
        let l = match t {
            0 => Lookup::Customer(key(&self.perms[0])),
            1 => Lookup::Part(key(&self.perms[1])),
            2 => Lookup::Supplier(key(&self.perms[2])),
            _ => Lookup::RegionBalance {
                region: (i % 5) as i32,
                // 7919 is prime to 10^6, so balances are distinct per region
                // for the first 10^6 draws; they span 0.00 ..= 9999.99.
                cents: ((i / 5) as i64 * 7919) % 1_000_000,
            },
        };
        self.history[t].push(l);
        l
    }
}

/// The TPC-H statements in a fresh seeded order for one round.
pub fn tpch_round(rng: &mut Rng) -> Vec<Statement> {
    let mut qs: Vec<Statement> = uot_tpch::all_queries()
        .into_iter()
        .map(Statement::Tpch)
        .collect();
    rng.shuffle(&mut qs);
    qs
}

/// The pinned settings a record is only comparable under.
pub struct Pinned {
    pub workload: Workload,
    pub seed: u64,
    pub scale_factor: f64,
    pub block_bytes: usize,
    pub base_format: &'static str,
    pub temp_format: &'static str,
    pub uot: &'static str,
    pub fusion: FusionPolicy,
    pub memory_budget: usize,
    pub workers: usize,
    pub clients: usize,
    pub nproc: usize,
}

impl fmt::Display for Pinned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"workload\": \"{}\", \"seed\": {}, \"sf\": {}, \"block_bytes\": {}, \
             \"base_format\": \"{}\", \"temp_format\": \"{}\", \"uot\": \"{}\", \
             \"fusion\": \"{:?}\", \"degrade\": \"{:?}\", \"reservation_mib\": {}, \
             \"memory_budget_mib\": {}, \"workers\": {}, \"clients\": {}, \"nproc\": {}}}",
            self.workload.name(),
            self.seed,
            self.scale_factor,
            self.block_bytes,
            self.base_format,
            self.temp_format,
            self.uot,
            self.fusion,
            self.workload.degrade(),
            self.workload.reservation() >> 20,
            self.memory_budget >> 20,
            self.workers,
            self.clients,
            self.nproc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAINS: Domains = Domains {
        customers: 300,
        parts: 400,
        suppliers: 20,
    };

    #[test]
    fn lookup_streams_repeat_about_half_and_never_share_fresh_texts() {
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        let n = 4000;
        for client in 0..2 {
            let mut s = LookupStream::new(7, client, 2, DOMAINS);
            for _ in 0..n {
                if !seen.insert(s.next_lookup()) {
                    repeats += 1;
                }
            }
        }
        let share = repeats as f64 / (2 * n) as f64;
        assert!((0.45..0.55).contains(&share), "repeat share {share}");
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let draw = |seed| {
            let mut s = LookupStream::new(seed, 1, 2, DOMAINS);
            (0..50).map(|_| s.next_lookup()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
