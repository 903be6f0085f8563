//! Deterministic synthetic data generation.
//!
//! The wall-clock experiments (paper Table 3) need real tuples flowing
//! through the execution engine. The generator materializes integer-encoded
//! tables (dictionary encoding for non-integer types) whose join and filter
//! selectivities are *plantable*: a join column generated with domain size
//! `v` on both sides yields an equi-join selectivity of `≈ 1/v`, so a target
//! location `qa` in the ESS can be realized by choosing per-column domains.
//!
//! Generation is fully deterministic given [`GenSpec::seed`]: every column
//! derives its own stream seed from `(seed, table, column)`, so adding a
//! table or column never perturbs the data of others.

use crate::schema::{Catalog, TableId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rqp_common::{Result, RqpError};
use std::collections::HashMap;

/// How one column's values are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnGen {
    /// Sequential surrogate key `0..rows` (unique).
    Serial,
    /// Uniform over `[0, domain)`.
    Uniform {
        /// Domain size (NDV of the generated data).
        domain: u64,
    },
    /// Zipf-like skew over `[0, domain)` with exponent `s` — value `k` has
    /// probability proportional to `1/(k+1)^s`. Used to model the skewed
    /// attributes that make real selectivity estimation hard.
    Zipf {
        /// Domain size.
        domain: u64,
        /// Skew exponent (`s = 0` is uniform; `s = 1` is classic Zipf).
        s: f64,
    },
}

/// Generation recipe for one table.
#[derive(Debug, Clone)]
pub struct TableGenSpec {
    /// The catalog table being materialized.
    pub table: TableId,
    /// Rows to generate (usually a scaled-down version of the catalog
    /// cardinality).
    pub rows: u64,
    /// One generator per column, in column order.
    pub columns: Vec<ColumnGen>,
}

/// Recipe for a whole dataset.
#[derive(Debug, Clone)]
pub struct GenSpec {
    /// Master seed.
    pub seed: u64,
    /// Per-table recipes.
    pub tables: Vec<TableGenSpec>,
}

/// A materialized table: column-major `i64` vectors.
#[derive(Debug, Clone)]
pub struct DataTable {
    /// Table name (from the catalog).
    pub name: String,
    /// Column-major data; all columns have the same length.
    pub columns: Vec<Vec<i64>>,
}

impl DataTable {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// A single column slice.
    pub fn col(&self, c: usize) -> &[i64] {
        &self.columns[c]
    }
}

/// A materialized dataset keyed by [`TableId`].
#[derive(Debug, Clone, Default)]
pub struct DataSet {
    tables: HashMap<TableId, DataTable>,
}

impl DataSet {
    /// Generates the dataset described by `spec` against `catalog`.
    ///
    /// # Errors
    /// Fails if a recipe's column count does not match the catalog table.
    pub fn generate(catalog: &Catalog, spec: &GenSpec) -> Result<Self> {
        let mut tables = HashMap::new();
        for tspec in &spec.tables {
            let table = catalog.table(tspec.table);
            if tspec.columns.len() != table.columns.len() {
                return Err(RqpError::Config(format!(
                    "table {}: {} column generators for {} columns",
                    table.name,
                    tspec.columns.len(),
                    table.columns.len()
                )));
            }
            let mut columns = Vec::with_capacity(tspec.columns.len());
            for (cid, gen) in tspec.columns.iter().enumerate() {
                let col_seed = derive_seed(spec.seed, tspec.table as u64, cid as u64);
                columns.push(generate_column(gen, tspec.rows, col_seed));
            }
            tables.insert(
                tspec.table,
                DataTable {
                    name: table.name.clone(),
                    columns,
                },
            );
        }
        Ok(Self { tables })
    }

    /// Materialized table by id.
    pub fn table(&self, id: TableId) -> Option<&DataTable> {
        self.tables.get(&id)
    }

    /// Number of materialized tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if nothing was generated.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Measures the *true* equi-join selectivity between two materialized
    /// columns: `|matches| / (|L| * |R|)`. This is the ground-truth `qa.j`
    /// for a join epp.
    pub fn true_join_selectivity(&self, l: (TableId, usize), r: (TableId, usize)) -> Option<f64> {
        let lt = self.tables.get(&l.0)?;
        let rt = self.tables.get(&r.0)?;
        let lc = lt.col(l.1);
        let rc = rt.col(r.1);
        if lc.is_empty() || rc.is_empty() {
            return Some(0.0);
        }
        let mut counts: HashMap<i64, u64> = HashMap::new();
        for &v in rc {
            *counts.entry(v).or_insert(0) += 1;
        }
        let matches: u128 = lc
            .iter()
            .map(|v| counts.get(v).copied().unwrap_or(0) as u128)
            .sum();
        Some(matches as f64 / (lc.len() as f64 * rc.len() as f64))
    }

    /// Measures the true selectivity of `col <= v`.
    pub fn true_le_selectivity(&self, t: TableId, c: usize, v: i64) -> Option<f64> {
        let dt = self.tables.get(&t)?;
        let col = dt.col(c);
        if col.is_empty() {
            return Some(0.0);
        }
        let hits = col.iter().filter(|&&x| x <= v).count();
        Some(hits as f64 / col.len() as f64)
    }
}

fn derive_seed(master: u64, a: u64, b: u64) -> u64 {
    // SplitMix64-style mixing; cheap, deterministic, well-distributed.
    let mut z =
        master ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate_column(gen: &ColumnGen, rows: u64, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    match gen {
        ColumnGen::Serial => (0..rows as i64).collect(),
        ColumnGen::Uniform { domain } => {
            let d = (*domain).max(1) as i64;
            (0..rows).map(|_| rng.gen_range(0..d)).collect()
        }
        ColumnGen::Zipf { domain, s } => {
            let d = (*domain).max(1);
            // Inverse-CDF sampling over the (finite) Zipf pmf.
            let weights: Vec<f64> = (0..d).map(|k| 1.0 / ((k + 1) as f64).powf(*s)).collect();
            let total: f64 = weights.iter().sum();
            let mut cdf = Vec::with_capacity(d as usize);
            let mut acc = 0.0;
            for w in &weights {
                acc += w / total;
                cdf.push(acc);
            }
            (0..rows)
                .map(|_| {
                    let u: f64 = rng.gen();
                    cdf.partition_point(|&c| c < u) as i64
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Table};
    use crate::stats::ColumnStats;

    fn two_table_catalog() -> (Catalog, TableId, TableId) {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(Table::new(
                "a",
                0,
                vec![
                    Column::new("pk", DataType::Int, ColumnStats::uniform(1000)),
                    Column::new("fk", DataType::Int, ColumnStats::uniform(50)),
                ],
            ))
            .unwrap();
        let b = cat
            .add_table(Table::new(
                "b",
                0,
                vec![Column::new("k", DataType::Int, ColumnStats::uniform(50))],
            ))
            .unwrap();
        (cat, a, b)
    }

    fn spec(a: TableId, b: TableId, domain: u64) -> GenSpec {
        GenSpec {
            seed: 42,
            tables: vec![
                TableGenSpec {
                    table: a,
                    rows: 2000,
                    columns: vec![ColumnGen::Serial, ColumnGen::Uniform { domain }],
                },
                TableGenSpec {
                    table: b,
                    rows: 1000,
                    columns: vec![ColumnGen::Uniform { domain }],
                },
            ],
        }
    }

    #[test]
    fn deterministic() {
        let (cat, a, b) = two_table_catalog();
        let s = spec(a, b, 50);
        let d1 = DataSet::generate(&cat, &s).unwrap();
        let d2 = DataSet::generate(&cat, &s).unwrap();
        assert_eq!(d1.table(a).unwrap().columns, d2.table(a).unwrap().columns);
        assert_eq!(d1.table(b).unwrap().columns, d2.table(b).unwrap().columns);
    }

    #[test]
    fn serial_is_unique_sequence() {
        let (cat, a, b) = two_table_catalog();
        let d = DataSet::generate(&cat, &spec(a, b, 50)).unwrap();
        let pk = d.table(a).unwrap().col(0);
        assert_eq!(pk.len(), 2000);
        assert_eq!(pk[0], 0);
        assert_eq!(pk[1999], 1999);
    }

    #[test]
    fn planted_join_selectivity_tracks_domain() {
        let (cat, a, b) = two_table_catalog();
        for domain in [10u64, 100, 1000] {
            let d = DataSet::generate(&cat, &spec(a, b, domain)).unwrap();
            let sel = d.true_join_selectivity((a, 1), (b, 0)).unwrap();
            let expect = 1.0 / domain as f64;
            assert!(
                (sel - expect).abs() / expect < 0.25,
                "domain {domain}: sel {sel} vs expected {expect}"
            );
        }
    }

    #[test]
    fn le_selectivity_uniform() {
        let (cat, a, b) = two_table_catalog();
        let d = DataSet::generate(&cat, &spec(a, b, 100)).unwrap();
        let sel = d.true_le_selectivity(a, 1, 49).unwrap();
        assert!((sel - 0.5).abs() < 0.06, "got {sel}");
    }

    #[test]
    fn zipf_skews_low_values() {
        let col = generate_column(
            &ColumnGen::Zipf {
                domain: 100,
                s: 1.0,
            },
            10_000,
            7,
        );
        let zero_frac = col.iter().filter(|&&v| v == 0).count() as f64 / 1e4;
        let uniform_frac = 0.01;
        assert!(
            zero_frac > 5.0 * uniform_frac,
            "zipf should concentrate mass at 0, got {zero_frac}"
        );
        assert!(col.iter().all(|&v| (0..100).contains(&v)));
    }

    #[test]
    fn column_count_mismatch_rejected() {
        let (cat, a, _) = two_table_catalog();
        let bad = GenSpec {
            seed: 1,
            tables: vec![TableGenSpec {
                table: a,
                rows: 10,
                columns: vec![ColumnGen::Serial], // table has 2 columns
            }],
        };
        assert!(DataSet::generate(&cat, &bad).is_err());
    }
}
