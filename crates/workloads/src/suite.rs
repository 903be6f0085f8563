//! The paper's query suite and per-query ESS configurations.

use crate::tpcds_queries as q;
use rqp_catalog::datagen::{ColumnGen, GenSpec, TableGenSpec};
use rqp_catalog::Catalog;
use rqp_common::MultiGrid;
use rqp_optimizer::QuerySpec;

/// One benchmark configuration: a query plus its ESS discretization.
#[derive(Debug, Clone)]
pub struct BenchQuery {
    /// The SPJ specification (named `xD_Qz`).
    pub query: QuerySpec,
    /// Grid points per ESS dimension.
    pub grid_points: usize,
    /// Smallest grid selectivity.
    pub min_sel: f64,
}

impl BenchQuery {
    /// The ESS grid for this configuration.
    pub fn grid(&self) -> MultiGrid {
        MultiGrid::uniform(self.query.ndims(), self.min_sel, self.grid_points)
    }

    /// Short name (`"4D_Q91"`).
    pub fn name(&self) -> &str {
        &self.query.name
    }

    /// The same configuration at an overridden per-dimension resolution —
    /// how a lazy surface lifts a suite query to the high-resolution grids
    /// dense sweeps cannot afford.
    pub fn with_grid_points(mut self, points: usize) -> Self {
        assert!(points >= 2, "a grid needs at least 2 points per dimension");
        self.grid_points = points;
        self
    }
}

/// Grid resolution per dimensionality: higher-D spaces use coarser axes so
/// the exhaustive MSOe sweeps stay tractable — the same compromise the
/// paper's discretized ESS makes.
pub fn default_grid_points(d: usize) -> usize {
    match d {
        0 | 1 => 64,
        2 => 24,
        3 => 12,
        4 => 8,
        5 => 6,
        _ => 5,
    }
}

fn bench(query: QuerySpec) -> BenchQuery {
    let d = query.ndims();
    BenchQuery {
        query,
        grid_points: default_grid_points(d),
        min_sel: 1e-7,
    }
}

/// The eleven TPC-DS configurations evaluated in Figs. 8, 10, 11 and 13.
pub fn paper_suite(catalog: &Catalog) -> Vec<BenchQuery> {
    vec![
        bench(q::q15(catalog)),
        bench(q::q96(catalog)),
        bench(q::q7(catalog)),
        bench(q::q26(catalog)),
        bench(q::q27(catalog)),
        bench(q::q91(catalog, 4)),
        bench(q::q19(catalog)),
        bench(q::q29(catalog)),
        bench(q::q84(catalog)),
        bench(q::q18(catalog)),
        bench(q::q91(catalog, 6)),
    ]
}

/// Q91 at dimensionalities 2–6 (Fig. 9).
pub fn q91_with_dims(catalog: &Catalog, d: usize) -> BenchQuery {
    bench(q::q91(catalog, d))
}

/// The configuration named `name`: a suite query, or Q91 at any
/// dimensionality 2–6 (`"2D_Q91"` … `"6D_Q91"`, Fig. 9).
pub fn find(catalog: &Catalog, name: &str) -> Option<BenchQuery> {
    let q91 = (2..=6).map(|d| q91_with_dims(catalog, d));
    (paper_suite(catalog).into_iter().chain(q91)).find(|b| b.name() == name)
}

/// Builds a dataset recipe materializing exactly the tables of `query`,
/// with surrogate keys serial and every other column uniform over its
/// catalog NDV — so foreign-key join selectivities land near the cost
/// model's estimates and filters near their uniform estimates.
///
/// Use a small-scale catalog (e.g. `tpcds::catalog(0.002)`) so the
/// executor-backed wall-clock experiments finish in seconds.
pub fn executable_genspec(catalog: &Catalog, query: &QuerySpec, seed: u64) -> GenSpec {
    executable_genspec_with_errors(catalog, query, seed, &vec![1.0; query.ndims()])
}

/// Matched-skew error injection: the Zipf exponent `s` such that two iid
/// `Zipf(s)` columns over a domain of size `n` join with selectivity
/// `Σ p_k² ≈ target_sel`. Solved by bisection (`Σ p_k²` is monotone in
/// `s`, from `1/n` at `s = 0` toward `1` as `s → ∞`).
pub fn zipf_exponent_for(n: u64, target_sel: f64) -> f64 {
    let n = n.max(2);
    let p2 = |s: f64| -> f64 {
        let mut norm = 0.0;
        let mut sq = 0.0;
        for k in 0..n {
            let w = 1.0 / ((k + 1) as f64).powf(s);
            norm += w;
            sq += w * w;
        }
        sq / (norm * norm)
    };
    let target = target_sel.clamp(1.0 / n as f64, 0.99);
    let (mut lo, mut hi) = (0.0f64, 20.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if p2(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Like [`executable_genspec`], but *injects estimation error*: the true
/// selectivity of epp `j` is planted at roughly `error[j] ×` the
/// statistics-derived estimate `1/max(NDV)`, by generating **both** join
/// endpoints with matched Zipf skew over the full domain. Crucially the
/// per-column statistics barely change (same domain, near-full NDV), so
/// even a fresh `ANALYZE` keeps estimating `≈ 1/NDV` — the error persists,
/// exactly like the correlation/skew effects that plague real estimators
/// (§1: "the reasons for such substantial deviations are well
/// documented").
pub fn executable_genspec_with_errors(
    catalog: &Catalog,
    query: &QuerySpec,
    seed: u64,
    error: &[f64],
) -> GenSpec {
    assert_eq!(error.len(), query.ndims());
    let mut skew: std::collections::HashMap<(usize, usize), (u64, f64)> =
        std::collections::HashMap::new();
    for (j, &p) in query.epps.iter().enumerate() {
        if let rqp_optimizer::PredicateKind::Join {
            left,
            left_col,
            right,
            right_col,
        } = query.predicates[p].kind
        {
            let ndv =
                |rel: usize, col: usize| catalog.table(query.relations[rel]).columns[col].stats.ndv;
            let n = ndv(left, left_col).max(ndv(right, right_col)).max(2);
            let target_sel = error[j].max(1.0) / n as f64;
            let s = if error[j] <= 1.0 {
                0.0
            } else {
                zipf_exponent_for(n, target_sel)
            };
            for (rel, col) in [(left, left_col), (right, right_col)] {
                let e = skew.entry((query.relations[rel], col)).or_insert((n, s));
                if s > e.1 {
                    *e = (n, s);
                }
            }
        }
    }
    base_genspec(catalog, query, seed, &skew)
}

fn base_genspec(
    catalog: &Catalog,
    query: &QuerySpec,
    seed: u64,
    skew: &std::collections::HashMap<(usize, usize), (u64, f64)>,
) -> GenSpec {
    let mut tables: Vec<usize> = query.relations.clone();
    tables.sort_unstable();
    tables.dedup();
    let specs = tables
        .into_iter()
        .map(|tid| {
            let t = catalog.table(tid);
            let columns = t
                .columns
                .iter()
                .enumerate()
                .map(|(cid, col)| {
                    match skew.get(&(tid, cid)) {
                        // Error-injected join endpoint: matched Zipf skew
                        // over the full domain (key columns included —
                        // deliberate key-popularity correlation is the
                        // error source).
                        Some(&(domain, s)) if s > 0.0 => ColumnGen::Zipf { domain, s },
                        Some(&(domain, _)) => ColumnGen::Uniform { domain },
                        None if cid == 0 && col.stats.ndv >= t.rows => {
                            // Convention: the first column of a dimension
                            // table is its surrogate key.
                            ColumnGen::Serial
                        }
                        None => ColumnGen::Uniform {
                            domain: col.stats.ndv,
                        },
                    }
                })
                .collect();
            TableGenSpec {
                table: tid,
                rows: t.rows,
                columns,
            }
        })
        .collect();
    GenSpec {
        seed,
        tables: specs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{tpcds, DataSet};

    #[test]
    fn suite_has_eleven_queries_with_paper_dims() {
        let cat = tpcds::catalog_sf100();
        let suite = paper_suite(&cat);
        assert_eq!(suite.len(), 11);
        let dims: Vec<usize> = suite.iter().map(|b| b.query.ndims()).collect();
        assert_eq!(dims, vec![3, 3, 4, 4, 4, 4, 5, 5, 5, 6, 6]);
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        assert!(names.contains(&"4D_Q91"));
        assert!(names.contains(&"6D_Q91"));
    }

    #[test]
    fn grids_match_dimensionality() {
        let cat = tpcds::catalog_sf100();
        for b in paper_suite(&cat) {
            let g = b.grid();
            assert_eq!(g.ndims(), b.query.ndims());
            assert_eq!(g.dim(0).len(), b.grid_points);
        }
    }

    #[test]
    fn error_injection_multiplies_true_selectivity() {
        let cat = tpcds::catalog(0.1);
        let query = crate::tpcds_queries::q96(&cat);
        let hd = cat.table_id("household_demographics").unwrap();
        let ss = cat.table_id("store_sales").unwrap();
        let ss_hd_col = cat.table(ss).col_id("ss_hdemo_sk").unwrap();
        let ndv = cat.table(hd).rows as f64;
        for error in [1.0, 10.0, 50.0] {
            let spec = executable_genspec_with_errors(&cat, &query, 5, &[error, 1.0, 1.0]);
            let data = DataSet::generate(&cat, &spec).unwrap();
            let sel = data
                .true_join_selectivity((ss, ss_hd_col), (hd, 0))
                .unwrap();
            let expect = error / ndv;
            assert!(
                (sel - expect).abs() / expect < 0.5,
                "error {error}: sel {sel} vs expected {expect}"
            );
        }
    }

    #[test]
    fn injected_error_survives_analyze() {
        // The premise of the whole paper: statistics collection cannot see
        // the correlation. After ANALYZE the NDV-based join estimate must
        // still be ≈ 1/NDV while the truth is `error ×` larger.
        use rqp_catalog::analyze;
        let mut cat = tpcds::catalog(0.1);
        let query = crate::tpcds_queries::q96(&cat);
        let error = 20.0;
        let spec = executable_genspec_with_errors(&cat, &query, 5, &[error, 1.0, 1.0]);
        let data = DataSet::generate(&cat, &spec).unwrap();
        let hd = cat.table_id("household_demographics").unwrap();
        let ss = cat.table_id("store_sales").unwrap();
        let ss_hd_col = cat.table(ss).col_id("ss_hdemo_sk").unwrap();
        let truth = data
            .true_join_selectivity((ss, ss_hd_col), (hd, 0))
            .unwrap();
        analyze::analyze(&mut cat, &data, 32);
        let est = rqp_catalog::ColumnStats::join_selectivity(
            &cat.table(ss).columns[ss_hd_col].stats,
            &cat.table(hd).columns[0].stats,
        );
        assert!(
            truth / est > error * 0.4,
            "post-ANALYZE estimate {est} must still miss the truth {truth}"
        );
    }

    #[test]
    fn zipf_exponent_solver_hits_targets() {
        for n in [100u64, 10_000] {
            // s = 0 ⇒ uniform ⇒ selectivity 1/n
            assert!(zipf_exponent_for(n, 1.0 / n as f64) < 0.05);
            for mult in [5.0, 50.0] {
                let target = mult / n as f64;
                let s = zipf_exponent_for(n, target);
                assert!(s > 0.0 && s < 20.0);
                // verify by recomputing Σp²
                let mut norm = 0.0;
                let mut sq = 0.0;
                for k in 0..n {
                    let w = 1.0 / ((k + 1) as f64).powf(s);
                    norm += w;
                    sq += w * w;
                }
                let got = sq / (norm * norm);
                assert!(
                    (got - target).abs() / target < 0.02,
                    "n={n} mult={mult}: p2 {got} vs target {target}"
                );
            }
        }
    }

    #[test]
    fn executable_genspec_materializes_and_plants_selectivities() {
        let cat = tpcds::catalog(0.002);
        let query = crate::tpcds_queries::q96(&cat);
        let spec = executable_genspec(&cat, &query, 7);
        let data = DataSet::generate(&cat, &spec).unwrap();
        // every query relation materialized
        for &tid in &query.relations {
            assert!(data.table(tid).is_some());
        }
        // the ss⋈hd join selectivity lands near 1/|hd|
        let ss = cat.table_id("store_sales").unwrap();
        let hd = cat.table_id("household_demographics").unwrap();
        let hd_rows = cat.table(hd).rows as f64;
        let ss_hd_col = cat.table(ss).col_id("ss_hdemo_sk").unwrap();
        let sel = data
            .true_join_selectivity((ss, ss_hd_col), (hd, 0))
            .unwrap();
        let expect = 1.0 / hd_rows;
        assert!(
            (sel - expect).abs() / expect < 0.5,
            "planted sel {sel} vs 1/|hd| {expect}"
        );
    }
}

/// Restricts a query to its first `d` error-prone predicates — the
/// `xD_Qz` convention applied uniformly (Fig. 9 does exactly this for
/// Q91). The join graph is untouched; only the ESS dimensionality drops.
///
/// # Panics
/// Panics if `d` is zero or exceeds the query's epp count.
pub fn with_first_epps(query: &QuerySpec, d: usize) -> QuerySpec {
    assert!(d >= 1 && d <= query.ndims(), "d must be in 1..=D");
    let mut q = query.clone();
    q.epps.truncate(d);
    q.name = format!(
        "{}D_{}",
        d,
        q.name.split('_').next_back().unwrap_or(&q.name)
    );
    q
}

/// The full dimensionality matrix: every suite query at every
/// dimensionality from 2 to its native D. Useful for scaling studies
/// beyond the paper's Fig. 9 (which sweeps only Q91).
pub fn dimensionality_matrix(catalog: &Catalog) -> Vec<BenchQuery> {
    let mut out = Vec::new();
    for b in paper_suite(catalog) {
        for d in 2..=b.query.ndims() {
            let query = with_first_epps(&b.query, d);
            out.push(BenchQuery {
                grid_points: default_grid_points(d),
                min_sel: b.min_sel,
                query,
            });
        }
    }
    // distinct names only (e.g. 4D_Q91 appears both natively and as a
    // restriction of 6D_Q91)
    out.sort_by(|a, b| a.query.name.cmp(&b.query.name));
    out.dedup_by(|a, b| a.query.name == b.query.name);
    out
}

#[cfg(test)]
mod matrix_tests {
    use super::*;
    use rqp_catalog::tpcds;

    #[test]
    fn with_first_epps_restricts_dimensions() {
        let cat = tpcds::catalog_sf100();
        let q6 = crate::tpcds_queries::q91(&cat, 6);
        for d in 2..=6 {
            let q = with_first_epps(&q6, d);
            assert_eq!(q.ndims(), d);
            assert_eq!(q.name, format!("{d}D_Q91"));
            q.validate(&cat).unwrap();
            // restricted epps are a prefix of the original
            assert_eq!(&q.epps[..], &q6.epps[..d]);
        }
    }

    #[test]
    #[should_panic(expected = "d must be in 1..=D")]
    fn with_first_epps_rejects_zero() {
        let cat = tpcds::catalog_sf100();
        let q = crate::tpcds_queries::q96(&cat);
        let _ = with_first_epps(&q, 0);
    }

    #[test]
    fn dimensionality_matrix_is_deduped_and_valid() {
        let cat = tpcds::catalog_sf100();
        let matrix = dimensionality_matrix(&cat);
        // names unique
        let mut names: Vec<&str> = matrix.iter().map(|b| b.name()).collect();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(total > 11, "matrix strictly larger than the native suite");
        for b in &matrix {
            b.query.validate(&cat).unwrap();
            assert_eq!(b.grid_points, default_grid_points(b.query.ndims()));
        }
        // the 2..6 Q91 ladder is present
        for d in 2..=6 {
            assert!(names.contains(&format!("{d}D_Q91").as_str()));
        }
    }
}
