//! SPJ query specifications and selectivity assignments.

use rqp_catalog::{Catalog, ColId, TableId};
use rqp_common::{Result, RqpError, Selectivity};
use serde::{Deserialize, Serialize};

/// Index of a relation *within a query* (not a catalog [`TableId`]).
pub type RelIdx = usize;

/// Index of a predicate within [`QuerySpec::predicates`].
pub type PredId = usize;

/// The kinds of predicates an SPJ query can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredicateKind {
    /// Equi-join `rel_l.col_l = rel_r.col_r`.
    Join {
        /// Left relation (query-local index).
        left: RelIdx,
        /// Column on the left relation.
        left_col: ColId,
        /// Right relation (query-local index).
        right: RelIdx,
        /// Column on the right relation.
        right_col: ColId,
    },
    /// Range filter `rel.col <= value`.
    FilterLe {
        /// Filtered relation.
        rel: RelIdx,
        /// Filtered column.
        col: ColId,
        /// Constant bound.
        value: i64,
    },
    /// Equality filter `rel.col = value`.
    FilterEq {
        /// Filtered relation.
        rel: RelIdx,
        /// Filtered column.
        col: ColId,
        /// Constant.
        value: i64,
    },
}

impl PredicateKind {
    /// The relations this predicate touches.
    pub fn relations(&self) -> (RelIdx, Option<RelIdx>) {
        match *self {
            PredicateKind::Join { left, right, .. } => (left, Some(right)),
            PredicateKind::FilterLe { rel, .. } | PredicateKind::FilterEq { rel, .. } => {
                (rel, None)
            }
        }
    }

    /// True for join predicates.
    pub fn is_join(&self) -> bool {
        matches!(self, PredicateKind::Join { .. })
    }
}

/// A named predicate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Predicate {
    /// Human-readable label (used in traces and experiment output).
    pub label: String,
    /// Structural definition.
    pub kind: PredicateKind,
}

/// An SPJ query: a set of base relations, a connected join graph, filters,
/// and the subset of predicates designated error-prone (the ESS axes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Query name (e.g. `"4D_Q91"`).
    pub name: String,
    /// Base relations; `relations[i]` is the catalog table backing
    /// query-local relation `i`.
    pub relations: Vec<TableId>,
    /// All predicates (joins and filters).
    pub predicates: Vec<Predicate>,
    /// Error-prone predicates, in ESS-dimension order: `epps[j]` is the
    /// predicate whose selectivity is dimension `j`.
    pub epps: Vec<PredId>,
}

impl QuerySpec {
    /// Number of ESS dimensions (`D` in the paper).
    pub fn ndims(&self) -> usize {
        self.epps.len()
    }

    /// The ESS dimension of predicate `p`, if it is an epp.
    pub fn dim_of(&self, p: PredId) -> Option<usize> {
        self.epps.iter().position(|&e| e == p)
    }

    /// Filter predicates local to relation `rel`.
    pub fn filters_of(&self, rel: RelIdx) -> impl Iterator<Item = PredId> + '_ {
        self.predicates
            .iter()
            .enumerate()
            .filter(move |(_, p)| !p.kind.is_join() && p.kind.relations().0 == rel)
            .map(|(i, _)| i)
    }

    /// Renders the query as SQL text (diagnostics, docs, traces). Error-
    /// prone predicates are flagged with a trailing comment.
    pub fn to_sql(&self, catalog: &Catalog) -> String {
        use std::fmt::Write as _;
        let alias = |r: RelIdx| format!("r{r}");
        let col = |r: RelIdx, c: ColId| {
            format!(
                "{}.{}",
                alias(r),
                catalog.table(self.relations[r]).columns[c].name
            )
        };
        let mut sql = String::from("SELECT COUNT(*)\nFROM ");
        let froms: Vec<String> = self
            .relations
            .iter()
            .enumerate()
            .map(|(r, &tid)| format!("{} AS {}", catalog.table(tid).name, alias(r)))
            .collect();
        let _ = write!(sql, "{}", froms.join(", "));
        let mut conds = Vec::new();
        for (i, p) in self.predicates.iter().enumerate() {
            let epp = match self.dim_of(i) {
                Some(j) => format!("  -- epp, ESS dim {j}"),
                None => String::new(),
            };
            let cond = match p.kind {
                PredicateKind::Join {
                    left,
                    left_col,
                    right,
                    right_col,
                } => format!("{} = {}{epp}", col(left, left_col), col(right, right_col)),
                PredicateKind::FilterLe { rel, col: c, value } => {
                    format!("{} <= {value}{epp}", col(rel, c))
                }
                PredicateKind::FilterEq { rel, col: c, value } => {
                    format!("{} = {value}{epp}", col(rel, c))
                }
            };
            conds.push(cond);
        }
        if !conds.is_empty() {
            let _ = write!(sql, "\nWHERE {}", conds.join("\n  AND "));
        }
        sql.push(';');
        sql
    }

    /// Validates the specification against a catalog.
    ///
    /// Checks: at most 16 relations (DP bitmask width), all column
    /// references resolve, the join graph is connected, epps are distinct
    /// valid predicate ids.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        if self.relations.is_empty() {
            return Err(RqpError::InvalidQuery("no relations".into()));
        }
        if self.relations.len() > 16 {
            return Err(RqpError::InvalidQuery(format!(
                "{} relations exceeds the 16-relation DP limit",
                self.relations.len()
            )));
        }
        let check_col = |rel: RelIdx, col: ColId| -> Result<()> {
            let tid = *self.relations.get(rel).ok_or_else(|| {
                RqpError::InvalidQuery(format!("predicate references relation #{rel}"))
            })?;
            if col >= catalog.table(tid).columns.len() {
                return Err(RqpError::InvalidQuery(format!(
                    "column #{col} out of range for table {}",
                    catalog.table(tid).name
                )));
            }
            Ok(())
        };
        for p in &self.predicates {
            match p.kind {
                PredicateKind::Join {
                    left,
                    left_col,
                    right,
                    right_col,
                } => {
                    if left == right {
                        return Err(RqpError::InvalidQuery(format!(
                            "self-join predicate {} joins relation to itself",
                            p.label
                        )));
                    }
                    check_col(left, left_col)?;
                    check_col(right, right_col)?;
                }
                PredicateKind::FilterLe { rel, col, .. }
                | PredicateKind::FilterEq { rel, col, .. } => check_col(rel, col)?,
            }
        }
        // Connectivity over join edges.
        let n = self.relations.len();
        let mut reach = vec![false; n];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(r) = stack.pop() {
            for p in &self.predicates {
                if let PredicateKind::Join { left, right, .. } = p.kind {
                    for (a, b) in [(left, right), (right, left)] {
                        if a == r && !reach[b] {
                            reach[b] = true;
                            stack.push(b);
                        }
                    }
                }
            }
        }
        if !reach.iter().all(|&r| r) {
            return Err(RqpError::InvalidQuery("join graph is disconnected".into()));
        }
        // epps distinct and valid.
        for (j, &e) in self.epps.iter().enumerate() {
            if e >= self.predicates.len() {
                return Err(RqpError::InvalidQuery(format!("epp #{j} out of range")));
            }
            if self.epps[..j].contains(&e) {
                return Err(RqpError::InvalidQuery(format!(
                    "duplicate epp {}",
                    self.predicates[e].label
                )));
            }
        }
        Ok(())
    }
}

/// A full selectivity assignment: one value per predicate.
///
/// Non-epp predicates keep their statistics-derived values (assumed
/// accurate, per the paper's framework); epp values are *injected* by the
/// caller — this is the engine's "selectivity injection" feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sels(pub Vec<Selectivity>);

impl Sels {
    /// Selectivity of predicate `p`.
    #[inline]
    pub fn get(&self, p: PredId) -> Selectivity {
        self.0[p]
    }

    /// Sets the selectivity of predicate `p`.
    #[inline]
    pub fn set(&mut self, p: PredId, s: Selectivity) {
        self.0[p] = s;
    }

    /// Builds the assignment for ESS location `epp_sels`, leaving non-epp
    /// predicates at their `base` values.
    pub fn inject(base: &Sels, query: &QuerySpec, epp_sels: &[Selectivity]) -> Sels {
        assert_eq!(epp_sels.len(), query.epps.len());
        let mut out = base.clone();
        for (j, &p) in query.epps.iter().enumerate() {
            out.set(p, epp_sels[j]);
        }
        out
    }
}

/// Computes statistics-derived base selectivities for every predicate.
pub fn base_selectivities(catalog: &Catalog, query: &QuerySpec) -> Sels {
    let sels = query
        .predicates
        .iter()
        .map(|p| match p.kind {
            PredicateKind::Join {
                left,
                left_col,
                right,
                right_col,
            } => {
                let ls = &catalog.table(query.relations[left]).columns[left_col].stats;
                let rs = &catalog.table(query.relations[right]).columns[right_col].stats;
                rqp_catalog::ColumnStats::join_selectivity(ls, rs)
            }
            PredicateKind::FilterLe { rel, col, value } => {
                catalog.table(query.relations[rel]).columns[col]
                    .stats
                    .le_selectivity(value)
                    .max(rqp_common::EPS)
            }
            PredicateKind::FilterEq { rel, col, .. } => catalog.table(query.relations[rel]).columns
                [col]
                .stats
                .eq_selectivity(),
        })
        .collect();
    Sels(sels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{Column, ColumnStats, DataType, Table};

    fn cat3() -> Catalog {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 1000u64), ("b", 500), ("c", 200)] {
            cat.add_table(Table::new(
                name,
                rows,
                vec![
                    Column::new("k", DataType::Int, ColumnStats::uniform(rows)),
                    Column::new("v", DataType::Int, ColumnStats::uniform(100)),
                ],
            ))
            .unwrap();
        }
        cat
    }

    fn join(l: RelIdx, r: RelIdx) -> Predicate {
        Predicate {
            label: format!("j{l}{r}"),
            kind: PredicateKind::Join {
                left: l,
                left_col: 0,
                right: r,
                right_col: 0,
            },
        }
    }

    #[test]
    fn chain_query_validates() {
        let cat = cat3();
        let q = QuerySpec {
            name: "chain".into(),
            relations: vec![0, 1, 2],
            predicates: vec![join(0, 1), join(1, 2)],
            epps: vec![0, 1],
        };
        q.validate(&cat).unwrap();
        assert_eq!(q.ndims(), 2);
        assert_eq!(q.dim_of(0), Some(0));
        assert_eq!(q.dim_of(1), Some(1));
    }

    #[test]
    fn disconnected_rejected() {
        let cat = cat3();
        let q = QuerySpec {
            name: "disc".into(),
            relations: vec![0, 1, 2],
            predicates: vec![join(0, 1)],
            epps: vec![0],
        };
        assert!(q.validate(&cat).is_err());
    }

    #[test]
    fn self_join_rejected() {
        let cat = cat3();
        let q = QuerySpec {
            name: "self".into(),
            relations: vec![0],
            predicates: vec![join(0, 0)],
            epps: vec![],
        };
        assert!(q.validate(&cat).is_err());
    }

    #[test]
    fn duplicate_epp_rejected() {
        let cat = cat3();
        let q = QuerySpec {
            name: "dup".into(),
            relations: vec![0, 1],
            predicates: vec![join(0, 1)],
            epps: vec![0, 0],
        };
        assert!(q.validate(&cat).is_err());
    }

    #[test]
    fn bad_column_rejected() {
        let cat = cat3();
        let q = QuerySpec {
            name: "badcol".into(),
            relations: vec![0, 1],
            predicates: vec![Predicate {
                label: "j".into(),
                kind: PredicateKind::Join {
                    left: 0,
                    left_col: 9,
                    right: 1,
                    right_col: 0,
                },
            }],
            epps: vec![],
        };
        assert!(q.validate(&cat).is_err());
    }

    #[test]
    fn base_sels_and_injection() {
        let cat = cat3();
        let q = QuerySpec {
            name: "q".into(),
            relations: vec![0, 1],
            predicates: vec![
                join(0, 1),
                Predicate {
                    label: "f".into(),
                    kind: PredicateKind::FilterLe {
                        rel: 0,
                        col: 1,
                        value: 24,
                    },
                },
            ],
            epps: vec![0],
        };
        let base = base_selectivities(&cat, &q);
        // join: 1/max(1000, 500)
        assert!((base.get(0) - 1e-3).abs() < 1e-12);
        // filter: 25/100
        assert!((base.get(1) - 0.25).abs() < 1e-12);
        let injected = Sels::inject(&base, &q, &[0.5]);
        assert_eq!(injected.get(0), 0.5);
        assert_eq!(injected.get(1), base.get(1));
    }
}

#[cfg(test)]
mod sql_tests {
    use super::*;
    use rqp_catalog::{Column, ColumnStats, DataType, Table};

    #[test]
    fn renders_sql_with_epp_annotations() {
        let mut cat = Catalog::new();
        for (name, rows) in [("orders", 1000u64), ("lineitem", 5000)] {
            cat.add_table(Table::new(
                name,
                rows,
                vec![
                    Column::new("k", DataType::Int, ColumnStats::uniform(rows)),
                    Column::new("price", DataType::Int, ColumnStats::uniform(100)),
                ],
            ))
            .unwrap();
        }
        let q = QuerySpec {
            name: "sqltest".into(),
            relations: vec![0, 1],
            predicates: vec![
                Predicate {
                    label: "j".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 0,
                        right: 1,
                        right_col: 0,
                    },
                },
                Predicate {
                    label: "f".into(),
                    kind: PredicateKind::FilterLe {
                        rel: 1,
                        col: 1,
                        value: 42,
                    },
                },
            ],
            epps: vec![0],
        };
        let sql = q.to_sql(&cat);
        assert!(sql.contains("FROM orders AS r0, lineitem AS r1"));
        assert!(sql.contains("r0.k = r1.k  -- epp, ESS dim 0"));
        assert!(sql.contains("r1.price <= 42"));
        assert!(sql.ends_with(';'));
        assert!(!sql.contains("price <= 42  -- epp"));
    }
}
