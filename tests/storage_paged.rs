//! The paged backend must be indistinguishable from the in-memory one.
//!
//! Property layer: the slotted-page codec round-trips arbitrary tuple
//! batches bit-exactly, any single-byte corruption surfaces as a typed
//! error (never wrong data), and the buffer pool never evicts a pinned
//! frame no matter the access pattern. Differential layer: SpillBound /
//! AlignedBound / PlanBouquet discovery runs — budgets, outcomes, learnt
//! selectivities, total costs — are bit-identical between the two
//! `TableStore` backends on the 2D and 4D Q91 suite, even with a pool
//! far smaller than the working set.

use proptest::prelude::*;
use rqp::catalog::tpcds;
use rqp::core::{AlignedBound, PlanBouquet, SpillBound};
use rqp::ess::EssSurface;
use rqp::executor::reference::Executor;
use rqp::executor::{DataStore, Engine, PlanEngine, TableStore};
use rqp::obs::{MetricValue, MetricsRegistry};
use rqp::optimizer::{
    CostParams, EnumerationMode, JoinMethod, Optimizer, PlanNode, PredicateKind, ScanMethod,
};
use rqp::runner::{measure_qa, ExecOracle};
use rqp::storage::{BufferPool, FileId, PageBuf, PagedStore, StorageConfig, StorageError};
use rqp::workloads::{executable_genspec_with_errors, q91_with_dims};
use rqp_catalog::DataSet;
use rqp_common::MultiGrid;

// ---------------------------------------------------------------- codec

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// batch -> page -> bytes -> page -> batch is the identity, for any
    /// tuple content, width, and page size.
    #[test]
    fn page_round_trips_any_batch(
        ncols in 1usize..6,
        page_size in 128usize..4096,
        seed_rows in proptest::collection::vec(any::<i64>(), 0..256),
    ) {
        let cap = PageBuf::capacity(page_size, ncols);
        prop_assert!(cap > 0, "128 B pages hold at least one 5-column tuple");
        let rows: Vec<Vec<i64>> = seed_rows
            .chunks_exact(ncols)
            .take(cap)
            .map(|c| c.to_vec())
            .collect();
        let mut page = PageBuf::new(page_size, ncols, 7);
        for r in &rows {
            prop_assert!(page.push(r), "within capacity");
        }
        page.seal();
        let back = PageBuf::from_bytes(page.bytes().to_vec(), "t", 7).expect("sealed page loads");
        prop_assert_eq!(back.ntuples(), rows.len());
        let mut out = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            out.clear();
            back.read_row(i, &mut out);
            prop_assert_eq!(&out, r);
        }
    }

    /// Any single corrupted byte is a typed error — a checksum mismatch,
    /// or a structural `Corrupt` when the magic/version itself is hit.
    /// Never silently wrong data: the checksum covers every page byte.
    #[test]
    fn single_byte_corruption_is_typed(
        ncols in 1usize..4,
        rows in proptest::collection::vec(any::<i64>(), 1..64),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let page_size = 1024;
        let cap = PageBuf::capacity(page_size, ncols);
        let mut page = PageBuf::new(page_size, ncols, 3);
        for chunk in rows.chunks_exact(ncols).take(cap) {
            page.push(chunk);
        }
        page.seal();
        let mut bytes = page.bytes().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        match PageBuf::from_bytes(bytes, "t", 3) {
            Err(StorageError::ChecksumMismatch { .. } | StorageError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            Ok(_) => prop_assert!(false, "corrupted page loaded cleanly"),
        }
    }
}

// ----------------------------------------------------------------- pool

/// Minimal self-cleaning temp dir (no external crates).
struct TempDir {
    path: std::path::PathBuf,
}

impl TempDir {
    fn new(prefix: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

const POOL_PAGE: usize = 256;

/// Writes `pages` sealed single-column pages to a heap file and registers
/// it with a fresh `frames`-frame pool. Page `p`'s first value is
/// `p * capacity`.
fn pool_with_file(frames: usize, pages: usize) -> (BufferPool, FileId, TempDir) {
    let dir = TempDir::new("rqp-paged-test");
    let registry = MetricsRegistry::new();
    let pool = BufferPool::new(
        StorageConfig::default()
            .with_page_size(POOL_PAGE)
            .with_pool_frames(frames),
        &registry,
    )
    .expect("pool");
    let cap = PageBuf::capacity(POOL_PAGE, 1);
    let mut bytes = Vec::new();
    for p in 0..pages {
        let mut page = PageBuf::new(POOL_PAGE, 1, p as u64);
        for i in 0..cap {
            page.push(&[(p * cap + i) as i64]);
        }
        page.seal();
        bytes.extend_from_slice(page.bytes());
    }
    let path = dir.path.join("t.rqp");
    std::fs::write(&path, bytes).expect("write heap file");
    let file = pool.register_file(&path, "t").expect("register");
    (pool, file, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under any access pattern, pinned frames survive eviction
    /// pressure: a held pin keeps serving its original page contents
    /// while other accesses churn the rest of a 4-frame pool.
    #[test]
    fn pinned_frames_survive_any_access_pattern(
        accesses in proptest::collection::vec(0usize..24, 1..128),
        hold in 0usize..24,
    ) {
        let (pool, file, _dir) = pool_with_file(4, 24);
        let cap = PageBuf::capacity(POOL_PAGE, 1);
        let held = pool.pin(file, hold as u64).expect("pin held page");
        for &p in &accesses {
            let pin = pool.pin(file, p as u64).expect("pin");
            let v = pin.with(|page| page.value(0, 0));
            prop_assert_eq!(v, (p * cap) as i64);
        }
        // The held pin still reads its original page after the churn.
        let v = held.with(|page| page.value(0, 0));
        prop_assert_eq!(v, (hold * cap) as i64);
    }
}

/// With every frame pinned there is no victim: the next distinct pin is
/// the typed `PoolExhausted`, and unpinning frees the pool again.
#[test]
fn exhausted_pool_is_typed_and_recovers() {
    let (pool, file, _dir) = pool_with_file(3, 8);
    let pins: Vec<_> = (0..3)
        .map(|p| pool.pin(file, p).expect("pin within budget"))
        .collect();
    match pool.pin(file, 5) {
        Err(StorageError::PoolExhausted { frames: 3 }) => {}
        other => panic!("expected PoolExhausted, got {other:?}"),
    }
    drop(pins);
    let pin = pool.pin(file, 5).expect("pin after unpinning");
    let cap = PageBuf::capacity(POOL_PAGE, 1);
    assert_eq!(pin.with(|page| page.value(0, 0)), (5 * cap) as i64);
}

// ---------------------------------------------------------- differential

struct Backends {
    catalog: &'static rqp::catalog::Catalog,
    query: &'static rqp::optimizer::QuerySpec,
    grid: MultiGrid,
    mem: DataStore,
    paged: PagedStore,
}

/// Materializes one dataset into both backends with a pool (32 frames)
/// far smaller than the working set, so the paged runs really evict.
fn backends(dims: usize, errors: &[f64], points: usize) -> Backends {
    let catalog: &'static _ = Box::leak(Box::new(tpcds::catalog(0.05)));
    let bench = q91_with_dims(catalog, dims);
    let query: &'static _ = Box::leak(Box::new(bench.query.clone()));
    let spec = executable_genspec_with_errors(catalog, query, 42, errors);
    let data = DataSet::generate(catalog, &spec).expect("generate");
    let config = StorageConfig::default().with_pool_frames(32);
    let paged = PagedStore::materialize(catalog, &data, config).expect("materialize");
    let mem = DataStore::new(catalog, data);
    Backends {
        catalog,
        query,
        grid: MultiGrid::uniform(dims, 1e-7, points),
        mem,
        paged,
    }
}

/// Runs all three discovery algorithms over `store`, returning the
/// serialized reports. serde_json round-trips f64 exactly, so string
/// equality is bit equality for every budget, spent cost, and learnt
/// selectivity in the report.
fn discovery_reports(bk: &Backends, store: &dyn TableStore) -> Vec<String> {
    let opt = Optimizer::new(
        bk.catalog,
        bk.query,
        CostParams::default(),
        EnumerationMode::LeftDeep,
    )
    .expect("valid query");
    let surface = EssSurface::build(&opt, bk.grid.clone());
    let mut out = Vec::new();
    for algo in ["sb", "ab", "pb"] {
        let exec = Engine::new(bk.catalog, bk.query, store, CostParams::default());
        let mut oracle = ExecOracle::new(exec, &opt, surface.grid());
        let report = match algo {
            "sb" => SpillBound::new(&surface, &opt, 2.0).run(&mut oracle),
            "ab" => AlignedBound::new(&surface, &opt, 2.0).run(&mut oracle),
            _ => PlanBouquet::new(&surface, &opt, 2.0, 0.2).run(&mut oracle),
        }
        .unwrap_or_else(|e| panic!("{algo} completes: {e}"));
        out.push(format!(
            "{algo} {} {}",
            report.total_cost.to_bits(),
            serde_json::to_string(&report).expect("serialize report")
        ));
    }
    out
}

fn pool_counter(store: &PagedStore, name: &str) -> u64 {
    store
        .registry()
        .snapshot()
        .into_iter()
        .find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(c),
            _ => None,
        })
        .unwrap_or(0)
}

fn assert_backends_agree(dims: usize, errors: &[f64], points: usize) {
    let bk = backends(dims, errors, points);
    let qa_mem: Vec<u64> = measure_qa(&bk.mem, bk.query)
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let qa_paged: Vec<u64> = measure_qa(&bk.paged, bk.query)
        .iter()
        .map(|s| s.to_bits())
        .collect();
    assert_eq!(qa_mem, qa_paged, "{dims}D ground truth diverged");
    let mem_reports = discovery_reports(&bk, &bk.mem);
    let paged_reports = discovery_reports(&bk, &bk.paged);
    assert_eq!(
        mem_reports, paged_reports,
        "{dims}D discovery reports diverged between backends"
    );
    // The paged runs really went out of core.
    assert!(
        pool_counter(&bk.paged, "storage.pool.evictions") > 0,
        "{dims}D paged run never evicted — pool not smaller than working set"
    );
}

#[test]
fn backends_bit_identical_2d() {
    assert_backends_agree(2, &[50.0, 20.0], 12);
}

#[test]
fn backends_bit_identical_4d() {
    assert_backends_agree(4, &[30.0, 10.0, 50.0, 20.0], 6);
}

/// The batch engine matches the reference engine over the paged backend
/// bit for bit — same row counts, same metered cost to the last bit —
/// for every join method, exercising the cursor-based batch scan path
/// against the in-memory gather path. (Ledger metering makes the two
/// engines' cost accumulation identical, not merely close.)
#[test]
fn batch_engine_matches_row_engine_on_paged_store() {
    let bk = backends(2, &[50.0, 20.0], 8);
    // First join predicate of the query, as a standalone two-scan plan.
    let (pid, left, right, right_col) = bk
        .query
        .predicates
        .iter()
        .enumerate()
        .find_map(|(pid, p)| match p.kind {
            PredicateKind::Join {
                left,
                right,
                right_col,
                ..
            } => Some((pid, left, right, right_col)),
            _ => None,
        })
        .expect("q91 has a join predicate");
    let mut methods = vec![
        JoinMethod::HashJoin,
        JoinMethod::SortMergeJoin,
        JoinMethod::NestedLoopJoin,
    ];
    // Index nested-loop needs an index on the inner join column.
    let inner_table = bk.catalog.table(bk.query.relations[right]);
    if inner_table.columns[right_col].indexed {
        methods.push(JoinMethod::IndexNLJoin);
    }
    for method in methods {
        let plan = PlanNode::Join {
            method,
            left: Box::new(PlanNode::Scan {
                rel: left,
                method: ScanMethod::SeqScan,
                filters: vec![],
            }),
            right: Box::new(PlanNode::Scan {
                rel: right,
                method: ScanMethod::SeqScan,
                filters: vec![],
            }),
            preds: vec![pid],
        };
        let rows = Executor::new(bk.catalog, bk.query, &bk.paged, CostParams::default())
            .run_full(&plan, f64::INFINITY)
            .expect("row engine");
        let vecs = Engine::new(bk.catalog, bk.query, &bk.paged, CostParams::default())
            .run_full(&plan, f64::INFINITY)
            .expect("batch engine");
        assert_eq!(rows.rows_out, vecs.rows_out, "{method:?} row count");
        assert_eq!(
            rows.spent.to_bits(),
            vecs.spent.to_bits(),
            "{method:?} metering diverged: {} vs {}",
            rows.spent,
            vecs.spent
        );
        // And within the batch engine, backends must agree bitwise too.
        let mem = Engine::new(bk.catalog, bk.query, &bk.mem, CostParams::default())
            .run_full(&plan, f64::INFINITY)
            .expect("batch engine, in-memory");
        assert_eq!(mem.rows_out, vecs.rows_out, "{method:?} backend rows");
        assert_eq!(
            mem.spent.to_bits(),
            vecs.spent.to_bits(),
            "{method:?} backend bits"
        );
    }
}

/// `RQP_PAGE_SIZE` / `RQP_POOL_FRAMES` env knobs reject invalid values
/// with typed errors instead of silently falling back. (This is the only
/// test in this binary touching these vars.)
#[test]
fn env_knobs_are_typed() {
    std::env::set_var(rqp::storage::ENV_POOL_FRAMES, "not-a-number");
    match StorageConfig::from_env() {
        Err(StorageError::Config(msg)) => assert!(msg.contains(rqp::storage::ENV_POOL_FRAMES)),
        other => panic!("expected a typed config error, got {other:?}"),
    }
    std::env::set_var(rqp::storage::ENV_POOL_FRAMES, "128");
    std::env::set_var(rqp::storage::ENV_PAGE_SIZE, "4096");
    let cfg = StorageConfig::from_env().expect("valid env");
    assert_eq!((cfg.page_size, cfg.pool_frames), (4096, 128));
    std::env::remove_var(rqp::storage::ENV_POOL_FRAMES);
    std::env::remove_var(rqp::storage::ENV_PAGE_SIZE);
}
