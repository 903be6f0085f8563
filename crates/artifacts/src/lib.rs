//! Persistent store for compiled robust-query artifacts.
//!
//! The paper's robustness guarantees rest on an expensive offline
//! compilation step — POSP enumeration over the ESS grid, iso-cost
//! contour construction, anorexic reduction, and (since PR 1) the dense
//! plan×location [`CostMatrix`] — that §7 explicitly suggests amortizing:
//! "for canned queries, it may be feasible to carry out an offline
//! enumeration". This crate makes that amortization concrete: a
//! [`CompiledArtifact`] bundles everything the online algorithms need,
//! and persists it in a versioned, integrity-checked on-disk format so a
//! query template is compiled once and warm-started from disk thereafter.
//!
//! # File format
//!
//! An artifact file is two lines of UTF-8 text:
//!
//! ```text
//! {"magic":"rqp-artifact","version":1,"checksum":"<16-hex-digit 8-lane FNV-1a>","payload_len":N}
//! <payload: compact JSON of CompiledArtifact, exactly N bytes>
//! ```
//!
//! The header is a single JSON line; the payload is everything after the
//! first newline. The checksum is [`checksum64`] (8-lane FNV-1a 64) over
//! the raw payload bytes, hex-encoded — a string, not a JSON number,
//! because the vendored `serde` shim carries numbers as `f64` and u64
//! checksums exceed 2^53.
//! Loading validates magic → version → length → checksum → decode →
//! structural invariants, and every failure surfaces as a typed
//! [`ArtifactError`]; nothing in the load path panics on bad input.
//!
//! Float fields round-trip bit-exactly: the `serde_json` shim renders
//! floats with Rust's shortest-round-trip `Display`, so a loaded artifact
//! evaluates bit-identically to the freshly compiled one (property-tested
//! in `tests/artifact_roundtrip.rs` at the workspace root).

use rqp_common::{Cost, GridIdx, MultiGrid};
use rqp_ess::anorexic::{reduce_all_with, ReducedContour};
use rqp_ess::{ContourSet, EssSurface, LazySurface};
use rqp_faults::{crash, FaultPlan, FaultSite};
use rqp_obs::{TraceEvent, Tracer};
use rqp_optimizer::cost_matrix::{decode_cells_hex, encode_cells_hex, PackedJson};
use rqp_optimizer::{CostMatrix, Optimizer, PlanId, PlanPool, QuerySpec, SparseCostMatrix};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic string identifying an rqp artifact file.
pub const MAGIC: &str = "rqp-artifact";

/// On-disk format version of dense [`CompiledArtifact`] payloads. Bump on
/// any incompatible change to its serialized shape.
pub const FORMAT_VERSION: u32 = 1;

/// On-disk format version of sparse [`SparseArtifact`] payloads: same
/// envelope (header line, checksum), different payload shape — only the
/// cells a lazy compile actually materialized are persisted. Version-1
/// readers reject these files with a typed error; [`load_any`] dispatches
/// on the header version and reads both.
pub const SPARSE_FORMAT_VERSION: u32 = 2;

/// Typed artifact-store failure. Every load-path failure maps to one of
/// these; the load path never panics on malformed input.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure (open/read/write/rename).
    Io(String),
    /// The file's first line is not a well-formed artifact header.
    BadHeader(String),
    /// The header's magic string is not [`MAGIC`] — not an rqp artifact.
    BadMagic(String),
    /// The header declares a format version this build cannot read.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The payload is shorter than the header promised.
    Truncated { expected: usize, found: usize },
    /// The payload's FNV-1a checksum does not match the header.
    ChecksumMismatch { expected: String, found: String },
    /// The payload is not a decodable `CompiledArtifact`.
    Decode(String),
    /// The payload decoded but violates a structural invariant (e.g. a
    /// cost-matrix shape that contradicts the surface).
    Invalid(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(m) => write!(f, "artifact io error: {m}"),
            ArtifactError::BadHeader(m) => write!(f, "bad artifact header: {m}"),
            ArtifactError::BadMagic(found) => {
                write!(f, "bad magic `{found}` (expected `{MAGIC}`)")
            }
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (supported: {supported})"
                )
            }
            ArtifactError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated payload: header promised {expected} bytes, found {found}"
                )
            }
            ArtifactError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: header says {expected}, payload hashes to {found}"
                )
            }
            ArtifactError::Decode(m) => write!(f, "artifact payload decode: {m}"),
            ArtifactError::Invalid(m) => write!(f, "artifact invariant violated: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e.to_string())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 8-lane FNV-1a 64-bit checksum of a byte slice.
///
/// Byte `i` feeds lane `i mod 8` of an ordinary FNV-1a chain; the eight
/// lane hashes plus the input length are then folded through one final
/// FNV-1a pass. Same diffusion family the plan pool uses for
/// fingerprints, but the eight independent multiply chains let the CPU
/// pipeline them — a serial FNV over a multi-megabyte payload would
/// otherwise dominate warm artifact loads.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 8];
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, &b) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    for (lane, &b) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    let mut h = FNV_OFFSET;
    for byte in lanes
        .iter()
        .flat_map(|lane| lane.to_le_bytes())
        .chain((bytes.len() as u64).to_le_bytes())
    {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The artifact file header — the first line of the file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    /// Hex-encoded [`checksum64`] of the payload bytes (string, not
    /// number: the serde shim's f64 numbers cannot carry u64 exactly).
    checksum: String,
    payload_len: usize,
}

/// Wraps a payload in the on-disk envelope, header line + raw payload, in
/// one buffer of the final size: the payload is rendered behind the room
/// the header needs, checksummed in place, and the header written last.
fn seal(version: u32, payload: &PackedJson<'_>) -> Vec<u8> {
    let payload_len = payload.rendered_len();
    let header_line = |checksum: u64| {
        let header = Header {
            magic: MAGIC.into(),
            version,
            checksum: format!("{checksum:016x}"),
            payload_len,
        };
        serde_json::to_string(&header).expect("header serializes") + "\n"
    };
    let start = header_line(0).len();
    let mut out = vec![0u8; start + payload_len];
    payload.write_into(&mut out[start..]);
    let header = header_line(checksum64(&out[start..]));
    out[..start].copy_from_slice(header.as_bytes());
    out
}

/// Appends the member `"name":<compact JSON of value>`.
fn member<T: Serialize>(json: &mut PackedJson<'_>, name: &str, value: &T) {
    json.key(name);
    json.raw(&serde_json::to_string(value).expect("artifact field serializes"));
}

/// Validates the envelope — header shape, magic, payload length, checksum
/// — and returns the declared format version plus the payload text.
/// Version interpretation is the caller's job (each decoder checks its
/// own; [`load_any`] dispatches). Never panics on malformed input.
fn open_envelope(bytes: &[u8]) -> Result<(u32, &str), ArtifactError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(ArtifactError::Truncated {
            expected: 1,
            found: 0,
        })?;
    let header_text =
        std::str::from_utf8(&bytes[..nl]).map_err(|e| ArtifactError::BadHeader(e.to_string()))?;
    let header: Header =
        serde_json::from_str(header_text).map_err(|e| ArtifactError::BadHeader(e.to_string()))?;
    if header.magic != MAGIC {
        return Err(ArtifactError::BadMagic(header.magic));
    }
    let payload = &bytes[nl + 1..];
    if payload.len() < header.payload_len {
        return Err(ArtifactError::Truncated {
            expected: header.payload_len,
            found: payload.len(),
        });
    }
    if payload.len() > header.payload_len {
        return Err(ArtifactError::Decode(format!(
            "{} trailing bytes after payload",
            payload.len() - header.payload_len
        )));
    }
    let found = format!("{:016x}", checksum64(payload));
    if found != header.checksum {
        return Err(ArtifactError::ChecksumMismatch {
            expected: header.checksum,
            found,
        });
    }
    let payload_text =
        std::str::from_utf8(payload).map_err(|e| ArtifactError::Decode(e.to_string()))?;
    Ok((header.version, payload_text))
}

/// The persisted outcome of a penalty-aware selection: which plan the
/// risk minimization chose, under which prior, with which risk numbers.
///
/// A pure data record — the selection itself runs in `rqp-core`; callers
/// attach the summary via [`CompiledArtifact::with_penalty`] before
/// saving. The 64-bit identities (prior hash, plan fingerprint) are
/// stored as 16-hex-digit strings because the vendored serde shim
/// carries numbers as `f64`, which cannot represent all `u64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PenaltySummary {
    /// Seed of the selectivity-error prior.
    pub prior_seed: u64,
    /// Kernel width of the prior, in log₁₀ decades.
    pub prior_sigma: f64,
    /// Seeded per-cell jitter amplitude of the prior.
    pub prior_jitter: f64,
    /// CVaR tail level the risks were computed at.
    pub alpha: f64,
    /// Hex-encoded FNV-1a hash of the full discretized prior.
    pub prior_hash: String,
    /// Pool id of the chosen plan, when it is interned in the surface's
    /// pool (the native plan may not be).
    pub chosen_plan: Option<usize>,
    /// Hex-encoded structural fingerprint of the chosen plan.
    pub chosen_fingerprint: String,
    /// Expected sub-optimality of the chosen plan under the prior.
    pub expected: f64,
    /// CVaR of the chosen plan's sub-optimality at `alpha`.
    pub cvar: f64,
    /// Expected sub-optimality of the native plan under the same prior
    /// (the ≤-guarantee baseline).
    pub native_expected: f64,
}

impl PenaltySummary {
    /// Hex-decodes the prior hash (16 hex digits).
    pub fn prior_hash_u64(&self) -> Option<u64> {
        u64::from_str_radix(&self.prior_hash, 16).ok()
    }

    /// Hex-decodes the chosen plan's fingerprint.
    pub fn chosen_fingerprint_u64(&self) -> Option<u64> {
        u64::from_str_radix(&self.chosen_fingerprint, 16).ok()
    }
}

/// Everything the online algorithms need to serve one query template:
/// the compiled POSP surface, its contour schedule, the anorexic-reduced
/// bouquet, and the dense plan×location recost matrix, together with the
/// compilation parameters that produced them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledArtifact {
    /// The query template this artifact was compiled for.
    pub query: QuerySpec,
    /// Inter-contour cost ratio (the paper uses 2.0).
    pub ratio: f64,
    /// Anorexic swallowing threshold λ (the paper uses 0.2).
    pub lambda: f64,
    /// The POSP surface over the ESS grid (includes the interned pool in
    /// stable id order).
    pub surface: EssSurface,
    /// Geometric iso-cost contour schedule.
    pub contours: ContourSet,
    /// Anorexic-reduced plan sets, one per contour, in execution order.
    pub bouquet: Vec<ReducedContour>,
    /// Post-reduction maximum contour density ρ_red.
    pub rho_red: usize,
    /// Dense plan×location recost matrix over the surface's pool/grid.
    pub matrix: CostMatrix,
    /// Outcome of the offline penalty-aware selection, when one was run
    /// at compile time. `None` in artifacts written before the field
    /// existed — old files load unchanged (`#[serde(default)]`).
    #[serde(default)]
    pub penalty: Option<PenaltySummary>,
}

impl CompiledArtifact {
    /// Runs the full offline compilation pipeline: POSP sweep, contour
    /// schedule, the recost matrix, and the anorexic reduction off its
    /// cells, each with `threads` workers where parallel builds exist. All
    /// stages are deterministic and thread-count-independent.
    pub fn compile(
        opt: &Optimizer<'_>,
        grid: MultiGrid,
        ratio: f64,
        lambda: f64,
        threads: usize,
    ) -> Self {
        let surface = EssSurface::build_parallel(opt, grid, threads);
        let contours = ContourSet::build(&surface, ratio);
        let matrix = CostMatrix::build_parallel(opt, surface.pool(), surface.grid(), threads);
        let (bouquet, rho_red) =
            reduce_all_with(&surface, &contours, lambda, |pid, q| matrix.cost(pid, q));
        Self {
            query: opt.query().clone(),
            ratio,
            lambda,
            surface,
            contours,
            bouquet,
            rho_red,
            matrix,
            penalty: None,
        }
    }

    /// Attaches the outcome of an offline penalty-aware selection, so
    /// the chosen plan and prior identity persist with the artifact.
    pub fn with_penalty(mut self, summary: PenaltySummary) -> Self {
        self.penalty = Some(summary);
        self
    }

    /// Serializes to the on-disk byte format (header line + payload): the
    /// derived `Serialize`'s members, the matrix cells written in place.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut json = PackedJson::default();
        json.raw("{");
        member(&mut json, "query", &self.query);
        member(&mut json, "ratio", &self.ratio);
        member(&mut json, "lambda", &self.lambda);
        member(&mut json, "surface", &self.surface);
        member(&mut json, "contours", &self.contours);
        member(&mut json, "bouquet", &self.bouquet);
        member(&mut json, "rho_red", &self.rho_red);
        json.key("matrix");
        self.matrix.write_packed(&mut json);
        member(&mut json, "penalty", &self.penalty);
        json.raw("}");
        seal(FORMAT_VERSION, &json)
    }

    /// Parses and validates the on-disk byte format. Checks, in order:
    /// header shape, magic, payload length, checksum, format version,
    /// payload decode, and structural invariants. Never panics on
    /// malformed input. A version-2 (sparse) file is rejected with
    /// [`ArtifactError::UnsupportedVersion`] — use [`load_any`] or
    /// [`SparseArtifact::from_bytes`] for those.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let (version, payload_text) = open_envelope(bytes)?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let mut artifact: CompiledArtifact =
            serde_json::from_str(payload_text).map_err(|e| ArtifactError::Decode(e.to_string()))?;
        artifact.rehydrate()?;
        Ok(artifact)
    }

    /// Rebuilds non-serialized state (the pool's fingerprint index) and
    /// validates cross-component invariants.
    fn rehydrate(&mut self) -> Result<(), ArtifactError> {
        self.surface
            .rehydrate()
            .map_err(|e| ArtifactError::Invalid(e.to_string()))?;
        if self.query.ndims() != self.surface.grid().ndims() {
            return Err(ArtifactError::Invalid(format!(
                "query has {} error-prone predicates but the grid has {} dimensions",
                self.query.ndims(),
                self.surface.grid().ndims()
            )));
        }
        if !self
            .matrix
            .shape_matches(self.surface.posp_size(), self.surface.grid().len())
        {
            return Err(ArtifactError::Invalid(format!(
                "cost matrix shape {}x{} does not match surface ({} plans, {} locations)",
                self.matrix.nplans(),
                self.matrix.grid_len(),
                self.surface.posp_size(),
                self.surface.grid().len()
            )));
        }
        if self.bouquet.len() != self.contours.len() {
            return Err(ArtifactError::Invalid(format!(
                "bouquet has {} contours but the schedule has {}",
                self.bouquet.len(),
                self.contours.len()
            )));
        }
        let nplans = self.surface.posp_size();
        for (i, rc) in self.bouquet.iter().enumerate() {
            if rc.plans.is_empty() || rc.plans.iter().any(|&pid| pid >= nplans) {
                return Err(ArtifactError::Invalid(format!(
                    "reduced contour {i} is empty or references a plan outside the pool"
                )));
            }
        }
        Ok(())
    }

    /// Writes the artifact atomically (`path.tmp` then rename).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        self.save_with(path, None)
    }

    /// [`save`](Self::save) under an optional fault plan. An injected
    /// `store.save` fault simulates a torn write: a truncated prefix
    /// lands in the `.tmp` file and an I/O error is returned *before*
    /// the rename — the artifact path itself is never touched, so a
    /// previously saved artifact (or its absence) stays intact. This is
    /// exactly the crash window tmp+rename exists to protect.
    pub fn save_with(&self, path: &Path, faults: Option<&FaultPlan>) -> Result<(), ArtifactError> {
        let bytes = self.to_bytes();
        if let Some(shot) = faults.and_then(|p| p.shot(FaultSite::StoreSave)) {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let tmp = path.with_extension("tmp");
            let cut = ((bytes.len() as f64) * shot.frac) as usize;
            let _ = std::fs::write(&tmp, &bytes[..cut.min(bytes.len())]);
            return Err(ArtifactError::Io(format!(
                "injected torn write at {} ({} of {} bytes)",
                tmp.display(),
                cut,
                bytes.len()
            )));
        }
        write_atomic(path, &bytes)
    }

    /// Loads and validates an artifact file.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        Self::load_with(path, None)
    }

    /// [`load`](Self::load) under an optional fault plan: the plan's
    /// `slow_load` latency is served first, then an injected
    /// `store.load` fault surfaces as an interrupted-read I/O error
    /// before the file is touched.
    pub fn load_with(path: &Path, faults: Option<&FaultPlan>) -> Result<Self, ArtifactError> {
        if let Some(plan) = faults {
            let lag = plan.slow_load();
            if !lag.is_zero() {
                std::thread::sleep(lag);
            }
            if plan.should_inject(FaultSite::StoreLoad) {
                return Err(ArtifactError::Io(format!(
                    "injected read fault at {} (Interrupted)",
                    path.display()
                )));
            }
        }
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// True if this artifact was compiled for the given configuration —
    /// the staleness check `compile_or_load` uses before trusting a file.
    pub fn matches(&self, opt: &Optimizer<'_>, grid: &MultiGrid, ratio: f64, lambda: f64) -> bool {
        self.query.name == opt.query().name
            && self.query.ndims() == opt.query().ndims()
            && self.surface.grid() == grid
            && self.ratio == ratio
            && self.lambda == lambda
    }

    /// Rough resident-memory footprint in bytes, for cache accounting.
    /// Dominated by the dense recost matrix (`nplans × grid_len` costs)
    /// and the surface's per-cell cost/plan arrays; plans and bouquet
    /// structure are charged at a flat per-entry estimate. Deliberately
    /// an over- rather than under-estimate so an LRU bound in bytes is
    /// conservative.
    pub fn approx_bytes(&self) -> usize {
        let cells = self.surface.grid().len();
        let matrix = self.matrix.nplans() * self.matrix.grid_len() * 8;
        let surface = cells * 16; // cost + plan id per cell
        let plans = self.surface.posp_size() * 256;
        let bouquet: usize = self.bouquet.iter().map(|rc| 64 + rc.plans.len() * 8).sum();
        4096 + matrix + surface + plans + bouquet
    }
}

/// Atomic, durable write: write and fsync `path.tmp`, rename it over
/// `path`, then fsync the parent directory. The tmp fsync *before* the
/// rename means a crash can never leave a complete-looking name pointing
/// at unwritten content; the directory fsync *after* means the rename
/// itself survives the crash (on ext4 with default mount options a
/// rename is not durable until its directory is synced).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    crash::hit(crash::BEFORE_RENAME);
    std::fs::rename(&tmp, path)?;
    crash::hit(crash::AFTER_RENAME);
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Bit-exact packed cost vector — 16 lowercase hex digits of each cost's
/// IEEE-754 bit pattern, the same codec the cost matrices use. A wrapper
/// type so the derived artifact serde treats the whole vector as one
/// string field instead of a huge float array.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HexCosts(pub Vec<Cost>);

impl Serialize for HexCosts {
    fn to_value(&self) -> Value {
        Value::String(encode_cells_hex(&self.0))
    }
}

impl Deserialize for HexCosts {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::String(s) => Ok(Self(decode_cells_hex(s.as_bytes())?)),
            _ => Err(SerdeError::msg("expected packed hex string for costs")),
        }
    }
}

/// The sparse (version-2) artifact a lazy compile produces: instead of a
/// full [`EssSurface`], only the cells the lazy contour discovery and
/// warm-up actually materialized are persisted, with the interned plan
/// pool, the contour schedule, and a [`SparseCostMatrix`] over exactly
/// those cells. A warm start seeds a [`LazySurface`] from these cells
/// ([`Self::to_lazy`]): every persisted cost is served without an
/// optimizer call, and any cell outside the persisted set is discovered
/// on demand as usual.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SparseArtifact {
    /// The query template this artifact was compiled for.
    pub query: QuerySpec,
    /// Inter-contour cost ratio.
    pub ratio: f64,
    /// The ESS grid the cells index into.
    pub grid: MultiGrid,
    /// Flat grid indices of the materialized cells, strictly ascending.
    pub cell_idx: Vec<GridIdx>,
    /// `OptCost` of each materialized cell (bit-exact hex packing).
    pub cell_costs: HexCosts,
    /// Optimal-plan id of each materialized cell, indexing `pool`.
    pub cell_plan: Vec<PlanId>,
    /// Plans interned in materialization order.
    pub pool: PlanPool,
    /// The contour schedule's costs, ascending.
    pub contour_costs: Vec<Cost>,
    /// Plan×cell recost matrix over `pool` × `cell_idx`.
    pub matrix: SparseCostMatrix,
}

impl SparseArtifact {
    /// Snapshots a lazily-built surface into its persistable form.
    pub fn from_lazy(
        opt: &Optimizer<'_>,
        lazy: &LazySurface<'_>,
        contours: &ContourSet,
        matrix: SparseCostMatrix,
        ratio: f64,
    ) -> Self {
        let cells = lazy.cells();
        let mut cell_idx = Vec::with_capacity(cells.len());
        let mut cell_costs = Vec::with_capacity(cells.len());
        let mut cell_plan = Vec::with_capacity(cells.len());
        for (idx, cost, pid) in cells {
            cell_idx.push(idx);
            cell_costs.push(cost);
            cell_plan.push(pid);
        }
        Self {
            query: opt.query().clone(),
            ratio,
            grid: rqp_ess::SurfaceAccess::grid(lazy).clone(),
            cell_idx,
            cell_costs: HexCosts(cell_costs),
            cell_plan,
            pool: rqp_ess::SurfaceAccess::pool_snapshot(lazy),
            contour_costs: contours.costs().to_vec(),
            matrix,
        }
    }

    /// Serializes to the on-disk byte format (version-2 envelope): the
    /// derived `Serialize`'s members, both cost vectors written in place.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut json = PackedJson::default();
        json.raw("{");
        member(&mut json, "query", &self.query);
        member(&mut json, "ratio", &self.ratio);
        member(&mut json, "grid", &self.grid);
        member(&mut json, "cell_idx", &self.cell_idx);
        json.key("cell_costs");
        json.cells(&self.cell_costs.0);
        member(&mut json, "cell_plan", &self.cell_plan);
        member(&mut json, "pool", &self.pool);
        member(&mut json, "contour_costs", &self.contour_costs);
        json.key("matrix");
        self.matrix.write_packed(&mut json);
        json.raw("}");
        seal(SPARSE_FORMAT_VERSION, &json)
    }

    /// Parses and validates a version-2 artifact. Same envelope checks as
    /// the dense reader, then sparse structural invariants.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let (version, payload_text) = open_envelope(bytes)?;
        if version != SPARSE_FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: SPARSE_FORMAT_VERSION,
            });
        }
        let mut artifact: SparseArtifact =
            serde_json::from_str(payload_text).map_err(|e| ArtifactError::Decode(e.to_string()))?;
        artifact.rehydrate()?;
        Ok(artifact)
    }

    /// Rebuilds non-serialized state (the pool's fingerprint index) and
    /// validates structural invariants.
    fn rehydrate(&mut self) -> Result<(), ArtifactError> {
        self.pool.rebuild_index();
        if self.query.ndims() != self.grid.ndims() {
            return Err(ArtifactError::Invalid(format!(
                "query has {} error-prone predicates but the grid has {} dimensions",
                self.query.ndims(),
                self.grid.ndims()
            )));
        }
        let n = self.cell_idx.len();
        if self.cell_costs.0.len() != n || self.cell_plan.len() != n {
            return Err(ArtifactError::Invalid(format!(
                "cell arrays disagree: {} indices, {} costs, {} plans",
                n,
                self.cell_costs.0.len(),
                self.cell_plan.len()
            )));
        }
        if !self.cell_idx.windows(2).all(|w| w[0] < w[1])
            || self.cell_idx.last().is_some_and(|&q| q >= self.grid.len())
        {
            return Err(ArtifactError::Invalid(
                "cell indices must be strictly ascending and inside the grid".into(),
            ));
        }
        if self.cell_plan.iter().any(|&pid| pid >= self.pool.len()) {
            return Err(ArtifactError::Invalid(
                "a cell references a plan outside the pool".into(),
            ));
        }
        if self.contour_costs.is_empty()
            || self
                .contour_costs
                .windows(2)
                .any(|w| w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater))
        {
            return Err(ArtifactError::Invalid(
                "contour costs must be non-empty and strictly ascending".into(),
            ));
        }
        if !self.matrix.shape_matches(self.pool.len(), self.grid.len()) {
            return Err(ArtifactError::Invalid(format!(
                "sparse matrix shape ({} plans, {} cells) does not match pool/grid",
                self.matrix.nplans(),
                self.matrix.ncells()
            )));
        }
        Ok(())
    }

    /// Rough resident-memory footprint in bytes, for cache accounting —
    /// the sparse analogue of [`CompiledArtifact::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        let cells = self.cell_idx.len();
        let matrix = self.matrix.nplans() * self.matrix.ncells() * 8;
        let plans = self.pool.len() * 256;
        4096 + matrix + cells * 24 + plans + self.contour_costs.len() * 8
    }

    /// The persisted cells as the `(idx, cost, plan_id)` seed
    /// [`LazySurface::from_parts`] consumes.
    pub fn seed(&self) -> Vec<(GridIdx, Cost, PlanId)> {
        self.cell_idx
            .iter()
            .zip(&self.cell_costs.0)
            .zip(&self.cell_plan)
            .map(|((&idx, &cost), &pid)| (idx, cost, pid))
            .collect()
    }

    /// Re-seeds a lazy surface from the persisted cells: every persisted
    /// cost is served without an optimizer call.
    pub fn to_lazy<'a>(&self, opt: &'a Optimizer<'a>) -> rqp_common::Result<LazySurface<'a>> {
        LazySurface::from_parts(opt, self.grid.clone(), &self.seed(), self.pool.clone())
    }

    /// True if this artifact was compiled for the given configuration.
    pub fn matches(&self, opt: &Optimizer<'_>, grid: &MultiGrid, ratio: f64) -> bool {
        self.query.name == opt.query().name
            && self.query.ndims() == opt.query().ndims()
            && &self.grid == grid
            && self.ratio == ratio
    }

    /// Writes the artifact atomically (`path.tmp` then rename).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        write_atomic(path, &self.to_bytes())
    }

    /// Loads and validates a sparse artifact file.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// A decoded artifact of either on-disk format version.
#[derive(Debug, Clone)]
pub enum ArtifactKind {
    /// Version 1: dense surface + dense cost matrix.
    Dense(Box<CompiledArtifact>),
    /// Version 2: materialized cells only.
    Sparse(Box<SparseArtifact>),
}

impl ArtifactKind {
    /// Name of the query template the artifact was compiled for.
    pub fn query_name(&self) -> &str {
        match self {
            ArtifactKind::Dense(a) => &a.query.name,
            ArtifactKind::Sparse(a) => &a.query.name,
        }
    }

    /// Rough resident-memory footprint in bytes, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        match self {
            ArtifactKind::Dense(a) => a.approx_bytes(),
            ArtifactKind::Sparse(a) => a.approx_bytes(),
        }
    }
}

/// Parses an artifact of either format version, dispatching on the
/// envelope's version field after the integrity checks.
pub fn load_any(bytes: &[u8]) -> Result<ArtifactKind, ArtifactError> {
    let (version, payload_text) = open_envelope(bytes)?;
    match version {
        FORMAT_VERSION => {
            let mut a: CompiledArtifact = serde_json::from_str(payload_text)
                .map_err(|e| ArtifactError::Decode(e.to_string()))?;
            a.rehydrate()?;
            Ok(ArtifactKind::Dense(Box::new(a)))
        }
        SPARSE_FORMAT_VERSION => {
            let mut a: SparseArtifact = serde_json::from_str(payload_text)
                .map_err(|e| ArtifactError::Decode(e.to_string()))?;
            a.rehydrate()?;
            Ok(ArtifactKind::Sparse(Box::new(a)))
        }
        other => Err(ArtifactError::UnsupportedVersion {
            found: other,
            supported: SPARSE_FORMAT_VERSION,
        }),
    }
}

/// [`load_any`] from a file path.
pub fn load_any_path(path: &Path) -> Result<ArtifactKind, ArtifactError> {
    load_any(&std::fs::read(path)?)
}

/// Why `compile_or_load` went cold instead of loading.
#[derive(Debug, Clone, PartialEq)]
pub enum ColdReason {
    /// No artifact file existed at the path.
    Missing,
    /// A file existed but failed validation (corrupt / wrong version).
    Corrupt(String),
    /// A valid file existed but was compiled for a different
    /// query/grid/ratio/lambda configuration.
    Stale,
}

/// How an artifact was obtained, with wall-clock timings — the
/// cold-vs-warm evidence the CLI prints.
#[derive(Debug, Clone)]
pub enum Provenance {
    /// Loaded from disk without recompiling.
    Warm {
        /// Time to read + validate + rehydrate the file.
        load: Duration,
    },
    /// Compiled from scratch (and saved).
    Cold {
        /// Why the load path was not taken.
        reason: ColdReason,
        /// Time of the full offline compilation pipeline.
        compile: Duration,
        /// Time to serialize + write the file.
        save: Duration,
    },
}

impl Provenance {
    /// True if the artifact came from disk.
    pub fn is_warm(&self) -> bool {
        matches!(self, Provenance::Warm { .. })
    }
}

/// Loads `path` if it holds a valid artifact for this exact
/// configuration; otherwise compiles from scratch and saves. The
/// warm-start entry point: corrupt or stale files are transparently
/// recompiled, never trusted. An I/O failure on the first load attempt
/// (possibly transient: NFS hiccup, interrupted read, injected fault) is
/// retried once; a second failure degrades to recompilation instead of
/// failing the request — the artifact cache is an accelerator, never a
/// point of failure.
pub fn compile_or_load(
    path: &Path,
    opt: &Optimizer<'_>,
    grid: &MultiGrid,
    ratio: f64,
    lambda: f64,
    threads: usize,
) -> Result<(CompiledArtifact, Provenance), ArtifactError> {
    compile_or_load_with(path, opt, grid, ratio, lambda, threads, None)
}

/// [`compile_or_load`] under an optional fault plan (threaded into the
/// underlying load/save; see [`CompiledArtifact::load_with`] /
/// [`CompiledArtifact::save_with`]).
#[allow(clippy::too_many_arguments)]
pub fn compile_or_load_with(
    path: &Path,
    opt: &Optimizer<'_>,
    grid: &MultiGrid,
    ratio: f64,
    lambda: f64,
    threads: usize,
    faults: Option<&FaultPlan>,
) -> Result<(CompiledArtifact, Provenance), ArtifactError> {
    let reason = if path.exists() {
        let t0 = Instant::now();
        let loaded = CompiledArtifact::load_with(path, faults).or_else(|first| match first {
            // One retry for I/O-class failures before giving up on
            // the warm path.
            ArtifactError::Io(_) => CompiledArtifact::load_with(path, faults),
            other => Err(other),
        });
        match loaded {
            Ok(artifact) if artifact.matches(opt, grid, ratio, lambda) => {
                return Ok((artifact, Provenance::Warm { load: t0.elapsed() }));
            }
            Ok(_) => ColdReason::Stale,
            Err(e) => ColdReason::Corrupt(e.to_string()),
        }
    } else {
        ColdReason::Missing
    };
    let t0 = Instant::now();
    let artifact = CompiledArtifact::compile(opt, grid.clone(), ratio, lambda, threads);
    let compile = t0.elapsed();
    let t1 = Instant::now();
    artifact.save_with(path, faults)?;
    let save = t1.elapsed();
    Ok((
        artifact,
        Provenance::Cold {
            reason,
            compile,
            save,
        },
    ))
}

/// A directory of artifacts keyed by query name: `<root>/<name>.rqpa`.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    faults: Option<Arc<FaultPlan>>,
    tracer: Tracer,
}

impl ArtifactStore {
    /// Opens (without touching the filesystem) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            faults: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a fault plan to every load/save this store performs.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a structured tracer: warm loads emit `cache_hit`, cold
    /// compiles emit `cache_miss` (cache `"artifact_store"`, keyed by the
    /// checksum of the query name).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the artifact for query `name`.
    pub fn path_for(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.rqpa"))
    }

    /// [`compile_or_load`] keyed by the optimizer's query name.
    pub fn compile_or_load(
        &self,
        opt: &Optimizer<'_>,
        grid: &MultiGrid,
        ratio: f64,
        lambda: f64,
        threads: usize,
    ) -> Result<(CompiledArtifact, Provenance), ArtifactError> {
        rqp_obs::span!("artifacts.compile_or_load");
        let result = compile_or_load_with(
            &self.path_for(&opt.query().name),
            opt,
            grid,
            ratio,
            lambda,
            threads,
            self.faults.as_deref(),
        );
        if let Ok((_, provenance)) = &result {
            let key = checksum64(opt.query().name.as_bytes());
            if provenance.is_warm() {
                self.tracer.emit(|| TraceEvent::CacheHit {
                    cache: "artifact_store",
                    key,
                });
            } else {
                self.tracer.emit(|| TraceEvent::CacheMiss {
                    cache: "artifact_store",
                    key,
                });
            }
        }
        result
    }

    /// Loads the artifact for query `name` in either format version —
    /// the cache-fill path the serving LRU uses on a miss. Honors the
    /// store's fault plan (`slow_load` latency, injected `store.load`
    /// errors) so cold loads participate in fault injection, and emits
    /// the same `artifact_store` cache-miss trace event as
    /// [`compile_or_load`](Self::compile_or_load).
    pub fn load_any_named(&self, name: &str) -> Result<ArtifactKind, ArtifactError> {
        rqp_obs::span!("artifacts.load_any_named");
        if let Some(plan) = self.faults.as_deref() {
            let lag = plan.slow_load();
            if !lag.is_zero() {
                std::thread::sleep(lag);
            }
            if plan.should_inject(FaultSite::StoreLoad) {
                return Err(ArtifactError::Io(format!(
                    "injected read fault at {} (Interrupted)",
                    self.path_for(name).display()
                )));
            }
        }
        let result = load_any_path(&self.path_for(name));
        if result.is_ok() {
            self.tracer.emit(|| TraceEvent::CacheMiss {
                cache: "artifact_store",
                key: checksum64(name.as_bytes()),
            });
        }
        result
    }

    /// Path of the sparse (lazily-compiled) artifact for query `name`.
    /// Kept distinct from [`path_for`](Self::path_for) so dense and
    /// sparse compiles of the same template coexist.
    pub fn sparse_path_for(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.lazy.rqpa"))
    }

    /// Persists a sparse artifact under its query's name.
    pub fn save_sparse(&self, artifact: &SparseArtifact) -> Result<PathBuf, ArtifactError> {
        let path = self.sparse_path_for(&artifact.query.name);
        artifact.save(&path)?;
        Ok(path)
    }

    /// Loads the sparse artifact for query `name`.
    pub fn load_sparse(&self, name: &str) -> Result<SparseArtifact, ArtifactError> {
        SparseArtifact::load(&self.sparse_path_for(name))
    }

    /// Names of the artifacts present in the store (files ending in
    /// `.rqpa`), sorted.
    pub fn list(&self) -> Result<Vec<String>, ArtifactError> {
        let mut names = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("rqpa") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
    use rqp_optimizer::{CostParams, EnumerationMode, Predicate, PredicateKind};

    /// A 2-epp star query over a small synthetic catalog (mirrors the ess
    /// test fixture).
    fn star2() -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "fact",
            1_000_000,
            vec![
                Column::new("f1", DataType::Int, ColumnStats::uniform(10_000)).with_index(),
                Column::new("f2", DataType::Int, ColumnStats::uniform(1_000)).with_index(),
                Column::new("v", DataType::Int, ColumnStats::uniform(1_000)),
            ],
        ))
        .unwrap();
        for (name, rows) in [("d1", 10_000u64), ("d2", 1_000)] {
            cat.add_table(Table::new(
                name,
                rows,
                vec![
                    Column::new("k", DataType::Int, ColumnStats::uniform(rows)).with_index(),
                    Column::new("a", DataType::Int, ColumnStats::uniform(50)),
                ],
            ))
            .unwrap();
        }
        let query = QuerySpec {
            name: "star2".into(),
            relations: vec![0, 1, 2],
            predicates: vec![
                Predicate {
                    label: "f-d1".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 0,
                        right: 1,
                        right_col: 0,
                    },
                },
                Predicate {
                    label: "f-d2".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 1,
                        right: 2,
                        right_col: 0,
                    },
                },
            ],
            epps: vec![0, 1],
        };
        (cat, query)
    }

    /// The envelope over a generically encoded payload, as `to_bytes`
    /// built it before the in-place writer: the oracle `seal` must
    /// reproduce byte for byte.
    fn seal_envelope(version: u32, payload: String) -> Vec<u8> {
        let header = Header {
            magic: MAGIC.into(),
            version,
            checksum: format!("{:016x}", checksum64(payload.as_bytes())),
            payload_len: payload.len(),
        };
        let mut out = serde_json::to_string(&header)
            .expect("header serializes")
            .into_bytes();
        out.push(b'\n');
        out.extend_from_slice(payload.as_bytes());
        out
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rqp-artifact-test-{}-{tag}.rqpa",
            std::process::id()
        ))
    }

    fn compile_fixture() -> (Catalog, QuerySpec, MultiGrid) {
        let (cat, q) = star2();
        let grid = MultiGrid::uniform(2, 1e-5, 8);
        (cat, q, grid)
    }

    #[test]
    fn bytes_roundtrip_is_bit_identical() {
        let (cat, q, grid) = compile_fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let art = CompiledArtifact::compile(&opt, grid, 2.0, 0.2, 2);
        let loaded = CompiledArtifact::from_bytes(&art.to_bytes()).unwrap();
        assert_eq!(loaded.surface.posp_size(), art.surface.posp_size());
        for idx in art.surface.grid().iter() {
            assert_eq!(
                loaded.surface.opt_cost(idx).to_bits(),
                art.surface.opt_cost(idx).to_bits()
            );
            assert_eq!(loaded.surface.plan_id(idx), art.surface.plan_id(idx));
        }
        assert_eq!(loaded.matrix, art.matrix);
        assert_eq!(loaded.bouquet, art.bouquet);
        assert_eq!(loaded.rho_red, art.rho_red);
        assert_eq!(loaded.contours, art.contours);
    }

    /// The in-place writers against the generic encoder they replaced:
    /// dense with and without a penalty summary, and sparse.
    #[test]
    fn to_bytes_equals_the_generic_encoding() {
        let (cat, q, grid) = compile_fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let dense = CompiledArtifact::compile(&opt, grid, 2.0, 0.2, 1);
        assert_eq!(
            dense.to_bytes(),
            seal_envelope(FORMAT_VERSION, serde_json::to_string(&dense).unwrap())
        );
        let dense = dense.with_penalty(PenaltySummary {
            prior_seed: 7,
            prior_sigma: 0.75,
            prior_jitter: 0.1,
            alpha: 0.9,
            prior_hash: "00ff\"\\\n".into(),
            chosen_plan: Some(1),
            chosen_fingerprint: format!("{:016x}", u64::MAX),
            expected: 1.5,
            cvar: 2.25,
            native_expected: 1e300,
        });
        assert_eq!(
            dense.to_bytes(),
            seal_envelope(FORMAT_VERSION, serde_json::to_string(&dense).unwrap())
        );
        let (sparse, _) = sparse_fixture(&opt);
        assert!(!sparse.cell_costs.0.is_empty() && !sparse.matrix.is_empty());
        assert_eq!(
            sparse.to_bytes(),
            seal_envelope(
                SPARSE_FORMAT_VERSION,
                serde_json::to_string(&sparse).unwrap()
            )
        );
    }

    #[test]
    fn approx_bytes_and_store_load_any_named() {
        let (cat, q, grid) = compile_fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let art = CompiledArtifact::compile(&opt, grid, 2.0, 0.2, 2);
        // The estimate must at least cover the dense matrix it claims to
        // account for, and stay finite/stable.
        let floor = art.matrix.nplans() * art.matrix.grid_len() * 8;
        assert!(art.approx_bytes() >= floor);

        let root = std::env::temp_dir().join(format!("rqp-store-any-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ArtifactStore::new(&root);
        art.save(&store.path_for("star2")).unwrap();
        let kind = store.load_any_named("star2").unwrap();
        assert_eq!(kind.query_name(), "star2");
        assert_eq!(kind.approx_bytes(), art.approx_bytes());
        match store.load_any_named("missing") {
            Err(ArtifactError::Io(_)) => {}
            other => panic!("expected io error for missing artifact, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn save_load_and_warm_start() {
        let (cat, q, grid) = compile_fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let path = tmp_path("warm");
        let _ = std::fs::remove_file(&path);

        let (_, prov) = compile_or_load(&path, &opt, &grid, 2.0, 0.2, 1).unwrap();
        assert!(!prov.is_warm(), "first call must compile");
        let (art, prov) = compile_or_load(&path, &opt, &grid, 2.0, 0.2, 1).unwrap();
        assert!(prov.is_warm(), "second call must load");
        assert!(art.matches(&opt, &grid, 2.0, 0.2));

        // A different lambda is stale: recompiles rather than trusting.
        let (_, prov) = compile_or_load(&path, &opt, &grid, 2.0, 0.3, 1).unwrap();
        match prov {
            Provenance::Cold {
                reason: ColdReason::Stale,
                ..
            } => {}
            other => panic!("expected stale recompile, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_yields_typed_errors_never_panics() {
        let (cat, q, grid) = compile_fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let art = CompiledArtifact::compile(&opt, grid, 2.0, 0.2, 1);
        let bytes = art.to_bytes();
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();

        // Truncated payload.
        let truncated = &bytes[..bytes.len() - 10];
        assert!(matches!(
            CompiledArtifact::from_bytes(truncated),
            Err(ArtifactError::Truncated { .. })
        ));

        // Flipped payload byte → checksum mismatch.
        let mut flipped = bytes.clone();
        let mid = nl + 1 + (bytes.len() - nl) / 2;
        flipped[mid] = flipped[mid].wrapping_add(1);
        assert!(matches!(
            CompiledArtifact::from_bytes(&flipped),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));

        // Wrong version.
        let header_text = std::str::from_utf8(&bytes[..nl]).unwrap();
        let bumped = header_text.replace("\"version\":1", "\"version\":99");
        let mut wrong_version = bumped.into_bytes();
        wrong_version.extend_from_slice(&bytes[nl..]);
        assert!(matches!(
            CompiledArtifact::from_bytes(&wrong_version),
            Err(ArtifactError::UnsupportedVersion { found: 99, .. })
        ));

        // Wrong magic.
        let swapped = header_text.replace(MAGIC, "not-an-artifact");
        let mut wrong_magic = swapped.into_bytes();
        wrong_magic.extend_from_slice(&bytes[nl..]);
        assert!(matches!(
            CompiledArtifact::from_bytes(&wrong_magic),
            Err(ArtifactError::BadMagic(_))
        ));

        // Headerless garbage.
        assert!(CompiledArtifact::from_bytes(b"garbage, no newline").is_err());
        assert!(CompiledArtifact::from_bytes(b"{}\n{}").is_err());
        assert!(CompiledArtifact::from_bytes(b"").is_err());
    }

    /// Builds a small sparse artifact by lazily discovering contour 0's
    /// skyline on the star2 fixture.
    fn sparse_fixture<'a>(opt: &'a Optimizer<'a>) -> (SparseArtifact, LazySurface<'a>) {
        use rqp_ess::{EssView, SurfaceAccess};
        let lazy = LazySurface::new(opt, MultiGrid::uniform(2, 1e-5, 8));
        let contours = ContourSet::build(&lazy, 2.0);
        let view = EssView::full(2);
        for i in 0..contours.len() {
            let _ = contours.locations(&lazy, &view, i);
        }
        let cells: Vec<GridIdx> = lazy.cells().iter().map(|&(idx, _, _)| idx).collect();
        let matrix = SparseCostMatrix::build(opt, &lazy.pool_snapshot(), lazy.grid(), &cells);
        let art = SparseArtifact::from_lazy(opt, &lazy, &contours, matrix, 2.0);
        (art, lazy)
    }

    #[test]
    fn sparse_roundtrip_is_bit_identical_and_seeds_without_calls() {
        use rqp_ess::SurfaceAccess;
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let (art, lazy) = sparse_fixture(&opt);
        assert!(
            art.cell_idx.len() < art.grid.len(),
            "sparse artifact persists fewer cells than the grid"
        );
        let loaded = SparseArtifact::from_bytes(&art.to_bytes()).expect("round trip");
        assert_eq!(loaded.cell_idx, art.cell_idx);
        assert_eq!(loaded.cell_plan, art.cell_plan);
        assert_eq!(loaded.contour_costs, art.contour_costs);
        assert_eq!(loaded.matrix, art.matrix);
        for (a, b) in loaded.cell_costs.0.iter().zip(&art.cell_costs.0) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Re-seeding serves every persisted cost without optimizer calls.
        let warm = loaded.to_lazy(&opt).expect("seed is valid");
        for &(idx, cost, _) in &lazy.cells() {
            assert_eq!(warm.opt_cost(idx).to_bits(), cost.to_bits());
        }
        assert_eq!(warm.optimizer_calls(), 0, "seeded cells are free");
    }

    #[test]
    fn dense_reader_rejects_sparse_files_with_typed_error() {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let (art, _) = sparse_fixture(&opt);
        let bytes = art.to_bytes();
        match CompiledArtifact::from_bytes(&bytes) {
            Err(ArtifactError::UnsupportedVersion { found: 2, .. }) => {}
            other => panic!("expected UnsupportedVersion {{ found: 2 }}, got {other:?}"),
        }
        // ...and load_any dispatches both formats.
        match load_any(&bytes).expect("sparse dispatch") {
            ArtifactKind::Sparse(s) => assert_eq!(s.cell_idx, art.cell_idx),
            other => panic!("expected sparse, got {other:?}"),
        }
        let grid = MultiGrid::uniform(2, 1e-5, 6);
        let dense = CompiledArtifact::compile(&opt, grid, 2.0, 0.2, 1);
        match load_any(&dense.to_bytes()).expect("dense dispatch") {
            ArtifactKind::Dense(d) => assert_eq!(d.surface.posp_size(), dense.surface.posp_size()),
            other => panic!("expected dense, got {other:?}"),
        }
    }

    #[test]
    fn sparse_rehydrate_rejects_malformed() {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let (art, _) = sparse_fixture(&opt);
        let mut bad = art.clone();
        bad.cell_plan[0] = 10_000;
        assert!(matches!(
            SparseArtifact::from_bytes(&bad.to_bytes()),
            Err(ArtifactError::Invalid(_))
        ));
        let mut bad = art.clone();
        bad.cell_idx[0] = bad.cell_idx[1]; // breaks strict ascent
        assert!(matches!(
            SparseArtifact::from_bytes(&bad.to_bytes()),
            Err(ArtifactError::Invalid(_))
        ));
        let mut bad = art;
        bad.contour_costs.clear();
        assert!(matches!(
            SparseArtifact::from_bytes(&bad.to_bytes()),
            Err(ArtifactError::Invalid(_))
        ));
    }

    #[test]
    fn store_sparse_save_and_load() {
        let root =
            std::env::temp_dir().join(format!("rqp-store-sparse-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let (art, _) = sparse_fixture(&opt);
        let store = ArtifactStore::new(&root);
        let path = store.save_sparse(&art).expect("save");
        assert!(path.ends_with("star2.lazy.rqpa"));
        let loaded = store.load_sparse("star2").expect("load");
        assert_eq!(loaded.cell_idx, art.cell_idx);
        assert!(loaded.matches(&opt, &art.grid, 2.0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_paths_and_listing() {
        let root = std::env::temp_dir().join(format!("rqp-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ArtifactStore::new(&root);
        assert_eq!(store.list().unwrap(), Vec::<String>::new());
        assert!(store.path_for("q").ends_with("q.rqpa"));

        let (cat, q, grid) = compile_fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let (_, prov) = store.compile_or_load(&opt, &grid, 2.0, 0.2, 1).unwrap();
        assert!(!prov.is_warm());
        assert_eq!(store.list().unwrap(), vec!["star2".to_string()]);
        let (_, prov) = store.compile_or_load(&opt, &grid, 2.0, 0.2, 1).unwrap();
        assert!(prov.is_warm());
        let _ = std::fs::remove_dir_all(&root);
    }
}
